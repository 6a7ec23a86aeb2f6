// neptune_ctl: a command-line tool over a Neptune graph database —
// the kind of utility a team adopting the HAM actually drives it with.
//
//   neptune_ctl create <dir>
//   neptune_ctl stats <dir | host:port> [--json]
//   neptune_ctl top <host:port> [host:port ...]
//                [--interval-ms <n>] [--iterations <n>] [--window <s>]
//   neptune_ctl trace <host:port> [--chrome <out.json>]
//   neptune_ctl slowops <host:port>
//   neptune_ctl workload <host:port> <server-side-dir>
//                [--deadline-ms <n>] [--retries <n>] [--clients <n>]
//   neptune_ctl recover <dir> [--json]
//   neptune_ctl promote <dir | host:port>
//   neptune_ctl repl <host:port> <server-side-dir>
//   neptune_ctl ls <dir> [node-predicate]
//   neptune_ctl query <dir> <node-predicate> [--explain|--scan|--verify]
//   neptune_ctl query <host:port> <server-side-dir> <node-predicate>
//                [--explain|--scan|--verify]
//   neptune_ctl cat <dir> <node> [time]
//   neptune_ctl new <dir> [title]            (contents from stdin)
//   neptune_ctl put <dir> <node>             (contents from stdin)
//   neptune_ctl link <dir> <from> <pos> <to> [relation]
//   neptune_ctl versions <dir> <node>
//   neptune_ctl diff <dir> <node> <t1> <t2>
//   neptune_ctl fsck <dir>
//   neptune_ctl prune <dir> <before-time>
//   neptune_ctl export <dir>                 (NIF1 to stdout)
//   neptune_ctl import <dir>                 (NIF1 from stdin)
//   neptune_ctl destroy <dir>
//
// All commands address the graph by directory; the ProjectId is read
// from the PROJECT file. When the target is spelled host:port instead
// of a directory, `stats` asks a running neptune_server for its
// process-wide metrics, `trace` fetches its recent-trace ring (and can
// export it as Chrome about:tracing JSON), `slowops` dumps its slow-op
// ring, and `workload` drives a short burst of remote traffic against
// it (so a fresh server has nonzero counters and traces to show).

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "app/document.h"
#include "app/interchange.h"
#include "common/trace.h"
#include "delta/text_diff.h"
#include "ham/ham.h"
#include "rpc/remote_ham.h"
#include "storage/durable_store.h"

using namespace neptune;

namespace {

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "neptune_ctl: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

void Check(const Status& status) {
  if (!status.ok()) Die(status);
}

std::string ReadStdin() {
  return std::string(std::istreambuf_iterator<char>(std::cin),
                     std::istreambuf_iterator<char>());
}

// Opens the graph in `dir` using the PROJECT file's id.
ham::Context OpenByDir(ham::Ham* engine, const std::string& dir) {
  ham::ProjectId project =
      Unwrap(ham::Ham::ReadProjectId(Env::Default(), dir));
  return Unwrap(engine->OpenGraph(project, "local", dir));
}

int Usage() {
  std::fprintf(stderr,
               "usage: neptune_ctl "
               "create|stats|recover|ls|query|cat|new|put|link|versions|diff|"
               "fsck|prune|export|import|destroy <dir> [args...]\n"
               "       neptune_ctl query <dir | host:port server-side-dir> "
               "<node-predicate> [--explain] [--scan] [--verify]\n"
               "       neptune_ctl stats <host:port> [--json]\n"
               "       neptune_ctl top <host:port> [host:port ...]"
               " [--interval-ms <n>] [--iterations <n>] [--window <s>]\n"
               "       neptune_ctl trace <host:port> [--chrome <out.json>]\n"
               "       neptune_ctl slowops <host:port>\n"
               "       neptune_ctl workload <host:port> <server-side-dir>"
               " [--deadline-ms <n>] [--retries <n>] [--clients <n>]"
               " [--pipeline <0|1>]\n"
               "       neptune_ctl recover <dir> [--json]\n"
               "       neptune_ctl promote <dir | host:port>\n"
               "       neptune_ctl repl <host:port> <server-side-dir>\n");
  return 2;
}

// Splits "host:port"; returns false if `target` has no colon (it is a
// directory, not a server address).
bool ParseHostPort(const std::string& target, std::string* host,
                   uint16_t* port) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) return false;
  *host = target.substr(0, colon);
  *port = static_cast<uint16_t>(
      std::strtoul(target.c_str() + colon + 1, nullptr, 10));
  return true;
}

std::unique_ptr<rpc::RemoteHam> ConnectTo(const std::string& host,
                                          uint16_t port) {
  return Unwrap(rpc::RemoteHam::Connect(host, port));
}

// Runs crash recovery on `dir` and reports what it found, then
// cross-checks the recovered graph with the fsck pass. This is the
// operator's "is my database OK after the machine died?" command.
// With --json the whole outcome is one machine-readable object on
// stdout (for CI artifact collection); problems still exit nonzero.
int Recover(const std::string& dir, bool json) {
  RecoveredState state;
  {
    auto store = DurableStore::Open(Env::Default(), dir, &state);
    if (!store.ok()) Die(store.status());
  }
  if (!json) {
    std::printf("%s\n", state.report.ToString().c_str());
    std::printf("snapshot    : %zu bytes (epoch %" PRIu64 ")\n",
                state.snapshot.size(), state.report.snapshot_epoch);
    std::printf("wal records : %zu replayed\n", state.wal_records.size());
  }

  ham::Ham engine(Env::Default(), ham::HamOptions());
  ham::Context ctx = OpenByDir(&engine, dir);
  auto problems = Unwrap(engine.VerifyGraph(ctx));
  if (!json) {
    for (const auto& problem : problems) {
      std::printf("PROBLEM: %s\n", problem.c_str());
    }
  }
  auto stats = Unwrap(engine.GetStats(ctx));
  Check(engine.CloseGraph(ctx));
  if (json) {
    std::printf("{\"report\": %s, \"snapshot_bytes\": %zu, "
                "\"wal_records\": %zu, \"nodes\": %" PRIu64
                ", \"links\": %" PRIu64 ", \"fsck_problems\": %zu, "
                "\"consistent\": %s}\n",
                state.report.ToJson().c_str(), state.snapshot.size(),
                state.wal_records.size(), stats.node_count, stats.link_count,
                problems.size(), problems.empty() ? "true" : "false");
    return problems.empty() ? 0 : 1;
  }
  std::printf("graph       : %" PRIu64 " nodes, %" PRIu64
              " links, %s\n",
              stats.node_count, stats.link_count,
              problems.empty() ? "consistent" : "INCONSISTENT");
  if (!problems.empty()) return 1;
  std::printf(state.report.Clean() ? "store was clean\n"
                                   : "store recovered\n");
  return 0;
}

// Offline promotion: flip a follower store's durable fencing role to
// primary and bump the term, so a deposed primary's late appends are
// rejected. The online path (`promote <host:port>`) does the same
// through a running server and also lifts its read-only mode.
int PromoteDir(const std::string& dir) {
  RecoveredState state;
  auto store = DurableStore::Open(Env::Default(), dir, &state);
  if (!store.ok()) Die(store.status());
  ReplRole role = (*store)->repl_role();
  if (!role.follower) {
    std::printf("%s is already a primary (term %" PRIu64 ")\n", dir.c_str(),
                role.term);
    return 0;
  }
  role.term += 1;
  role.follower = false;
  Check((*store)->SetReplRole(role));
  std::printf("promoted %s to primary, fencing term %" PRIu64 "\n",
              dir.c_str(), role.term);
  return 0;
}

// Remote `stats`: the server's process-wide metrics snapshot, as a
// human-readable table or (--json) one machine-readable object.
int RemoteStats(const std::string& host, uint16_t port, bool json) {
  auto client = ConnectTo(host, port);
  MetricsSnapshot snapshot = Unwrap(client->GetServerStatistics());
  if (json) {
    std::printf("%s\n", snapshot.ToJson().c_str());
  } else {
    std::fputs(snapshot.ToTable().c_str(), stdout);
  }
  return 0;
}

// Remote `trace`: the server's recent-trace ring. Default output is a
// per-trace span tree; --chrome <file> writes Chrome about:tracing
// JSON (chrome://tracing or https://ui.perfetto.dev) instead.
int RemoteTrace(const std::string& host, uint16_t port,
                const std::string& chrome_out) {
  auto client = ConnectTo(host, port);
  std::vector<Trace> traces = Unwrap(client->GetRecentTraces());
  if (!chrome_out.empty()) {
    const std::string json = TracesToChromeJson(traces);
    std::FILE* f = std::fopen(chrome_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "neptune_ctl: cannot write %s\n",
                   chrome_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    size_t spans = 0;
    for (const auto& trace : traces) spans += trace.spans.size();
    std::printf("wrote %zu trace(s), %zu span(s) to %s\n", traces.size(),
                spans, chrome_out.c_str());
    return 0;
  }
  for (const auto& trace : traces) {
    std::printf("trace %016" PRIx64 " (%zu spans)\n", trace.trace_id,
                trace.spans.size());
    for (const auto& span : trace.spans) {
      std::printf("  [%016" PRIx64 " <- %016" PRIx64 "] %-28s %8" PRIu64
                  " us%s%s\n",
                  span.span_id, span.parent_id, span.name.c_str(),
                  span.duration_us, span.annotation.empty() ? "" : "  ",
                  span.annotation.c_str());
    }
  }
  std::printf("(%zu traces)\n", traces.size());
  return 0;
}

// Remote `slowops`: the server's slow-op ring — every span that
// overran trace_slow_us, kept even when its trace was not sampled.
int RemoteSlowOps(const std::string& host, uint16_t port) {
  auto client = ConnectTo(host, port);
  std::vector<Span> ops = Unwrap(client->GetSlowOps());
  for (const auto& span : ops) {
    std::printf("%-28s %8" PRIu64 " us  trace=%016" PRIx64
                " span=%016" PRIx64 "%s%s\n",
                span.name.c_str(), span.duration_us, span.trace_id,
                span.span_id, span.annotation.empty() ? "" : "  ",
                span.annotation.c_str());
  }
  std::printf("(%zu slow ops)\n", ops.size());
  return 0;
}

// ---- `top`: the live fleet view -------------------------------------
//
// One row per server, refreshed in place: role and fencing term,
// windowed ops/s and request p99 (from getServerStatisticsDelta, so
// the numbers are rates over the last --window seconds rather than
// process-lifetime averages), replication lag, and event-loop health.
// Servers running without a stats sampler still show role and gauges,
// with the rate columns dashed.

struct TopRow {
  std::string target;
  bool ok = false;
  std::string error;
  bool has_window = false;  // server runs a sampler (elapsed_us > 0)
  double elapsed_s = 0.0;
  MetricsSnapshot snap;  // windowed delta + newest gauges
};

int64_t GaugeOrZero(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0 : it->second;
}

uint64_t HistP99(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.QuantileMicros(0.99);
}

std::string FmtBytes(int64_t bytes) {
  char buf[32];
  if (bytes >= 10 * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1fM", bytes / 1048576.0);
  } else if (bytes >= 10 * 1024) {
    std::snprintf(buf, sizeof buf, "%.0fK", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%lld", (long long)bytes);
  }
  return buf;
}

std::string FmtUs(uint64_t us) {
  char buf[32];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof buf, "%.1fs", us / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lluus", (unsigned long long)us);
  }
  return buf;
}

// Polls one server. A fresh connection per refresh keeps the view
// honest across restarts and failovers; the deadline keeps one dead
// node from stalling the whole screen.
TopRow PollOne(const std::string& target, uint32_t window_s) {
  TopRow row;
  row.target = target;
  std::string host;
  uint16_t port = 0;
  ParseHostPort(target, &host, &port);
  rpc::RemoteHam::Options options;
  options.connect_timeout_ms = 2000;
  options.send_timeout_ms = 2000;
  options.recv_timeout_ms = 2000;
  auto client = rpc::RemoteHam::Connect(host, port, options);
  if (!client.ok()) {
    row.error = client.status().ToString();
    return row;
  }
  auto delta = (*client)->GetServerStatisticsDelta(window_s);
  if (!delta.ok()) {
    row.error = delta.status().ToString();
    return row;
  }
  if (delta->elapsed_us > 0) {
    row.has_window = true;
    row.elapsed_s = static_cast<double>(delta->elapsed_us) / 1e6;
    row.snap = std::move(delta->snapshot);
  } else {
    // No sampler on that server: gauges from the cumulative snapshot,
    // rates unavailable.
    auto full = (*client)->GetServerStatistics();
    if (!full.ok()) {
      row.error = full.status().ToString();
      return row;
    }
    row.snap = std::move(*full);
  }
  row.ok = true;
  return row;
}

int RunTop(const std::vector<std::string>& targets, unsigned interval_ms,
           long iterations, uint32_t window_s) {
  const bool tty = isatty(1) != 0;
  for (long iter = 0; iterations <= 0 || iter < iterations; ++iter) {
    if (iter > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::vector<TopRow> rows(targets.size());
    std::vector<std::thread> threads;
    threads.reserve(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      threads.emplace_back(
          [&rows, &targets, i, window_s] {
            rows[i] = PollOne(targets[i], window_s);
          });
    }
    for (auto& t : threads) t.join();

    if (tty) std::printf("\033[H\033[2J");
    std::printf("neptune top — %zu node(s), %us window\n\n", targets.size(),
                window_s);
    std::printf("%-22s %-9s %5s %9s %9s %9s %7s %9s %10s\n", "NODE", "ROLE",
                "TERM", "OPS/S", "P99", "LOOP-P99", "SHED/S", "LAG",
                "APPLY-LAG");
    for (const auto& row : rows) {
      if (!row.ok) {
        std::printf("%-22s DOWN  %s\n", row.target.c_str(),
                    row.error.c_str());
        continue;
      }
      const bool follower = GaugeOrZero(row.snap, "repl.role") == 1;
      const int64_t term = GaugeOrZero(row.snap, "repl.term");
      const int64_t lag_bytes =
          follower ? GaugeOrZero(row.snap, "repl.follower.lag_bytes")
                   : GaugeOrZero(row.snap, "repl.lag_bytes");
      char ops[32], shed[32];
      if (row.has_window && row.elapsed_s > 0) {
        std::snprintf(ops, sizeof ops, "%.1f",
                      row.snap.CounterValue("rpc.requests") / row.elapsed_s);
        std::snprintf(shed, sizeof shed, "%.1f",
                      row.snap.CounterValue("server.shed") / row.elapsed_s);
      } else {
        std::snprintf(ops, sizeof ops, "-");
        std::snprintf(shed, sizeof shed, "-");
      }
      std::printf("%-22s %-9s %5lld %9s %9s %9s %7s %9s %10s\n",
                  row.target.c_str(), follower ? "follower" : "primary",
                  (long long)term, ops,
                  FmtUs(HistP99(row.snap, "rpc.request_latency")).c_str(),
                  FmtUs(HistP99(row.snap, "server.loop.lag_us")).c_str(),
                  shed, FmtBytes(lag_bytes).c_str(),
                  follower
                      ? FmtUs(static_cast<uint64_t>(
                                  GaugeOrZero(row.snap, "repl.apply_lag_us")))
                            .c_str()
                      : "-");
    }
    std::fflush(stdout);
  }
  return 0;
}

// One client's worth of representative traffic so every metric family
// on the server moves. Creates (and destroys) a scratch graph under
// `dir` on the server's filesystem.
void RunOneWorkload(rpc::RemoteHam* client, const std::string& dir) {
  auto created = Unwrap(client->CreateGraph(dir, 0755));
  ham::Context ctx =
      Unwrap(client->OpenGraph(created.project, "neptune_ctl", dir));

  Check(client->BeginTransaction(ctx));
  auto a = Unwrap(client->AddNode(ctx, true));
  auto b = Unwrap(client->AddNode(ctx, true));
  Check(client->ModifyNode(ctx, a.node, a.creation_time,
                           "workload: node a, version 1\n", {}, "v1"));
  Check(client->ModifyNode(ctx, b.node, b.creation_time,
                           "workload: node b\n", {}, "v1"));
  auto link = Unwrap(client->AddLink(ctx, ham::LinkPt{a.node, 3, 0, true},
                                     ham::LinkPt{b.node, 0, 0, true}));
  Check(client->CommitTransaction(ctx));

  // Another version of node a, so the delta layer does real work.
  auto reopened = Unwrap(client->OpenNode(ctx, a.node, 0, {}));
  std::vector<ham::AttachmentUpdate> updates;
  for (const auto& att : reopened.attachments) {
    updates.push_back({att.link, att.is_source_end, att.position});
  }
  Check(client->ModifyNode(ctx, a.node, reopened.current_version_time,
                           "workload: node a, version 2\n", updates, "v2"));

  // Read version 1 back now that version 2 is current: the first read
  // reconstructs through the delta chain (delta.cache.miss), the
  // second is served from the reconstruction cache (delta.cache.hit).
  const ham::Time v1_time = reopened.current_version_time;
  (void)Unwrap(client->OpenNode(ctx, a.node, v1_time, {}));
  (void)Unwrap(client->OpenNode(ctx, a.node, v1_time, {}));

  auto relation = Unwrap(client->GetAttributeIndex(ctx, "relation"));
  Check(client->SetLinkAttributeValue(ctx, link.link, relation, "comment"));
  Check(client->SetNodeAttributeValue(ctx, a.node, relation, "document"));

  (void)Unwrap(client->GetGraphQuery(ctx, 0, "", "", {}, {}));
  (void)Unwrap(client->GetNodeVersions(ctx, a.node));
  (void)Unwrap(client->GetToNode(ctx, link.link, 0));
  Check(client->Checkpoint(ctx));

  Check(client->CloseGraph(ctx));
  Check(client->DestroyGraph(created.project, dir));
}

// Remote `workload`: with --clients N, N concurrent threads each drive
// the burst against their own scratch graph (`dir-0`, `dir-1`, ...) —
// a quick way to exercise the server's admission control and session
// cleanup from the command line. Each thread dials its own connection,
// or with `shared` they all share one, where their calls overlap and
// go out tagged.
int RemoteWorkload(const std::string& host, uint16_t port,
                   const std::string& dir,
                   const rpc::RemoteHam::Options& options, int clients,
                   bool shared) {
  std::unique_ptr<rpc::RemoteHam> shared_client;
  if (shared) {
    shared_client = Unwrap(rpc::RemoteHam::Connect(host, port, options));
  }
  const auto run = [&](const std::string& graph_dir) {
    if (shared_client != nullptr) {
      RunOneWorkload(shared_client.get(), graph_dir);
      return;
    }
    auto client = Unwrap(rpc::RemoteHam::Connect(host, port, options));
    RunOneWorkload(client.get(), graph_dir);
  };
  if (clients <= 1) {
    run(dir);
    std::printf("workload complete against %s:%u (scratch graph %s)\n",
                host.empty() ? "localhost" : host.c_str(), port, dir.c_str());
    return 0;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] { run(dir + "-" + std::to_string(i)); });
  }
  for (auto& t : threads) t.join();
  std::printf("workload complete against %s:%u (%d clients, scratch graphs "
              "%s-0..%s-%d)\n",
              host.empty() ? "localhost" : host.c_str(), port, clients,
              dir.c_str(), dir.c_str(), clients - 1);
  return 0;
}

// `query [--explain]`: run a getGraphQuery through the planner (works
// against a local directory or a live server) and optionally print the
// plan the engine chose. --scan forces the scan baseline; --verify
// cross-checks the indexed result against a scan under one lock.
int RunQuery(ham::HamInterface* engine, ham::Context ctx,
             const std::string& node_pred, bool explain, bool force_scan,
             bool verify) {
  ham::QueryOptions options;
  options.force_scan = force_scan;
  options.verify = verify;
  auto result = Unwrap(
      engine->GetGraphQueryExplained(ctx, 0, node_pred, "", {}, {}, options));
  for (const auto& node : result.graph.nodes) {
    std::printf("%8" PRIu64 "\n", node.node);
  }
  std::printf("(%zu nodes, %zu links)\n", result.graph.nodes.size(),
              result.graph.links.size());
  const ham::QueryPlan& plan = result.plan;
  if (explain) {
    std::printf("plan          : %s%s\n", ham::QueryPlanKindName(plan.kind),
                plan.eligible ? "" : "  (view not index-eligible)");
    std::printf("conjuncts     : %u\n", plan.conjuncts);
    std::printf("candidates    : %" PRIu64 "\n", plan.candidates);
    std::printf("residual evals: %" PRIu64 "\n", plan.residual_evals);
    std::printf("index maint   : %" PRIu64 " delta(s) applied%s\n",
                plan.applied_deltas, plan.rebuilt ? ", full rebuild" : "");
    if (plan.verified) {
      std::printf("verify        : %s\n",
                  plan.verify_match ? "indexed == scan" : "MISMATCH");
    }
  }
  return plan.verified && !plan.verify_match ? 1 : 0;
}

struct QueryFlags {
  std::string predicate;
  bool explain = false;
  bool force_scan = false;
  bool verify = false;
  bool ok = false;
};

QueryFlags ParseQueryFlags(int argc, char** argv, int first) {
  QueryFlags flags;
  if (first >= argc) return flags;
  flags.predicate = argv[first];
  flags.ok = true;
  for (int i = first + 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--explain") {
      flags.explain = true;
    } else if (flag == "--scan") {
      flags.force_scan = true;
    } else if (flag == "--verify") {
      flags.verify = true;
    } else {
      flags.ok = false;
      return flags;
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string dir = argv[2];

  std::string host;
  uint16_t port = 0;
  if (ParseHostPort(dir, &host, &port)) {
    if (command == "stats") {
      const bool json = argc > 3 && std::string(argv[3]) == "--json";
      return RemoteStats(host, port, json);
    }
    if (command == "trace") {
      std::string chrome_out;
      if (argc > 3) {
        if (argc < 5 || std::string(argv[3]) != "--chrome") return Usage();
        chrome_out = argv[4];
      }
      return RemoteTrace(host, port, chrome_out);
    }
    if (command == "slowops") return RemoteSlowOps(host, port);
    if (command == "top") {
      std::vector<std::string> targets;
      unsigned interval_ms = 2000;
      long iterations = 0;  // 0 = until killed
      uint32_t window_s = 10;
      int i = 2;
      for (; i < argc; ++i) {
        std::string h;
        uint16_t p = 0;
        if (!ParseHostPort(argv[i], &h, &p)) break;
        targets.push_back(argv[i]);
      }
      for (; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const long value = std::atol(argv[i + 1]);
        if (flag == "--interval-ms") {
          interval_ms = static_cast<unsigned>(value);
        } else if (flag == "--iterations") {
          iterations = value;
        } else if (flag == "--window") {
          window_s = static_cast<uint32_t>(value);
        } else {
          return Usage();
        }
      }
      if (i != argc || targets.empty() || window_s == 0) return Usage();
      return RunTop(targets, interval_ms, iterations, window_s);
    }
    if (command == "query") {
      // The project id still comes from the PROJECT file, so the
      // server-side directory must be readable here too (the usual
      // localhost demo setup).
      if (argc < 5) return Usage();
      const std::string server_dir = argv[3];
      QueryFlags flags = ParseQueryFlags(argc, argv, 4);
      if (!flags.ok) return Usage();
      ham::ProjectId project =
          Unwrap(ham::Ham::ReadProjectId(Env::Default(), server_dir));
      auto client = ConnectTo(host, port);
      ham::Context ctx =
          Unwrap(client->OpenGraph(project, "neptune_ctl", server_dir));
      int rc = RunQuery(client.get(), ctx, flags.predicate, flags.explain,
                        flags.force_scan, flags.verify);
      Check(client->CloseGraph(ctx));
      return rc;
    }
    if (command == "workload") {
      if (argc < 4) return Usage();
      rpc::RemoteHam::Options options;
      int clients = 1;
      bool shared = false;
      for (int i = 4; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const int value = std::atoi(argv[i + 1]);
        if (flag == "--deadline-ms") {
          options.connect_timeout_ms = value;
          options.send_timeout_ms = value;
          options.recv_timeout_ms = value;
        } else if (flag == "--retries") {
          options.max_retries = static_cast<uint32_t>(value);
        } else if (flag == "--clients") {
          clients = value;
        } else if (flag == "--pipeline") {
          // The --clients threads share one connection, where their
          // calls overlap and go out tagged.
          shared = value != 0;
        } else {
          return Usage();
        }
      }
      return RemoteWorkload(host, port, argv[3], options, clients, shared);
    }
    if (command == "promote") {
      auto client = ConnectTo(host, port);
      uint64_t term = Unwrap(client->Promote());
      std::printf("promoted %s:%u to primary, fencing term %" PRIu64 "\n",
                  host.c_str(), port, term);
      return 0;
    }
    if (command == "repl") {
      if (argc < 4) return Usage();
      auto client = ConnectTo(host, port);
      ham::ReplNodeStatus status = Unwrap(client->ReplStatus(argv[3]));
      std::printf("role        : %s\n",
                  status.follower ? "follower" : "primary");
      std::printf("term        : %" PRIu64 "\n", status.term);
      std::printf("epoch       : %" PRIu64 "\n", status.epoch);
      std::printf("wal bytes   : %" PRIu64 "\n", status.wal_bytes);
      std::printf("lag bytes   : %" PRIu64 "\n", status.lag_bytes);
      if (status.behind_ms == ~0ull) {
        std::printf("behind      : never caught up\n");
      } else {
        std::printf("behind      : %" PRIu64 " ms\n", status.behind_ms);
      }
      return 0;
    }
    std::fprintf(stderr,
                 "neptune_ctl: only stats, top, trace, slowops, query, "
                 "workload, promote and repl accept host:port\n");
    return 2;
  }
  if (command == "workload" || command == "trace" || command == "slowops" ||
      command == "repl" || command == "top") {
    std::fprintf(stderr, "neptune_ctl: %s needs a host:port target\n",
                 command.c_str());
    return 2;
  }

  if (command == "recover") {
    return Recover(dir, argc > 3 && std::string(argv[3]) == "--json");
  }
  if (command == "promote") return PromoteDir(dir);

  ham::Ham engine(Env::Default(), ham::HamOptions());

  if (command == "create") {
    auto created = Unwrap(engine.CreateGraph(dir, 0755));
    std::printf("created graph in %s (project %" PRIu64 ")\n", dir.c_str(),
                created.project);
    return 0;
  }
  if (command == "destroy") {
    ham::ProjectId project =
        Unwrap(ham::Ham::ReadProjectId(Env::Default(), dir));
    Check(engine.DestroyGraph(project, dir));
    std::printf("destroyed %s\n", dir.c_str());
    return 0;
  }

  ham::Context ctx = OpenByDir(&engine, dir);

  if (command == "stats") {
    auto stats = Unwrap(engine.GetStats(ctx));
    std::printf("nodes       : %" PRIu64 " live / %" PRIu64 " total\n",
                stats.node_count, stats.total_node_records);
    std::printf("links       : %" PRIu64 " live / %" PRIu64 " total\n",
                stats.link_count, stats.total_link_records);
    std::printf("attributes  : %" PRIu64 "\n", stats.attribute_count);
    std::printf("contexts    : %" PRIu64 "\n", stats.thread_count + 1);
    std::printf("wal bytes   : %" PRIu64 "\n", stats.wal_bytes);
    std::printf("logical time: %" PRIu64 "\n", stats.current_time);
  } else if (command == "ls") {
    const std::string predicate = argc > 3 ? argv[3] : "";
    app::DocumentModel doc(&engine, ctx);
    Check(doc.Init());
    auto result =
        Unwrap(engine.GetGraphQuery(ctx, 0, predicate, "", {}, {}));
    for (const auto& node : result.nodes) {
      std::printf("%8" PRIu64 "  %s\n", node.node,
                  doc.TitleOf(node.node, 0).c_str());
    }
    std::printf("(%zu nodes, %zu links)\n", result.nodes.size(),
                result.links.size());
  } else if (command == "query") {
    QueryFlags flags = ParseQueryFlags(argc, argv, 3);
    if (!flags.ok) return Usage();
    const int rc = RunQuery(&engine, ctx, flags.predicate, flags.explain,
                            flags.force_scan, flags.verify);
    Check(engine.CloseGraph(ctx));
    return rc;
  } else if (command == "cat") {
    if (argc < 4) return Usage();
    const ham::NodeIndex node = std::strtoull(argv[3], nullptr, 10);
    const ham::Time time = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 0;
    auto opened = Unwrap(engine.OpenNode(ctx, node, time, {}));
    std::fwrite(opened.contents.data(), 1, opened.contents.size(), stdout);
  } else if (command == "new") {
    app::DocumentModel doc(&engine, ctx);
    Check(doc.Init());
    auto added = Unwrap(engine.AddNode(ctx, true));
    const std::string contents = ReadStdin();
    Check(engine.ModifyNode(ctx, added.node, added.creation_time, contents,
                            {}, "neptune_ctl new"));
    if (argc > 3) {
      Check(engine.SetNodeAttributeValue(ctx, added.node, doc.icon_attr(),
                                         argv[3]));
    }
    std::printf("%" PRIu64 "\n", added.node);
  } else if (command == "put") {
    if (argc < 4) return Usage();
    const ham::NodeIndex node = std::strtoull(argv[3], nullptr, 10);
    auto opened = Unwrap(engine.OpenNode(ctx, node, 0, {}));
    std::vector<ham::AttachmentUpdate> updates;
    for (const auto& att : opened.attachments) {
      updates.push_back({att.link, att.is_source_end, att.position});
    }
    Check(engine.ModifyNode(ctx, node, opened.current_version_time,
                            ReadStdin(), updates, "neptune_ctl put"));
  } else if (command == "link") {
    if (argc < 6) return Usage();
    const ham::NodeIndex from = std::strtoull(argv[3], nullptr, 10);
    const uint64_t pos = std::strtoull(argv[4], nullptr, 10);
    const ham::NodeIndex to = std::strtoull(argv[5], nullptr, 10);
    auto link = Unwrap(engine.AddLink(ctx, ham::LinkPt{from, pos, 0, true},
                                      ham::LinkPt{to, 0, 0, true}));
    if (argc > 6) {
      auto relation = Unwrap(engine.GetAttributeIndex(ctx, "relation"));
      Check(engine.SetLinkAttributeValue(ctx, link.link, relation, argv[6]));
    }
    std::printf("%" PRIu64 "\n", link.link);
  } else if (command == "versions") {
    if (argc < 4) return Usage();
    const ham::NodeIndex node = std::strtoull(argv[3], nullptr, 10);
    auto versions = Unwrap(engine.GetNodeVersions(ctx, node));
    for (const auto& v : versions.major) {
      std::printf("major t=%" PRIu64 "  %s\n", v.time,
                  v.explanation.c_str());
    }
    for (const auto& v : versions.minor) {
      std::printf("minor t=%" PRIu64 "  %s\n", v.time,
                  v.explanation.c_str());
    }
  } else if (command == "diff") {
    if (argc < 6) return Usage();
    const ham::NodeIndex node = std::strtoull(argv[3], nullptr, 10);
    const ham::Time t1 = std::strtoull(argv[4], nullptr, 10);
    const ham::Time t2 = std::strtoull(argv[5], nullptr, 10);
    auto diffs = Unwrap(engine.GetNodeDifferences(ctx, node, t1, t2));
    std::fputs(delta::FormatDifferences(diffs).c_str(), stdout);
  } else if (command == "fsck") {
    auto problems = Unwrap(engine.VerifyGraph(ctx));
    for (const auto& problem : problems) {
      std::printf("PROBLEM: %s\n", problem.c_str());
    }
    std::printf(problems.empty() ? "graph is clean\n"
                                 : "%zu problem(s) found\n",
                problems.size());
  } else if (command == "prune") {
    if (argc < 4) return Usage();
    const ham::Time before = std::strtoull(argv[3], nullptr, 10);
    auto snapshot_bytes = Unwrap(engine.PruneHistory(ctx, before));
    std::printf("pruned history before t=%" PRIu64 "; snapshot now %" PRIu64
                " bytes\n",
                before, snapshot_bytes);
  } else if (command == "export") {
    auto exported = Unwrap(app::ExportGraph(&engine, ctx, 0));
    std::fwrite(exported.data(), 1, exported.size(), stdout);
  } else if (command == "import") {
    auto report = Unwrap(app::ImportGraph(&engine, ctx, ReadStdin()));
    std::fprintf(stderr, "imported %zu nodes, %zu links, %zu attributes\n",
                 report.nodes, report.links, report.attributes);
  } else {
    return Usage();
  }
  Check(engine.CloseGraph(ctx));
  return 0;
}
