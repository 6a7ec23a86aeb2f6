// neptune_server: the client/server deployment of the paper —
// "Neptune has a central server which is accessible over a local area
// network from a variety of workstations."
//
// Modes:
//   ./neptune_server serve <data-dir> [port] [stats-interval-sec]
//                    [txn-lease-ms] [idle-timeout-ms]
//                    [trace-sample-n] [trace-slow-us]
//                    [--workers=N]
//       Runs a HAM server (port 0 = pick one) until killed. A nonzero
//       stats interval logs a one-line metrics summary periodically.
//       txn-lease-ms > 0 arms the transaction-lease watchdog (silent
//       transactions are aborted and their writer slot reclaimed);
//       idle-timeout-ms > 0 reaps connections that go quiet;
//       trace-sample-n > 0 records 1-in-N request traces (1 = all,
//       see `neptune_ctl trace`); trace-slow-us > 0 always logs and
//       keeps spans slower than that many microseconds.
//       --workers sizes the thread pool (default 4); the thread that
//       reads a request also executes it and writes the reply.
//       --metrics-port=N opens the observability plane on
//       127.0.0.1:N — GET /metrics (Prometheus), /statusz (JSON
//       health), /statsz (full registry) — and starts the 1s stats
//       sampler that powers windowed rates (and `neptune_ctl top`).
//   ./neptune_server follow <data-dir> <port> <primary-host:port>
//                    <primary-root> [poll-wait-ms] [trace-sample-n]
//                    [--metrics-port=N]
//       Runs a read-only follower: tails the primary's WAL into
//       <data-dir> (snapshot bootstrap + per-commit shipping) and
//       serves idempotent reads. Writes are rejected with kReadOnly.
//       `neptune_ctl promote <host:port>` turns it into a primary.
//   ./neptune_server demo [data-dir]
//       Starts an in-process server on an ephemeral port, connects a
//       RemoteHam client over real TCP, and runs a workstation session
//       against it — the zero-setup way to see the RPC layer work.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "ham/ham.h"
#include "obs/http.h"
#include "obs/window.h"
#include "rpc/remote_ham.h"
#include "rpc/replicator.h"
#include "rpc/server.h"

using neptune::Env;
using neptune::LogLevel;
using neptune::ham::Ham;
using neptune::ham::HamOptions;
using neptune::ham::LinkPt;
using neptune::rpc::RemoteHam;
using neptune::rpc::Server;

#define CHECK_OK(expr)                                        \
  do {                                                        \
    auto _s = (expr);                                         \
    if (!_s.ok()) {                                           \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__,     \
                   __LINE__, _s.ToString().c_str());          \
      return 1;                                               \
    }                                                         \
  } while (0)

namespace {

// Starts the 1s registry sampler (windowed rates, `neptune_ctl top`)
// and the /metrics + /statusz HTTP listener when --metrics-port was
// given. Both live for the rest of the process (serve/follow modes
// only exit via signal).
int StartObservability(int metrics_port, uint16_t rpc_port,
                       const std::string& dir, const char* mode) {
  if (metrics_port < 0) return 0;
  auto* sampler = new neptune::obs::StatsSampler(
      &neptune::obs::MetricsWindow::Instance(), {});
  sampler->Start();
  neptune::obs::MetricsHttpServer::Options http_options;
  http_options.window = &neptune::obs::MetricsWindow::Instance();
  http_options.statusz_extra = {
      {"mode", mode},
      {"rpc_port", std::to_string(rpc_port)},
      {"data_dir", dir},
  };
  auto* http = new neptune::obs::MetricsHttpServer(std::move(http_options));
  auto bound = http->Start(static_cast<uint16_t>(metrics_port));
  if (!bound.ok()) {
    std::fprintf(stderr, "cannot start metrics listener: %s\n",
                 bound.status().ToString().c_str());
    return 1;
  }
  std::printf("metrics on http://127.0.0.1:%u/metrics (also /statusz)\n",
              *bound);
  return 0;
}

int RunServe(const std::string& dir, uint16_t port, unsigned stats_interval,
             unsigned txn_lease_ms, unsigned idle_timeout_ms,
             unsigned trace_sample_n, unsigned trace_slow_us, int workers,
             int metrics_port) {
  neptune::SetLogLevel(LogLevel::kInfo);
  Env::Default()->CreateDir(dir);
  HamOptions ham_options;
  ham_options.txn_lease_ms = txn_lease_ms;
  ham_options.trace_sample_n = trace_sample_n;
  ham_options.trace_slow_us = trace_slow_us;
  Ham ham(Env::Default(), ham_options);
  Server::Options server_options;
  server_options.idle_timeout_ms = static_cast<int>(idle_timeout_ms);
  if (workers > 0) server_options.worker_threads = workers;
  Server server(&ham, server_options);
  auto bound = server.Start(port);
  if (!bound.ok()) {
    std::fprintf(stderr, "cannot start: %s\n",
                 bound.status().ToString().c_str());
    return 1;
  }
  std::printf("neptune server on 127.0.0.1:%u, data under %s\n", *bound,
              dir.c_str());
  if (StartObservability(metrics_port, *bound, dir, "serve") != 0) return 1;
  if (txn_lease_ms > 0) {
    std::printf("transaction lease: %ums\n", txn_lease_ms);
  }
  if (idle_timeout_ms > 0) {
    std::printf("idle connection timeout: %ums\n", idle_timeout_ms);
  }
  if (trace_sample_n > 0) {
    std::printf("tracing: 1 in %u requests\n", trace_sample_n);
  }
  if (trace_slow_us > 0) {
    std::printf("slow-op threshold: %uus\n", trace_slow_us);
  }
  std::printf("press Ctrl-C to stop\n");
  if (stats_interval > 0) {
    // Detached: the process only exits via signal anyway.
    std::thread([stats_interval] {
      for (;;) {
        std::this_thread::sleep_for(std::chrono::seconds(stats_interval));
        NEPTUNE_LOG(Info)
            << neptune::MetricsRegistry::Instance().Snapshot().ToLogLine();
      }
    }).detach();
  }
  for (;;) pause();
}

int RunFollow(const std::string& dir, uint16_t port,
              const std::string& primary_host, uint16_t primary_port,
              const std::string& primary_root, unsigned poll_wait_ms,
              unsigned trace_sample_n, int metrics_port) {
  neptune::SetLogLevel(LogLevel::kInfo);
  Env::Default()->CreateDir(dir);
  HamOptions ham_options;
  ham_options.follower_mode = true;
  ham_options.trace_sample_n = trace_sample_n;
  Ham ham(Env::Default(), ham_options);
  Server server(&ham);
  auto bound = server.Start(port);
  if (!bound.ok()) {
    std::fprintf(stderr, "cannot start: %s\n",
                 bound.status().ToString().c_str());
    return 1;
  }
  auto primary = RemoteHam::Connect(primary_host, primary_port);
  if (!primary.ok()) {
    std::fprintf(stderr, "cannot reach primary %s:%u: %s\n",
                 primary_host.c_str(), primary_port,
                 primary.status().ToString().c_str());
    return 1;
  }
  neptune::rpc::Replicator::Options repl_options;
  repl_options.primary_root = primary_root;
  repl_options.local_root = dir;
  if (poll_wait_ms > 0) repl_options.poll_wait_ms = poll_wait_ms;
  neptune::rpc::Replicator replicator(&ham, primary->get(), repl_options);
  replicator.Start();
  if (StartObservability(metrics_port, *bound, dir, "follow") != 0) return 1;
  std::printf("neptune follower on 127.0.0.1:%u, replicating %s:%u%s%s "
              "into %s\n",
              *bound, primary_host.c_str(), primary_port,
              primary_root.empty() ? "" : " root ", primary_root.c_str(),
              dir.c_str());
  std::printf("press Ctrl-C to stop; promote with: neptune_ctl promote "
              "127.0.0.1:%u\n",
              *bound);
  for (;;) pause();
}

int RunDemo(const std::string& dir) {
  Env* env = Env::Default();
  env->RemoveDirRecursive(dir);
  env->CreateDir(dir);

  // The "central server".
  Ham engine(env, HamOptions());
  Server server(&engine);
  auto port = server.Start(0);
  CHECK_OK(port.status());
  std::printf("server up on 127.0.0.1:%u\n", *port);

  // A "workstation" connects over TCP.
  auto client = RemoteHam::Connect("localhost", *port);
  CHECK_OK(client.status());
  std::printf("workstation connected (ping ok)\n");

  const std::string graph_dir = dir + "/project-graph";
  auto created = (*client)->CreateGraph(graph_dir, 0755);
  CHECK_OK(created.status());
  auto ctx = (*client)->OpenGraph(created->project, "localhost", graph_dir);
  CHECK_OK(ctx.status());

  // A transaction spanning several primitive operations, all remote.
  CHECK_OK((*client)->BeginTransaction(*ctx));
  auto a = (*client)->AddNode(*ctx, true);
  auto b = (*client)->AddNode(*ctx, true);
  CHECK_OK(a.status());
  CHECK_OK(b.status());
  CHECK_OK((*client)->ModifyNode(*ctx, a->node, a->creation_time,
                                 "design data on the server\n", {},
                                 "initial"));
  CHECK_OK((*client)->ModifyNode(*ctx, b->node, b->creation_time,
                                 "a review comment\n", {}, "initial"));
  auto link = (*client)->AddLink(*ctx, LinkPt{a->node, 7, 0, true},
                                 LinkPt{b->node, 0, 0, true});
  CHECK_OK(link.status());
  CHECK_OK((*client)->CommitTransaction(*ctx));
  std::printf("committed a 5-operation transaction over the wire\n");

  // A second workstation sees the committed state immediately.
  auto client2 = RemoteHam::Connect("localhost", *port);
  CHECK_OK(client2.status());
  auto ctx2 = (*client2)->OpenGraph(created->project, "localhost", graph_dir);
  CHECK_OK(ctx2.status());
  auto seen = (*client2)->OpenNode(*ctx2, a->node, 0, {});
  CHECK_OK(seen.status());
  std::printf("second workstation reads: %s", seen->contents.c_str());
  std::printf("  ...with %zu attachment(s)\n", seen->attachments.size());

  auto stats = (*client2)->GetStats(*ctx2);
  CHECK_OK(stats.status());
  std::printf("server-side stats: %llu nodes, %llu links\n",
              (unsigned long long)stats->node_count,
              (unsigned long long)stats->link_count);

  CHECK_OK((*client2)->CloseGraph(*ctx2));
  CHECK_OK((*client)->CloseGraph(*ctx));
  CHECK_OK((*client)->DestroyGraph(created->project, graph_dir));
  server.Stop();
  env->RemoveDirRecursive(dir);
  std::printf("demo complete\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags may appear anywhere; the positional args keep their
  // historical order, so existing invocations still work.
  int workers = 0;
  int metrics_port = -1;  // -1 = observability plane off
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      metrics_port = std::atoi(arg.c_str() + 15);
    } else {
      args.push_back(argv[i]);
    }
  }
  const int nargs = static_cast<int>(args.size());
  const std::string mode = nargs > 1 ? args[1] : "demo";
  if (mode == "serve") {
    if (nargs < 3) {
      std::fprintf(stderr,
                   "usage: %s serve <data-dir> [port] [stats-interval-sec]"
                   " [txn-lease-ms] [idle-timeout-ms]"
                   " [trace-sample-n] [trace-slow-us]"
                   " [--workers=N] [--metrics-port=N]\n",
                   args[0]);
      return 2;
    }
    const uint16_t port =
        nargs > 3 ? static_cast<uint16_t>(std::atoi(args[3])) : 0;
    const unsigned stats_interval =
        nargs > 4 ? static_cast<unsigned>(std::atoi(args[4])) : 0;
    const unsigned txn_lease_ms =
        nargs > 5 ? static_cast<unsigned>(std::atoi(args[5])) : 0;
    const unsigned idle_timeout_ms =
        nargs > 6 ? static_cast<unsigned>(std::atoi(args[6])) : 0;
    const unsigned trace_sample_n =
        nargs > 7 ? static_cast<unsigned>(std::atoi(args[7])) : 0;
    const unsigned trace_slow_us =
        nargs > 8 ? static_cast<unsigned>(std::atoi(args[8])) : 0;
    return RunServe(args[2], port, stats_interval, txn_lease_ms,
                    idle_timeout_ms, trace_sample_n, trace_slow_us, workers,
                    metrics_port);
  }
  if (mode == "follow") {
    if (nargs < 6) {
      std::fprintf(stderr,
                   "usage: %s follow <data-dir> <port> <primary-host:port>"
                   " <primary-root> [poll-wait-ms] [trace-sample-n]"
                   " [--metrics-port=N]\n",
                   args[0]);
      return 2;
    }
    const std::string target = args[4];
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "primary must be host:port, got %s\n",
                   target.c_str());
      return 2;
    }
    const std::string primary_host = target.substr(0, colon);
    const uint16_t primary_port = static_cast<uint16_t>(
        std::strtoul(target.c_str() + colon + 1, nullptr, 10));
    const uint16_t port = static_cast<uint16_t>(std::atoi(args[3]));
    const unsigned poll_wait_ms =
        nargs > 6 ? static_cast<unsigned>(std::atoi(args[6])) : 0;
    const unsigned trace_sample_n =
        nargs > 7 ? static_cast<unsigned>(std::atoi(args[7])) : 0;
    return RunFollow(args[2], port, primary_host, primary_port, args[5],
                     poll_wait_ms, trace_sample_n, metrics_port);
  }
  if (mode == "demo") {
    return RunDemo(nargs > 2 ? args[2] : "/tmp/neptune_server_demo");
  }
  std::fprintf(stderr,
               "usage: %s serve <data-dir> [port] [stats-interval-sec]"
               " [txn-lease-ms] [idle-timeout-ms]"
               " [trace-sample-n] [trace-slow-us]"
               " [--workers=N] [--metrics-port=N]"
               " | follow <data-dir> <port> <primary-host:port>"
               " <primary-root> [poll-wait-ms] [--metrics-port=N]"
               " | demo [dir]\n",
               argv[0]);
  return 2;
}
