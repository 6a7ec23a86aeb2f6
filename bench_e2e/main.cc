// neptune_e2e: runs one workload of the paper-session benchmark.
//
//   neptune_e2e --workload browse|author|mixed --seed N --seconds S
//               --trace 0|1 --server <neptune_server> --work <dir>
//               [--trace-out <file.json>]
//
// Set-up (repeated three times untraced, once traced; the median is
// setup_s): generate the graph in <work>, start `neptune_server serve`
// on it with its shipped defaults, connect the workstations, warm up.
// Then every workstation runs its seeded script, the server is killed,
// the data directory is recovered in-process, fsck'd and checked for
// every acknowledged write, and checkpointed for the storage ratio.
// The last line of stdout is the JSON result.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "ham/ham.h"
#include "rpc/remote_ham.h"
#include "storage/env.h"
#include "workload.h"

namespace neptune {
namespace bench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;
  std::string work;
  std::string trace_out;
};

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Percentile(std::vector<float> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - lo) * (values[hi] - values[lo]);
}

double Mean(const std::vector<float>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (float v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

using Samples = std::array<std::vector<float>, kActionCount>;

// One ClientStats sample array (e.g. &ClientStats::latency_us) pooled
// over every client for the given actions.
std::vector<float> Pool(const std::vector<ClientStats*>& clients,
                        Samples ClientStats::*member,
                        std::initializer_list<Action> actions) {
  std::vector<float> all;
  for (const ClientStats* c : clients) {
    for (Action a : actions) {
      const std::vector<float>& v = (c->*member)[static_cast<size_t>(a)];
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  return all;
}

// A script still running at this multiple of --seconds is cut short, so
// a run on a starved host still ends in bounded time.
constexpr double kDeadlineFactor = 3;

// ------------------------------------------------------ server process

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Start(const std::string& binary, const std::string& data_dir,
               const std::string& log_prefix) {
    const std::string out_path = log_prefix + ".out";
    const std::string err_path = log_prefix + ".err";
    pid_ = fork();
    if (pid_ < 0) return Status::IOError("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out < 0 || err < 0) _exit(126);
      dup2(out, STDOUT_FILENO);
      dup2(err, STDERR_FILENO);
      // Shipped defaults: port 0 (picked by the kernel), no stats log,
      // no lease, no idle reaping, tracing off, 1 IO thread, 4 workers.
      execl(binary.c_str(), binary.c_str(), "serve", data_dir.c_str(), "0",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    // The server's stdout is block-buffered into a file; its log line
    // on stderr is not.
    const std::string marker = "event=listening addr=127.0.0.1:";
    for (int waited_ms = 0; waited_ms < 30000; waited_ms += 2) {
      std::ifstream in(err_path);
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find(marker);
        if (at != std::string::npos) {
          port_ = static_cast<uint16_t>(
              std::strtoul(line.c_str() + at + marker.size(), nullptr, 10));
          return Status::OK();
        }
      }
      int wstatus = 0;
      if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::IOError("server exited during start; see " + err_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Kill();
    return Status::DeadlineExceeded("server did not report its port");
  }

  // SIGKILL: the run ends like a power-cut-free crash, so recovery has
  // to replay the WAL tail the server left behind.
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int wstatus = 0;
    waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// Counters of the server process (/proc) and of this process.
struct ProcSample {
  double server_cpu_us = 0;
  double syscalls = 0;
  double ctx_switches = 0;
  double client_cpu_us = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double StatusField(const std::string& text, const std::string& key) {
  const size_t at = text.find(key + ":");
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + key.size() + 1, nullptr);
}

ProcSample SampleProcesses(pid_t server) {
  ProcSample sample;
  const std::string proc = "/proc/" + std::to_string(server);
  const std::string stat = ReadFile(proc + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream fields(stat.substr(paren + 2));
    std::vector<std::string> f;
    std::string token;
    while (fields >> token) f.push_back(token);
    if (f.size() > 12) {
      const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
      sample.server_cpu_us =
          (std::strtod(f[11].c_str(), nullptr) +
           std::strtod(f[12].c_str(), nullptr)) * 1e6 / ticks;
    }
  }
  const std::string io = ReadFile(proc + "/io");
  sample.syscalls = StatusField(io, "syscr") + StatusField(io, "syscw");
  std::error_code ec;
  for (const auto& task : fs::directory_iterator(proc + "/task", ec)) {
    const std::string status = ReadFile(task.path().string() + "/status");
    sample.ctx_switches += StatusField(status, "voluntary_ctxt_switches") +
                           StatusField(status, "nonvoluntary_ctxt_switches");
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.client_cpu_us =
      (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e6 +
      usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  return sample;
}

double ServerMemoryMiB(pid_t server, const char* field) {
  const std::string status =
      ReadFile("/proc/" + std::to_string(server) + "/status");
  return StatusField(status, field) / 1024.0;
}

// CPU ticks the hypervisor stole from this machine so far (the `steal`
// column of /proc/stat's cpu line).
double StolenTicks() {
  std::istringstream cpu(ReadFile("/proc/stat"));
  std::string label;
  double fields[8] = {};
  cpu >> label;
  for (double& f : fields) cpu >> f;
  return fields[7];
}

// Samples the server's resident set every 50 ms during the window. Both
// the median resident set and its peak (VmHWM) swing by up to a third
// between runs of the same code with how much freed memory the
// allocator keeps, so memory is a per-layer figure, not a gated one.
class RssSampler {
 public:
  explicit RssSampler(pid_t server)
      : thread_([this, server] {
          std::unique_lock lock(mu_);
          while (!stop_) {
            lock.unlock();
            const double rss_mib = ServerMemoryMiB(server, "VmRSS");
            lock.lock();
            samples_.push_back(rss_mib);
            cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; });
          }
        }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Stops sampling and returns the median resident set in MiB.
  double FinishMedian() {
    Stop();
    return samples_.empty() ? 0 : Median(samples_);
  }

 private:
  void Stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;  // last: starts after the members it uses
};

// Server metrics over the measured window: counters and histogram
// buckets are after-minus-before.
struct StatsDelta {
  MetricsSnapshot before;
  MetricsSnapshot after;

  double Counter(const std::string& name) const {
    return static_cast<double>(after.CounterValue(name) -
                               before.CounterValue(name));
  }
  HistogramSnapshot Histogram(const std::string& name) const {
    HistogramSnapshot out;
    auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return out;
    out = a->second;
    auto b = before.histograms.find(name);
    if (b == before.histograms.end()) return out;
    for (size_t i = 0; i < out.buckets.size() && i < b->second.buckets.size();
         ++i) {
      out.buckets[i] -= b->second.buckets[i];
    }
    out.count -= b->second.count;
    out.sum -= b->second.sum;
    if (b->second.count > 0) {  // the window's max is not recoverable
      out.max = out.count == 0 ? 0 : out.QuantileMicros(1.0);
    }
    return out;
  }
};

// Sum over clients of each one's successful actions per second of its
// own script (clients of one workload finish their fixed scripts at
// different times).
double ActionsPerSecond(const std::vector<ClientStats*>& clients) {
  double total = 0;
  for (const ClientStats* c : clients) {
    total += Ratio(static_cast<double>(c->attempted - c->failed), c->run_s);
  }
  return total;
}

// ------------------------------------------------------------ the run

struct Deployment {
  ServerProcess server;
  std::vector<std::unique_ptr<Session>> sessions;
};

Status RunOnEachSession(Deployment* d,
                        const std::function<Status(Session*)>& fn) {
  std::vector<Status> results(d->sessions.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < d->sessions.size(); ++i) {
    threads.emplace_back(
        [&, i] { results[i] = fn(d->sessions[i].get()); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : results) NEPTUNE_RETURN_IF_ERROR(s);
  return Status::OK();
}

// Generate, start, connect, warm up.
Status SetUp(const Args& args, const WorkloadSpec& spec, RunContext* run,
             Catalog* catalog, Model* model, uint64_t* content_bytes,
             Deployment* d) {
  const std::string data_dir = args.work + "/data";
  Env::Default()->RemoveDirRecursive(data_dir);
  NEPTUNE_RETURN_IF_ERROR(Env::Default()->CreateDir(data_dir));
  NEPTUNE_ASSIGN_OR_RETURN(
      *content_bytes,
      GenerateGraph(spec, args.seed, data_dir + "/graph", catalog, model));
  NEPTUNE_RETURN_IF_ERROR(
      d->server.Start(args.server, data_dir, args.work + "/server"));
  for (size_t i = 0; i < spec.clients.size(); ++i) {
    NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<rpc::RemoteHam> remote,
                             rpc::RemoteHam::Connect("127.0.0.1",
                                                     d->server.port()));
    d->sessions.push_back(std::make_unique<Session>(
        static_cast<int>(i), spec.clients[i], std::move(remote), run));
  }
  NEPTUNE_RETURN_IF_ERROR(
      RunOnEachSession(d, [](Session* s) { return s->Open(); }));
  return RunOnEachSession(d, [](Session* s) { return s->WarmUp(); });
}

// Reopens the killed server's data directory through recovery: fsck
// must be clean and every acknowledged write present. Then checkpoints
// and returns the directory's size.
Result<uint64_t> RecoverAndCheck(const Catalog& catalog, const Model& model) {
  ham::Ham engine(Env::Default(), ham::HamOptions());
  NEPTUNE_ASSIGN_OR_RETURN(
      ham::Context ctx, engine.OpenGraph(catalog.project, "", catalog.graph_dir));
  NEPTUNE_ASSIGN_OR_RETURN(std::vector<std::string> problems,
                           engine.VerifyGraph(ctx));
  if (!problems.empty()) {
    return Status::Corruption("fsck after recovery: " + problems[0]);
  }
  for (ham::NodeIndex node : model.WrittenDuringRun()) {
    size_t count = 0;
    uint64_t digest = 0;
    bool uncertain = false;
    if (!model.Latest(node, &count, &digest, &uncertain)) continue;
    NEPTUNE_ASSIGN_OR_RETURN(ham::OpenNodeResult opened,
                             engine.OpenNode(ctx, node, 0, {}));
    NEPTUNE_ASSIGN_OR_RETURN(ham::NodeVersions versions,
                             engine.GetNodeVersions(ctx, node));
    if (versions.major.size() < count ||
        (!uncertain && Digest(opened.contents) != digest)) {
      return Status::Corruption("acknowledged write to node " +
                                std::to_string(node) + " lost in recovery");
    }
  }
  NEPTUNE_RETURN_IF_ERROR(engine.Checkpoint(ctx));
  NEPTUNE_RETURN_IF_ERROR(engine.CloseGraph(ctx));
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(catalog.graph_dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // what a ratio is taken over (traced table only)
};

// Per-layer metrics named by the benchmark definition, in order.
std::vector<Metric> PerLayer(const std::vector<ClientStats*>& clients,
                             const StatsDelta& server, const ProcSample& p0,
                             const ProcSample& p1) {
  std::vector<Metric> out;
  auto add = [&](std::string name, double value, std::string unit,
                 std::string base = "") {
    out.push_back({std::move(name), value, std::move(unit), std::move(base)});
  };
  auto pooled = [&](Samples ClientStats::*member,
                    std::initializer_list<Action> actions) {
    return Pool(clients, member, actions);
  };
  auto count = [&](auto member, const std::vector<Action>& actions) {
    double n = 0;
    for (ClientStats* c : clients) {
      for (Action a : actions) n += (c->*member)[static_cast<size_t>(a)];
    }
    return n;
  };
  double attempted = 0;
  double failed = 0;
  double read_calls = 0;
  for (ClientStats* c : clients) {
    attempted += c->attempted;
    failed += c->failed;
    read_calls += c->read_calls;
  }

  // app: self time (action span minus its HAM-call children) and calls.
  add("app.pane.self_us",
      Percentile(pooled(&ClientStats::self_us, {Action::kPane}), 0.5), "us",
      "p50 over traced pane actions");
  add("app.version.self_us",
      Percentile(pooled(&ClientStats::self_us, {Action::kVersion}), 0.5), "us",
      "p50 over traced version actions");
  add("app.compile.self_us",
      Percentile(pooled(&ClientStats::self_us, {Action::kCompile}), 0.5), "us",
      "p50 over traced compile actions");
  const std::pair<const char*, std::vector<Action>> kCallKinds[] = {
      {"pane", {Action::kPane}},
      {"node", {Action::kNode}},
      {"version", {Action::kVersion}},
      {"edit", {Action::kEditShallow, Action::kEditDeep}},
      {"annotate", {Action::kAnnotate}},
      {"compile", {Action::kCompile}}};
  for (const auto& [name, actions] : kCallKinds) {
    add(std::string("app.calls_per_action.") + name,
        Ratio(count(&ClientStats::calls, actions),
              count(&ClientStats::actions, actions)),
        "calls/action", "HAM calls over actions of the kind");
  }

  // rpc: client call spans, wire overhead, bytes, pipelining.
  std::vector<float> all_calls;
  for (size_t call = 0; call < static_cast<size_t>(HamCall::kCount); ++call) {
    for (ClientStats* c : clients) {
      all_calls.insert(all_calls.end(), c->call_us[call].begin(),
                       c->call_us[call].end());
    }
  }
  const HamCall kCalls[] = {HamCall::kOpenNode,          HamCall::kGetGraphQuery,
                            HamCall::kLinearizeGraph,    HamCall::kGetNodeDifferences,
                            HamCall::kGetNodeVersions,   HamCall::kModifyNode,
                            HamCall::kCommitTransaction};
  for (HamCall call : kCalls) {
    std::vector<float> spans;
    for (ClientStats* c : clients) {
      const auto& v = c->call_us[static_cast<size_t>(call)];
      spans.insert(spans.end(), v.begin(), v.end());
    }
    add(std::string("rpc.call.p50_us.") + HamCallName(call),
        Percentile(spans, 0.5), "us", "client span p50");
  }
  const HistogramSnapshot request = server.Histogram("rpc.request_latency");
  const double requests = server.Counter("rpc.requests");
  add("rpc.wire_us_per_call", Mean(all_calls) - request.MeanMicros(), "us",
      "mean client span minus mean server rpc.request_latency");
  add("rpc.bytes_per_call",
      Ratio(server.Counter("rpc.bytes_in") + server.Counter("rpc.bytes_out"),
            requests),
      "bytes/call", "server rpc.bytes_in+out over rpc.requests");
  add("rpc.pipelined_share",
      Ratio(server.Counter("rpc.server.pipelined"), requests), "fraction",
      "pipelined requests over rpc.requests");
  const HistogramSnapshot lag = server.Histogram("server.loop.lag_us");
  add("server.loop_lag.p99_us",
      lag.count == 0 ? 0 : static_cast<double>(lag.QuantileMicros(0.99)), "us",
      "bucket upper bound");
  add("server.saturated_per_kreq",
      Ratio(1000 * server.Counter("server.workers.saturated"), requests),
      "1/kreq", "per 1000 requests");
  add("server.shed", server.Counter("server.shed"), "count", "window");

  // ham: per-class op histograms, lock and abort ratios.
  for (const char* op : {"node", "query", "attribute", "structure", "txn"}) {
    const HistogramSnapshot h = server.Histogram(std::string("ham.op.") + op);
    add(std::string("ham.op.") + op + ".mean_us", h.MeanMicros(), "us",
        "server histogram");
    add(std::string("ham.op.") + op + ".p99_us",
        h.count == 0 ? 0 : static_cast<double>(h.QuantileMicros(0.99)), "us",
        "bucket upper bound");
  }
  add("ham.shared_lock_per_read",
      Ratio(server.Counter("ham.read.shared_lock"), read_calls), "ratio",
      "shared graph locks over client read calls");
  const double aborted = server.Counter("ham.txn.aborted");
  add("ham.txn.abort_share",
      Ratio(aborted, aborted + server.Counter("ham.txn.committed")),
      "fraction", "aborted over committed+aborted");

  // query planner and index.
  const double plans = server.Counter("query.plan.index") +
                       server.Counter("query.plan.intersect") +
                       server.Counter("query.plan.scan");
  add("query.plan.index_share",
      Ratio(server.Counter("query.plan.index") +
                server.Counter("query.plan.intersect"),
            plans),
      "fraction", "index+intersect plans over all plans");
  add("query.plan.scan_share", Ratio(server.Counter("query.plan.scan"), plans),
      "fraction", "scan plans over all plans");
  add("query.index.deltas_per_query",
      Ratio(server.Counter("query.index.applied_deltas"), plans),
      "deltas/query", "index maintenance deltas over planned queries");
  add("query.index.rebuilds", server.Counter("query.index.rebuilds"), "count",
      "window");

  // delta: reconstruction cache and chains.
  const double hits = server.Counter("delta.cache.hit");
  const double lookups = hits + server.Counter("delta.cache.miss");
  add("delta.cache.hit_ratio", Ratio(hits, lookups), "fraction",
      "hits over cache lookups");
  add("delta.cache.evictions_per_read",
      Ratio(server.Counter("delta.cache.evicted"), lookups), "ratio",
      "evictions over cache lookups");
  add("delta.deltas_per_reconstruction",
      Ratio(server.Counter("delta.chain.deltas_applied"),
            server.Counter("delta.chain.reconstructions")),
      "deltas", "deltas applied over reconstructions");
  add("delta.stored_per_raw",
      Ratio(server.Counter("delta.bytes.stored"),
            server.Counter("delta.bytes.raw")),
      "ratio", "delta bytes stored over raw version bytes");

  // storage: WAL, fsync, checkpoint.
  const HistogramSnapshot fsync = server.Histogram("storage.wal.fsync");
  const double commits = server.Counter("ham.txn.committed");
  add("storage.fsync.mean_us", fsync.MeanMicros(), "us", "server histogram");
  add("storage.fsync.p99_us",
      fsync.count == 0 ? 0 : static_cast<double>(fsync.QuantileMicros(0.99)),
      "us", "bucket upper bound");
  add("storage.fsyncs_per_commit", Ratio(fsync.count, commits), "ratio",
      "fsyncs over committed transactions");
  add("storage.wal_bytes_per_commit",
      Ratio(server.Counter("storage.wal.bytes"), commits), "bytes/commit",
      "WAL bytes over committed transactions");
  const HistogramSnapshot checkpoint = server.Histogram("storage.checkpoint");
  add("storage.checkpoint.count", checkpoint.count, "count", "window");
  add("storage.checkpoint.max_us", checkpoint.max, "us", "window");
  add("storage.checkpoint.bytes", server.Counter("storage.checkpoint.bytes"),
      "bytes", "window");

  // process counters.
  add("server.cpu_us_per_action",
      Ratio(p1.server_cpu_us - p0.server_cpu_us, attempted), "us/action",
      "server utime+stime over actions");
  add("server.syscalls_per_call", Ratio(p1.syscalls - p0.syscalls, requests),
      "syscalls/call", "server syscr+syscw over rpc.requests");
  add("server.ctx_switches_per_call",
      Ratio(p1.ctx_switches - p0.ctx_switches, requests), "switches/call",
      "server context switches over rpc.requests");
  add("client.cpu_us_per_action",
      Ratio(p1.client_cpu_us - p0.client_cpu_us, attempted), "us/action",
      "generator utime+stime over actions");

  // Traced vs untraced actions of the same kinds, weighted by count.
  double extra = 0;
  double base = 0;
  for (size_t a = 0; a < kActionCount; ++a) {
    std::vector<float> traced;
    std::vector<float> untraced;
    for (ClientStats* c : clients) {
      traced.insert(traced.end(), c->traced_latency_us[a].begin(),
                    c->traced_latency_us[a].end());
      untraced.insert(untraced.end(), c->latency_us[a].begin(),
                      c->latency_us[a].end());
    }
    if (traced.empty() || untraced.empty()) continue;
    extra += traced.size() * (Mean(traced) - Mean(untraced));
    base += traced.size() * Mean(untraced);
  }
  add("trace_overhead_pct", 100 * Ratio(extra, base), "%",
      "traced over untraced mean action latency, same kinds");

  // Class latencies of the untraced half, and failures. The pooled read
  // percentiles depend on the assumed read mix, so they are not gated.
  const std::initializer_list<Action> reads = {Action::kPane, Action::kNode,
                                               Action::kVersion,
                                               Action::kHardcopy};
  add("read.p50_us", Percentile(pooled(&ClientStats::latency_us, reads), 0.5),
      "us", "untraced read actions, assumed mix");
  add("read.p99_us", Percentile(pooled(&ClientStats::latency_us, reads), 0.99),
      "us", "untraced read actions, assumed mix");
  add("edit_shallow.p50_us",
      Percentile(pooled(&ClientStats::latency_us, {Action::kEditShallow}), 0.5),
      "us", "untraced actions");
  add("edit_deep.p50_us",
      Percentile(pooled(&ClientStats::latency_us, {Action::kEditDeep}), 0.5),
      "us", "untraced actions");
  add("write.p99_us",
      Percentile(pooled(&ClientStats::latency_us,
                        {Action::kEditShallow, Action::kEditDeep,
                         Action::kAnnotate, Action::kAddSection,
                         Action::kSetAttribute, Action::kCompile}),
                 0.99),
      "us", "untraced write actions");
  add("annotate.p50_us",
      Percentile(pooled(&ClientStats::latency_us, {Action::kAnnotate}), 0.5),
      "us", "untraced actions");
  add("compile.p50_us",
      Percentile(pooled(&ClientStats::latency_us, {Action::kCompile}), 0.5),
      "us", "untraced actions");
  add("error_rate", Ratio(failed, attempted), "fraction",
      "failed over attempted actions");
  std::vector<float> gen_lag;
  double backlog = 0;
  for (ClientStats* c : clients) {
    gen_lag.insert(gen_lag.end(), c->gen_lag_us.begin(), c->gen_lag_us.end());
    backlog = std::max(backlog, c->max_backlog_ms);
  }
  add("gen.lag.p99_us", Percentile(gen_lag, 0.99), "us",
      "paced writers' own wake-up lateness");
  add("gen.backlog.max_ms", backlog, "ms", "paced writers' largest backlog");
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  WorkloadKind kind;
  if (args.workload == "browse") {
    kind = WorkloadKind::kBrowse;
  } else if (args.workload == "author") {
    kind = WorkloadKind::kAuthor;
  } else if (args.workload == "mixed") {
    kind = WorkloadKind::kMixed;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SetLogLevel(LogLevel::kWarn);
  const WorkloadSpec spec = SpecFor(kind, args.seconds);
  Env::Default()->CreateDir(args.work);

  // Set-up, several times untraced; the last deployment is measured.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Model> model;
  std::unique_ptr<RunContext> run;
  uint64_t content_bytes = 0;
  for (int i = 0; i < setups; ++i) {
    deployment.reset();
    catalog = std::make_unique<Catalog>();
    model = std::make_unique<Model>();
    run = std::make_unique<RunContext>();
    run->spec = &spec;
    run->catalog = catalog.get();
    run->model = model.get();
    run->seed = args.seed;
    run->trace = args.trace;
    deployment = std::make_unique<Deployment>();
    const uint64_t t0 = NowNanos();
    Status status = SetUp(args, spec, run.get(), catalog.get(), model.get(),
                          &content_bytes, deployment.get());
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(Seconds(t0, NowNanos()));
  }

  // The measured window.
  Deployment& d = *deployment;
  auto* admin = static_cast<rpc::RemoteHam*>(d.sessions[0]->remote());
  StatsDelta server_stats;
  auto before = admin->GetServerStatistics();
  if (!before.ok()) {
    std::fprintf(stderr, "statistics: %s\n", before.status().ToString().c_str());
    return 1;
  }
  server_stats.before = *before;
  for (const ClientPlan& plan : spec.clients) {
    if (plan.role == Role::kPacedAuthor) ++run->paced_authors_active;
  }
  const ProcSample p0 = SampleProcesses(d.server.pid());
  const double stolen0 = StolenTicks();
  const uint64_t window_start = NowNanos();
  run->window_deadline_ns =
      window_start + static_cast<uint64_t>(kDeadlineFactor * args.seconds * 1e9);
  RssSampler sampler(d.server.pid());
  {
    std::vector<std::thread> threads;
    for (auto& session : d.sessions) {
      threads.emplace_back([s = session.get()] { s->Run(); });
    }
    for (std::thread& t : threads) t.join();
  }
  const double window_s = Seconds(window_start, NowNanos());
  const double rss_mb = sampler.FinishMedian();
  const double steal_pct =
      100 * Ratio(StolenTicks() - stolen0,
                  window_s * static_cast<double>(sysconf(_SC_CLK_TCK)) *
                      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  const ProcSample p1 = SampleProcesses(d.server.pid());
  auto after = admin->GetServerStatistics();
  if (!after.ok()) {
    std::fprintf(stderr, "statistics: %s\n", after.status().ToString().c_str());
    return 1;
  }
  server_stats.after = *after;
  const double peak_rss_mb = ServerMemoryMiB(d.server.pid(), "VmHWM");
  d.server.Kill();

  // Recovery: fsck and every acknowledged write.
  bool correct = true;
  const uint64_t recovery_start = NowNanos();
  Result<uint64_t> dir_bytes = RecoverAndCheck(*catalog, *model);
  std::fprintf(stderr, "%s seed %llu: set-up %s s, window %.2f s, "
               "recovery %.2f s, host steal %.1f%%\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               Number(Median(setup_s)).c_str(), window_s,
               Seconds(recovery_start, NowNanos()), steal_pct);
  if (!dir_bytes.ok()) {
    std::fprintf(stderr, "recovery check failed: %s\n",
                 dir_bytes.status().ToString().c_str());
    correct = false;
  }

  std::vector<ClientStats*> clients;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (auto& session : d.sessions) {
    ClientStats& c = session->stats();
    clients.push_back(&c);
    attempted += c.attempted;
    failed += c.failed;
    content_bytes += c.content_bytes;
  }
  if (failed > 0) correct = false;

  std::vector<Metric> metrics;
  auto p50 = [&](Action action) {
    return Percentile(Pool(clients, &ClientStats::latency_us, {action}), 0.5);
  };
  std::vector<Metric> layers = PerLayer(clients, server_stats, p0, p1);
  layers.push_back({"server.rss_mb", rss_mb, "MiB", "median VmRSS, 50 ms samples"});
  layers.push_back({"server.peak_rss_mb", peak_rss_mb, "MiB", "VmHWM"});
  layers.push_back({"host.steal_pct", steal_pct, "%",
                    "CPU time the hypervisor stole over the window"});
  for (const Metric& m : layers) {
    // A generator that wakes late for writes it was not blocked on has
    // stalled itself. A backlog behind slow replies is the server's,
    // and write latency from the due time already charges it there.
    if (m.name == "gen.lag.p99_us" && m.value > 10000) {
      std::fprintf(stderr, "invalid run: paced writers woke %.0f us late\n",
                   m.value);
      correct = false;
    }
  }
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s", ""},
        {"actions_per_s", ActionsPerSecond(clients), "1/s", ""},
        {"pane.p50_us", p50(Action::kPane), "us", ""},
        {"version.p50_us", p50(Action::kVersion), "us", ""},
        {"bytes_per_user_byte",
         Ratio(dir_bytes.ok() ? static_cast<double>(*dir_bytes) : 0,
               static_cast<double>(content_bytes)),
         "ratio", ""},
    };
  } else {
    metrics = layers;
    std::printf("%-40s %14s  %-14s %s\n", "per-layer metric", "value", "unit",
                "base");
    for (const Metric& m : metrics) {
      std::printf("%-40s %14.4f  %-14s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
    }
    if (!args.trace_out.empty()) {
      std::string events;
      for (ClientStats* c : clients) events += c->trace_events;
      if (!events.empty()) events.resize(events.size() - 2);  // last ",\n"
      std::ofstream out(args.trace_out);
      out << "{\"traceEvents\":[\n" << events << "\n]}\n";
      std::printf("chrome trace: %s\n", args.trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  deployment.reset();
  Env::Default()->RemoveDirRecursive(args.work + "/data");
  // A failed check is reported in "correct", not in the exit code.
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace neptune

int main(int argc, char** argv) {
  neptune::bench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--server") {
      args.server = value;
    } else if (key == "--work") {
      args.work = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.server.empty() || args.work.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload browse|author|mixed --seed N "
                 "--seconds S --trace 0|1 --server PATH --work DIR "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return neptune::bench::Run(args);
}
