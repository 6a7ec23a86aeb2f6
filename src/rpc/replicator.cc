#include "rpc/replicator.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace neptune {
namespace rpc {

namespace {
// Requesting an impossible future epoch is the follower's way of
// demanding a snapshot resync (the primary answers kSnapshot for any
// epoch above its live one).
constexpr uint64_t kForceSnapshotEpoch = ~0ull;
}  // namespace

Replicator::Replicator(ham::Ham* ham, RemoteHam* primary, Options options)
    : ham_(ham),
      primary_(primary),
      options_(std::move(options)),
      time_(options_.time_source != nullptr ? options_.time_source
                                            : RealTimeSource()),
      follower_id_(options_.follower_id.empty() ? options_.local_root
                                                : options_.follower_id),
      rng_(options_.seed != 0
               ? options_.seed
               : static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this))),
      backoff_(options_.backoff_initial_ms, options_.backoff_max_ms, &rng_) {}

Replicator::~Replicator() { Stop(); }

void Replicator::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Main(); });
}

void Replicator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::string Replicator::LocalDir(const std::string& rel) const {
  return rel.empty() ? options_.local_root : JoinPath(options_.local_root, rel);
}

std::string Replicator::PrimaryDir(const std::string& rel) const {
  return rel.empty() ? options_.primary_root
                     : JoinPath(options_.primary_root, rel);
}

Replicator::Progress Replicator::progress(const std::string& rel) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cursors_.find(rel);
  return it == cursors_.end() ? Progress() : it->second.p;
}

bool Replicator::AllCaughtUp() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (graphs_.empty()) return false;
  for (const std::string& rel : graphs_) {
    auto it = cursors_.find(rel);
    if (it == cursors_.end() || !it->second.p.caught_up) return false;
  }
  return true;
}

uint64_t Replicator::error_cycles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_cycles_;
}

bool Replicator::SleepOrStop(uint64_t ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] { return stop_; });
  return !stop_;
}

Status Replicator::RefreshGraphList() {
  NEPTUNE_ASSIGN_OR_RETURN(std::vector<std::string> graphs,
                           primary_->ReplListGraphs(options_.primary_root));
  std::lock_guard<std::mutex> lock(mu_);
  graphs_ = std::move(graphs);
  last_list_us_ = time_->NowMicros();
  return Status::OK();
}

void Replicator::InitCursor(const std::string& local_dir, Cursor* cursor) {
  // Resume from whatever the local store holds; any failure to read it
  // (absent, corrupt, half-synced) leaves the cursor at zero, which
  // the primary answers with a snapshot.
  cursor->p = Progress();
  Result<ham::ReplNodeStatus> status = ham_->ReplStatus(local_dir);
  if (status.ok()) {
    cursor->p.term = status->term;
    cursor->p.epoch = status->epoch;
    cursor->p.offset = status->wal_bytes;
  }
  cursor->initialized = true;
  cursor->strikes = 0;
  cursor->force_snapshot = false;
}

bool Replicator::TailOne(const std::string& rel, Cursor* cursor) {
  // The root span of one fetch/apply hop. The RemoteHam call below
  // opens its rpc.client.replFetch child under this and ships the
  // context to the primary, so a sampled trace on the follower shows
  // the whole replication fan-in: repl.tail -> rpc.client.replFetch
  // (+ the primary's rpc.server.replFetch) -> the local apply.
  NEPTUNE_TRACE_SPAN(tail_span, "repl.tail");
  if (tail_span.active()) {
    tail_span.Annotate("graph=" + (rel.empty() ? std::string("<root>") : rel) +
                       " offset=" + std::to_string(cursor->p.offset));
  }
  const std::string local = LocalDir(rel);
  if (!cursor->initialized) InitCursor(local, cursor);

  ham::ReplFetchRequest request;
  request.directory = PrimaryDir(rel);
  request.follower_id = follower_id_;
  request.term = cursor->p.term;
  request.epoch = cursor->force_snapshot ? kForceSnapshotEpoch
                                         : cursor->p.epoch;
  request.offset = cursor->force_snapshot ? 0 : cursor->p.offset;
  request.max_bytes = options_.max_bytes;
  // Long-poll only once drained; while behind, fetch back-to-back.
  // With long_poll off (simulation), never park on the primary — the
  // caller paces caught-up cycles from RunCycle()'s returned delay.
  request.wait_ms = options_.long_poll && cursor->p.caught_up &&
                            !cursor->force_snapshot
                        ? options_.poll_wait_ms
                        : 0;

  Result<ham::ReplFetchResult> fetch = primary_->ReplFetch(request);
  if (!fetch.ok()) {
    cursor->p.caught_up = false;
    return false;
  }
  ham::ReplFetchResult reply = std::move(*fetch);

  if (reply.action == ham::ReplFetchResult::Action::kStaleTerm ||
      reply.term < cursor->p.term) {
    // The "primary" carries an older fencing term than we do — it was
    // deposed (we were promoted past it, or re-pointed at a stale
    // node). Nothing it serves may land here.
    cursor->p.stale_primary_rejects++;
    cursor->p.caught_up = false;
    NEPTUNE_METRIC_COUNT("repl.follower.stale_primary_rejects", 1);
    NEPTUNE_LOG(Warn) << "event=repl_stale_primary graph=" << rel
                      << " primary_term=" << reply.term
                      << " local_term=" << cursor->p.term;
    return false;
  }

  static Gauge* term_gauge = MetricsRegistry::Instance().GetGauge("repl.term");
  term_gauge->Set(static_cast<int64_t>(reply.term));

  if (reply.action == ham::ReplFetchResult::Action::kSnapshot) {
    Status installed;
    {
      static const uint32_t install_name =
          Tracer::Instance().InternName("repl.follower.snapshot_install");
      static Histogram* install_hist = MetricsRegistry::Instance().GetHistogram(
          "repl.follower.snapshot_install_us");
      ScopedSpan install_span(install_name, install_hist, nullptr, time_);
      installed = ham_->ReplicaInstallSnapshot(
          local, reply.meta, reply.payload, reply.epoch, reply.term);
    }
    if (!installed.ok()) {
      NEPTUNE_LOG(Warn) << "event=repl_snapshot_install_failed graph=" << rel
                        << " code=" << StatusCodeToString(installed.code());
      return false;
    }
    cursor->p.term = reply.term;
    cursor->p.epoch = reply.epoch;
    cursor->p.offset = 0;
    cursor->p.resyncs++;
    cursor->p.caught_up = false;
    cursor->strikes = 0;
    cursor->force_snapshot = false;
    NEPTUNE_METRIC_COUNT("repl.follower.resyncs", 1);
    ham_->NoteReplProgress(local, reply.epoch_bytes, false);
    return true;
  }

  // kTail ------------------------------------------------------------
  cursor->p.term = reply.term;
  std::string payload = std::move(reply.payload);
  if (chunk_mutator_for_test && !payload.empty()) {
    chunk_mutator_for_test(&payload);
  }
  if (!payload.empty()) {
    Result<ham::ReplicaApplyResult> applied = [&] {
      static const uint32_t apply_name =
          Tracer::Instance().InternName("repl.follower.apply");
      static Histogram* apply_hist =
          MetricsRegistry::Instance().GetHistogram("repl.follower.apply_us");
      ScopedSpan apply_span(apply_name, apply_hist, nullptr, time_);
      return ham_->ReplicaApply(local, cursor->p.epoch, payload);
    }();
    if (!applied.ok()) {
      if (applied.status().IsCorruption()) {
        // The stream decoded as frames but not as transactions, or
        // apply itself failed: local state is not trustworthy anymore.
        cursor->force_snapshot = true;
        NEPTUNE_METRIC_COUNT("repl.follower.forced_resyncs", 1);
      } else if (applied.status().IsFailedPrecondition()) {
        // Epoch skew (e.g. a crash between apply and roll): re-derive
        // the cursor from the durable local state.
        cursor->initialized = false;
      }
      cursor->p.caught_up = false;
      return false;
    }
    cursor->p.offset += applied->applied_bytes;
    if (applied->applied_bytes > 0) cursor->p.chunks_applied++;
    if (applied->truncated_tail) {
      // Valid prefix landed; the rest of the chunk was torn/corrupt on
      // the wire. Re-fetch from the new offset — but repeated zero
      // progress at one offset means the corruption is not transient,
      // so force a snapshot resync.
      if (applied->applied_bytes == 0 &&
          ++cursor->strikes >= options_.max_corrupt_strikes) {
        cursor->force_snapshot = true;
        cursor->strikes = 0;
        NEPTUNE_METRIC_COUNT("repl.follower.forced_resyncs", 1);
      }
      cursor->p.caught_up = false;
      return true;
    }
    cursor->strikes = 0;
  }

  const bool drained = cursor->p.offset >= reply.epoch_bytes;
  if (reply.epoch_end && drained) {
    // The primary checkpointed this generation; roll our own store to
    // the matching epoch (deterministic replay keeps them aligned).
    Status rolled = ham_->ReplicaRoll(local, cursor->p.epoch + 1);
    if (!rolled.ok()) {
      cursor->initialized = false;
      return false;
    }
    cursor->p.epoch++;
    cursor->p.offset = 0;
    cursor->p.rolls++;
    cursor->p.caught_up = false;
    return true;
  }
  cursor->p.caught_up = drained;
  const uint64_t lag =
      reply.epoch_bytes > cursor->p.offset
          ? reply.epoch_bytes - cursor->p.offset
          : 0;
  ham_->NoteReplProgress(local, lag, cursor->p.caught_up);
  return true;
}

void Replicator::UpdateApplyLag() {
  static Gauge* apply_lag =
      MetricsRegistry::Instance().GetGauge("repl.apply_lag_us");
  const uint64_t now = time_->NowMicros();
  if (AllCaughtUp()) {
    last_caught_up_us_ = now;
    apply_lag->Set(0);
    return;
  }
  // Behind (or partitioned from the primary): lag is the time since we
  // last had every graph drained. The first cycles after start count
  // from the first attempt, so a follower that can never connect still
  // shows its lag growing.
  if (last_caught_up_us_ == 0) last_caught_up_us_ = now;
  apply_lag->Set(static_cast<int64_t>(now - last_caught_up_us_));
}

int64_t Replicator::RunCycle() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return -1;
  }
  if (!ham_->follower()) {
    // Promoted out from under us: the engine now rejects replica
    // writes, so pulling is pointless. Exit quietly.
    NEPTUNE_LOG(Warn) << "event=repl_tail_exit reason=promoted";
    return -1;
  }
  uint64_t last_list_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_list_us = last_list_us_;
  }
  if (last_list_us == 0 ||
      time_->NowMicros() - last_list_us > options_.list_refresh_ms * 1000) {
    Status listed = RefreshGraphList();
    if (!listed.ok()) {
      // Back off with graphs possibly stale.
      {
        std::lock_guard<std::mutex> lock(mu_);
        error_cycles_++;
      }
      NEPTUNE_METRIC_COUNT("repl.follower.backoffs", 1);
      UpdateApplyLag();
      return static_cast<int64_t>(backoff_.NextDelayMs());
    }
  }
  std::vector<std::string> graphs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    graphs = graphs_;
  }
  if (graphs.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    last_list_us_ = 0;  // re-list immediately next cycle
    return static_cast<int64_t>(options_.list_refresh_ms);
  }
  bool all_ok = true;
  for (const std::string& rel : graphs) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return -1;
    }
    Cursor cursor;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cursor = cursors_[rel];
    }
    const bool ok = TailOne(rel, &cursor);
    {
      std::lock_guard<std::mutex> lock(mu_);
      cursors_[rel] = cursor;
    }
    all_ok = all_ok && ok;
  }
  UpdateApplyLag();
  if (!all_ok) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      error_cycles_++;
    }
    NEPTUNE_METRIC_COUNT("repl.follower.backoffs", 1);
    return static_cast<int64_t>(backoff_.NextDelayMs());
  }
  backoff_.Reset();
  // Without server-side long-polling a drained follower would spin on
  // empty fetches; pace it at the poll budget instead.
  if (!options_.long_poll && AllCaughtUp()) {
    return static_cast<int64_t>(options_.poll_wait_ms);
  }
  return 0;
}

void Replicator::Main() {
  for (;;) {
    const int64_t delay_ms = RunCycle();
    if (delay_ms < 0) return;
    if (delay_ms > 0 && !SleepOrStop(static_cast<uint64_t>(delay_ms))) return;
  }
}

}  // namespace rpc
}  // namespace neptune
