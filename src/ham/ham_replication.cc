// Replication halves of the Ham engine (ROADMAP item 3).
//
// Primary side: ReplFetch serves committed WAL byte ranges (or a
// snapshot, when the follower's position is unservable) and tracks
// per-follower acked offsets for the lag gauge. Follower side:
// ReplicaApply / ReplicaInstallSnapshot / ReplicaRoll keep a read-only
// engine in step with the primary's generations, reusing the PR 3
// tolerant-replay machinery for streamed corruption. Fencing is a
// per-graph term persisted by DurableStore (storage/durable_store.h):
// promotion bumps it, and both directions of a deposed pairing see the
// mismatch and refuse or resync.

#include <algorithm>
#include <chrono>
#include <functional>
#include <shared_mutex>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ham/ham.h"
#include "storage/wal.h"

namespace neptune {
namespace ham {

namespace {
// A follower silent for this long drops out of the primary's lag
// accounting (it is dead or re-pointed; its stale ack must not pin the
// gauge forever).
constexpr uint64_t kFollowerAckExpiryUs = 60'000'000;
}  // namespace

Status Ham::RejectIfFollower() const {
  if (follower()) {
    return Status::ReadOnly(
        "this node is a replication follower; writes must go to the primary");
  }
  return Status::OK();
}

void Ham::NotifyReplWaiters(GraphHandle* graph) {
  {
    std::lock_guard<std::mutex> lock(graph->repl_mu);
    graph->commit_seq++;
  }
  graph->repl_cv.notify_all();
}

void Ham::PinReplicaGraph(const std::string& directory,
                          std::shared_ptr<GraphHandle> handle) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  repl_pins_[directory] = std::move(handle);
}

// ------------------------------------------------------------ primary

Result<ReplFetchResult> Ham::ReplFetch(const ReplFetchRequest& request) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.replFetch", "ham.op.repl");
  if (follower()) {
    return Status::FailedPrecondition(
        "this node is a follower and cannot serve replication");
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<GraphHandle> graph,
                           LoadGraph(request.directory));
  GraphHandle* handle = graph.get();
  const uint64_t deadline_us = time_->NowMicros() + request.wait_ms * 1000;

  for (;;) {
    // Capture the commit sequence *before* reading the store so a
    // commit landing between the read and the wait still wakes us.
    uint64_t seen_seq = 0;
    {
      std::lock_guard<std::mutex> lock(handle->repl_mu);
      seen_seq = handle->commit_seq;
    }

    ReplFetchResult out;
    bool wait_for_data = false;
    uint64_t live_epoch = 0;
    uint64_t live_wal_bytes = 0;
    {
      std::shared_lock<std::shared_mutex> lock(handle->mu);
      const ReplRole role = handle->store->repl_role();
      live_epoch = handle->store->epoch();
      live_wal_bytes = handle->store->wal_bytes();
      out.term = role.term;
      if (request.term > role.term) {
        // The follower has seen a newer promotion than us: we are the
        // deposed primary. Serve nothing — our late appends must not
        // propagate.
        out.action = ReplFetchResult::Action::kStaleTerm;
        out.epoch = live_epoch;
        NEPTUNE_METRIC_COUNT("repl.primary.stale_term_rejects", 1);
        NEPTUNE_LOG(Warn) << "event=repl_stale_term dir=" << request.directory
                          << " follower=" << request.follower_id
                          << " follower_term=" << request.term
                          << " local_term=" << role.term;
        return out;
      }
      // A follower from an older term (or one claiming a future epoch)
      // may have divergent history: only a snapshot is safe.
      bool need_snapshot =
          request.term < role.term || request.epoch > live_epoch;
      if (!need_snapshot) {
        auto chunk = handle->store->ReadWalRange(request.epoch, request.offset,
                                                 request.max_bytes);
        if (chunk.ok()) {
          out.action = ReplFetchResult::Action::kTail;
          out.epoch = request.epoch;
          out.offset = request.offset;
          out.epoch_bytes = chunk->epoch_bytes;
          out.payload = std::move(chunk->bytes);
          out.epoch_end =
              chunk->epoch_complete &&
              request.offset + out.payload.size() >= chunk->epoch_bytes;
          wait_for_data = out.payload.empty() && !out.epoch_end;
        } else if (chunk.status().IsNotFound() ||
                   chunk.status().IsFailedPrecondition()) {
          // Generation checkpointed away, or offset past the committed
          // end: the follower is too far behind (or divergent) —
          // re-snapshot instead of failing.
          need_snapshot = true;
        } else {
          return chunk.status();
        }
      }
      if (need_snapshot) {
        NEPTUNE_ASSIGN_OR_RETURN(
            out.meta, DurableStore::ReadMeta(env_, request.directory));
        NEPTUNE_ASSIGN_OR_RETURN(out.payload,
                                 handle->store->ReadSnapshotBlob());
        out.action = ReplFetchResult::Action::kSnapshot;
        out.epoch = live_epoch;
        out.offset = 0;
        out.epoch_bytes = live_wal_bytes;
        NEPTUNE_METRIC_COUNT("repl.primary.snapshots_shipped", 1);
        NEPTUNE_METRIC_COUNT("repl.primary.snapshot_bytes",
                             out.payload.size());
      }
    }

    // Record the follower's ack (the request position is everything it
    // has durably applied) and refresh the lag gauge.
    {
      std::lock_guard<std::mutex> lock(handle->repl_mu);
      const uint64_t now = time_->NowMicros();
      GraphHandle::FollowerAck& ack = handle->followers[request.follower_id];
      ack.epoch = request.epoch;
      ack.offset = request.offset;
      ack.last_fetch_us = now;
      if (request.epoch == live_epoch) {
        ack.lag_bytes = live_wal_bytes - std::min(request.offset,
                                                  live_wal_bytes);
      } else {
        // Behind by at least the whole live generation plus whatever
        // remains of its own.
        ack.lag_bytes =
            live_wal_bytes +
            (out.epoch_bytes > request.offset && out.epoch == request.epoch
                 ? out.epoch_bytes - request.offset
                 : 0);
      }
      uint64_t max_lag = 0;
      for (auto it = handle->followers.begin();
           it != handle->followers.end();) {
        if (now - it->second.last_fetch_us > kFollowerAckExpiryUs) {
          it = handle->followers.erase(it);
        } else {
          max_lag = std::max(max_lag, it->second.lag_bytes);
          ++it;
        }
      }
      MetricsRegistry::Instance().GetGauge("repl.lag_bytes")->Set(
          static_cast<int64_t>(max_lag));
    }

    if (!wait_for_data) {
      NEPTUNE_METRIC_COUNT("repl.primary.fetches", 1);
      NEPTUNE_METRIC_COUNT("repl.primary.bytes_shipped", out.payload.size());
      if (op_span.active()) {
        op_span.Annotate(
            "follower=" + request.follower_id +
            " action=" + std::to_string(static_cast<int>(out.action)) +
            " bytes=" + std::to_string(out.payload.size()));
      }
      return out;
    }
    // Long-poll: nothing new in the live generation. Wait for a commit
    // (NotifyReplWaiters) or the deadline, then re-read.
    const uint64_t now = time_->NowMicros();
    if (now >= deadline_us) {
      NEPTUNE_METRIC_COUNT("repl.primary.fetches", 1);
      NEPTUNE_METRIC_COUNT("repl.primary.empty_polls", 1);
      return out;  // empty tail: the follower is fully caught up
    }
    std::unique_lock<std::mutex> lock(handle->repl_mu);
    handle->repl_cv.wait_for(
        lock, std::chrono::microseconds(deadline_us - now),
        [&] { return handle->commit_seq != seen_seq; });
  }
}

Result<std::vector<std::string>> Ham::ReplListGraphs(const std::string& root) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.replListGraphs", "ham.op.repl");
  std::vector<std::string> out;
  // "" names the root itself, so a single-graph deployment can point
  // --follow straight at the graph directory.
  std::function<void(const std::string&, const std::string&, int)> walk =
      [&](const std::string& abs, const std::string& rel, int depth) {
        if (DurableStore::Exists(env_, abs)) {
          out.push_back(rel);
          return;  // stores do not nest
        }
        if (depth >= 5) return;
        auto children = env_->GetChildren(abs);
        if (!children.ok()) return;
        std::sort(children->begin(), children->end());
        for (const std::string& name : *children) {
          if (name.empty() || name == "." || name == "..") continue;
          walk(JoinPath(abs, name), rel.empty() ? name : rel + "/" + name,
               depth + 1);
        }
      };
  walk(root, "", 0);
  std::sort(out.begin(), out.end());
  return out;
}

Result<ReplNodeStatus> Ham::ReplStatus(const std::string& directory) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.replStatus", "ham.op.repl");
  NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<GraphHandle> graph,
                           LoadGraph(directory));
  GraphHandle* handle = graph.get();
  ReplNodeStatus out;
  {
    std::shared_lock<std::shared_mutex> lock(handle->mu);
    const ReplRole role = handle->store->repl_role();
    out.term = role.term;
    out.follower = follower() || role.follower;
    out.epoch = handle->store->epoch();
    out.wal_bytes = handle->store->wal_bytes();
  }
  if (out.follower) {
    out.lag_bytes = handle->repl_lag_bytes.load(std::memory_order_relaxed);
    const uint64_t caught =
        handle->repl_caught_up_us.load(std::memory_order_relaxed);
    out.behind_ms =
        caught == 0 ? ~0ull : (time_->NowMicros() - caught) / 1000;
  } else {
    std::lock_guard<std::mutex> lock(handle->repl_mu);
    for (const auto& [id, ack] : handle->followers) {
      out.lag_bytes = std::max(out.lag_bytes, ack.lag_bytes);
    }
  }
  return out;
}

// ----------------------------------------------------------- follower

Result<ReplicaApplyResult> Ham::ReplicaApply(const std::string& directory,
                                             uint64_t expected_epoch,
                                             std::string_view frames) {
  NEPTUNE_TRACE_SPAN(op_span, "repl.apply", "ham.op.repl");
  if (!follower()) {
    // Fencing on the promoted node: a replicator that lost the race
    // with Promote() must not write a byte more.
    return Status::FailedPrecondition(
        "not a follower; refusing replicated bytes");
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<GraphHandle> graph,
                           LoadGraph(directory));
  PinReplicaGraph(directory, graph);
  GraphHandle* handle = graph.get();

  std::unique_lock<std::shared_mutex> lock(handle->mu);
  if (handle->store->epoch() != expected_epoch) {
    return Status::FailedPrecondition(
        "local epoch " + std::to_string(handle->store->epoch()) +
        " != streamed epoch " + std::to_string(expected_epoch));
  }
  // Re-validate the streamed frames with the same tolerant reader
  // recovery uses: a torn or corrupt record truncates the chunk at the
  // last good boundary and the replicator re-fetches from there.
  NEPTUNE_ASSIGN_OR_RETURN(LogReadResult log, ReadLog(frames));
  ReplicaApplyResult out;
  out.applied_bytes = log.valid_bytes;
  out.records_applied = log.records.size();
  out.truncated_tail = log.truncated_tail;
  out.mid_log_corruption = log.mid_log_corruption;
  if (log.truncated_tail) {
    NEPTUNE_METRIC_COUNT("repl.follower.corrupt_chunks", 1);
    NEPTUNE_LOG(Warn) << "event=repl_corrupt_chunk dir=" << directory
                      << " valid_bytes=" << log.valid_bytes
                      << " dropped_bytes=" << log.dropped_bytes
                      << " mid_log=" << log.mid_log_corruption;
  }
  if (log.valid_bytes == 0) return out;

  // Decode everything before persisting anything: a record that passes
  // its CRC but fails the transaction codec means the stream is not
  // trustworthy at all (kCorruption → the caller resyncs).
  std::vector<std::vector<Op>> transactions;
  transactions.reserve(log.records.size());
  for (const std::string& record : log.records) {
    NEPTUNE_ASSIGN_OR_RETURN(std::vector<Op> ops, DecodeTransaction(record));
    transactions.push_back(std::move(ops));
  }
  // WAL first, then memory — the same discipline as a local commit.
  NEPTUNE_RETURN_IF_ERROR(handle->store->AppendRawFrames(
      frames.substr(0, log.valid_bytes), options_.sync_commits));
  for (const std::vector<Op>& ops : transactions) {
    for (const Op& op : ops) {
      Status status = handle->state.Apply(op, /*txn=*/nullptr);
      if (!status.ok()) {
        // Local state has diverged from the stream; only a snapshot
        // resync can fix it.
        return Status::Corruption("replica apply failed for " +
                                  std::string(OpKindName(op.kind)) + ": " +
                                  status.ToString());
      }
      handle->demon_index.ApplyCommitted(op);
    }
  }
  NEPTUNE_METRIC_COUNT("repl.follower.chunks_applied", 1);
  NEPTUNE_METRIC_COUNT("repl.follower.bytes_applied", out.applied_bytes);
  NEPTUNE_METRIC_COUNT("repl.follower.records_applied", out.records_applied);
  if (op_span.active()) {
    op_span.Annotate("bytes=" + std::to_string(out.applied_bytes) +
                     " records=" + std::to_string(out.records_applied) +
                     " epoch=" + std::to_string(expected_epoch));
  }
  return out;
}

Status Ham::ReplicaInstallSnapshot(const std::string& directory,
                                   std::string_view meta,
                                   std::string_view snapshot, uint64_t epoch,
                                   uint64_t term) {
  NEPTUNE_TRACE_SPAN(op_span, "repl.install_snapshot", "ham.op.repl");
  if (!follower()) {
    return Status::FailedPrecondition(
        "not a follower; refusing replicated snapshot");
  }
  // Validate everything before touching disk.
  ProjectId project = 0;
  uint32_t protections = 0;
  NEPTUNE_RETURN_IF_ERROR(DecodeMeta(meta, &project, &protections));
  NEPTUNE_ASSIGN_OR_RETURN(GraphState state, GraphState::DecodeFrom(snapshot));
  state.set_attribute_index_enabled(options_.use_attribute_index);
  state.set_keyframe_interval(options_.keyframe_interval);

  // Reuse the open handle when there is one so existing read sessions
  // survive the resync; otherwise build a fresh one.
  std::shared_ptr<GraphHandle> graph;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = graphs_.find(directory);
    if (it != graphs_.end()) graph = it->second.lock();
  }
  const bool fresh = graph == nullptr;
  if (fresh) {
    graph = std::make_shared<GraphHandle>();
    graph->directory = directory;
  }
  GraphHandle* handle = graph.get();
  {
    std::unique_lock<std::shared_mutex> lock(handle->mu);
    NEPTUNE_ASSIGN_OR_RETURN(
        std::unique_ptr<DurableStore> store,
        DurableStore::CreateForReplica(env_, directory, meta, snapshot, epoch,
                                       term));
    store->set_keep_wal_generations(options_.repl_keep_wal_generations);
    handle->store = std::move(store);
    handle->state = std::move(state);
    handle->project = project;
    handle->protections = protections;
    handle->demon_index.Rebuild(handle->state);
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    graphs_[directory] = graph;
    repl_pins_[directory] = graph;
  }
  NEPTUNE_METRIC_COUNT("repl.follower.snapshots_installed", 1);
  NEPTUNE_LOG(Warn) << "event=repl_snapshot_installed dir=" << directory
                    << " epoch=" << epoch << " term=" << term
                    << " bytes=" << snapshot.size();
  return Status::OK();
}

Status Ham::ReplicaRoll(const std::string& directory, uint64_t to_epoch) {
  NEPTUNE_TRACE_SPAN(op_span, "repl.roll", "ham.op.repl");
  if (!follower()) {
    return Status::FailedPrecondition("not a follower; refusing epoch roll");
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<GraphHandle> graph,
                           LoadGraph(directory));
  PinReplicaGraph(directory, graph);
  GraphHandle* handle = graph.get();
  std::unique_lock<std::shared_mutex> lock(handle->mu);
  if (handle->store->epoch() + 1 != to_epoch) {
    return Status::FailedPrecondition(
        "cannot roll from epoch " + std::to_string(handle->store->epoch()) +
        " to " + std::to_string(to_epoch));
  }
  // Deterministic replay makes the local state at this boundary
  // byte-equivalent to what the primary checkpointed, so the roll is a
  // plain local checkpoint and the epochs line up.
  std::string snapshot;
  handle->state.EncodeTo(&snapshot);
  NEPTUNE_RETURN_IF_ERROR(handle->store->Checkpoint(snapshot));
  NEPTUNE_METRIC_COUNT("repl.follower.rolls", 1);
  return Status::OK();
}

void Ham::NoteReplProgress(const std::string& directory, uint64_t lag_bytes,
                           bool caught_up) {
  std::shared_ptr<GraphHandle> graph;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = graphs_.find(directory);
    if (it != graphs_.end()) graph = it->second.lock();
  }
  if (graph == nullptr) return;
  graph->repl_lag_bytes.store(lag_bytes, std::memory_order_relaxed);
  if (caught_up) {
    graph->repl_caught_up_us.store(time_->NowMicros(),
                                   std::memory_order_relaxed);
  }
  MetricsRegistry::Instance().GetGauge("repl.follower.lag_bytes")->Set(
      static_cast<int64_t>(lag_bytes));
}

// ---------------------------------------------------------- promotion

Result<uint64_t> Ham::Promote() {
  NEPTUNE_TRACE_SPAN(op_span, "ham.promote", "ham.op.repl");
  const bool was_follower =
      follower_mode_.exchange(false, std::memory_order_acq_rel);
  // Every graph this engine knows about gets its term bumped; pinned
  // replica graphs are the interesting set, live client graphs ride
  // along for the standalone-primary (idempotent) case.
  std::vector<std::shared_ptr<GraphHandle>> handles;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [dir, handle] : repl_pins_) handles.push_back(handle);
    for (const auto& [dir, weak] : graphs_) {
      if (repl_pins_.count(dir)) continue;
      if (std::shared_ptr<GraphHandle> handle = weak.lock()) {
        handles.push_back(std::move(handle));
      }
    }
  }
  uint64_t new_term = 0;
  for (const std::shared_ptr<GraphHandle>& graph : handles) {
    std::unique_lock<std::shared_mutex> lock(graph->mu);
    ReplRole role = graph->store->repl_role();
    if (was_follower || role.follower) {
      role.term += 1;
      role.follower = false;
      NEPTUNE_RETURN_IF_ERROR(graph->store->SetReplRole(role));
      NEPTUNE_LOG(Warn) << "event=promoted dir=" << graph->directory
                        << " term=" << role.term;
    }
    new_term = std::max(new_term, role.term);
  }
  if (was_follower) NEPTUNE_METRIC_COUNT("repl.promotions", 1);
  MetricsRegistry::Instance().GetGauge("repl.role")->Set(0);
  MetricsRegistry::Instance().GetGauge("repl.term")->Set(
      static_cast<int64_t>(new_term));
  // A fresh primary is by definition not lagging behind anyone.
  MetricsRegistry::Instance().GetGauge("repl.apply_lag_us")->Set(0);
  return new_term;
}

}  // namespace ham
}  // namespace neptune
