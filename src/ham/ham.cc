#include "ham/ham.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "delta/recon_cache.h"

namespace neptune {
namespace ham {

namespace {

constexpr char kMetaMagic[] = "NEPMETA1";  // 8 bytes

// The graph lock, exclusive; the wait gets its own span so a writer
// stalled behind readers shows up as lock time, not op time.
std::unique_lock<std::shared_mutex> LockExclusive(std::shared_mutex& mu) {
  NEPTUNE_TRACE_SPAN(span, "ham.lock.exclusive_wait");
  return std::unique_lock<std::shared_mutex>(mu);
}

// First whitespace-delimited word of a demon value — the registry key.
std::string DemonCallbackName(const std::string& demon) {
  size_t end = demon.find(' ');
  return end == std::string::npos ? demon : demon.substr(0, end);
}

Event EventForOp(const Op& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
      return Event::kAddNode;
    case OpKind::kDeleteNode:
      return Event::kDeleteNode;
    case OpKind::kAddLink:
      return Event::kAddLink;
    case OpKind::kDeleteLink:
      return Event::kDeleteLink;
    case OpKind::kModifyNode:
      return Event::kModifyNode;
    case OpKind::kSetNodeAttribute:
    case OpKind::kSetLinkAttribute:
      return Event::kSetAttribute;
    case OpKind::kDeleteNodeAttribute:
    case OpKind::kDeleteLinkAttribute:
      return Event::kDeleteAttribute;
    case OpKind::kChangeNodeProtection:
      return Event::kChangeProtection;
    default:
      return Event::kCommitTransaction;  // no per-op demon event
  }
}

bool OpHasDemonEvent(const Op& op) {
  switch (op.kind) {
    case OpKind::kInternAttribute:
    case OpKind::kSetGraphDemon:
    case OpKind::kSetNodeDemon:
    case OpKind::kCreateContext:
    case OpKind::kMergeContext:
      return false;
    default:
      return true;
  }
}

}  // namespace

// -------------------------------------------------------- DemonRegistry

void DemonRegistry::Register(const std::string& name, DemonCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_[name] = std::move(callback);
}

void DemonRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.erase(name);
}

bool DemonRegistry::Fire(const DemonInvocation& invocation) const {
  DemonCallback callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = callbacks_.find(DemonCallbackName(invocation.demon));
    if (it == callbacks_.end()) return false;
    callback = it->second;
  }
  NEPTUNE_METRIC_COUNT("ham.demons.fired", 1);
  callback(invocation);
  return true;
}

// ------------------------------------------------------------- lifecycle

Ham::Ham(Env* env, HamOptions options)
    : env_(env),
      options_(std::move(options)),
      time_(options_.time_source != nullptr ? options_.time_source
                                            : RealTimeSource()),
      project_rng_(options_.project_id_seed != 0 ? options_.project_id_seed
                                                 : (NowMicros() | 1)) {
  // The reconstruction cache is process-wide; the most recently
  // constructed engine's option wins (they normally agree).
  delta::ReconstructionCache::Instance().set_capacity_bytes(
      options_.recon_cache_bytes);
  // The tracer is process-wide too; same most-recent-engine-wins rule.
  Tracer::Instance().Configure(options_.trace_sample_n,
                               options_.trace_slow_us);
  // Pre-register the self-protection metrics so operator tooling
  // (neptune_ctl stats) shows the rows even before they first fire.
  MetricsRegistry::Instance().GetGauge("server.sessions.active");
  MetricsRegistry::Instance().GetCounter("ham.txn.aborted_by_lease");
  MetricsRegistry::Instance().GetCounter("ham.limits.rejected");
  MetricsRegistry::Instance().GetCounter("trace.spans.recorded");
  MetricsRegistry::Instance().GetCounter("trace.spans.dropped");
  MetricsRegistry::Instance().GetCounter("trace.slow_ops");
  // Query-planner and index-maintenance metrics (see graph_state.h's
  // planner notes): registered at zero so `neptune_ctl stats` shows
  // the taxonomy before the first query runs.
  MetricsRegistry::Instance().GetCounter("query.plan.index");
  MetricsRegistry::Instance().GetCounter("query.plan.intersect");
  MetricsRegistry::Instance().GetCounter("query.plan.scan");
  MetricsRegistry::Instance().GetCounter("query.index.applied_deltas");
  MetricsRegistry::Instance().GetCounter("query.index.rebuilds");
  MetricsRegistry::Instance().GetCounter("ham.demons.dispatch.indexed");
  // Replication metrics (ROADMAP item 3): pre-registered so both roles
  // expose the full repl.* taxonomy from the first stats scrape.
  follower_mode_.store(options_.follower_mode, std::memory_order_release);
  // Role/term gauges feed /statusz and `neptune_ctl top`: role is
  // 0 = primary, 1 = follower; term is the highest fencing term this
  // process has seen (updated on promote and by the replicator tail).
  MetricsRegistry::Instance().GetGauge("repl.role")->Set(
      options_.follower_mode ? 1 : 0);
  MetricsRegistry::Instance().GetGauge("repl.term");
  MetricsRegistry::Instance().GetGauge("repl.apply_lag_us");
  MetricsRegistry::Instance().GetGauge("repl.lag_bytes");
  MetricsRegistry::Instance().GetGauge("repl.follower.lag_bytes");
  MetricsRegistry::Instance().GetCounter("repl.primary.fetches");
  MetricsRegistry::Instance().GetCounter("repl.primary.bytes_shipped");
  MetricsRegistry::Instance().GetCounter("repl.primary.snapshots_shipped");
  MetricsRegistry::Instance().GetCounter("repl.primary.stale_term_rejects");
  MetricsRegistry::Instance().GetCounter("repl.follower.bytes_applied");
  MetricsRegistry::Instance().GetCounter("repl.follower.records_applied");
  MetricsRegistry::Instance().GetCounter("repl.follower.corrupt_chunks");
  MetricsRegistry::Instance().GetCounter("repl.follower.snapshots_installed");
  MetricsRegistry::Instance().GetCounter("repl.follower.rolls");
  MetricsRegistry::Instance().GetCounter("repl.promotions");
  if (options_.txn_lease_ms > 0 && !options_.manual_lease_sweep) {
    lease_watchdog_ = std::thread([this] { LeaseWatchdogLoop(); });
  }
}

Ham::~Ham() {
  if (lease_watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    lease_watchdog_.join();
  }
}

// ------------------------------------------------------- lease watchdog

Ham::LockedSession::LockedSession(std::shared_ptr<Session> session)
    : session_(std::move(session)), lock_(session_->op_mu) {
  session_->last_touch_us.store(session_->time->NowMicros(),
                                std::memory_order_relaxed);
}

Ham::LockedSession::~LockedSession() {
  // Renew on exit too: a long-running op must not leave the lease
  // looking stale the moment it finishes.
  if (session_ != nullptr) {
    session_->last_touch_us.store(session_->time->NowMicros(),
                                  std::memory_order_relaxed);
  }
}

void Ham::LeaseWatchdogLoop() {
  const uint64_t lease_us = options_.txn_lease_ms * 1000;
  const auto period = std::chrono::milliseconds(
      std::max<uint64_t>(options_.txn_lease_ms / 4, 5));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, period);
    if (watchdog_stop_) break;
    lock.unlock();
    SweepExpiredLeases(lease_us);
    lock.lock();
  }
}

void Ham::SweepLeasesNow() {
  if (options_.txn_lease_ms > 0) {
    SweepExpiredLeases(options_.txn_lease_ms * 1000);
  }
}

void Ham::SweepExpiredLeases(uint64_t lease_us) {
  // Collect candidates under the registry lock, then abort each under
  // its own op_mu with the registry lock released — the reverse order
  // (waiting for op_mu while holding registry_mu_) could deadlock with
  // openContext, which registers a session while inside an op.
  std::vector<std::shared_ptr<Session>> candidates;
  {
    const uint64_t now = time_->NowMicros();
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->in_txn.load(std::memory_order_relaxed) &&
          now - session->last_touch_us.load(std::memory_order_relaxed) >
              lease_us) {
        candidates.push_back(session);
      }
    }
  }
  for (const std::shared_ptr<Session>& session : candidates) {
    // try_lock: if the session's thread is mid-op it is plainly not
    // abandoned, and the op renews the lease on exit anyway.
    std::unique_lock<std::recursive_mutex> op_lock(session->op_mu,
                                                   std::try_to_lock);
    if (!op_lock.owns_lock()) continue;
    if (!session->in_txn.load(std::memory_order_relaxed)) continue;
    if (time_->NowMicros() -
            session->last_touch_us.load(std::memory_order_relaxed) <=
        lease_us) {
      continue;  // renewed while we were collecting
    }
    NEPTUNE_TRACE_SPAN(span, "ham.txn.leaseAbort");
    if (span.active()) {
      span.Annotate("session=" + std::to_string(session->id) + " lease_ms=" +
                    std::to_string(options_.txn_lease_ms));
    }
    session->overlay = GraphState::TxnOverlay();
    session->ops.clear();
    session->in_txn.store(false, std::memory_order_relaxed);
    session->lease_aborted = true;
    ReleaseWriter(session->graph.get(), session->id);
    NEPTUNE_METRIC_COUNT("ham.txn.aborted_by_lease", 1);
    NEPTUNE_METRIC_COUNT("ham.txn.aborted", 1);
    NEPTUNE_LOG(Warn) << "event=lease_expired session=" << session->id
                      << " lease_ms=" << options_.txn_lease_ms
                      << " action=abort_and_release_writer";
  }
}

std::string Ham::EncodeMeta(ProjectId project, uint32_t protections) {
  std::string out(kMetaMagic, 8);
  PutFixed64(&out, project);
  PutVarint32(&out, protections);
  return out;
}

Status Ham::DecodeMeta(std::string_view meta, ProjectId* project,
                       uint32_t* protections) {
  if (meta.size() < 8 || meta.substr(0, 8) != std::string_view(kMetaMagic, 8)) {
    return Status::Corruption("bad PROJECT metadata magic");
  }
  meta.remove_prefix(8);
  if (!GetFixed64(&meta, project) || !GetVarint32(&meta, protections)) {
    return Status::Corruption("truncated PROJECT metadata");
  }
  return Status::OK();
}

Result<ProjectId> Ham::ReadProjectId(Env* env, const std::string& dir) {
  NEPTUNE_ASSIGN_OR_RETURN(std::string meta, DurableStore::ReadMeta(env, dir));
  ProjectId project = 0;
  uint32_t protections = 0;
  NEPTUNE_RETURN_IF_ERROR(DecodeMeta(meta, &project, &protections));
  return project;
}

Result<CreateGraphResult> Ham::CreateGraph(const std::string& directory,
                                           uint32_t protections) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.createGraph", "ham.op.graph");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  // A fresh graph: logical time 1 is its creation instant.
  GraphState state;
  const Time creation = state.clock().Tick();

  // Unique-enough project id (the Appendix only requires uniqueness).
  // The generator is per-engine and seedable (project_id_seed) so the
  // simulation harness reproduces identical ids run-to-run.
  ProjectId project = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    do {
      project = project_rng_.Next();
    } while (project == 0);
  }

  std::string snapshot;
  state.EncodeTo(&snapshot);
  NEPTUNE_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableStore> store,
      DurableStore::Create(env_, directory, EncodeMeta(project, protections),
                           snapshot, protections));
  (void)store;  // closed immediately; openGraph re-opens
  return CreateGraphResult{project, creation};
}

Status Ham::DestroyGraph(ProjectId project, const std::string& directory) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.destroyGraph", "ham.op.graph");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = graphs_.find(directory);
    if (it != graphs_.end() && !it->second.expired()) {
      return Status::FailedPrecondition(
          "graph in " + directory + " has open sessions; close them first");
    }
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::string meta,
                           DurableStore::ReadMeta(env_, directory));
  ProjectId stored = 0;
  uint32_t protections = 0;
  NEPTUNE_RETURN_IF_ERROR(DecodeMeta(meta, &stored, &protections));
  if (stored != project) {
    return Status::PermissionDenied(
        "ProjectId does not match the graph in " + directory);
  }
  return DurableStore::Destroy(env_, directory);
}

Result<std::shared_ptr<Ham::GraphHandle>> Ham::LoadGraph(
    const std::string& directory) {
  // Fast path: already open.
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = graphs_.find(directory);
    if (it != graphs_.end()) {
      if (std::shared_ptr<GraphHandle> handle = it->second.lock()) {
        return handle;
      }
      graphs_.erase(it);
    }
  }

  RecoveredState recovered;
  NEPTUNE_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableStore> store,
      DurableStore::Open(env_, directory, &recovered,
                         options_.repl_keep_wal_generations));
  auto handle = std::make_shared<GraphHandle>();
  handle->directory = directory;
  handle->store = std::move(store);
  NEPTUNE_RETURN_IF_ERROR(
      DecodeMeta(recovered.meta, &handle->project, &handle->protections));
  NEPTUNE_ASSIGN_OR_RETURN(handle->state,
                           GraphState::DecodeFrom(recovered.snapshot));
  handle->state.set_attribute_index_enabled(options_.use_attribute_index);
  handle->state.set_keyframe_interval(options_.keyframe_interval);
  // Redo every committed transaction.
  for (const std::string& record : recovered.wal_records) {
    NEPTUNE_ASSIGN_OR_RETURN(std::vector<Op> ops, DecodeTransaction(record));
    for (const Op& op : ops) {
      Status status = handle->state.Apply(op, /*txn=*/nullptr);
      if (!status.ok()) {
        return Status::Corruption("WAL replay failed for " +
                                  std::string(OpKindName(op.kind)) + ": " +
                                  status.ToString());
      }
    }
  }
  handle->demon_index.Rebuild(handle->state);
  if (!recovered.report.Clean()) {
    NEPTUNE_LOG(Warn) << "event=graph_recovered dir=" << directory << " "
                      << recovered.report.ToString();
  } else {
    NEPTUNE_LOG(Info) << "event=graph_recovered dir=" << directory << " "
                      << recovered.report.ToString();
  }

  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = graphs_.find(directory);
  if (it != graphs_.end()) {
    if (std::shared_ptr<GraphHandle> existing = it->second.lock()) {
      return existing;  // lost a benign race with another opener
    }
  }
  graphs_[directory] = handle;
  return handle;
}

Result<Context> Ham::OpenGraph(ProjectId project, const std::string& machine,
                               const std::string& directory) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.openGraph", "ham.op.graph");
  (void)machine;  // addressing is the RPC layer's concern
  NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<GraphHandle> graph,
                           LoadGraph(directory));
  if (graph->project != project) {
    return Status::PermissionDenied("ProjectId does not match the graph in " +
                                    directory);
  }
  GraphHandle* handle = graph.get();  // `graph` keeps it alive below
  const Context opened = AddSession(graph, kMainThread);
  // "This operation can trigger a demon."
  Time now = 0;
  {
    std::shared_lock<std::shared_mutex> lock(handle->mu);
    now = handle->state.clock().Last();
  }
  FireEventDemons(handle, kMainThread, Event::kOpenGraph, 0, 0, now);
  return opened;
}

Context Ham::AddSession(std::shared_ptr<GraphHandle> graph, ThreadId thread) {
  auto session = std::make_shared<Session>();
  session->thread = thread;
  session->time = time_;
  session->last_touch_us.store(time_->NowMicros(), std::memory_order_relaxed);
  session->graph = std::move(graph);
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    id = next_session_++;
    session->id = id;
    session->graph->open_sessions++;
    sessions_[id] = std::move(session);
  }
  MetricsRegistry::Instance().GetGauge("server.sessions.active")->Increment();
  return Context{id};
}

Status Ham::CloseGraph(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.closeGraph", "ham.op.graph");
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = sessions_.find(ctx.session);
    if (it == sessions_.end()) {
      return Status::InvalidArgument("invalid context handle");
    }
    session = std::move(it->second);
    sessions_.erase(it);
    session->graph->open_sessions--;
  }
  MetricsRegistry::Instance().GetGauge("server.sessions.active")->Decrement();
  // Serialize with the lease watchdog: it may hold a candidate
  // reference to this session and must observe the abort below.
  std::lock_guard<std::recursive_mutex> op_lock(session->op_mu);
  if (session->in_txn) {
    // Abort: staged state evaporates; free the writer slot.
    session->overlay = GraphState::TxnOverlay();
    session->ops.clear();
    session->in_txn = false;
    ReleaseWriter(session->graph.get(), ctx.session);
  }
  return Status::OK();
}

Result<Ham::LockedSession> Ham::FindSession(Context ctx) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = sessions_.find(ctx.session);
    if (it == sessions_.end()) {
      return Status::InvalidArgument("invalid context handle " +
                                     std::to_string(ctx.session));
    }
    session = it->second;
  }
  // op_mu is taken after registry_mu_ is released; see SweepExpiredLeases
  // for why the orders must never interleave.
  return LockedSession(std::move(session));
}

// ----------------------------------------------------------- writer slot

void Ham::AcquireWriter(GraphHandle* graph, uint64_t session) {
  std::unique_lock<std::shared_mutex> lock(graph->mu, std::defer_lock);
  {
    // The writer-slot wait is where a contended graph spends its time;
    // give it its own span so traces attribute it correctly.
    NEPTUNE_TRACE_SPAN(span, "ham.lock.writer_wait");
    lock.lock();
    graph->writer_cv.wait(lock, [&] { return graph->writer_session == 0; });
  }
  graph->writer_session = session;
}

void Ham::ReleaseWriter(GraphHandle* graph, uint64_t session) {
  {
    std::lock_guard<std::shared_mutex> lock(graph->mu);
    if (graph->writer_session == session) graph->writer_session = 0;
  }
  graph->writer_cv.notify_all();
}

// ----------------------------------------------------------- transactions

Status Ham::BeginTransaction(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.beginTransaction", "ham.op.txn");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->in_txn) {
    return Status::FailedPrecondition("a transaction is already open");
  }
  session->lease_aborted = false;  // a fresh transaction gets a fresh lease
  AcquireWriter(session->graph.get(), ctx.session);
  session->in_txn = true;
  session->overlay = GraphState::TxnOverlay();
  session->ops.clear();
  NEPTUNE_METRIC_COUNT("ham.txn.begun", 1);
  return Status::OK();
}

Status Ham::CommitLocked(GraphHandle* graph, Session* session) {
  if (session->ops.empty()) return Status::OK();
  const std::string record = EncodeTransaction(session->ops);
  NEPTUNE_TRACE_SPAN(span, "ham.txn.commit");
  if (span.active()) {
    span.Annotate("ops=" + std::to_string(session->ops.size()) +
                  " bytes=" + std::to_string(record.size()));
  }
  Status status = graph->store->AppendRecord(record, options_.sync_commits);
  if (!status.ok()) {
    // The transaction did not become durable; treat as aborted.
    session->overlay = GraphState::TxnOverlay();
    session->ops.clear();
    return status;
  }
  graph->state.CommitOverlay(session->thread, std::move(session->overlay));
  session->overlay = GraphState::TxnOverlay();
  // Fold demon mutations into the dispatch index while we still hold
  // the exclusive lock, so dispatch after release sees them.
  for (const Op& op : session->ops) {
    graph->demon_index.ApplyCommitted(op);
  }
  if (graph->store->wal_bytes() > options_.checkpoint_wal_bytes) {
    std::string snapshot;
    graph->state.EncodeTo(&snapshot);
    Status checkpoint_status = graph->store->Checkpoint(snapshot);
    if (!checkpoint_status.ok()) {
      NEPTUNE_LOG(Warn) << "event=auto_checkpoint_failed code="
                        << StatusCodeToString(checkpoint_status.code())
                        << " detail=\"" << checkpoint_status.message()
                        << "\"";
    }
  }
  // Wake any follower long-polling in ReplFetch for these bytes.
  NotifyReplWaiters(graph);
  return Status::OK();
}

Status Ham::CommitTransaction(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.commitTransaction", "ham.op.txn");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->lease_aborted) {
    session->lease_aborted = false;
    return Status::Aborted(
        "transaction was aborted by lease expiry; nothing was committed");
  }
  if (!session->in_txn) {
    return Status::FailedPrecondition("no transaction is open");
  }
  GraphHandle* graph = session->graph.get();
  std::vector<Op> committed;
  Status status;
  {
    std::unique_lock<std::shared_mutex> lock = LockExclusive(graph->mu);
    status = CommitLocked(graph, session.get());
    if (status.ok()) committed = std::move(session->ops);
    session->ops.clear();
  }
  session->in_txn = false;
  ReleaseWriter(graph, ctx.session);
  if (status.ok()) {
    NEPTUNE_METRIC_COUNT("ham.txn.committed", 1);
  } else {
    NEPTUNE_METRIC_COUNT("ham.txn.aborted", 1);
  }
  if (status.ok() && !committed.empty()) {
    FireDemons(graph, session->thread, committed);
  }
  return status;
}

Status Ham::AbortTransaction(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.abortTransaction", "ham.op.txn");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->lease_aborted) {
    // The watchdog already did the work; the client's abort succeeds.
    session->lease_aborted = false;
    return Status::OK();
  }
  if (!session->in_txn) {
    return Status::FailedPrecondition("no transaction is open");
  }
  session->overlay = GraphState::TxnOverlay();
  session->ops.clear();
  session->in_txn = false;
  ReleaseWriter(session->graph.get(), ctx.session);
  NEPTUNE_METRIC_COUNT("ham.txn.aborted", 1);
  return Status::OK();
}

Status Ham::Execute(Session* session, Op* op) {
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  if (session->lease_aborted) {
    // Refuse to silently fold what the client believes is transaction
    // work into an implicit commit; it must abort (or commit, and get
    // told) before continuing.
    return Status::Aborted(
        "transaction was aborted by lease expiry; call abortTransaction");
  }
  GraphHandle* graph = session->graph.get();
  op->thread = session->thread;
  if (session->in_txn) {
    std::unique_lock<std::shared_mutex> lock = LockExclusive(graph->mu);
    op->time = graph->state.clock().Tick();
    NEPTUNE_RETURN_IF_ERROR(graph->state.Apply(*op, &session->overlay));
    session->ops.push_back(*op);
    return Status::OK();
  }
  // Implicit single-op transaction: hold the lock across apply+commit,
  // but only once the writer slot is free.
  std::vector<Op> committed;
  {
    std::unique_lock<std::shared_mutex> lock(graph->mu, std::defer_lock);
    {
      NEPTUNE_TRACE_SPAN(lock_span, "ham.lock.exclusive_wait");
      lock.lock();
      graph->writer_cv.wait(lock, [&] { return graph->writer_session == 0; });
    }
    op->time = graph->state.clock().Tick();
    Status apply_status = graph->state.Apply(*op, &session->overlay);
    if (!apply_status.ok()) {
      // Drop copy-on-write residue so a later implicit op can't fold
      // stale record copies over newer base state.
      session->overlay = GraphState::TxnOverlay();
      return apply_status;
    }
    session->ops.push_back(*op);
    Status status = CommitLocked(graph, session);
    if (!status.ok()) {
      session->ops.clear();
      return status;
    }
    committed = std::move(session->ops);
    session->ops.clear();
  }
  NEPTUNE_METRIC_COUNT("ham.txn.implicit", 1);
  NEPTUNE_METRIC_COUNT("ham.txn.committed", 1);
  FireDemons(graph, session->thread, committed);
  return Status::OK();
}

// ----------------------------------------------------------------- demons

void Ham::FireEventDemons(GraphHandle* graph, ThreadId thread, Event event,
                          NodeIndex node, LinkIndex link, Time time) {
  // Fast path: main-thread dispatch answers from the demon index
  // without touching the graph lock. Non-main threads resolve node
  // demons through their overlay, so they keep the locked path.
  if (thread == kMainThread) {
    std::string graph_demon;
    std::string node_demon;
    bool served = graph->demon_index.Lookup(event, node, &graph_demon,
                                            &node_demon);
    if (!served) {
      // Index was invalidated (merge/prune); rebuild under the shared
      // lock and retry once.
      std::shared_lock<std::shared_mutex> lock(graph->mu);
      graph->demon_index.Rebuild(graph->state);
      served = graph->demon_index.Lookup(event, node, &graph_demon,
                                         &node_demon);
    }
    if (served) {
      NEPTUNE_METRIC_COUNT("ham.demons.dispatch.indexed", 1);
      if (!graph_demon.empty()) {
        demon_registry_.Fire(DemonInvocation{event, time, graph->project,
                                             thread, node, link,
                                             std::move(graph_demon)});
      }
      if (!node_demon.empty()) {
        demon_registry_.Fire(DemonInvocation{event, time, graph->project,
                                             thread, node, link,
                                             std::move(node_demon)});
      }
      return;
    }
  }
  std::vector<DemonInvocation> to_fire;
  {
    std::shared_lock<std::shared_mutex> lock(graph->mu);
    std::string graph_demon = graph->state.GraphDemons(nullptr).Get(event, 0);
    if (!graph_demon.empty()) {
      to_fire.push_back(DemonInvocation{event, time, graph->project, thread,
                                        node, link, std::move(graph_demon)});
    }
    if (node != 0) {
      const NodeRecord* record = graph->state.FindNode(thread, nullptr, node);
      if (record != nullptr) {
        std::string node_demon = record->demons.Get(event, 0);
        if (!node_demon.empty()) {
          to_fire.push_back(DemonInvocation{event, time, graph->project,
                                            thread, node, link,
                                            std::move(node_demon)});
        }
      }
    }
  }
  for (const DemonInvocation& invocation : to_fire) {
    demon_registry_.Fire(invocation);
  }
}

void Ham::FireDemons(GraphHandle* graph, ThreadId thread,
                     const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (!OpHasDemonEvent(op)) continue;
    FireEventDemons(graph, thread, EventForOp(op), op.node, op.link, op.time);
  }
  if (!ops.empty()) {
    FireEventDemons(graph, thread, Event::kCommitTransaction, 0, 0,
                    ops.back().time);
  }
}

}  // namespace ham
}  // namespace neptune
