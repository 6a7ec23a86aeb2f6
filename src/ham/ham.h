// Ham: the local Hypertext Abstract Machine engine — Neptune's bottom
// layer (paper §3). One Ham instance manages any number of graph
// databases (each a DurableStore directory), serializes writers per
// graph, runs demons, and recovers committed state on open.

#ifndef NEPTUNE_HAM_HAM_H_
#define NEPTUNE_HAM_HAM_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "ham/demon_index.h"
#include "ham/graph_state.h"
#include "ham/ham_interface.h"
#include "storage/durable_store.h"

namespace neptune {
namespace ham {

// What ReplicaApply did with one streamed WAL chunk (follower side).
struct ReplicaApplyResult {
  uint64_t applied_bytes = 0;    // valid frame bytes persisted + applied
  uint64_t records_applied = 0;  // committed transactions among them
  // The chunk's tail failed CRC validation — a torn or corrupt
  // streamed record. The valid prefix was kept; the caller re-fetches
  // from the new offset (truncate-and-resync).
  bool truncated_tail = false;
  bool mid_log_corruption = false;
};

struct HamOptions {
  // fsync the WAL on every commit. Turning this off trades the last
  // few commits on power loss for throughput (bench B5 measures both).
  bool sync_commits = true;
  // Rewrite the snapshot and rotate the WAL when it exceeds this size.
  uint64_t checkpoint_wal_bytes = 8ull << 20;
  // Machine name reported to openGraph validation; "" accepts any.
  std::string machine = "local";
  // Serve eligible getGraphQuery calls from the lazily-rebuilt
  // attribute index (see ham/attribute_index.h). Off = always scan
  // (the B3 ablation baseline).
  bool use_attribute_index = true;
  // Store a full copy of every K-th node version so a historical read
  // applies at most ~K deltas instead of walking the whole chain
  // (see delta/version_chain.h). 0 disables keyframes.
  uint32_t keyframe_interval = 16;
  // Capacity of the process-wide version-reconstruction cache
  // (delta/recon_cache.h); applied at Ham construction. 0 disables.
  size_t recon_cache_bytes = 8ull << 20;

  // Server self-protection ------------------------------------------
  // A session that holds an open transaction but has been silent (no
  // operation on its context) for longer than this is force-aborted by
  // a watchdog thread, releasing the graph's writer slot so a hung or
  // abandoned editor never wedges the graph for every other author.
  // Every operation on the context renews the lease. 0 disables the
  // watchdog (the library-embedding default; the server turns it on).
  uint64_t txn_lease_ms = 0;
  // Caps below reject oversized inputs with kInvalidArgument before
  // any WAL write. They apply at the public API boundary only — WAL
  // replay is exempt, so shrinking a cap never makes an existing graph
  // unrecoverable. 0 = unlimited.
  size_t max_node_content_bytes = 16ull << 20;
  size_t max_attribute_name_bytes = 4096;
  size_t max_attribute_value_bytes = 1ull << 20;
  size_t max_attrs_per_entity = 4096;

  // Replication (ROADMAP item 3) ------------------------------------
  // Run this engine as a replication follower: client mutations are
  // rejected with kReadOnly while ReplicaApply/ReplicaInstallSnapshot
  // keep the state in step with a primary; Promote() flips it live.
  bool follower_mode = false;
  // Checkpointed WAL generations a primary retains so followers can
  // tail across a checkpoint instead of re-snapshotting.
  uint32_t repl_keep_wal_generations = 1;

  // Request tracing (common/trace.h) --------------------------------
  // Keep 1-in-N traces (0 disables tracing; 1 keeps every trace).
  // Applied process-wide at Ham construction, like recon_cache_bytes.
  uint32_t trace_sample_n = 0;
  // A span lasting at least this long is always kept, logged as a
  // JSON slow-op line, and retained in the slow-op ring regardless of
  // sampling. 0 disables the slow path.
  uint64_t trace_slow_us = 0;

  // Determinism / simulation hooks ----------------------------------
  // Clock for lease stamps and expiry sweeps. nullptr = the
  // process-wide real clock.
  TimeSource* time_source = nullptr;
  // When true, the lease watchdog thread is never started even with
  // txn_lease_ms > 0; the embedder calls SweepLeasesNow() itself. The
  // simulation harness ticks it from the virtual clock.
  bool manual_lease_sweep = false;
  // Seed for CreateGraph's project-id generator. 0 = seed from the
  // clock (the uniqueness-only default); the simulation harness pins
  // it so graph creation is reproducible.
  uint64_t project_id_seed = 0;
};

// Process-wide registry binding demon values to callables — the
// in-process stand-in for the paper's planned Smalltalk/Modula-2/C
// demon bodies. Demon values that start with the registered name
// (e.g. value "mail bob" fires callback "mail") receive the full
// value in the invocation record.
class DemonRegistry {
 public:
  void Register(const std::string& name, DemonCallback callback);
  void Unregister(const std::string& name);
  // Invokes the callback whose name is the first word of
  // `invocation.demon`, if registered. Returns true if one fired.
  bool Fire(const DemonInvocation& invocation) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, DemonCallback> callbacks_;
};

class Ham final : public HamInterface {
 public:
  explicit Ham(Env* env, HamOptions options = HamOptions());
  ~Ham() override;

  Ham(const Ham&) = delete;
  Ham& operator=(const Ham&) = delete;

  DemonRegistry& demons() { return demon_registry_; }
  const HamOptions& options() const { return options_; }

  // Reads the ProjectId stored in a graph directory without opening
  // the graph — what command-line tools use to address a database.
  static Result<ProjectId> ReadProjectId(Env* env, const std::string& dir);

  // True while this engine is a replication follower (client
  // mutations rejected with kReadOnly); cleared by Promote().
  bool follower() const {
    return follower_mode_.load(std::memory_order_acquire);
  }

  // Follower apply surface (driven by rpc::Replicator in-process; not
  // part of HamInterface — the wire never carries these directly):
  // Persists a streamed chunk of raw WAL frames and applies the valid
  // prefix to the live state. `expected_epoch` must match the local
  // store's generation. CRC validation uses the same tolerant ReadLog
  // machinery as recovery; a torn tail keeps the valid prefix and is
  // reported, not fatal. kCorruption means local state has diverged
  // and the caller must resync from a snapshot.
  Result<ReplicaApplyResult> ReplicaApply(const std::string& directory,
                                          uint64_t expected_epoch,
                                          std::string_view frames);
  // Replaces the local store with a primary-shipped snapshot at
  // `epoch`, adopting fencing term `term` (bootstrap or resync).
  Status ReplicaInstallSnapshot(const std::string& directory,
                                std::string_view meta,
                                std::string_view snapshot, uint64_t epoch,
                                uint64_t term);
  // Local checkpoint advancing the follower's generation to
  // `to_epoch` (current + 1) after the old generation fully drained —
  // deterministic replay makes the local snapshot equivalent to the
  // primary's at the same boundary.
  Status ReplicaRoll(const std::string& directory, uint64_t to_epoch);
  // Records follower freshness for ReplStatus and the lag gauge.
  void NoteReplProgress(const std::string& directory, uint64_t lag_bytes,
                        bool caught_up);

  // HamInterface replication overrides (primary side + health).
  Result<ReplFetchResult> ReplFetch(const ReplFetchRequest& request) override;
  Result<ReplNodeStatus> ReplStatus(const std::string& directory) override;
  Result<std::vector<std::string>> ReplListGraphs(
      const std::string& root) override;
  Result<uint64_t> Promote() override;

  // Local administration (not part of HamInterface):
  // Structural integrity check; one message per problem, empty = clean.
  Result<std::vector<std::string>> VerifyGraph(Context ctx);
  // Drops version history strictly older than the version in effect at
  // `before` across the whole graph, then checkpoints (the reclaimed
  // space only materializes in a fresh snapshot). Disallowed inside an
  // open transaction. Returns the fresh snapshot's size in bytes.
  Result<uint64_t> PruneHistory(Context ctx, Time before);
  // Runs one lease-expiry sweep immediately, exactly as the watchdog
  // thread would (no-op when txn_lease_ms is 0). For embedders that
  // own the clock — the simulation harness calls this on virtual-time
  // ticks instead of running the watchdog thread
  // (HamOptions::manual_lease_sweep).
  void SweepLeasesNow();

  // HamInterface implementation ------------------------------------
  Result<CreateGraphResult> CreateGraph(const std::string& directory,
                                        uint32_t protections) override;
  Status DestroyGraph(ProjectId project,
                      const std::string& directory) override;
  Result<Context> OpenGraph(ProjectId project, const std::string& machine,
                            const std::string& directory) override;
  Status CloseGraph(Context ctx) override;

  Status BeginTransaction(Context ctx) override;
  Status CommitTransaction(Context ctx) override;
  Status AbortTransaction(Context ctx) override;

  Result<AddNodeResult> AddNode(Context ctx, bool keep_history) override;
  Status DeleteNode(Context ctx, NodeIndex node) override;
  Result<AddLinkResult> AddLink(Context ctx, const LinkPt& from,
                                const LinkPt& to) override;
  Result<AddLinkResult> CopyLink(Context ctx, LinkIndex link, Time time,
                                 bool copy_source,
                                 const LinkPt& other) override;
  Status DeleteLink(Context ctx, LinkIndex link) override;

  Result<SubGraph> LinearizeGraph(
      Context ctx, NodeIndex start, Time time, const std::string& node_pred,
      const std::string& link_pred,
      const std::vector<AttributeIndex>& node_attrs,
      const std::vector<AttributeIndex>& link_attrs) override;
  Result<SubGraph> GetGraphQuery(
      Context ctx, Time time, const std::string& node_pred,
      const std::string& link_pred,
      const std::vector<AttributeIndex>& node_attrs,
      const std::vector<AttributeIndex>& link_attrs) override;
  Result<QueryExplain> GetGraphQueryExplained(
      Context ctx, Time time, const std::string& node_pred,
      const std::string& link_pred,
      const std::vector<AttributeIndex>& node_attrs,
      const std::vector<AttributeIndex>& link_attrs,
      const QueryOptions& options) override;

  Result<OpenNodeResult> OpenNode(
      Context ctx, NodeIndex node, Time time,
      const std::vector<AttributeIndex>& attrs) override;
  Status ModifyNode(Context ctx, NodeIndex node, Time expected_time,
                    const std::string& contents,
                    const std::vector<AttachmentUpdate>& attachments,
                    const std::string& explanation) override;
  Result<Time> GetNodeTimeStamp(Context ctx, NodeIndex node) override;
  Status ChangeNodeProtection(Context ctx, NodeIndex node,
                              uint32_t protections) override;
  Result<NodeVersions> GetNodeVersions(Context ctx, NodeIndex node) override;
  Result<std::vector<delta::Difference>> GetNodeDifferences(
      Context ctx, NodeIndex node, Time t1, Time t2) override;

  Result<LinkEndResult> GetToNode(Context ctx, LinkIndex link,
                                  Time time) override;
  Result<LinkEndResult> GetFromNode(Context ctx, LinkIndex link,
                                    Time time) override;

  Result<std::vector<AttributeEntry>> GetAttributes(Context ctx,
                                                    Time time) override;
  Result<std::vector<std::string>> GetAttributeValues(Context ctx,
                                                      AttributeIndex attr,
                                                      Time time) override;
  Result<AttributeIndex> GetAttributeIndex(Context ctx,
                                           const std::string& name) override;

  Status SetNodeAttributeValue(Context ctx, NodeIndex node,
                               AttributeIndex attr,
                               const std::string& value) override;
  Status DeleteNodeAttribute(Context ctx, NodeIndex node,
                             AttributeIndex attr) override;
  Result<std::string> GetNodeAttributeValue(Context ctx, NodeIndex node,
                                            AttributeIndex attr,
                                            Time time) override;
  Result<std::vector<AttributeValueEntry>> GetNodeAttributes(
      Context ctx, NodeIndex node, Time time) override;

  Status SetLinkAttributeValue(Context ctx, LinkIndex link,
                               AttributeIndex attr,
                               const std::string& value) override;
  Status DeleteLinkAttribute(Context ctx, LinkIndex link,
                             AttributeIndex attr) override;
  Result<std::string> GetLinkAttributeValue(Context ctx, LinkIndex link,
                                            AttributeIndex attr,
                                            Time time) override;
  Result<std::vector<AttributeValueEntry>> GetLinkAttributes(
      Context ctx, LinkIndex link, Time time) override;

  Status SetGraphDemonValue(Context ctx, Event event,
                            const std::string& demon) override;
  Result<std::vector<DemonEntry>> GetGraphDemons(Context ctx,
                                                 Time time) override;
  Status SetNodeDemon(Context ctx, NodeIndex node, Event event,
                      const std::string& demon) override;
  Result<std::vector<DemonEntry>> GetNodeDemons(Context ctx, NodeIndex node,
                                                Time time) override;

  Result<ContextInfo> CreateContext(Context ctx,
                                    const std::string& name) override;
  Result<Context> OpenContext(Context ctx, ThreadId thread) override;
  Status MergeContext(Context ctx, ThreadId source, bool force) override;
  Result<std::vector<ContextInfo>> ListContexts(Context ctx) override;

  Status Checkpoint(Context ctx) override;
  Result<GraphStats> GetStats(Context ctx) override;
  Result<ThreadId> ContextThread(Context ctx) override;

 private:
  // One open graph database shared by all sessions on it.
  struct GraphHandle {
    std::string directory;
    ProjectId project = 0;
    uint32_t protections = 0;
    std::unique_ptr<DurableStore> store;
    GraphState state;
    // (event, scope) -> armed-demon map for the main thread; lets the
    // commit path skip the graph lock when no demon is armed. Built on
    // load, folded forward from committed ops (see demon_index.h).
    DemonIndex demon_index;

    // Guards state + store. Read-only operations take it shared and
    // run in parallel across server threads; anything that mutates
    // state, ticks the clock, or writes the store takes it exclusive.
    std::shared_mutex mu;
    // Writer-slot waiters (condition_variable_any: it must wait on the
    // shared_mutex).
    std::condition_variable_any writer_cv;
    uint64_t writer_session = 0;  // session holding the writer slot
    int open_sessions = 0;

    // Replication bookkeeping. repl_mu guards commit_seq and
    // followers; it nests strictly inside mu (taken after, released
    // before) and ReplFetch's long-poll waits on it *without* holding
    // mu, so a poller never blocks commits.
    std::mutex repl_mu;
    std::condition_variable repl_cv;
    uint64_t commit_seq = 0;  // bumped per durable commit/checkpoint
    struct FollowerAck {
      uint64_t epoch = 0;
      uint64_t offset = 0;
      uint64_t lag_bytes = 0;
      uint64_t last_fetch_us = 0;
    };
    std::map<std::string, FollowerAck> followers;  // by follower_id

    // Follower-side freshness, written by NoteReplProgress (the
    // replicator's thread) and read by ReplStatus (server threads).
    std::atomic<uint64_t> repl_lag_bytes{0};
    std::atomic<uint64_t> repl_caught_up_us{0};  // 0 = never yet
  };

  // A session created by OpenGraph/OpenContext. Transaction state
  // (in_txn/overlay/ops/lease_aborted) is guarded by op_mu: normally
  // only the session's connection thread touches it, but the lease
  // watchdog may abort an expired transaction from its own thread.
  // op_mu is recursive because a demon fired inside an operation may
  // call back into the engine on the same context (the CASE compile
  // demon does).
  struct Session {
    uint64_t id = 0;
    std::shared_ptr<GraphHandle> graph;
    ThreadId thread = kMainThread;

    std::recursive_mutex op_mu;
    std::atomic<bool> in_txn{false};
    GraphState::TxnOverlay overlay;
    std::vector<Op> ops;
    // Set by the watchdog when it aborts the session's transaction;
    // tells the session's next commit/abort/mutation what happened.
    bool lease_aborted = false;
    // Lease renewal stamp, updated on operation entry and exit so a
    // long-running op is not mistaken for a silent session. Read
    // against the owning Ham's time source, which `time` caches so
    // LockedSession can renew without a backpointer.
    TimeSource* time = nullptr;
    std::atomic<uint64_t> last_touch_us{0};
  };

  // FindSession's return value: the session plus its held op_mu. The
  // lock is taken *after* registry_mu_ is released (never the other
  // way around) and renews the lease on both acquisition and release.
  class LockedSession {
   public:
    explicit LockedSession(std::shared_ptr<Session> session);
    ~LockedSession();
    LockedSession(LockedSession&&) = default;
    LockedSession& operator=(LockedSession&&) = default;
    LockedSession(const LockedSession&) = delete;
    LockedSession& operator=(const LockedSession&) = delete;

    Session* operator->() const { return session_.get(); }
    Session* get() const { return session_.get(); }

   private:
    std::shared_ptr<Session> session_;
    std::unique_lock<std::recursive_mutex> lock_;
  };

  Result<LockedSession> FindSession(Context ctx);
  // Registers a new session on `graph` reading `thread`.
  Context AddSession(std::shared_ptr<GraphHandle> graph, ThreadId thread);

  // What every read op holds after FindSession: the graph lock, shared
  // (its wait traced as ham.lock.shared_wait), and the overlay of the
  // session's open transaction (null outside one), so a read sees the
  // session's own staged writes.
  struct ReadScope {
    explicit ReadScope(const LockedSession& session);

    ThreadId thread;
    GraphHandle* graph;
    std::shared_lock<std::shared_mutex> lock;
    const GraphState::TxnOverlay* overlay;

    const GraphState& state() const { return graph->state; }
    const NodeRecord* FindNode(NodeIndex node) const {
      return graph->state.FindNode(thread, overlay, node);
    }
    const LinkRecord* FindLink(LinkIndex link) const {
      return graph->state.FindLink(thread, overlay, link);
    }
    // FindNode or FindLink, for bodies shared by node/link twins.
    template <typename Record>
    const Record* Find(uint64_t index) const {
      if constexpr (std::is_same_v<Record, NodeRecord>) {
        return FindNode(index);
      } else {
        return FindLink(index);
      }
    }
  };

  // One body per node/link twin (Record is NodeRecord or LinkRecord);
  // the public ops add only their span.
  template <typename Record>
  Status SetEntityAttribute(Context ctx, uint64_t index, AttributeIndex attr,
                            const std::string& value);
  template <typename Record>
  Result<std::string> GetEntityAttribute(Context ctx, uint64_t index,
                                         AttributeIndex attr, Time time);
  template <typename Record>
  Result<std::vector<AttributeValueEntry>> GetEntityAttributes(
      Context ctx, uint64_t index, Time time);
  // getToNode and getFromNode.
  Result<LinkEndResult> GetLinkEnd(Context ctx, LinkIndex link, Time time,
                                   bool source_end);
  // addLink's body without its span, shared with copyLink so one
  // copyLink is one structure op.
  Result<AddLinkResult> InsertLink(Session* session, const LinkPt& from,
                                   const LinkPt& to);

  // Lease watchdog: periodically force-aborts transactions whose
  // session lease expired (see HamOptions::txn_lease_ms).
  void LeaseWatchdogLoop();
  void SweepExpiredLeases(uint64_t lease_us);

  // Loads or creates the shared handle for a directory.
  Result<std::shared_ptr<GraphHandle>> LoadGraph(const std::string& directory);

  // Acquires/releases the per-graph writer slot for a session.
  void AcquireWriter(GraphHandle* graph, uint64_t session);
  void ReleaseWriter(GraphHandle* graph, uint64_t session);

  // Stages `*op` in the session's transaction, opening an implicit
  // single-op transaction when none is active. On success the op is
  // recorded for the WAL (implicit transactions commit immediately)
  // and op->time carries the assigned timestamp.
  Status Execute(Session* session, Op* op);

  // Applies the commit protocol: WAL append, fold overlay, demons.
  Status CommitLocked(GraphHandle* graph, Session* session);

  // Wakes ReplFetch long-pollers after a durable commit or checkpoint.
  static void NotifyReplWaiters(GraphHandle* graph);

  // Pins a follower-side graph handle so it outlives its sessions
  // (replicated graphs stay open even with no clients) and Promote()
  // can reach every one of them.
  void PinReplicaGraph(const std::string& directory,
                       std::shared_ptr<GraphHandle> handle);

  // kReadOnly when this engine is a follower — the guard every client
  // mutation path runs first.
  Status RejectIfFollower() const;

  // Fires demons for a committed op list (outside the graph lock).
  void FireDemons(GraphHandle* graph, ThreadId thread,
                  const std::vector<Op>& ops);
  void FireEventDemons(GraphHandle* graph, ThreadId thread, Event event,
                       NodeIndex node, LinkIndex link, Time time);

  // Serializes a PROJECT metadata blob.
  static std::string EncodeMeta(ProjectId project, uint32_t protections);
  static Status DecodeMeta(std::string_view meta, ProjectId* project,
                           uint32_t* protections);

  Env* env_;
  HamOptions options_;
  // Injectable clock (HamOptions::time_source); never null.
  TimeSource* time_;
  // Project-id generator (HamOptions::project_id_seed); guarded by
  // registry_mu_.
  Random project_rng_;
  DemonRegistry demon_registry_;

  std::atomic<bool> follower_mode_{false};

  std::mutex registry_mu_;  // guards graphs_, sessions_ and repl_pins_
  std::map<std::string, std::weak_ptr<GraphHandle>> graphs_;
  // Strong references to replicated graphs on a follower (see
  // PinReplicaGraph).
  std::map<std::string, std::shared_ptr<GraphHandle>> repl_pins_;
  // shared_ptr so the watchdog can hold a candidate across the
  // registry lock's release without racing session destruction.
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_ = 1;

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread lease_watchdog_;
};

}  // namespace ham
}  // namespace neptune

#endif  // NEPTUNE_HAM_HAM_H_
