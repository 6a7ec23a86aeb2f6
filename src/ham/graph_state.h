// GraphState: the authoritative in-memory representation of one
// versioned hypergraph, plus the op-application logic that both the
// live commit path and WAL recovery share.
//
// Layering. Records live in three levels:
//
//   base            the main version thread's records
//   thread overlay  records copied-on-write (or created) inside a
//                   non-main version thread (paper §5 "contexts" /
//                   private worlds)
//   txn overlay     records staged by an open transaction, discarded
//                   on abort and folded into the level below on commit
//
// Reads resolve txn -> thread -> base; a record found at a higher
// level shadows the lower ones. This gives transactions
// read-your-own-writes and makes abort O(1) ("complete recovery from
// any aborted transaction").
//
// Determinism. Apply(op) is the single mutation entry point. Live
// execution builds an Op (with engine-assigned ids and timestamps),
// applies it, and logs it; recovery decodes logged ops and applies
// them identically — no separate replay logic to drift.

#ifndef NEPTUNE_HAM_GRAPH_STATE_H_
#define NEPTUNE_HAM_GRAPH_STATE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "ham/attribute_index.h"
#include "ham/attribute_table.h"
#include "ham/ops.h"
#include "ham/records.h"
#include "ham/types.h"
#include "query/predicate.h"

namespace neptune {
namespace ham {

// Attributes requested by queries: resolved indices, values returned
// per object in request order.
using AttributeRequest = std::vector<AttributeIndex>;

class GraphState {
 public:
  struct RecordSet {
    std::unordered_map<NodeIndex, NodeRecord> nodes;
    std::unordered_map<LinkIndex, LinkRecord> links;
    bool empty() const { return nodes.empty() && links.empty(); }
  };

  // A version thread (paper §5 context). branched_at is the main-
  // thread time the thread was created; conflict detection on merge
  // compares against it.
  struct ThreadState {
    ThreadId id = 0;
    std::string name;
    Time branched_at = 0;
    RecordSet records;
  };

  // An open transaction's staged changes.
  struct TxnOverlay {
    RecordSet records;
    std::optional<DemonHistory> graph_demons;  // copy-on-write
    // Attribute-index deltas for the staged changes, transferred to
    // the graph's pending queue on commit (discarded on abort). When a
    // pathological transaction stages more than the cap, the overlay
    // stops tracking and the commit schedules a full rebuild instead.
    std::vector<AttributeIndexDelta> index_deltas;
    bool index_overflow = false;
    bool empty() const {
      return records.empty() && !graph_demons.has_value();
    }
  };

  GraphState() = default;
  GraphState(GraphState&&) = default;
  GraphState& operator=(GraphState&&) = default;

  // ------------------------------------------------------------ reads

  // Record lookup through txn -> thread -> base (txn may be null).
  const NodeRecord* FindNode(ThreadId thread, const TxnOverlay* txn,
                             NodeIndex index) const;
  const LinkRecord* FindLink(ThreadId thread, const TxnOverlay* txn,
                             LinkIndex index) const;

  // Graph demons visible through an optional txn overlay.
  const DemonHistory& GraphDemons(const TxnOverlay* txn) const;

  // Invokes `fn` for every node/link visible in `thread` (+txn),
  // including tombstoned records; ascending by index.
  void ForEachNode(ThreadId thread, const TxnOverlay* txn,
                   const std::function<void(const NodeRecord&)>& fn) const;
  void ForEachLink(ThreadId thread, const TxnOverlay* txn,
                   const std::function<void(const LinkRecord&)>& fn) const;

  // --------------------------------------------------------- mutation

  // Applies one op. When `txn` is non-null the changes are staged
  // there; otherwise they hit the thread/base level directly (the
  // recovery path). Ops must carry their assigned ids and time.
  Status Apply(const Op& op, TxnOverlay* txn);

  // Folds a transaction overlay into its thread (or base for the main
  // thread).
  void CommitOverlay(ThreadId thread, TxnOverlay&& txn);

  // ------------------------------------------------------ assignment

  NodeIndex AllocateNodeIndex() { return next_node_++; }
  LinkIndex AllocateLinkIndex() { return next_link_++; }
  ThreadId AllocateThreadId() { return next_thread_++; }
  LogicalClock& clock() { return clock_; }
  const LogicalClock& clock() const { return clock_; }

  AttributeTable& attributes() { return attributes_; }
  const AttributeTable& attributes() const { return attributes_; }

  // ---------------------------------------------------------- queries

  // linearizeGraph: depth-first traversal from `start` at `time`,
  // following out-links ordered by their offsets within the node.
  // Nodes failing `node_pred` (and everything reachable only through
  // them) are pruned; traversed links must satisfy `link_pred`.
  Result<SubGraph> Linearize(ThreadId thread, const TxnOverlay* txn,
                             NodeIndex start, Time time,
                             const query::Predicate& node_pred,
                             const query::Predicate& link_pred,
                             const AttributeRequest& node_attrs,
                             const AttributeRequest& link_attrs) const;

  // getGraphQuery: all nodes at `time` satisfying `node_pred`, and all
  // links satisfying `link_pred` that connect two returned nodes.
  //
  // Planning: when IndexEligible holds and the node predicate carries
  // equality conjuncts, candidates come from the attribute index —
  // one probe (plan kind `index`) or a sorted intersection of several
  // probes ordered by cardinality (`intersect`) — and the residual
  // predicate runs only on those survivors; everything else scans.
  // `plan` (optional) receives the execution report; `force_scan`
  // bypasses the planner (explain --verify and the B3 ablation).
  Result<SubGraph> Query(ThreadId thread, const TxnOverlay* txn, Time time,
                         const query::Predicate& node_pred,
                         const query::Predicate& link_pred,
                         const AttributeRequest& node_attrs,
                         const AttributeRequest& link_attrs,
                         QueryPlan* plan = nullptr,
                         bool force_scan = false) const;

  // The one eligibility rule for serving a query from the attribute
  // index. The index models exactly the committed, current-time
  // (time == 0) state of the main version thread:
  //   - a historical time sees values the index no longer holds,
  //   - a non-main thread sees its private overlay records,
  //   - an open transaction must read its own staged writes.
  // Any of those views must take the scan path; enablement
  // (HamOptions::use_attribute_index) is checked separately.
  static bool IndexEligible(ThreadId thread, const TxnOverlay* txn,
                            Time time) {
    return thread == kMainThread && txn == nullptr && time == 0;
  }

  // Toggles the getGraphQuery attribute index (B3 ablation).
  void set_attribute_index_enabled(bool enabled) {
    attribute_index_enabled_ = enabled;
  }
  uint64_t attribute_index_rebuilds() const {
    return node_index_.rebuild_count();
  }
  uint64_t attribute_index_applied_deltas() const {
    return node_index_.applied_delta_count();
  }

  // Keyframe interval stamped onto node version chains as ops touch
  // them (HamOptions::keyframe_interval; see delta/version_chain.h).
  void set_keyframe_interval(uint32_t k) { keyframe_interval_ = k; }
  uint32_t keyframe_interval() const { return keyframe_interval_; }

  // getAttributeValues: every distinct value of `attr` attached to any
  // node or link at `time`, sorted.
  std::vector<std::string> AttributeValuesAt(ThreadId thread,
                                             const TxnOverlay* txn,
                                             AttributeIndex attr,
                                             Time time) const;

  // -------------------------------------------------------- threads

  const ThreadState* FindThread(ThreadId thread) const;
  std::vector<ContextInfo> ListThreads() const;

  // --------------------------------------------------------- helpers

  // Time of the last change of any kind to `node`.
  static Time NodeLastModified(const NodeRecord& node);
  static Time LinkLastModified(const LinkRecord& link);

  // Values of the requested attributes on a record at `time`.
  std::vector<std::optional<std::string>> AttributeValuesFor(
      const AttributeHistory& attrs, const AttributeRequest& request,
      Time time) const;

  struct Stats {
    size_t node_count = 0;        // live nodes, main thread, now
    size_t link_count = 0;
    size_t total_node_records = 0;
    size_t total_link_records = 0;
    size_t thread_count = 0;
    size_t attribute_count = 0;
  };
  Stats ComputeStats() const;

  // Structural integrity check ("fsck"): referential consistency of
  // links vs node link-lists, index-counter sanity, version-time
  // monotonicity, and attribute-index validity. Returns one message
  // per problem found (empty = clean).
  std::vector<std::string> CheckIntegrity() const;

  // Drops history strictly older than the version in effect at
  // `before` from every main-thread record: node contents versions,
  // attribute histories, attachment-offset histories and minor
  // versions. Reads at or after `before` are unaffected; earlier
  // times become unavailable. Returns the number of records touched.
  size_t PruneHistoryBefore(Time before);

  // ------------------------------------------------------------ codec

  void EncodeTo(std::string* out) const;
  static Result<GraphState> DecodeFrom(std::string_view in);

 private:
  // Returns a mutable record at the right level, copying on write into
  // `txn` when staging, or into the thread overlay when txn == null
  // and thread != main. The copy shares the record's full history
  // chunks (records.h), so it costs the same at any history depth.
  Result<NodeRecord*> MutableNode(ThreadId thread, TxnOverlay* txn,
                                  NodeIndex index);
  Result<LinkRecord*> MutableLink(ThreadId thread, TxnOverlay* txn,
                                  LinkIndex index);
  RecordSet& LevelFor(ThreadId thread, TxnOverlay* txn);

  // Stages an attribute-index delta for a committed-or-staging change
  // of `attr` on `node` (main-thread changes only; no-op otherwise).
  void StageIndexDelta(ThreadId thread, TxnOverlay* txn, NodeIndex node,
                       AttributeIndex attr, std::optional<std::string> old_value,
                       std::optional<std::string> new_value);

  // Brings the index up to date under node_index_mu_: applies pending
  // deltas, or rebuilds when the index is unbuilt/invalidated. Fills
  // the maintenance fields of `plan`.
  void MaintainIndexLocked(QueryPlan* plan) const;

  Status ApplyAddNode(const Op& op, TxnOverlay* txn);
  Status ApplyDeleteNode(const Op& op, TxnOverlay* txn);
  Status ApplyAddLink(const Op& op, TxnOverlay* txn);
  Status ApplyDeleteLink(const Op& op, TxnOverlay* txn);
  Status ApplyModifyNode(const Op& op, TxnOverlay* txn);
  Status ApplyMergeContext(const Op& op);

  void AddMinorVersion(NodeRecord* node, Time t, std::string explanation);

  AttributeTable attributes_;
  DemonHistory graph_demons_;
  LogicalClock clock_;
  NodeIndex next_node_ = 1;
  LinkIndex next_link_ = 1;
  ThreadId next_thread_ = 1;

  RecordSet base_;
  std::map<ThreadId, ThreadState> threads_;  // non-main threads only

  uint32_t keyframe_interval_ = 0;

  // getGraphQuery fast path. Mutations are serialized under the
  // exclusive graph lock, but queries run concurrently under shared
  // locks, so index maintenance is serialized by its own mutex (behind
  // a unique_ptr because GraphState is movable and std::mutex is not).
  // Candidate references handed out by the index stay valid for the
  // duration of a shared graph lock: pending deltas are only enqueued
  // under the exclusive lock, so within one writer-free window the
  // posting lists mutate at most once — when the first reader drains
  // the queue — and every reader synchronizes through node_index_mu_
  // before taking references.
  bool attribute_index_enabled_ = true;
  uint64_t mutation_epoch_ = 0;  // bumped by every Apply/CommitOverlay
  std::unique_ptr<std::mutex> node_index_mu_ = std::make_unique<std::mutex>();
  mutable AttributeValueIndex node_index_;
  // Committed changes the index has not absorbed yet (drained by the
  // next query), and the invalidation flag set by merge/prune/recovery
  // or queue overflow — the cases where deltas are not tracked.
  mutable std::vector<AttributeIndexDelta> index_deltas_;
  mutable bool index_needs_rebuild_ = false;
};

}  // namespace ham
}  // namespace neptune

#endif  // NEPTUNE_HAM_GRAPH_STATE_H_
