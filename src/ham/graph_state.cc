#include "ham/graph_state.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/coding.h"
#include "common/metrics.h"

namespace neptune {
namespace ham {

namespace {

// Pending attribute-index deltas beyond this force a rebuild instead:
// past a few thousand changes, replaying them one by one stops being
// cheaper than rebuilding, and the queue must not grow without bound
// on a graph that is written but never queried.
constexpr size_t kMaxPendingIndexDeltas = 4096;

// Binds a predicate's slots to one record at a time. Names are
// resolved to table indices once per query, so per-record evaluation
// is a direct attribute-history probe per referenced slot.
class RecordMatcher : public query::Predicate::SlotSource {
 public:
  RecordMatcher(const AttributeTable& table, const query::Predicate& pred,
                Time time)
      : pred_(pred), time_(time) {
    ids_.reserve(pred.slot_names().size());
    for (const std::string& name : pred.slot_names()) {
      Result<AttributeIndex> index = table.Lookup(name);
      // A name no object ever carried can never yield a value.
      ids_.push_back(index.ok() ? *index : kUnknownAttribute);
    }
  }

  bool trivial() const { return pred_.IsTriviallyTrue(); }

  // A trivially true predicate matches every record; checking here
  // saves an out-of-line call per record on a full scan.
  bool Matches(const AttributeHistory& attrs) {
    if (trivial()) return true;
    attrs_ = &attrs;
    return pred_.Matches(*this);
  }

  std::optional<std::string_view> GetSlot(size_t slot) const override {
    const AttributeIndex id = ids_[slot];
    if (id == kUnknownAttribute) return std::nullopt;
    return attrs_->Get(id, time_);
  }

 private:
  static constexpr AttributeIndex kUnknownAttribute = ~0ull;
  const query::Predicate& pred_;
  std::vector<AttributeIndex> ids_;
  const AttributeHistory* attrs_ = nullptr;
  Time time_;
};

// Intersects two sorted posting lists; `a` is the smaller. When the
// sizes are heavily skewed, gallop (exponential search) through `b`
// instead of merging, so the cost tracks |a| log |b|, not |a| + |b|.
std::vector<NodeIndex> IntersectPair(const std::vector<NodeIndex>& a,
                                     const std::vector<NodeIndex>& b) {
  std::vector<NodeIndex> out;
  if (a.empty() || b.empty()) return out;
  out.reserve(a.size());
  if (b.size() / a.size() >= 8) {
    auto from = b.begin();
    for (NodeIndex want : a) {
      size_t step = 1;
      auto bound = from;
      while (bound != b.end() && *bound < want) {
        from = bound;
        bound = static_cast<size_t>(b.end() - bound) > step ? bound + step
                                                            : b.end();
        step <<= 1;
      }
      from = std::lower_bound(from, bound, want);
      if (from == b.end()) break;
      if (*from == want) out.push_back(want);
    }
    return out;
  }
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Intersects posting lists in ascending size order, so the working set
// only shrinks.
std::vector<NodeIndex> IntersectPostings(
    std::vector<const std::vector<NodeIndex>*> postings) {
  std::sort(postings.begin(), postings.end(),
            [](const std::vector<NodeIndex>* a,
               const std::vector<NodeIndex>* b) {
              return a->size() < b->size();
            });
  std::vector<NodeIndex> out = *postings[0];
  for (size_t i = 1; i < postings.size() && !out.empty(); ++i) {
    out = IntersectPair(out, *postings[i]);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- lookup

const NodeRecord* GraphState::FindNode(ThreadId thread, const TxnOverlay* txn,
                                       NodeIndex index) const {
  if (txn != nullptr) {
    auto it = txn->records.nodes.find(index);
    if (it != txn->records.nodes.end()) return &it->second;
  }
  if (thread != kMainThread) {
    auto tit = threads_.find(thread);
    if (tit != threads_.end()) {
      auto it = tit->second.records.nodes.find(index);
      if (it != tit->second.records.nodes.end()) return &it->second;
    }
  }
  auto it = base_.nodes.find(index);
  return it == base_.nodes.end() ? nullptr : &it->second;
}

const LinkRecord* GraphState::FindLink(ThreadId thread, const TxnOverlay* txn,
                                       LinkIndex index) const {
  if (txn != nullptr) {
    auto it = txn->records.links.find(index);
    if (it != txn->records.links.end()) return &it->second;
  }
  if (thread != kMainThread) {
    auto tit = threads_.find(thread);
    if (tit != threads_.end()) {
      auto it = tit->second.records.links.find(index);
      if (it != tit->second.records.links.end()) return &it->second;
    }
  }
  auto it = base_.links.find(index);
  return it == base_.links.end() ? nullptr : &it->second;
}

const DemonHistory& GraphState::GraphDemons(const TxnOverlay* txn) const {
  if (txn != nullptr && txn->graph_demons.has_value()) {
    return *txn->graph_demons;
  }
  return graph_demons_;
}

void GraphState::ForEachNode(
    ThreadId thread, const TxnOverlay* txn,
    const std::function<void(const NodeRecord&)>& fn) const {
  std::map<NodeIndex, const NodeRecord*> merged;
  for (const auto& [index, record] : base_.nodes) merged[index] = &record;
  if (thread != kMainThread) {
    auto tit = threads_.find(thread);
    if (tit != threads_.end()) {
      for (const auto& [index, record] : tit->second.records.nodes) {
        merged[index] = &record;
      }
    }
  }
  if (txn != nullptr) {
    for (const auto& [index, record] : txn->records.nodes) {
      merged[index] = &record;
    }
  }
  for (const auto& [index, record] : merged) {
    (void)index;
    fn(*record);
  }
}

void GraphState::ForEachLink(
    ThreadId thread, const TxnOverlay* txn,
    const std::function<void(const LinkRecord&)>& fn) const {
  std::map<LinkIndex, const LinkRecord*> merged;
  for (const auto& [index, record] : base_.links) merged[index] = &record;
  if (thread != kMainThread) {
    auto tit = threads_.find(thread);
    if (tit != threads_.end()) {
      for (const auto& [index, record] : tit->second.records.links) {
        merged[index] = &record;
      }
    }
  }
  if (txn != nullptr) {
    for (const auto& [index, record] : txn->records.links) {
      merged[index] = &record;
    }
  }
  for (const auto& [index, record] : merged) {
    (void)index;
    fn(*record);
  }
}

// ----------------------------------------------------------- mutation

GraphState::RecordSet& GraphState::LevelFor(ThreadId thread, TxnOverlay* txn) {
  if (txn != nullptr) return txn->records;
  if (thread != kMainThread) return threads_[thread].records;
  return base_;
}

Result<NodeRecord*> GraphState::MutableNode(ThreadId thread, TxnOverlay* txn,
                                            NodeIndex index) {
  RecordSet& level = LevelFor(thread, txn);
  auto it = level.nodes.find(index);
  if (it != level.nodes.end()) return &it->second;
  // Copy-on-write from the level below.
  const NodeRecord* below = nullptr;
  if (txn != nullptr) {
    below = FindNode(thread, nullptr, index);
  } else if (thread != kMainThread) {
    auto bit = base_.nodes.find(index);
    below = bit == base_.nodes.end() ? nullptr : &bit->second;
  }
  if (below == nullptr) {
    return Status::NotFound("node " + std::to_string(index) +
                            " does not exist");
  }
  // Shares the record's history chunks; copies the rest.
  NEPTUNE_METRIC_COUNT("ham.overlay.copy_bytes", below->CopyBytes());
  auto [pos, inserted] = level.nodes.emplace(index, *below);
  (void)inserted;
  return &pos->second;
}

Result<LinkRecord*> GraphState::MutableLink(ThreadId thread, TxnOverlay* txn,
                                            LinkIndex index) {
  RecordSet& level = LevelFor(thread, txn);
  auto it = level.links.find(index);
  if (it != level.links.end()) return &it->second;
  const LinkRecord* below = nullptr;
  if (txn != nullptr) {
    below = FindLink(thread, nullptr, index);
  } else if (thread != kMainThread) {
    auto bit = base_.links.find(index);
    below = bit == base_.links.end() ? nullptr : &bit->second;
  }
  if (below == nullptr) {
    return Status::NotFound("link " + std::to_string(index) +
                            " does not exist");
  }
  NEPTUNE_METRIC_COUNT("ham.overlay.copy_bytes", below->CopyBytes());
  auto [pos, inserted] = level.links.emplace(index, *below);
  (void)inserted;
  return &pos->second;
}

void GraphState::AddMinorVersion(NodeRecord* node, Time t,
                                 std::string explanation) {
  if (!node->minor_versions.empty() &&
      node->minor_versions.back().time == t) {
    return;  // one minor version per timestamp is enough
  }
  node->minor_versions.push_back(VersionEntry{t, std::move(explanation)});
}

Status GraphState::Apply(const Op& op, TxnOverlay* txn) {
  Status status;
  switch (op.kind) {
    case OpKind::kAddNode:
      status = ApplyAddNode(op, txn);
      break;
    case OpKind::kDeleteNode:
      status = ApplyDeleteNode(op, txn);
      break;
    case OpKind::kAddLink:
      status = ApplyAddLink(op, txn);
      break;
    case OpKind::kDeleteLink:
      status = ApplyDeleteLink(op, txn);
      break;
    case OpKind::kModifyNode:
      status = ApplyModifyNode(op, txn);
      break;
    case OpKind::kSetNodeAttribute: {
      NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * node,
                               MutableNode(op.thread, txn, op.node));
      if (!node->ExistsAt(0)) {
        return Status::NotFound("node " + std::to_string(op.node) +
                                " is deleted");
      }
      if (!attributes_.ExistedAt(op.attr, 0)) {
        return Status::NotFound("attribute index " + std::to_string(op.attr) +
                                " is not defined");
      }
      std::optional<std::string> previous;
      if (std::optional<std::string_view> current =
              node->attributes.Get(op.attr, 0)) {
        previous = std::string(*current);
      }
      node->attributes.Set(op.attr, op.time, op.value, node->is_archive);
      AddMinorVersion(node, op.time, "setAttribute");
      StageIndexDelta(op.thread, txn, op.node, op.attr, std::move(previous),
                      op.value);
      break;
    }
    case OpKind::kDeleteNodeAttribute: {
      NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * node,
                               MutableNode(op.thread, txn, op.node));
      if (!node->ExistsAt(0)) {
        return Status::NotFound("node " + std::to_string(op.node) +
                                " is deleted");
      }
      std::optional<std::string> previous;
      if (std::optional<std::string_view> current =
              node->attributes.Get(op.attr, 0)) {
        previous = std::string(*current);
      }
      node->attributes.Delete(op.attr, op.time, node->is_archive);
      AddMinorVersion(node, op.time, "deleteAttribute");
      StageIndexDelta(op.thread, txn, op.node, op.attr, std::move(previous),
                      std::nullopt);
      break;
    }
    case OpKind::kSetLinkAttribute:
    case OpKind::kDeleteLinkAttribute: {
      NEPTUNE_ASSIGN_OR_RETURN(LinkRecord * link,
                               MutableLink(op.thread, txn, op.link));
      if (!link->ExistsAt(0)) {
        return Status::NotFound("link " + std::to_string(op.link) +
                                " is deleted");
      }
      // "If the link LinkIndex is attached to an archive then creates
      // a new version of the attribute value."
      bool versioned = false;
      for (NodeIndex end : {link->from.node, link->to.node}) {
        const NodeRecord* node = FindNode(op.thread, txn, end);
        if (node != nullptr && node->is_archive) versioned = true;
      }
      if (op.kind == OpKind::kSetLinkAttribute) {
        if (!attributes_.ExistedAt(op.attr, 0)) {
          return Status::NotFound("attribute index " +
                                  std::to_string(op.attr) +
                                  " is not defined");
        }
        link->attributes.Set(op.attr, op.time, op.value, versioned);
      } else {
        link->attributes.Delete(op.attr, op.time, versioned);
      }
      break;
    }
    case OpKind::kInternAttribute: {
      // Interning is append-only and logged as its own transaction, so
      // it bypasses the txn overlay by design.
      NEPTUNE_ASSIGN_OR_RETURN(AttributeIndex assigned,
                               attributes_.Intern(op.extra, op.time, op.attr));
      (void)assigned;
      break;
    }
    case OpKind::kChangeNodeProtection: {
      NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * node,
                               MutableNode(op.thread, txn, op.node));
      node->protections = static_cast<uint32_t>(op.arg);
      AddMinorVersion(node, op.time, "changeProtection");
      break;
    }
    case OpKind::kSetGraphDemon: {
      if (txn != nullptr) {
        if (!txn->graph_demons.has_value()) {
          txn->graph_demons = graph_demons_;
        }
        txn->graph_demons->Set(op.event, op.time, op.value);
      } else {
        graph_demons_.Set(op.event, op.time, op.value);
      }
      break;
    }
    case OpKind::kSetNodeDemon: {
      NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * node,
                               MutableNode(op.thread, txn, op.node));
      if (!node->ExistsAt(0)) {
        return Status::NotFound("node " + std::to_string(op.node) +
                                " is deleted");
      }
      node->demons.Set(op.event, op.time, op.value);
      AddMinorVersion(node, op.time, "setDemon");
      break;
    }
    case OpKind::kCreateContext: {
      const ThreadId id = op.arg;
      if (id == kMainThread || threads_.count(id) != 0) {
        return Status::AlreadyExists("version thread " + std::to_string(id) +
                                     " already exists");
      }
      ThreadState thread;
      thread.id = id;
      thread.name = op.extra;
      thread.branched_at = op.time;
      threads_.emplace(id, std::move(thread));
      if (id >= next_thread_) next_thread_ = id + 1;
      break;
    }
    case OpKind::kMergeContext:
      status = ApplyMergeContext(op);
      break;
    case OpKind::kPruneHistory:
      // Direct-to-base maintenance op (like merge); op.arg carries the
      // prune horizon.
      PruneHistoryBefore(op.arg);
      break;
  }
  if (status.ok()) {
    clock_.AdvanceTo(op.time);
    ++mutation_epoch_;  // invalidates the lazy attribute index
  }
  return status;
}

Status GraphState::ApplyAddNode(const Op& op, TxnOverlay* txn) {
  if (FindNode(op.thread, txn, op.node) != nullptr) {
    return Status::AlreadyExists("node " + std::to_string(op.node) +
                                 " already exists");
  }
  NodeRecord node;
  node.index = op.node;
  node.is_archive = op.flag;
  node.protections = op.arg != 0 ? static_cast<uint32_t>(op.arg) : 0644;
  node.created = op.time;
  node.contents = delta::VersionChain(op.flag
                                          ? delta::ChainMode::kBackwardDelta
                                          : delta::ChainMode::kCurrentOnly);
  node.contents.set_keyframe_interval(keyframe_interval_);
  // Seed the initial (empty) version so getNodeTimeStamp and the
  // modifyNode optimistic check are uniform from birth.
  NEPTUNE_RETURN_IF_ERROR(node.contents.Append(op.time, "", "created"));
  LevelFor(op.thread, txn).nodes.emplace(op.node, std::move(node));
  if (op.node >= next_node_) next_node_ = op.node + 1;
  return Status::OK();
}

Status GraphState::ApplyDeleteNode(const Op& op, TxnOverlay* txn) {
  NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * node,
                           MutableNode(op.thread, txn, op.node));
  if (!node->ExistsAt(0)) {
    return Status::NotFound("node " + std::to_string(op.node) +
                            " is already deleted");
  }
  node->deleted = op.time;
  // The node leaves every posting list it was on.
  for (const auto& [attr, value] : node->attributes.GetAll(0)) {
    StageIndexDelta(op.thread, txn, op.node, attr, std::string(value),
                    std::nullopt);
  }
  // "All links into or out of the node are deleted."
  std::vector<LinkIndex> attached(node->out_links.begin(),
                                  node->out_links.end());
  attached.insert(attached.end(), node->in_links.begin(),
                  node->in_links.end());
  for (LinkIndex index : attached) {
    Result<LinkRecord*> link = MutableLink(op.thread, txn, index);
    if (!link.ok()) continue;  // never materialized in this thread
    if (!(*link)->ExistsAt(0)) continue;
    (*link)->deleted = op.time;
    // The surviving endpoint gets a minor version for the lost link.
    const NodeIndex other = (*link)->from.node == op.node
                                ? (*link)->to.node
                                : (*link)->from.node;
    if (other != op.node) {
      Result<NodeRecord*> other_node = MutableNode(op.thread, txn, other);
      if (other_node.ok() && (*other_node)->ExistsAt(0)) {
        AddMinorVersion(*other_node, op.time, "deleteLink");
      }
    }
  }
  return Status::OK();
}

Status GraphState::ApplyAddLink(const Op& op, TxnOverlay* txn) {
  if (FindLink(op.thread, txn, op.link) != nullptr) {
    return Status::AlreadyExists("link " + std::to_string(op.link) +
                                 " already exists");
  }
  // "The from and to nodes must exist at their respective times."
  for (const LinkPt* pt : {&op.from, &op.to}) {
    const NodeRecord* node = FindNode(op.thread, txn, pt->node);
    if (node == nullptr || !node->ExistsAt(pt->time)) {
      return Status::NotFound("link endpoint node " +
                              std::to_string(pt->node) +
                              " does not exist at time " +
                              std::to_string(pt->time));
    }
  }
  LinkRecord link;
  link.index = op.link;
  link.created = op.time;
  auto make_end = [&op](const LinkPt& pt) {
    LinkEnd end;
    end.node = pt.node;
    end.track_current = pt.track_current;
    end.pinned_time = pt.track_current ? 0 : pt.time;
    end.positions.push_back({op.time, pt.position});
    return end;
  };
  link.from = make_end(op.from);
  link.to = make_end(op.to);
  LevelFor(op.thread, txn).links.emplace(op.link, std::move(link));
  if (op.link >= next_link_) next_link_ = op.link + 1;

  NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * from_node,
                           MutableNode(op.thread, txn, op.from.node));
  from_node->out_links.push_back(op.link);
  AddMinorVersion(from_node, op.time, "addLink");
  NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * to_node,
                           MutableNode(op.thread, txn, op.to.node));
  to_node->in_links.push_back(op.link);
  AddMinorVersion(to_node, op.time, "addLink");
  return Status::OK();
}

Status GraphState::ApplyDeleteLink(const Op& op, TxnOverlay* txn) {
  NEPTUNE_ASSIGN_OR_RETURN(LinkRecord * link,
                           MutableLink(op.thread, txn, op.link));
  if (!link->ExistsAt(0)) {
    return Status::NotFound("link " + std::to_string(op.link) +
                            " is already deleted");
  }
  link->deleted = op.time;
  for (NodeIndex end : {link->from.node, link->to.node}) {
    Result<NodeRecord*> node = MutableNode(op.thread, txn, end);
    if (node.ok() && (*node)->ExistsAt(0)) {
      AddMinorVersion(*node, op.time, "deleteLink");
    }
  }
  return Status::OK();
}

Status GraphState::ApplyModifyNode(const Op& op, TxnOverlay* txn) {
  NEPTUNE_ASSIGN_OR_RETURN(NodeRecord * node,
                           MutableNode(op.thread, txn, op.node));
  if (!node->ExistsAt(0)) {
    return Status::NotFound("node " + std::to_string(op.node) +
                            " is deleted");
  }
  if ((node->protections & 0222) == 0) {
    return Status::PermissionDenied("node " + std::to_string(op.node) +
                                    " is write-protected");
  }
  // Optimistic check-in: "Time must be equal to the version time of
  // the current version of the node." op.arg carries the caller's
  // expected time.
  if (op.arg != node->contents.CurrentTime()) {
    return Status::Conflict(
        "node " + std::to_string(op.node) + " was modified: expected time " +
        std::to_string(op.arg) + ", current is " +
        std::to_string(node->contents.CurrentTime()));
  }
  // "There must be a LinkPt for each link associated with the current
  // version of the node": every live automatic-update attachment needs
  // an entry. Pinned ends are frozen at their version and need none.
  size_t live_attachments = 0;
  for (bool source_end : {true, false}) {
    const ChunkedLog<LinkIndex>& list =
        source_end ? node->out_links : node->in_links;
    for (LinkIndex index : list) {
      const LinkRecord* link = FindLink(op.thread, txn, index);
      if (link == nullptr || !link->ExistsAt(0)) continue;
      const LinkEnd& end = source_end ? link->from : link->to;
      if (end.track_current) ++live_attachments;
    }
  }
  if (op.attachments.size() < live_attachments) {
    return Status::InvalidArgument(
        "modifyNode needs a LinkPt for each of the " +
        std::to_string(live_attachments) + " attached links; got " +
        std::to_string(op.attachments.size()));
  }
  // Attachment updates. In a kModifyNode op each `attachments` entry
  // reuses LinkPt fields as: node = LinkIndex, track_current =
  // is_source_end, position = new offset (see ops.h). Validate all of
  // them before mutating anything so a failed op leaves the overlay
  // untouched.
  for (const LinkPt& att : op.attachments) {
    const LinkRecord* link = FindLink(op.thread, txn, att.node);
    if (link == nullptr) {
      return Status::NotFound("attachment link " + std::to_string(att.node) +
                              " does not exist");
    }
    const LinkEnd& end = att.track_current ? link->from : link->to;
    if (link->ExistsAt(0) && end.node != op.node) {
      return Status::InvalidArgument(
          "attachment for link " + std::to_string(att.node) +
          " does not reference node " + std::to_string(op.node));
    }
  }
  // Stamp the engine's interval every modify so chains from snapshots
  // that predate the keyframe option pick it up too.
  node->contents.set_keyframe_interval(keyframe_interval_);
  NEPTUNE_RETURN_IF_ERROR(node->contents.Append(op.time, op.value, op.extra));
  for (const LinkPt& att : op.attachments) {
    NEPTUNE_ASSIGN_OR_RETURN(LinkRecord * link,
                             MutableLink(op.thread, txn, att.node));
    if (!link->ExistsAt(0)) continue;
    LinkEnd& end = att.track_current ? link->from : link->to;
    // "creates a new version of each of its link attachments whose
    // Position has changed."
    if (end.PositionAt(0) != att.position) {
      end.SetPosition(op.time, att.position, node->is_archive);
    }
  }
  return Status::OK();
}

Status GraphState::ApplyMergeContext(const Op& op) {
  const ThreadId source = op.arg;
  const bool force = op.flag;
  auto tit = threads_.find(source);
  if (tit == threads_.end()) {
    return Status::NotFound("version thread " + std::to_string(source) +
                            " does not exist");
  }
  ThreadState& thread = tit->second;
  if (!force) {
    // Validate everything before mutating anything: merge is atomic.
    for (const auto& [index, record] : thread.records.nodes) {
      auto bit = base_.nodes.find(index);
      if (bit != base_.nodes.end() &&
          NodeLastModified(bit->second) > thread.branched_at) {
        return Status::Conflict("node " + std::to_string(index) +
                                " changed in the main thread since this "
                                "context branched");
      }
      (void)record;
    }
    for (const auto& [index, record] : thread.records.links) {
      auto bit = base_.links.find(index);
      if (bit != base_.links.end() &&
          LinkLastModified(bit->second) > thread.branched_at) {
        return Status::Conflict("link " + std::to_string(index) +
                                " changed in the main thread since this "
                                "context branched");
      }
      (void)record;
    }
  }
  for (auto& [index, record] : thread.records.nodes) {
    base_.nodes.insert_or_assign(index, std::move(record));
  }
  for (auto& [index, record] : thread.records.links) {
    base_.links.insert_or_assign(index, std::move(record));
  }
  thread.records.nodes.clear();
  thread.records.links.clear();
  thread.branched_at = op.time;  // context continues from the merge point
  // The merge folded whole records into the base without per-attribute
  // deltas; the index can only recover by rebuilding.
  index_needs_rebuild_ = true;
  index_deltas_.clear();
  return Status::OK();
}

void GraphState::StageIndexDelta(ThreadId thread, TxnOverlay* txn,
                                 NodeIndex node, AttributeIndex attr,
                                 std::optional<std::string> old_value,
                                 std::optional<std::string> new_value) {
  // Only committed main-thread state is indexed (see IndexEligible).
  if (!attribute_index_enabled_ || thread != kMainThread) return;
  if (old_value == new_value) return;
  if (txn != nullptr) {
    if (txn->index_overflow) return;
    if (txn->index_deltas.size() >= kMaxPendingIndexDeltas) {
      txn->index_deltas.clear();
      txn->index_overflow = true;
      return;
    }
    txn->index_deltas.push_back(AttributeIndexDelta{
        node, attr, std::move(old_value), std::move(new_value)});
    return;
  }
  // Direct apply (WAL replay and maintenance ops): worth tracking only
  // when a built index would otherwise go stale — an unbuilt or
  // already-invalidated index rebuilds on the next query regardless.
  if (!node_index_.built() || index_needs_rebuild_) return;
  if (index_deltas_.size() >= kMaxPendingIndexDeltas) {
    index_deltas_.clear();
    index_needs_rebuild_ = true;
    return;
  }
  index_deltas_.push_back(AttributeIndexDelta{
      node, attr, std::move(old_value), std::move(new_value)});
}

void GraphState::CommitOverlay(ThreadId thread, TxnOverlay&& txn) {
  if (txn.graph_demons.has_value()) {
    graph_demons_ = std::move(*txn.graph_demons);
  }
  RecordSet& target =
      thread == kMainThread ? base_ : threads_[thread].records;
  for (auto& [index, record] : txn.records.nodes) {
    target.nodes.insert_or_assign(index, std::move(record));
  }
  for (auto& [index, record] : txn.records.links) {
    target.links.insert_or_assign(index, std::move(record));
  }
  // Hand the staged index deltas to the pending queue. An unbuilt (or
  // already-invalidated) index needs none of this: the next query
  // rebuilds from the post-commit base anyway.
  if (thread == kMainThread && attribute_index_enabled_ &&
      node_index_.built() && !index_needs_rebuild_) {
    if (txn.index_overflow ||
        index_deltas_.size() + txn.index_deltas.size() >
            kMaxPendingIndexDeltas) {
      index_deltas_.clear();
      index_needs_rebuild_ = true;
    } else {
      std::move(txn.index_deltas.begin(), txn.index_deltas.end(),
                std::back_inserter(index_deltas_));
    }
  }
  ++mutation_epoch_;
}

// ------------------------------------------------------------ queries

std::vector<std::optional<std::string>> GraphState::AttributeValuesFor(
    const AttributeHistory& attrs, const AttributeRequest& request,
    Time time) const {
  std::vector<std::optional<std::string>> out;
  out.reserve(request.size());
  for (AttributeIndex attr : request) {
    std::optional<std::string_view> value = attrs.Get(attr, time);
    if (value.has_value()) {
      out.emplace_back(std::string(*value));
    } else {
      out.emplace_back(std::nullopt);
    }
  }
  return out;
}

Result<SubGraph> GraphState::Linearize(ThreadId thread, const TxnOverlay* txn,
                                       NodeIndex start, Time time,
                                       const query::Predicate& node_pred,
                                       const query::Predicate& link_pred,
                                       const AttributeRequest& node_attrs,
                                       const AttributeRequest& link_attrs)
    const {
  const NodeRecord* start_node = FindNode(thread, txn, start);
  if (start_node == nullptr || !start_node->ExistsAt(time)) {
    return Status::NotFound("start node " + std::to_string(start) +
                            " does not exist at time " +
                            std::to_string(time));
  }
  SubGraph out;
  RecordMatcher node_match(attributes_, node_pred, time);
  RecordMatcher link_match(attributes_, link_pred, time);
  if (!node_match.Matches(start_node->attributes)) return out;

  std::set<NodeIndex> visited;
  std::set<LinkIndex> emitted_links;

  // Depth-first, on an explicit stack so a long chain cannot overflow
  // the thread's stack (graphs can be cyclic; `visited` cuts cycles).
  // A frame is a visited node's out-links "ordered by the links'
  // offsets within the node" as (offset, link) pairs, and the next one
  // to follow.
  struct Frame {
    std::vector<std::pair<uint64_t, LinkIndex>> links;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  auto enter = [&](const NodeRecord& node) {
    visited.insert(node.index);
    out.nodes.push_back(SubGraphNode{
        node.index, AttributeValuesFor(node.attributes, node_attrs, time)});
    Frame frame;
    for (LinkIndex index : node.out_links) {
      const LinkRecord* link = FindLink(thread, txn, index);
      if (link == nullptr || !link->ExistsAt(time)) continue;
      frame.links.emplace_back(link->from.PositionAt(time), index);
    }
    std::sort(frame.links.begin(), frame.links.end());
    stack.push_back(std::move(frame));
  };
  enter(*start_node);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next == frame.links.size()) {
      stack.pop_back();
      continue;
    }
    const LinkIndex index = frame.links[frame.next++].second;
    const LinkRecord* link = FindLink(thread, txn, index);
    if (!link_match.Matches(link->attributes)) continue;
    const NodeRecord* target = FindNode(thread, txn, link->to.node);
    if (target == nullptr || !target->ExistsAt(time)) continue;
    if (!node_match.Matches(target->attributes)) continue;
    // The link connects two result nodes: emit it (once).
    if (emitted_links.insert(index).second) {
      out.links.push_back(SubGraphLink{
          index, link->from.node, link->to.node,
          AttributeValuesFor(link->attributes, link_attrs, time)});
    }
    if (visited.count(target->index) == 0) enter(*target);
  }
  return out;
}

void GraphState::MaintainIndexLocked(QueryPlan* plan) const {
  if (!node_index_.built() || index_needs_rebuild_) {
    node_index_.Rebuild(base_.nodes, mutation_epoch_);
    index_needs_rebuild_ = false;
    index_deltas_.clear();
    plan->rebuilt = true;
    return;
  }
  if (!index_deltas_.empty()) {
    for (const AttributeIndexDelta& delta : index_deltas_) {
      node_index_.ApplyDelta(delta);
    }
    plan->applied_deltas = index_deltas_.size();
    index_deltas_.clear();
  }
  node_index_.MarkFresh(mutation_epoch_);
}

Result<SubGraph> GraphState::Query(ThreadId thread, const TxnOverlay* txn,
                                   Time time,
                                   const query::Predicate& node_pred,
                                   const query::Predicate& link_pred,
                                   const AttributeRequest& node_attrs,
                                   const AttributeRequest& link_attrs,
                                   QueryPlan* plan_out,
                                   bool force_scan) const {
  QueryPlan plan;
  plan.eligible = !force_scan && attribute_index_enabled_ &&
                  IndexEligible(thread, txn, time);
  SubGraph out;
  std::unordered_set<NodeIndex> selected;

  // Slots are resolved once per query; per-record evaluation is then
  // a flat program over pre-resolved attribute slots.
  RecordMatcher node_match(attributes_, node_pred, time);
  RecordMatcher link_match(attributes_, link_pred, time);

  // Plan: probe the index for every equality conjunct, then take one
  // posting list or the intersection of several (see attribute_index.h
  // for why the references stay valid after unlock).
  bool use_index = false;
  std::vector<NodeIndex> intersected;
  const std::vector<NodeIndex>* candidates = nullptr;
  if (plan.eligible) {
    const auto& conjuncts = node_pred.EqualityConjuncts();
    plan.conjuncts = static_cast<uint32_t>(conjuncts.size());
    if (!conjuncts.empty()) {
      std::lock_guard<std::mutex> index_lock(*node_index_mu_);
      MaintainIndexLocked(&plan);
      use_index = true;
      bool provably_empty = false;
      std::vector<const std::vector<NodeIndex>*> postings;
      postings.reserve(conjuncts.size());
      for (const auto& [name, value] : conjuncts) {
        Result<AttributeIndex> attr = attributes_.Lookup(name);
        if (!attr.ok()) {
          // The conjunct references an attribute no object ever
          // carried: nothing can match the predicate.
          provably_empty = true;
          break;
        }
        postings.push_back(&node_index_.Lookup(*attr, value));
      }
      if (provably_empty) {
        plan.kind = conjuncts.size() > 1 ? QueryPlan::Kind::kIntersect
                                         : QueryPlan::Kind::kIndex;
        candidates = &intersected;  // empty
      } else if (postings.size() == 1) {
        plan.kind = QueryPlan::Kind::kIndex;
        candidates = postings[0];
      } else {
        plan.kind = QueryPlan::Kind::kIntersect;
        intersected = IntersectPostings(std::move(postings));
        candidates = &intersected;
      }
    }
  }

  if (use_index) {
    plan.candidates = candidates->size();
    for (NodeIndex index : *candidates) {
      auto it = base_.nodes.find(index);
      if (it == base_.nodes.end()) continue;
      const NodeRecord& node = it->second;
      if (!node.ExistsAt(time)) continue;
      // Residual check: candidates satisfy their conjuncts by index
      // construction, but the formula may carry more than that.
      ++plan.residual_evals;
      if (!node_match.Matches(node.attributes)) continue;
      selected.insert(index);
      out.nodes.push_back(SubGraphNode{
          index, AttributeValuesFor(node.attributes, node_attrs, time)});
    }
  } else {
    plan.kind = QueryPlan::Kind::kScan;
    ForEachNode(thread, txn, [&](const NodeRecord& node) {
      if (!node.ExistsAt(time)) return;
      ++plan.candidates;
      if (!node_match.trivial()) ++plan.residual_evals;
      if (!node_match.Matches(node.attributes)) return;
      selected.insert(node.index);
      out.nodes.push_back(SubGraphNode{
          node.index, AttributeValuesFor(node.attributes, node_attrs, time)});
    });
  }

  auto emit_link = [&](const LinkRecord& link) {
    if (!link.ExistsAt(time)) return;
    if (selected.count(link.from.node) == 0 ||
        selected.count(link.to.node) == 0) {
      return;
    }
    if (!link_match.Matches(link.attributes)) return;
    out.links.push_back(
        SubGraphLink{link.index, link.from.node, link.to.node,
                     AttributeValuesFor(link.attributes, link_attrs, time)});
  };
  if (use_index) {
    // Indexed queries only need links attached to selected nodes: a
    // qualifying link's source end is a selected node, so walking the
    // out-link lists covers every candidate without an O(links) scan.
    // Sorting keeps the scan path's ascending-index output order.
    std::vector<LinkIndex> link_candidates;
    for (const SubGraphNode& selected_node : out.nodes) {
      auto it = base_.nodes.find(selected_node.node);
      link_candidates.insert(link_candidates.end(),
                             it->second.out_links.begin(),
                             it->second.out_links.end());
    }
    std::sort(link_candidates.begin(), link_candidates.end());
    link_candidates.erase(
        std::unique(link_candidates.begin(), link_candidates.end()),
        link_candidates.end());
    for (LinkIndex index : link_candidates) {
      auto it = base_.links.find(index);
      if (it != base_.links.end()) emit_link(it->second);
    }
  } else {
    ForEachLink(thread, txn, emit_link);
  }

  plan.nodes_matched = out.nodes.size();
  plan.links_matched = out.links.size();
  if (plan_out != nullptr) *plan_out = plan;
  return out;
}

std::vector<std::string> GraphState::AttributeValuesAt(ThreadId thread,
                                                       const TxnOverlay* txn,
                                                       AttributeIndex attr,
                                                       Time time) const {
  std::set<std::string> values;
  ForEachNode(thread, txn, [&](const NodeRecord& node) {
    if (!node.ExistsAt(time)) return;
    std::optional<std::string_view> value = node.attributes.Get(attr, time);
    if (value.has_value()) values.emplace(*value);
  });
  ForEachLink(thread, txn, [&](const LinkRecord& link) {
    if (!link.ExistsAt(time)) return;
    std::optional<std::string_view> value = link.attributes.Get(attr, time);
    if (value.has_value()) values.emplace(*value);
  });
  return std::vector<std::string>(values.begin(), values.end());
}

// ------------------------------------------------------------ threads

const GraphState::ThreadState* GraphState::FindThread(ThreadId thread) const {
  auto it = threads_.find(thread);
  return it == threads_.end() ? nullptr : &it->second;
}

std::vector<ContextInfo> GraphState::ListThreads() const {
  std::vector<ContextInfo> out;
  out.push_back(ContextInfo{kMainThread, "main", 0});
  for (const auto& [id, thread] : threads_) {
    out.push_back(ContextInfo{id, thread.name, thread.branched_at});
  }
  return out;
}

// ------------------------------------------------------------ helpers

Time GraphState::NodeLastModified(const NodeRecord& node) {
  Time last = std::max(node.created, node.deleted);
  last = std::max(last, node.contents.CurrentTime());
  if (!node.minor_versions.empty()) {
    last = std::max(last, node.minor_versions.back().time);
  }
  last = std::max(last, node.attributes.LastTime());
  return last;
}

Time GraphState::LinkLastModified(const LinkRecord& link) {
  Time last = std::max(link.created, link.deleted);
  for (const LinkEnd* end : {&link.from, &link.to}) {
    if (!end->positions.empty()) {
      last = std::max(last, end->positions.back().first);
    }
  }
  last = std::max(last, link.attributes.LastTime());
  return last;
}

GraphState::Stats GraphState::ComputeStats() const {
  Stats stats;
  stats.total_node_records = base_.nodes.size();
  stats.total_link_records = base_.links.size();
  for (const auto& [index, node] : base_.nodes) {
    (void)index;
    if (node.ExistsAt(0)) ++stats.node_count;
  }
  for (const auto& [index, link] : base_.links) {
    (void)index;
    if (link.ExistsAt(0)) ++stats.link_count;
  }
  stats.thread_count = threads_.size();
  stats.attribute_count = attributes_.size();
  return stats;
}

// ------------------------------------------------------------ fsck

std::vector<std::string> GraphState::CheckIntegrity() const {
  std::vector<std::string> problems;
  auto report = [&problems](std::string message) {
    problems.push_back(std::move(message));
  };

  NodeIndex max_node = 0;
  LinkIndex max_link = 0;

  for (const auto& [index, node] : base_.nodes) {
    max_node = std::max(max_node, index);
    if (node.index != index) {
      report("node " + std::to_string(index) + " stored under wrong key");
    }
    if (node.created == 0) {
      report("node " + std::to_string(index) + " has no creation time");
    }
    // Version times strictly increase.
    Time prev = 0;
    for (const auto& version : node.contents.versions()) {
      if (version.time <= prev) {
        report("node " + std::to_string(index) +
               " version times not strictly increasing");
        break;
      }
      prev = version.time;
    }
    // Attribute indices must be defined in the table.
    for (const auto& [attr, value] : node.attributes.GetAll(0)) {
      (void)value;
      if (!attributes_.ExistedAt(attr, 0)) {
        report("node " + std::to_string(index) +
               " carries undefined attribute index " + std::to_string(attr));
      }
    }
    // Link lists must reference existing links that point back here.
    for (bool source_end : {true, false}) {
      const auto& list = source_end ? node.out_links : node.in_links;
      for (LinkIndex link_index : list) {
        auto it = base_.links.find(link_index);
        if (it == base_.links.end()) {
          report("node " + std::to_string(index) + " lists missing link " +
                 std::to_string(link_index));
          continue;
        }
        const LinkEnd& end = source_end ? it->second.from : it->second.to;
        if (end.node != index) {
          report("link " + std::to_string(link_index) +
                 " does not attach back to node " + std::to_string(index));
        }
      }
    }
  }

  for (const auto& [index, link] : base_.links) {
    max_link = std::max(max_link, index);
    if (link.index != index) {
      report("link " + std::to_string(index) + " stored under wrong key");
    }
    for (const LinkEnd* end : {&link.from, &link.to}) {
      auto it = base_.nodes.find(end->node);
      if (it == base_.nodes.end()) {
        report("link " + std::to_string(index) +
               " references missing node " + std::to_string(end->node));
        continue;
      }
      const bool is_from = end == &link.from;
      const auto& list = is_from ? it->second.out_links : it->second.in_links;
      if (std::find(list.begin(), list.end(), index) == list.end()) {
        report("node " + std::to_string(end->node) + " does not list link " +
               std::to_string(index));
      }
      if (end->positions.empty()) {
        report("link " + std::to_string(index) +
               " has an end with no attachment offset");
      }
    }
    if (link.created == 0) {
      report("link " + std::to_string(index) + " has no creation time");
    }
  }

  if (max_node >= next_node_) {
    report("node counter " + std::to_string(next_node_) +
           " not above max node " + std::to_string(max_node));
  }
  if (max_link >= next_link_) {
    report("link counter " + std::to_string(next_link_) +
           " not above max link " + std::to_string(max_link));
  }
  for (const auto& [id, thread] : threads_) {
    if (id != thread.id) {
      report("thread " + std::to_string(id) + " stored under wrong key");
    }
    if (thread.branched_at > clock_.Last()) {
      report("thread " + std::to_string(id) + " branched in the future");
    }
  }
  return problems;
}

size_t GraphState::PruneHistoryBefore(Time before) {
  size_t touched = 0;
  for (auto& [index, node] : base_.nodes) {
    (void)index;
    size_t dropped = node.contents.PruneBefore(before);
    dropped += node.attributes.PruneBefore(before);
    // Minor versions are appended in time order, so the ones before
    // the horizon are a prefix.
    const size_t minors_dropped = static_cast<size_t>(
        std::partition_point(node.minor_versions.begin(),
                             node.minor_versions.end(),
                             [before](const VersionEntry& v) {
                               return v.time < before;
                             }) -
        node.minor_versions.begin());
    node.minor_versions.DropFront(minors_dropped);
    dropped += minors_dropped;
    if (dropped > 0) ++touched;
  }
  for (auto& [index, link] : base_.links) {
    (void)index;
    size_t dropped = link.attributes.PruneBefore(before);
    for (LinkEnd* end : {&link.from, &link.to}) {
      auto keep = std::upper_bound(
          end->positions.begin(), end->positions.end(), before,
          [](Time t, const std::pair<Time, uint64_t>& p) {
            return t < p.first;
          });
      if (keep != end->positions.begin()) {
        --keep;  // the offset in effect at `before` stays
        const size_t drop = static_cast<size_t>(keep - end->positions.begin());
        end->positions.DropFront(drop);
        dropped += drop;
      }
    }
    if (dropped > 0) ++touched;
  }
  // Prune rewrites histories wholesale; no per-attribute deltas exist,
  // so the index must rebuild on the next query.
  index_needs_rebuild_ = true;
  index_deltas_.clear();
  ++mutation_epoch_;
  return touched;
}

// -------------------------------------------------------------- codec

namespace {

void EncodeRecordSet(const GraphState::RecordSet& set, std::string* out) {
  // Deterministic order: ascending index.
  std::vector<NodeIndex> node_ids;
  node_ids.reserve(set.nodes.size());
  for (const auto& [index, record] : set.nodes) {
    (void)record;
    node_ids.push_back(index);
  }
  std::sort(node_ids.begin(), node_ids.end());
  PutVarint64(out, node_ids.size());
  for (NodeIndex id : node_ids) set.nodes.at(id).EncodeTo(out);

  std::vector<LinkIndex> link_ids;
  link_ids.reserve(set.links.size());
  for (const auto& [index, record] : set.links) {
    (void)record;
    link_ids.push_back(index);
  }
  std::sort(link_ids.begin(), link_ids.end());
  PutVarint64(out, link_ids.size());
  for (LinkIndex id : link_ids) set.links.at(id).EncodeTo(out);
}

Status DecodeRecordSet(std::string_view* in, GraphState::RecordSet* set) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) {
    return Status::Corruption("record set: truncated node count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    NEPTUNE_ASSIGN_OR_RETURN(NodeRecord node, NodeRecord::DecodeFrom(in));
    const NodeIndex index = node.index;
    set->nodes.emplace(index, std::move(node));
  }
  if (!GetVarint64(in, &n)) {
    return Status::Corruption("record set: truncated link count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    NEPTUNE_ASSIGN_OR_RETURN(LinkRecord link, LinkRecord::DecodeFrom(in));
    const LinkIndex index = link.index;
    set->links.emplace(index, std::move(link));
  }
  return Status::OK();
}

}  // namespace

void GraphState::EncodeTo(std::string* out) const {
  attributes_.EncodeTo(out);
  graph_demons_.EncodeTo(out);
  PutVarint64(out, clock_.Last());
  PutVarint64(out, next_node_);
  PutVarint64(out, next_link_);
  PutVarint64(out, next_thread_);
  EncodeRecordSet(base_, out);
  PutVarint64(out, threads_.size());
  for (const auto& [id, thread] : threads_) {
    PutVarint64(out, id);
    PutLengthPrefixed(out, thread.name);
    PutVarint64(out, thread.branched_at);
    EncodeRecordSet(thread.records, out);
  }
}

Result<GraphState> GraphState::DecodeFrom(std::string_view in) {
  GraphState out;
  NEPTUNE_ASSIGN_OR_RETURN(out.attributes_, AttributeTable::DecodeFrom(&in));
  NEPTUNE_ASSIGN_OR_RETURN(out.graph_demons_, DemonHistory::DecodeFrom(&in));
  uint64_t last_time = 0;
  if (!GetVarint64(&in, &last_time) || !GetVarint64(&in, &out.next_node_) ||
      !GetVarint64(&in, &out.next_link_) ||
      !GetVarint64(&in, &out.next_thread_)) {
    return Status::Corruption("graph state: truncated counters");
  }
  out.clock_.AdvanceTo(last_time);
  NEPTUNE_RETURN_IF_ERROR(DecodeRecordSet(&in, &out.base_));
  uint64_t threads = 0;
  if (!GetVarint64(&in, &threads)) {
    return Status::Corruption("graph state: truncated thread count");
  }
  for (uint64_t i = 0; i < threads; ++i) {
    ThreadState thread;
    std::string_view name;
    if (!GetVarint64(&in, &thread.id) || !GetLengthPrefixed(&in, &name) ||
        !GetVarint64(&in, &thread.branched_at)) {
      return Status::Corruption("graph state: truncated thread header");
    }
    thread.name.assign(name);
    NEPTUNE_RETURN_IF_ERROR(DecodeRecordSet(&in, &thread.records));
    const ThreadId id = thread.id;
    out.threads_.emplace(id, std::move(thread));
  }
  if (!in.empty()) {
    return Status::Corruption("graph state: trailing bytes");
  }
  return out;
}

}  // namespace ham
}  // namespace neptune
