// Implementations of the Appendix A.1–A.5 operations and the §5
// extensions on the local Ham engine. Session/transaction plumbing
// lives in ham.cc.

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <type_traits>

#include "ham/ham.h"

#include "common/metrics.h"
#include "common/trace.h"

namespace neptune {
namespace ham {

namespace {

bool NodeCanRead(uint32_t protections) { return (protections & 0444) != 0; }

// The demon index packs an event into four bits of its key, so a value
// past the last Event would alias another node's demon.
Status CheckEvent(Event event) {
  if (static_cast<uint8_t>(event) >
      static_cast<uint8_t>(Event::kCommitTransaction)) {
    return Status::InvalidArgument(
        "unknown demon event " +
        std::to_string(static_cast<int>(static_cast<uint8_t>(event))));
  }
  return Status::OK();
}

// Validates that every requested attribute index is defined.
Status ValidateAttrRequest(const AttributeTable& table,
                           const std::vector<AttributeIndex>& attrs,
                           const std::vector<AttributeIndex>& more = {}) {
  for (const std::vector<AttributeIndex>* list : {&attrs, &more}) {
    for (AttributeIndex attr : *list) {
      if (!table.ExistedAt(attr, 0)) {
        return Status::NotFound("attribute index " + std::to_string(attr) +
                                " is not defined");
      }
    }
  }
  return Status::OK();
}

// Normalizes a caller LinkPt per the Appendix: "If a Time is zero then
// the link always refers to the current version".
LinkPt Normalize(LinkPt pt) {
  pt.track_current = (pt.time == 0);
  return pt;
}

// All HamOptions cap rejections funnel through here so operators can
// watch ham.limits.rejected for hostile or misconfigured clients. The
// checks run before Execute, i.e. before any WAL write.
Status LimitExceeded(std::string what) {
  NEPTUNE_METRIC_COUNT("ham.limits.rejected", 1);
  return Status::InvalidArgument(std::move(what));
}

Status NodeNotFound(NodeIndex node) {
  return Status::NotFound("node " + std::to_string(node) + " does not exist");
}

// "node 7 does not exist at time 3" / "link 7 ...".
Status NotFoundAt(std::string_view entity, uint64_t index, Time time) {
  return Status::NotFound(std::string(entity) + " " + std::to_string(index) +
                          " does not exist at time " + std::to_string(time));
}

// "node" or "link", in the messages of the node/link twin ops.
template <typename Record>
constexpr std::string_view kEntityName =
    std::is_same_v<Record, NodeRecord> ? "node" : "link";

}  // namespace

Ham::ReadScope::ReadScope(const LockedSession& session)
    : thread(session->thread),
      graph(session->graph.get()),
      lock(graph->mu, std::defer_lock),
      overlay(session->in_txn ? &session->overlay : nullptr) {
  {
    NEPTUNE_TRACE_SPAN(span, "ham.lock.shared_wait");
    lock.lock();
  }
  NEPTUNE_METRIC_COUNT("ham.read.shared_lock", 1);
}

// ----------------------------------------------------- A.1 structure

Result<AddNodeResult> Ham::AddNode(Context ctx, bool keep_history) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.addNode", "ham.op.structure");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  GraphHandle* graph = session->graph.get();
  Op op;
  op.kind = OpKind::kAddNode;
  op.flag = keep_history;
  {
    std::lock_guard<std::shared_mutex> lock(graph->mu);
    op.node = graph->state.AllocateNodeIndex();
  }
  NEPTUNE_RETURN_IF_ERROR(Execute(session.get(), &op));
  return AddNodeResult{op.node, op.time};
}

Status Ham::DeleteNode(Context ctx, NodeIndex node) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.deleteNode", "ham.op.structure");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kDeleteNode;
  op.node = node;
  return Execute(session.get(), &op);
}

Result<AddLinkResult> Ham::AddLink(Context ctx, const LinkPt& from,
                                   const LinkPt& to) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.addLink", "ham.op.structure");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  return InsertLink(session.get(), from, to);
}

Result<AddLinkResult> Ham::InsertLink(Session* session, const LinkPt& from,
                                      const LinkPt& to) {
  GraphHandle* graph = session->graph.get();
  Op op;
  op.kind = OpKind::kAddLink;
  op.from = Normalize(from);
  op.to = Normalize(to);
  {
    std::lock_guard<std::shared_mutex> lock(graph->mu);
    op.link = graph->state.AllocateLinkIndex();
  }
  NEPTUNE_RETURN_IF_ERROR(Execute(session, &op));
  return AddLinkResult{op.link, op.time};
}

Result<AddLinkResult> Ham::CopyLink(Context ctx, LinkIndex link, Time time,
                                    bool copy_source, const LinkPt& other) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.copyLink", "ham.op.structure");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const LinkRecord* record = read.FindLink(link);
  if (record == nullptr || !record->ExistsAt(time)) {
    return NotFoundAt("link", link, time);
  }
  const LinkEnd& end = copy_source ? record->from : record->to;
  LinkPt copied;
  copied.node = end.node;
  copied.position = end.PositionAt(time);
  copied.time = end.track_current ? 0 : end.pinned_time;
  copied.track_current = end.track_current;
  read.lock.unlock();
  // "If Boolean has value true then the source of the new link is
  // identical to that of LinkIndex."
  if (copy_source) {
    return InsertLink(session.get(), copied, other);
  }
  return InsertLink(session.get(), other, copied);
}

Status Ham::DeleteLink(Context ctx, LinkIndex link) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.deleteLink", "ham.op.structure");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kDeleteLink;
  op.link = link;
  return Execute(session.get(), &op);
}

// -------------------------------------------------------- A.1 queries

Result<SubGraph> Ham::LinearizeGraph(
    Context ctx, NodeIndex start, Time time, const std::string& node_pred,
    const std::string& link_pred,
    const std::vector<AttributeIndex>& node_attrs,
    const std::vector<AttributeIndex>& link_attrs) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.linearizeGraph", "ham.op.query");
  if (op_span.active()) {
    op_span.Annotate("start=" + std::to_string(start) +
                     " time=" + std::to_string(time));
  }
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  NEPTUNE_ASSIGN_OR_RETURN(query::Predicate np,
                           query::Predicate::Parse(node_pred));
  NEPTUNE_ASSIGN_OR_RETURN(query::Predicate lp,
                           query::Predicate::Parse(link_pred));
  ReadScope read(session);
  NEPTUNE_RETURN_IF_ERROR(
      ValidateAttrRequest(read.state().attributes(), node_attrs, link_attrs));
  return read.state().Linearize(read.thread, read.overlay, start, time, np,
                                lp, node_attrs, link_attrs);
}

Result<SubGraph> Ham::GetGraphQuery(
    Context ctx, Time time, const std::string& node_pred,
    const std::string& link_pred,
    const std::vector<AttributeIndex>& node_attrs,
    const std::vector<AttributeIndex>& link_attrs) {
  NEPTUNE_ASSIGN_OR_RETURN(
      QueryExplain out,
      GetGraphQueryExplained(ctx, time, node_pred, link_pred, node_attrs,
                             link_attrs, QueryOptions()));
  return std::move(out.graph);
}

Result<QueryExplain> Ham::GetGraphQueryExplained(
    Context ctx, Time time, const std::string& node_pred,
    const std::string& link_pred,
    const std::vector<AttributeIndex>& node_attrs,
    const std::vector<AttributeIndex>& link_attrs,
    const QueryOptions& options) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getGraphQuery", "ham.op.query");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  NEPTUNE_ASSIGN_OR_RETURN(query::Predicate np,
                           query::Predicate::Parse(node_pred));
  NEPTUNE_ASSIGN_OR_RETURN(query::Predicate lp,
                           query::Predicate::Parse(link_pred));
  ReadScope read(session);
  NEPTUNE_RETURN_IF_ERROR(
      ValidateAttrRequest(read.state().attributes(), node_attrs, link_attrs));
  QueryExplain out;
  NEPTUNE_ASSIGN_OR_RETURN(
      out.graph,
      read.state().Query(read.thread, read.overlay, time, np, lp,
                         node_attrs, link_attrs, &out.plan,
                         options.force_scan));
  if (options.verify && !options.force_scan) {
    // Re-run as a scan under the SAME shared lock — no writer can
    // commit in between, so any divergence is an index bug, not a
    // race with a concurrent mutation.
    NEPTUNE_ASSIGN_OR_RETURN(
        SubGraph scanned,
        read.state().Query(read.thread, read.overlay, time, np, lp,
                           node_attrs, link_attrs, nullptr,
                           /*force_scan=*/true));
    auto same_node = [](const SubGraphNode& a, const SubGraphNode& b) {
      return a.node == b.node;
    };
    auto same_link = [](const SubGraphLink& a, const SubGraphLink& b) {
      return a.link == b.link;
    };
    out.plan.verified = true;
    out.plan.verify_match =
        std::equal(scanned.nodes.begin(), scanned.nodes.end(),
                   out.graph.nodes.begin(), out.graph.nodes.end(), same_node) &&
        std::equal(scanned.links.begin(), scanned.links.end(),
                   out.graph.links.begin(), out.graph.links.end(), same_link);
  }
  // The query.plan.* / query.index.* counters and the span annotation.
  const QueryPlan& plan = out.plan;
  switch (plan.kind) {
    case QueryPlan::Kind::kIndex:
      NEPTUNE_METRIC_COUNT("query.plan.index", 1);
      break;
    case QueryPlan::Kind::kIntersect:
      NEPTUNE_METRIC_COUNT("query.plan.intersect", 1);
      break;
    case QueryPlan::Kind::kScan:
      NEPTUNE_METRIC_COUNT("query.plan.scan", 1);
      break;
  }
  if (plan.applied_deltas > 0) {
    NEPTUNE_METRIC_COUNT("query.index.applied_deltas", plan.applied_deltas);
  }
  if (plan.rebuilt) {
    NEPTUNE_METRIC_COUNT("query.index.rebuilds", 1);
  }
  if (op_span.active()) {
    op_span.Annotate("query.plan=" + std::string(QueryPlanKindName(plan.kind)) +
                     " candidates=" + std::to_string(plan.candidates) +
                     " residual=" + std::to_string(plan.residual_evals));
  }
  return out;
}

// --------------------------------------------------------- A.2 nodes

Result<OpenNodeResult> Ham::OpenNode(
    Context ctx, NodeIndex node, Time time,
    const std::vector<AttributeIndex>& attrs) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.openNode", "ham.op.node");
  if (op_span.active()) {
    op_span.Annotate("node=" + std::to_string(node) +
                     " time=" + std::to_string(time));
  }
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  NEPTUNE_RETURN_IF_ERROR(
      ValidateAttrRequest(read.state().attributes(), attrs));
  const NodeRecord* record = read.FindNode(node);
  if (record == nullptr || !record->ExistsAt(time)) {
    return NotFoundAt("node", node, time);
  }
  if (!NodeCanRead(record->protections)) {
    return Status::PermissionDenied("node " + std::to_string(node) +
                                    " is read-protected");
  }
  OpenNodeResult out;
  NEPTUNE_ASSIGN_OR_RETURN(out.contents, record->contents.Get(time));
  out.current_version_time = record->contents.CurrentTime();
  out.attribute_values =
      read.state().AttributeValuesFor(record->attributes, attrs, time);
  // LinkPt* for the requested version: live attachments at `time`.
  for (bool source_end : {true, false}) {
    const ChunkedLog<LinkIndex>& list =
        source_end ? record->out_links : record->in_links;
    for (LinkIndex index : list) {
      const LinkRecord* link = read.FindLink(index);
      if (link == nullptr || !link->ExistsAt(time)) continue;
      const LinkEnd& end = source_end ? link->from : link->to;
      out.attachments.push_back(Attachment{
          index, source_end, end.PositionAt(time), end.track_current});
    }
  }
  read.lock.unlock();
  // "This operation can trigger a demon."
  FireEventDemons(read.graph, read.thread, Event::kOpenNode, node, 0,
                  out.current_version_time);
  return out;
}

Status Ham::ModifyNode(Context ctx, NodeIndex node, Time expected_time,
                       const std::string& contents,
                       const std::vector<AttachmentUpdate>& attachments,
                       const std::string& explanation) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.modifyNode", "ham.op.node");
  if (op_span.active()) {
    op_span.Annotate("node=" + std::to_string(node) +
                     " bytes=" + std::to_string(contents.size()));
  }
  if (options_.max_node_content_bytes > 0 &&
      contents.size() > options_.max_node_content_bytes) {
    return LimitExceeded(
        "node contents of " + std::to_string(contents.size()) +
        " bytes exceed max_node_content_bytes=" +
        std::to_string(options_.max_node_content_bytes));
  }
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kModifyNode;
  op.node = node;
  op.arg = expected_time;
  op.value = contents;
  op.extra = explanation;
  op.attachments.reserve(attachments.size());
  for (const AttachmentUpdate& att : attachments) {
    // Encoding contract (ops.h): node = LinkIndex, track_current =
    // is_source_end, position = new offset.
    LinkPt pt;
    pt.node = att.link;
    pt.track_current = att.is_source_end;
    pt.position = att.position;
    op.attachments.push_back(pt);
  }
  return Execute(session.get(), &op);
}

Result<Time> Ham::GetNodeTimeStamp(Context ctx, NodeIndex node) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getNodeTimeStamp", "ham.op.node");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const NodeRecord* record = read.FindNode(node);
  if (record == nullptr || !record->ExistsAt(0)) {
    return NodeNotFound(node);
  }
  return record->contents.CurrentTime();
}

Status Ham::ChangeNodeProtection(Context ctx, NodeIndex node,
                                 uint32_t protections) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.changeNodeProtection", "ham.op.node");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kChangeNodeProtection;
  op.node = node;
  op.arg = protections;
  return Execute(session.get(), &op);
}

Result<NodeVersions> Ham::GetNodeVersions(Context ctx, NodeIndex node) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getNodeVersions", "ham.op.node");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const NodeRecord* record = read.FindNode(node);
  if (record == nullptr) {
    return NodeNotFound(node);
  }
  NodeVersions out;
  for (const auto& v : record->contents.versions()) {
    out.major.push_back(VersionEntry{v.time, v.explanation});
  }
  out.minor.assign(record->minor_versions.begin(),
                   record->minor_versions.end());
  return out;
}

Result<std::vector<delta::Difference>> Ham::GetNodeDifferences(Context ctx,
                                                               NodeIndex node,
                                                               Time t1,
                                                               Time t2) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getNodeDifferences", "ham.op.node");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const NodeRecord* record = read.FindNode(node);
  if (record == nullptr) {
    return NodeNotFound(node);
  }
  NEPTUNE_ASSIGN_OR_RETURN(std::string old_contents, record->contents.Get(t1));
  NEPTUNE_ASSIGN_OR_RETURN(std::string new_contents, record->contents.Get(t2));
  return delta::DiffLines(old_contents, new_contents);
}

// --------------------------------------------------------- A.3 links

Result<LinkEndResult> Ham::GetToNode(Context ctx, LinkIndex link, Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getToNode", "ham.op.link");
  return GetLinkEnd(ctx, link, time, /*source_end=*/false);
}

Result<LinkEndResult> Ham::GetFromNode(Context ctx, LinkIndex link,
                                       Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getFromNode", "ham.op.link");
  return GetLinkEnd(ctx, link, time, /*source_end=*/true);
}

Result<LinkEndResult> Ham::GetLinkEnd(Context ctx, LinkIndex link, Time time,
                                      bool source_end) {
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const LinkRecord* record = read.FindLink(link);
  if (record == nullptr || !record->ExistsAt(time)) {
    return NotFoundAt("link", link, time);
  }
  const LinkEnd& end = source_end ? record->from : record->to;
  const NodeRecord* node = read.FindNode(end.node);
  if (node == nullptr) {
    return Status::Corruption("link " + std::to_string(link) +
                              " references missing node");
  }
  const Time effective = end.track_current ? time : end.pinned_time;
  NEPTUNE_ASSIGN_OR_RETURN(size_t index,
                           node->contents.VersionIndexAt(effective));
  return LinkEndResult{end.node, node->contents.versions()[index].time};
}

// ---------------------------------------------------- A.4 attributes

Result<std::vector<AttributeEntry>> Ham::GetAttributes(Context ctx,
                                                       Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getAttributes", "ham.op.attribute");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  return read.state().attributes().AllAt(time);
}

Result<std::vector<std::string>> Ham::GetAttributeValues(Context ctx,
                                                         AttributeIndex attr,
                                                         Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getAttributeValues", "ham.op.attribute");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  if (!read.state().attributes().ExistedAt(attr, time)) {
    return Status::NotFound("attribute index " + std::to_string(attr) +
                            " did not exist at time " + std::to_string(time));
  }
  return read.state().AttributeValuesAt(read.thread, read.overlay, attr,
                                        time);
}

Result<AttributeIndex> Ham::GetAttributeIndex(Context ctx,
                                              const std::string& name) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getAttributeIndex", "ham.op.attribute");
  // Interning commits immediately and is append-only, so an oversized
  // name would be a permanent blemish — check before anything else.
  if (options_.max_attribute_name_bytes > 0 &&
      name.size() > options_.max_attribute_name_bytes) {
    return LimitExceeded(
        "attribute name of " + std::to_string(name.size()) +
        " bytes exceeds max_attribute_name_bytes=" +
        std::to_string(options_.max_attribute_name_bytes));
  }
  // Fast path: the attribute already exists (the common case after
  // warm-up), served under the shared lock.
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  Result<AttributeIndex> fast = read.state().attributes().Lookup(name);
  if (fast.ok()) return fast;
  read.lock.unlock();
  GraphHandle* graph = read.graph;
  std::lock_guard<std::shared_mutex> lock(graph->mu);
  // Re-check: another session may have interned it between the locks.
  Result<AttributeIndex> existing = graph->state.attributes().Lookup(name);
  if (existing.ok()) return existing;
  // "If no attribute exists, then creates one." Interning commits
  // immediately as its own transaction (it is append-only and must
  // survive even if a surrounding transaction aborts).
  Op op;
  op.kind = OpKind::kInternAttribute;
  op.extra = name;
  op.attr = graph->state.attributes().next_index();
  op.thread = read.thread;
  op.time = graph->state.clock().Tick();
  NEPTUNE_RETURN_IF_ERROR(graph->state.Apply(op, /*txn=*/nullptr));
  NEPTUNE_RETURN_IF_ERROR(graph->store->AppendRecord(
      EncodeTransaction({op}), options_.sync_commits));
  return op.attr;
}

template <typename Record>
Status Ham::SetEntityAttribute(Context ctx, uint64_t index,
                               AttributeIndex attr, const std::string& value) {
  if (options_.max_attribute_value_bytes > 0 &&
      value.size() > options_.max_attribute_value_bytes) {
    return LimitExceeded(
        "attribute value of " + std::to_string(value.size()) +
        " bytes exceeds max_attribute_value_bytes=" +
        std::to_string(options_.max_attribute_value_bytes));
  }
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const Record* record = read.Find<Record>(index);
  // Replacing an attached attribute is always allowed; only growth past
  // the cap is refused. A missing record falls through to Execute for
  // the canonical NotFound.
  if (options_.max_attrs_per_entity > 0 && record != nullptr &&
      !record->attributes.Get(attr, 0).has_value() &&
      record->attributes.CountAt(0) >= options_.max_attrs_per_entity) {
    return LimitExceeded(
        std::string(kEntityName<Record>) + " " + std::to_string(index) +
        " already carries " + std::to_string(options_.max_attrs_per_entity) +
        " attributes (max_attrs_per_entity)");
  }
  read.lock.unlock();
  Op op;
  if constexpr (std::is_same_v<Record, NodeRecord>) {
    op.kind = OpKind::kSetNodeAttribute;
    op.node = index;
  } else {
    op.kind = OpKind::kSetLinkAttribute;
    op.link = index;
  }
  op.attr = attr;
  op.value = value;
  return Execute(session.get(), &op);
}

template <typename Record>
Result<std::string> Ham::GetEntityAttribute(Context ctx, uint64_t index,
                                            AttributeIndex attr, Time time) {
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const Record* record = read.Find<Record>(index);
  if (record == nullptr || !record->ExistsAt(time)) {
    return NotFoundAt(kEntityName<Record>, index, time);
  }
  std::optional<std::string_view> value = record->attributes.Get(attr, time);
  if (!value.has_value()) {
    return Status::NotFound("attribute " + std::to_string(attr) +
                            " is not attached to " +
                            std::string(kEntityName<Record>) + " " +
                            std::to_string(index) + " at time " +
                            std::to_string(time));
  }
  return std::string(*value);
}

template <typename Record>
Result<std::vector<AttributeValueEntry>> Ham::GetEntityAttributes(
    Context ctx, uint64_t index, Time time) {
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const Record* record = read.Find<Record>(index);
  if (record == nullptr || !record->ExistsAt(time)) {
    return NotFoundAt(kEntityName<Record>, index, time);
  }
  std::vector<AttributeValueEntry> out;
  for (auto& [attr, value] : record->attributes.GetAll(time)) {
    NEPTUNE_ASSIGN_OR_RETURN(std::string name,
                             read.state().attributes().Name(attr));
    out.push_back(AttributeValueEntry{std::move(name), attr, std::move(value)});
  }
  return out;
}

Status Ham::SetNodeAttributeValue(Context ctx, NodeIndex node,
                                  AttributeIndex attr,
                                  const std::string& value) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.setNodeAttributeValue", "ham.op.attribute");
  return SetEntityAttribute<NodeRecord>(ctx, node, attr, value);
}

Status Ham::DeleteNodeAttribute(Context ctx, NodeIndex node,
                                AttributeIndex attr) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.deleteNodeAttribute", "ham.op.attribute");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kDeleteNodeAttribute;
  op.node = node;
  op.attr = attr;
  return Execute(session.get(), &op);
}

Result<std::string> Ham::GetNodeAttributeValue(Context ctx, NodeIndex node,
                                               AttributeIndex attr,
                                               Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getNodeAttributeValue", "ham.op.attribute");
  return GetEntityAttribute<NodeRecord>(ctx, node, attr, time);
}

Result<std::vector<AttributeValueEntry>> Ham::GetNodeAttributes(
    Context ctx, NodeIndex node, Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getNodeAttributes", "ham.op.attribute");
  return GetEntityAttributes<NodeRecord>(ctx, node, time);
}

Status Ham::SetLinkAttributeValue(Context ctx, LinkIndex link,
                                  AttributeIndex attr,
                                  const std::string& value) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.setLinkAttributeValue", "ham.op.attribute");
  return SetEntityAttribute<LinkRecord>(ctx, link, attr, value);
}

Status Ham::DeleteLinkAttribute(Context ctx, LinkIndex link,
                                AttributeIndex attr) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.deleteLinkAttribute", "ham.op.attribute");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kDeleteLinkAttribute;
  op.link = link;
  op.attr = attr;
  return Execute(session.get(), &op);
}

Result<std::string> Ham::GetLinkAttributeValue(Context ctx, LinkIndex link,
                                               AttributeIndex attr,
                                               Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getLinkAttributeValue", "ham.op.attribute");
  return GetEntityAttribute<LinkRecord>(ctx, link, attr, time);
}

Result<std::vector<AttributeValueEntry>> Ham::GetLinkAttributes(
    Context ctx, LinkIndex link, Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getLinkAttributes", "ham.op.attribute");
  return GetEntityAttributes<LinkRecord>(ctx, link, time);
}

// -------------------------------------------------------- A.5 demons

Status Ham::SetGraphDemonValue(Context ctx, Event event,
                               const std::string& demon) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.setGraphDemonValue", "ham.op.demon");
  NEPTUNE_RETURN_IF_ERROR(CheckEvent(event));
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kSetGraphDemon;
  op.event = event;
  op.value = demon;
  return Execute(session.get(), &op);
}

Result<std::vector<DemonEntry>> Ham::GetGraphDemons(Context ctx, Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getGraphDemons", "ham.op.demon");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  return read.state().GraphDemons(read.overlay).GetAll(time);
}

Status Ham::SetNodeDemon(Context ctx, NodeIndex node, Event event,
                         const std::string& demon) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.setNodeDemon", "ham.op.demon");
  NEPTUNE_RETURN_IF_ERROR(CheckEvent(event));
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  Op op;
  op.kind = OpKind::kSetNodeDemon;
  op.node = node;
  op.event = event;
  op.value = demon;
  return Execute(session.get(), &op);
}

Result<std::vector<DemonEntry>> Ham::GetNodeDemons(Context ctx,
                                                   NodeIndex node,
                                                   Time time) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getNodeDemons", "ham.op.demon");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  const NodeRecord* record = read.FindNode(node);
  if (record == nullptr) {
    return NodeNotFound(node);
  }
  return record->demons.GetAll(time);
}

// -------------------------------------- §5 extensions: contexts etc.

Result<ContextInfo> Ham::CreateContext(Context ctx, const std::string& name) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.createContext", "ham.op.context");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  GraphHandle* graph = session->graph.get();
  std::lock_guard<std::shared_mutex> lock(graph->mu);
  Op op;
  op.kind = OpKind::kCreateContext;
  op.arg = graph->state.AllocateThreadId();
  op.extra = name;
  op.thread = session->thread;
  op.time = graph->state.clock().Tick();
  // Like attribute interning, context creation commits immediately.
  NEPTUNE_RETURN_IF_ERROR(graph->state.Apply(op, /*txn=*/nullptr));
  NEPTUNE_RETURN_IF_ERROR(graph->store->AppendRecord(
      EncodeTransaction({op}), options_.sync_commits));
  return ContextInfo{op.arg, name, op.time};
}

Result<Context> Ham::OpenContext(Context ctx, ThreadId thread) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.openContext", "ham.op.context");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  if (thread != kMainThread && read.state().FindThread(thread) == nullptr) {
    return Status::NotFound("version thread " + std::to_string(thread) +
                            " does not exist");
  }
  read.lock.unlock();
  return AddSession(session->graph, thread);
}

Status Ham::MergeContext(Context ctx, ThreadId source, bool force) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.mergeContext", "ham.op.context");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->in_txn) {
    return Status::FailedPrecondition(
        "mergeContext must run outside an open transaction");
  }
  Op op;
  op.kind = OpKind::kMergeContext;
  op.arg = source;
  op.flag = force;
  return Execute(session.get(), &op);
}

Result<std::vector<ContextInfo>> Ham::ListContexts(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.listContexts", "ham.op.context");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  return read.state().ListThreads();
}

Status Ham::Checkpoint(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.checkpoint", "ham.op.admin");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  GraphHandle* graph = session->graph.get();
  Status status;
  {
    std::lock_guard<std::shared_mutex> lock(graph->mu);
    std::string snapshot;
    graph->state.EncodeTo(&snapshot);
    status = graph->store->Checkpoint(snapshot);
  }
  // The epoch changed; long-polling followers must re-read it.
  if (status.ok()) NotifyReplWaiters(graph);
  return status;
}

Result<GraphStats> Ham::GetStats(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.getStats", "ham.op.admin");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  GraphState::Stats stats = read.state().ComputeStats();
  GraphStats out;
  out.node_count = stats.node_count;
  out.link_count = stats.link_count;
  out.total_node_records = stats.total_node_records;
  out.total_link_records = stats.total_link_records;
  out.thread_count = stats.thread_count;
  out.attribute_count = stats.attribute_count;
  out.wal_bytes = read.graph->store->wal_bytes();
  out.current_time = read.state().clock().Last();
  return out;
}

Result<ThreadId> Ham::ContextThread(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.contextThread", "ham.op.context");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  return session->thread;
}

// ----------------------------------------------- local administration

Result<std::vector<std::string>> Ham::VerifyGraph(Context ctx) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.verifyGraph", "ham.op.admin");
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  ReadScope read(session);
  return read.state().CheckIntegrity();
}

Result<uint64_t> Ham::PruneHistory(Context ctx, Time before) {
  NEPTUNE_TRACE_SPAN(op_span, "ham.pruneHistory", "ham.op.admin");
  NEPTUNE_RETURN_IF_ERROR(RejectIfFollower());
  NEPTUNE_ASSIGN_OR_RETURN(LockedSession session, FindSession(ctx));
  if (session->in_txn) {
    return Status::FailedPrecondition(
        "pruneHistory must run outside an open transaction");
  }
  if (before == 0) {
    return Status::InvalidArgument("prune horizon must be a concrete time");
  }
  GraphHandle* graph = session->graph.get();
  std::unique_lock<std::shared_mutex> lock(graph->mu);
  graph->writer_cv.wait(lock, [&] { return graph->writer_session == 0; });
  Op op;
  op.kind = OpKind::kPruneHistory;
  op.arg = before;
  op.thread = kMainThread;
  op.time = graph->state.clock().Tick();
  // Count before applying (Apply returns no payload).
  NEPTUNE_RETURN_IF_ERROR(graph->state.Apply(op, /*txn=*/nullptr));
  NEPTUNE_RETURN_IF_ERROR(graph->store->AppendRecord(
      EncodeTransaction({op}), options_.sync_commits));
  // The reclaimed bytes only become real in a fresh snapshot.
  std::string snapshot;
  graph->state.EncodeTo(&snapshot);
  NEPTUNE_RETURN_IF_ERROR(graph->store->Checkpoint(snapshot));
  NotifyReplWaiters(graph);
  return static_cast<uint64_t>(snapshot.size());
}

}  // namespace ham
}  // namespace neptune
