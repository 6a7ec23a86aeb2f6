#include "rpc/methods.h"

#include <tuple>
#include <type_traits>

#include "common/metrics.h"
#include "common/trace.h"
#include "obs/window.h"
#include "rpc/codec.h"
#include "rpc/dispatch.h"

namespace neptune {
namespace rpc {

namespace {

using ham::Context;
using ham::HamInterface;

std::string Reply(const Status& status) { return StatusReply(status); }

template <typename T>
std::string Reply(const Result<T>& result) {
  std::string reply;
  EncodeStatusTo(result.ok() ? Status::OK() : result.status(), &reply);
  if (result.ok()) Codec<T>::Encode(*result, &reply);
  return reply;
}

// Appends one per-item batch result: status, then the value when OK.
template <typename T, typename Encode>
void AppendItem(const Result<T>& result, Encode encode, std::string* reply) {
  EncodeStatusTo(result.ok() ? Status::OK() : result.status(), reply);
  if (result.ok()) encode(*result, reply);
}

template <typename M>
struct MemberArgs;
template <typename R, typename... A>
struct MemberArgs<R (HamInterface::*)(A...)> {
  using type = std::tuple<std::remove_cvref_t<A>...>;
};

// What a one-to-one method does to the connection's session set.
enum class Sessions { kKeep, kOpen, kClose };

// The generic handler: decodes the arguments of `kMember` by its
// parameter types, calls it and encodes its Result.
template <auto kMember, Sessions kEffect = Sessions::kKeep>
std::optional<std::string> Serve(HamInterface* ham, std::string_view in,
                                 SessionSet* sessions) {
  typename MemberArgs<decltype(kMember)>::type args;
  if (!std::apply([&](auto&... a) { return DecodeArgs(&in, &a...); }, args)) {
    return std::nullopt;
  }
  auto result =
      std::apply([&](auto&... a) { return (ham->*kMember)(a...); }, args);
  if constexpr (kEffect == Sessions::kOpen) {
    if (result.ok()) sessions->Insert(result->session);
  } else if constexpr (kEffect == Sessions::kClose) {
    if (result.ok()) sessions->Erase(std::get<0>(args).session);
  }
  return Reply(result);
}

// ------------------------------------------------ hand-written methods

std::optional<std::string> Ping(HamInterface*, std::string_view in,
                                SessionSet*) {
  std::string reply = StatusReply(Status::OK());
  reply.append(in);  // echo
  return reply;
}

// The diagnostics are server-wide, so they take no Context: any client
// may ask, even before it has opened a graph.
std::optional<std::string> GetServerStatistics(HamInterface*,
                                               std::string_view, SessionSet*) {
  std::string reply = StatusReply(Status::OK());
  MetricsRegistry::Instance().Snapshot().EncodeTo(&reply);
  return reply;
}

// Windowed rates from the process-wide sample ring. A server without a
// sampler answers elapsed_us = 0 and an empty delta — still OK, so
// `neptune_ctl top` can tell "no sampler" from "no traffic".
std::optional<std::string> GetServerStatisticsDelta(HamInterface*,
                                                    std::string_view in,
                                                    SessionSet*) {
  uint64_t window_s = 0;
  if (!DecodeArgs(&in, &window_s) || window_s == 0) return std::nullopt;
  MetricsSnapshot delta;
  uint64_t elapsed_us = 0;
  obs::MetricsWindow::Instance().Delta(window_s * 1'000'000, &delta,
                                       &elapsed_us);
  std::string reply = StatusReply(Status::OK());
  PutVarint64(&reply, elapsed_us);
  delta.EncodeTo(&reply);
  return reply;
}

std::optional<std::string> GetRecentTraces(HamInterface*, std::string_view,
                                           SessionSet*) {
  std::string reply = StatusReply(Status::OK());
  EncodeTracesTo(Tracer::Instance().RecentTraces(), &reply);
  return reply;
}

std::optional<std::string> GetSlowOps(HamInterface*, std::string_view,
                                      SessionSet*) {
  std::string reply = StatusReply(Status::OK());
  EncodeSpansTo(Tracer::Instance().SlowOps(), &reply);
  return reply;
}

// Batch openNode: ctx | time | attrs | nodes in; count | {status |
// OpenNodeResult-if-ok}* out.
std::optional<std::string> OpenNodes(HamInterface* ham, std::string_view in,
                                     SessionSet*) {
  Context ctx;
  ham::Time time = 0;
  std::vector<ham::AttributeIndex> attrs;
  std::vector<ham::NodeIndex> nodes;
  if (!DecodeArgs(&in, &ctx, &time, &attrs, &nodes)) return std::nullopt;
  NEPTUNE_METRIC_COUNT("rpc.server.batch_items", nodes.size());
  std::string reply = StatusReply(Status::OK());
  PutVarint64(&reply, nodes.size());
  for (ham::NodeIndex node : nodes) {
    AppendItem(ham->OpenNode(ctx, node, time, attrs),
               Codec<ham::OpenNodeResult>::Encode, &reply);
  }
  return reply;
}

// Batch attribute read over mixed node/link targets: ctx | time |
// AttributeFetch* in; count | {status | value-if-ok}* out.
std::optional<std::string> GetAttributeValuesBatch(HamInterface* ham,
                                                   std::string_view in,
                                                   SessionSet*) {
  Context ctx;
  ham::Time time = 0;
  std::vector<AttributeFetch> fetches;
  if (!DecodeArgs(&in, &ctx, &time, &fetches)) return std::nullopt;
  NEPTUNE_METRIC_COUNT("rpc.server.batch_items", fetches.size());
  std::string reply = StatusReply(Status::OK());
  PutVarint64(&reply, fetches.size());
  for (const AttributeFetch& f : fetches) {
    AppendItem(f.is_link
                   ? ham->GetLinkAttributeValue(ctx, f.entity, f.attr, time)
                   : ham->GetNodeAttributeValue(ctx, f.entity, f.attr, time),
               Codec<std::string>::Encode, &reply);
  }
  return reply;
}

// linearizeGraph plus the contents of every node it returns, in one
// round trip — the SubGraph carries structure and attributes but not
// contents, so a browser prefetching a document would otherwise pay one
// openNode round trip per node. Reply: SubGraph | count | {status |
// contents | version_time}*.
std::optional<std::string> LinearizeAndFetch(HamInterface* ham,
                                             std::string_view in,
                                             SessionSet*) {
  Context ctx;
  ham::NodeIndex start = 0;
  ham::Time time = 0;
  std::string node_pred;
  std::string link_pred;
  std::vector<ham::AttributeIndex> node_attrs;
  std::vector<ham::AttributeIndex> link_attrs;
  if (!DecodeArgs(&in, &ctx, &start, &time, &node_pred, &link_pred,
                  &node_attrs, &link_attrs)) {
    return std::nullopt;
  }
  Result<ham::SubGraph> graph = ham->LinearizeGraph(
      ctx, start, time, node_pred, link_pred, node_attrs, link_attrs);
  if (!graph.ok()) return StatusReply(graph.status());
  NEPTUNE_METRIC_COUNT("rpc.server.batch_items", graph->nodes.size());
  std::string reply = Reply(graph);
  PutVarint64(&reply, graph->nodes.size());
  for (const ham::SubGraphNode& n : graph->nodes) {
    AppendItem(ham->OpenNode(ctx, n.node, time, {}),
               [](const ham::OpenNodeResult& r, std::string* out) {
                 EncodeArgs(out, r.contents, r.current_version_time);
               },
               &reply);
  }
  return reply;
}

// ------------------------------------------------------------ the table

using H = HamInterface;
using M = Method;
using C = MethodClass;

constexpr MethodInfo kMethods[] = {
    // A.1 graph operations and transactions.
    {M::kCreateGraph, "createGraph", C::kMutation, &Serve<&H::CreateGraph>},
    {M::kDestroyGraph, "destroyGraph", C::kMutation,
     &Serve<&H::DestroyGraph>},
    {M::kOpenGraph, "openGraph", C::kMutation,
     &Serve<&H::OpenGraph, Sessions::kOpen>},
    {M::kCloseGraph, "closeGraph", C::kRelease,
     &Serve<&H::CloseGraph, Sessions::kClose>},
    {M::kBeginTransaction, "beginTransaction", C::kMutation,
     &Serve<&H::BeginTransaction>},
    {M::kCommitTransaction, "commitTransaction", C::kRelease,
     &Serve<&H::CommitTransaction>},
    {M::kAbortTransaction, "abortTransaction", C::kRelease,
     &Serve<&H::AbortTransaction>},
    {M::kAddNode, "addNode", C::kMutation, &Serve<&H::AddNode>},
    {M::kDeleteNode, "deleteNode", C::kMutation, &Serve<&H::DeleteNode>},
    {M::kAddLink, "addLink", C::kMutation, &Serve<&H::AddLink>},
    {M::kCopyLink, "copyLink", C::kMutation, &Serve<&H::CopyLink>},
    {M::kDeleteLink, "deleteLink", C::kMutation, &Serve<&H::DeleteLink>},
    {M::kLinearizeGraph, "linearizeGraph", C::kRead,
     &Serve<&H::LinearizeGraph>},
    {M::kGetGraphQuery, "getGraphQuery", C::kRead, &Serve<&H::GetGraphQuery>},
    {M::kGetGraphQueryExplained, "getGraphQueryExplained", C::kRead,
     &Serve<&H::GetGraphQueryExplained>},
    // A.2 node operations.
    {M::kOpenNode, "openNode", C::kRead, &Serve<&H::OpenNode>},
    {M::kModifyNode, "modifyNode", C::kMutation, &Serve<&H::ModifyNode>},
    {M::kGetNodeTimeStamp, "getNodeTimeStamp", C::kRead,
     &Serve<&H::GetNodeTimeStamp>},
    {M::kChangeNodeProtection, "changeNodeProtection", C::kMutation,
     &Serve<&H::ChangeNodeProtection>},
    {M::kGetNodeVersions, "getNodeVersions", C::kRead,
     &Serve<&H::GetNodeVersions>},
    {M::kGetNodeDifferences, "getNodeDifferences", C::kRead,
     &Serve<&H::GetNodeDifferences>},
    // A.3 link operations.
    {M::kGetToNode, "getToNode", C::kRead, &Serve<&H::GetToNode>},
    {M::kGetFromNode, "getFromNode", C::kRead, &Serve<&H::GetFromNode>},
    // A.4 attribute operations.
    {M::kGetAttributes, "getAttributes", C::kRead, &Serve<&H::GetAttributes>},
    {M::kGetAttributeValues, "getAttributeValues", C::kRead,
     &Serve<&H::GetAttributeValues>},
    {M::kGetAttributeIndex, "getAttributeIndex", C::kRead,
     &Serve<&H::GetAttributeIndex>},
    {M::kSetNodeAttributeValue, "setNodeAttributeValue", C::kMutation,
     &Serve<&H::SetNodeAttributeValue>},
    {M::kDeleteNodeAttribute, "deleteNodeAttribute", C::kMutation,
     &Serve<&H::DeleteNodeAttribute>},
    {M::kGetNodeAttributeValue, "getNodeAttributeValue", C::kRead,
     &Serve<&H::GetNodeAttributeValue>},
    {M::kGetNodeAttributes, "getNodeAttributes", C::kRead,
     &Serve<&H::GetNodeAttributes>},
    {M::kSetLinkAttributeValue, "setLinkAttributeValue", C::kMutation,
     &Serve<&H::SetLinkAttributeValue>},
    {M::kDeleteLinkAttribute, "deleteLinkAttribute", C::kMutation,
     &Serve<&H::DeleteLinkAttribute>},
    {M::kGetLinkAttributeValue, "getLinkAttributeValue", C::kRead,
     &Serve<&H::GetLinkAttributeValue>},
    {M::kGetLinkAttributes, "getLinkAttributes", C::kRead,
     &Serve<&H::GetLinkAttributes>},
    // A.5 demon operations.
    {M::kSetGraphDemonValue, "setGraphDemonValue", C::kMutation,
     &Serve<&H::SetGraphDemonValue>},
    {M::kGetGraphDemons, "getGraphDemons", C::kRead,
     &Serve<&H::GetGraphDemons>},
    {M::kSetNodeDemon, "setNodeDemon", C::kMutation, &Serve<&H::SetNodeDemon>},
    {M::kGetNodeDemons, "getNodeDemons", C::kRead, &Serve<&H::GetNodeDemons>},
    // §5 contexts and maintenance.
    {M::kCreateContext, "createContext", C::kMutation,
     &Serve<&H::CreateContext>},
    {M::kOpenContext, "openContext", C::kMutation,
     &Serve<&H::OpenContext, Sessions::kOpen>},
    {M::kMergeContext, "mergeContext", C::kMutation,
     &Serve<&H::MergeContext>},
    {M::kListContexts, "listContexts", C::kRead, &Serve<&H::ListContexts>},
    {M::kCheckpoint, "checkpoint", C::kMutation, &Serve<&H::Checkpoint>},
    {M::kGetStats, "getStats", C::kRead, &Serve<&H::GetStats>},
    {M::kContextThread, "contextThread", C::kRead, &Serve<&H::ContextThread>},
    // Replication. A fetch is a pure read of committed WAL bytes (the
    // ack it carries is monotonic and safe to repeat), but it may
    // long-poll for new commits.
    {M::kReplFetch, "replFetch", C::kRead, &Serve<&H::ReplFetch>},
    {M::kReplStatus, "replStatus", C::kRead, &Serve<&H::ReplStatus>},
    {M::kReplListGraphs, "replListGraphs", C::kRead,
     &Serve<&H::ReplListGraphs>},
    {M::kReplPromote, "replPromote", C::kMutation, &Serve<&H::Promote>},
    // Hand-written: diagnostics and batches.
    {M::kPing, "ping", C::kDiagnostic, &Ping},
    {M::kGetServerStatistics, "getServerStatistics", C::kDiagnostic,
     &GetServerStatistics},
    {M::kGetServerStatisticsDelta, "getServerStatisticsDelta",
     C::kDiagnostic, &GetServerStatisticsDelta},
    {M::kGetRecentTraces, "getRecentTraces", C::kDiagnostic,
     &GetRecentTraces},
    {M::kGetSlowOps, "getSlowOps", C::kDiagnostic, &GetSlowOps},
    {M::kOpenNodes, "openNodes", C::kRead, &OpenNodes},
    {M::kGetAttributeValuesBatch, "getAttributeValuesBatch", C::kRead,
     &GetAttributeValuesBatch},
    {M::kLinearizeAndFetch, "linearizeAndFetch", C::kRead,
     &LinearizeAndFetch},
};

constexpr std::array<MethodInfo, 256> ByByte() {
  std::array<MethodInfo, 256> by_byte{};
  by_byte.fill({Method{0}, "unknown", MethodClass::kMutation, nullptr});
  for (const MethodInfo& info : kMethods) {
    by_byte[static_cast<uint8_t>(info.method)] = info;
  }
  return by_byte;
}

constexpr std::array<MethodInfo, 256> kByByte = ByByte();

// Every id is used once, and stays below the extension flag bits.
constexpr bool IdsAreDistinctAndPlain() {
  std::array<bool, 256> seen{};
  for (const MethodInfo& info : kMethods) {
    const uint8_t id = static_cast<uint8_t>(info.method);
    if (id == 0 || id >= kRequestIdFlag || seen[id]) return false;
    seen[id] = true;
  }
  return true;
}
static_assert(IdsAreDistinctAndPlain(),
              "method table ids must be distinct, non-zero and below "
              "kRequestIdFlag");

}  // namespace

const MethodInfo& Describe(Method method) {
  return kByByte[static_cast<uint8_t>(method)];
}

bool IsIdempotent(Method method) {
  switch (Describe(method).cls) {
    case MethodClass::kRead:
    case MethodClass::kDiagnostic:
      return true;
    case MethodClass::kMutation:
    case MethodClass::kRelease:
      return false;
  }
  return false;
}

bool IsAlwaysAdmitted(Method method) {
  const MethodClass cls = Describe(method).cls;
  return cls == MethodClass::kRelease || cls == MethodClass::kDiagnostic;
}

}  // namespace rpc
}  // namespace neptune
