// RecordingHam: a HamInterface decorator the load generator puts
// between each workstation's app-layer objects and its RemoteHam.
//
// It does three things, all client-side (nothing inside src/ is
// instrumented):
//   * counts every HAM call per action (always on, one increment);
//   * when the current action is traced, records one span per HAM call
//     (method, start, end, parent action id) — the per-layer split of
//     the traced run;
//   * captures what the app layer read (openNode contents, version
//     lists, server-side diffs) and what it wrote (modifyNode
//     contents), so the generator can check each action's outputs
//     against its own model after the action returns.

#ifndef NEPTUNE_BENCH_E2E_RECORDING_HAM_H_
#define NEPTUNE_BENCH_E2E_RECORDING_HAM_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ham/ham_interface.h"

namespace neptune {
namespace bench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// HAM methods the workload calls, named as on the wire.
enum class HamCall : uint8_t {
  kOpenGraph,
  kCloseGraph,
  kBeginTransaction,
  kCommitTransaction,
  kAbortTransaction,
  kAddNode,
  kAddLink,
  kLinearizeGraph,
  kGetGraphQuery,
  kOpenNode,
  kModifyNode,
  kGetNodeTimeStamp,
  kGetNodeVersions,
  kGetNodeDifferences,
  kGetToNode,
  kGetFromNode,
  kGetAttributeIndex,
  kSetNodeAttributeValue,
  kGetNodeAttributeValue,
  kSetLinkAttributeValue,
  kGetLinkAttributeValue,
  kOther,
  kCount
};

inline const char* HamCallName(HamCall call) {
  static const char* const kNames[] = {
      "openGraph",          "closeGraph",         "beginTransaction",
      "commitTransaction",  "abortTransaction",   "addNode",
      "addLink",            "linearizeGraph",     "getGraphQuery",
      "openNode",           "modifyNode",         "getNodeTimeStamp",
      "getNodeVersions",    "getNodeDifferences", "getToNode",
      "getFromNode",        "getAttributeIndex",  "setNodeAttributeValue",
      "getNodeAttributeValue", "setLinkAttributeValue",
      "getLinkAttributeValue", "other"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(HamCall::kCount));
  return kNames[static_cast<size_t>(call)];
}

inline bool IsReadCall(HamCall call) {
  switch (call) {
    case HamCall::kLinearizeGraph:
    case HamCall::kGetGraphQuery:
    case HamCall::kOpenNode:
    case HamCall::kGetNodeTimeStamp:
    case HamCall::kGetNodeVersions:
    case HamCall::kGetNodeDifferences:
    case HamCall::kGetToNode:
    case HamCall::kGetFromNode:
    case HamCall::kGetNodeAttributeValue:
    case HamCall::kGetLinkAttributeValue:
      return true;
    default:
      return false;
  }
}

struct CallSpan {
  HamCall call;
  uint64_t start_ns;
  uint64_t end_ns;
};

struct OpenedNode {
  ham::NodeIndex node;
  ham::Time time;
  std::string contents;
};

struct ModifiedNode {
  ham::NodeIndex node;
  std::string contents;
};

class RecordingHam final : public ham::HamInterface {
 public:
  explicit RecordingHam(ham::HamInterface* inner) : inner_(inner) {}

  // Starts a new action: clears the per-action capture and decides
  // whether its calls are timed.
  void BeginAction(bool traced) {
    traced_ = traced;
    calls_ = 0;
    read_calls_ = 0;
    spans_.clear();
    opened_.clear();
    modified_.clear();
    versions_.clear();
    differences_.clear();
  }

  // Per-action results, valid until the next BeginAction.
  uint32_t calls() const { return calls_; }
  uint32_t read_calls() const { return read_calls_; }
  const std::vector<CallSpan>& spans() const { return spans_; }
  const std::vector<OpenedNode>& opened() const { return opened_; }
  const std::vector<ModifiedNode>& modified() const { return modified_; }
  const std::vector<ham::NodeVersions>& versions() const { return versions_; }
  const std::vector<std::vector<delta::Difference>>& differences() const {
    return differences_;
  }

  // HamInterface ------------------------------------------------------
  Result<ham::CreateGraphResult> CreateGraph(const std::string& directory,
                                             uint32_t protections) override {
    Scope s(this, HamCall::kOther);
    return inner_->CreateGraph(directory, protections);
  }
  Status DestroyGraph(ham::ProjectId project,
                      const std::string& directory) override {
    Scope s(this, HamCall::kOther);
    return inner_->DestroyGraph(project, directory);
  }
  Result<ham::Context> OpenGraph(ham::ProjectId project,
                                 const std::string& machine,
                                 const std::string& directory) override {
    Scope s(this, HamCall::kOpenGraph);
    return inner_->OpenGraph(project, machine, directory);
  }
  Status CloseGraph(ham::Context ctx) override {
    Scope s(this, HamCall::kCloseGraph);
    return inner_->CloseGraph(ctx);
  }
  Status BeginTransaction(ham::Context ctx) override {
    Scope s(this, HamCall::kBeginTransaction);
    return inner_->BeginTransaction(ctx);
  }
  Status CommitTransaction(ham::Context ctx) override {
    Scope s(this, HamCall::kCommitTransaction);
    return inner_->CommitTransaction(ctx);
  }
  Status AbortTransaction(ham::Context ctx) override {
    Scope s(this, HamCall::kAbortTransaction);
    return inner_->AbortTransaction(ctx);
  }
  Result<ham::AddNodeResult> AddNode(ham::Context ctx,
                                     bool keep_history) override {
    Scope s(this, HamCall::kAddNode);
    return inner_->AddNode(ctx, keep_history);
  }
  Status DeleteNode(ham::Context ctx, ham::NodeIndex node) override {
    Scope s(this, HamCall::kOther);
    return inner_->DeleteNode(ctx, node);
  }
  Result<ham::AddLinkResult> AddLink(ham::Context ctx, const ham::LinkPt& from,
                                     const ham::LinkPt& to) override {
    Scope s(this, HamCall::kAddLink);
    return inner_->AddLink(ctx, from, to);
  }
  Result<ham::AddLinkResult> CopyLink(ham::Context ctx, ham::LinkIndex link,
                                      ham::Time time, bool copy_source,
                                      const ham::LinkPt& other) override {
    Scope s(this, HamCall::kOther);
    return inner_->CopyLink(ctx, link, time, copy_source, other);
  }
  Status DeleteLink(ham::Context ctx, ham::LinkIndex link) override {
    Scope s(this, HamCall::kOther);
    return inner_->DeleteLink(ctx, link);
  }
  Result<ham::SubGraph> LinearizeGraph(
      ham::Context ctx, ham::NodeIndex start, ham::Time time,
      const std::string& node_pred, const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs) override {
    Scope s(this, HamCall::kLinearizeGraph);
    return inner_->LinearizeGraph(ctx, start, time, node_pred, link_pred,
                                  node_attrs, link_attrs);
  }
  Result<ham::SubGraph> GetGraphQuery(
      ham::Context ctx, ham::Time time, const std::string& node_pred,
      const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs) override {
    Scope s(this, HamCall::kGetGraphQuery);
    return inner_->GetGraphQuery(ctx, time, node_pred, link_pred, node_attrs,
                                 link_attrs);
  }
  Result<ham::OpenNodeResult> OpenNode(
      ham::Context ctx, ham::NodeIndex node, ham::Time time,
      const std::vector<ham::AttributeIndex>& attrs) override {
    Result<ham::OpenNodeResult> result = [&] {
      Scope s(this, HamCall::kOpenNode);
      return inner_->OpenNode(ctx, node, time, attrs);
    }();
    if (result.ok()) opened_.push_back({node, time, result->contents});
    return result;
  }
  Status ModifyNode(ham::Context ctx, ham::NodeIndex node,
                    ham::Time expected_time, const std::string& contents,
                    const std::vector<ham::AttachmentUpdate>& attachments,
                    const std::string& explanation) override {
    Status status = [&] {
      Scope s(this, HamCall::kModifyNode);
      return inner_->ModifyNode(ctx, node, expected_time, contents,
                                attachments, explanation);
    }();
    if (status.ok()) modified_.push_back({node, contents});
    return status;
  }
  Result<ham::Time> GetNodeTimeStamp(ham::Context ctx,
                                     ham::NodeIndex node) override {
    Scope s(this, HamCall::kGetNodeTimeStamp);
    return inner_->GetNodeTimeStamp(ctx, node);
  }
  Status ChangeNodeProtection(ham::Context ctx, ham::NodeIndex node,
                              uint32_t protections) override {
    Scope s(this, HamCall::kOther);
    return inner_->ChangeNodeProtection(ctx, node, protections);
  }
  Result<ham::NodeVersions> GetNodeVersions(ham::Context ctx,
                                            ham::NodeIndex node) override {
    Result<ham::NodeVersions> result = [&] {
      Scope s(this, HamCall::kGetNodeVersions);
      return inner_->GetNodeVersions(ctx, node);
    }();
    if (result.ok()) versions_.push_back(*result);
    return result;
  }
  Result<std::vector<delta::Difference>> GetNodeDifferences(
      ham::Context ctx, ham::NodeIndex node, ham::Time t1,
      ham::Time t2) override {
    Result<std::vector<delta::Difference>> result = [&] {
      Scope s(this, HamCall::kGetNodeDifferences);
      return inner_->GetNodeDifferences(ctx, node, t1, t2);
    }();
    if (result.ok()) differences_.push_back(*result);
    return result;
  }
  Result<ham::LinkEndResult> GetToNode(ham::Context ctx, ham::LinkIndex link,
                                       ham::Time time) override {
    Scope s(this, HamCall::kGetToNode);
    return inner_->GetToNode(ctx, link, time);
  }
  Result<ham::LinkEndResult> GetFromNode(ham::Context ctx, ham::LinkIndex link,
                                         ham::Time time) override {
    Scope s(this, HamCall::kGetFromNode);
    return inner_->GetFromNode(ctx, link, time);
  }
  Result<std::vector<ham::AttributeEntry>> GetAttributes(
      ham::Context ctx, ham::Time time) override {
    Scope s(this, HamCall::kOther);
    return inner_->GetAttributes(ctx, time);
  }
  Result<std::vector<std::string>> GetAttributeValues(
      ham::Context ctx, ham::AttributeIndex attr, ham::Time time) override {
    Scope s(this, HamCall::kOther);
    return inner_->GetAttributeValues(ctx, attr, time);
  }
  Result<ham::AttributeIndex> GetAttributeIndex(
      ham::Context ctx, const std::string& name) override {
    Scope s(this, HamCall::kGetAttributeIndex);
    return inner_->GetAttributeIndex(ctx, name);
  }
  Status SetNodeAttributeValue(ham::Context ctx, ham::NodeIndex node,
                               ham::AttributeIndex attr,
                               const std::string& value) override {
    Scope s(this, HamCall::kSetNodeAttributeValue);
    return inner_->SetNodeAttributeValue(ctx, node, attr, value);
  }
  Status DeleteNodeAttribute(ham::Context ctx, ham::NodeIndex node,
                             ham::AttributeIndex attr) override {
    Scope s(this, HamCall::kOther);
    return inner_->DeleteNodeAttribute(ctx, node, attr);
  }
  Result<std::string> GetNodeAttributeValue(ham::Context ctx,
                                            ham::NodeIndex node,
                                            ham::AttributeIndex attr,
                                            ham::Time time) override {
    Scope s(this, HamCall::kGetNodeAttributeValue);
    return inner_->GetNodeAttributeValue(ctx, node, attr, time);
  }
  Result<std::vector<ham::AttributeValueEntry>> GetNodeAttributes(
      ham::Context ctx, ham::NodeIndex node, ham::Time time) override {
    Scope s(this, HamCall::kOther);
    return inner_->GetNodeAttributes(ctx, node, time);
  }
  Status SetLinkAttributeValue(ham::Context ctx, ham::LinkIndex link,
                               ham::AttributeIndex attr,
                               const std::string& value) override {
    Scope s(this, HamCall::kSetLinkAttributeValue);
    return inner_->SetLinkAttributeValue(ctx, link, attr, value);
  }
  Status DeleteLinkAttribute(ham::Context ctx, ham::LinkIndex link,
                             ham::AttributeIndex attr) override {
    Scope s(this, HamCall::kOther);
    return inner_->DeleteLinkAttribute(ctx, link, attr);
  }
  Result<std::string> GetLinkAttributeValue(ham::Context ctx,
                                            ham::LinkIndex link,
                                            ham::AttributeIndex attr,
                                            ham::Time time) override {
    Scope s(this, HamCall::kGetLinkAttributeValue);
    return inner_->GetLinkAttributeValue(ctx, link, attr, time);
  }
  Result<std::vector<ham::AttributeValueEntry>> GetLinkAttributes(
      ham::Context ctx, ham::LinkIndex link, ham::Time time) override {
    Scope s(this, HamCall::kOther);
    return inner_->GetLinkAttributes(ctx, link, time);
  }
  Status SetGraphDemonValue(ham::Context ctx, ham::Event event,
                            const std::string& demon) override {
    Scope s(this, HamCall::kOther);
    return inner_->SetGraphDemonValue(ctx, event, demon);
  }
  Result<std::vector<ham::DemonEntry>> GetGraphDemons(ham::Context ctx,
                                                      ham::Time time) override {
    Scope s(this, HamCall::kOther);
    return inner_->GetGraphDemons(ctx, time);
  }
  Status SetNodeDemon(ham::Context ctx, ham::NodeIndex node, ham::Event event,
                      const std::string& demon) override {
    Scope s(this, HamCall::kOther);
    return inner_->SetNodeDemon(ctx, node, event, demon);
  }
  Result<std::vector<ham::DemonEntry>> GetNodeDemons(ham::Context ctx,
                                                     ham::NodeIndex node,
                                                     ham::Time time) override {
    Scope s(this, HamCall::kOther);
    return inner_->GetNodeDemons(ctx, node, time);
  }
  Result<ham::ContextInfo> CreateContext(ham::Context ctx,
                                         const std::string& name) override {
    Scope s(this, HamCall::kOther);
    return inner_->CreateContext(ctx, name);
  }
  Result<ham::Context> OpenContext(ham::Context ctx,
                                   ham::ThreadId thread) override {
    Scope s(this, HamCall::kOther);
    return inner_->OpenContext(ctx, thread);
  }
  Status MergeContext(ham::Context ctx, ham::ThreadId source,
                      bool force) override {
    Scope s(this, HamCall::kOther);
    return inner_->MergeContext(ctx, source, force);
  }
  Result<std::vector<ham::ContextInfo>> ListContexts(
      ham::Context ctx) override {
    Scope s(this, HamCall::kOther);
    return inner_->ListContexts(ctx);
  }
  Status Checkpoint(ham::Context ctx) override {
    Scope s(this, HamCall::kOther);
    return inner_->Checkpoint(ctx);
  }
  Result<ham::GraphStats> GetStats(ham::Context ctx) override {
    Scope s(this, HamCall::kOther);
    return inner_->GetStats(ctx);
  }
  Result<ham::ThreadId> ContextThread(ham::Context ctx) override {
    Scope s(this, HamCall::kOther);
    return inner_->ContextThread(ctx);
  }

 private:
  // Counts one call and, for traced actions, times it as a span.
  class Scope {
   public:
    Scope(RecordingHam* owner, HamCall call)
        : owner_(owner),
          call_(call),
          start_(owner->traced_ ? NowNanos() : 0) {
      ++owner_->calls_;
      if (IsReadCall(call)) ++owner_->read_calls_;
    }
    ~Scope() {
      if (owner_->traced_) owner_->spans_.push_back({call_, start_, NowNanos()});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RecordingHam* owner_;
    HamCall call_;
    uint64_t start_;
  };

  ham::HamInterface* inner_;
  bool traced_ = false;
  uint32_t calls_ = 0;
  uint32_t read_calls_ = 0;
  std::vector<CallSpan> spans_;
  std::vector<OpenedNode> opened_;
  std::vector<ModifiedNode> modified_;
  std::vector<ham::NodeVersions> versions_;
  std::vector<std::vector<delta::Difference>> differences_;
};

}  // namespace bench
}  // namespace neptune

#endif  // NEPTUNE_BENCH_E2E_RECORDING_HAM_H_
