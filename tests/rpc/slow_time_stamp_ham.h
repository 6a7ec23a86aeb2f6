// A HamInterface for RPC tests that forwards to a real Ham, with an
// adjustable delay injected into GetNodeTimeStamp: the slow read that
// tests race against a fast OpenNode.

#ifndef NEPTUNE_TESTS_RPC_SLOW_TIME_STAMP_HAM_H_
#define NEPTUNE_TESTS_RPC_SLOW_TIME_STAMP_HAM_H_

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ham/ham_interface.h"

namespace neptune {
namespace rpc {

class SlowTimeStampHam final : public ham::HamInterface {
 public:
  explicit SlowTimeStampHam(ham::HamInterface* base) : base_(base) {}

  std::atomic<int> time_stamp_delay_ms{0};

  Result<ham::CreateGraphResult> CreateGraph(const std::string& directory,
                                             uint32_t protections) override {
    return base_->CreateGraph(directory, protections);
  }
  Status DestroyGraph(ham::ProjectId project,
                      const std::string& directory) override {
    return base_->DestroyGraph(project, directory);
  }
  Result<ham::Context> OpenGraph(ham::ProjectId project, const std::string& machine,
                            const std::string& directory) override {
    return base_->OpenGraph(project, machine, directory);
  }
  Status CloseGraph(ham::Context ctx) override { return base_->CloseGraph(ctx); }

  Status BeginTransaction(ham::Context ctx) override {
    return base_->BeginTransaction(ctx);
  }
  Status CommitTransaction(ham::Context ctx) override {
    return base_->CommitTransaction(ctx);
  }
  Status AbortTransaction(ham::Context ctx) override {
    return base_->AbortTransaction(ctx);
  }

  Result<ham::AddNodeResult> AddNode(ham::Context ctx, bool keep_history) override {
    return base_->AddNode(ctx, keep_history);
  }
  Status DeleteNode(ham::Context ctx, ham::NodeIndex node) override {
    return base_->DeleteNode(ctx, node);
  }
  Result<ham::AddLinkResult> AddLink(ham::Context ctx, const ham::LinkPt& from,
                                     const ham::LinkPt& to) override {
    return base_->AddLink(ctx, from, to);
  }
  Result<ham::AddLinkResult> CopyLink(ham::Context ctx, ham::LinkIndex link,
                                      ham::Time time, bool copy_source,
                                      const ham::LinkPt& other) override {
    return base_->CopyLink(ctx, link, time, copy_source, other);
  }
  Status DeleteLink(ham::Context ctx, ham::LinkIndex link) override {
    return base_->DeleteLink(ctx, link);
  }

  Result<ham::SubGraph> LinearizeGraph(
      ham::Context ctx, ham::NodeIndex start, ham::Time time,
      const std::string& node_pred, const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs) override {
    return base_->LinearizeGraph(ctx, start, time, node_pred, link_pred,
                                 node_attrs, link_attrs);
  }
  Result<ham::SubGraph> GetGraphQuery(
      ham::Context ctx, ham::Time time, const std::string& node_pred,
      const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs) override {
    return base_->GetGraphQuery(ctx, time, node_pred, link_pred, node_attrs,
                                link_attrs);
  }

  Result<ham::OpenNodeResult> OpenNode(
      ham::Context ctx, ham::NodeIndex node, ham::Time time,
      const std::vector<ham::AttributeIndex>& attrs) override {
    return base_->OpenNode(ctx, node, time, attrs);
  }
  Status ModifyNode(ham::Context ctx, ham::NodeIndex node, ham::Time expected_time,
                    const std::string& contents,
                    const std::vector<ham::AttachmentUpdate>& attachments,
                    const std::string& explanation) override {
    return base_->ModifyNode(ctx, node, expected_time, contents, attachments,
                             explanation);
  }
  Result<ham::Time> GetNodeTimeStamp(ham::Context ctx,
                                     ham::NodeIndex node) override {
    const int delay = time_stamp_delay_ms.load();
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    return base_->GetNodeTimeStamp(ctx, node);
  }
  Status ChangeNodeProtection(ham::Context ctx, ham::NodeIndex node,
                              uint32_t protections) override {
    return base_->ChangeNodeProtection(ctx, node, protections);
  }
  Result<ham::NodeVersions> GetNodeVersions(ham::Context ctx,
                                            ham::NodeIndex node) override {
    return base_->GetNodeVersions(ctx, node);
  }
  Result<std::vector<delta::Difference>> GetNodeDifferences(
      ham::Context ctx, ham::NodeIndex node, ham::Time t1, ham::Time t2) override {
    return base_->GetNodeDifferences(ctx, node, t1, t2);
  }

  Result<ham::LinkEndResult> GetToNode(ham::Context ctx, ham::LinkIndex link,
                                       ham::Time time) override {
    return base_->GetToNode(ctx, link, time);
  }
  Result<ham::LinkEndResult> GetFromNode(ham::Context ctx, ham::LinkIndex link,
                                         ham::Time time) override {
    return base_->GetFromNode(ctx, link, time);
  }

  Result<std::vector<ham::AttributeEntry>> GetAttributes(
      ham::Context ctx, ham::Time time) override {
    return base_->GetAttributes(ctx, time);
  }
  Result<std::vector<std::string>> GetAttributeValues(
      ham::Context ctx, ham::AttributeIndex attr, ham::Time time) override {
    return base_->GetAttributeValues(ctx, attr, time);
  }
  Result<ham::AttributeIndex> GetAttributeIndex(
      ham::Context ctx, const std::string& name) override {
    return base_->GetAttributeIndex(ctx, name);
  }

  Status SetNodeAttributeValue(ham::Context ctx, ham::NodeIndex node,
                               ham::AttributeIndex attr,
                               const std::string& value) override {
    return base_->SetNodeAttributeValue(ctx, node, attr, value);
  }
  Status DeleteNodeAttribute(ham::Context ctx, ham::NodeIndex node,
                             ham::AttributeIndex attr) override {
    return base_->DeleteNodeAttribute(ctx, node, attr);
  }
  Result<std::string> GetNodeAttributeValue(ham::Context ctx, ham::NodeIndex node,
                                            ham::AttributeIndex attr,
                                            ham::Time time) override {
    return base_->GetNodeAttributeValue(ctx, node, attr, time);
  }
  Result<std::vector<ham::AttributeValueEntry>> GetNodeAttributes(
      ham::Context ctx, ham::NodeIndex node, ham::Time time) override {
    return base_->GetNodeAttributes(ctx, node, time);
  }

  Status SetLinkAttributeValue(ham::Context ctx, ham::LinkIndex link,
                               ham::AttributeIndex attr,
                               const std::string& value) override {
    return base_->SetLinkAttributeValue(ctx, link, attr, value);
  }
  Status DeleteLinkAttribute(ham::Context ctx, ham::LinkIndex link,
                             ham::AttributeIndex attr) override {
    return base_->DeleteLinkAttribute(ctx, link, attr);
  }
  Result<std::string> GetLinkAttributeValue(ham::Context ctx, ham::LinkIndex link,
                                            ham::AttributeIndex attr,
                                            ham::Time time) override {
    return base_->GetLinkAttributeValue(ctx, link, attr, time);
  }
  Result<std::vector<ham::AttributeValueEntry>> GetLinkAttributes(
      ham::Context ctx, ham::LinkIndex link, ham::Time time) override {
    return base_->GetLinkAttributes(ctx, link, time);
  }

  Status SetGraphDemonValue(ham::Context ctx, ham::Event event,
                            const std::string& demon) override {
    return base_->SetGraphDemonValue(ctx, event, demon);
  }
  Result<std::vector<ham::DemonEntry>> GetGraphDemons(
      ham::Context ctx, ham::Time time) override {
    return base_->GetGraphDemons(ctx, time);
  }
  Status SetNodeDemon(ham::Context ctx, ham::NodeIndex node, ham::Event event,
                      const std::string& demon) override {
    return base_->SetNodeDemon(ctx, node, event, demon);
  }
  Result<std::vector<ham::DemonEntry>> GetNodeDemons(
      ham::Context ctx, ham::NodeIndex node, ham::Time time) override {
    return base_->GetNodeDemons(ctx, node, time);
  }

  Result<ham::ContextInfo> CreateContext(ham::Context ctx,
                                         const std::string& name) override {
    return base_->CreateContext(ctx, name);
  }
  Result<ham::Context> OpenContext(ham::Context ctx, ham::ThreadId thread) override {
    return base_->OpenContext(ctx, thread);
  }
  Status MergeContext(ham::Context ctx, ham::ThreadId source, bool force) override {
    return base_->MergeContext(ctx, source, force);
  }
  Result<std::vector<ham::ContextInfo>> ListContexts(ham::Context ctx) override {
    return base_->ListContexts(ctx);
  }

  Status Checkpoint(ham::Context ctx) override { return base_->Checkpoint(ctx); }
  Result<ham::GraphStats> GetStats(ham::Context ctx) override {
    return base_->GetStats(ctx);
  }
  Result<ham::ThreadId> ContextThread(ham::Context ctx) override {
    return base_->ContextThread(ctx);
  }

 private:
  ham::HamInterface* base_;
};

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_TESTS_RPC_SLOW_TIME_STAMP_HAM_H_
