#include "app/document.h"

#include <map>

namespace neptune {
namespace app {

std::string DisplayTitle(ham::NodeIndex node,
                         const std::optional<std::string>& icon) {
  return icon.has_value() ? *icon : "#" + std::to_string(node);
}

Status DocumentModel::Init() {
  NEPTUNE_ASSIGN_OR_RETURN(icon_,
                           ham_->GetAttributeIndex(ctx_, Conventions::kIcon));
  NEPTUNE_ASSIGN_OR_RETURN(
      document_, ham_->GetAttributeIndex(ctx_, Conventions::kDocument));
  NEPTUNE_ASSIGN_OR_RETURN(
      relation_, ham_->GetAttributeIndex(ctx_, Conventions::kRelation));
  return Status::OK();
}

Result<ham::NodeIndex> DocumentModel::CreateDocument(const std::string& name,
                                                     const std::string& title) {
  NEPTUNE_RETURN_IF_ERROR(ham_->BeginTransaction(ctx_));
  Result<ham::NodeIndex> result = [&]() -> Result<ham::NodeIndex> {
    NEPTUNE_ASSIGN_OR_RETURN(ham::AddNodeResult root,
                             ham_->AddNode(ctx_, /*keep_history=*/true));
    NEPTUNE_RETURN_IF_ERROR(
        ham_->SetNodeAttributeValue(ctx_, root.node, document_, name));
    NEPTUNE_RETURN_IF_ERROR(
        ham_->SetNodeAttributeValue(ctx_, root.node, icon_, title));
    return root.node;
  }();
  if (!result.ok()) {
    ham_->AbortTransaction(ctx_);
    return result.status();
  }
  NEPTUNE_RETURN_IF_ERROR(ham_->CommitTransaction(ctx_));
  return result;
}

Result<ham::NodeIndex> DocumentModel::AddSection(ham::NodeIndex parent,
                                                 const std::string& document,
                                                 const std::string& title,
                                                 const std::string& text,
                                                 uint64_t position) {
  NEPTUNE_RETURN_IF_ERROR(ham_->BeginTransaction(ctx_));
  Result<ham::NodeIndex> result = [&]() -> Result<ham::NodeIndex> {
    NEPTUNE_ASSIGN_OR_RETURN(ham::AddNodeResult section,
                             ham_->AddNode(ctx_, true));
    NEPTUNE_RETURN_IF_ERROR(ham_->ModifyNode(
        ctx_, section.node, section.creation_time, text, {}, "created"));
    NEPTUNE_RETURN_IF_ERROR(
        ham_->SetNodeAttributeValue(ctx_, section.node, document_, document));
    NEPTUNE_RETURN_IF_ERROR(
        ham_->SetNodeAttributeValue(ctx_, section.node, icon_, title));
    NEPTUNE_ASSIGN_OR_RETURN(
        ham::AddLinkResult link,
        ham_->AddLink(ctx_, ham::LinkPt{parent, position, 0, true},
                      ham::LinkPt{section.node, 0, 0, true}));
    NEPTUNE_RETURN_IF_ERROR(ham_->SetLinkAttributeValue(
        ctx_, link.link, relation_, Conventions::kIsPartOf));
    return section.node;
  }();
  if (!result.ok()) {
    ham_->AbortTransaction(ctx_);
    return result.status();
  }
  NEPTUNE_RETURN_IF_ERROR(ham_->CommitTransaction(ctx_));
  return result;
}

Status DocumentModel::EditSection(ham::NodeIndex node, const std::string& text,
                                  const std::string& explanation) {
  NEPTUNE_ASSIGN_OR_RETURN(ham::OpenNodeResult current,
                           ham_->OpenNode(ctx_, node, 0, {}));
  std::vector<ham::AttachmentUpdate> updates;
  updates.reserve(current.attachments.size());
  for (const ham::Attachment& att : current.attachments) {
    updates.push_back(ham::AttachmentUpdate{att.link, att.is_source_end,
                                            att.position});
  }
  return ham_->ModifyNode(ctx_, node, current.current_version_time, text,
                          updates, explanation);
}

Result<ham::NodeIndex> DocumentModel::Annotate(ham::NodeIndex target,
                                               uint64_t position,
                                               const std::string& text) {
  // "an annotate command creates a new node, creates a link from the
  // current cursor position to the new node, attaches attribute values
  // that distinguish the new node and link as an annotation" — one
  // transaction.
  NEPTUNE_RETURN_IF_ERROR(ham_->BeginTransaction(ctx_));
  Result<ham::NodeIndex> result = [&]() -> Result<ham::NodeIndex> {
    NEPTUNE_ASSIGN_OR_RETURN(ham::AddNodeResult note, ham_->AddNode(ctx_, true));
    NEPTUNE_RETURN_IF_ERROR(ham_->ModifyNode(ctx_, note.node,
                                             note.creation_time, text, {},
                                             "annotation"));
    NEPTUNE_RETURN_IF_ERROR(ham_->SetNodeAttributeValue(
        ctx_, note.node, document_, "annotations"));
    NEPTUNE_RETURN_IF_ERROR(
        ham_->SetNodeAttributeValue(ctx_, note.node, icon_, "annotation"));
    NEPTUNE_ASSIGN_OR_RETURN(
        ham::AddLinkResult link,
        ham_->AddLink(ctx_, ham::LinkPt{target, position, 0, true},
                      ham::LinkPt{note.node, 0, 0, true}));
    NEPTUNE_RETURN_IF_ERROR(ham_->SetLinkAttributeValue(
        ctx_, link.link, relation_, Conventions::kAnnotates));
    return note.node;
  }();
  if (!result.ok()) {
    ham_->AbortTransaction(ctx_);
    return result.status();
  }
  NEPTUNE_RETURN_IF_ERROR(ham_->CommitTransaction(ctx_));
  return result;
}

Result<ham::LinkIndex> DocumentModel::AddReference(ham::NodeIndex from,
                                                   uint64_t position,
                                                   ham::NodeIndex to) {
  NEPTUNE_RETURN_IF_ERROR(ham_->BeginTransaction(ctx_));
  Result<ham::LinkIndex> result = [&]() -> Result<ham::LinkIndex> {
    NEPTUNE_ASSIGN_OR_RETURN(
        ham::AddLinkResult link,
        ham_->AddLink(ctx_, ham::LinkPt{from, position, 0, true},
                      ham::LinkPt{to, 0, 0, true}));
    NEPTUNE_RETURN_IF_ERROR(ham_->SetLinkAttributeValue(
        ctx_, link.link, relation_, Conventions::kReferences));
    return link.link;
  }();
  if (!result.ok()) {
    ham_->AbortTransaction(ctx_);
    return result.status();
  }
  NEPTUNE_RETURN_IF_ERROR(ham_->CommitTransaction(ctx_));
  return result;
}

std::string DocumentModel::TitleOf(ham::NodeIndex node, ham::Time time) {
  Result<std::string> icon = ham_->GetNodeAttributeValue(ctx_, node, icon_, time);
  return DisplayTitle(node, icon.ok() ? std::optional(*icon) : std::nullopt);
}

Result<std::vector<OutlineEntry>> DocumentModel::Outline(ham::NodeIndex root,
                                                         ham::Time time) {
  // A document's structure is exactly linearizeGraph over isPartOf
  // links, projecting the icon attribute.
  NEPTUNE_ASSIGN_OR_RETURN(
      ham::SubGraph graph,
      ham_->LinearizeGraph(ctx_, root, time, "", "relation = isPartOf",
                           {icon_}, {}));
  // Rebuild depths/numbers from the parent structure in the subgraph.
  std::vector<OutlineEntry> out;
  out.reserve(graph.nodes.size());
  // parent map from the traversed links (first incoming wins: DFS tree).
  std::map<ham::NodeIndex, ham::NodeIndex> parent;
  for (const auto& link : graph.links) {
    parent.emplace(link.to, link.from);
  }
  std::map<ham::NodeIndex, int> depth;
  std::map<ham::NodeIndex, std::string> number;
  std::map<ham::NodeIndex, int> child_counter;
  for (const auto& node : graph.nodes) {
    OutlineEntry entry;
    entry.node = node.node;
    entry.title = DisplayTitle(node.node, node.attribute_values.empty()
                                              ? std::nullopt
                                              : node.attribute_values[0]);
    auto pit = parent.find(node.node);
    if (node.node == root || pit == parent.end()) {
      entry.depth = 0;
      entry.number = "";
    } else {
      const ham::NodeIndex p = pit->second;
      entry.depth = depth.count(p) ? depth[p] + 1 : 1;
      const int ordinal = ++child_counter[p];
      const std::string& parent_number = number[p];
      entry.number = parent_number.empty()
                         ? std::to_string(ordinal)
                         : parent_number + "." + std::to_string(ordinal);
    }
    depth[node.node] = entry.depth;
    number[node.node] = entry.number;
    out.push_back(std::move(entry));
  }
  return out;
}

Result<std::string> DocumentModel::ExtractHardcopy(ham::NodeIndex root,
                                                   ham::Time time) {
  NEPTUNE_ASSIGN_OR_RETURN(std::vector<OutlineEntry> outline,
                           Outline(root, time));
  std::string out;
  for (const OutlineEntry& entry : outline) {
    // Heading.
    out.append(static_cast<size_t>(entry.depth) + 1, '#');
    out.push_back(' ');
    if (!entry.number.empty()) {
      out += entry.number;
      out.push_back(' ');
    }
    out += entry.title;
    out += "\n\n";
    NEPTUNE_ASSIGN_OR_RETURN(ham::OpenNodeResult node,
                             ham_->OpenNode(ctx_, entry.node, time, {}));
    if (!node.contents.empty()) {
      out += node.contents;
      if (out.back() != '\n') out.push_back('\n');
      out.push_back('\n');
    }
  }
  return out;
}

Result<std::vector<ham::NodeIndex>> DocumentModel::AnnotationsOf(
    ham::NodeIndex node, ham::Time time) {
  NEPTUNE_ASSIGN_OR_RETURN(ham::OpenNodeResult opened,
                           ham_->OpenNode(ctx_, node, time, {}));
  std::vector<ham::NodeIndex> out;
  for (const ham::Attachment& att : opened.attachments) {
    if (!att.is_source_end) continue;
    Result<std::string> relation =
        ham_->GetLinkAttributeValue(ctx_, att.link, relation_, time);
    if (!relation.ok() || *relation != Conventions::kAnnotates) continue;
    NEPTUNE_ASSIGN_OR_RETURN(ham::LinkEndResult end,
                             ham_->GetToNode(ctx_, att.link, time));
    out.push_back(end.node);
  }
  return out;
}

}  // namespace app
}  // namespace neptune
