#include "app/browsers/node_browser.h"

#include <algorithm>

#include "app/document.h"
#include "delta/text_diff.h"

namespace neptune {
namespace app {

Result<std::string> NodeBrowser::Render(ham::NodeIndex node, ham::Time time) {
  if (icon_ == 0) {
    NEPTUNE_ASSIGN_OR_RETURN(
        icon_, ham_->GetAttributeIndex(ctx_, Conventions::kIcon));
  }
  if (relation_ == 0) {
    NEPTUNE_ASSIGN_OR_RETURN(
        relation_, ham_->GetAttributeIndex(ctx_, Conventions::kRelation));
  }
  NEPTUNE_ASSIGN_OR_RETURN(ham::OpenNodeResult opened,
                           ham_->OpenNode(ctx_, node, time, {icon_}));
  const std::string title = DisplayTitle(
      node, opened.attribute_values.empty() ? std::nullopt
                                            : opened.attribute_values[0]);

  std::string header = "Node Browser - " + title;
  if (time != 0) header += " @ t=" + std::to_string(time);
  std::string out = header + "\n";
  out.append(header.size(), '=');
  out.push_back('\n');

  // Inline link icons: a "[>name]" marker at each outgoing link's
  // offset, inserted back-to-front so offsets stay valid. Link icons
  // come from the link's own `icon` attribute when attached, else the
  // target node's title, exactly like the Smalltalk node browser.
  struct Marker {
    uint64_t position;
    std::string text;
  };
  std::vector<Marker> markers;
  struct LinkRow {
    ham::LinkIndex link;
    bool outgoing;
    std::string relation;
    std::string other;
  };
  std::vector<LinkRow> rows;
  for (const ham::Attachment& att : opened.attachments) {
    LinkRow row;
    row.link = att.link;
    row.outgoing = att.is_source_end;
    Result<std::string> rel =
        ham_->GetLinkAttributeValue(ctx_, att.link, relation_, time);
    row.relation = rel.ok() ? *rel : "link";
    Result<ham::LinkEndResult> other =
        att.is_source_end ? ham_->GetToNode(ctx_, att.link, time)
                          : ham_->GetFromNode(ctx_, att.link, time);
    if (other.ok()) {
      Result<std::string> other_title =
          ham_->GetNodeAttributeValue(ctx_, other->node, icon_, time);
      row.other = DisplayTitle(
          other->node, other_title.ok() ? std::optional(*other_title)
                                        : std::nullopt);
    }
    if (att.is_source_end) {
      Result<std::string> link_icon =
          ham_->GetLinkAttributeValue(ctx_, att.link, icon_, time);
      std::string name = link_icon.ok() ? *link_icon : row.other;
      markers.push_back(Marker{att.position, "[>" + name + "]"});
    }
    rows.push_back(std::move(row));
  }
  std::sort(markers.begin(), markers.end(),
            [](const Marker& a, const Marker& b) {
              return a.position > b.position;
            });
  std::string contents = opened.contents;
  for (const Marker& m : markers) {
    contents.insert(std::min<size_t>(m.position, contents.size()), m.text);
  }
  out += contents;
  if (out.empty() || out.back() != '\n') out.push_back('\n');

  if (!rows.empty()) {
    out += "\nlinks:\n";
    for (const LinkRow& row : rows) {
      out += "  ";
      out += row.outgoing ? "-> " : "<- ";
      out += row.relation + " " + row.other + " (link " +
             std::to_string(row.link) + ")\n";
    }
  }
  return out;
}

Result<std::string> NodeDifferencesBrowser::Render(ham::NodeIndex node,
                                                   ham::Time t1,
                                                   ham::Time t2) {
  NEPTUNE_ASSIGN_OR_RETURN(ham::OpenNodeResult left,
                           ham_->OpenNode(ctx_, node, t1, {}));
  NEPTUNE_ASSIGN_OR_RETURN(ham::OpenNodeResult right,
                           ham_->OpenNode(ctx_, node, t2, {}));
  const std::vector<std::string> old_lines =
      delta::SplitLines(left.contents);
  const std::vector<std::string> new_lines =
      delta::SplitLines(right.contents);
  const std::vector<delta::Difference> diffs =
      delta::DiffLines(left.contents, right.contents);

  constexpr size_t kCol = 34;
  auto cell = [](const std::string& text) {
    std::string out = text.substr(0, kCol);
    out.resize(kCol, ' ');
    return out;
  };

  std::string header_left = "t=" + std::to_string(t1);
  std::string header_right = "t=" + std::to_string(t2);
  std::string out = "Node Differences Browser - node " + std::to_string(node) +
                    "\n  " + cell(header_left) + " | " + header_right + "\n";
  out += "  " + std::string(kCol, '-') + "-+-" + std::string(kCol, '-') + "\n";

  size_t i = 0;  // old cursor
  size_t j = 0;  // new cursor
  size_t d = 0;  // diff cursor
  while (i < old_lines.size() || j < new_lines.size()) {
    if (d < diffs.size() && i == diffs[d].old_begin &&
        j == diffs[d].new_begin) {
      const delta::Difference& diff = diffs[d++];
      const size_t rows =
          std::max(diff.old_lines.size(), diff.new_lines.size());
      for (size_t r = 0; r < rows; ++r) {
        const std::string l =
            r < diff.old_lines.size() ? diff.old_lines[r] : "";
        const std::string rgt =
            r < diff.new_lines.size() ? diff.new_lines[r] : "";
        char tag = diff.kind == delta::DifferenceKind::kInsertion   ? '+'
                   : diff.kind == delta::DifferenceKind::kDeletion ? '-'
                                                                   : '~';
        out += tag;
        out += ' ';
        out += cell(l) + " | " + rgt + "\n";
      }
      i = diff.old_end;
      j = diff.new_end;
    } else {
      // Common line.
      const std::string l = i < old_lines.size() ? old_lines[i] : "";
      out += "  " + cell(l) + " | " + l + "\n";
      ++i;
      ++j;
    }
  }
  if (diffs.empty()) out += "  (versions are identical)\n";
  return out;
}

}  // namespace app
}  // namespace neptune
