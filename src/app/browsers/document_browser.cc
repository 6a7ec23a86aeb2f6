#include "app/browsers/document_browser.h"

#include <unordered_map>

#include "app/document.h"

namespace neptune {
namespace app {

namespace {

constexpr size_t kPaneCount = 4;
constexpr size_t kPaneWidth = 20;
constexpr size_t kPaneRows = 8;

std::string Cell(const std::string& text) {
  std::string out = text.substr(0, kPaneWidth - 2);
  out.resize(kPaneWidth - 2, ' ');
  return out;
}

}  // namespace

Result<std::string> DocumentBrowser::Render(
    const DocumentBrowserOptions& options) {
  if (icon_ == 0) {
    NEPTUNE_ASSIGN_OR_RETURN(
        icon_, ham_->GetAttributeIndex(ctx_, Conventions::kIcon));
  }
  // Every row is a node of one of the two SubGraphs below, so every
  // row's title is in here.
  std::unordered_map<ham::NodeIndex, std::string> titles;
  auto add_titles = [&](const ham::SubGraph& graph) {
    for (const ham::SubGraphNode& node : graph.nodes) {
      titles.emplace(node.node,
                     DisplayTitle(node.node, node.attribute_values.empty()
                                                 ? std::nullopt
                                                 : node.attribute_values[0]));
    }
  };

  // Level 0: getGraphQuery with the user's predicate; each further
  // level holds the immediate descendants of the selection above it.
  // The selection path may run deeper than the four visible panes.
  NEPTUNE_ASSIGN_OR_RETURN(
      ham::SubGraph queried,
      ham_->GetGraphQuery(ctx_, options.time, options.query_predicate, "",
                          {icon_}, {}));
  add_titles(queried);
  std::vector<std::vector<ham::NodeIndex>> levels(1);
  for (const auto& node : queried.nodes) levels[0].push_back(node.node);

  ham::NodeIndex selected = 0;
  if (!options.selection.empty() && options.selection[0] < levels[0].size()) {
    NEPTUNE_ASSIGN_OR_RETURN(
        ham::SubGraph tree,
        ham_->LinearizeGraph(ctx_, levels[0][options.selection[0]],
                             options.time, "", "relation = isPartOf",
                             {icon_}, {}));
    add_titles(tree);
    std::unordered_map<ham::NodeIndex, std::vector<ham::NodeIndex>> children;
    for (const ham::SubGraphLink& link : tree.links) {
      children[link.from].push_back(link.to);
    }
    for (size_t level = 0; level < options.selection.size(); ++level) {
      const size_t row = options.selection[level];
      if (row >= levels[level].size()) break;
      selected = levels[level][row];
      levels.push_back(children[selected]);
    }
  }

  // The four visible panes start at pane_offset (pane shifting).
  std::vector<std::vector<ham::NodeIndex>> panes(kPaneCount);
  for (size_t pane = 0; pane < kPaneCount; ++pane) {
    const size_t level = options.pane_offset + pane;
    if (level < levels.size()) panes[pane] = levels[level];
  }

  // Layout the four list panes.
  std::string out = "Document Browser";
  if (!options.query_predicate.empty()) {
    out += "  [" + options.query_predicate + "]";
  }
  if (options.pane_offset > 0) {
    out += "  <<shifted " + std::to_string(options.pane_offset) + ">>";
  }
  out += "\n";
  std::string rule;
  for (size_t pane = 0; pane < kPaneCount; ++pane) {
    rule += "+" + std::string(kPaneWidth - 1, '-');
  }
  rule += "+\n";
  out += rule;
  for (size_t row = 0; row < kPaneRows; ++row) {
    for (size_t pane = 0; pane < kPaneCount; ++pane) {
      out += "|";
      if (row < panes[pane].size()) {
        const size_t level = options.pane_offset + pane;
        const bool is_selected = level < options.selection.size() &&
                                 options.selection[level] == row;
        out += is_selected ? '>' : ' ';
        out += Cell(titles[panes[pane][row]]);
      } else {
        out += std::string(kPaneWidth - 1, ' ');
      }
    }
    out += "|\n";
  }
  out += rule;

  // Lower pane: a node browser on the deepest selection.
  if (selected != 0) {
    NEPTUNE_ASSIGN_OR_RETURN(std::string body,
                             node_browser_.Render(selected, options.time));
    out += body;
  }
  return out;
}

}  // namespace app
}  // namespace neptune
