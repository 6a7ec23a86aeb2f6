#include "app/browsers/graph_browser.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "app/browsers/canvas.h"
#include "app/document.h"

namespace neptune {
namespace app {

namespace {

constexpr int kColumnGap = 7;
constexpr int kRowGap = 1;

}  // namespace

Result<std::string> GraphBrowser::Render(const GraphBrowserOptions& options) {
  NEPTUNE_ASSIGN_OR_RETURN(ham::AttributeIndex icon,
                           ham_->GetAttributeIndex(ctx_, Conventions::kIcon));
  NEPTUNE_ASSIGN_OR_RETURN(
      ham::SubGraph graph,
      ham_->GetGraphQuery(ctx_, options.time, options.node_predicate,
                          options.link_predicate, {icon}, {}));

  // Titles.
  std::map<ham::NodeIndex, std::string> title;
  for (const auto& node : graph.nodes) {
    title[node.node] = DisplayTitle(node.node, node.attribute_values.empty()
                                                   ? std::nullopt
                                                   : node.attribute_values[0]);
  }

  // Adjacency and BFS layering from the in-degree-0 roots.
  std::map<ham::NodeIndex, std::vector<ham::NodeIndex>> out_edges;
  std::map<ham::NodeIndex, int> in_degree;
  for (const auto& node : graph.nodes) in_degree[node.node] = 0;
  for (const auto& link : graph.links) {
    out_edges[link.from].push_back(link.to);
    in_degree[link.to]++;
  }
  std::map<ham::NodeIndex, int> depth;
  std::deque<ham::NodeIndex> frontier;
  for (const auto& node : graph.nodes) {
    if (in_degree[node.node] == 0) {
      depth[node.node] = 0;
      frontier.push_back(node.node);
    }
  }
  if (frontier.empty() && !graph.nodes.empty()) {
    // Pure cycle: anchor at the lowest index.
    depth[graph.nodes.front().node] = 0;
    frontier.push_back(graph.nodes.front().node);
  }
  while (!frontier.empty()) {
    const ham::NodeIndex n = frontier.front();
    frontier.pop_front();
    for (ham::NodeIndex target : out_edges[n]) {
      if (depth.count(target) != 0) continue;
      depth[target] = std::min(depth[n] + 1, options.max_depth);
      frontier.push_back(target);
    }
  }
  for (const auto& node : graph.nodes) {
    depth.emplace(node.node, 0);  // disconnected leftovers
  }

  // Column layout: x offset per depth from the widest title in it.
  std::map<int, int> column_width;
  std::map<int, int> column_count;
  for (const auto& [n, d] : depth) {
    column_width[d] =
        std::max(column_width[d], TextCanvas::BoxWidth(title[n]));
    column_count[d]++;
  }
  std::map<int, int> column_x;
  int x = 0;
  for (const auto& [d, w] : column_width) {
    column_x[d] = x;
    x += w + kColumnGap;
  }

  // Row assignment within each column, in node-index order.
  std::map<ham::NodeIndex, std::pair<int, int>> box_at;  // node -> (x, y)
  std::map<int, int> next_row;
  TextCanvas canvas;
  canvas.DrawText(0, 0, "Graph Browser");
  const int top = 2;
  for (const auto& node : graph.nodes) {
    const int d = depth[node.node];
    const int row = next_row[d]++;
    const int bx = column_x[d];
    const int by = top + row * (TextCanvas::kBoxHeight + kRowGap);
    box_at[node.node] = {bx, by};
    canvas.DrawBox(bx, by, title[node.node]);
  }

  // Edges: elbow connectors from the source box's right edge to the
  // target box's left edge.
  for (const auto& link : graph.links) {
    auto sit = box_at.find(link.from);
    auto tit = box_at.find(link.to);
    if (sit == box_at.end() || tit == box_at.end()) continue;
    const auto [sx, sy] = sit->second;
    const auto [tx, ty] = tit->second;
    const int from_x = sx + TextCanvas::BoxWidth(title[link.from]) - 1;
    const int from_y = sy + 1;  // box center row
    const int to_x = tx;
    const int to_y = ty + 1;
    if (to_x > from_x) {
      const int mid = from_x + (to_x - from_x) / 2;
      canvas.DrawHLine(from_x + 1, mid, from_y, '-');
      if (from_y != to_y) {
        canvas.DrawVLine(mid, std::min(from_y, to_y), std::max(from_y, to_y),
                         '|');
        canvas.Put(mid, from_y, '+');
        canvas.Put(mid, to_y, '+');
      }
      canvas.DrawHLine(mid + 1, to_x - 2, to_y, '-');
      canvas.Put(to_x - 1, to_y, '>');
    } else {
      // Back edge (cycle): route under everything.
      const int lane = canvas.height() + 1;
      canvas.DrawVLine(from_x + 2, from_y, lane, '|');
      canvas.DrawHLine(std::min(from_x + 2, to_x - 2),
                       std::max(from_x + 2, to_x - 2), lane, '-');
      canvas.DrawVLine(to_x - 2, to_y, lane, '|');
      canvas.Put(to_x - 1, to_y, '>');
    }
  }

  // The figure's lower panes: the visibility predicates in effect.
  std::string out = canvas.ToString();
  out += "\n";
  out += "node visibility: " + (options.node_predicate.empty()
                                    ? std::string("true")
                                    : options.node_predicate) +
         "\n";
  out += "link visibility: " + (options.link_predicate.empty()
                                    ? std::string("true")
                                    : options.link_predicate) +
         "\n";
  return out;
}

}  // namespace app
}  // namespace neptune
