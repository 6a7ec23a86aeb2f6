// NodeBrowser: the text-mode counterpart of Figure 3 — a node's
// contents with link icons rendered inline at their attachment
// offsets — plus the node-differences browser that "places two node
// browsers side-by-side, each viewing a specific version of a node
// with highlighting used to show differences".

#ifndef NEPTUNE_APP_BROWSERS_NODE_BROWSER_H_
#define NEPTUNE_APP_BROWSERS_NODE_BROWSER_H_

#include <string>

#include "common/result.h"
#include "ham/ham_interface.h"

namespace neptune {
namespace app {

class NodeBrowser {
 public:
  NodeBrowser(ham::HamInterface* ham, ham::Context ctx)
      : ham_(ham), ctx_(ctx) {}

  // Renders `node` at `time` (0 = current): title bar, contents with
  // inline [>icon] markers where outgoing links attach, and a trailing
  // table of the node's links.
  Result<std::string> Render(ham::NodeIndex node, ham::Time time);

 private:
  ham::HamInterface* ham_;
  ham::Context ctx_;
  // Interned on first use: interning commits at once and is
  // append-only, so an index never changes for the graph.
  ham::AttributeIndex icon_ = 0;
  ham::AttributeIndex relation_ = 0;
};

class NodeDifferencesBrowser {
 public:
  NodeDifferencesBrowser(ham::HamInterface* ham, ham::Context ctx)
      : ham_(ham), ctx_(ctx) {}

  // Side-by-side view of `node` at `t1` (left) and `t2` (right);
  // changed lines are flagged in the gutter: '-' removed, '+' added,
  // '~' replaced.
  Result<std::string> Render(ham::NodeIndex node, ham::Time t1, ham::Time t2);

 private:
  ham::HamInterface* ham_;
  ham::Context ctx_;
};

}  // namespace app
}  // namespace neptune

#endif  // NEPTUNE_APP_BROWSERS_NODE_BROWSER_H_
