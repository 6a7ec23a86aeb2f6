// DocumentBrowser: the text-mode counterpart of Figure 2 — "five
// panes: the four upper panes contain lists of names of nodes, the
// lower pane is a node browser ... The node-list in the upper-left
// pane is formed by executing a getGraphQuery HAM operation. The
// node-list in each pane to the right is formed by accessing the
// immediate descendents of the selected node in the left adjacent
// pane via the linearizeGraph HAM operation."
//
// A render is exactly those two operations (plus the node browser
// below). Level 0 is one getGraphQuery. Every deeper level lies under
// the level-0 selection, so one linearizeGraph over its isPartOf links
// holds them all: level k+1 is the links out of level k's selection,
// in the traversal's (offset, link) order. Titles come back with the
// rows. An isPartOf link whose target does not exist at the viewed
// time is left out of its pane.

#ifndef NEPTUNE_APP_BROWSERS_DOCUMENT_BROWSER_H_
#define NEPTUNE_APP_BROWSERS_DOCUMENT_BROWSER_H_

#include <string>
#include <vector>

#include "app/browsers/node_browser.h"
#include "common/result.h"
#include "ham/ham_interface.h"

namespace neptune {
namespace app {

struct DocumentBrowserOptions {
  // Predicate for the upper-left pane's getGraphQuery.
  std::string query_predicate;
  // Selected row (0-based) in each pane, left to right; panes beyond
  // the selection path stay empty. Selecting in pane k populates pane
  // k+1 with the selection's immediate descendants. The selection path
  // may be longer than the four visible panes — see pane_offset.
  std::vector<size_t> selection;
  // "Commands are available to shift the panes in order to view deeply
  // nested hierarchies": the first `pane_offset` levels of the
  // selection path are scrolled out of view to the left.
  size_t pane_offset = 0;
  ham::Time time = 0;
};

class DocumentBrowser {
 public:
  DocumentBrowser(ham::HamInterface* ham, ham::Context ctx)
      : ham_(ham), ctx_(ctx), node_browser_(ham, ctx) {}

  Result<std::string> Render(const DocumentBrowserOptions& options);

 private:
  ham::HamInterface* ham_;
  ham::Context ctx_;
  ham::AttributeIndex icon_ = 0;  // interned on first use
  NodeBrowser node_browser_;      // the lower pane
};

}  // namespace app
}  // namespace neptune

#endif  // NEPTUNE_APP_BROWSERS_DOCUMENT_BROWSER_H_
