// The UI layer: text-mode reproductions of the paper's Figures 1–3
// (graph browser, document browser, node browser + differences
// browser) plus the version/attribute/demon browsers.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "app/browsers/canvas.h"
#include "app/browsers/document_browser.h"
#include "app/browsers/graph_browser.h"
#include "app/browsers/inspect_browsers.h"
#include "app/browsers/node_browser.h"
#include "app/document.h"
#include "tests/ham/ham_test_util.h"

namespace neptune {
namespace app {
namespace {

TEST(TextCanvasTest, PutGrowsAndToStringTrims) {
  TextCanvas canvas;
  canvas.Put(3, 1, 'x');
  canvas.DrawText(0, 0, "ab");
  std::string out = canvas.ToString();
  EXPECT_EQ(out, "ab\n   x\n");
}

TEST(TextCanvasTest, BoxShape) {
  TextCanvas canvas;
  int w = canvas.DrawBox(0, 0, "Spec");
  EXPECT_EQ(w, 8);
  EXPECT_EQ(canvas.ToString(), "+------+\n| Spec |\n+------+\n");
}

TEST(TextCanvasTest, LinesAndNegativeCoordinatesIgnored) {
  TextCanvas canvas;
  canvas.DrawHLine(0, 4, 0, '-');
  canvas.DrawVLine(0, 0, 2, '|');
  canvas.Put(-1, -5, 'x');  // must not crash or draw
  std::string out = canvas.ToString();
  EXPECT_EQ(out.substr(0, 5), "|----");
}

// Forwards every HamInterface call to `base` and counts it by name, so
// a test can pin how many HAM operations a render costs.
class CountingHam final : public ham::HamInterface {
 public:
  explicit CountingHam(ham::HamInterface* base) : base_(base) {}

  std::map<std::string, int> calls;

#define COUNTED(Ret, Name, Params, Args) \
  Ret Name Params override {             \
    ++calls[#Name];                      \
    return base_->Name Args;             \
  }
  COUNTED(Result<ham::CreateGraphResult>, CreateGraph,
          (const std::string& dir, uint32_t protections), (dir, protections))
  COUNTED(Status, DestroyGraph, (ham::ProjectId project, const std::string& dir),
          (project, dir))
  COUNTED(Result<ham::Context>, OpenGraph,
          (ham::ProjectId project, const std::string& machine,
           const std::string& dir),
          (project, machine, dir))
  COUNTED(Status, CloseGraph, (ham::Context ctx), (ctx))
  COUNTED(Status, BeginTransaction, (ham::Context ctx), (ctx))
  COUNTED(Status, CommitTransaction, (ham::Context ctx), (ctx))
  COUNTED(Status, AbortTransaction, (ham::Context ctx), (ctx))
  COUNTED(Result<ham::AddNodeResult>, AddNode,
          (ham::Context ctx, bool keep_history), (ctx, keep_history))
  COUNTED(Status, DeleteNode, (ham::Context ctx, ham::NodeIndex node),
          (ctx, node))
  COUNTED(Result<ham::AddLinkResult>, AddLink,
          (ham::Context ctx, const ham::LinkPt& from, const ham::LinkPt& to),
          (ctx, from, to))
  COUNTED(Result<ham::AddLinkResult>, CopyLink,
          (ham::Context ctx, ham::LinkIndex link, ham::Time time,
           bool copy_source, const ham::LinkPt& other),
          (ctx, link, time, copy_source, other))
  COUNTED(Status, DeleteLink, (ham::Context ctx, ham::LinkIndex link),
          (ctx, link))
  COUNTED(Result<ham::SubGraph>, LinearizeGraph,
          (ham::Context ctx, ham::NodeIndex start, ham::Time time,
           const std::string& node_pred, const std::string& link_pred,
           const std::vector<ham::AttributeIndex>& node_attrs,
           const std::vector<ham::AttributeIndex>& link_attrs),
          (ctx, start, time, node_pred, link_pred, node_attrs, link_attrs))
  COUNTED(Result<ham::SubGraph>, GetGraphQuery,
          (ham::Context ctx, ham::Time time, const std::string& node_pred,
           const std::string& link_pred,
           const std::vector<ham::AttributeIndex>& node_attrs,
           const std::vector<ham::AttributeIndex>& link_attrs),
          (ctx, time, node_pred, link_pred, node_attrs, link_attrs))
  COUNTED(Result<ham::OpenNodeResult>, OpenNode,
          (ham::Context ctx, ham::NodeIndex node, ham::Time time,
           const std::vector<ham::AttributeIndex>& attrs),
          (ctx, node, time, attrs))
  COUNTED(Status, ModifyNode,
          (ham::Context ctx, ham::NodeIndex node, ham::Time expected_time,
           const std::string& contents,
           const std::vector<ham::AttachmentUpdate>& attachments,
           const std::string& explanation),
          (ctx, node, expected_time, contents, attachments, explanation))
  COUNTED(Result<ham::Time>, GetNodeTimeStamp,
          (ham::Context ctx, ham::NodeIndex node), (ctx, node))
  COUNTED(Status, ChangeNodeProtection,
          (ham::Context ctx, ham::NodeIndex node, uint32_t protections),
          (ctx, node, protections))
  COUNTED(Result<ham::NodeVersions>, GetNodeVersions,
          (ham::Context ctx, ham::NodeIndex node), (ctx, node))
  COUNTED(Result<std::vector<delta::Difference>>, GetNodeDifferences,
          (ham::Context ctx, ham::NodeIndex node, ham::Time t1, ham::Time t2),
          (ctx, node, t1, t2))
  COUNTED(Result<ham::LinkEndResult>, GetToNode,
          (ham::Context ctx, ham::LinkIndex link, ham::Time time),
          (ctx, link, time))
  COUNTED(Result<ham::LinkEndResult>, GetFromNode,
          (ham::Context ctx, ham::LinkIndex link, ham::Time time),
          (ctx, link, time))
  COUNTED(Result<std::vector<ham::AttributeEntry>>, GetAttributes,
          (ham::Context ctx, ham::Time time), (ctx, time))
  COUNTED(Result<std::vector<std::string>>, GetAttributeValues,
          (ham::Context ctx, ham::AttributeIndex attr, ham::Time time),
          (ctx, attr, time))
  COUNTED(Result<ham::AttributeIndex>, GetAttributeIndex,
          (ham::Context ctx, const std::string& name), (ctx, name))
  COUNTED(Status, SetNodeAttributeValue,
          (ham::Context ctx, ham::NodeIndex node, ham::AttributeIndex attr,
           const std::string& value),
          (ctx, node, attr, value))
  COUNTED(Status, DeleteNodeAttribute,
          (ham::Context ctx, ham::NodeIndex node, ham::AttributeIndex attr),
          (ctx, node, attr))
  COUNTED(Result<std::string>, GetNodeAttributeValue,
          (ham::Context ctx, ham::NodeIndex node, ham::AttributeIndex attr,
           ham::Time time),
          (ctx, node, attr, time))
  COUNTED(Result<std::vector<ham::AttributeValueEntry>>, GetNodeAttributes,
          (ham::Context ctx, ham::NodeIndex node, ham::Time time),
          (ctx, node, time))
  COUNTED(Status, SetLinkAttributeValue,
          (ham::Context ctx, ham::LinkIndex link, ham::AttributeIndex attr,
           const std::string& value),
          (ctx, link, attr, value))
  COUNTED(Status, DeleteLinkAttribute,
          (ham::Context ctx, ham::LinkIndex link, ham::AttributeIndex attr),
          (ctx, link, attr))
  COUNTED(Result<std::string>, GetLinkAttributeValue,
          (ham::Context ctx, ham::LinkIndex link, ham::AttributeIndex attr,
           ham::Time time),
          (ctx, link, attr, time))
  COUNTED(Result<std::vector<ham::AttributeValueEntry>>, GetLinkAttributes,
          (ham::Context ctx, ham::LinkIndex link, ham::Time time),
          (ctx, link, time))
  COUNTED(Status, SetGraphDemonValue,
          (ham::Context ctx, ham::Event event, const std::string& demon),
          (ctx, event, demon))
  COUNTED(Result<std::vector<ham::DemonEntry>>, GetGraphDemons,
          (ham::Context ctx, ham::Time time), (ctx, time))
  COUNTED(Status, SetNodeDemon,
          (ham::Context ctx, ham::NodeIndex node, ham::Event event,
           const std::string& demon),
          (ctx, node, event, demon))
  COUNTED(Result<std::vector<ham::DemonEntry>>, GetNodeDemons,
          (ham::Context ctx, ham::NodeIndex node, ham::Time time),
          (ctx, node, time))
  COUNTED(Result<ham::ContextInfo>, CreateContext,
          (ham::Context ctx, const std::string& name), (ctx, name))
  COUNTED(Result<ham::Context>, OpenContext,
          (ham::Context ctx, ham::ThreadId thread), (ctx, thread))
  COUNTED(Status, MergeContext,
          (ham::Context ctx, ham::ThreadId source, bool force),
          (ctx, source, force))
  COUNTED(Result<std::vector<ham::ContextInfo>>, ListContexts,
          (ham::Context ctx), (ctx))
  COUNTED(Status, Checkpoint, (ham::Context ctx), (ctx))
  COUNTED(Result<ham::GraphStats>, GetStats, (ham::Context ctx), (ctx))
  COUNTED(Result<ham::ThreadId>, ContextThread, (ham::Context ctx), (ctx))
#undef COUNTED

 private:
  ham::HamInterface* base_;
};

class BrowsersTest : public ham::HamTestBase {
 protected:
  void SetUp() override {
    ham::HamTestBase::SetUp();
    model_ = std::make_unique<DocumentModel>(ham_.get(), ctx_);
    ASSERT_TRUE(model_->Init().ok());
    root_ = *model_->CreateDocument("paper", "SIGMOD Paper");
    spec_ = *model_->AddSection(root_, "paper", "Spec",
                                "The specification text.\n", 0);
    design_ = *model_->AddSection(root_, "paper", "Design",
                                  "The design text.\n", 10);
    detail_ = *model_->AddSection(spec_, "paper", "Detail",
                                  "Nested detail.\n", 0);
  }

  std::unique_ptr<DocumentModel> model_;
  ham::NodeIndex root_ = 0, spec_ = 0, design_ = 0, detail_ = 0;
};

TEST_F(BrowsersTest, GraphBrowserDrawsBoxesAndEdges) {
  GraphBrowser browser(ham_.get(), ctx_);
  GraphBrowserOptions options;
  auto out = browser.Render(options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Every node appears as a named box (Figure 1's icons).
  EXPECT_NE(out->find("| SIGMOD Paper |"), std::string::npos);
  EXPECT_NE(out->find("| Spec |"), std::string::npos);
  EXPECT_NE(out->find("| Design |"), std::string::npos);
  EXPECT_NE(out->find("| Detail |"), std::string::npos);
  // Edges are drawn with arrowheads.
  EXPECT_NE(out->find('>'), std::string::npos);
  // The visibility-predicate panes are shown.
  EXPECT_NE(out->find("node visibility: true"), std::string::npos);
}

TEST_F(BrowsersTest, GraphBrowserHonoursVisibilityPredicates) {
  // Tag one node differently and filter it out.
  auto status_attr = Attr("status");
  ASSERT_TRUE(
      ham_->SetNodeAttributeValue(ctx_, design_, status_attr, "draft").ok());
  GraphBrowser browser(ham_.get(), ctx_);
  GraphBrowserOptions options;
  options.node_predicate = "!(status = draft)";
  auto out = browser.Render(options);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("| Spec |"), std::string::npos);
  EXPECT_EQ(out->find("| Design |"), std::string::npos);
  EXPECT_NE(out->find("node visibility: !(status = draft)"),
            std::string::npos);
}

TEST_F(BrowsersTest, GraphBrowserHandlesCycles) {
  ASSERT_TRUE(model_->AddReference(detail_, 0, root_).ok());
  GraphBrowser browser(ham_.get(), ctx_);
  auto out = browser.Render(GraphBrowserOptions{});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("| SIGMOD Paper |"), std::string::npos);
}

TEST_F(BrowsersTest, DocumentBrowserShowsPanesAndDrillsDown) {
  DocumentBrowser browser(ham_.get(), ctx_);
  DocumentBrowserOptions options;
  options.query_predicate = "document = paper";
  options.selection = {0, 0};  // select root, then its first child
  auto out = browser.Render(options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Pane 1 lists the query result; pane 2 the root's children in
  // offset order; pane 3 Spec's children.
  EXPECT_NE(out->find(">SIGMOD Paper"), std::string::npos);
  EXPECT_NE(out->find(">Spec"), std::string::npos);
  EXPECT_NE(out->find("Design"), std::string::npos);
  EXPECT_NE(out->find("Detail"), std::string::npos);
  // Lower pane: node browser on the selected node (Spec).
  EXPECT_NE(out->find("Node Browser - Spec"), std::string::npos);
  EXPECT_NE(out->find("The specification text."), std::string::npos);
}

TEST_F(BrowsersTest, DocumentBrowserPaneShiftingViewsDeepHierarchies) {
  // Extend the hierarchy to depth 5: root > Spec > Detail > Deeper > Deepest.
  ham::NodeIndex deeper =
      *model_->AddSection(detail_, "paper", "Deeper", "..\n", 0);
  ASSERT_TRUE(model_->AddSection(deeper, "paper", "Deepest", ".\n", 0).ok());

  DocumentBrowser browser(ham_.get(), ctx_);
  DocumentBrowserOptions options;
  options.query_predicate = "icon = 'SIGMOD Paper'";
  options.selection = {0, 0, 0, 0};  // root > Spec > Detail > Deeper
  // Unshifted: the deepest visible pane shows Detail's children.
  auto unshifted = browser.Render(options);
  ASSERT_TRUE(unshifted.ok());
  EXPECT_NE(unshifted->find(">SIGMOD Paper"), std::string::npos);
  // Deepest is one level beyond the last visible pane (it only shows
  // up as an inline link icon in the node-browser pane below).
  EXPECT_EQ(unshifted->find("| Deepest"), std::string::npos);
  // "Commands are available to shift the panes": shifting by one
  // scrolls the root pane out and brings Deepest into a list pane.
  options.pane_offset = 1;
  auto shifted = browser.Render(options);
  ASSERT_TRUE(shifted.ok());
  EXPECT_NE(shifted->find("<<shifted 1>>"), std::string::npos);
  EXPECT_NE(shifted->find("| Deepest"), std::string::npos);
  EXPECT_NE(shifted->find(">Spec"), std::string::npos);
  EXPECT_EQ(shifted->find(">SIGMOD Paper"), std::string::npos);
}

TEST_F(BrowsersTest, DocumentBrowserWithNoSelectionShowsOnlyQueryPane) {
  DocumentBrowser browser(ham_.get(), ctx_);
  DocumentBrowserOptions options;
  options.query_predicate = "document = paper";
  auto out = browser.Render(options);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("SIGMOD Paper"), std::string::npos);
  EXPECT_EQ(out->find("Node Browser"), std::string::npos);
}

TEST_F(BrowsersTest, DocumentBrowserPaneIsOneQueryAndOneLinearize) {
  // Figure 2: the upper-left pane is one getGraphQuery, and every pane
  // to its right comes from one linearizeGraph, titles included.
  ham::NodeIndex deeper =
      *model_->AddSection(detail_, "paper", "Deeper", "..\n", 0);
  ASSERT_TRUE(model_->AddSection(deeper, "paper", "Deepest", ".\n", 0).ok());
  CountingHam counting(ham_.get());
  DocumentBrowser browser(&counting, ctx_);
  DocumentBrowserOptions options;
  options.query_predicate = "document = paper";
  options.selection = {0, 0, 0, 0};  // root > Spec > Detail > Deeper
  ASSERT_TRUE(browser.Render(options).ok());  // warm: interns `icon`

  counting.calls.clear();
  auto out = browser.Render(options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find(">Detail"), std::string::npos);
  EXPECT_NE(out->find("| Deeper"), std::string::npos);
  EXPECT_NE(out->find("Node Browser - Deeper"), std::string::npos);
  std::map<std::string, int> pane_calls = counting.calls;

  // What is left once the lower pane's own calls are taken out is the
  // two list-pane operations and nothing else.
  NodeBrowser lower(&counting, ctx_);
  ASSERT_TRUE(lower.Render(deeper, 0).ok());  // warm
  counting.calls.clear();
  ASSERT_TRUE(lower.Render(deeper, 0).ok());
  for (const auto& [name, count] : counting.calls) pane_calls[name] -= count;
  for (auto it = pane_calls.begin(); it != pane_calls.end();) {
    it = it->second == 0 ? pane_calls.erase(it) : std::next(it);
  }
  const std::map<std::string, int> expected = {{"GetGraphQuery", 1},
                                               {"LinearizeGraph", 1}};
  EXPECT_EQ(pane_calls, expected);
  // A warm node browser does not re-intern its attributes either.
  EXPECT_EQ(counting.calls.count("GetAttributeIndex"), 0u);
}

TEST_F(BrowsersTest, DocumentBrowserAtAPastTimeOmitsALaterSection) {
  const ham::Time before = ham_->GetStats(ctx_)->current_time;
  ASSERT_TRUE(
      model_->AddSection(spec_, "paper", "Late", "Added later.\n", 5).ok());
  DocumentBrowser browser(ham_.get(), ctx_);
  DocumentBrowserOptions options;
  options.query_predicate = "document = paper";
  options.selection = {0, 0};  // root > Spec
  options.time = before;
  auto past = browser.Render(options);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_NE(past->find("| Detail"), std::string::npos);
  EXPECT_EQ(past->find("Late"), std::string::npos);

  options.time = 0;
  auto now = browser.Render(options);
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  EXPECT_NE(now->find("| Late"), std::string::npos);
}

TEST_F(BrowsersTest, DocumentBrowserRowsFollowMovedAttachments) {
  // Swap the root's two sections by moving their attachment offsets:
  // Spec from 0 to 20, Design from 10 to 5.
  auto opened = ham_->OpenNode(ctx_, root_, 0, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::vector<ham::AttachmentUpdate> updates;
  for (const ham::Attachment& att : opened->attachments) {
    ASSERT_TRUE(att.is_source_end);
    updates.push_back(ham::AttachmentUpdate{
        att.link, true, att.position == 0 ? uint64_t{20} : uint64_t{5}});
  }
  ASSERT_EQ(updates.size(), 2u);
  ASSERT_TRUE(ham_->ModifyNode(ctx_, root_, opened->current_version_time,
                               std::string(32, '.') + "\n", updates,
                               "reorder")
                  .ok());

  DocumentBrowser browser(ham_.get(), ctx_);
  DocumentBrowserOptions options;
  options.query_predicate = "document = paper";
  options.selection = {0, 0};  // root, then its first child by offset
  auto out = browser.Render(options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const size_t design = out->find(">Design");
  const size_t spec = out->find("| Spec");
  ASSERT_NE(design, std::string::npos) << *out;
  ASSERT_NE(spec, std::string::npos) << *out;
  EXPECT_LT(design, spec);
  EXPECT_NE(out->find("Node Browser - Design"), std::string::npos);
}

TEST_F(BrowsersTest, NodeBrowserShowsInlineLinkIcons) {
  // Figure 3: "Within a node browser, a link appears as an icon".
  NodeBrowser browser(ham_.get(), ctx_);
  auto out = browser.Render(spec_, 0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("Node Browser - Spec"), std::string::npos);
  // The isPartOf link to Detail attaches at offset 0: its icon appears
  // inline at the start of the contents.
  EXPECT_NE(out->find("[>Detail]The specification text."),
            std::string::npos);
  // The links table shows both directions.
  EXPECT_NE(out->find("-> isPartOf Detail"), std::string::npos);
  EXPECT_NE(out->find("<- isPartOf SIGMOD Paper"), std::string::npos);
}

TEST_F(BrowsersTest, NodeDifferencesBrowserHighlightsChanges) {
  const ham::Time t1 = *ham_->GetNodeTimeStamp(ctx_, design_);
  ASSERT_TRUE(
      model_->EditSection(design_, "The improved design text.\n", "v2").ok());
  const ham::Time t2 = *ham_->GetNodeTimeStamp(ctx_, design_);

  NodeDifferencesBrowser browser(ham_.get(), ctx_);
  auto out = browser.Render(design_, t1, t2);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("Node Differences Browser"), std::string::npos);
  // The replacement line is flagged with '~' and both versions shown
  // side by side.
  EXPECT_NE(out->find("~ The design text."), std::string::npos);
  EXPECT_NE(out->find("| The improved design text."), std::string::npos);

  auto same = browser.Render(design_, t2, t2);
  ASSERT_TRUE(same.ok());
  EXPECT_NE(same->find("(versions are identical)"), std::string::npos);
}

TEST_F(BrowsersTest, VersionBrowserListsMajorAndMinor) {
  ASSERT_TRUE(model_->EditSection(spec_, "Spec v2\n", "second draft").ok());
  VersionBrowser browser(ham_.get(), ctx_);
  auto out = browser.Render(spec_);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("major versions"), std::string::npos);
  EXPECT_NE(out->find("second draft"), std::string::npos);
  EXPECT_NE(out->find("minor versions"), std::string::npos);
  EXPECT_NE(out->find("addLink"), std::string::npos);
}

TEST_F(BrowsersTest, AttributeBrowserShowsGraphNodeAndLinkViews) {
  AttributeBrowser browser(ham_.get(), ctx_);
  auto graph_view = browser.RenderGraph(0);
  ASSERT_TRUE(graph_view.ok()) << graph_view.status().ToString();
  EXPECT_NE(graph_view->find("document"), std::string::npos);
  EXPECT_NE(graph_view->find("'paper'"), std::string::npos);

  auto node_view = browser.RenderNode(spec_, 0);
  ASSERT_TRUE(node_view.ok());
  EXPECT_NE(node_view->find("icon = 'Spec'"), std::string::npos);

  auto opened = ham_->OpenNode(ctx_, detail_, 0, {});
  ASSERT_TRUE(opened.ok());
  ASSERT_FALSE(opened->attachments.empty());
  auto link_view = browser.RenderLink(opened->attachments[0].link, 0);
  ASSERT_TRUE(link_view.ok());
  EXPECT_NE(link_view->find("relation = 'isPartOf'"), std::string::npos);
}

TEST_F(BrowsersTest, DemonBrowserListsBindings) {
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, ham::Event::kAddNode, "audit-log").ok());
  ASSERT_TRUE(ham_->SetNodeDemon(ctx_, spec_, ham::Event::kModifyNode,
                                 "notify-owner")
                  .ok());
  DemonBrowser browser(ham_.get(), ctx_);
  auto out = browser.Render(spec_, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("on addNode: 'audit-log'"), std::string::npos);
  EXPECT_NE(out->find("on modifyNode: 'notify-owner'"), std::string::npos);

  auto graph_only = browser.Render(0, 0);
  ASSERT_TRUE(graph_only.ok());
  EXPECT_EQ(graph_only->find("notify-owner"), std::string::npos);
}

TEST_F(BrowsersTest, BrowsersCanViewThePast) {
  const ham::Time before = ham_->GetStats(ctx_)->current_time;
  ASSERT_TRUE(model_->EditSection(spec_, "changed!\n", "").ok());
  NodeBrowser browser(ham_.get(), ctx_);
  auto past = browser.Render(spec_, before);
  ASSERT_TRUE(past.ok());
  EXPECT_NE(past->find("The specification text."), std::string::npos);
  auto now = browser.Render(spec_, 0);
  ASSERT_TRUE(now.ok());
  EXPECT_NE(now->find("changed!"), std::string::npos);
}

}  // namespace
}  // namespace app
}  // namespace neptune
