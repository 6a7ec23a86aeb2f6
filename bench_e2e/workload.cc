#include "workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "app/browsers/document_browser.h"
#include "app/browsers/inspect_browsers.h"
#include "app/browsers/node_browser.h"
#include "app/case_model.h"
#include "app/document.h"
#include "delta/text_diff.h"
#include "ham/ham.h"
#include "storage/env.h"

namespace neptune {
namespace bench {

namespace {

constexpr int kDocuments = 20;
constexpr int kFanout[] = {4, 4, 4, 3};  // chapters, sections, ...
constexpr const char* kLevelKind[] = {"chapter", "section", "subsection",
                                      "paragraph"};
constexpr size_t kChapterLines = 192;  // ~12 KiB
constexpr size_t kSectionLines = 16;   // ~1 KiB
constexpr int kProceduresPerModule = 1;
constexpr int kImportsPerModule = 2;
constexpr int kHistorySections = 512;
constexpr int kHistoryVersions = 64;   // including the first
constexpr int kHotBatch = 64;          // preload edits per transaction
constexpr uint64_t kWarmUpActions = 40;  // per client, read-only
constexpr size_t kTraceActionsKept = 300;  // per client, Chrome trace
// Historical reads that overfill the 8 MiB reconstruction cache with
// ~1 KiB versions before a run that is meant to miss it.
constexpr int kCacheFillReads = 12288;

const char* const kWords[] = {
    "node",     "link",      "graph",    "version",   "attribute",
    "demon",    "context",   "document", "section",   "browser",
    "pane",     "hypertext", "circuit",  "module",    "compile",
    "design",   "review",    "history",  "delta",     "server",
    "query",    "predicate", "offset",   "icon",      "annotate",
    "workstation", "project", "requirement", "interface", "transaction",
    "the",      "a",         "of",       "and",       "with",
    "for",      "each",      "every",    "new",       "old"};
constexpr size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

std::string MakeLine(Rng& rng) {
  std::string line;
  while (line.size() < 56) {
    if (!line.empty()) line.push_back(' ');
    line += kWords[rng.Uniform(kWordCount)];
  }
  line.push_back('\n');
  return line;
}

std::string MakeText(Rng& rng, size_t lines) {
  std::string text;
  text.reserve(lines * 64);
  for (size_t i = 0; i < lines; ++i) text += MakeLine(rng);
  return text;
}

// One edit: a line of the text is rewritten.
void EditText(Rng& rng, std::string* text) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < text->size(); ++i) {
    if ((*text)[i] == '\n') starts.push_back(i + 1);
  }
  const size_t line = rng.Uniform(starts.size());
  const size_t begin = starts[line];
  const size_t end = text->find('\n', begin);
  text->replace(begin, end == std::string::npos ? std::string::npos
                                                : end + 1 - begin,
                MakeLine(rng));
}

std::string DocName(int doc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "d%02d", doc);
  return buf;
}

bool SameDifferences(const std::vector<delta::Difference>& a,
                     const std::vector<delta::Difference>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].old_begin != b[i].old_begin ||
        a[i].old_end != b[i].old_end || a[i].new_begin != b[i].new_begin ||
        a[i].new_end != b[i].new_end || a[i].old_lines != b[i].old_lines ||
        a[i].new_lines != b[i].new_lines) {
      return false;
    }
  }
  return true;
}

// Every needle appears in `haystack`, in order.
bool ContainsInOrder(const std::string& haystack,
                     const std::vector<std::string>& needles) {
  size_t pos = 0;
  for (const std::string& needle : needles) {
    pos = haystack.find(needle, pos);
    if (pos == std::string::npos) return false;
    pos += needle.size();
  }
  return true;
}

}  // namespace

uint64_t Digest(std::string_view text) {
  return std::hash<std::string_view>()(text) ^ (text.size() << 1);
}

const char* ActionName(Action action) {
  static const char* const kNames[] = {
      "pane",    "node",       "version",  "hardcopy",      "edit_shallow",
      "edit_deep", "annotate", "add_section", "set_attribute", "compile"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kActionCount);
  return kNames[static_cast<size_t>(action)];
}

// Action counts are fixed per run: nominal per-client rates on a
// 4-core x86 container times the requested seconds, so history depths,
// bytes written and per-action call counts repeat from run to run.
WorkloadSpec SpecFor(WorkloadKind kind, int seconds) {
  WorkloadSpec spec;
  auto closed = [&](Role role, double rate, int slot, int owners) {
    ClientPlan plan;
    plan.role = role;
    plan.actions = static_cast<uint64_t>(rate * seconds);
    plan.owner_slot = slot;
    plan.owner_count = owners;
    return plan;
  };
  switch (kind) {
    case WorkloadKind::kBrowse:
      spec.name = "browse";
      for (int i = 0; i < 4; ++i) {
        spec.clients.push_back(closed(Role::kReader, 320, 0, 1));
      }
      break;
    case WorkloadKind::kAuthor:
      spec.name = "author";
      spec.hot_sections = 16;
      spec.hot_versions = 4096;
      spec.shallow_sections = 1024;
      spec.modules = 50;
      spec.clients.push_back(closed(Role::kDocAuthor, 640, 0, 2));
      spec.clients.push_back(closed(Role::kDocAuthor, 640, 1, 2));
      spec.clients.push_back(closed(Role::kCaseDeveloper, 18, 0, 1));
      break;
    case WorkloadKind::kMixed: {
      spec.name = "mixed";
      spec.version_working_set = 64;
      spec.clients.push_back(closed(Role::kReader, 0, 0, 1));
      spec.clients.push_back(closed(Role::kReader, 0, 0, 1));
      for (int i = 0; i < 2; ++i) {
        ClientPlan plan;
        plan.role = Role::kPacedAuthor;
        plan.rate_per_s = 125;  // 250 commits/s in total
        plan.actions = static_cast<uint64_t>(plan.rate_per_s * seconds);
        plan.owner_slot = i;
        plan.owner_count = 2;
        spec.clients.push_back(plan);
      }
      break;
    }
  }
  return spec;
}

// --------------------------------------------------------------- Model

void Model::Append(ham::NodeIndex node, uint64_t digest) {
  std::unique_lock lock(mu_);
  NodeState& state = nodes_[node];
  state.digests.push_back(digest);
  state.ack_seq.push_back(0);
}

void Model::BeginWrite(ham::NodeIndex node, uint64_t digest) {
  std::unique_lock lock(mu_);
  NodeState& state = nodes_[node];
  state.pending = digest;
  state.run_write = true;
}

void Model::EndWrite(ham::NodeIndex node, bool acked) {
  std::unique_lock lock(mu_);
  NodeState& state = nodes_[node];
  if (!acked) return;  // may or may not have committed: stays pending
  state.digests.push_back(state.pending);
  state.ack_seq.push_back(seq_.fetch_add(1, std::memory_order_acq_rel));
  state.pending = 0;
}

void Model::Define(ham::NodeIndex node, uint64_t digest) {
  std::unique_lock lock(mu_);
  NodeState& state = nodes_[node];
  state.digests.push_back(digest);
  state.ack_seq.push_back(seq_.fetch_add(1, std::memory_order_acq_rel));
  state.run_write = true;
}

Model::Check Model::CheckCurrent(ham::NodeIndex node, uint64_t digest,
                                 uint64_t start_seq) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.digests.empty()) return Check::kUnknown;
  const NodeState& state = it->second;
  if (state.pending != 0 && state.pending == digest) return Check::kMatch;
  // The version current when the action started, or any acked later.
  size_t first = 0;
  for (size_t i = state.ack_seq.size(); i-- > 0;) {
    if (state.ack_seq[i] < start_seq) {
      first = i;
      break;
    }
  }
  for (size_t i = first; i < state.digests.size(); ++i) {
    if (state.digests[i] == digest) return Check::kMatch;
  }
  return Check::kMismatch;
}

Model::Check Model::CheckVersion(ham::NodeIndex node, size_t index,
                                 uint64_t digest) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end() || index >= it->second.digests.size()) {
    return Check::kUnknown;
  }
  return it->second.digests[index] == digest ? Check::kMatch
                                             : Check::kMismatch;
}

bool Model::Latest(ham::NodeIndex node, size_t* count, uint64_t* digest,
                   bool* uncertain) const {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.digests.empty()) return false;
  *count = it->second.digests.size();
  *digest = it->second.digests.back();
  *uncertain = it->second.pending != 0;
  return true;
}

std::vector<ham::NodeIndex> Model::WrittenDuringRun() const {
  std::shared_lock lock(mu_);
  std::vector<ham::NodeIndex> out;
  for (const auto& [node, state] : nodes_) {
    if (state.run_write) out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------ graph generation

Result<uint64_t> GenerateGraph(const WorkloadSpec& spec, uint64_t seed,
                               const std::string& graph_dir, Catalog* catalog,
                               Model* model) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 17);
  ham::HamOptions options;
  options.sync_commits = false;
  options.checkpoint_wal_bytes = 1ull << 40;  // one checkpoint, at the end
  options.project_id_seed = seed + 1;
  ham::Ham engine(Env::Default(), options);
  NEPTUNE_ASSIGN_OR_RETURN(ham::CreateGraphResult created,
                           engine.CreateGraph(graph_dir, 0755));
  NEPTUNE_ASSIGN_OR_RETURN(ham::Context ctx,
                           engine.OpenGraph(created.project, "", graph_dir));
  catalog->graph_dir = graph_dir;
  catalog->project = created.project;
  uint64_t content_bytes = 0;

  app::DocumentModel doc(&engine, ctx);
  NEPTUNE_RETURN_IF_ERROR(doc.Init());
  NEPTUNE_ASSIGN_OR_RETURN(ham::AttributeIndex kind_attr,
                           engine.GetAttributeIndex(ctx, "kind"));

  // Documents: root -> 4 chapters (~12 KiB) -> 4 sections -> 4
  // subsections -> 3 paragraphs (~1 KiB each).
  std::function<Status(ham::NodeIndex, int, int, const std::string&)> build =
      [&](ham::NodeIndex parent, int doc_index, int level,
          const std::string& number) -> Status {
    for (int i = 1; i <= kFanout[level]; ++i) {
      const std::string child_number =
          number.empty() ? std::to_string(i)
                         : number + "." + std::to_string(i);
      const std::string title = DocName(doc_index) + " " + child_number;
      const std::string text =
          MakeText(rng, level == 0 ? kChapterLines : kSectionLines);
      NEPTUNE_ASSIGN_OR_RETURN(
          ham::NodeIndex node,
          doc.AddSection(parent, DocName(doc_index), title, text,
                         static_cast<uint64_t>(i) * 8));
      NEPTUNE_RETURN_IF_ERROR(engine.SetNodeAttributeValue(
          ctx, node, kind_attr, kLevelKind[level]));
      model->Append(node, Digest(text));
      content_bytes += text.size();
      catalog->children[parent].push_back(node);
      catalog->titles[node] = title;
      catalog->doc_of[node] = doc_index;
      catalog->sections.push_back(node);
      if (level == 0) {
        catalog->chapters.push_back(node);
        catalog->chapters_of_doc[doc_index].push_back(node);
        catalog->texts[node] = text;
      }
      if (level + 1 < static_cast<int>(std::size(kFanout))) {
        NEPTUNE_RETURN_IF_ERROR(build(node, doc_index, level + 1,
                                      child_number));
      } else {
        catalog->paragraphs.push_back(node);
        catalog->texts[node] = text;
      }
    }
    return Status::OK();
  };
  catalog->chapters_of_doc.resize(kDocuments);
  for (int d = 0; d < kDocuments; ++d) {
    const std::string name = DocName(d);
    catalog->doc_names.push_back(name);
    NEPTUNE_ASSIGN_OR_RETURN(ham::NodeIndex root,
                             doc.CreateDocument(name, name + " manual"));
    NEPTUNE_RETURN_IF_ERROR(
        engine.SetNodeAttributeValue(ctx, root, kind_attr, "document"));
    catalog->titles[root] = name + " manual";
    NEPTUNE_RETURN_IF_ERROR(build(root, d, 0, ""));
  }
  size_t per_chapter = 1;
  for (int level = 1, width = 1; level < static_cast<int>(std::size(kFanout));
       ++level) {
    width *= kFanout[level];
    per_chapter += width;
  }
  catalog->subtree_size_of_chapter = per_chapter;

  // Cross references and review annotations between paragraphs.
  const size_t paragraphs = catalog->paragraphs.size();
  for (size_t i = 0; i < paragraphs / 10; ++i) {
    const ham::NodeIndex from = catalog->paragraphs[rng.Uniform(paragraphs)];
    const ham::NodeIndex to = catalog->paragraphs[rng.Uniform(paragraphs)];
    NEPTUNE_RETURN_IF_ERROR(doc.AddReference(from, 16, to).status());
    const std::string note = MakeText(rng, 2);
    NEPTUNE_ASSIGN_OR_RETURN(
        ham::NodeIndex annotation,
        doc.Annotate(catalog->paragraphs[rng.Uniform(paragraphs)], 32, note));
    model->Append(annotation, Digest(note));
    content_bytes += note.size();
  }

  // Disjoint edit sets, drawn from a seeded shuffle of the paragraphs.
  std::vector<ham::NodeIndex> pool = catalog->paragraphs;
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Uniform(i)]);
  }
  size_t next = 0;
  auto take = [&](int count, std::vector<ham::NodeIndex>* out) {
    for (int i = 0; i < count && next < pool.size(); ++i) {
      out->push_back(pool[next++]);
    }
  };
  take(kHistorySections, &catalog->history);
  take(spec.hot_sections, &catalog->hot);
  take(spec.shallow_sections, &catalog->shallow);

  // Preloaded histories: one line rewritten per version.
  auto preload = [&](ham::NodeIndex node, int versions) -> Status {
    std::string& text = catalog->texts[node];
    for (int v = 1; v < versions;) {
      const int batch = std::min(kHotBatch, versions - v);
      NEPTUNE_RETURN_IF_ERROR(engine.BeginTransaction(ctx));
      for (int b = 0; b < batch; ++b, ++v) {
        EditText(rng, &text);
        Status status = doc.EditSection(node, text, "preload");
        if (!status.ok()) {
          engine.AbortTransaction(ctx);
          return status;
        }
        model->Append(node, Digest(text));
        content_bytes += text.size();
      }
      NEPTUNE_RETURN_IF_ERROR(engine.CommitTransaction(ctx));
    }
    return Status::OK();
  };
  for (ham::NodeIndex node : catalog->history) {
    NEPTUNE_RETURN_IF_ERROR(preload(node, kHistoryVersions));
    NEPTUNE_ASSIGN_OR_RETURN(ham::NodeVersions versions,
                             engine.GetNodeVersions(ctx, node));
    if (versions.major.size() < static_cast<size_t>(kHistoryVersions)) {
      return Status::Corruption("preloaded history too short");
    }
    std::vector<ham::Time>& times = catalog->version_times[node];
    for (size_t i = versions.major.size() - kHistoryVersions;
         i < versions.major.size(); ++i) {
      times.push_back(versions.major[i].time);
    }
  }
  for (ham::NodeIndex node : catalog->hot) {
    NEPTUNE_RETURN_IF_ERROR(preload(node, spec.hot_versions));
    NEPTUNE_ASSIGN_OR_RETURN(ham::NodeVersions versions,
                             engine.GetNodeVersions(ctx, node));
    if (versions.major.size() < static_cast<size_t>(spec.hot_versions)) {
      return Status::Corruption("preloaded deep history too short");
    }
  }

  // The CASE project: modules with procedures and imports, compiled.
  if (spec.modules > 0) {
    app::CaseModel case_model(&engine, ctx);
    NEPTUNE_RETURN_IF_ERROR(case_model.Init());
    std::vector<ham::NodeIndex> modules;
    for (int m = 0; m < spec.modules; ++m) {
      char name[32];
      std::snprintf(name, sizeof(name), "Mod%02d", m);
      const std::string source = MakeText(rng, 24);
      NEPTUNE_ASSIGN_OR_RETURN(
          ham::NodeIndex module,
          case_model.AddModule(name,
                               m % 5 == 0
                                   ? app::CaseConventions::kDefinitionModule
                                   : app::CaseConventions::kImplementationModule,
                               source));
      model->Append(module, Digest(source));
      content_bytes += source.size();
      catalog->sources.push_back(module);
      catalog->texts[module] = source;
      for (int p = 0; p < kProceduresPerModule; ++p) {
        const std::string body = MakeText(rng, 12);
        NEPTUNE_ASSIGN_OR_RETURN(
            ham::NodeIndex procedure,
            case_model.AddProcedure(module,
                                    std::string(name) + ".P" +
                                        std::to_string(p),
                                    body, static_cast<uint64_t>(p + 1) * 8));
        model->Append(procedure, Digest(body));
        content_bytes += body.size();
        catalog->sources.push_back(procedure);
        catalog->texts[procedure] = body;
      }
      for (int k = 0; k < kImportsPerModule && m > 0; ++k) {
        NEPTUNE_RETURN_IF_ERROR(case_model.AddImport(
            module, modules[rng.Uniform(modules.size())],
            static_cast<uint64_t>(k) * 4));
      }
      modules.push_back(module);
    }
    NEPTUNE_ASSIGN_OR_RETURN(app::CompileReport report,
                             case_model.CompileAll());
    if (report.compiled != catalog->sources.size()) {
      return Status::Corruption("initial build compiled " +
                                std::to_string(report.compiled) + " of " +
                                std::to_string(catalog->sources.size()));
    }
    for (ham::NodeIndex source : catalog->sources) {
      content_bytes +=
          app::CaseModel::FakeObjectCode(catalog->texts[source]).size();
    }
  }

  NEPTUNE_RETURN_IF_ERROR(engine.Checkpoint(ctx));
  NEPTUNE_RETURN_IF_ERROR(engine.CloseGraph(ctx));
  return content_bytes;
}

// ------------------------------------------------------------- Session

struct Session::Impl {
  Impl(Session* session, ham::HamInterface* ham, ham::Context ctx,
       uint64_t seed)
      : s(session),
        rng(seed),
        warm_rng(seed ^ 0x5bd1e995ull),
        doc(ham, ctx),
        doc_browser(ham, ctx),
        node_browser(ham, ctx),
        diff_browser(ham, ctx),
        version_browser(ham, ctx),
        case_model(ham, ctx) {}

  Status Dispatch(Action action, Rng& r, uint64_t* end_ns);
  Status Pane(Rng& r, uint64_t* end_ns);
  Status Node(Rng& r, uint64_t* end_ns);
  Status Version(Rng& r, uint64_t* end_ns);
  Status Hardcopy(Rng& r, uint64_t* end_ns);
  Status Edit(ham::NodeIndex node, uint64_t* end_ns);
  Status Annotate(ham::NodeIndex target, uint64_t* end_ns);
  Status AddSection(uint64_t* end_ns);
  Status SetAttribute(uint64_t* end_ns);
  Status Compile(uint64_t* end_ns);
  Status VerifyOpened(uint64_t start_seq);
  Action Choose(Rng& r) const;

  Session* s;
  Rng rng;       // the measured script
  Rng warm_rng;  // warm-up only, so the script does not depend on it
  app::DocumentModel doc;
  app::DocumentBrowser doc_browser;
  app::NodeBrowser node_browser;
  app::NodeDifferencesBrowser diff_browser;
  app::VersionBrowser version_browser;
  app::CaseModel case_model;
  ham::AttributeIndex status_attr = 0;
  // Edit targets: short-history sections, or the chapters of a paced
  // author, or the sources of the CASE developer.
  std::vector<ham::NodeIndex> own_shallow;
  std::vector<ham::NodeIndex> own_hot;
  std::unordered_map<ham::NodeIndex, std::string> texts;
  uint64_t counter = 0;
  size_t errors_logged = 0;
};

Session::Session(int id, ClientPlan plan,
                 std::unique_ptr<ham::HamInterface> remote, RunContext* run)
    : id_(id),
      plan_(plan),
      remote_(std::move(remote)),
      ham_(remote_.get()),
      run_(run) {}

Session::~Session() = default;

Status Session::Open() {
  NEPTUNE_ASSIGN_OR_RETURN(
      ctx_, ham_.OpenGraph(run_->catalog->project, "localhost",
                           run_->catalog->graph_dir));
  impl_ = std::make_unique<Impl>(
      this, &ham_, ctx_, run_->seed * 1000003ull + static_cast<uint64_t>(id_));
  NEPTUNE_RETURN_IF_ERROR(impl_->doc.Init());
  NEPTUNE_ASSIGN_OR_RETURN(impl_->status_attr,
                           ham_.GetAttributeIndex(ctx_, "status"));
  const Catalog& catalog = *run_->catalog;
  if (plan_.role == Role::kCaseDeveloper) {
    NEPTUNE_RETURN_IF_ERROR(impl_->case_model.Init());
  }
  // Each writer owns a disjoint share of the nodes it edits, so no two
  // writers ever race on one node's version.
  auto share = [&](const std::vector<ham::NodeIndex>& all,
                   std::vector<ham::NodeIndex>* out) {
    for (size_t i = static_cast<size_t>(plan_.owner_slot); i < all.size();
         i += static_cast<size_t>(plan_.owner_count)) {
      out->push_back(all[i]);
      impl_->texts[all[i]] = catalog.texts.at(all[i]);
    }
  };
  switch (plan_.role) {
    case Role::kDocAuthor:
      share(catalog.shallow, &impl_->own_shallow);
      share(catalog.hot, &impl_->own_hot);
      break;
    case Role::kPacedAuthor:
      share(catalog.chapters, &impl_->own_shallow);
      break;
    case Role::kCaseDeveloper:
      share(catalog.sources, &impl_->own_shallow);
      break;
    case Role::kReader:
      break;
  }
  return Status::OK();
}

Action Session::Impl::Choose(Rng& r) const {
  // The shares are assumptions: no recorded or published session mix
  // exists to take them from. Readers spread evenly over the four read
  // kinds; authors edit deep and shallow sections equally often.
  const uint64_t roll = r.Uniform(100);
  switch (s->plan_.role) {
    case Role::kReader:
      return roll < 25   ? Action::kPane
             : roll < 50 ? Action::kNode
             : roll < 75 ? Action::kVersion
                         : Action::kHardcopy;
    case Role::kDocAuthor:
      return roll < 30   ? Action::kEditShallow
             : roll < 60 ? Action::kEditDeep
             : roll < 70 ? Action::kAnnotate
             : roll < 75 ? Action::kAddSection
             : roll < 80 ? Action::kSetAttribute
             : roll < 90 ? Action::kPane
                         : Action::kVersion;
    case Role::kCaseDeveloper:
      return Action::kCompile;
    case Role::kPacedAuthor:
      return roll < 80 ? Action::kEditShallow : Action::kAnnotate;
  }
  return Action::kNode;
}

Status Session::Impl::Dispatch(Action action, Rng& r, uint64_t* end_ns) {
  switch (action) {
    case Action::kPane:
      return Pane(r, end_ns);
    case Action::kNode:
      return Node(r, end_ns);
    case Action::kVersion:
      return Version(r, end_ns);
    case Action::kHardcopy:
      return Hardcopy(r, end_ns);
    case Action::kEditShallow:
      return Edit(own_shallow[r.Uniform(own_shallow.size())], end_ns);
    case Action::kEditDeep:
      return Edit(own_hot[r.Uniform(own_hot.size())], end_ns);
    case Action::kAnnotate:
      return Annotate(own_shallow[r.Uniform(own_shallow.size())], end_ns);
    case Action::kAddSection:
      return AddSection(end_ns);
    case Action::kSetAttribute:
      return SetAttribute(end_ns);
    case Action::kCompile:
      return Compile(end_ns);
    case Action::kCount:
      break;
  }
  return Status::InvalidArgument("unknown action");
}

Status Session::Impl::Pane(Rng& r, uint64_t* end_ns) {
  const Catalog& c = *s->run_->catalog;
  const size_t d = r.Uniform(c.doc_names.size());
  app::DocumentBrowserOptions options;
  options.query_predicate =
      "document = '" + c.doc_names[d] + "' & kind = 'chapter'";
  std::vector<std::vector<ham::NodeIndex>> panes = {c.chapters_of_doc[d]};
  ham::NodeIndex selected = 0;
  for (int level = 0; level < 4; ++level) {
    const std::vector<ham::NodeIndex>& rows = panes.back();
    const size_t row = r.Uniform(rows.size());
    options.selection.push_back(row);
    selected = rows[row];
    if (level < 3) panes.push_back(c.children.at(selected));
  }
  Result<std::string> out = doc_browser.Render(options);
  *end_ns = NowNanos();
  if (!out.ok()) return out.status();
  std::vector<std::string> expected;
  for (size_t row = 0; row < 8; ++row) {
    for (const auto& pane : panes) {
      if (row < pane.size()) expected.push_back(c.titles.at(pane[row]));
    }
  }
  expected.push_back("Node Browser - " + c.titles.at(selected));
  if (!ContainsInOrder(*out, expected)) {
    return Status::Corruption("pane rows differ from the outline");
  }
  return Status::OK();
}

Status Session::Impl::Node(Rng& r, uint64_t* end_ns) {
  const Catalog& c = *s->run_->catalog;
  const ham::NodeIndex node = c.sections[r.Uniform(c.sections.size())];
  Result<std::string> out = node_browser.Render(node, 0);
  *end_ns = NowNanos();
  if (!out.ok()) return out.status();
  if (out->find("Node Browser - " + c.titles.at(node)) == std::string::npos) {
    return Status::Corruption("node browser title");
  }
  return Status::OK();
}

Status Session::Impl::Version(Rng& r, uint64_t* end_ns) {
  const Catalog& c = *s->run_->catalog;
  const WorkloadSpec& spec = *s->run_->spec;
  const size_t set = spec.version_working_set > 0
                         ? static_cast<size_t>(spec.version_working_set)
                         : c.history.size();
  const ham::NodeIndex node = c.history[r.Uniform(set)];
  const std::vector<ham::Time>& times = c.version_times.at(node);
  const size_t k = r.Uniform(times.size() - 1);
  const size_t j = k + 1 + r.Uniform(times.size() - 1 - k);
  Status status = version_browser.Render(node).status();
  if (status.ok()) status = node_browser.Render(node, times[k]).status();
  if (status.ok()) {
    status = diff_browser.Render(node, times[k], times[j]).status();
  }
  if (status.ok()) {
    status = s->ham_.GetNodeDifferences(s->ctx_, node, times[k], times[j])
                 .status();
  }
  *end_ns = NowNanos();
  if (!status.ok()) return status;
  // The version list ends with the preloaded versions, in order.
  const std::vector<ham::VersionEntry>& major = s->ham_.versions()[0].major;
  if (major.size() < times.size()) {
    return Status::Corruption("version list too short");
  }
  for (size_t i = 0; i < times.size(); ++i) {
    if (major[major.size() - times.size() + i].time != times[i]) {
      return Status::Corruption("version times differ");
    }
  }
  // The server's differences equal a diff of the two versions read.
  const std::vector<OpenedNode>& opened = s->ham_.opened();
  const std::string* left = nullptr;
  const std::string* right = nullptr;
  for (const OpenedNode& o : opened) {
    if (o.time == times[k]) left = &o.contents;
    if (o.time == times[j]) right = &o.contents;
  }
  if (left == nullptr || right == nullptr ||
      !SameDifferences(s->ham_.differences()[0],
                       delta::DiffLines(*left, *right))) {
    return Status::Corruption("node differences");
  }
  return Status::OK();
}

Status Session::Impl::Hardcopy(Rng& r, uint64_t* end_ns) {
  const Catalog& c = *s->run_->catalog;
  const ham::NodeIndex chapter = c.chapters[r.Uniform(c.chapters.size())];
  Result<std::string> out = doc.ExtractHardcopy(chapter, 0);
  *end_ns = NowNanos();
  if (!out.ok()) return out.status();
  if (s->ham_.opened().size() != c.subtree_size_of_chapter) {
    return Status::Corruption("hardcopy section count");
  }
  for (const OpenedNode& o : s->ham_.opened()) {
    if (out->find(c.titles.at(o.node)) == std::string::npos) {
      return Status::Corruption("hardcopy heading missing");
    }
  }
  return Status::OK();
}

Status Session::Impl::Edit(ham::NodeIndex node, uint64_t* end_ns) {
  std::string text = texts[node];
  EditText(rng, &text);
  Model* model = s->run_->model;
  model->BeginWrite(node, Digest(text));
  Status status = doc.EditSection(node, text, "edit");
  *end_ns = NowNanos();
  model->EndWrite(node, status.ok());
  if (!status.ok()) return status;
  s->stats_.content_bytes += text.size();
  texts[node] = std::move(text);
  return Status::OK();
}

Status Session::Impl::Annotate(ham::NodeIndex target, uint64_t* end_ns) {
  const std::string note = MakeText(rng, 2);
  Result<ham::NodeIndex> created = doc.Annotate(target, 0, note);
  *end_ns = NowNanos();
  if (!created.ok()) return created.status();
  if (*created == 0) return Status::Corruption("annotation node 0");
  s->run_->model->Define(*created, Digest(note));
  s->stats_.content_bytes += note.size();
  return Status::OK();
}

Status Session::Impl::AddSection(uint64_t* end_ns) {
  const Catalog& c = *s->run_->catalog;
  const ham::NodeIndex parent = own_shallow[rng.Uniform(own_shallow.size())];
  const std::string text = MakeText(rng, kSectionLines);
  const std::string title =
      "c" + std::to_string(s->id_) + " n" + std::to_string(++counter);
  Result<ham::NodeIndex> created =
      doc.AddSection(parent, c.doc_names[c.doc_of.at(parent)], title, text,
                     counter * 8);
  *end_ns = NowNanos();
  if (!created.ok()) return created.status();
  s->run_->model->Define(*created, Digest(text));
  s->stats_.content_bytes += text.size();
  return Status::OK();
}

Status Session::Impl::SetAttribute(uint64_t* end_ns) {
  const ham::NodeIndex node = own_shallow[rng.Uniform(own_shallow.size())];
  Status status = s->ham_.SetNodeAttributeValue(
      s->ctx_, node, status_attr, "rev" + std::to_string(++counter));
  *end_ns = NowNanos();
  return status;
}

Status Session::Impl::Compile(uint64_t* end_ns) {
  const ham::NodeIndex source = own_shallow[rng.Uniform(own_shallow.size())];
  std::string text = texts[source];
  EditText(rng, &text);
  Model* model = s->run_->model;
  model->BeginWrite(source, Digest(text));
  Status status = case_model.EditSource(source, text);
  model->EndWrite(source, status.ok());
  Result<app::CompileReport> report =
      status.ok() ? case_model.CompileAll() : Result<app::CompileReport>(status);
  *end_ns = NowNanos();
  if (!report.ok()) return report.status();
  texts[source] = text;
  const std::string object = app::CaseModel::FakeObjectCode(text);
  s->stats_.content_bytes += text.size() + object.size();
  const size_t sources = s->run_->catalog->sources.size();
  if (report->compiled != 1 || report->up_to_date != sources - 1) {
    return Status::Corruption("compile report " +
                              std::to_string(report->compiled) + "/" +
                              std::to_string(report->up_to_date));
  }
  for (const ModifiedNode& m : s->ham_.modified()) {
    if (m.node != source && m.contents == object) return Status::OK();
  }
  return Status::Corruption("object code not regenerated");
}

Status Session::Impl::VerifyOpened(uint64_t start_seq) {
  const Catalog& c = *s->run_->catalog;
  const Model& model = *s->run_->model;
  for (const OpenedNode& o : s->ham_.opened()) {
    const uint64_t digest = Digest(o.contents);
    Model::Check check = Model::Check::kUnknown;
    if (o.time == 0) {
      check = model.CheckCurrent(o.node, digest, start_seq);
    } else if (auto it = c.version_times.find(o.node);
               it != c.version_times.end()) {
      const std::vector<ham::Time>& times = it->second;
      auto pos = std::upper_bound(times.begin(), times.end(), o.time);
      if (pos != times.begin()) {
        check = model.CheckVersion(
            o.node, static_cast<size_t>(pos - times.begin()) - 1, digest);
      }
    }
    if (check == Model::Check::kMismatch) {
      return Status::Corruption("node " + std::to_string(o.node) + " @" +
                                std::to_string(o.time) +
                                " differs from every version written");
    }
  }
  return Status::OK();
}

Status Session::WarmUp() {
  Impl& impl = *impl_;
  if (plan_.role == Role::kCaseDeveloper) {
    NEPTUNE_ASSIGN_OR_RETURN(app::CompileReport report,
                             impl.case_model.CompileAll());
    if (report.compiled != 0) return Status::Corruption("stale object code");
    return Status::OK();
  }
  static constexpr Action kReads[] = {Action::kPane, Action::kNode,
                                      Action::kVersion, Action::kHardcopy};
  for (uint64_t i = 0; i < kWarmUpActions; ++i) {
    uint64_t end_ns = 0;
    const uint64_t start_seq = run_->model->Seq();
    ham_.BeginAction(false);
    NEPTUNE_RETURN_IF_ERROR(impl.Dispatch(kReads[i % 4], impl.warm_rng,
                                          &end_ns));
    NEPTUNE_RETURN_IF_ERROR(impl.VerifyOpened(start_seq));
  }
  // Fill the reconstruction cache before timing: a working set meant
  // to fit is read whole; otherwise a seeded sample of historical
  // versions larger than the cache is read. Split across readers.
  const WorkloadSpec& spec = *run_->spec;
  if (plan_.role != Role::kReader) return Status::OK();
  int readers = 0;
  int rank = 0;
  for (size_t i = 0; i < spec.clients.size(); ++i) {
    if (spec.clients[i].role != Role::kReader) continue;
    if (static_cast<int>(i) == id_) rank = readers;
    ++readers;
  }
  const Catalog& c = *run_->catalog;
  if (spec.version_working_set > 0) {
    for (int h = rank; h < spec.version_working_set; h += readers) {
      const ham::NodeIndex node = c.history[h];
      for (ham::Time t : c.version_times.at(node)) {
        NEPTUNE_RETURN_IF_ERROR(ham_.OpenNode(ctx_, node, t, {}).status());
      }
    }
    return Status::OK();
  }
  for (int i = rank; i < kCacheFillReads; i += readers) {
    const ham::NodeIndex node = c.history[impl.warm_rng.Uniform(c.history.size())];
    const std::vector<ham::Time>& times = c.version_times.at(node);
    NEPTUNE_RETURN_IF_ERROR(
        ham_.OpenNode(ctx_, node, times[impl.warm_rng.Uniform(times.size())], {})
            .status());
  }
  return Status::OK();
}

void Session::Run() {
  Impl& impl = *impl_;
  const bool paced = plan_.role == Role::kPacedAuthor;
  const bool until_paced_done =
      plan_.role == Role::kReader && plan_.actions == 0;
  const uint64_t period_ns =
      paced ? static_cast<uint64_t>(1e9 / plan_.rate_per_s) : 0;
  const uint64_t start_ns = NowNanos();
  // Two paced authors interleave rather than send together.
  const uint64_t phase_ns =
      paced ? period_ns * static_cast<uint64_t>(plan_.owner_slot) /
                  static_cast<uint64_t>(plan_.owner_count)
            : 0;
  for (uint64_t i = 0;; ++i) {
    if (until_paced_done) {
      if (run_->paced_authors_active.load(std::memory_order_acquire) == 0) {
        break;
      }
    } else if (i >= plan_.actions) {
      break;
    }
    if (NowNanos() >= run_->window_deadline_ns) {
      std::fprintf(stderr, "client %d: script cut at the deadline after %llu "
                   "actions\n", id_, static_cast<unsigned long long>(i));
      break;
    }
    const Action action = impl.Choose(impl.rng);
    uint64_t due_ns = 0;
    if (paced) {
      due_ns = start_ns + phase_ns + i * period_ns;
      const uint64_t now = NowNanos();
      if (now < due_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
        stats_.gen_lag_us.push_back(
            static_cast<float>((NowNanos() - due_ns) / 1e3));
      } else {
        stats_.max_backlog_ms =
            std::max(stats_.max_backlog_ms, (now - due_ns) / 1e6);
      }
    }
    const bool traced = run_->trace && (i % 2 == 1);
    const uint64_t start_seq = run_->model->Seq();
    ham_.BeginAction(traced);
    const uint64_t t0 = NowNanos();
    uint64_t t1 = 0;
    Status status = impl.Dispatch(action, impl.rng, &t1);
    if (t1 == 0) t1 = NowNanos();
    if (status.ok()) status = impl.VerifyOpened(start_seq);

    const size_t a = static_cast<size_t>(action);
    ++stats_.attempted;
    ++stats_.actions[a];
    stats_.calls[a] += ham_.calls();
    stats_.read_calls += ham_.read_calls();
    if (!status.ok()) {
      ++stats_.failed;
      if (impl.errors_logged++ < 5) {
        std::fprintf(stderr, "client %d %s failed: %s\n", id_,
                     ActionName(action), status.ToString().c_str());
      }
      continue;
    }
    const float latency_us =
        static_cast<float>((t1 - (paced ? due_ns : t0)) / 1e3);
    if (!traced) {
      stats_.latency_us[a].push_back(latency_us);
      continue;
    }
    stats_.traced_latency_us[a].push_back(latency_us);
    uint64_t child_ns = 0;
    for (const CallSpan& span : ham_.spans()) {
      child_ns += span.end_ns - span.start_ns;
      stats_.call_us[static_cast<size_t>(span.call)].push_back(
          static_cast<float>((span.end_ns - span.start_ns) / 1e3));
    }
    stats_.self_us[a].push_back(
        static_cast<float>((t1 - t0 - std::min(child_ns, t1 - t0)) / 1e3));
    if (stats_.traced_actions_kept < kTraceActionsKept) {
      ++stats_.traced_actions_kept;
      char buf[256];
      auto event = [&](const char* name, uint64_t begin, uint64_t end) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"action\":%" PRIu64
                      "}},\n",
                      name, id_, begin / 1e3, (end - begin) / 1e3, i);
        stats_.trace_events += buf;
      };
      event(ActionName(action), t0, t1);
      for (const CallSpan& span : ham_.spans()) {
        event(HamCallName(span.call), span.start_ns, span.end_ns);
      }
    }
  }
  stats_.run_s = static_cast<double>(NowNanos() - start_ns) / 1e9;
  if (paced) run_->paced_authors_active.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace bench
}  // namespace neptune
