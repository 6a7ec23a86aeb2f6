// The paper-session load generator: graph generation, the generator's
// own model of what it wrote, and the workstation sessions (browse,
// author, CASE and paced-author clients) that drive the app layer
// through a RecordingHam over a RemoteHam connection.

#ifndef NEPTUNE_BENCH_E2E_WORKLOAD_H_
#define NEPTUNE_BENCH_E2E_WORKLOAD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ham/ham_interface.h"
#include "recording_ham.h"

namespace neptune {
namespace bench {

// ------------------------------------------------------------ inputs

// splitmix64: the only source of randomness; every input derives from
// the workload seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

uint64_t Digest(std::string_view text);

enum class WorkloadKind { kBrowse, kAuthor, kMixed };

enum class Action : uint8_t {
  kPane,          // DocumentBrowser::Render along a 4-pane selection path
  kNode,          // NodeBrowser::Render at the current time
  kVersion,       // VersionBrowser + NodeBrowser at t1 + differences t1..t2
  kHardcopy,      // DocumentModel::ExtractHardcopy of a chapter
  kEditShallow,   // DocumentModel::EditSection, short history
  kEditDeep,      // DocumentModel::EditSection, thousands of versions
  kAnnotate,      // DocumentModel::Annotate (one multi-op transaction)
  kAddSection,    // DocumentModel::AddSection
  kSetAttribute,  // setNodeAttributeValue on a section
  kCompile,       // CaseModel::EditSource + CompileAll
  kCount
};
constexpr size_t kActionCount = static_cast<size_t>(Action::kCount);
const char* ActionName(Action action);

enum class Role { kReader, kDocAuthor, kCaseDeveloper, kPacedAuthor };

struct ClientPlan {
  Role role = Role::kReader;
  // Closed loop: exactly this many actions. Paced: writes due at
  // `rate_per_s` for the window; readers next to paced authors run
  // until every paced author is done.
  uint64_t actions = 0;
  double rate_per_s = 0;
  int owner_slot = 0;  // which share of the editable nodes it owns
  int owner_count = 1;
};

// Every workload shares one graph shape: 20 documents, 512 sections
// with 64-version histories. The author workload adds the rest.
struct WorkloadSpec {
  std::string name;
  int hot_sections = 0;           // deep-history sections (author)
  int hot_versions = 0;
  int shallow_sections = 0;       // short-history edit targets (author)
  int modules = 0;                // Modula-2 modules (author)
  // Version browsing draws from the first `version_working_set`
  // history sections (all of them when 0).
  int version_working_set = 0;
  std::vector<ClientPlan> clients;
};

WorkloadSpec SpecFor(WorkloadKind kind, int seconds);

// ------------------------------------------------------------- model

// The generator's record of every version it wrote: a content digest
// per (node, version) and the order writes were acknowledged in. Reads
// are checked against it.
class Model {
 public:
  enum class Check { kMatch, kMismatch, kUnknown };

  // Setup-time versions (acked before the run starts).
  void Append(ham::NodeIndex node, uint64_t digest);

  // Run-time writes by the node's single owner.
  void BeginWrite(ham::NodeIndex node, uint64_t digest);
  void EndWrite(ham::NodeIndex node, bool acked);
  void Define(ham::NodeIndex node, uint64_t digest);  // a new node

  uint64_t Seq() const { return seq_.load(std::memory_order_acquire); }

  // Contents read at time 0 during an action that started at `seq`:
  // must be the version current then, a later acked one, or the
  // owner's in-flight write.
  Check CheckCurrent(ham::NodeIndex node, uint64_t digest,
                     uint64_t start_seq) const;
  // Contents of the node's `index`-th version written (0 = first).
  Check CheckVersion(ham::NodeIndex node, size_t index,
                     uint64_t digest) const;

  // For recovery checks: acked version count, latest acked digest, and
  // whether a failed write left the outcome unknown.
  bool Latest(ham::NodeIndex node, size_t* count, uint64_t* digest,
              bool* uncertain) const;
  std::vector<ham::NodeIndex> WrittenDuringRun() const;

 private:
  struct NodeState {
    std::vector<uint64_t> digests;
    std::vector<uint64_t> ack_seq;  // 0 for setup-time versions
    uint64_t pending = 0;
    bool run_write = false;
  };
  mutable std::shared_mutex mu_;
  std::unordered_map<ham::NodeIndex, NodeState> nodes_;
  std::atomic<uint64_t> seq_{1};
};

// What the generator built: structure for expected outputs, the node
// sets each role draws from, and the texts of nodes it will edit.
struct Catalog {
  std::string graph_dir;
  ham::ProjectId project = 0;
  std::vector<std::string> doc_names;
  std::vector<std::vector<ham::NodeIndex>> chapters_of_doc;
  std::unordered_map<ham::NodeIndex, std::vector<ham::NodeIndex>> children;
  std::unordered_map<ham::NodeIndex, std::string> titles;
  std::unordered_map<ham::NodeIndex, int> doc_of;
  // Times of the preloaded versions of each history section.
  std::unordered_map<ham::NodeIndex, std::vector<ham::Time>> version_times;
  std::vector<ham::NodeIndex> sections;    // every section, all levels
  std::vector<ham::NodeIndex> chapters;
  std::vector<ham::NodeIndex> paragraphs;  // the leaves
  std::vector<ham::NodeIndex> history;
  std::vector<ham::NodeIndex> hot;
  std::vector<ham::NodeIndex> shallow;
  std::vector<ham::NodeIndex> sources;     // CASE modules + procedures
  std::unordered_map<ham::NodeIndex, std::string> texts;  // editable nodes
  size_t subtree_size_of_chapter = 0;
};

// Builds the workload's graph in `graph_dir` with an in-process engine
// (unsynced commits, one checkpoint at the end) and fills `model`.
// Returns the content bytes of every version written.
Result<uint64_t> GenerateGraph(const WorkloadSpec& spec, uint64_t seed,
                               const std::string& graph_dir, Catalog* catalog,
                               Model* model);

// ---------------------------------------------------------- sessions

struct ClientStats {
  // Action latencies in microseconds. In a traced run only untraced
  // actions land in `latency_us`; traced ones in `traced_latency_us`.
  std::array<std::vector<float>, kActionCount> latency_us;
  double run_s = 0;  // how long the client's script ran
  std::array<std::vector<float>, kActionCount> traced_latency_us;
  std::array<uint64_t, kActionCount> actions{};
  std::array<uint64_t, kActionCount> calls{};
  std::array<std::vector<float>, kActionCount> self_us;  // traced only
  std::array<std::vector<float>, static_cast<size_t>(HamCall::kCount)> call_us;
  uint64_t read_calls = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t content_bytes = 0;
  // Paced writers: how late the generator itself woke for a write that
  // was not blocked behind the previous one, and the largest backlog
  // (send time minus due time) it ever had.
  std::vector<float> gen_lag_us;
  double max_backlog_ms = 0;
  // Chrome-trace events of the first traced actions.
  std::string trace_events;
  size_t traced_actions_kept = 0;
};

// Shared state of one measured run.
struct RunContext {
  const WorkloadSpec* spec = nullptr;
  const Catalog* catalog = nullptr;
  Model* model = nullptr;
  uint64_t seed = 0;
  bool trace = false;
  // Scripts stop early past this point, so a starved machine still
  // finishes the run in bounded time (their counts then differ).
  uint64_t window_deadline_ns = UINT64_MAX;
  std::atomic<int> paced_authors_active{0};
};

// One workstation: its own connection, graph session and app objects.
class Session {
 public:
  Session(int id, ClientPlan plan, std::unique_ptr<ham::HamInterface> remote,
          RunContext* run);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Status Open();
  // Read-only actions that fill caches and build lazy indexes.
  Status WarmUp();
  // The measured script; fills stats().
  void Run();

  ClientStats& stats() { return stats_; }
  ham::HamInterface* remote() { return remote_.get(); }
  ham::Context ctx() const { return ctx_; }

 private:
  struct Impl;
  int id_;
  ClientPlan plan_;
  std::unique_ptr<ham::HamInterface> remote_;
  RecordingHam ham_;
  RunContext* run_;
  ham::Context ctx_;
  ClientStats stats_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bench
}  // namespace neptune

#endif  // NEPTUNE_BENCH_E2E_WORKLOAD_H_
