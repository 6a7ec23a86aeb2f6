// Golden bytes for every wire method, and a seeded mutation test of the
// request decoder.
//
// A RemoteHam talks to a RequestDispatcher over an in-memory stream
// (Options::stream_factory). The dispatcher runs against a fake HAM
// that answers every operation with a canned result, so both the
// request a stub sends for fixed arguments and the reply the server
// encodes are fixed bytes. The expected bytes below were recorded
// before the method table replaced the hand-written stubs and
// dispatcher cases; any change to them is a wire format change, and
// breaks interoperation with already-deployed clients and servers.
//
// The mutation test feeds byte flips, truncations and inflated counts
// of those requests straight into RequestDispatcher::Handle: every
// input must be answered with a decodable status reply, never a crash
// or an exception.

#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "common/trace.h"
#include "rpc/dispatch.h"
#include "rpc/remote_ham.h"
#include "rpc/socket.h"
#include "rpc/wire.h"

namespace neptune {
namespace rpc {
namespace {

using ham::Context;

ham::SubGraph CannedGraph() {
  ham::SubGraph g;
  g.nodes.push_back({12, {"red", std::nullopt}});
  g.nodes.push_back({300, {std::nullopt, "big"}});
  g.links.push_back({40, 12, 300, {"dashed"}});
  return g;
}

// Every HamInterface operation answers with a fixed result (a few with
// a fixed error), whatever its arguments.
class CannedHam final : public ham::HamInterface {
 public:
  Result<ham::CreateGraphResult> CreateGraph(const std::string&,
                                             uint32_t) override {
    return ham::CreateGraphResult{7, 1000};
  }
  Status DestroyGraph(ham::ProjectId, const std::string&) override {
    return Status::OK();
  }
  Result<Context> OpenGraph(ham::ProjectId, const std::string&,
                            const std::string&) override {
    return Context{300};
  }
  Status CloseGraph(Context) override { return Status::OK(); }
  Status BeginTransaction(Context) override { return Status::OK(); }
  Status CommitTransaction(Context) override { return Status::OK(); }
  Status AbortTransaction(Context) override {
    return Status::FailedPrecondition("no open transaction");
  }
  Result<ham::AddNodeResult> AddNode(Context, bool) override {
    return ham::AddNodeResult{12, 1001};
  }
  Status DeleteNode(Context, ham::NodeIndex) override {
    return Status::NotFound("no node 12");
  }
  Result<ham::AddLinkResult> AddLink(Context, const ham::LinkPt&,
                                     const ham::LinkPt&) override {
    return ham::AddLinkResult{40, 1002};
  }
  Result<ham::AddLinkResult> CopyLink(Context, ham::LinkIndex, ham::Time,
                                      bool, const ham::LinkPt&) override {
    return ham::AddLinkResult{41, 1003};
  }
  Status DeleteLink(Context, ham::LinkIndex) override { return Status::OK(); }
  Result<ham::SubGraph> LinearizeGraph(
      Context, ham::NodeIndex, ham::Time, const std::string&,
      const std::string&, const std::vector<ham::AttributeIndex>&,
      const std::vector<ham::AttributeIndex>&) override {
    return CannedGraph();
  }
  Result<ham::SubGraph> GetGraphQuery(
      Context, ham::Time, const std::string&, const std::string&,
      const std::vector<ham::AttributeIndex>&,
      const std::vector<ham::AttributeIndex>&) override {
    return CannedGraph();
  }
  Result<ham::QueryExplain> GetGraphQueryExplained(
      Context, ham::Time, const std::string&, const std::string&,
      const std::vector<ham::AttributeIndex>&,
      const std::vector<ham::AttributeIndex>&,
      const ham::QueryOptions&) override {
    ham::QueryExplain r;
    r.graph = CannedGraph();
    r.plan.kind = ham::QueryPlan::Kind::kIntersect;
    r.plan.eligible = true;
    r.plan.conjuncts = 2;
    r.plan.candidates = 9;
    r.plan.residual_evals = 3;
    r.plan.nodes_matched = 2;
    r.plan.links_matched = 1;
    r.plan.applied_deltas = 500;
    r.plan.verified = true;
    r.plan.verify_match = true;
    return r;
  }
  Result<ham::OpenNodeResult> OpenNode(
      Context, ham::NodeIndex, ham::Time,
      const std::vector<ham::AttributeIndex>&) override {
    ham::OpenNodeResult r;
    r.contents = "line one\nline two\n";
    r.attachments.push_back({40, true, 3, true});
    r.attachments.push_back({41, false, 200, false});
    r.attribute_values = {"red", std::nullopt};
    r.current_version_time = 1004;
    return r;
  }
  Status ModifyNode(Context, ham::NodeIndex, ham::Time, const std::string&,
                    const std::vector<ham::AttachmentUpdate>&,
                    const std::string&) override {
    return Status::Conflict("stale version");
  }
  Result<ham::Time> GetNodeTimeStamp(Context, ham::NodeIndex) override {
    return ham::Time{1004};
  }
  Status ChangeNodeProtection(Context, ham::NodeIndex, uint32_t) override {
    return Status::OK();
  }
  Result<ham::NodeVersions> GetNodeVersions(Context, ham::NodeIndex) override {
    ham::NodeVersions v;
    v.major.push_back({1004, "edit"});
    v.minor.push_back({1005, "attr"});
    v.minor.push_back({1006, ""});
    return v;
  }
  Result<std::vector<delta::Difference>> GetNodeDifferences(
      Context, ham::NodeIndex, ham::Time, ham::Time) override {
    delta::Difference d;
    d.kind = delta::DifferenceKind::kReplacement;
    d.old_begin = 1;
    d.old_end = 2;
    d.new_begin = 1;
    d.new_end = 3;
    d.old_lines = {"old"};
    d.new_lines = {"new a", "new b"};
    return std::vector<delta::Difference>{d};
  }
  Result<ham::LinkEndResult> GetToNode(Context, ham::LinkIndex,
                                       ham::Time) override {
    return ham::LinkEndResult{12, 1004};
  }
  Result<ham::LinkEndResult> GetFromNode(Context, ham::LinkIndex,
                                         ham::Time) override {
    return ham::LinkEndResult{13, 1005};
  }
  Result<std::vector<ham::AttributeEntry>> GetAttributes(Context,
                                                         ham::Time) override {
    return std::vector<ham::AttributeEntry>{{"color", 1}, {"size", 2}};
  }
  Result<std::vector<std::string>> GetAttributeValues(Context,
                                                      ham::AttributeIndex,
                                                      ham::Time) override {
    return std::vector<std::string>{"red", "blue"};
  }
  Result<ham::AttributeIndex> GetAttributeIndex(Context,
                                                const std::string&) override {
    return ham::AttributeIndex{2};
  }
  Status SetNodeAttributeValue(Context, ham::NodeIndex, ham::AttributeIndex,
                               const std::string&) override {
    return Status::OK();
  }
  Status DeleteNodeAttribute(Context, ham::NodeIndex,
                             ham::AttributeIndex) override {
    return Status::OK();
  }
  Result<std::string> GetNodeAttributeValue(Context, ham::NodeIndex,
                                            ham::AttributeIndex,
                                            ham::Time) override {
    return std::string("red");
  }
  Result<std::vector<ham::AttributeValueEntry>> GetNodeAttributes(
      Context, ham::NodeIndex, ham::Time) override {
    return std::vector<ham::AttributeValueEntry>{{"color", 1, "red"}};
  }
  Status SetLinkAttributeValue(Context, ham::LinkIndex, ham::AttributeIndex,
                               const std::string&) override {
    return Status::OK();
  }
  Status DeleteLinkAttribute(Context, ham::LinkIndex,
                             ham::AttributeIndex) override {
    return Status::OK();
  }
  Result<std::string> GetLinkAttributeValue(Context, ham::LinkIndex,
                                            ham::AttributeIndex,
                                            ham::Time) override {
    return Status::NotFound("attribute not attached");
  }
  Result<std::vector<ham::AttributeValueEntry>> GetLinkAttributes(
      Context, ham::LinkIndex, ham::Time) override {
    return std::vector<ham::AttributeValueEntry>{{"style", 3, "dashed"}};
  }
  Status SetGraphDemonValue(Context, ham::Event, const std::string&) override {
    return Status::OK();
  }
  Result<std::vector<ham::DemonEntry>> GetGraphDemons(Context,
                                                      ham::Time) override {
    return std::vector<ham::DemonEntry>{{ham::Event::kModifyNode, "notify"}};
  }
  Status SetNodeDemon(Context, ham::NodeIndex, ham::Event,
                      const std::string&) override {
    return Status::OK();
  }
  Result<std::vector<ham::DemonEntry>> GetNodeDemons(Context, ham::NodeIndex,
                                                     ham::Time) override {
    return std::vector<ham::DemonEntry>{{ham::Event::kOpenNode, "log"},
                                        {ham::Event::kCommitTransaction, ""}};
  }
  Result<ham::ContextInfo> CreateContext(Context, const std::string&) override {
    return ham::ContextInfo{5, "draft", 1006};
  }
  Result<Context> OpenContext(Context, ham::ThreadId) override {
    return Context{301};
  }
  Status MergeContext(Context, ham::ThreadId, bool) override {
    return Status::Conflict("main changed the same node");
  }
  Result<std::vector<ham::ContextInfo>> ListContexts(Context) override {
    return std::vector<ham::ContextInfo>{{0, "main", 0}, {5, "draft", 1006}};
  }
  Status Checkpoint(Context) override { return Status::OK(); }
  Result<ham::GraphStats> GetStats(Context) override {
    return ham::GraphStats{1, 2, 3, 4, 5, 6, 70000, 8};
  }
  Result<ham::ThreadId> ContextThread(Context) override {
    return ham::ThreadId{5};
  }
  Result<ham::ReplFetchResult> ReplFetch(
      const ham::ReplFetchRequest&) override {
    ham::ReplFetchResult r;
    r.action = ham::ReplFetchResult::Action::kSnapshot;
    r.term = 3;
    r.epoch = 2;
    r.epoch_end = true;
    r.epoch_bytes = 4096;
    r.meta = "meta";
    r.payload = "blob";
    return r;
  }
  Result<ham::ReplNodeStatus> ReplStatus(const std::string&) override {
    return ham::ReplNodeStatus{3, true, 2, 100, 20, 15};
  }
  Result<std::vector<std::string>> ReplListGraphs(const std::string&) override {
    return std::vector<std::string>{"a", "b/c"};
  }
  Result<uint64_t> Promote() override { return uint64_t{4}; }
};

// An in-memory connection to a RequestDispatcher. It records every
// request payload and the reply the dispatcher produced for it.
// Requests arrive framed through SendBytes; tagged ones are answered
// tagged.
class LoopbackStream final : public FrameStream {
 public:
  struct Exchange {
    std::string request;
    std::string reply;  // untagged: status | fields
  };

  LoopbackStream(RequestDispatcher* dispatcher, std::vector<Exchange>* log,
                 std::mutex* log_mu)
      : FrameStream(-1), dispatcher_(dispatcher), log_(log), log_mu_(log_mu) {}

  Status SetTimeouts(int, int) override { return Status::OK(); }

  Status SendBytes(std::string_view bytes) override {
    std::vector<std::string> payloads;
    NEPTUNE_RETURN_IF_ERROR(decoder_.Feed(bytes, &payloads));
    for (const std::string& payload : payloads) Serve(payload);
    return Status::OK();
  }

  Result<std::string> RecvFrame() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_flag_ || !replies_.empty(); });
    if (replies_.empty()) return Status::Unavailable("connection closed");
    std::string reply = std::move(replies_.front());
    replies_.pop_front();
    return reply;
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(mu_);
    closed_flag_ = true;
    cv_.notify_all();
  }
  void CloseRead() override { Close(); }

 private:
  void Serve(std::string_view payload) {
    std::string_view in = payload;
    uint8_t first = static_cast<uint8_t>(in.front());
    in.remove_prefix(1);
    std::string id_prefix;
    if ((first & kRequestIdFlag) != 0) {
      uint64_t id = 0;
      ASSERT_TRUE(GetVarint64(&in, &id));
      PutVarint64(&id_prefix, id);
      first &= static_cast<uint8_t>(~kRequestIdFlag);
    }
    std::string plain(1, static_cast<char>(first));
    plain.append(in);
    std::string reply = dispatcher_->Handle(plain, &sessions_);
    {
      std::lock_guard<std::mutex> lock(*log_mu_);
      log_->push_back({std::string(payload), reply});
    }
    std::lock_guard<std::mutex> lock(mu_);
    replies_.push_back(id_prefix + reply);
    cv_.notify_all();
  }

  RequestDispatcher* dispatcher_;
  std::vector<Exchange>* log_;
  std::mutex* log_mu_;
  SessionSet sessions_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_flag_ = false;
  std::deque<std::string> replies_;
};

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)),
                                              nullptr, 16)));
  }
  return out;
}

// method name -> request payload, reply payload (hex). An empty reply
// means the reply is not fixed (it carries live process statistics or
// traces) and only the request is pinned.
struct Golden {
  const char* method;
  const char* request;
  const char* reply;
};

constexpr Golden kGolden[] = {
    {"ping",
     "2d6e657074756e65",
     "00006e657074756e65"},
    {"createGraph",
     "010b2f6772617068732f646f63ed03",
     "000007e807"},
    {"destroyGraph",
     "02070b2f6772617068732f646f63",
     "0000"},
    {"openGraph",
     "03070b776f726b73746174696f6e0b2f6772617068732f646f63",
     "0000ac02"},
    {"closeGraph",
     "04ac02",
     "0000"},
    {"beginTransaction",
     "05ac02",
     "0000"},
    {"commitTransaction",
     "06ac02",
     "0000"},
    {"abortTransaction",
     "07ac02",
     "06136e6f206f70656e207472616e73616374696f6e"},
    {"addNode",
     "08ac0201",
     "00000ce907"},
    {"deleteNode",
     "09ac020c",
     "010a6e6f206e6f6465203132"},
    {"addLink",
     "0aac020c030001ac02f0a204ec0700",
     "000028ea07"},
    {"copyLink",
     "0bac0228ea0700ac02f0a204ec0700",
     "000029eb07"},
    {"deleteLink",
     "0cac0228",
     "0000"},
    {"linearizeGraph",
     "0dac020c001074797065203d202273656374696f6e22000201c80100",
     "0000020c02010372656400ac020200010362696701280cac0201010664617368"
     "6564"},
    {"getGraphQuery",
     "0eac02ec070d636f6c6f72203d20227265642200000201c801",
     "0000020c02010372656400ac020200010362696701280cac0201010664617368"
     "6564"},
    {"getGraphQueryExplained",
     "34ac02000d636f6c6f72203d202272656422000201c8010002",
     "0000020c02010372656400ac020200010362696701280cac0201010664617368"
     "6564020d0209030201f403"},
    {"openNode",
     "0fac020c000201c801",
     "0000126c696e65206f6e650a6c696e652074776f0a02280103012900c8010002"
     "010372656400ec07"},
    {"modifyNode",
     "10ac020cec07096c696e65206f6e650a022801032900c801047479706f",
     "080d7374616c652076657273696f6e"},
    {"getNodeTimeStamp",
     "11ac020c",
     "0000ec07"},
    {"changeNodeProtection",
     "12ac020ca402",
     "0000"},
    {"getNodeVersions",
     "13ac020c",
     "000001ec07046564697402ed070461747472ee0700"},
    {"getNodeDifferences",
     "14ac020cec07ed07",
     "000001020102010301036f6c6402056e65772061056e65772062"},
    {"getToNode",
     "15ac022800",
     "00000cec07"},
    {"getFromNode",
     "16ac0228ea07",
     "00000ded07"},
    {"getAttributes",
     "17ac0200",
     "00000205636f6c6f72010473697a6502"},
    {"getAttributeValues",
     "18ac020100",
     "0000020372656404626c7565"},
    {"getAttributeIndex",
     "19ac020473697a65",
     "000002"},
    {"setNodeAttributeValue",
     "1aac020c0103726564",
     "0000"},
    {"deleteNodeAttribute",
     "1bac020c01",
     "0000"},
    {"getNodeAttributeValue",
     "1cac020c01ec07",
     "000003726564"},
    {"getNodeAttributes",
     "1dac020c00",
     "00000105636f6c6f720103726564"},
    {"setLinkAttributeValue",
     "1eac02280306646173686564",
     "0000"},
    {"deleteLinkAttribute",
     "1fac022803",
     "0000"},
    {"getLinkAttributeValue",
     "20ac02280300",
     "0116617474726962757465206e6f74206174746163686564"},
    {"getLinkAttributes",
     "21ac022800",
     "000001057374796c650306646173686564"},
    {"setGraphDemonValue",
     "22ac0206066e6f74696679",
     "0000"},
    {"getGraphDemons",
     "23ac0200",
     "00000106066e6f74696679"},
    {"setNodeDemon",
     "24ac020c05036c6f67",
     "0000"},
    {"getNodeDemons",
     "25ac020c00",
     "00000205036c6f670a00"},
    {"createContext",
     "26ac02056472616674",
     "000005056472616674ee07"},
    {"openContext",
     "27ac0205",
     "0000ad02"},
    {"mergeContext",
     "28ac020501",
     "081a6d61696e206368616e676564207468652073616d65206e6f6465"},
    {"listContexts",
     "29ac02",
     "00000200046d61696e0005056472616674ee07"},
    {"checkpoint",
     "2aac02",
     "0000"},
    {"getStats",
     "2bac02",
     "0000010203040506f0a20408"},
    {"contextThread",
     "2cac02",
     "000005"},
    {"getServerStatistics",
     "2e",
     ""},
    {"getServerStatisticsDelta",
     "393c",
     ""},
    {"getRecentTraces",
     "2f",
     ""},
    {"getSlowOps",
     "30",
     ""},
    {"openNodes",
     "31ac02000201c801020cac02",
     "0000020000126c696e65206f6e650a6c696e652074776f0a02280103012900c8"
     "010002010372656400ec070000126c696e65206f6e650a6c696e652074776f0a"
     "02280103012900c8010002010372656400ec07"},
    {"getAttributeValuesBatch",
     "32ac02ec0702000c01012803",
     "0000020000037265640116617474726962757465206e6f742061747461636865"
     "64"},
    {"linearizeAndFetch",
     "33ac020c0000000201c80100",
     "0000020c02010372656400ac020200010362696701280cac0201010664617368"
     "6564020000126c696e65206f6e650a6c696e652074776f0aec070000126c696e"
     "65206f6e650a6c696e652074776f0aec07"},
    {"replFetch",
     "350b2f6772617068732f646f630266310302f0a204808040fa01",
     "000001030200018020046d65746104626c6f62"},
    {"replStatus",
     "360b2f6772617068732f646f63",
     "000003010264140f"},
    {"replListGraphs",
     "37072f677261706873",
     "000002016103622f63"},
    {"replPromote",
     "38",
     "000004"},
};

const Golden* FindGolden(const std::string& method) {
  for (const Golden& g : kGolden) {
    if (method == g.method) return &g;
  }
  return nullptr;
}

class WireGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A sampled span would prepend a (random) trace context.
    Tracer::Instance().Configure(0, 0);
  }

  std::unique_ptr<RemoteHam> Connect() {
    RemoteHam::Options options;
    options.max_retries = 0;
    options.stream_factory = [this](const std::string&, uint16_t, int)
        -> Result<std::unique_ptr<FrameStream>> {
      return std::unique_ptr<FrameStream>(
          new LoopbackStream(&dispatcher_, &log_, &log_mu_));
    };
    auto client = RemoteHam::Connect("golden", 1, options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  // The exchange the last call made.
  LoopbackStream::Exchange Last() {
    std::lock_guard<std::mutex> lock(log_mu_);
    return log_.empty() ? LoopbackStream::Exchange{} : log_.back();
  }

  CannedHam ham_;
  RequestDispatcher dispatcher_{&ham_};
  std::mutex log_mu_;
  std::vector<LoopbackStream::Exchange> log_;
};

// One call per wire method with fixed arguments; returns the call's
// status (the decoded result's, for non-Status results).
using GoldenCall = std::function<Status(RemoteHam&)>;

template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.ok() ? Status::OK() : r.status();
}

std::vector<std::pair<std::string, GoldenCall>> GoldenCalls() {
  const Context ctx{300};
  const ham::LinkPt from{12, 3, 0, true};
  const ham::LinkPt to{300, 70000, 1004, false};
  const std::vector<ham::AttributeIndex> attrs = {1, 200};
  const std::vector<ham::AttributeIndex> none = {};
  return {
      {"ping", [](RemoteHam& h) { return h.Ping(); }},
      {"createGraph",
       [](RemoteHam& h) {
         return StatusOf(h.CreateGraph("/graphs/doc", 0755));
       }},
      {"destroyGraph",
       [](RemoteHam& h) { return h.DestroyGraph(7, "/graphs/doc"); }},
      {"openGraph",
       [](RemoteHam& h) {
         return StatusOf(h.OpenGraph(7, "workstation", "/graphs/doc"));
       }},
      {"closeGraph", [=](RemoteHam& h) { return h.CloseGraph(ctx); }},
      {"beginTransaction",
       [=](RemoteHam& h) { return h.BeginTransaction(ctx); }},
      {"commitTransaction",
       [=](RemoteHam& h) { return h.CommitTransaction(ctx); }},
      {"abortTransaction",
       [=](RemoteHam& h) { return h.AbortTransaction(ctx); }},
      {"addNode",
       [=](RemoteHam& h) { return StatusOf(h.AddNode(ctx, true)); }},
      {"deleteNode", [=](RemoteHam& h) { return h.DeleteNode(ctx, 12); }},
      {"addLink",
       [=](RemoteHam& h) { return StatusOf(h.AddLink(ctx, from, to)); }},
      {"copyLink",
       [=](RemoteHam& h) {
         return StatusOf(h.CopyLink(ctx, 40, 1002, false, to));
       }},
      {"deleteLink", [=](RemoteHam& h) { return h.DeleteLink(ctx, 40); }},
      {"linearizeGraph",
       [=](RemoteHam& h) {
         return StatusOf(h.LinearizeGraph(ctx, 12, 0, "type = \"section\"",
                                          "", attrs, none));
       }},
      {"getGraphQuery",
       [=](RemoteHam& h) {
         return StatusOf(
             h.GetGraphQuery(ctx, 1004, "color = \"red\"", "", none, attrs));
       }},
      {"getGraphQueryExplained",
       [=](RemoteHam& h) {
         ham::QueryOptions options;
         options.verify = true;
         return StatusOf(h.GetGraphQueryExplained(
             ctx, 0, "color = \"red\"", "", attrs, none, options));
       }},
      {"openNode",
       [=](RemoteHam& h) { return StatusOf(h.OpenNode(ctx, 12, 0, attrs)); }},
      {"modifyNode",
       [=](RemoteHam& h) {
         return h.ModifyNode(ctx, 12, 1004, "line one\n",
                             {{40, true, 3}, {41, false, 200}}, "typo");
       }},
      {"getNodeTimeStamp",
       [=](RemoteHam& h) { return StatusOf(h.GetNodeTimeStamp(ctx, 12)); }},
      {"changeNodeProtection",
       [=](RemoteHam& h) { return h.ChangeNodeProtection(ctx, 12, 0444); }},
      {"getNodeVersions",
       [=](RemoteHam& h) { return StatusOf(h.GetNodeVersions(ctx, 12)); }},
      {"getNodeDifferences",
       [=](RemoteHam& h) {
         return StatusOf(h.GetNodeDifferences(ctx, 12, 1004, 1005));
       }},
      {"getToNode",
       [=](RemoteHam& h) { return StatusOf(h.GetToNode(ctx, 40, 0)); }},
      {"getFromNode",
       [=](RemoteHam& h) { return StatusOf(h.GetFromNode(ctx, 40, 1002)); }},
      {"getAttributes",
       [=](RemoteHam& h) { return StatusOf(h.GetAttributes(ctx, 0)); }},
      {"getAttributeValues",
       [=](RemoteHam& h) {
         return StatusOf(h.GetAttributeValues(ctx, 1, 0));
       }},
      {"getAttributeIndex",
       [=](RemoteHam& h) {
         return StatusOf(h.GetAttributeIndex(ctx, "size"));
       }},
      {"setNodeAttributeValue",
       [=](RemoteHam& h) {
         return h.SetNodeAttributeValue(ctx, 12, 1, "red");
       }},
      {"deleteNodeAttribute",
       [=](RemoteHam& h) { return h.DeleteNodeAttribute(ctx, 12, 1); }},
      {"getNodeAttributeValue",
       [=](RemoteHam& h) {
         return StatusOf(h.GetNodeAttributeValue(ctx, 12, 1, 1004));
       }},
      {"getNodeAttributes",
       [=](RemoteHam& h) { return StatusOf(h.GetNodeAttributes(ctx, 12, 0)); }},
      {"setLinkAttributeValue",
       [=](RemoteHam& h) {
         return h.SetLinkAttributeValue(ctx, 40, 3, "dashed");
       }},
      {"deleteLinkAttribute",
       [=](RemoteHam& h) { return h.DeleteLinkAttribute(ctx, 40, 3); }},
      {"getLinkAttributeValue",
       [=](RemoteHam& h) {
         return StatusOf(h.GetLinkAttributeValue(ctx, 40, 3, 0));
       }},
      {"getLinkAttributes",
       [=](RemoteHam& h) { return StatusOf(h.GetLinkAttributes(ctx, 40, 0)); }},
      {"setGraphDemonValue",
       [=](RemoteHam& h) {
         return h.SetGraphDemonValue(ctx, ham::Event::kModifyNode, "notify");
       }},
      {"getGraphDemons",
       [=](RemoteHam& h) { return StatusOf(h.GetGraphDemons(ctx, 0)); }},
      {"setNodeDemon",
       [=](RemoteHam& h) {
         return h.SetNodeDemon(ctx, 12, ham::Event::kOpenNode, "log");
       }},
      {"getNodeDemons",
       [=](RemoteHam& h) { return StatusOf(h.GetNodeDemons(ctx, 12, 0)); }},
      {"createContext",
       [=](RemoteHam& h) { return StatusOf(h.CreateContext(ctx, "draft")); }},
      {"openContext",
       [=](RemoteHam& h) { return StatusOf(h.OpenContext(ctx, 5)); }},
      {"mergeContext",
       [=](RemoteHam& h) { return h.MergeContext(ctx, 5, true); }},
      {"listContexts",
       [=](RemoteHam& h) { return StatusOf(h.ListContexts(ctx)); }},
      {"checkpoint", [=](RemoteHam& h) { return h.Checkpoint(ctx); }},
      {"getStats", [=](RemoteHam& h) { return StatusOf(h.GetStats(ctx)); }},
      {"contextThread",
       [=](RemoteHam& h) { return StatusOf(h.ContextThread(ctx)); }},
      {"getServerStatistics",
       [](RemoteHam& h) { return StatusOf(h.GetServerStatistics()); }},
      {"getServerStatisticsDelta",
       [](RemoteHam& h) { return StatusOf(h.GetServerStatisticsDelta(60)); }},
      {"getRecentTraces",
       [](RemoteHam& h) { return StatusOf(h.GetRecentTraces()); }},
      {"getSlowOps", [](RemoteHam& h) { return StatusOf(h.GetSlowOps()); }},
      {"openNodes",
       [=](RemoteHam& h) {
         return StatusOf(h.OpenNodes(ctx, {12, 300}, 0, attrs));
       }},
      {"getAttributeValuesBatch",
       [=](RemoteHam& h) {
         return StatusOf(h.GetAttributeValuesBatch(
             ctx, 1004, {{false, 12, 1}, {true, 40, 3}}));
       }},
      {"linearizeAndFetch",
       [=](RemoteHam& h) {
         return StatusOf(h.LinearizeAndFetch(ctx, 12, 0, "", "", attrs, none));
       }},
      {"replFetch",
       [](RemoteHam& h) {
         ham::ReplFetchRequest request;
         request.directory = "/graphs/doc";
         request.follower_id = "f1";
         request.term = 3;
         request.epoch = 2;
         request.offset = 70000;
         request.wait_ms = 250;
         return StatusOf(h.ReplFetch(request));
       }},
      {"replStatus",
       [](RemoteHam& h) { return StatusOf(h.ReplStatus("/graphs/doc")); }},
      {"replListGraphs",
       [](RemoteHam& h) { return StatusOf(h.ReplListGraphs("/graphs")); }},
      {"replPromote", [](RemoteHam& h) { return StatusOf(h.Promote()); }},
  };
}

// The statuses the canned HAM answers with; every other call succeeds.
const std::map<std::string, StatusCode>& ExpectedErrors() {
  static const auto* errors = new std::map<std::string, StatusCode>{
      {"abortTransaction", StatusCode::kFailedPrecondition},
      {"deleteNode", StatusCode::kNotFound},
      {"modifyNode", StatusCode::kConflict},
      {"getLinkAttributeValue", StatusCode::kNotFound},
      {"mergeContext", StatusCode::kConflict},
  };
  return *errors;
}

TEST_F(WireGoldenTest, EveryMethodHasAGoldenExchange) {
  std::set<std::string> called;
  for (const auto& [name, call] : GoldenCalls()) called.insert(name);
  for (int byte = 0; byte < kRequestIdFlag; ++byte) {
    const std::string name = MethodName(static_cast<Method>(byte));
    if (name == "unknown") continue;
    EXPECT_EQ(called.count(name), 1u) << name << " has no golden call";
  }
}

TEST_F(WireGoldenTest, RequestsAndRepliesMatchRecordedBytes) {
  std::unique_ptr<RemoteHam> client = Connect();
  ASSERT_NE(client, nullptr);
  for (const auto& [name, call] : GoldenCalls()) {
    const Status status = call(*client);
    auto error = ExpectedErrors().find(name);
    if (error == ExpectedErrors().end()) {
      EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
    } else {
      EXPECT_EQ(status.code(), error->second) << name << ": "
                                              << status.ToString();
    }
    const LoopbackStream::Exchange last = Last();
    ASSERT_FALSE(last.request.empty()) << name;
    EXPECT_EQ(MethodName(static_cast<Method>(last.request[0])), name);
    const Golden* golden = FindGolden(name);
    const bool live = golden != nullptr && *golden->reply == '\0';
    const std::string recorded = "{\"" + name + "\", \"" +
                                 Hex(last.request) + "\", \"" +
                                 (live ? "" : Hex(last.reply)) + "\"},";
    if (golden == nullptr) {
      ADD_FAILURE() << "no golden bytes; recorded:\n" << recorded;
      continue;
    }
    EXPECT_EQ(Hex(last.request), golden->request)
        << "request bytes changed; recorded:\n" << recorded;
    if (!live) {
      EXPECT_EQ(Hex(last.reply), golden->reply)
          << "reply bytes changed; recorded:\n" << recorded;
    }
  }
}

// A call that overlaps another sends the same request with the
// request-id flag and a varint id after the method byte, and reads a
// tagged reply. Each typed call here waits behind an async ping that
// went out plain, and reads that ping's reply for it.
TEST_F(WireGoldenTest, PipelinedRequestsCarryTheIdAndTheSameFields) {
  std::unique_ptr<RemoteHam> client = Connect();
  ASSERT_NE(client, nullptr);
  const Context ctx{300};
  RemoteHam::PendingCall first = client->CallAsync(Method::kPing, "one");
  ASSERT_TRUE(client->OpenNode(ctx, 12, 0, {1, 200}).ok());
  RemoteHam::PendingCall second = client->CallAsync(Method::kPing, "two");
  ASSERT_TRUE(client->ModifyNode(ctx, 12, 1004, "line one\n",
                                 {{40, true, 3}, {41, false, 200}}, "typo")
                  .code() == StatusCode::kConflict);
  Result<std::string> echo = first.Wait();
  ASSERT_TRUE(echo.ok()) << echo.status().ToString();
  EXPECT_EQ(*echo, "one");
  echo = second.Wait();
  ASSERT_TRUE(echo.ok()) << echo.status().ToString();
  EXPECT_EQ(*echo, "two");
  std::vector<LoopbackStream::Exchange> log;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    log = log_;
  }
  // Connect's ping, then ping / openNode / ping / modifyNode; the
  // pings are plain, the typed calls take ids 1 and 2.
  ASSERT_EQ(log.size(), 5u);
  for (size_t i : {1u, 3u}) {
    EXPECT_EQ(log[i].request[0], static_cast<char>(Method::kPing)) << i;
  }
  for (size_t i : {2u, 4u}) {
    const std::string& tagged = log[i].request;
    const char* name = i == 2 ? "openNode" : "modifyNode";
    const Golden* golden = FindGolden(name);
    ASSERT_NE(golden, nullptr);
    const std::string plain = Unhex(golden->request);
    std::string expected;
    expected.push_back(static_cast<char>(
        static_cast<uint8_t>(plain[0]) | kRequestIdFlag));
    PutVarint64(&expected, i / 2);
    expected.append(plain.substr(1));
    EXPECT_EQ(Hex(tagged), Hex(expected)) << name;
    EXPECT_EQ(Hex(log[i].reply), golden->reply) << name;
  }
}

// ---------------------------------------------------------- mutation

// Every mutated request must come back as a reply whose status header
// decodes; the dispatcher must not crash, throw or allocate what a
// count claims before checking the bytes are there.
TEST(DispatchMutationTest, MutatedGoldenRequestsGetStatusReplies) {
  CannedHam ham;
  RequestDispatcher dispatcher(&ham);
  SessionSet sessions;
  Random rng(20240601);
  size_t inputs = 0;
  auto check = [&](const std::string& input, const char* how,
                   const char* method) {
    ++inputs;
    std::string reply;
    try {
      reply = dispatcher.Handle(input, &sessions);
    } catch (const std::exception& e) {
      ADD_FAILURE() << method << " " << how << " " << Hex(input)
                    << " threw: " << e.what();
      return;
    }
    std::string_view in = reply;
    Status status;
    EXPECT_TRUE(DecodeStatusFrom(&in, &status))
        << method << " " << how << " " << Hex(input);
  };
  // Varints claiming 2^40, 2^62 and 2^32-1 elements or bytes.
  std::vector<std::string> huge(3);
  PutVarint64(&huge[0], uint64_t{1} << 40);
  PutVarint64(&huge[1], uint64_t{1} << 62);
  PutVarint64(&huge[2], 0xFFFFFFFFu);
  ASSERT_GT(std::size(kGolden), 0u);
  for (const Golden& golden : kGolden) {
    const std::string request = Unhex(golden.request);
    for (size_t cut = 0; cut < request.size(); ++cut) {
      check(request.substr(0, cut), "truncated", golden.method);
    }
    for (int round = 0; round < 64; ++round) {
      std::string flipped = request;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        // The method byte stays, so every method's decoder is reached.
        if (flipped.size() < 2) break;
        const size_t at = 1 + rng.Uniform(flipped.size() - 1);
        flipped[at] = static_cast<char>(flipped[at] ^ (1u << rng.Uniform(8)));
      }
      check(flipped, "flipped", golden.method);
    }
    for (size_t at = 1; at < request.size(); ++at) {
      for (const std::string& count : huge) {
        check(request.substr(0, at) + count + request.substr(at + 1),
              "inflated", golden.method);
      }
    }
  }
  EXPECT_GT(inputs, 5000u);
}

}  // namespace
}  // namespace rpc
}  // namespace neptune
