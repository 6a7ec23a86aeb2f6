// The trace-context wire extension: a flagged method byte carries
// (trace_id, parent_span_id, sampled) ahead of the normal request so
// the server's spans parent under the client's. Covered: a plain
// request self-roots on the server, a truncated context is refused,
// and the end-to-end guarantee — one remote versioned read produces
// one connected trace.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "common/coding.h"
#include "common/trace.h"
#include "ham/ham.h"
#include "rpc/remote_ham.h"
#include "rpc/server.h"
#include "rpc/wire.h"

namespace neptune {
namespace rpc {
namespace {

class TraceWireTest : public ::testing::Test {
 protected:
  // Builds engine + server with the given tracing knobs. The Ham
  // constructor applies trace_* to the process-global tracer, so the
  // in-process "client side" of these tests records spans too — which
  // is exactly the deployment shape of neptune_server + neptune_ctl.
  void StartServer(uint32_t sample_n, uint64_t slow_us) {
    dir_ = (std::filesystem::temp_directory_path() /
            ("neptune_trace_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name())))
               .string();
    Env::Default()->RemoveDirRecursive(dir_);
    ham::HamOptions options;
    options.sync_commits = false;
    options.trace_sample_n = sample_n;
    options.trace_slow_us = slow_us;
    engine_ = std::make_unique<ham::Ham>(Env::Default(), options);
    Tracer::Instance().ResetForTest();
    server_ = std::make_unique<Server>(engine_.get());
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void ConnectClient() {
    auto client = RemoteHam::Connect("localhost", port_);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
  }

  void CreateAndOpenGraph() {
    auto created = client_->CreateGraph(dir_, 0755);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto ctx = client_->OpenGraph(created->project, "localhost", dir_);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = *ctx;
  }

  void TearDown() override {
    client_.reset();
    if (server_) server_->Stop();
    server_.reset();
    engine_.reset();
    Tracer::Instance().Configure(0, 0);
    Tracer::Instance().ResetForTest();
    Env::Default()->RemoveDirRecursive(dir_);
  }

  std::string dir_;
  std::unique_ptr<ham::Ham> engine_;
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
  std::unique_ptr<RemoteHam> client_;
  ham::Context ctx_;
};

TEST_F(TraceWireTest, ContextCodecRoundTrips) {
  TraceContext ctx;
  ctx.trace_id = 0xDEADBEEFCAFE;
  ctx.parent_span_id = 42;
  ctx.sampled = true;

  std::string encoded;
  EncodeTraceContextTo(ctx, &encoded);
  EXPECT_EQ(encoded.size(), 17u);  // fixed64 + fixed64 + flags byte

  std::string_view in = encoded;
  TraceContext decoded;
  ASSERT_TRUE(DecodeTraceContextFrom(&in, &decoded));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.trace_id, ctx.trace_id);
  EXPECT_EQ(decoded.parent_span_id, ctx.parent_span_id);
  EXPECT_TRUE(decoded.sampled);

  in = std::string_view(encoded.data(), 10);  // truncated
  EXPECT_FALSE(DecodeTraceContextFrom(&in, &decoded));
}

// An old client sends plain method bytes. The server must serve them
// exactly as before and self-root its trace.
TEST_F(TraceWireTest, PlainRequestSelfRootsOnServer) {
  StartServer(/*sample_n=*/1, /*slow_us=*/0);
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());

  std::string ping;
  ping.push_back(static_cast<char>(Method::kPing));
  ping += "hello";
  ASSERT_TRUE((*stream)->SendFrame(ping).ok());
  auto reply = (*stream)->RecvFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  auto traces = Tracer::Instance().RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  bool found = false;
  for (const auto& span : traces[0].spans) {
    if (span.name == "rpc.server.ping") {
      EXPECT_EQ(span.parent_id, 0u) << "plain request must self-root";
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// A flagged byte whose trace context is garbage must be refused
// without executing anything, and the connection must survive.
TEST_F(TraceWireTest, TruncatedContextIsRejected) {
  StartServer(1, 0);
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());

  std::string request;
  request.push_back(
      static_cast<char>(static_cast<uint8_t>(Method::kPing) |
                        kTraceContextFlag));
  request += "xyz";  // far short of the 17-byte context
  ASSERT_TRUE((*stream)->SendFrame(request).ok());
  auto reply = (*stream)->RecvFrame();
  ASSERT_TRUE(reply.ok());
  std::string_view in = *reply;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.IsCorruption());

  std::string ping;
  ping.push_back(static_cast<char>(Method::kPing));
  ping += "ok?";
  ASSERT_TRUE((*stream)->SendFrame(ping).ok());
  EXPECT_TRUE((*stream)->RecvFrame().ok());
}

// The acceptance path: one remote versioned read yields ONE connected
// trace — client span -> server rpc span -> ham op span -> lock-wait
// and delta-reconstruction children.
TEST_F(TraceWireTest, VersionedReadIsOneConnectedTrace) {
  StartServer(/*sample_n=*/1, /*slow_us=*/0);
  ConnectClient();
  CreateAndOpenGraph();

  auto added = client_->AddNode(ctx_, true);
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(client_->ModifyNode(ctx_, added->node, added->creation_time,
                                  "version 1", {}, "v1")
                  .ok());
  auto reopened = client_->OpenNode(ctx_, added->node, 0, {});
  ASSERT_TRUE(reopened.ok());
  const ham::Time v1_time = reopened->current_version_time;
  ASSERT_TRUE(client_->ModifyNode(ctx_, added->node, v1_time, "version 2", {},
                                  "v2")
                  .ok());

  // The traced read: old version, reconstructed through the chain.
  Tracer::Instance().ResetForTest();
  auto old_version = client_->OpenNode(ctx_, added->node, v1_time, {});
  ASSERT_TRUE(old_version.ok());
  EXPECT_EQ(old_version->contents, "version 1");

  // Fetch over the wire, as neptune_ctl trace does.
  auto traces = client_->GetRecentTraces();
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  ASSERT_EQ(traces->size(), 1u) << "client and server halves must merge";
  const Trace& trace = (*traces)[0];

  std::map<std::string, const Span*> by_name;
  std::map<uint64_t, const Span*> by_id;
  for (const Span& span : trace.spans) {
    EXPECT_EQ(span.trace_id, trace.trace_id);
    by_name[span.name] = &span;
    by_id[span.span_id] = &span;
  }
  for (const char* needed :
       {"rpc.client.openNode", "rpc.server.openNode", "rpc.server.admission",
        "ham.openNode", "ham.lock.shared_wait", "delta.reconstruct"}) {
    ASSERT_TRUE(by_name.count(needed)) << "missing span " << needed;
  }

  // The client span is the root; everything else reaches it by
  // walking parent edges.
  EXPECT_EQ(by_name["rpc.client.openNode"]->parent_id, 0u);
  EXPECT_EQ(by_name["rpc.server.openNode"]->parent_id,
            by_name["rpc.client.openNode"]->span_id);
  for (const Span& span : trace.spans) {
    const Span* cursor = &span;
    int hops = 0;
    while (cursor->parent_id != 0 && hops++ < 64) {
      ASSERT_TRUE(by_id.count(cursor->parent_id))
          << span.name << " has a dangling parent";
      cursor = by_id[cursor->parent_id];
    }
    EXPECT_EQ(cursor->name, "rpc.client.openNode")
        << span.name << " is not connected to the client root";
  }

  // The op annotations made it across the wire.
  EXPECT_NE(by_name["ham.openNode"]->annotation.find("node="),
            std::string::npos);
  EXPECT_NE(by_name["delta.reconstruct"]->annotation.find("cache="),
            std::string::npos);

  // And the whole thing exports as Chrome JSON.
  const std::string json = TracesToChromeJson(*traces);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("rpc.client.openNode"), std::string::npos);
  EXPECT_NE(json.find("delta.reconstruct"), std::string::npos);
}

// A span past trace_slow_us lands in the slow-op ring even when its
// root lost the 1-in-N sampling lottery.
TEST_F(TraceWireTest, SlowOpsSurviveSampling) {
  // sample_n so large that (after the first root) nothing is sampled;
  // slow_us=1 so every real operation counts as slow.
  StartServer(/*sample_n=*/1u << 30, /*slow_us=*/1);
  ConnectClient();
  CreateAndOpenGraph();

  auto added = client_->AddNode(ctx_, true);
  ASSERT_TRUE(added.ok());
  auto opened = client_->OpenNode(ctx_, added->node, 0, {});
  ASSERT_TRUE(opened.ok());

  auto slow = client_->GetSlowOps();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_FALSE(slow->empty());
  bool saw_open_node = false;
  for (const Span& span : *slow) {
    EXPECT_GE(span.duration_us, 1u);
    if (span.name == "ham.openNode") saw_open_node = true;
  }
  EXPECT_TRUE(saw_open_node);
}

}  // namespace
}  // namespace rpc
}  // namespace neptune
