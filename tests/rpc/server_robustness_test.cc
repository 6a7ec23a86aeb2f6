// Server robustness: malformed requests, wire garbage, hostile frame
// lengths, overload, and abrupt disconnects must never take the server
// down or corrupt other clients' sessions.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "common/coding.h"
#include "common/metrics.h"
#include "ham/ham.h"
#include "rpc/remote_ham.h"
#include "rpc/server.h"

namespace neptune {
namespace rpc {
namespace {

class ServerRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("neptune_robust_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name())))
               .string();
    Env::Default()->RemoveDirRecursive(dir_);
    ham::HamOptions options;
    options.sync_commits = false;
    engine_ = std::make_unique<ham::Ham>(Env::Default(), options);
    server_ = std::make_unique<Server>(engine_.get());
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok());
    port_ = *port;
  }

  void TearDown() override {
    server_->Stop();
    server_.reset();
    engine_.reset();
    Env::Default()->RemoveDirRecursive(dir_);
  }

  std::string dir_;
  std::unique_ptr<ham::Ham> engine_;
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
};

TEST_F(ServerRobustnessTest, UnknownMethodGetsErrorReplyConnectionSurvives) {
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  std::string request;
  request.push_back('\xEE');  // no such method
  ASSERT_TRUE((*stream)->SendFrame(request).ok());
  auto reply = (*stream)->RecvFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  std::string_view in = *reply;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.IsCorruption());

  // The same connection still answers a valid ping.
  std::string ping;
  ping.push_back(static_cast<char>(Method::kPing));
  ping += "ok?";
  ASSERT_TRUE((*stream)->SendFrame(ping).ok());
  auto pong = (*stream)->RecvFrame();
  ASSERT_TRUE(pong.ok());
}

TEST_F(ServerRobustnessTest, TruncatedRequestBodyGetsErrorReply) {
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  std::string request;
  request.push_back(static_cast<char>(Method::kOpenNode));
  request.push_back('\x05');  // a lone varint where 4 fields belong
  ASSERT_TRUE((*stream)->SendFrame(request).ok());
  auto reply = (*stream)->RecvFrame();
  ASSERT_TRUE(reply.ok());
  std::string_view in = *reply;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

// A count is checked against the bytes that follow it before anything
// is allocated: ten bytes claiming 2^40 attribute indices must not
// make the server try to reserve them.
TEST_F(ServerRobustnessTest, HugeDecodedCountGetsErrorReply) {
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  std::string request;
  request.push_back(static_cast<char>(Method::kOpenNode));
  request.push_back('\x01');  // session
  request.push_back('\x02');  // node
  request.push_back('\x00');  // time
  PutVarint64(&request, uint64_t{1} << 40);  // attribute count
  ASSERT_EQ(request.size(), 10u);
  ASSERT_TRUE((*stream)->SendFrame(request).ok());
  auto reply = (*stream)->RecvFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  std::string_view in = *reply;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(status.message().rfind("malformed request", 0), 0u)
      << status.ToString();

  // The server is still up for everyone else.
  auto fresh = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(fresh.ok());
  std::string ping;
  ping.push_back(static_cast<char>(Method::kPing));
  ASSERT_TRUE((*fresh)->SendFrame(ping).ok());
  auto pong = (*fresh)->RecvFrame();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  std::string_view pin = *pong;
  Status pstatus;
  ASSERT_TRUE(DecodeStatusFrom(&pin, &pstatus));
  EXPECT_TRUE(pstatus.ok()) << pstatus.ToString();
}

// Predicates arrive from clients: a request-sized nesting tower gets
// an error reply instead of overflowing a server thread's stack, and a
// request-sized '&' chain gets its answer.
TEST_F(ServerRobustnessTest, HostilePredicatesGetRepliesServerKeepsServing) {
  auto client = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(client.ok());
  auto created = (*client)->CreateGraph(dir_, 0755);
  ASSERT_TRUE(created.ok());
  auto ctx = (*client)->OpenGraph(created->project, "localhost", dir_);
  ASSERT_TRUE(ctx.ok());
  auto node = (*client)->AddNode(*ctx, true);
  ASSERT_TRUE(node.ok());
  auto a = (*client)->GetAttributeIndex(*ctx, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*client)->SetNodeAttributeValue(*ctx, node->node, *a, "1").ok());

  auto nested = (*client)->GetGraphQuery(
      *ctx, 0, std::string(200000, '!') + "true", "", {}, {});
  EXPECT_TRUE(nested.status().IsInvalidArgument())
      << nested.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());

  std::string chain = "a=1";
  for (int i = 1; i < 300000; ++i) chain += "&a=1";
  auto flat = (*client)->GetGraphQuery(*ctx, 0, chain, "", {}, {});
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ASSERT_EQ(flat->nodes.size(), 1u);
  EXPECT_EQ(flat->nodes[0].node, node->node);
  auto walked =
      (*client)->LinearizeGraph(*ctx, node->node, 0, chain, "", {}, {});
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(walked->nodes.size(), 1u);
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE((*client)->CloseGraph(*ctx).ok());
}

TEST_F(ServerRobustnessTest, WireGarbageDropsThatClientOnly) {
  // Client A misbehaves: raw garbage that fails the frame CRC.
  auto bad = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(bad.ok());
  std::string garbage = "this is definitely not a frame";
  ASSERT_TRUE((*bad)->SendFrame(std::string(1, char(Method::kPing))).ok());
  auto first = (*bad)->RecvFrame();
  ASSERT_TRUE(first.ok());
  // Now poison the stream.
  ASSERT_TRUE((*bad)->SendFrame(garbage).ok());  // valid frame, bad method
  auto second = (*bad)->RecvFrame();
  ASSERT_TRUE(second.ok());  // server replies with an error status

  // Meanwhile client B does real work unharmed.
  auto good = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(good.ok());
  auto created = (*good)->CreateGraph(dir_, 0755);
  ASSERT_TRUE(created.ok());
  auto ctx = (*good)->OpenGraph(created->project, "localhost", dir_);
  ASSERT_TRUE(ctx.ok());
  EXPECT_TRUE((*good)->AddNode(*ctx, true).ok());
  EXPECT_TRUE((*good)->CloseGraph(*ctx).ok());
}

TEST_F(ServerRobustnessTest, ManySequentialConnections) {
  for (int i = 0; i < 25; ++i) {
    auto client = RemoteHam::Connect("localhost", port_);
    ASSERT_TRUE(client.ok()) << i;
    EXPECT_TRUE((*client)->Ping().ok()) << i;
  }
}

// Opens a bare TCP connection to the server, bypassing FrameStream so
// the test can put bytes on the wire that the client library would
// itself refuse to send.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(ServerRobustnessTest, HostileLengthPrefixGetsErrorReplyThenClose) {
  int fd = RawConnect(port_);
  ASSERT_GE(fd, 0);
  // A 1 GiB length prefix. The server must reject it from the 8-byte
  // header alone — before buffering (let alone allocating) a body.
  std::string header;
  PutFixed32(&header, 1u << 30);
  PutFixed32(&header, 0);  // CRC is never consulted; length fails first
  ASSERT_EQ(::send(fd, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));

  // The server answers with one framed error status, then closes.
  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  FrameDecoder decoder;
  std::vector<std::string> frames;
  ASSERT_TRUE(decoder.Feed(raw, &frames).ok());
  ASSERT_EQ(frames.size(), 1u);
  std::string_view in = frames[0];
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();

  // The rest of the server is unharmed.
  auto good = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE((*good)->Ping().ok());
}

TEST_F(ServerRobustnessTest, WriterSlotFreedOnAbruptDisconnectMidTransaction) {
  auto a = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(a.ok());
  auto created = (*a)->CreateGraph(dir_, 0755);
  ASSERT_TRUE(created.ok());
  auto ctx_a = (*a)->OpenGraph(created->project, "localhost", dir_);
  ASSERT_TRUE(ctx_a.ok());
  ASSERT_TRUE((*a)->BeginTransaction(*ctx_a).ok());
  ASSERT_TRUE((*a)->AddNode(*ctx_a, true).ok());
  // Client A vanishes mid-transaction with neither commit nor abort.
  // Leases are disabled in this fixture, so the writer slot must come
  // back from the server's disconnect cleanup alone — B's
  // BeginTransaction below would hang forever on a leak.
  (*a).reset();

  auto b = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(b.ok());
  auto ctx_b = (*b)->OpenGraph(created->project, "localhost", dir_);
  ASSERT_TRUE(ctx_b.ok());
  ASSERT_TRUE((*b)->BeginTransaction(*ctx_b).ok());
  EXPECT_TRUE((*b)->AddNode(*ctx_b, true).ok());
  EXPECT_TRUE((*b)->CommitTransaction(*ctx_b).ok());
  EXPECT_TRUE((*b)->CloseGraph(*ctx_b).ok());
}

TEST_F(ServerRobustnessTest, OverloadShedsReadsWithRetryHint) {
  // Rebuild the server with a zero soft threshold so every request
  // sees the server as overloaded.
  server_->Stop();
  Server::Options opts;
  opts.shed_inflight_requests = 0;
  opts.max_inflight_requests = 1000;
  opts.retry_after_ms = 7;
  server_ = std::make_unique<Server>(engine_.get(), opts);
  auto port = server_->Start(0);
  ASSERT_TRUE(port.ok());
  port_ = *port;

  uint64_t shed_before =
      MetricsRegistry::Instance().Snapshot().CounterValue("server.shed");

  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  // An idempotent read is refused with kUnavailable plus a
  // retry-after-ms hint — without ever reaching the engine, so the
  // nonsense empty body is irrelevant.
  std::string request;
  request.push_back(static_cast<char>(Method::kGetNodeTimeStamp));
  ASSERT_TRUE((*stream)->SendFrame(request).ok());
  auto reply = (*stream)->RecvFrame();
  ASSERT_TRUE(reply.ok());
  std::string_view in = *reply;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  uint32_t retry_after = 0;
  ASSERT_TRUE(GetVarint32(&in, &retry_after));
  EXPECT_EQ(retry_after, 7u);
  EXPECT_GT(MetricsRegistry::Instance().Snapshot().CounterValue("server.shed"),
            shed_before);

  // Pings are always admitted (operators must be able to look).
  std::string ping;
  ping.push_back(static_cast<char>(Method::kPing));
  ASSERT_TRUE((*stream)->SendFrame(ping).ok());
  auto pong = (*stream)->RecvFrame();
  ASSERT_TRUE(pong.ok());
  std::string_view pin = *pong;
  Status pstatus;
  ASSERT_TRUE(DecodeStatusFrom(&pin, &pstatus));
  EXPECT_TRUE(pstatus.ok()) << pstatus.ToString();

  // Mutations stay admitted below the hard cap: real work still lands.
  auto client = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(client.ok());
  auto created = (*client)->CreateGraph(dir_, 0755);
  ASSERT_TRUE(created.ok());
  auto ctx = (*client)->OpenGraph(created->project, "localhost", dir_);
  ASSERT_TRUE(ctx.ok());
  EXPECT_TRUE((*client)->AddNode(*ctx, true).ok());
  EXPECT_TRUE((*client)->CloseGraph(*ctx).ok());
}

TEST_F(ServerRobustnessTest, ResourceLimitsRejectOversizedWork) {
  // A second engine with deliberately tight caps, served over RPC so
  // the rejections are observed exactly as a hostile client would.
  ham::HamOptions tight;
  tight.sync_commits = false;
  tight.max_node_content_bytes = 64;
  tight.max_attribute_name_bytes = 8;
  tight.max_attribute_value_bytes = 16;
  tight.max_attrs_per_entity = 2;
  auto engine = std::make_unique<ham::Ham>(Env::Default(), tight);
  auto server = std::make_unique<Server>(engine.get());
  auto port = server->Start(0);
  ASSERT_TRUE(port.ok());

  std::string dir = dir_ + "-tight";
  Env::Default()->RemoveDirRecursive(dir);
  auto client = RemoteHam::Connect("localhost", *port);
  ASSERT_TRUE(client.ok());
  auto created = (*client)->CreateGraph(dir, 0755);
  ASSERT_TRUE(created.ok());
  auto ctx = (*client)->OpenGraph(created->project, "localhost", dir);
  ASSERT_TRUE(ctx.ok());
  auto node = (*client)->AddNode(*ctx, true);
  ASSERT_TRUE(node.ok());

  // Node contents over the cap are refused before any WAL write...
  Status big = (*client)->ModifyNode(*ctx, node->node, node->creation_time,
                                     std::string(65, 'x'), {}, "too big");
  EXPECT_TRUE(big.IsInvalidArgument()) << big.ToString();
  // ...while contents at exactly the cap are fine (limit, not limit-1).
  EXPECT_TRUE((*client)
                  ->ModifyNode(*ctx, node->node, node->creation_time,
                               std::string(64, 'x'), {}, "fits")
                  .ok());

  // Attribute names are bounded (interning is permanent, so the check
  // runs before the name could be committed).
  EXPECT_TRUE((*client)
                  ->GetAttributeIndex(*ctx, "far-too-long-a-name")
                  .status()
                  .IsInvalidArgument());
  auto kind = (*client)->GetAttributeIndex(*ctx, "kind");
  ASSERT_TRUE(kind.ok());

  // Attribute values are bounded.
  EXPECT_TRUE((*client)
                  ->SetNodeAttributeValue(*ctx, node->node, *kind,
                                          std::string(17, 'v'))
                  .IsInvalidArgument());
  ASSERT_TRUE(
      (*client)->SetNodeAttributeValue(*ctx, node->node, *kind, "a").ok());

  // At most two attributes per entity: a third distinct attribute is
  // refused, but replacing an attached one still works.
  auto shape = (*client)->GetAttributeIndex(*ctx, "shape");
  ASSERT_TRUE(shape.ok());
  ASSERT_TRUE(
      (*client)->SetNodeAttributeValue(*ctx, node->node, *shape, "b").ok());
  auto color = (*client)->GetAttributeIndex(*ctx, "color");
  ASSERT_TRUE(color.ok());
  EXPECT_TRUE((*client)
                  ->SetNodeAttributeValue(*ctx, node->node, *color, "c")
                  .IsInvalidArgument());
  EXPECT_TRUE(
      (*client)->SetNodeAttributeValue(*ctx, node->node, *kind, "new").ok());

  EXPECT_TRUE((*client)->CloseGraph(*ctx).ok());
  server->Stop();
  server.reset();
  engine.reset();
  Env::Default()->RemoveDirRecursive(dir);
}

TEST_F(ServerRobustnessTest, IdleConnectionsAreReaped) {
  server_->Stop();
  Server::Options opts;
  opts.idle_timeout_ms = 100;
  server_ = std::make_unique<Server>(engine_.get(), opts);
  auto port = server_->Start(0);
  ASSERT_TRUE(port.ok());
  port_ = *port;

  uint64_t reaped_before = MetricsRegistry::Instance().Snapshot().CounterValue(
      "server.connections.reaped");

  auto client = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());

  // Go silent past the idle timeout; the server drops the connection.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (MetricsRegistry::Instance().Snapshot().CounterValue(
             "server.connections.reaped") <= reaped_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(MetricsRegistry::Instance().Snapshot().CounterValue(
                "server.connections.reaped"),
            reaped_before);

  // Ping is idempotent, so the stub transparently reconnects.
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(ServerRobustnessTest, StopUnblocksAndRejectsFurtherWork) {
  auto client = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(client.ok());
  server_->Stop();
  // After stop, the client sees a network error rather than a hang.
  Status st = (*client)->Ping();
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace rpc
}  // namespace neptune
