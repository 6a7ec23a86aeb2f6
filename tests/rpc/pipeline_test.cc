// Pipelining: many requests in flight on one connection, completing
// out of order via the kRequestIdFlag extension. Covers the raw wire
// contract (tagged replies echo their id), RemoteHam's one call path
// (overlapping calls go out tagged and a slow one does not
// head-of-line-block a fast one; a lone call goes out plain; an idle
// client keeps its sessions), id wraparound, the batch operations'
// per-item statuses, and the poll(2) poller fallback.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/coding.h"
#include "common/metrics.h"
#include "ham/ham.h"
#include "rpc/remote_ham.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "tests/rpc/slow_time_stamp_ham.h"

namespace neptune {
namespace rpc {
namespace {

using ham::Context;

class RpcPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    dir_ = (std::filesystem::temp_directory_path() /
            ("neptune_pipeline_" + name))
               .string();
    env_->RemoveDirRecursive(dir_);
    ham::HamOptions options;
    options.sync_commits = false;
    engine_ = std::make_unique<ham::Ham>(env_, options);
    slow_ = std::make_unique<SlowTimeStampHam>(engine_.get());
  }

  void StartServer(Server::Options options) {
    server_ = std::make_unique<Server>(slow_.get(), options);
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  // Connects a RemoteHam and opens a graph.
  void Connect(const RemoteHam::Options& options = RemoteHam::Options()) {
    auto client = RemoteHam::Connect("localhost", port_, options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
    auto created = client_->CreateGraph(dir_, 0755);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto ctx = client_->OpenGraph(created->project, "localhost", dir_);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = *ctx;
  }

  void TearDown() override {
    client_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    slow_.reset();
    engine_.reset();
    env_->RemoveDirRecursive(dir_);
  }

  uint64_t CounterValue(const std::string& name) {
    return MetricsRegistry::Instance().GetCounter(name)->Value();
  }

  Env* env_ = nullptr;
  std::string dir_;
  std::unique_ptr<ham::Ham> engine_;
  std::unique_ptr<SlowTimeStampHam> slow_;
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
  std::unique_ptr<RemoteHam> client_;
  Context ctx_;
};

// Raw wire: two tagged pings with chosen ids; both replies come back
// carrying their ids.
TEST_F(RpcPipelineTest, TaggedRepliesEchoTheirRequestIds) {
  StartServer(Server::Options());
  auto stream = FrameStream::Connect("localhost", port_, 2000);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  for (uint64_t id : {7u, 9u}) {
    std::string request;
    request.push_back(static_cast<char>(
        static_cast<uint8_t>(Method::kPing) | kRequestIdFlag));
    PutVarint64(&request, id);
    request += "echo-" + std::to_string(id);
    ASSERT_TRUE((*stream)->SendFrame(request).ok());
  }
  std::set<uint64_t> seen;
  for (int i = 0; i < 2; ++i) {
    auto reply = (*stream)->RecvFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    std::string_view in = *reply;
    uint64_t id = 0;
    ASSERT_TRUE(GetVarint64(&in, &id));
    Status status;
    ASSERT_TRUE(DecodeStatusFrom(&in, &status));
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(in, "echo-" + std::to_string(id));
    seen.insert(id);
  }
  EXPECT_EQ(seen, (std::set<uint64_t>{7, 9}));
}

// Raw wire: a zero request id is malformed, answered with a framed
// (untagged) error.
TEST_F(RpcPipelineTest, ZeroRequestIdIsRejected) {
  StartServer(Server::Options());
  auto stream = FrameStream::Connect("localhost", port_, 2000);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::string request;
  request.push_back(static_cast<char>(
      static_cast<uint8_t>(Method::kPing) | kRequestIdFlag));
  PutVarint64(&request, 0);
  ASSERT_TRUE((*stream)->SendFrame(request).ok());
  auto reply = (*stream)->RecvFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  std::string_view in = *reply;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

// A slow tagged request must not delay a fast tagged request sent
// after it on the same connection: replies complete out of order. A
// lone call goes out plain, so an async ping left in flight makes the
// slow call overlap it and go out tagged; the fast call then overlaps
// the slow one.
TEST_F(RpcPipelineTest, SlowOpDoesNotHeadOfLineBlockFastOp) {
  Server::Options options;
  options.worker_threads = 4;
  StartServer(options);
  Connect();
  auto added = client_->AddNode(ctx_, true);
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  slow_->time_stamp_delay_ms.store(300);
  const uint64_t tagged_before = CounterValue("rpc.server.pipelined");
  std::atomic<int64_t> slow_done_us{0};
  std::atomic<int64_t> fast_done_us{0};
  const auto now_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  RemoteHam::PendingCall ping = client_->CallAsync(Method::kPing, "hold");
  std::thread slow_call([&] {
    auto r = client_->GetNodeTimeStamp(ctx_, added->node);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    slow_done_us.store(now_us());
  });
  // Give the slow call time to be enqueued first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto fast = client_->OpenNode(ctx_, added->node, 0, {});
  fast_done_us.store(now_us());
  EXPECT_TRUE(fast.ok()) << fast.status().ToString();
  slow_call.join();
  auto echo = ping.Wait();
  ASSERT_TRUE(echo.ok()) << echo.status().ToString();
  EXPECT_EQ(*echo, "hold");
  ASSERT_GT(slow_done_us.load(), 0);
  ASSERT_GT(fast_done_us.load(), 0);
  EXPECT_LT(fast_done_us.load(), slow_done_us.load())
      << "fast op waited behind the slow op on the same connection";
  EXPECT_EQ(CounterValue("rpc.server.pipelined") - tagged_before, 2u);
}

// Overlapping calls from many threads on one client: slow reads mixed
// with openNode of distinct nodes. Every reply must match its request,
// and once the overlap is over a lone call goes out plain again.
TEST_F(RpcPipelineTest, OverlappingCallsEachGetTheirOwnReply) {
  StartServer(Server::Options());
  Connect();
  constexpr int kNodes = 16;
  struct Expected {
    ham::NodeIndex node;
    std::string contents;
    ham::Time time;
  };
  std::vector<Expected> nodes;
  for (int i = 0; i < kNodes; ++i) {
    auto added = client_->AddNode(ctx_, true);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    const std::string contents = "node " + std::to_string(i);
    ASSERT_TRUE(client_->ModifyNode(ctx_, added->node, added->creation_time,
                                    contents, {}, "init")
                    .ok());
    auto time = client_->GetNodeTimeStamp(ctx_, added->node);
    ASSERT_TRUE(time.ok()) << time.status().ToString();
    nodes.push_back({added->node, contents, *time});
  }

  slow_->time_stamp_delay_ms.store(2);
  const uint64_t tagged_before = CounterValue("rpc.server.pipelined");
  constexpr int kThreads = 8;
  constexpr int kCalls = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const Expected& want = nodes[(t * kCalls + i) % kNodes];
        if (i % 8 == 0) {
          auto time = client_->GetNodeTimeStamp(ctx_, want.node);
          if (!time.ok() || *time != want.time) mismatches.fetch_add(1);
        } else {
          auto opened = client_->OpenNode(ctx_, want.node, 0, {});
          if (!opened.ok() || opened->contents != want.contents ||
              opened->current_version_time != want.time) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  slow_->time_stamp_delay_ms.store(0);
  EXPECT_EQ(mismatches.load(), 0);
  const uint64_t tagged_after = CounterValue("rpc.server.pipelined");
  EXPECT_GT(tagged_after, tagged_before) << "the calls never overlapped";

  auto lone = client_->OpenNode(ctx_, nodes[0].node, 0, {});
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();
  EXPECT_EQ(lone->contents, nodes[0].contents);
  EXPECT_EQ(CounterValue("rpc.server.pipelined"), tagged_after)
      << "a lone call went out tagged";
}

// A client that sent tagged requests and then sits idle past its recv
// deadline keeps its connection: nobody reads while no call waits, so
// the server keeps the session and its open transaction.
TEST_F(RpcPipelineTest, IdleClientKeepsItsSessionAndTransaction) {
  StartServer(Server::Options());
  RemoteHam::Options options;
  options.recv_timeout_ms = 300;
  Connect(options);
  auto added = client_->AddNode(ctx_, true);
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  const uint64_t tagged_before = CounterValue("rpc.server.pipelined");
  std::vector<RemoteHam::PendingCall> calls;
  for (int i = 0; i < 8; ++i) {
    calls.push_back(client_->CallAsync(Method::kPing, "overlap"));
  }
  for (auto& call : calls) {
    auto reply = call.Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  ASSERT_GT(CounterValue("rpc.server.pipelined"), tagged_before);

  ASSERT_TRUE(client_->BeginTransaction(ctx_).ok());
  auto staged = client_->AddNode(ctx_, true);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();

  std::this_thread::sleep_for(std::chrono::milliseconds(3 * 300));

  auto opened = client_->OpenNode(ctx_, added->node, 0, {});
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  Status committed = client_->CommitTransaction(ctx_);
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  auto time = client_->GetNodeTimeStamp(ctx_, staged->node);
  EXPECT_TRUE(time.ok()) << time.status().ToString();
}

// CallAsync keeps several requests in flight at once; all complete.
// The first goes out plain, the 31 that overlap it tagged.
TEST_F(RpcPipelineTest, ManyAsyncCallsInFlight) {
  StartServer(Server::Options());
  Connect();
  const uint64_t tagged_before = CounterValue("rpc.server.pipelined");
  std::vector<RemoteHam::PendingCall> calls;
  for (int i = 0; i < 32; ++i) {
    std::string args = "burst-" + std::to_string(i);
    calls.push_back(client_->CallAsync(Method::kPing, args));
  }
  for (int i = 0; i < 32; ++i) {
    auto reply = calls[i].Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "burst-" + std::to_string(i));
  }
  EXPECT_EQ(CounterValue("rpc.server.pipelined") - tagged_before, 31u);
}

// A FrameStream on a loopback socket that counts its sends.
class CountingStream final : public FrameStream {
 public:
  CountingStream(int fd, std::atomic<int>* sends)
      : FrameStream(fd), sends_(sends) {}

  static Result<std::unique_ptr<FrameStream>> Dial(uint16_t port,
                                                   std::atomic<int>* sends) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::NetworkError("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return Status::NetworkError("connect");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::unique_ptr<FrameStream>(new CountingStream(fd, sends));
  }

  Status SendBytes(std::string_view bytes) override {
    sends_->fetch_add(1);
    return FrameStream::SendBytes(bytes);
  }

 private:
  std::atomic<int>* sends_;
};

// A window of async calls shares one send(): the first goes out alone,
// the second once the first's plain reply is in, and the six that
// overlap them wait in the buffer until the second's Wait() blocks.
TEST_F(RpcPipelineTest, AsyncWindowSharesOneSend) {
  StartServer(Server::Options());
  std::atomic<int> sends{0};
  RemoteHam::Options options;
  options.stream_factory = [&sends](const std::string&, uint16_t port, int) {
    return CountingStream::Dial(port, &sends);
  };
  Connect(options);
  const int sends_before = sends.load();
  std::vector<RemoteHam::PendingCall> calls;
  for (int i = 0; i < 8; ++i) {
    calls.push_back(
        client_->CallAsync(Method::kPing, "window-" + std::to_string(i)));
  }
  for (int i = 0; i < 8; ++i) {
    auto reply = calls[i].Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "window-" + std::to_string(i));
  }
  EXPECT_EQ(sends.load() - sends_before, 3);
}

// Ids wrap around 2^64 (skipping 0) without confusing completion. The
// first call goes out plain; the four overlapping it take ids 2^64-1,
// 1, 2 and 3.
TEST_F(RpcPipelineTest, RequestIdWraparound) {
  StartServer(Server::Options());
  Connect();
  client_->set_next_request_id_for_test(~uint64_t{0});
  const uint64_t tagged_before = CounterValue("rpc.server.pipelined");
  std::vector<RemoteHam::PendingCall> calls;
  for (int i = 0; i < 5; ++i) {
    calls.push_back(
        client_->CallAsync(Method::kPing, "wrap-" + std::to_string(i)));
  }
  for (int i = 0; i < 5; ++i) {
    auto reply = calls[i].Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "wrap-" + std::to_string(i));
  }
  EXPECT_EQ(CounterValue("rpc.server.pipelined") - tagged_before, 4u);
}

// openNodes: one bad node in the batch fails only its own slot.
TEST_F(RpcPipelineTest, OpenNodesReportsPerItemStatus) {
  StartServer(Server::Options());
  Connect();
  auto a = client_->AddNode(ctx_, true);
  auto b = client_->AddNode(ctx_, true);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(client_->ModifyNode(ctx_, a->node, a->creation_time, "alpha", {},
                                  "init")
                  .ok());
  ASSERT_TRUE(client_->ModifyNode(ctx_, b->node, b->creation_time, "beta", {},
                                  "init")
                  .ok());

  auto batch = client_->OpenNodes(ctx_, {a->node, 999999, b->node}, 0, {});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_TRUE((*batch)[0].status.ok());
  EXPECT_EQ((*batch)[0].result.contents, "alpha");
  EXPECT_FALSE((*batch)[1].status.ok());
  EXPECT_TRUE((*batch)[2].status.ok());
  EXPECT_EQ((*batch)[2].result.contents, "beta");
}

// getAttributeValuesBatch mixes node and link targets in one trip.
TEST_F(RpcPipelineTest, AttributeValuesBatchMixesNodesAndLinks) {
  StartServer(Server::Options());
  Connect();
  auto node = client_->AddNode(ctx_, true);
  ASSERT_TRUE(node.ok());
  auto attr = client_->GetAttributeIndex(ctx_, "color");
  ASSERT_TRUE(attr.ok());
  ASSERT_TRUE(
      client_->SetNodeAttributeValue(ctx_, node->node, *attr, "teal").ok());

  std::vector<RemoteHam::AttributeFetch> fetches(2);
  fetches[0] = {/*is_link=*/false, node->node, *attr};
  fetches[1] = {/*is_link=*/false, 424242, *attr};  // absent node
  auto batch = client_->GetAttributeValuesBatch(ctx_, 0, fetches);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_TRUE((*batch)[0].status.ok());
  EXPECT_EQ((*batch)[0].value, "teal");
  EXPECT_FALSE((*batch)[1].status.ok());
}

// linearizeAndFetch returns the subgraph plus every node's contents.
TEST_F(RpcPipelineTest, LinearizeAndFetchReturnsContents) {
  StartServer(Server::Options());
  Connect();
  auto a = client_->AddNode(ctx_, true);
  auto b = client_->AddNode(ctx_, true);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(client_->ModifyNode(ctx_, a->node, a->creation_time, "root", {},
                                  "init")
                  .ok());
  ASSERT_TRUE(client_->ModifyNode(ctx_, b->node, b->creation_time, "leaf", {},
                                  "init")
                  .ok());
  auto link = client_->AddLink(ctx_, ham::LinkPt{a->node, 0},
                               ham::LinkPt{b->node, 0});
  ASSERT_TRUE(link.ok()) << link.status().ToString();

  auto fetched = client_->LinearizeAndFetch(ctx_, a->node, 0, "", "", {}, {});
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  ASSERT_EQ(fetched->graph.nodes.size(), fetched->contents.size());
  ASSERT_GE(fetched->graph.nodes.size(), 2u);
  std::set<std::string> contents;
  for (size_t i = 0; i < fetched->contents.size(); ++i) {
    ASSERT_TRUE(fetched->contents[i].status.ok())
        << fetched->contents[i].status.ToString();
    contents.insert(fetched->contents[i].contents);
  }
  EXPECT_TRUE(contents.count("root"));
  EXPECT_TRUE(contents.count("leaf"));
}

// The whole stack works over the poll(2) fallback poller.
TEST_F(RpcPipelineTest, PollBackendServesPipelinedClients) {
  ::setenv("NEPTUNE_RPC_FORCE_POLL", "1", 1);
  StartServer(Server::Options());
  ::unsetenv("NEPTUNE_RPC_FORCE_POLL");
  Connect();
  std::vector<RemoteHam::PendingCall> calls;
  for (int i = 0; i < 16; ++i) {
    calls.push_back(client_->CallAsync(Method::kPing, "poll"));
  }
  for (auto& call : calls) {
    auto reply = call.Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "poll");
  }
}

// Clients against a multi-loop, multi-worker server: two threads share
// one client, so their calls overlap and go out tagged, while the
// lone callers on their own clients send plain requests.
TEST_F(RpcPipelineTest, MixedClientsOnMultiLoopServer) {
  Server::Options options;
  options.worker_threads = 4;
  StartServer(options);
  Connect();
  auto added = client_->AddNode(ctx_, true);
  ASSERT_TRUE(added.ok());
  auto shared = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<RemoteHam> own;
      RemoteHam* client = shared->get();
      if (t >= 2) {
        auto connected = RemoteHam::Connect("localhost", port_);
        if (!connected.ok()) {
          failures.fetch_add(1);
          return;
        }
        own = std::move(*connected);
        client = own.get();
      }
      for (int i = 0; i < 50; ++i) {
        auto r = client->OpenNode(ctx_, added->node, 0, {});
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace rpc
}  // namespace neptune
