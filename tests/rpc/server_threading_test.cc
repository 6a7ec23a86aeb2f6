// The run-to-completion server: the thread that reads a request runs it
// and writes the reply. These cases pin down what that model must keep
// from the wire contract — connections never wait on each other, plain
// requests are answered in order even when a later one is fast, a
// request that waits on another client never holds up the requests or
// replies read with it, a finished reply is never held behind a slow
// read, a peer that stops reading parks its replies
// instead of a thread, a disconnect mid-request cleans up its session
// exactly once, and
// clients queued unread behind busy threads still trigger load
// shedding. (Stop() during a plain request is covered by
// RpcResilienceTest.StopDrainsTheInFlightRequest.)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
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

int64_t GaugeValue(const char* name) {
  return MetricsRegistry::Instance().GetGauge(name)->Value();
}

// Polls `done` for up to 10 s; a hung wait IS the bug.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// A plain request for `method` on `session`, with no further fields.
std::string SessionRequest(Method method, uint64_t session) {
  std::string request(1, static_cast<char>(method));
  PutVarint64(&request, session);
  return request;
}

// The same as a tagged (pipelined) request with id `id`.
std::string Tagged(std::string_view plain, uint64_t id) {
  std::string request(1, static_cast<char>(static_cast<uint8_t>(plain[0]) |
                                           kRequestIdFlag));
  PutVarint64(&request, id);
  request.append(plain.substr(1));
  return request;
}

// Splits a tagged reply into its request id and status.
bool DecodeTaggedReply(const Result<std::string>& reply, uint64_t* id,
                       Status* status) {
  if (!reply.ok()) return false;
  std::string_view in = *reply;
  return GetVarint64(&in, id) && DecodeStatusFrom(&in, status);
}

std::string PingRequest(std::string_view echo) {
  std::string request(1, static_cast<char>(Method::kPing));
  request.append(echo);
  return request;
}

// The echoed bytes of a ping reply, or "" if the reply is not an OK.
std::string PingEcho(const Result<std::string>& reply) {
  if (!reply.ok()) return "";
  std::string_view in = *reply;
  Status status;
  if (!DecodeStatusFrom(&in, &status) || !status.ok()) return "";
  return std::string(in);
}

class ServerThreadingTest : public ::testing::Test {
 protected:
  void SetUp() override { StartServer(Server::Options()); }

  void StartServer(Server::Options server_options) {
    dir_ = (std::filesystem::temp_directory_path() /
            ("neptune_threading_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    Env::Default()->RemoveDirRecursive(dir_);
    ham::HamOptions options;
    options.sync_commits = false;
    engine_ = std::make_unique<ham::Ham>(Env::Default(), options);
    slow_ = std::make_unique<SlowTimeStampHam>(engine_.get());
    server_ = std::make_unique<Server>(slow_.get(), server_options);
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void TearDown() override {
    server_->Stop();
    server_.reset();
    slow_.reset();
    engine_.reset();
    Env::Default()->RemoveDirRecursive(dir_);
  }

  // A client holding the graph's writer slot: any other session's
  // BeginTransaction blocks inside the server until it commits — a
  // plain request that is slow for as long as the test wants.
  void HoldWriterSlot() {
    CreateGraph();
    auto ctx = holder_->OpenGraph(project_, "localhost", dir_);
    ASSERT_TRUE(ctx.ok());
    holder_ctx_ = *ctx;
    ASSERT_TRUE(holder_->BeginTransaction(holder_ctx_).ok());
  }

  // Creates the test graph through holder_.
  void CreateGraph() {
    auto holder = RemoteHam::Connect("localhost", port_);
    ASSERT_TRUE(holder.ok());
    holder_ = std::move(*holder);
    auto created = holder_->CreateGraph(dir_, 0755);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    project_ = created->project;
  }

  // Opens the test graph on a raw connection, so the server tracks the
  // session against it; 0 on failure.
  uint64_t OpenRawSession(FrameStream* stream) {
    std::string open(1, static_cast<char>(Method::kOpenGraph));
    PutVarint64(&open, project_);
    PutLengthPrefixed(&open, "localhost");
    PutLengthPrefixed(&open, dir_);
    if (!stream->SendFrame(open).ok()) return 0;
    auto reply = stream->RecvFrame();
    if (!reply.ok()) return 0;
    std::string_view in = *reply;
    Status status;
    uint64_t session = 0;
    if (!DecodeStatusFrom(&in, &status) || !status.ok() ||
        !GetVarint64(&in, &session)) {
      return 0;
    }
    return session;
  }

  std::string dir_;
  std::unique_ptr<ham::Ham> engine_;
  std::unique_ptr<SlowTimeStampHam> slow_;  // the HAM the server runs on
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
  std::unique_ptr<RemoteHam> holder_;
  ham::ProjectId project_ = 0;
  ham::Context holder_ctx_;
};

TEST_F(ServerThreadingTest, SlowPlainRequestDoesNotDelayOtherConnections) {
  HoldWriterSlot();
  auto a = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(a.ok());
  auto ctx_a = (*a)->OpenGraph(project_, "localhost", dir_);
  ASSERT_TRUE(ctx_a.ok());
  std::atomic<bool> a_done{false};
  Status a_status;
  std::thread slow([&] {
    a_status = (*a)->BeginTransaction(*ctx_a);  // blocks on the writer slot
    a_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Connection B is served in full while A's request is still running.
  auto b = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE((*b)->Ping().ok());
  auto ctx_b = (*b)->OpenGraph(project_, "localhost", dir_);
  ASSERT_TRUE(ctx_b.ok());
  EXPECT_FALSE(a_done.load()) << "A finished without the writer slot";

  ASSERT_TRUE(holder_->CommitTransaction(holder_ctx_).ok());
  slow.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  EXPECT_TRUE((*a)->AbortTransaction(*ctx_a).ok());
}

TEST_F(ServerThreadingTest, PlainRequestsInOneSendAreAnsweredInOrder) {
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  constexpr int kRequests = 64;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    AppendFrame({}, PingRequest("req-" + std::to_string(i)), &burst);
  }
  ASSERT_TRUE((*stream)->SendBytes(burst).ok());  // one send
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(PingEcho((*stream)->RecvFrame()), "req-" + std::to_string(i));
  }
}

TEST_F(ServerThreadingTest, FastPlainRequestWaitsForTheSlowOneBeforeIt) {
  HoldWriterSlot();
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  const uint64_t session = OpenRawSession(stream->get());
  ASSERT_NE(session, 0u);
  // A plain BeginTransaction that blocks on the writer slot, then —
  // in a separate send — a ping. The ping must not overtake it.
  std::string begin(1, static_cast<char>(Method::kBeginTransaction));
  PutVarint64(&begin, session);
  ASSERT_TRUE((*stream)->SendFrame(begin).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE((*stream)->SendFrame(PingRequest("after")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(holder_->CommitTransaction(holder_ctx_).ok());

  auto first = (*stream)->RecvFrame();
  ASSERT_TRUE(first.ok());
  std::string_view in = *first;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(in.empty()) << "the ping's reply overtook the slow request";
  EXPECT_EQ(PingEcho((*stream)->RecvFrame()), "after");
}

TEST_F(ServerThreadingTest, BlockedTaggedRequestDoesNotHoldUpItsBurst) {
  CreateGraph();
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  // A wedged server fails the receives below instead of hanging them.
  ASSERT_TRUE((*stream)->SetTimeouts(10000, 10000).ok());
  const uint64_t x = OpenRawSession(stream->get());
  const uint64_t y = OpenRawSession(stream->get());
  ASSERT_NE(x, 0u);
  ASSERT_NE(y, 0u);
  ASSERT_TRUE(
      (*stream)->SendFrame(SessionRequest(Method::kBeginTransaction, x)).ok());
  auto began = (*stream)->RecvFrame();
  ASSERT_TRUE(began.ok());
  std::string_view in = *began;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // One send, so one read: Y's BeginTransaction, which blocks until X
  // commits, then a call from X, which holds the slot. X's reply must
  // not wait for Y's Begin, or X could never commit.
  std::string add = SessionRequest(Method::kAddNode, x);
  add.push_back(1);  // keep_history
  std::string burst;
  AppendFrame({}, Tagged(SessionRequest(Method::kBeginTransaction, y), 1),
              &burst);
  AppendFrame({}, Tagged(add, 2), &burst);
  ASSERT_TRUE((*stream)->SendBytes(burst).ok());
  uint64_t id = 0;
  const bool answered_x =
      DecodeTaggedReply((*stream)->RecvFrame(), &id, &status);
  if (!answered_x) {
    // Unwedge the server in-process so the test fails instead of
    // hanging in Stop(): abort X, which lets Y's Begin through, then
    // abort Y, which lets X's call auto-commit.
    engine_->AbortTransaction(ham::Context{x});
    WaitFor([&] { return engine_->AbortTransaction(ham::Context{y}).ok(); });
  }
  ASSERT_TRUE(answered_x) << "X's reply is stuck behind Y's blocked Begin";
  EXPECT_EQ(id, 2u);
  EXPECT_TRUE(status.ok()) << status.ToString();

  // X's commit releases the slot, which completes Y's Begin.
  ASSERT_TRUE((*stream)
                  ->SendFrame(Tagged(
                      SessionRequest(Method::kCommitTransaction, x), 3))
                  .ok());
  std::set<uint64_t> answered;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(DecodeTaggedReply((*stream)->RecvFrame(), &id, &status));
    EXPECT_TRUE(status.ok()) << "request " << id << ": " << status.ToString();
    answered.insert(id);
  }
  EXPECT_EQ(answered, (std::set<uint64_t>{1, 3}));
  ASSERT_TRUE((*stream)
                  ->SendFrame(Tagged(
                      SessionRequest(Method::kAbortTransaction, y), 4))
                  .ok());
  ASSERT_TRUE(DecodeTaggedReply((*stream)->RecvFrame(), &id, &status));
  EXPECT_EQ(id, 4u);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ServerThreadingTest, ReplyIsNotHeldBehindAPlainRequestThatWaits) {
  CreateGraph();
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->SetTimeouts(10000, 10000).ok());
  const uint64_t x = OpenRawSession(stream->get());
  const uint64_t y = OpenRawSession(stream->get());
  ASSERT_NE(x, 0u);
  ASSERT_NE(y, 0u);
  ASSERT_TRUE(
      (*stream)->SendFrame(SessionRequest(Method::kBeginTransaction, x)).ok());
  auto began = (*stream)->RecvFrame();
  ASSERT_TRUE(began.ok());
  std::string_view in = *began;
  Status status;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Plain requests in one send run in order on one thread: X's call,
  // then Y's BeginTransaction, which waits for X to commit. X's reply
  // must go out before the Begin starts waiting.
  std::string add = SessionRequest(Method::kAddNode, x);
  add.push_back(1);  // keep_history
  std::string burst;
  AppendFrame({}, add, &burst);
  AppendFrame({}, SessionRequest(Method::kBeginTransaction, y), &burst);
  ASSERT_TRUE((*stream)->SendBytes(burst).ok());
  auto added = (*stream)->RecvFrame();
  // X commits in-process either way, which lets Y's Begin through.
  ASSERT_TRUE(engine_->CommitTransaction(ham::Context{x}).ok());
  ASSERT_TRUE(added.ok()) << "X's reply was held behind Y's waiting Begin";
  in = *added;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.ok()) << status.ToString();
  auto y_began = (*stream)->RecvFrame();
  ASSERT_TRUE(y_began.ok());
  in = *y_began;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(
      (*stream)->SendFrame(SessionRequest(Method::kAbortTransaction, y)).ok());
  auto aborted = (*stream)->RecvFrame();
  ASSERT_TRUE(aborted.ok());
  in = *aborted;
  ASSERT_TRUE(DecodeStatusFrom(&in, &status));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ServerThreadingTest, FinishedReplyIsNotHeldBehindASlowRead) {
  CreateGraph();
  auto holder_ctx = holder_->OpenGraph(project_, "localhost", dir_);
  ASSERT_TRUE(holder_ctx.ok());
  auto added = holder_->AddNode(*holder_ctx, true);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  auto stream = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->SetTimeouts(10000, 10000).ok());
  const uint64_t session = OpenRawSession(stream->get());
  ASSERT_NE(session, 0u);
  std::string open = SessionRequest(Method::kOpenNode, session);
  PutVarint64(&open, added->node);
  PutVarint64(&open, 0);  // time: now
  PutVarint64(&open, 0);  // no attributes
  std::string stamp = SessionRequest(Method::kGetNodeTimeStamp, session);
  PutVarint64(&stamp, added->node);
  // Each reply as it reads alone, so the burst's replies can be told
  // apart.
  auto alone = [&](const std::string& request) {
    EXPECT_TRUE((*stream)->SendFrame(request).ok());
    auto reply = (*stream)->RecvFrame();
    return reply.ok() ? *reply : std::string();
  };
  const std::string open_reply = alone(open);
  const std::string stamp_reply = alone(stamp);
  ASSERT_FALSE(open_reply.empty());
  ASSERT_FALSE(stamp_reply.empty());
  auto tag = [](uint64_t id, const std::string& reply) {
    std::string tagged;
    PutVarint64(&tagged, id);
    return tagged + reply;
  };

  // Sends `requests` in one send() and returns each reply with the
  // milliseconds from the send to its arrival.
  slow_->time_stamp_delay_ms.store(300);
  using Clock = std::chrono::steady_clock;
  auto burst = [&](const std::vector<std::string>& requests) {
    std::string bytes;
    for (const std::string& request : requests) AppendFrame({}, request, &bytes);
    const auto sent = Clock::now();
    EXPECT_TRUE((*stream)->SendBytes(bytes).ok());
    std::vector<std::pair<std::string, int64_t>> replies;
    for (size_t i = 0; i < requests.size(); ++i) {
      auto reply = (*stream)->RecvFrame();
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          Clock::now() - sent)
                          .count();
      replies.emplace_back(reply.ok() ? *reply : std::string(), ms);
    }
    return replies;
  };

  // Tagged, fast first: the fast reply leaves when it is done.
  auto replies = burst({Tagged(open, 1), Tagged(stamp, 2)});
  EXPECT_EQ(replies[0].first, tag(1, open_reply));
  EXPECT_LT(replies[0].second, 100) << "tagged reply held behind a slow read";
  EXPECT_EQ(replies[1].first, tag(2, stamp_reply));

  // Tagged, slow first: the fast one overtakes it.
  replies = burst({Tagged(stamp, 3), Tagged(open, 4)});
  EXPECT_EQ(replies[0].first, tag(4, open_reply));
  EXPECT_LT(replies[0].second, 100) << "tagged reply held behind a slow read";
  EXPECT_EQ(replies[1].first, tag(3, stamp_reply));

  // Plain, fast first: the fast reply leaves when it is done.
  replies = burst({open, stamp});
  EXPECT_EQ(replies[0].first, open_reply);
  EXPECT_LT(replies[0].second, 100) << "plain reply held behind a slow read";
  EXPECT_EQ(replies[1].first, stamp_reply);

  // Plain, slow first: replies still leave in request order.
  replies = burst({stamp, open});
  EXPECT_EQ(replies[0].first, stamp_reply);
  EXPECT_GE(replies[0].second, 300);
  EXPECT_EQ(replies[1].first, open_reply);
}

TEST_F(ServerThreadingTest, StalledReaderParksRepliesAndStallsNoOne) {
  const int64_t outbuf_before = GaugeValue("server.outbuf_bytes");
  auto stalled = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(stalled.ok());
  // ~20 MiB of replies: far more than the loopback socket buffers
  // hold, so the server must park the rest until the peer reads.
  constexpr int kRequests = 320;
  const std::string filler(64 << 10, 'x');
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    AppendFrame({}, PingRequest(std::to_string(i) + ":" + filler), &burst);
  }
  ASSERT_TRUE((*stalled)->SendBytes(burst).ok());
  ASSERT_TRUE(WaitFor([&] {
    return GaugeValue("server.outbuf_bytes") > outbuf_before;
  })) << "replies never backed up";

  // Every other connection is served while the bytes sit parked.
  auto other = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(other.ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE((*other)->Ping().ok());

  // The stalled peer reads again and gets every reply, in order.
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(PingEcho((*stalled)->RecvFrame()),
              std::to_string(i) + ":" + filler)
        << "reply " << i;
  }
  EXPECT_TRUE(WaitFor([&] {
    return GaugeValue("server.outbuf_bytes") == outbuf_before;
  }));
}

TEST_F(ServerThreadingTest, DisconnectMidRequestClosesItsSessionOnce) {
  HoldWriterSlot();
  const int64_t sessions_before = GaugeValue("server.sessions.active");
  const int64_t conns_before = GaugeValue("rpc.connections.active");

  // A raw client opens a session and sends a BeginTransaction that
  // blocks on the writer slot, then vanishes while it runs.
  auto a = FrameStream::Connect("localhost", port_);
  ASSERT_TRUE(a.ok());
  const uint64_t session = OpenRawSession(a->get());
  ASSERT_NE(session, 0u);
  std::string begin(1, static_cast<char>(Method::kBeginTransaction));
  PutVarint64(&begin, session);
  ASSERT_TRUE((*a)->SendFrame(begin).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*a).reset();  // gone mid-request

  // The blocked request now takes the slot for a session whose client
  // is gone; the disconnect cleanup must hand it straight back.
  ASSERT_TRUE(holder_->CommitTransaction(holder_ctx_).ok());
  ASSERT_TRUE(WaitFor([&] {
    return GaugeValue("rpc.connections.active") == conns_before &&
           GaugeValue("server.sessions.active") == sessions_before;
  })) << "the vanished connection was never cleaned up";

  auto b = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(b.ok());
  auto ctx_b = (*b)->OpenGraph(project_, "localhost", dir_);
  ASSERT_TRUE(ctx_b.ok());
  ASSERT_TRUE((*b)->BeginTransaction(*ctx_b).ok());  // hangs on a leak
  EXPECT_TRUE((*b)->AddNode(*ctx_b, true).ok());
  EXPECT_TRUE((*b)->CommitTransaction(*ctx_b).ok());
  EXPECT_TRUE((*b)->CloseGraph(*ctx_b).ok());
}

TEST_F(ServerThreadingTest, ClientsQueuedBehindBusyThreadsAreShed) {
  // Two threads and a low soft threshold: while both threads are busy,
  // requests left unread in their sockets count toward the load.
  server_->Stop();
  Server::Options options;
  options.worker_threads = 2;
  options.shed_inflight_requests = 2;
  options.max_inflight_requests = 1000;
  options.retry_after_ms = 7;
  StartServer(options);
  // The writer slot is held in-process, so releasing it needs no
  // server thread.
  auto created = engine_->CreateGraph(dir_, 0755);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  project_ = created->project;
  auto local = engine_->OpenGraph(project_, "localhost", dir_);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(engine_->BeginTransaction(*local).ok());
  const int64_t inflight_before = GaugeValue("server.inflight");

  // Both threads block in a plain BeginTransaction on the writer slot.
  std::unique_ptr<FrameStream> blocked[2];
  for (auto& stream : blocked) {
    auto connected = FrameStream::Connect("localhost", port_);
    ASSERT_TRUE(connected.ok());
    stream = std::move(*connected);
    ASSERT_TRUE(stream->SetTimeouts(10000, 10000).ok());
    const uint64_t session = OpenRawSession(stream.get());
    ASSERT_NE(session, 0u);
    ASSERT_TRUE(
        stream->SendFrame(SessionRequest(Method::kBeginTransaction, session))
            .ok());
  }
  ASSERT_TRUE(WaitFor([&] {
    return GaugeValue("server.inflight") == inflight_before + 2;
  }));

  // Six synchronous readers queue up with no thread free to read them.
  constexpr int kReaders = 6;
  std::unique_ptr<FrameStream> readers[kReaders];
  for (auto& reader : readers) {
    auto connected = FrameStream::Connect("localhost", port_);
    ASSERT_TRUE(connected.ok());
    reader = std::move(*connected);
    ASSERT_TRUE(reader->SetTimeouts(10000, 10000).ok());
    // An idempotent read; refused before it reaches the engine, so the
    // missing body is irrelevant.
    ASSERT_TRUE(reader
                    ->SendFrame(std::string(
                        1, static_cast<char>(Method::kGetNodeTimeStamp)))
                    .ok());
  }
  const uint64_t shed_before =
      MetricsRegistry::Instance().Snapshot().CounterValue("server.shed");
  // The server samples that backlog at most once a millisecond; let
  // the sample taken while the threads filled up go stale.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The holder commits: one blocked Begin takes the slot and frees its
  // thread, which finds the readers waiting while the other thread is
  // still busy.
  ASSERT_TRUE(engine_->CommitTransaction(*local).ok());
  int shed = 0;
  for (auto& reader : readers) {
    auto reply = reader->RecvFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    std::string_view in = *reply;
    Status status;
    ASSERT_TRUE(DecodeStatusFrom(&in, &status));
    if (!status.IsUnavailable()) continue;
    uint32_t retry_after = 0;
    ASSERT_TRUE(GetVarint32(&in, &retry_after));
    EXPECT_EQ(retry_after, 7u);
    ++shed;
  }
  EXPECT_GT(shed, 0) << "no request was shed";
  EXPECT_EQ(
      MetricsRegistry::Instance().Snapshot().CounterValue("server.shed"),
      shed_before + static_cast<uint64_t>(shed));

  // Let go of the slot: whichever Begin got it first ends its
  // transaction, and the other one completes.
  for (auto& stream : blocked) stream->Close();
  EXPECT_TRUE(engine_->CloseGraph(*local).ok());
}

}  // namespace
}  // namespace rpc
}  // namespace neptune
