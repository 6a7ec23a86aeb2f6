// RemoteHam: the client stub. Implements HamInterface over a TCP
// connection to a Neptune server, so application layers and browsers
// run unchanged against a networked HAM — the paper's deployment
// ("a central server which is accessible over a local area network
// from a variety of workstations").

#ifndef NEPTUNE_RPC_REMOTE_HAM_H_
#define NEPTUNE_RPC_REMOTE_HAM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "ham/ham_interface.h"
#include "rpc/codec.h"
#include "rpc/socket.h"
#include "rpc/wire.h"

namespace neptune {
namespace rpc {

class RemoteHam final : public ham::HamInterface {
 public:
  // Client-side resilience knobs. The defaults favour "fail loudly but
  // not forever": every call is bounded by the socket deadlines, and
  // transient transport errors are retried with jittered exponential
  // backoff — but a request is only ever *re-sent* for idempotent
  // methods (IsIdempotent in methods.h), because a mutation whose reply
  // was lost may have committed.
  struct Options {
    int connect_timeout_ms = 5000;
    int send_timeout_ms = 30000;   // 0 = no deadline
    int recv_timeout_ms = 30000;   // 0 = no deadline
    uint32_t max_retries = 3;      // extra attempts after the first
    uint32_t backoff_initial_ms = 10;
    uint32_t backoff_max_ms = 1000;
    uint64_t retry_seed = 0;       // 0 = derive per client
    // Cap on requests in flight on the connection (clamped to >= 1).
    uint32_t max_inflight = 64;
    // Follower-read routing: when follower_host is set, Connect also
    // dials a follower replica, OpenGraph opens a shadow session on
    // it, and curated idempotent reads are served there whenever the
    // follower is fresh enough (both staleness bounds hold). Any
    // follower error — connection down, graph not yet synced, stale —
    // silently falls back to the primary; writes and transactions
    // always go to the primary.
    std::string follower_host;
    uint16_t follower_port = 0;
    uint64_t follower_max_lag_bytes = 4 << 20;
    // Must comfortably exceed the follower's long-poll period, since
    // its catch-up stamp refreshes once per poll cycle.
    uint64_t follower_max_behind_ms = 10000;
    uint64_t follower_status_ttl_ms = 500;  // staleness-probe cache
    // Path remap for shadow sessions: a primary directory equal to (or
    // under) follower_remap_from opens on the follower at the same
    // relative path under follower_remap_to. Empty = the follower
    // mirrors the primary's paths verbatim (symmetric layout).
    std::string follower_remap_from;
    std::string follower_remap_to;
    // Clock for retry backoff, shed waits and follower-staleness TTLs.
    // nullptr = the process-wide real clock. The simulation harness
    // injects its virtual clock here.
    TimeSource* time_source = nullptr;
    // Dials a server; nullptr = FrameStream::Connect (real TCP). The
    // simulation harness injects its in-memory network here.
    std::function<Result<std::unique_ptr<FrameStream>>(
        const std::string& host, uint16_t port, int connect_timeout_ms)>
        stream_factory;
  };

  // A request in flight; Wait() blocks for the reply. Obtained from
  // CallAsync. Handles are one-shot single-owner values: Wait() may be
  // called once, from any thread, also after the client is gone (it
  // then fails).
  class PendingCall {
   public:
    // Returns the reply's result payload (after the status header);
    // non-OK replies and transport failures become that Status. Unlike
    // the sync API this does not retry or honor shed hints — callers
    // wanting those semantics use the sync methods.
    Result<std::string> Wait();

   private:
    friend class RemoteHam;
    struct State;
    std::shared_ptr<State> state_;
  };

  // Connects to a running server; host "" or "localhost" means
  // 127.0.0.1.
  static Result<std::unique_ptr<RemoteHam>> Connect(const std::string& host,
                                                    uint16_t port);
  static Result<std::unique_ptr<RemoteHam>> Connect(const std::string& host,
                                                    uint16_t port,
                                                    const Options& options);

  RemoteHam(const RemoteHam&) = delete;
  RemoteHam& operator=(const RemoteHam&) = delete;

  ~RemoteHam() override;

  // Round-trip liveness probe.
  Status Ping();

  // Issues one request without waiting for the reply, so several ride
  // the connection at once. A request alone on the connection goes
  // out before CallAsync returns; one that overlaps others rides the
  // next send, at the latest when a caller on this client next blocks
  // (a sync call, or Wait()), so a window of async calls costs one
  // send(). `args` is the encoded argument block exactly as the typed
  // sync wrappers build it (rpc/codec.h).
  PendingCall CallAsync(Method method, std::string_view args);

  // Batch operations (one round trip each; all idempotent). ----------

  // openNodes: per-item status so one missing node cannot fail its
  // siblings.
  struct OpenNodeItem {
    Status status;
    ham::OpenNodeResult result;  // meaningful only when status.ok()
  };
  Result<std::vector<OpenNodeItem>> OpenNodes(
      ham::Context ctx, const std::vector<ham::NodeIndex>& nodes,
      ham::Time time, const std::vector<ham::AttributeIndex>& attrs);

  // Multi-attribute read across nodes and links.
  using AttributeFetch = rpc::AttributeFetch;
  struct AttributeFetchItem {
    Status status;
    std::string value;  // meaningful only when status.ok()
  };
  Result<std::vector<AttributeFetchItem>> GetAttributeValuesBatch(
      ham::Context ctx, ham::Time time,
      const std::vector<AttributeFetch>& fetches);

  // linearizeGraph plus the contents of every node it returns, in one
  // round trip (a SubGraph carries structure, not contents).
  struct NodeContentsItem {
    Status status;
    std::string contents;        // meaningful only when status.ok()
    ham::Time version_time = 0;  // ditto
  };
  struct LinearizeAndFetchResult {
    ham::SubGraph graph;
    std::vector<NodeContentsItem> contents;  // parallel to graph.nodes
  };
  Result<LinearizeAndFetchResult> LinearizeAndFetch(
      ham::Context ctx, ham::NodeIndex start, ham::Time time,
      const std::string& node_pred, const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs);

  // Forces the next tagged request to use this id (wraparound tests).
  void set_next_request_id_for_test(uint64_t id) {
    next_id_override_.store(id, std::memory_order_relaxed);
  }

  // Fetches the server's process-wide metrics snapshot (RPC-only; not
  // part of HamInterface because a local Ham reads the registry
  // directly).
  Result<MetricsSnapshot> GetServerStatistics();

  // Windowed statistics: counters and histogram buckets are deltas
  // over the newest sampled span of at least `window_seconds`, gauges
  // are the latest values. elapsed_us = 0 means the server runs no
  // sampler (or has fewer than two samples yet) and the snapshot is
  // empty.
  struct StatisticsDelta {
    uint64_t elapsed_us = 0;
    MetricsSnapshot snapshot;
  };
  Result<StatisticsDelta> GetServerStatisticsDelta(uint32_t window_seconds);

  // Fetches the server's recent-trace ring / slow-op ring (RPC-only,
  // like GetServerStatistics; a local Ham reads the Tracer directly).
  Result<std::vector<Trace>> GetRecentTraces();
  Result<std::vector<Span>> GetSlowOps();

  // HamInterface (see ham/ham_interface.h for contracts) -------------
  Result<ham::CreateGraphResult> CreateGraph(const std::string& directory,
                                             uint32_t protections) override;
  Status DestroyGraph(ham::ProjectId project,
                      const std::string& directory) override;
  Result<ham::Context> OpenGraph(ham::ProjectId project,
                                 const std::string& machine,
                                 const std::string& directory) override;
  Status CloseGraph(ham::Context ctx) override;

  Status BeginTransaction(ham::Context ctx) override;
  Status CommitTransaction(ham::Context ctx) override;
  Status AbortTransaction(ham::Context ctx) override;

  Result<ham::AddNodeResult> AddNode(ham::Context ctx,
                                     bool keep_history) override;
  Status DeleteNode(ham::Context ctx, ham::NodeIndex node) override;
  Result<ham::AddLinkResult> AddLink(ham::Context ctx, const ham::LinkPt& from,
                                     const ham::LinkPt& to) override;
  Result<ham::AddLinkResult> CopyLink(ham::Context ctx, ham::LinkIndex link,
                                      ham::Time time, bool copy_source,
                                      const ham::LinkPt& other) override;
  Status DeleteLink(ham::Context ctx, ham::LinkIndex link) override;

  Result<ham::SubGraph> LinearizeGraph(
      ham::Context ctx, ham::NodeIndex start, ham::Time time,
      const std::string& node_pred, const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs) override;
  Result<ham::SubGraph> GetGraphQuery(
      ham::Context ctx, ham::Time time, const std::string& node_pred,
      const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs) override;
  Result<ham::QueryExplain> GetGraphQueryExplained(
      ham::Context ctx, ham::Time time, const std::string& node_pred,
      const std::string& link_pred,
      const std::vector<ham::AttributeIndex>& node_attrs,
      const std::vector<ham::AttributeIndex>& link_attrs,
      const ham::QueryOptions& options) override;

  Result<ham::OpenNodeResult> OpenNode(
      ham::Context ctx, ham::NodeIndex node, ham::Time time,
      const std::vector<ham::AttributeIndex>& attrs) override;
  Status ModifyNode(ham::Context ctx, ham::NodeIndex node,
                    ham::Time expected_time, const std::string& contents,
                    const std::vector<ham::AttachmentUpdate>& attachments,
                    const std::string& explanation) override;
  Result<ham::Time> GetNodeTimeStamp(ham::Context ctx,
                                     ham::NodeIndex node) override;
  Status ChangeNodeProtection(ham::Context ctx, ham::NodeIndex node,
                              uint32_t protections) override;
  Result<ham::NodeVersions> GetNodeVersions(ham::Context ctx,
                                            ham::NodeIndex node) override;
  Result<std::vector<delta::Difference>> GetNodeDifferences(
      ham::Context ctx, ham::NodeIndex node, ham::Time t1,
      ham::Time t2) override;

  Result<ham::LinkEndResult> GetToNode(ham::Context ctx, ham::LinkIndex link,
                                       ham::Time time) override;
  Result<ham::LinkEndResult> GetFromNode(ham::Context ctx, ham::LinkIndex link,
                                         ham::Time time) override;

  Result<std::vector<ham::AttributeEntry>> GetAttributes(
      ham::Context ctx, ham::Time time) override;
  Result<std::vector<std::string>> GetAttributeValues(
      ham::Context ctx, ham::AttributeIndex attr, ham::Time time) override;
  Result<ham::AttributeIndex> GetAttributeIndex(
      ham::Context ctx, const std::string& name) override;

  Status SetNodeAttributeValue(ham::Context ctx, ham::NodeIndex node,
                               ham::AttributeIndex attr,
                               const std::string& value) override;
  Status DeleteNodeAttribute(ham::Context ctx, ham::NodeIndex node,
                             ham::AttributeIndex attr) override;
  Result<std::string> GetNodeAttributeValue(ham::Context ctx,
                                            ham::NodeIndex node,
                                            ham::AttributeIndex attr,
                                            ham::Time time) override;
  Result<std::vector<ham::AttributeValueEntry>> GetNodeAttributes(
      ham::Context ctx, ham::NodeIndex node, ham::Time time) override;

  Status SetLinkAttributeValue(ham::Context ctx, ham::LinkIndex link,
                               ham::AttributeIndex attr,
                               const std::string& value) override;
  Status DeleteLinkAttribute(ham::Context ctx, ham::LinkIndex link,
                             ham::AttributeIndex attr) override;
  Result<std::string> GetLinkAttributeValue(ham::Context ctx,
                                            ham::LinkIndex link,
                                            ham::AttributeIndex attr,
                                            ham::Time time) override;
  Result<std::vector<ham::AttributeValueEntry>> GetLinkAttributes(
      ham::Context ctx, ham::LinkIndex link, ham::Time time) override;

  Status SetGraphDemonValue(ham::Context ctx, ham::Event event,
                            const std::string& demon) override;
  Result<std::vector<ham::DemonEntry>> GetGraphDemons(ham::Context ctx,
                                                      ham::Time time) override;
  Status SetNodeDemon(ham::Context ctx, ham::NodeIndex node, ham::Event event,
                      const std::string& demon) override;
  Result<std::vector<ham::DemonEntry>> GetNodeDemons(ham::Context ctx,
                                                     ham::NodeIndex node,
                                                     ham::Time time) override;

  Result<ham::ContextInfo> CreateContext(ham::Context ctx,
                                         const std::string& name) override;
  Result<ham::Context> OpenContext(ham::Context ctx,
                                   ham::ThreadId thread) override;
  Status MergeContext(ham::Context ctx, ham::ThreadId source,
                      bool force) override;
  Result<std::vector<ham::ContextInfo>> ListContexts(ham::Context ctx) override;

  Status Checkpoint(ham::Context ctx) override;
  Result<ham::GraphStats> GetStats(ham::Context ctx) override;
  Result<ham::ThreadId> ContextThread(ham::Context ctx) override;

  // Replication protocol (forwarded verbatim; see ham_interface.h).
  Result<ham::ReplFetchResult> ReplFetch(
      const ham::ReplFetchRequest& request) override;
  Result<ham::ReplNodeStatus> ReplStatus(const std::string& directory) override;
  Result<std::vector<std::string>> ReplListGraphs(
      const std::string& root) override;
  Result<uint64_t> Promote() override;

  // True when Connect established the optional follower connection.
  bool has_follower() const { return follower_ != nullptr; }

 private:
  RemoteHam(std::string host, uint16_t port, const Options& options);

  // Sends one request and returns the reply's result payload (after
  // the status header); non-OK replies become that Status. Every call,
  // sync or CallAsync, shares one connection: a call alone on it goes
  // out plain (no request id), and calls that overlap go out tagged
  // and complete out of order.
  //
  // Transport failures (kNetworkError / kUnavailable /
  // kDeadlineExceeded) kill the connection. Reconnecting and re-sending
  // happens automatically — always when the failure struck before
  // anything was sent, but after a send only for idempotent methods —
  // up to options_.max_retries extra attempts with jittered exponential
  // backoff. A load-shed refusal is re-sent after its retry-after hint.
  Result<std::string> Call(Method method, std::string_view args);

  // Encodes `args` by their types, calls `method` and decodes the reply
  // as R; R = void returns just the Status.
  template <typename R, typename... Args>
  auto Invoke(Method method, const Args&... args)
      -> std::conditional_t<std::is_void_v<R>, Status, Result<R>>;

  // One connection generation; replaced wholesale on transport
  // failure.
  struct Conn;

  // The live connection, dialed (through Options::stream_factory, or
  // real TCP) when there is none or the last one broke.
  Result<std::shared_ptr<Conn>> Connection();

  // Registers one call on the connection and sends its request; the
  // returned state's Await() blocks for the reply. `*sent` reports
  // whether bytes may have reached the server (governs idempotent-only
  // resends).
  Result<std::shared_ptr<PendingCall::State>> Start(Method method,
                                                    std::string_view args,
                                                    bool* sent);

  // Marks whether `ctx` has an open transaction (follower routing).
  void SetInTransaction(ham::Context ctx, bool in_txn);

  const std::string host_;
  const uint16_t port_;
  const Options options_;
  TimeSource* time_;  // Options::time_source or the real clock

  std::mutex conn_mu_;  // guards conn_ swaps
  std::shared_ptr<Conn> conn_;
  std::mutex rng_mu_;
  Random rng_;  // backoff jitter; guarded by rng_mu_
  std::atomic<uint64_t> next_id_override_{0};

  // Follower-read routing ---------------------------------------------

  // Resolves the shadow session for a routed read: returns false when
  // there is no follower, no shadow session, an open transaction (its
  // reads must see its own staged writes, which only the primary has),
  // or the follower is outside the staleness bounds.
  bool FollowerReadContext(ham::Context ctx, ham::Context* fctx);
  // Staleness probe with a small TTL cache so routing does not double
  // every read's round trips.
  bool FollowerFresh(const std::string& directory);
  // Applies Options::follower_remap_from/_to to a primary directory.
  std::string FollowerPath(const std::string& directory) const;

  // Runs `fn` against the follower when routing applies and it
  // succeeds; nullopt means "use the primary" (not routed, stale, or
  // the follower failed — which is counted as a fallback).
  template <typename Fn>
  auto TryFollower(ham::Context ctx, Fn&& fn)
      -> std::optional<decltype(fn(*this, ctx))> {
    ham::Context fctx;
    if (!FollowerReadContext(ctx, &fctx)) return std::nullopt;
    auto result = fn(*follower_, fctx);
    if (result.ok()) {
      NEPTUNE_METRIC_COUNT("repl.client.follower_reads", 1);
      return result;
    }
    NEPTUNE_METRIC_COUNT("repl.client.fallback_to_primary", 1);
    return std::nullopt;
  }

  // Follower connection (null unless Options::follower_host is set and
  // the dial succeeded) plus primary-session → shadow-session state.
  std::unique_ptr<RemoteHam> follower_;
  struct FollowerSession {
    uint64_t follower_session = 0;
    std::string directory;
    bool in_txn = false;
  };
  std::mutex fmu_;
  std::unordered_map<uint64_t, FollowerSession> follower_sessions_;
  uint64_t follower_status_us_ = 0;  // last staleness probe (0 = never)
  bool follower_fresh_ = false;
};

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_REMOTE_HAM_H_
