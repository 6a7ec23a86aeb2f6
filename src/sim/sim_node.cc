#include "sim/sim_node.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace neptune {
namespace sim {

SimNode::SimNode(SimClock* clock, SimNetwork* net, Env* base_env,
                 Options options)
    : clock_(clock), net_(net), options_(std::move(options)) {
  env_ = std::make_unique<FaultInjectionEnv>(base_env, options_.seed);
  StartEngine(options_.follower);
}

SimNode::~SimNode() {
  // Sessions die with the harness; no orderly drain (the clock may
  // already be torn down by the time nodes are destroyed).
}

void SimNode::StartEngine(bool as_follower) {
  ham::HamOptions ham_options;
  ham_options.follower_mode = as_follower;
  ham_options.txn_lease_ms = options_.txn_lease_ms;
  ham_options.checkpoint_wal_bytes = options_.checkpoint_wal_bytes;
  ham_options.repl_keep_wal_generations = options_.repl_keep_wal_generations;
  ham_options.machine = "";  // accept any machine name
  // Determinism: virtual clock everywhere, watchdog driven by sim
  // ticks, project ids from the node's seed.
  ham_options.time_source = clock_;
  ham_options.manual_lease_sweep = true;
  ham_options.project_id_seed = options_.seed * 2654435761ull + 1;
  ham_ = std::make_unique<ham::Ham>(env_.get(), ham_options);
  dispatcher_ = std::make_unique<rpc::RequestDispatcher>(ham_.get());
  up_ = true;
  net_->Listen(options_.name, this);
  ScheduleLeaseSweep();
}

void SimNode::ScheduleLeaseSweep() {
  if (options_.txn_lease_ms == 0 || sweep_scheduled_) return;
  sweep_scheduled_ = true;
  const uint64_t period_us =
      std::max<uint64_t>(options_.txn_lease_ms / 4, 5) * 1000;
  // One self-rescheduling chain per node, alive across crashes (it
  // just no-ops while the node is down).
  struct Chain {
    SimNode* node;
    uint64_t period_us;
    void operator()() const {
      if (node->up_ && node->ham_ != nullptr) node->ham_->SweepLeasesNow();
      node->clock_->Schedule(period_us, "lease_sweep." + node->options_.name,
                             *this);
    }
  };
  clock_->Schedule(period_us, "lease_sweep." + options_.name,
                   Chain{this, period_us});
}

void SimNode::Crash() {
  if (!up_) return;
  clock_->Note("node crash " + options_.name);
  up_ = false;
  // Power first: everything not fsynced is gone, and the engine's
  // destructor cannot sneak any last writes onto disk.
  env_->PowerCutNow();
  dispatcher_.reset();
  ham_.reset();
  conns_.clear();
  inflight_ = 0;
  net_->CrashHost(options_.name);
}

void SimNode::Restart(bool as_follower) {
  if (up_) return;
  clock_->Note("node restart " + options_.name +
               (as_follower ? " role=follower" : " role=primary"));
  env_->Restart();
  StartEngine(as_follower);
}

void SimNode::OnConnect(uint64_t conn_id) { conns_[conn_id]; }

void SimNode::OnFrame(uint64_t conn_id, std::string payload) {
  if (!up_) return;
  rpc::RequestEnvelope envelope;
  std::string error_reply;
  if (!rpc::ParseRequestEnvelope(std::move(payload), &envelope,
                                 &error_reply)) {
    net_->SendToClient(conn_id, std::move(error_reply));
    return;
  }
  const std::string label =
      "svc." + options_.name + "." + rpc::MethodName(envelope.method());
  ++inflight_;
  // The request occupies the server for service_time_us of virtual
  // time; the reply is computed (and admission judged) at completion,
  // with every request admitted in the window still counted — that is
  // what lets the retry-storm scenario actually shed.
  clock_->Schedule(
      options_.service_time_us, label,
      [this, conn_id, envelope = std::move(envelope)] {
        const int inflight = inflight_;
        --inflight_;
        if (!up_) return;
        auto conn = conns_.find(conn_id);
        if (conn == conns_.end()) return;  // client vanished meanwhile
        bool shed = false;
        net_->SendToClient(
            conn_id, dispatcher_->Respond(envelope, inflight,
                                          options_.admission,
                                          options_.retry_after_ms,
                                          &conn->second.sessions, &shed));
      });
}

void SimNode::OnDisconnect(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::vector<uint64_t> sessions = it->second.sessions.Drain();
  conns_.erase(it);
  if (!up_ || ham_ == nullptr) return;
  // Same contract as the real server: a dead connection closes its
  // sessions, which aborts any open transaction.
  for (uint64_t session : sessions) {
    ham_->CloseGraph(ham::Context{session});
  }
}

}  // namespace sim
}  // namespace neptune
