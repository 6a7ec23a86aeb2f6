// The transport-independent half of the Neptune server: decoding a
// request payload, executing it against a HamInterface, and encoding
// the reply — plus the admission-control policy and the per-connection
// session bookkeeping. rpc::Server layers its epoll IO plane and
// worker pool on top of this; the simulation harness (src/sim) drives
// the exact same dispatch logic over an in-memory transport, so wire
// semantics exercised under simulation are the production semantics.

#ifndef NEPTUNE_RPC_DISPATCH_H_
#define NEPTUNE_RPC_DISPATCH_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.h"
#include "ham/ham_interface.h"
#include "rpc/methods.h"
#include "rpc/wire.h"

namespace neptune {
namespace rpc {

// The sessions a connection has opened, shared by the worker threads
// that may be executing its requests concurrently.
class SessionSet {
 public:
  void Insert(uint64_t session);
  void Erase(uint64_t session);
  // Empties the set, returning what it held (disconnect cleanup).
  std::vector<uint64_t> Drain();

 private:
  std::mutex mu_;
  std::set<uint64_t> sessions_;
};

// A request payload with its frame extensions (trace context, request
// id) stripped; `payload[offset..]` is the plain encoding starting at
// the method byte.
struct RequestEnvelope {
  std::string payload;
  size_t offset = 0;
  bool tagged = false;
  uint64_t request_id = 0;
  TraceContext remote_ctx;  // zeroed when the request came plain

  std::string_view request() const {
    return std::string_view(payload).substr(offset);
  }
  Method method() const {
    return request().empty()
               ? Method{0}
               : static_cast<Method>(static_cast<uint8_t>(request().front()));
  }
};

// Parses the optional kTraceContextFlag / kRequestIdFlag extensions in
// front of `payload` and rewrites the plain method byte in place (the
// extension bytes before it are dead, so no copy — just an offset).
// Returns false on a malformed extension, with *error_reply set to the
// encoded reply to send back.
bool ParseRequestEnvelope(std::string payload, RequestEnvelope* out,
                          std::string* error_reply);

// Admission-control thresholds (see Server::Options for semantics).
struct AdmissionOptions {
  int max_inflight_requests = 256;
  int shed_inflight_requests = 192;
};

// True means "refuse this method right now": above the soft mark only
// idempotent methods are refused; above the hard cap everything except
// the always-admitted classes (rpc/methods.h) is.
bool ShouldShed(Method method, int inflight, const AdmissionOptions& options);

// The reply sent for a shed request: kUnavailable plus a varint
// retry-after-ms hint that RemoteHam honors.
std::string ShedReply(int inflight, uint32_t retry_after_ms);

// An encoded Corruption("malformed request: ...") reply.
std::string BadRequestReply(std::string_view what);

// An encoded Status-only reply.
std::string StatusReply(const Status& status);

// Decodes one request payload, runs it against the HAM through the
// method table (rpc/methods.h), and returns the encoded reply. Sessions
// opened/closed by the request are tracked in `sessions` so a
// disconnect can clean them up.
class RequestDispatcher {
 public:
  explicit RequestDispatcher(ham::HamInterface* ham) : ham_(ham) {}

  std::string Handle(std::string_view request, SessionSet* sessions);

  // The reply to one parsed request as it goes on the wire: ShedReply
  // when admission at `load` refuses it (*shed set, `server.shed`
  // counted), else Handle's; a tagged request's id goes in front so
  // the client can match replies that arrive out of order.
  std::string Respond(const RequestEnvelope& envelope, int load,
                      const AdmissionOptions& admission,
                      uint32_t retry_after_ms, SessionSet* sessions,
                      bool* shed);

 private:
  ham::HamInterface* ham_;
};

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_DISPATCH_H_
