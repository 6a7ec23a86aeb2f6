// The method table: every wire method declared once. A row gives the
// method's id, its wire name, its class (which decides retries and
// admission) and the handler that serves it. Most handlers are
// Serve<&HamInterface::Member>, which decodes the arguments by the
// member's parameter types (rpc/codec.h), calls it and encodes its
// Result; the rest are written by hand in methods.cc.
//
// Adding a method that maps onto one HamInterface member takes one id
// below, one row in methods.cc and one RemoteHam::Invoke line.

#ifndef NEPTUNE_RPC_METHODS_H_
#define NEPTUNE_RPC_METHODS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace neptune {
namespace ham {
class HamInterface;
}  // namespace ham

namespace rpc {

class SessionSet;

enum class Method : uint8_t {
  kCreateGraph = 1,
  kDestroyGraph = 2,
  kOpenGraph = 3,
  kCloseGraph = 4,
  kBeginTransaction = 5,
  kCommitTransaction = 6,
  kAbortTransaction = 7,
  kAddNode = 8,
  kDeleteNode = 9,
  kAddLink = 10,
  kCopyLink = 11,
  kDeleteLink = 12,
  kLinearizeGraph = 13,
  kGetGraphQuery = 14,
  kOpenNode = 15,
  kModifyNode = 16,
  kGetNodeTimeStamp = 17,
  kChangeNodeProtection = 18,
  kGetNodeVersions = 19,
  kGetNodeDifferences = 20,
  kGetToNode = 21,
  kGetFromNode = 22,
  kGetAttributes = 23,
  kGetAttributeValues = 24,
  kGetAttributeIndex = 25,
  kSetNodeAttributeValue = 26,
  kDeleteNodeAttribute = 27,
  kGetNodeAttributeValue = 28,
  kGetNodeAttributes = 29,
  kSetLinkAttributeValue = 30,
  kDeleteLinkAttribute = 31,
  kGetLinkAttributeValue = 32,
  kGetLinkAttributes = 33,
  kSetGraphDemonValue = 34,
  kGetGraphDemons = 35,
  kSetNodeDemon = 36,
  kGetNodeDemons = 37,
  kCreateContext = 38,
  kOpenContext = 39,
  kMergeContext = 40,
  kListContexts = 41,
  kCheckpoint = 42,
  kGetStats = 43,
  kContextThread = 44,
  kPing = 45,
  kGetServerStatistics = 46,
  kGetRecentTraces = 47,
  kGetSlowOps = 48,
  // Batch operations: several logical HAM calls answered in one round
  // trip. Each carries per-item status in the reply, so one bad item
  // does not fail its siblings.
  kOpenNodes = 49,
  kGetAttributeValuesBatch = 50,
  kLinearizeAndFetch = 51,
  // getGraphQuery with plan reporting (`neptune_ctl query --explain`).
  kGetGraphQueryExplained = 52,
  // WAL-shipping replication (followers pull; see ham/types.h).
  kReplFetch = 53,
  kReplStatus = 54,
  kReplListGraphs = 55,
  kReplPromote = 56,
  // Windowed statistics (obs/window.h): `varint window_seconds` in,
  // `status | varint elapsed_us | MetricsSnapshot delta` out.
  kGetServerStatisticsDelta = 57,
};

enum class MethodClass : uint8_t {
  // Idempotent: safe to re-send after a transport failure; shed first
  // under load. Includes replFetch, whose long poll waits for commits.
  kRead,
  // May have committed when its reply was lost, so never re-sent after
  // it left; may wait for the graph's writer slot; shed only above the
  // hard cap.
  kMutation,
  // A mutation that shrinks the server's obligations (commit, abort,
  // close): always admitted.
  kRelease,
  // Idempotent and always admitted: what an operator needs to look at
  // an overloaded server (ping, statistics, traces).
  kDiagnostic,
};

// Decodes a request's arguments, runs it and returns the encoded reply;
// nullopt when the arguments are malformed. `sessions` tracks the
// sessions the connection opens and closes.
using MethodHandler = std::optional<std::string> (*)(ham::HamInterface* ham,
                                                     std::string_view args,
                                                     SessionSet* sessions);

struct MethodInfo {
  Method method;
  const char* name;  // stable lower-camel-case wire name, e.g. "openNode"
  MethodClass cls;
  MethodHandler serve;  // null only for bytes that are no method
};

// The row for a method byte; bytes that are no method get a row named
// "unknown", classed as a mutation, with no handler.
const MethodInfo& Describe(Method method);

inline const char* MethodName(Method method) { return Describe(method).name; }

// True for methods a client may safely re-send after a transport
// failure without knowing whether the lost request was executed.
bool IsIdempotent(Method method);

// True for methods load shedding never refuses.
bool IsAlwaysAdmitted(Method method);

// `make(name)` for every method byte, built once and indexed by the
// byte, so a per-request path never takes a registry lock.
template <typename T, typename Make>
const std::array<T, 256>* PerMethod(Make make) {
  auto* table = new std::array<T, 256>();
  for (int i = 0; i < 256; ++i) {
    (*table)[i] = make(std::string(MethodName(static_cast<Method>(i))));
  }
  return table;
}

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_METHODS_H_
