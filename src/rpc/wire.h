// Wire protocol between Neptune clients and the HAM server.
//
// Neptune's HAM "has a central server which is accessible over a local
// area network ... the user interface process communicates with the
// HAM using a remote procedure call mechanism" (paper §2.2/§4.1). This
// module defines that RPC encoding:
//
//   frame   := fixed32 length | fixed32 masked_crc32c(payload) | payload
//   request := method(u8) | method-specific fields
//   reply   := status_code(u8) | status_message | method-specific fields
//
// A plain request is answered by exactly one reply, in order, per
// connection; the frame extensions below let requests be traced and
// answered out of order. Every method is declared once, with its id
// and name, in the method table (rpc/methods.h); its fields are encoded
// by the typed codecs in rpc/codec.h, which the server and the client
// stub share so the two cannot drift.

#ifndef NEPTUNE_RPC_WIRE_H_
#define NEPTUNE_RPC_WIRE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "rpc/methods.h"

namespace neptune {
namespace rpc {

// Maximum accepted frame payload; guards against garbage lengths.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

// Frame extensions. The method byte's top two bits are flags; every
// method id stays below both (methods.cc checks this at compile time).
//
// A request whose method byte carries kTraceContextFlag is followed by
// a trace context (EncodeTraceContextTo) before the method fields,
// letting the server parent its spans under the client's
// (common/trace.h).
constexpr uint8_t kTraceContextFlag = 0x80;

// A request whose method byte carries kRequestIdFlag is followed by a
// varint request id (after the trace context, when both flags are set)
// and its reply comes back *tagged* — `varint request_id | status |
// fields` instead of `status | fields` — which frees the server to
// complete requests on one connection out of order (pipelining).
//
// Request ids are per-connection, chosen by the client, non-zero, and
// must be unique among the requests currently in flight; they may wrap
// and be reused once the earlier reply has arrived.
constexpr uint8_t kRequestIdFlag = 0x40;

// Encodes/decodes the propagated trace context (common/trace.h):
//   fixed64 trace_id | fixed64 parent_span_id | u8 flags (bit0 sampled)
void EncodeTraceContextTo(const TraceContext& ctx, std::string* out);
bool DecodeTraceContextFrom(std::string_view* in, TraceContext* ctx);

// ------------------------------------------------------------- framing

// Wraps a payload in a length+crc frame.
std::string FramePayload(std::string_view payload);

// Appends a frame carrying `prefix + payload` directly to *out,
// without materializing the concatenated payload. The prefix carries a
// reply's request-id tag; pass "" for untagged frames.
void AppendFrame(std::string_view prefix, std::string_view payload,
                 std::string* out);

// Incremental frame splitter for a byte stream.
class FrameDecoder {
 public:
  // Tightens the limits below the process-wide kMaxFrameBytes ceiling.
  // `max_frame_bytes` bounds a single payload; `max_buffered_bytes`
  // bounds the bytes the decoder will hold while waiting for a frame to
  // complete, so a peer drip-feeding an enormous frame cannot pin
  // memory. Values of 0 keep the previous limit.
  void set_limits(uint32_t max_frame_bytes, size_t max_buffered_bytes);

  // Feeds received bytes; complete payloads are appended to `out`.
  // A length prefix beyond the frame limit fails with kInvalidArgument
  // *before* the claimed bytes are buffered (a hostile 4GB prefix never
  // allocates 4GB); a bad CRC fails with kCorruption.
  Status Feed(std::string_view bytes, std::vector<std::string>* out);

 private:
  uint32_t max_frame_bytes_ = kMaxFrameBytes;
  size_t max_buffered_bytes_ = 8 + static_cast<size_t>(kMaxFrameBytes);
  std::string buffer_;
};

// ---------------------------------------------------------- status

void EncodeStatusTo(const Status& status, std::string* out);
// Decodes a reply's status header into *status; false on malformed
// input.
bool DecodeStatusFrom(std::string_view* in, Status* status);

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_WIRE_H_
