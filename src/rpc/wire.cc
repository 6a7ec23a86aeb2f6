#include "rpc/wire.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"

namespace neptune {
namespace rpc {

// ------------------------------------------------- trace-context codec

void EncodeTraceContextTo(const TraceContext& ctx, std::string* out) {
  PutFixed64(out, ctx.trace_id);
  PutFixed64(out, ctx.parent_span_id);
  out->push_back(ctx.sampled ? '\x01' : '\x00');
}

bool DecodeTraceContextFrom(std::string_view* in, TraceContext* ctx) {
  if (!GetFixed64(in, &ctx->trace_id) ||
      !GetFixed64(in, &ctx->parent_span_id) || in->empty()) {
    return false;
  }
  ctx->sampled = ((*in)[0] & 1) != 0;
  in->remove_prefix(1);
  return true;
}

// ------------------------------------------------------------- framing

std::string FramePayload(std::string_view payload) {
  std::string out;
  out.reserve(8 + payload.size());
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, crc32c::Mask(crc32c::Value(payload)));
  out.append(payload);
  return out;
}

void AppendFrame(std::string_view prefix, std::string_view payload,
                 std::string* out) {
  out->reserve(out->size() + 8 + prefix.size() + payload.size());
  PutFixed32(out, static_cast<uint32_t>(prefix.size() + payload.size()));
  PutFixed32(out,
             crc32c::Mask(crc32c::Extend(crc32c::Value(prefix), payload)));
  out->append(prefix);
  out->append(payload);
}

void FrameDecoder::set_limits(uint32_t max_frame_bytes,
                              size_t max_buffered_bytes) {
  if (max_frame_bytes > 0) {
    max_frame_bytes_ = std::min(max_frame_bytes, kMaxFrameBytes);
  }
  if (max_buffered_bytes > 0) {
    // Never below one max-sized frame plus its header, or legal frames
    // could no longer complete.
    max_buffered_bytes_ =
        std::max(max_buffered_bytes, 8 + static_cast<size_t>(max_frame_bytes_));
  }
}

Status FrameDecoder::Feed(std::string_view bytes,
                          std::vector<std::string>* out) {
  // Checking the length prefix before buffering the body is what keeps
  // memory use proportional to bytes actually received, not to what a
  // hostile prefix claims.
  if (buffer_.size() + bytes.size() > max_buffered_bytes_) {
    return Status::InvalidArgument(
        "peer exceeded per-connection buffer limit of " +
        std::to_string(max_buffered_bytes_) + " bytes");
  }
  buffer_.append(bytes);
  while (buffer_.size() >= 8) {
    std::string_view view = buffer_;
    uint32_t length = 0;
    uint32_t masked_crc = 0;
    GetFixed32(&view, &length);
    GetFixed32(&view, &masked_crc);
    if (length > max_frame_bytes_) {
      return Status::InvalidArgument(
          "frame length " + std::to_string(length) + " exceeds limit of " +
          std::to_string(max_frame_bytes_) + " bytes");
    }
    if (view.size() < length) break;  // incomplete frame, wait for more
    std::string_view payload = view.substr(0, length);
    if (crc32c::Value(payload) != crc32c::Unmask(masked_crc)) {
      return Status::Corruption("frame checksum mismatch");
    }
    out->emplace_back(payload);
    buffer_.erase(0, 8 + length);
  }
  return Status::OK();
}

// --------------------------------------------------------------- status

void EncodeStatusTo(const Status& status, std::string* out) {
  out->push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(out, status.message());
}

bool DecodeStatusFrom(std::string_view* in, Status* status) {
  if (in->empty()) return false;
  const uint8_t code = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  std::string_view message;
  if (!GetLengthPrefixed(in, &message)) return false;
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) return false;
  *status = Status::FromCode(static_cast<StatusCode>(code), message);
  return true;
}

}  // namespace rpc
}  // namespace neptune
