#include "storage/wal.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace neptune {

namespace {
constexpr size_t kHeaderSize = 8;  // crc(4) + length(4)
}  // namespace

Status LogWriter::AddRecord(std::string_view payload, bool sync) {
  char header[kHeaderSize];
  EncodeFixed32(header, crc32c::Mask(crc32c::Value(payload)));
  EncodeFixed32(header + 4, static_cast<uint32_t>(payload.size()));
  // One Append call per frame keeps the window for interleaved torn
  // writes as small as the OS allows; correctness never depends on it
  // because the reader validates the CRC.
  std::string frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.append(header, kHeaderSize);
  frame.append(payload);
  NEPTUNE_RETURN_IF_ERROR(file_->Append(frame));
  NEPTUNE_METRIC_COUNT("storage.wal.appends", 1);
  NEPTUNE_METRIC_COUNT("storage.wal.bytes", frame.size());
  if (sync) {
    NEPTUNE_TRACE_SPAN(span, "storage.wal.fsync", "storage.wal.fsync");
    return file_->Sync();
  }
  return Status::OK();
}

Status LogWriter::AddRawFrames(std::string_view frames, bool sync) {
  NEPTUNE_RETURN_IF_ERROR(file_->Append(frames));
  NEPTUNE_METRIC_COUNT("storage.wal.appends", 1);
  NEPTUNE_METRIC_COUNT("storage.wal.bytes", frames.size());
  if (sync) {
    NEPTUNE_TRACE_SPAN(span, "storage.wal.fsync", "storage.wal.fsync");
    return file_->Sync();
  }
  return Status::OK();
}

Result<LogReadResult> ReadLog(std::string_view data) {
  LogReadResult out;
  uint64_t offset = 0;
  while (data.size() - offset >= kHeaderSize) {
    const char* p = data.data() + offset;
    const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(p));
    const uint32_t length = DecodeFixed32(p + 4);
    if (data.size() - offset - kHeaderSize < length) {
      // Short payload: torn tail.
      out.truncated_tail = true;
      break;
    }
    std::string_view payload = data.substr(offset + kHeaderSize, length);
    if (crc32c::Value(payload) != expected_crc) {
      // A bad CRC on the final frame is an ordinary torn tail; anywhere
      // earlier the log body itself is damaged. Either way the valid
      // prefix is what recovery gets — availability over completeness —
      // and the caller decides how loudly to report it.
      out.truncated_tail = true;
      out.mid_log_corruption = offset + kHeaderSize + length < data.size();
      break;
    }
    out.records.emplace_back(payload);
    offset += kHeaderSize + length;
  }
  if (offset < data.size() && !out.truncated_tail) {
    // Fewer than kHeaderSize trailing bytes: torn header.
    out.truncated_tail = true;
  }
  out.valid_bytes = offset;
  out.dropped_bytes = data.size() - offset;
  return out;
}

}  // namespace neptune
