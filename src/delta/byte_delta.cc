#include "delta/byte_delta.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/coding.h"

namespace neptune {
namespace delta {

namespace {

constexpr size_t kBlockSize = 16;
constexpr uint8_t kOpAdd = 0x00;
constexpr uint8_t kOpCopy = 0x01;
// Cap on candidate offsets kept per block hash; bounds worst-case
// encode time on highly repetitive inputs.
constexpr size_t kMaxChainLength = 8;

uint64_t HashBlock(const char* p) {
  // FNV-1a over kBlockSize bytes.
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < kBlockSize; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void EmitAdd(std::string* out, std::string_view literal) {
  if (literal.empty()) return;
  out->push_back(static_cast<char>(kOpAdd));
  PutLengthPrefixed(out, literal);
}

void EmitCopy(std::string* out, uint64_t offset, uint64_t length) {
  out->push_back(static_cast<char>(kOpCopy));
  PutVarint64(out, offset);
  PutVarint64(out, length);
}

}  // namespace

std::string EncodeDelta(std::string_view base, std::string_view target) {
  std::string out;
  PutVarint64(&out, target.size());
  if (target.empty()) return out;
  if (base.size() < kBlockSize) {
    EmitAdd(&out, target);
    return out;
  }

  // Index base blocks at kBlockSize stride.
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  index.reserve(base.size() / kBlockSize * 2);
  for (size_t off = 0; off + kBlockSize <= base.size(); off += kBlockSize) {
    auto& chain = index[HashBlock(base.data() + off)];
    if (chain.size() < kMaxChainLength) {
      chain.push_back(static_cast<uint32_t>(off));
    }
  }

  size_t lit_start = 0;  // Start of the pending literal run in target.
  size_t i = 0;
  while (i + kBlockSize <= target.size()) {
    auto it = index.find(HashBlock(target.data() + i));
    size_t best_len = 0;
    size_t best_off = 0;
    if (it != index.end()) {
      for (uint32_t cand : it->second) {
        // Verify and extend the match forward.
        size_t len = 0;
        const size_t max_len =
            std::min(base.size() - cand, target.size() - i);
        while (len < max_len && base[cand + len] == target[i + len]) ++len;
        if (len >= kBlockSize && len > best_len) {
          best_len = len;
          best_off = cand;
        }
      }
    }
    if (best_len >= kBlockSize) {
      // Extend backward into the pending literal.
      size_t back = 0;
      while (best_off > back && i > lit_start + back &&
             base[best_off - back - 1] == target[i - back - 1]) {
        ++back;
      }
      EmitAdd(&out, target.substr(lit_start, i - back - lit_start));
      EmitCopy(&out, best_off - back, best_len + back);
      i += best_len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  EmitAdd(&out, target.substr(lit_start));
  return out;
}

Result<std::string> ApplyDelta(std::string_view base,
                               std::string_view script) {
  uint64_t target_len = 0;
  if (!GetVarint64(&script, &target_len)) {
    return Status::Corruption("delta: missing target length");
  }
  std::string out;
  // A corrupt length must not turn into a huge allocation: a well-
  // formed script rarely produces more than base plus its literals.
  out.reserve(std::min<uint64_t>(target_len, base.size() + script.size()));
  while (!script.empty()) {
    const uint8_t op = static_cast<uint8_t>(script.front());
    script.remove_prefix(1);
    if (op == kOpAdd) {
      std::string_view literal;
      if (!GetLengthPrefixed(&script, &literal)) {
        return Status::Corruption("delta: truncated ADD");
      }
      if (literal.size() > target_len - out.size()) {
        return Status::Corruption("delta: ADD past target length");
      }
      out.append(literal);
    } else if (op == kOpCopy) {
      uint64_t offset = 0;
      uint64_t length = 0;
      if (!GetVarint64(&script, &offset) || !GetVarint64(&script, &length)) {
        return Status::Corruption("delta: truncated COPY");
      }
      if (offset > base.size() || length > base.size() - offset) {
        return Status::Corruption("delta: COPY out of base bounds");
      }
      if (length > target_len - out.size()) {
        return Status::Corruption("delta: COPY past target length");
      }
      out.append(base.substr(offset, length));
    } else {
      return Status::Corruption("delta: unknown opcode");
    }
  }
  if (out.size() != target_len) {
    return Status::Corruption("delta: reconstructed length mismatch");
  }
  return out;
}

}  // namespace delta
}  // namespace neptune
