#include "delta/version_chain.h"

#include <algorithm>
#include <atomic>

#include "common/coding.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "delta/byte_delta.h"
#include "delta/recon_cache.h"

namespace neptune {
namespace delta {

namespace {

// New-format chains set this bit on the mode byte; legacy blobs
// (mode byte without it) decode unchanged. Counts read from a blob
// reserve nothing (the logs grow a chunk at a time), so a corrupt
// count fails as truncation instead of as a huge allocation.
constexpr uint8_t kKeyframeFlag = 0x80;

}  // namespace

uint64_t VersionChain::NewChainId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Status VersionChain::Append(uint64_t time, std::string_view contents,
                            std::string_view explanation) {
  if (time == 0) {
    return Status::InvalidArgument("version time 0 is reserved for 'current'");
  }
  if (!versions_.empty() && time <= versions_.back().time) {
    return Status::InvalidArgument("version times must strictly increase");
  }
  if (mode_ == ChainMode::kCurrentOnly) {
    // A file node: replace, keep only the latest version record.
    versions_.clear();
    versions_.push_back(VersionInfo{time, std::string(explanation)});
    current_.assign(contents);
    return Status::OK();
  }
  if (!versions_.empty()) {
    backward_.push_back(EncodeDelta(/*base=*/contents, /*target=*/current_));
    // Measures the paper's storage claim: what a full copy of the
    // displaced version would have cost vs. the delta we kept.
    NEPTUNE_METRIC_COUNT("delta.bytes.raw", current_.size());
    NEPTUNE_METRIC_COUNT("delta.bytes.stored", backward_.back().size());
    // Keyframe the displaced version (we hold it whole right now).
    const size_t displaced = versions_.size() - 1;
    if (keyframe_interval_ > 0 && displaced % keyframe_interval_ == 0) {
      keyframes_.push_back(
          Keyframe{displaced, std::make_shared<const std::string>(current_)});
    }
  }
  versions_.push_back(VersionInfo{time, std::string(explanation)});
  current_.assign(contents);
  return Status::OK();
}

Result<size_t> VersionChain::VersionIndexAt(uint64_t time) const {
  if (versions_.empty()) return Status::NotFound("no versions");
  if (time == 0) return versions_.size() - 1;
  // Latest version whose time <= `time`.
  auto it = std::upper_bound(
      versions_.begin(), versions_.end(), time,
      [](uint64_t t, const VersionInfo& v) { return t < v.time; });
  if (it == versions_.begin()) {
    return Status::NotFound("no version at or before time " +
                            std::to_string(time));
  }
  return static_cast<size_t>(std::distance(versions_.begin(), it)) - 1;
}

Result<std::string> VersionChain::Get(uint64_t time) const {
  if (versions_.empty()) return Status::NotFound("no versions");
  if (mode_ == ChainMode::kCurrentOnly) return current_;
  NEPTUNE_ASSIGN_OR_RETURN(size_t index, VersionIndexAt(time));
  if (index == versions_.size() - 1) return current_;
  const uint64_t canonical = versions_[index].time;
  NEPTUNE_TRACE_SPAN(span, "delta.reconstruct");
  std::string cached;
  if (ReconstructionCache::Instance().Lookup(chain_id_, canonical, &cached)) {
    if (span.active()) span.Annotate("cache=hit");
    return cached;
  }
  // Walk backward deltas down to `index` from the nearest keyframe at
  // or above it (or the current version).
  size_t start = versions_.size() - 1;
  const std::string* base = &current_;
  auto kf = std::lower_bound(
      keyframes_.begin(), keyframes_.end(), index,
      [](const Keyframe& k, size_t i) { return k.index < i; });
  if (kf != keyframes_.end() && static_cast<size_t>(kf->index) < start) {
    start = static_cast<size_t>(kf->index);
    base = kf->contents.get();
  }
  NEPTUNE_METRIC_COUNT("delta.chain.reconstructions", 1);
  NEPTUNE_METRIC_COUNT("delta.chain.deltas_applied", start - index);
  if (span.active()) {
    span.Annotate("cache=miss deltas=" + std::to_string(start - index));
  }
  std::string contents = *base;
  for (size_t i = start; i-- > index;) {
    NEPTUNE_ASSIGN_OR_RETURN(contents, ApplyDelta(contents, backward_[i]));
  }
  ReconstructionCache::Instance().Insert(chain_id_, canonical, contents);
  return contents;
}

size_t VersionChain::PruneBefore(uint64_t before) {
  if (mode_ == ChainMode::kCurrentOnly || before == 0 || versions_.empty()) {
    return 0;
  }
  Result<size_t> index = VersionIndexAt(before);
  if (!index.ok() || *index == 0) return 0;
  const size_t drop = *index;
  versions_.DropFront(drop);
  backward_.DropFront(drop);
  // Keyframes below the horizon go; survivors shift with the indices.
  ChunkedLog<Keyframe> kept;
  for (const Keyframe& k : keyframes_) {
    if (k.index >= drop) kept.push_back(Keyframe{k.index - drop, k.contents});
  }
  keyframes_ = std::move(kept);
  // Re-id so stale reconstruction-cache entries can never be served
  // (they were keyed under the old id) and age out of the LRU.
  chain_id_ = NewChainId();
  return drop;
}

size_t VersionChain::StoredBytes() const {
  size_t total = current_.size();
  for (const auto& d : backward_) total += d.size();
  for (const auto& k : keyframes_) total += k.contents->size();
  return total;
}

size_t VersionChain::CopyBytes() const {
  return current_.size() +
         versions_.TailBytes([](const VersionInfo& v) {
           return sizeof(VersionInfo) + v.explanation.size();
         }) +
         backward_.TailBytes([](const std::string& d) {
           return sizeof(std::string) + d.size();
         }) +
         keyframes_.TailBytes([](const Keyframe&) { return sizeof(Keyframe); });
}

void VersionChain::EncodeTo(std::string* out) const {
  // Chains that never saw a keyframe encode byte-identically to the
  // legacy format, so pre-keyframe readers of such snapshots and all
  // existing codec tests are unaffected.
  const bool keyframed = keyframe_interval_ > 0 || !keyframes_.empty();
  out->push_back(static_cast<char>(static_cast<uint8_t>(mode_) |
                                   (keyframed ? kKeyframeFlag : 0)));
  if (keyframed) {
    PutVarint32(out, keyframe_interval_);
    PutVarint64(out, keyframes_.size());
    for (const Keyframe& k : keyframes_) {
      PutVarint64(out, k.index);
      PutLengthPrefixed(out, *k.contents);
    }
  }
  PutLengthPrefixed(out, current_);
  PutVarint64(out, versions_.size());
  for (const auto& v : versions_) {
    PutVarint64(out, v.time);
    PutLengthPrefixed(out, v.explanation);
  }
  PutVarint64(out, backward_.size());
  for (const auto& d : backward_) {
    PutLengthPrefixed(out, d);
  }
}

Result<VersionChain> VersionChain::DecodeFrom(std::string_view* in) {
  if (in->empty()) return Status::Corruption("version chain: empty input");
  const uint8_t first = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  const bool keyframed = (first & kKeyframeFlag) != 0;
  const uint8_t mode_byte = first & ~kKeyframeFlag;
  if (mode_byte != static_cast<uint8_t>(ChainMode::kBackwardDelta) &&
      mode_byte != static_cast<uint8_t>(ChainMode::kCurrentOnly)) {
    return Status::Corruption("version chain: bad mode");
  }
  VersionChain chain(static_cast<ChainMode>(mode_byte));
  if (keyframed) {
    uint64_t nk = 0;
    if (!GetVarint32(in, &chain.keyframe_interval_) || !GetVarint64(in, &nk)) {
      return Status::Corruption("version chain: truncated keyframe header");
    }
    uint64_t prev_index = 0;
    for (uint64_t i = 0; i < nk; ++i) {
      Keyframe k;
      std::string_view contents;
      if (!GetVarint64(in, &k.index) || !GetLengthPrefixed(in, &contents)) {
        return Status::Corruption("version chain: truncated keyframe");
      }
      if (i > 0 && k.index <= prev_index) {
        return Status::Corruption("version chain: keyframes out of order");
      }
      prev_index = k.index;
      k.contents = std::make_shared<const std::string>(contents);
      chain.keyframes_.push_back(std::move(k));
    }
  }
  std::string_view current;
  if (!GetLengthPrefixed(in, &current)) {
    return Status::Corruption("version chain: truncated contents");
  }
  chain.current_.assign(current);
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) {
    return Status::Corruption("version chain: truncated version count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    VersionInfo v;
    std::string_view expl;
    if (!GetVarint64(in, &v.time) || !GetLengthPrefixed(in, &expl)) {
      return Status::Corruption("version chain: truncated version info");
    }
    // Append's invariant: nonzero, strictly increasing times.
    if (v.time == 0 || (i > 0 && v.time <= chain.versions_.back().time)) {
      return Status::Corruption("version chain: version times out of order");
    }
    v.explanation.assign(expl);
    chain.versions_.push_back(std::move(v));
  }
  uint64_t nd = 0;
  if (!GetVarint64(in, &nd)) {
    return Status::Corruption("version chain: truncated delta count");
  }
  // One delta per displaced version; current-only chains keep none.
  const uint64_t want_deltas =
      chain.mode_ == ChainMode::kCurrentOnly || n == 0 ? 0 : n - 1;
  if (nd != want_deltas) {
    return Status::Corruption("version chain: delta/version count mismatch");
  }
  if (!chain.keyframes_.empty() && chain.keyframes_.back().index >= n) {
    return Status::Corruption("version chain: keyframe index out of range");
  }
  for (uint64_t i = 0; i < nd; ++i) {
    std::string_view d;
    if (!GetLengthPrefixed(in, &d)) {
      return Status::Corruption("version chain: truncated delta");
    }
    chain.backward_.push_back(std::string(d));
  }
  return chain;
}

}  // namespace delta
}  // namespace neptune
