// VersionChain: the storage representation of "a complete version
// history ... at the granularity of writes" (paper §2.2) using
// backward deltas (paper §3).
//
// The chain always holds the *current* contents in full; each older
// version is a delta computed against the version that replaced it, so
// reading version k applies (newest - k) deltas backwards — recent
// versions, the common case, are cheapest. Two modes exist, the two
// the HAM writes:
//
//   kBackwardDelta  the paper's archive nodes ("effective storage of
//                   many versions without copying each individual
//                   item")
//   kCurrentOnly    the paper's *file* nodes: no history kept
//
// The baselines the paper's choice is measured against (every version
// stored whole; SCCS-style forward deltas) live with the benchmarks
// that need them, in bench/baseline_chain.h (B1/B2).
//
// Keyframes. A plain delta chain makes a historical read cost
// O(distance to the stored-whole end). With a keyframe interval K > 0
// the chain additionally stores a full copy of every K-th version, so
// a reconstruction starts from the nearest keyframe and applies at
// most ~K deltas — the RCS layout with SCCS-free random access,
// trading (StoredBytes/K-th) extra storage for a hard latency bound.
// Keyframes are captured at Append time.
//
// Sharing. Every history the chain keeps (version entries, backward
// deltas, keyframes) is a ChunkedLog: full 64-entry chunks are
// immutable and shared by copies, so copying a chain copies its
// current contents and the newest tails, not its history. That is
// what keeps a transaction's copy-on-write of a deep node O(1) in
// depth. Keyframe contents are shared too, so a copied keyframe tail
// holds pointers, not documents.
//
// Reconstructions are additionally memoized in the process-wide
// ReconstructionCache (see recon_cache.h), keyed by the chain's
// process-unique id and the canonical version time.
//
// Timestamps are the per-graph logical HAM Time; Get(0) means the
// current version, Get(t) the version in effect at time t.

#ifndef NEPTUNE_DELTA_VERSION_CHAIN_H_
#define NEPTUNE_DELTA_VERSION_CHAIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/chunked_log.h"
#include "common/result.h"

namespace neptune {
namespace delta {

// The values are the encoded mode byte; 1 and 3 belonged to retired
// ablation modes and no longer decode.
enum class ChainMode : uint8_t {
  kBackwardDelta = 0,
  kCurrentOnly = 2,
};

struct VersionInfo {
  uint64_t time = 0;
  std::string explanation;
};

class VersionChain {
 public:
  explicit VersionChain(ChainMode mode = ChainMode::kBackwardDelta)
      : mode_(mode) {}

  ChainMode mode() const { return mode_; }
  bool empty() const { return versions_.empty(); }
  size_t version_count() const { return versions_.size(); }

  // Keyframe interval: store a full copy of every `k`-th version so a
  // reconstruction applies at most ~k deltas. 0 (the default) disables
  // keyframes. Takes effect for subsequent Appends; existing versions
  // are not re-keyframed.
  void set_keyframe_interval(uint32_t k) { keyframe_interval_ = k; }
  uint32_t keyframe_interval() const { return keyframe_interval_; }
  size_t keyframe_count() const { return keyframes_.size(); }

  // Process-unique identity used as the reconstruction-cache key.
  // Copies share the id (safe: a canonical version time names one
  // immutable contents value); PruneBefore assigns a fresh id.
  uint64_t chain_id() const { return chain_id_; }

  // Records `contents` as the new current version at `time`, which
  // must be strictly greater than the previous version's time.
  Status Append(uint64_t time, std::string_view contents,
                std::string_view explanation);

  // Contents in effect at `time` (0 = current). NotFound if the chain
  // is empty or `time` predates the first version. For kCurrentOnly
  // chains any time returns the current contents (the HAM ignores
  // Time for file nodes).
  Result<std::string> Get(uint64_t time) const;

  // Index of the version in effect at `time` (0 = current). NotFound
  // if `time` predates the first version.
  Result<size_t> VersionIndexAt(uint64_t time) const;

  const std::string& Current() const { return current_; }
  uint64_t CurrentTime() const {
    return versions_.empty() ? 0 : versions_.back().time;
  }

  // Version metadata, oldest first.
  const ChunkedLog<VersionInfo>& versions() const { return versions_; }

  // Bytes held by this chain (current contents + stored deltas +
  // keyframes); the quantity benchmark B1 measures.
  size_t StoredBytes() const;

  // Bytes a copy of this chain duplicates rather than shares: the
  // current contents and the unshared tails of its histories
  // (ham.overlay.copy_bytes). Independent of the version count.
  size_t CopyBytes() const;

  // Reclaims storage: drops every version strictly older than the one
  // in effect at `before`. Reads at or after `before` still work;
  // earlier times become NotFound. No-op for kCurrentOnly chains,
  // before == 0, or when nothing predates `before`. Returns the number
  // of versions dropped. Re-ids the chain, invalidating its
  // reconstruction-cache entries.
  size_t PruneBefore(uint64_t before);

  void EncodeTo(std::string* out) const;
  static Result<VersionChain> DecodeFrom(std::string_view* in);

 private:
  // A stored-whole historical version; `index` is its position in
  // versions_ (kept ascending by index).
  struct Keyframe {
    uint64_t index = 0;
    std::shared_ptr<const std::string> contents;
  };

  static uint64_t NewChainId();

  ChainMode mode_;
  std::string current_;                // the newest version's contents
  ChunkedLog<VersionInfo> versions_;   // oldest -> newest
  // kBackwardDelta: versions_.size() - 1 deltas, backward_[i]
  // reconstructs version i from version i+1. kCurrentOnly: empty.
  ChunkedLog<std::string> backward_;

  uint32_t keyframe_interval_ = 0;
  ChunkedLog<Keyframe> keyframes_;  // ascending by index

  uint64_t chain_id_ = NewChainId();
};

}  // namespace delta
}  // namespace neptune

#endif  // NEPTUNE_DELTA_VERSION_CHAIN_H_
