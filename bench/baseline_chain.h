// The archive layouts that the paper's backward deltas are measured
// against in B1 (storage) and B2 (access by depth). The HAM never
// writes them, so they live here, beside the benchmarks:
//
//   kFullCopy      every version stored whole: what "effective storage
//                  of many versions without copying each individual
//                  item" (paper §3) avoids
//   kForwardDelta  SCCS-style: the oldest version whole plus one
//                  forward delta per later version. As compact as
//                  backward deltas, but a read walks forward from the
//                  oldest version, so cost grows with distance from the
//                  *start* of history instead of from the current
//                  version. The newest contents are cached in memory
//                  (not counted as stored) so appends need no replay.
//
// StoredBytes counts what delta::VersionChain::StoredBytes counts for
// its own layout: contents held whole plus delta scripts. There is no
// keyframing, pruning, encoding or reconstruction cache: B1 and B2
// measure the layouts, not those.

#ifndef NEPTUNE_BENCH_BASELINE_CHAIN_H_
#define NEPTUNE_BENCH_BASELINE_CHAIN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "delta/byte_delta.h"

namespace neptune {
namespace bench {

class BaselineChain {
 public:
  enum class Layout { kFullCopy, kForwardDelta };

  explicit BaselineChain(Layout layout) : layout_(layout) {}

  // VersionChain::Append's signature, so a benchmark can take either
  // chain; `time` must exceed the previous one, and the explanation is
  // not kept.
  Status Append(uint64_t time, std::string_view contents,
                std::string_view /*explanation*/) {
    if (layout_ == Layout::kFullCopy || times_.empty()) {
      stored_.emplace_back(contents);
    } else {
      stored_.push_back(delta::EncodeDelta(/*base=*/tip_, /*target=*/contents));
    }
    if (layout_ == Layout::kForwardDelta) tip_.assign(contents);
    times_.push_back(time);
    return Status::OK();
  }

  // Contents in effect at `time` (0 = current).
  Result<std::string> Get(uint64_t time) const {
    if (times_.empty()) return Status::NotFound("no versions");
    size_t index = times_.size() - 1;
    if (time != 0) {
      auto it = std::upper_bound(times_.begin(), times_.end(), time);
      if (it == times_.begin()) return Status::NotFound("predates history");
      index = static_cast<size_t>(it - times_.begin()) - 1;
    }
    if (layout_ == Layout::kFullCopy) return stored_[index];
    if (index == times_.size() - 1) return tip_;
    std::string contents = stored_[0];
    for (size_t i = 1; i <= index; ++i) {
      NEPTUNE_ASSIGN_OR_RETURN(contents,
                               delta::ApplyDelta(contents, stored_[i]));
    }
    return contents;
  }

  size_t StoredBytes() const {
    size_t total = 0;
    for (const std::string& s : stored_) total += s.size();
    return total;
  }

 private:
  Layout layout_;
  std::vector<uint64_t> times_;  // ascending
  // kFullCopy: version i whole. kForwardDelta: [0] the oldest version
  // whole, [i > 0] the delta from version i-1 to version i.
  std::vector<std::string> stored_;
  std::string tip_;  // kForwardDelta: the newest contents
};

}  // namespace bench
}  // namespace neptune

#endif  // NEPTUNE_BENCH_BASELINE_CHAIN_H_
