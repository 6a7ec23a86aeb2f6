// AttributeHistory: the versioned attribute/value pairs attached to a
// node or link. "If the node is an archive then creates a new version
// of the attribute value" (setNodeAttributeValue) — so every Set and
// Delete on a versioned object appends a timestamped entry, and reads
// at any Time reconstruct the values in effect then. Unversioned
// objects (file nodes) keep only the latest entry per attribute.
//
// Each attribute's entries are a ChunkedLog, so copying a history
// (a record's copy-on-write) costs O(attributes + one tail each), not
// O(entries).

#ifndef NEPTUNE_HAM_ATTRIBUTE_HISTORY_H_
#define NEPTUNE_HAM_ATTRIBUTE_HISTORY_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/chunked_log.h"
#include "common/result.h"
#include "ham/types.h"

namespace neptune {
namespace ham {

class AttributeHistory {
 public:
  // Attaches or updates `attr` to `value` at time `t`. When
  // `versioned` is false the previous entry for `attr` is replaced
  // instead of extended.
  void Set(AttributeIndex attr, Time t, std::string value, bool versioned);

  // Detaches `attr` at time `t` (recorded as a tombstone so earlier
  // times still see the old value when versioned).
  void Delete(AttributeIndex attr, Time t, bool versioned);

  // Value in effect at `t` (0 = now); nullopt when not attached.
  std::optional<std::string_view> Get(AttributeIndex attr, Time t) const;

  // All (attribute, value) pairs in effect at `t`, ascending by index.
  std::vector<std::pair<AttributeIndex, std::string>> GetAll(Time t) const;

  // Number of attributes attached (non-tombstone) at `t`, without
  // copying any values — what the per-entity attribute cap checks.
  size_t CountAt(Time t) const;

  // True if no attribute was ever attached.
  bool empty() const { return entries_.empty(); }

  // Total history entries (for stats/tests).
  size_t entry_count() const;

  // Time of the most recent entry across all attributes (0 if none);
  // used by merge-conflict detection.
  Time LastTime() const;

  // Drops entries strictly older than the one in effect at `before`
  // for every attribute (history pruning). Returns entries dropped.
  size_t PruneBefore(Time before);

  // Bytes a copy of this history duplicates rather than shares: one
  // map entry and one unshared tail per attribute.
  size_t CopyBytes() const;

  void EncodeTo(std::string* out) const;
  static Result<AttributeHistory> DecodeFrom(std::string_view* in);

 private:
  struct Entry {
    Time time = 0;
    std::optional<std::string> value;  // nullopt == tombstone
  };

  // Per attribute, entries in ascending time order.
  std::map<AttributeIndex, ChunkedLog<Entry>> entries_;
};

}  // namespace ham
}  // namespace neptune

#endif  // NEPTUNE_HAM_ATTRIBUTE_HISTORY_H_
