// Test helper: evaluates a predicate against a plain name -> value map,
// binding the program's slots the way the HAM binds them to a record's
// attribute history.

#ifndef NEPTUNE_TESTS_QUERY_MAP_SLOTS_H_
#define NEPTUNE_TESTS_QUERY_MAP_SLOTS_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "query/predicate.h"

namespace neptune {
namespace query {

using Attrs = std::map<std::string, std::string>;

class MapSlots : public Predicate::SlotSource {
 public:
  MapSlots(const Predicate& pred, const Attrs& attrs)
      : pred_(pred), attrs_(attrs) {}

  std::optional<std::string_view> GetSlot(size_t slot) const override {
    auto it = attrs_.find(pred_.slot_names()[slot]);
    if (it == attrs_.end()) return std::nullopt;
    return std::string_view(it->second);
  }

 private:
  const Predicate& pred_;
  const Attrs& attrs_;
};

inline bool Matches(const Predicate& pred, const Attrs& attrs) {
  return pred.Matches(MapSlots(pred, attrs));
}

}  // namespace query
}  // namespace neptune

#endif  // NEPTUNE_TESTS_QUERY_MAP_SLOTS_H_
