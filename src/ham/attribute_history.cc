#include "ham/attribute_history.h"

#include <algorithm>

#include "common/coding.h"

namespace neptune {
namespace ham {

void AttributeHistory::Set(AttributeIndex attr, Time t, std::string value,
                           bool versioned) {
  ChunkedLog<Entry>& history = entries_[attr];
  if (!versioned) history.clear();
  // Same-time overwrite (several sets inside one transaction tick)
  // replaces rather than duplicates.
  if (!history.empty() && history.back().time == t) {
    history.mutable_back().value = std::move(value);
    return;
  }
  history.push_back(Entry{t, std::move(value)});
}

void AttributeHistory::Delete(AttributeIndex attr, Time t, bool versioned) {
  auto it = entries_.find(attr);
  if (it == entries_.end()) return;
  if (!versioned) {
    entries_.erase(it);
    return;
  }
  ChunkedLog<Entry>& history = it->second;
  if (!history.empty() && history.back().time == t) {
    history.mutable_back().value = std::nullopt;
  } else {
    history.push_back(Entry{t, std::nullopt});
  }
}

std::optional<std::string_view> AttributeHistory::Get(AttributeIndex attr,
                                                      Time t) const {
  auto it = entries_.find(attr);
  if (it == entries_.end()) return std::nullopt;
  const ChunkedLog<Entry>& history = it->second;
  if (t == 0) {
    if (history.empty() || !history.back().value.has_value()) {
      return std::nullopt;
    }
    return std::string_view(*history.back().value);
  }
  // Latest entry with time <= t.
  auto pos = std::upper_bound(
      history.begin(), history.end(), t,
      [](Time time, const Entry& e) { return time < e.time; });
  if (pos == history.begin()) return std::nullopt;
  --pos;
  if (!pos->value.has_value()) return std::nullopt;
  return std::string_view(*pos->value);
}

std::vector<std::pair<AttributeIndex, std::string>> AttributeHistory::GetAll(
    Time t) const {
  std::vector<std::pair<AttributeIndex, std::string>> out;
  for (const auto& [attr, history] : entries_) {
    (void)history;
    std::optional<std::string_view> value = Get(attr, t);
    if (value.has_value()) out.emplace_back(attr, std::string(*value));
  }
  return out;
}

size_t AttributeHistory::CountAt(Time t) const {
  size_t n = 0;
  for (const auto& [attr, history] : entries_) {
    (void)history;
    if (Get(attr, t).has_value()) ++n;
  }
  return n;
}

size_t AttributeHistory::PruneBefore(Time before) {
  if (before == 0) return 0;
  size_t dropped = 0;
  for (auto& [attr, history] : entries_) {
    (void)attr;
    // Last entry with time <= before stays (it is in effect at
    // `before`); everything earlier goes.
    auto keep = std::upper_bound(
        history.begin(), history.end(), before,
        [](Time t, const Entry& e) { return t < e.time; });
    if (keep == history.begin()) continue;
    --keep;  // the in-effect entry
    const size_t drop = static_cast<size_t>(keep - history.begin());
    history.DropFront(drop);
    dropped += drop;
  }
  return dropped;
}

size_t AttributeHistory::CopyBytes() const {
  size_t total = 0;
  for (const auto& [attr, history] : entries_) {
    (void)attr;
    total += sizeof(std::pair<const AttributeIndex, ChunkedLog<Entry>>) +
             history.TailBytes([](const Entry& e) {
               return sizeof(Entry) + (e.value ? e.value->size() : 0);
             });
  }
  return total;
}

Time AttributeHistory::LastTime() const {
  Time last = 0;
  for (const auto& [attr, history] : entries_) {
    (void)attr;
    if (!history.empty() && history.back().time > last) {
      last = history.back().time;
    }
  }
  return last;
}

size_t AttributeHistory::entry_count() const {
  size_t n = 0;
  for (const auto& [attr, history] : entries_) n += history.size();
  return n;
}

void AttributeHistory::EncodeTo(std::string* out) const {
  PutVarint64(out, entries_.size());
  for (const auto& [attr, history] : entries_) {
    PutVarint64(out, attr);
    PutVarint64(out, history.size());
    for (const Entry& e : history) {
      PutVarint64(out, e.time);
      out->push_back(e.value.has_value() ? 1 : 0);
      if (e.value.has_value()) PutLengthPrefixed(out, *e.value);
    }
  }
}

Result<AttributeHistory> AttributeHistory::DecodeFrom(std::string_view* in) {
  AttributeHistory out;
  uint64_t attrs = 0;
  if (!GetVarint64(in, &attrs)) {
    return Status::Corruption("attribute history: truncated count");
  }
  for (uint64_t i = 0; i < attrs; ++i) {
    uint64_t attr = 0;
    uint64_t n = 0;
    if (!GetVarint64(in, &attr) || !GetVarint64(in, &n)) {
      return Status::Corruption("attribute history: truncated header");
    }
    ChunkedLog<Entry> history;
    for (uint64_t j = 0; j < n; ++j) {
      Entry e;
      if (!GetVarint64(in, &e.time) || in->empty()) {
        return Status::Corruption("attribute history: truncated entry");
      }
      const char has_value = in->front();
      in->remove_prefix(1);
      if (has_value) {
        std::string_view value;
        if (!GetLengthPrefixed(in, &value)) {
          return Status::Corruption("attribute history: truncated value");
        }
        e.value = std::string(value);
      }
      history.push_back(std::move(e));
    }
    out.entries_.emplace(attr, std::move(history));
  }
  return out;
}

}  // namespace ham
}  // namespace neptune
