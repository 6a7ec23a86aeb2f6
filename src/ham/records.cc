#include "ham/records.h"

#include <algorithm>

#include "common/coding.h"

namespace neptune {
namespace ham {

// ------------------------------------------------------- DemonHistory

void DemonHistory::Set(Event event, Time t, std::string demon) {
  for (auto& [e, history] : entries_) {
    if (e == event) {
      if (!history.empty() && history.back().time == t) {
        history.mutable_back().demon = std::move(demon);
      } else {
        history.push_back(Entry{t, std::move(demon)});
      }
      return;
    }
  }
  entries_.emplace_back(event,
                        ChunkedLog<Entry>{Entry{t, std::move(demon)}});
}

size_t DemonHistory::CopyBytes() const {
  size_t total = 0;
  for (const auto& [event, history] : entries_) {
    (void)event;
    total += sizeof(std::pair<Event, ChunkedLog<Entry>>) +
             history.TailBytes([](const Entry& e) {
               return sizeof(Entry) + e.demon.size();
             });
  }
  return total;
}

std::string DemonHistory::Get(Event event, Time t) const {
  for (const auto& [e, history] : entries_) {
    if (e != event) continue;
    if (t == 0) return history.empty() ? std::string() : history.back().demon;
    auto pos = std::upper_bound(
        history.begin(), history.end(), t,
        [](Time time, const Entry& entry) { return time < entry.time; });
    if (pos == history.begin()) return std::string();
    return std::prev(pos)->demon;
  }
  return std::string();
}

std::vector<DemonEntry> DemonHistory::GetAll(Time t) const {
  std::vector<DemonEntry> out;
  for (const auto& [event, history] : entries_) {
    (void)history;
    std::string demon = Get(event, t);
    if (!demon.empty()) out.push_back(DemonEntry{event, std::move(demon)});
  }
  return out;
}

void DemonHistory::EncodeTo(std::string* out) const {
  PutVarint64(out, entries_.size());
  for (const auto& [event, history] : entries_) {
    out->push_back(static_cast<char>(event));
    PutVarint64(out, history.size());
    for (const Entry& e : history) {
      PutVarint64(out, e.time);
      PutLengthPrefixed(out, e.demon);
    }
  }
}

Result<DemonHistory> DemonHistory::DecodeFrom(std::string_view* in) {
  DemonHistory out;
  uint64_t events = 0;
  if (!GetVarint64(in, &events)) {
    return Status::Corruption("demon history: truncated count");
  }
  for (uint64_t i = 0; i < events; ++i) {
    if (in->empty()) return Status::Corruption("demon history: truncated");
    const Event event = static_cast<Event>(in->front());
    in->remove_prefix(1);
    uint64_t n = 0;
    if (!GetVarint64(in, &n)) {
      return Status::Corruption("demon history: truncated entry count");
    }
    ChunkedLog<Entry> history;
    for (uint64_t j = 0; j < n; ++j) {
      Entry e;
      std::string_view demon;
      if (!GetVarint64(in, &e.time) || !GetLengthPrefixed(in, &demon)) {
        return Status::Corruption("demon history: truncated entry");
      }
      e.demon.assign(demon);
      history.push_back(std::move(e));
    }
    out.entries_.emplace_back(event, std::move(history));
  }
  return out;
}

// ------------------------------------------------------------ LinkEnd

uint64_t LinkEnd::PositionAt(Time t) const {
  if (positions.empty()) return 0;
  if (t == 0) return positions.back().second;
  auto pos = std::upper_bound(
      positions.begin(), positions.end(), t,
      [](Time time, const std::pair<Time, uint64_t>& p) {
        return time < p.first;
      });
  if (pos == positions.begin()) return positions.front().second;
  return std::prev(pos)->second;
}

void LinkEnd::SetPosition(Time t, uint64_t position, bool versioned) {
  if (!versioned) positions.clear();
  if (!positions.empty() && positions.back().first == t) {
    positions.mutable_back().second = position;
    return;
  }
  positions.push_back({t, position});
}

void LinkEnd::EncodeTo(std::string* out) const {
  PutVarint64(out, node);
  out->push_back(track_current ? 1 : 0);
  PutVarint64(out, pinned_time);
  PutVarint64(out, positions.size());
  for (const auto& [t, p] : positions) {
    PutVarint64(out, t);
    PutVarint64(out, p);
  }
}

Result<LinkEnd> LinkEnd::DecodeFrom(std::string_view* in) {
  LinkEnd out;
  if (!GetVarint64(in, &out.node) || in->empty()) {
    return Status::Corruption("link end: truncated");
  }
  out.track_current = in->front() != 0;
  in->remove_prefix(1);
  uint64_t n = 0;
  if (!GetVarint64(in, &out.pinned_time) || !GetVarint64(in, &n)) {
    return Status::Corruption("link end: truncated header");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t t = 0;
    uint64_t p = 0;
    if (!GetVarint64(in, &t) || !GetVarint64(in, &p)) {
      return Status::Corruption("link end: truncated position");
    }
    out.positions.push_back({t, p});
  }
  return out;
}

// ---------------------------------------------------------- NodeRecord

size_t NodeRecord::CopyBytes() const {
  return sizeof(NodeRecord) + contents.CopyBytes() +
         minor_versions.TailBytes([](const VersionEntry& v) {
           return sizeof(VersionEntry) + v.explanation.size();
         }) +
         attributes.CopyBytes() + demons.CopyBytes() + out_links.TailBytes() +
         in_links.TailBytes();
}

void NodeRecord::EncodeTo(std::string* out) const {
  PutVarint64(out, index);
  out->push_back(is_archive ? 1 : 0);
  PutVarint64(out, protections);
  PutVarint64(out, created);
  PutVarint64(out, deleted);
  contents.EncodeTo(out);
  PutVarint64(out, minor_versions.size());
  for (const VersionEntry& v : minor_versions) {
    PutVarint64(out, v.time);
    PutLengthPrefixed(out, v.explanation);
  }
  attributes.EncodeTo(out);
  demons.EncodeTo(out);
  PutVarint64(out, out_links.size());
  for (LinkIndex l : out_links) PutVarint64(out, l);
  PutVarint64(out, in_links.size());
  for (LinkIndex l : in_links) PutVarint64(out, l);
}

Result<NodeRecord> NodeRecord::DecodeFrom(std::string_view* in) {
  NodeRecord out;
  uint64_t protections = 0;
  if (!GetVarint64(in, &out.index) || in->empty()) {
    return Status::Corruption("node record: truncated index");
  }
  out.is_archive = in->front() != 0;
  in->remove_prefix(1);
  if (!GetVarint64(in, &protections) || !GetVarint64(in, &out.created) ||
      !GetVarint64(in, &out.deleted)) {
    return Status::Corruption("node record: truncated header");
  }
  out.protections = static_cast<uint32_t>(protections);
  NEPTUNE_ASSIGN_OR_RETURN(out.contents,
                           delta::VersionChain::DecodeFrom(in));
  uint64_t minors = 0;
  if (!GetVarint64(in, &minors)) {
    return Status::Corruption("node record: truncated minors");
  }
  for (uint64_t i = 0; i < minors; ++i) {
    VersionEntry v;
    std::string_view expl;
    if (!GetVarint64(in, &v.time) || !GetLengthPrefixed(in, &expl)) {
      return Status::Corruption("node record: truncated minor version");
    }
    v.explanation.assign(expl);
    out.minor_versions.push_back(std::move(v));
  }
  NEPTUNE_ASSIGN_OR_RETURN(out.attributes, AttributeHistory::DecodeFrom(in));
  NEPTUNE_ASSIGN_OR_RETURN(out.demons, DemonHistory::DecodeFrom(in));
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) {
    return Status::Corruption("node record: truncated out-link count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t l = 0;
    if (!GetVarint64(in, &l)) {
      return Status::Corruption("node record: truncated out-link");
    }
    out.out_links.push_back(l);
  }
  if (!GetVarint64(in, &n)) {
    return Status::Corruption("node record: truncated in-link count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t l = 0;
    if (!GetVarint64(in, &l)) {
      return Status::Corruption("node record: truncated in-link");
    }
    out.in_links.push_back(l);
  }
  return out;
}

// ---------------------------------------------------------- LinkRecord

size_t LinkRecord::CopyBytes() const {
  return sizeof(LinkRecord) + from.positions.TailBytes() +
         to.positions.TailBytes() + attributes.CopyBytes();
}

void LinkRecord::EncodeTo(std::string* out) const {
  PutVarint64(out, index);
  PutVarint64(out, created);
  PutVarint64(out, deleted);
  from.EncodeTo(out);
  to.EncodeTo(out);
  attributes.EncodeTo(out);
}

Result<LinkRecord> LinkRecord::DecodeFrom(std::string_view* in) {
  LinkRecord out;
  if (!GetVarint64(in, &out.index) || !GetVarint64(in, &out.created) ||
      !GetVarint64(in, &out.deleted)) {
    return Status::Corruption("link record: truncated header");
  }
  NEPTUNE_ASSIGN_OR_RETURN(out.from, LinkEnd::DecodeFrom(in));
  NEPTUNE_ASSIGN_OR_RETURN(out.to, LinkEnd::DecodeFrom(in));
  NEPTUNE_ASSIGN_OR_RETURN(out.attributes, AttributeHistory::DecodeFrom(in));
  return out;
}

}  // namespace ham
}  // namespace neptune
