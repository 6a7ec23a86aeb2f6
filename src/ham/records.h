// The persistent record types of one hypergraph: nodes, links and
// their demon slots. Records never forget: deletion is a tombstone
// timestamp so that "it is possible to see *any* version of the
// hyperdocument back to its beginning" (paper §2.2).
//
// Every append-only history in a record is a ChunkedLog whose full
// chunks are shared by copies, so the copy-on-write that stages a
// record in a transaction or a context duplicates its scalars, its
// current contents and one tail per history — never its history.

#ifndef NEPTUNE_HAM_RECORDS_H_
#define NEPTUNE_HAM_RECORDS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/chunked_log.h"
#include "common/result.h"
#include "delta/version_chain.h"
#include "ham/attribute_history.h"
#include "ham/types.h"

namespace neptune {
namespace ham {

// Versioned event -> demon-value bindings ("Creates a new version of
// the node demon. If Demon is null then demon is disabled"). The empty
// string is the null/disabled demon.
class DemonHistory {
 public:
  void Set(Event event, Time t, std::string demon);

  // Demon bound to `event` at `t` (0 = now); empty when disabled.
  std::string Get(Event event, Time t) const;

  // All (event, demon) bindings active at `t`.
  std::vector<DemonEntry> GetAll(Time t) const;

  bool empty() const { return entries_.empty(); }

  // Bytes a copy duplicates rather than shares (one tail per event).
  size_t CopyBytes() const;

  void EncodeTo(std::string* out) const;
  static Result<DemonHistory> DecodeFrom(std::string_view* in);

 private:
  struct Entry {
    Time time = 0;
    std::string demon;
  };
  // Per event, ascending time.
  std::vector<std::pair<Event, ChunkedLog<Entry>>> entries_;
};

// One end of a link. For a track_current end the HAM keeps "a history
// of link attachment offsets ... allowing the link to be attached to
// different offsets for each version of the node" (paper §3).
struct LinkEnd {
  NodeIndex node = 0;
  bool track_current = true;
  Time pinned_time = 0;  // node version this end refers to, if pinned

  // Attachment offsets, ascending by time.
  ChunkedLog<std::pair<Time, uint64_t>> positions;

  // Offset in effect at `t` (0 = latest).
  uint64_t PositionAt(Time t) const;

  // Records a new offset at `t`; unversioned ends are overwritten.
  void SetPosition(Time t, uint64_t position, bool versioned);

  void EncodeTo(std::string* out) const;
  static Result<LinkEnd> DecodeFrom(std::string_view* in);
};

struct NodeRecord {
  NodeIndex index = 0;
  bool is_archive = true;
  uint32_t protections = 0644;
  Time created = 0;
  Time deleted = 0;  // 0 = alive

  delta::VersionChain contents{delta::ChainMode::kBackwardDelta};
  // "Minor versions are updates that relate to the node but do not
  // change its contents, for example adding a link or defining an
  // attribute value."
  ChunkedLog<VersionEntry> minor_versions;
  AttributeHistory attributes;
  DemonHistory demons;

  // Links ever attached (including since-deleted ones; liveness is
  // resolved against the link records at a given time).
  ChunkedLog<LinkIndex> out_links;
  ChunkedLog<LinkIndex> in_links;

  bool ExistsAt(Time t) const {
    if (t == 0) return created != 0 && deleted == 0;
    return created != 0 && created <= t && (deleted == 0 || t < deleted);
  }

  // Bytes a copy of this record duplicates rather than shares: its
  // scalars, current contents and unshared history tails.
  size_t CopyBytes() const;

  void EncodeTo(std::string* out) const;
  static Result<NodeRecord> DecodeFrom(std::string_view* in);
};

struct LinkRecord {
  LinkIndex index = 0;
  Time created = 0;
  Time deleted = 0;  // 0 = alive

  LinkEnd from;
  LinkEnd to;
  AttributeHistory attributes;

  bool ExistsAt(Time t) const {
    if (t == 0) return created != 0 && deleted == 0;
    return created != 0 && created <= t && (deleted == 0 || t < deleted);
  }

  // As NodeRecord::CopyBytes.
  size_t CopyBytes() const;

  void EncodeTo(std::string* out) const;
  static Result<LinkRecord> DecodeFrom(std::string_view* in);
};

}  // namespace ham
}  // namespace neptune

#endif  // NEPTUNE_HAM_RECORDS_H_
