// Typed codecs for the values the wire carries. Codec<T>::Encode
// appends a T; Codec<T>::Decode consumes one from the front of `in` and
// returns false on malformed or truncated input. The server decodes a
// method's arguments by the parameter types of the HamInterface member
// it calls, and the client stub encodes them by the types it passes,
// so both ends use these and cannot drift.
//
//   unsigned integers  varint
//   bool               one byte, 0 or 1
//   enums              one byte, rejected past the last value
//   std::string        varint length | bytes
//   std::optional<T>   bool has_value | T if set
//   std::vector<T>     varint count | T*
//   structs            their fields, in the order FieldsCodec lists

#ifndef NEPTUNE_RPC_CODEC_H_
#define NEPTUNE_RPC_CODEC_H_

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/coding.h"
#include "delta/text_diff.h"
#include "ham/ham_interface.h"
#include "ham/types.h"

namespace neptune {
namespace rpc {

template <typename T>
struct Codec;

template <std::unsigned_integral T>
  requires(sizeof(T) == 8)
struct Codec<T> {
  static void Encode(T v, std::string* out) { PutVarint64(out, v); }
  static bool Decode(std::string_view* in, T* v) {
    uint64_t x = 0;
    if (!GetVarint64(in, &x)) return false;
    *v = x;
    return true;
  }
};

template <>
struct Codec<uint32_t> {
  static void Encode(uint32_t v, std::string* out) { PutVarint32(out, v); }
  static bool Decode(std::string_view* in, uint32_t* v) {
    return GetVarint32(in, v);
  }
};

template <>
struct Codec<bool> {
  static void Encode(bool v, std::string* out) { out->push_back(v ? 1 : 0); }
  static bool Decode(std::string_view* in, bool* v) {
    if (in->empty()) return false;
    *v = in->front() != 0;
    in->remove_prefix(1);
    return true;
  }
};

template <>
struct Codec<std::string> {
  static void Encode(const std::string& v, std::string* out) {
    PutLengthPrefixed(out, v);
  }
  static bool Decode(std::string_view* in, std::string* v) {
    std::string_view s;
    if (!GetLengthPrefixed(in, &s)) return false;
    v->assign(s);
    return true;
  }
};

// An enum in one byte; values past kLast are malformed.
template <typename E, E kLast>
struct ByteEnumCodec {
  static void Encode(E v, std::string* out) {
    out->push_back(static_cast<char>(v));
  }
  static bool Decode(std::string_view* in, E* v) {
    if (in->empty()) return false;
    const uint8_t byte = static_cast<uint8_t>(in->front());
    if (byte > static_cast<uint8_t>(kLast)) return false;
    *v = static_cast<E>(byte);
    in->remove_prefix(1);
    return true;
  }
};

template <>
struct Codec<ham::Event>
    : ByteEnumCodec<ham::Event, ham::Event::kCommitTransaction> {};
template <>
struct Codec<delta::DifferenceKind>
    : ByteEnumCodec<delta::DifferenceKind,
                    delta::DifferenceKind::kReplacement> {};
template <>
struct Codec<ham::ReplFetchResult::Action>
    : ByteEnumCodec<ham::ReplFetchResult::Action,
                    ham::ReplFetchResult::Action::kStaleTerm> {};

template <typename T>
struct Codec<std::optional<T>> {
  static void Encode(const std::optional<T>& v, std::string* out) {
    Codec<bool>::Encode(v.has_value(), out);
    if (v.has_value()) Codec<T>::Encode(*v, out);
  }
  static bool Decode(std::string_view* in, std::optional<T>* v) {
    bool has = false;
    if (!Codec<bool>::Decode(in, &has)) return false;
    if (!has) {
      v->reset();
      return true;
    }
    return Codec<T>::Decode(in, &v->emplace());
  }
};

template <typename T>
struct Codec<std::vector<T>> {
  static void Encode(const std::vector<T>& v, std::string* out) {
    PutVarint64(out, v.size());
    for (const T& x : v) Codec<T>::Encode(x, out);
  }
  static bool Decode(std::string_view* in, std::vector<T>* v) {
    uint64_t n = 0;
    // Every element takes at least one byte, so a count beyond the
    // bytes left is malformed, and is refused before it can size an
    // allocation.
    if (!GetVarint64(in, &n) || n > in->size()) return false;
    v->clear();
    v->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (!Codec<T>::Decode(in, &v->emplace_back())) return false;
    }
    return true;
  }
};

template <typename M>
struct MemberOf;
template <typename C, typename F>
struct MemberOf<F C::*> {
  using type = F;
};

// A struct encoded as the listed data members, in order.
template <typename T, auto... kFields>
struct FieldsCodec {
  static void Encode(const T& v, std::string* out) {
    (Codec<typename MemberOf<decltype(kFields)>::type>::Encode(v.*kFields,
                                                               out),
     ...);
  }
  static bool Decode(std::string_view* in, T* v) {
    return (Codec<typename MemberOf<decltype(kFields)>::type>::Decode(
                in, &(v->*kFields)) &&
            ...);
  }
};

template <>
struct Codec<ham::Context>
    : FieldsCodec<ham::Context, &ham::Context::session> {};
template <>
struct Codec<ham::LinkPt>
    : FieldsCodec<ham::LinkPt, &ham::LinkPt::node, &ham::LinkPt::position,
                  &ham::LinkPt::time, &ham::LinkPt::track_current> {};
template <>
struct Codec<ham::CreateGraphResult>
    : FieldsCodec<ham::CreateGraphResult, &ham::CreateGraphResult::project,
                  &ham::CreateGraphResult::creation_time> {};
template <>
struct Codec<ham::AddNodeResult>
    : FieldsCodec<ham::AddNodeResult, &ham::AddNodeResult::node,
                  &ham::AddNodeResult::creation_time> {};
template <>
struct Codec<ham::AddLinkResult>
    : FieldsCodec<ham::AddLinkResult, &ham::AddLinkResult::link,
                  &ham::AddLinkResult::creation_time> {};
template <>
struct Codec<ham::LinkEndResult>
    : FieldsCodec<ham::LinkEndResult, &ham::LinkEndResult::node,
                  &ham::LinkEndResult::version_time> {};
template <>
struct Codec<ham::SubGraphNode>
    : FieldsCodec<ham::SubGraphNode, &ham::SubGraphNode::node,
                  &ham::SubGraphNode::attribute_values> {};
template <>
struct Codec<ham::SubGraphLink>
    : FieldsCodec<ham::SubGraphLink, &ham::SubGraphLink::link,
                  &ham::SubGraphLink::from, &ham::SubGraphLink::to,
                  &ham::SubGraphLink::attribute_values> {};
template <>
struct Codec<ham::SubGraph>
    : FieldsCodec<ham::SubGraph, &ham::SubGraph::nodes,
                  &ham::SubGraph::links> {};
template <>
struct Codec<ham::Attachment>
    : FieldsCodec<ham::Attachment, &ham::Attachment::link,
                  &ham::Attachment::is_source_end, &ham::Attachment::position,
                  &ham::Attachment::track_current> {};
template <>
struct Codec<ham::OpenNodeResult>
    : FieldsCodec<ham::OpenNodeResult, &ham::OpenNodeResult::contents,
                  &ham::OpenNodeResult::attachments,
                  &ham::OpenNodeResult::attribute_values,
                  &ham::OpenNodeResult::current_version_time> {};
template <>
struct Codec<ham::AttachmentUpdate>
    : FieldsCodec<ham::AttachmentUpdate, &ham::AttachmentUpdate::link,
                  &ham::AttachmentUpdate::is_source_end,
                  &ham::AttachmentUpdate::position> {};
template <>
struct Codec<ham::VersionEntry>
    : FieldsCodec<ham::VersionEntry, &ham::VersionEntry::time,
                  &ham::VersionEntry::explanation> {};
template <>
struct Codec<ham::NodeVersions>
    : FieldsCodec<ham::NodeVersions, &ham::NodeVersions::major,
                  &ham::NodeVersions::minor> {};
template <>
struct Codec<delta::Difference>
    : FieldsCodec<delta::Difference, &delta::Difference::kind,
                  &delta::Difference::old_begin, &delta::Difference::old_end,
                  &delta::Difference::new_begin, &delta::Difference::new_end,
                  &delta::Difference::old_lines,
                  &delta::Difference::new_lines> {};
template <>
struct Codec<ham::AttributeEntry>
    : FieldsCodec<ham::AttributeEntry, &ham::AttributeEntry::name,
                  &ham::AttributeEntry::index> {};
template <>
struct Codec<ham::AttributeValueEntry>
    : FieldsCodec<ham::AttributeValueEntry, &ham::AttributeValueEntry::name,
                  &ham::AttributeValueEntry::index,
                  &ham::AttributeValueEntry::value> {};
template <>
struct Codec<ham::DemonEntry>
    : FieldsCodec<ham::DemonEntry, &ham::DemonEntry::event,
                  &ham::DemonEntry::demon> {};
template <>
struct Codec<ham::ContextInfo>
    : FieldsCodec<ham::ContextInfo, &ham::ContextInfo::thread,
                  &ham::ContextInfo::name, &ham::ContextInfo::branched_at> {};
template <>
struct Codec<ham::GraphStats>
    : FieldsCodec<ham::GraphStats, &ham::GraphStats::node_count,
                  &ham::GraphStats::link_count,
                  &ham::GraphStats::total_node_records,
                  &ham::GraphStats::total_link_records,
                  &ham::GraphStats::thread_count,
                  &ham::GraphStats::attribute_count,
                  &ham::GraphStats::wal_bytes,
                  &ham::GraphStats::current_time> {};
template <>
struct Codec<ham::ReplFetchRequest>
    : FieldsCodec<ham::ReplFetchRequest, &ham::ReplFetchRequest::directory,
                  &ham::ReplFetchRequest::follower_id,
                  &ham::ReplFetchRequest::term, &ham::ReplFetchRequest::epoch,
                  &ham::ReplFetchRequest::offset,
                  &ham::ReplFetchRequest::max_bytes,
                  &ham::ReplFetchRequest::wait_ms> {};
template <>
struct Codec<ham::ReplFetchResult>
    : FieldsCodec<ham::ReplFetchResult, &ham::ReplFetchResult::action,
                  &ham::ReplFetchResult::term, &ham::ReplFetchResult::epoch,
                  &ham::ReplFetchResult::offset,
                  &ham::ReplFetchResult::epoch_end,
                  &ham::ReplFetchResult::epoch_bytes,
                  &ham::ReplFetchResult::meta,
                  &ham::ReplFetchResult::payload> {};
template <>
struct Codec<ham::ReplNodeStatus>
    : FieldsCodec<ham::ReplNodeStatus, &ham::ReplNodeStatus::term,
                  &ham::ReplNodeStatus::follower, &ham::ReplNodeStatus::epoch,
                  &ham::ReplNodeStatus::wal_bytes,
                  &ham::ReplNodeStatus::lag_bytes,
                  &ham::ReplNodeStatus::behind_ms> {};

// getGraphQueryExplained options: u8 flags (force_scan, verify << 1).
template <>
struct Codec<ham::QueryOptions> {
  static void Encode(const ham::QueryOptions& v, std::string* out) {
    out->push_back(static_cast<char>((v.force_scan ? 1 : 0) |
                                     (v.verify ? 2 : 0)));
  }
  static bool Decode(std::string_view* in, ham::QueryOptions* v) {
    if (in->empty()) return false;
    const uint8_t flags = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    v->force_scan = (flags & 1) != 0;
    v->verify = (flags & 2) != 0;
    return true;
  }
};

// getGraphQueryExplained reply: the sub-graph followed by the plan —
//   varint kind | u8 flags (eligible, rebuilt<<1, verified<<2,
//   verify_match<<3) | varints conjuncts, candidates, residual_evals,
//   nodes_matched, links_matched, applied_deltas
template <>
struct Codec<ham::QueryExplain> {
  static void Encode(const ham::QueryExplain& v, std::string* out) {
    const ham::QueryPlan& plan = v.plan;
    Codec<ham::SubGraph>::Encode(v.graph, out);
    PutVarint64(out, static_cast<uint64_t>(plan.kind));
    out->push_back(static_cast<char>(
        (plan.eligible ? 1 : 0) | (plan.rebuilt ? 2 : 0) |
        (plan.verified ? 4 : 0) | (plan.verify_match ? 8 : 0)));
    PutVarint64(out, plan.conjuncts);
    PutVarint64(out, plan.candidates);
    PutVarint64(out, plan.residual_evals);
    PutVarint64(out, plan.nodes_matched);
    PutVarint64(out, plan.links_matched);
    PutVarint64(out, plan.applied_deltas);
  }
  static bool Decode(std::string_view* in, ham::QueryExplain* v) {
    ham::QueryPlan& plan = v->plan;
    uint64_t kind = 0;
    if (!Codec<ham::SubGraph>::Decode(in, &v->graph) ||
        !GetVarint64(in, &kind) ||
        kind > static_cast<uint64_t>(ham::QueryPlan::Kind::kIntersect) ||
        in->empty()) {
      return false;
    }
    plan.kind = static_cast<ham::QueryPlan::Kind>(kind);
    const uint8_t flags = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    plan.eligible = (flags & 1) != 0;
    plan.rebuilt = (flags & 2) != 0;
    plan.verified = (flags & 4) != 0;
    plan.verify_match = (flags & 8) != 0;
    return GetVarint32(in, &plan.conjuncts) &&
           GetVarint64(in, &plan.candidates) &&
           GetVarint64(in, &plan.residual_evals) &&
           GetVarint64(in, &plan.nodes_matched) &&
           GetVarint64(in, &plan.links_matched) &&
           GetVarint64(in, &plan.applied_deltas);
  }
};

// One getAttributeValuesBatch item: u8 is_link | entity | attr.
struct AttributeFetch {
  bool is_link = false;
  uint64_t entity = 0;  // NodeIndex or LinkIndex per is_link
  ham::AttributeIndex attr = 0;
};
template <>
struct Codec<AttributeFetch>
    : FieldsCodec<AttributeFetch, &AttributeFetch::is_link,
                  &AttributeFetch::entity, &AttributeFetch::attr> {};

// Encodes each value in turn.
template <typename... T>
void EncodeArgs([[maybe_unused]] std::string* out, const T&... values) {
  (Codec<T>::Encode(values, out), ...);
}

// Decodes each value in turn; false at the first malformed one.
template <typename... T>
bool DecodeArgs([[maybe_unused]] std::string_view* in, T*... values) {
  return (Codec<T>::Decode(in, values) && ...);
}

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_CODEC_H_
