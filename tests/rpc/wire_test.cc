#include "rpc/wire.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"
#include "rpc/codec.h"

namespace neptune {
namespace rpc {
namespace {

TEST(FrameTest, RoundTripSingleFrame) {
  std::string framed = FramePayload("hello neptune");
  FrameDecoder decoder;
  std::vector<std::string> out;
  ASSERT_TRUE(decoder.Feed(framed, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "hello neptune");
}

TEST(FrameTest, MultipleFramesInOneFeed) {
  std::string bytes = FramePayload("one") + FramePayload("two") +
                      FramePayload(std::string(1000, 'x'));
  FrameDecoder decoder;
  std::vector<std::string> out;
  ASSERT_TRUE(decoder.Feed(bytes, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], "two");
  EXPECT_EQ(out[2].size(), 1000u);
}

TEST(FrameTest, ByteAtATimeFeed) {
  std::string bytes = FramePayload("drip-fed payload");
  FrameDecoder decoder;
  std::vector<std::string> out;
  for (char c : bytes) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&c, 1), &out).ok());
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "drip-fed payload");
}

TEST(FrameTest, EmptyPayloadIsLegal) {
  FrameDecoder decoder;
  std::vector<std::string> out;
  ASSERT_TRUE(decoder.Feed(FramePayload(""), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "");
}

TEST(FrameTest, CorruptCrcIsRejected) {
  std::string bytes = FramePayload("payload");
  bytes.back() ^= 0x01;
  FrameDecoder decoder;
  std::vector<std::string> out;
  EXPECT_TRUE(decoder.Feed(bytes, &out).IsCorruption());
}

TEST(FrameTest, OversizedLengthIsRejected) {
  // A hostile length prefix is a policy violation (kInvalidArgument),
  // distinct from a CRC mismatch (kCorruption) — and must be detected
  // from the 8-byte header alone, before any body bytes arrive.
  std::string bytes(8, '\xff');  // length = 0xffffffff
  FrameDecoder decoder;
  std::vector<std::string> out;
  EXPECT_TRUE(decoder.Feed(bytes, &out).IsInvalidArgument());
}

TEST(FrameTest, TightenedFrameLimitApplies) {
  FrameDecoder decoder;
  decoder.set_limits(/*max_frame_bytes=*/64, /*max_buffered_bytes=*/0);
  std::vector<std::string> out;
  ASSERT_TRUE(decoder.Feed(FramePayload(std::string(64, 'x')), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(
      decoder.Feed(FramePayload(std::string(65, 'x')), &out).IsInvalidArgument());
}

TEST(FrameTest, BufferedBytesAreBounded) {
  FrameDecoder decoder;
  decoder.set_limits(/*max_frame_bytes=*/1024, /*max_buffered_bytes=*/2048);
  std::vector<std::string> out;
  // Drip-feeding garbage that never completes a frame must trip the
  // buffer cap instead of accumulating forever.
  std::string header;
  PutFixed32(&header, 1024);  // legal length, but the body never comes
  PutFixed32(&header, 0);
  ASSERT_TRUE(decoder.Feed(header, &out).ok());
  std::string drip(4096, 'z');
  EXPECT_TRUE(decoder.Feed(drip, &out).IsInvalidArgument());
}

TEST(WireValueTest, StatusRoundTrip) {
  for (const Status& s :
       {Status::OK(), Status::NotFound("node 3"), Status::Conflict("stale"),
        Status::NetworkError("down"), Status::ReadOnly("degraded"),
        Status::DeadlineExceeded("too slow"),
        Status::Unavailable("peer gone")}) {
    std::string buf;
    EncodeStatusTo(s, &buf);
    std::string_view in = buf;
    Status decoded;
    ASSERT_TRUE(DecodeStatusFrom(&in, &decoded));
    EXPECT_EQ(decoded.code(), s.code());
    EXPECT_EQ(decoded.message(), s.message());
  }
}

TEST(WireValueTest, SubGraphRoundTrip) {
  ham::SubGraph graph;
  graph.nodes.push_back(ham::SubGraphNode{
      7, {std::optional<std::string>("value"), std::nullopt}});
  graph.nodes.push_back(ham::SubGraphNode{9, {}});
  graph.links.push_back(
      ham::SubGraphLink{3, 7, 9, {std::optional<std::string>("isPartOf")}});
  std::string buf;
  EncodeArgs(&buf, graph);
  std::string_view in = buf;
  ham::SubGraph out;
  ASSERT_TRUE(DecodeArgs(&in, &out));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(out.nodes.size(), 2u);
  EXPECT_EQ(out.nodes[0].node, 7u);
  ASSERT_EQ(out.nodes[0].attribute_values.size(), 2u);
  EXPECT_EQ(*out.nodes[0].attribute_values[0], "value");
  EXPECT_FALSE(out.nodes[0].attribute_values[1].has_value());
  ASSERT_EQ(out.links.size(), 1u);
  EXPECT_EQ(out.links[0].from, 7u);
  EXPECT_EQ(*out.links[0].attribute_values[0], "isPartOf");
}

TEST(WireValueTest, OpenNodeResultRoundTrip) {
  ham::OpenNodeResult r;
  r.contents = std::string("binary\0contents", 15);
  r.attachments.push_back(ham::Attachment{4, true, 120, true});
  r.attachments.push_back(ham::Attachment{5, false, 0, false});
  r.attribute_values = {std::optional<std::string>("x"), std::nullopt};
  r.current_version_time = 99;
  std::string buf;
  EncodeArgs(&buf, r);
  std::string_view in = buf;
  ham::OpenNodeResult out;
  ASSERT_TRUE(DecodeArgs(&in, &out));
  EXPECT_EQ(out.contents, r.contents);
  ASSERT_EQ(out.attachments.size(), 2u);
  EXPECT_TRUE(out.attachments[0].is_source_end);
  EXPECT_EQ(out.attachments[0].position, 120u);
  EXPECT_FALSE(out.attachments[1].track_current);
  EXPECT_EQ(out.current_version_time, 99u);
}

TEST(WireValueTest, DifferencesRoundTrip) {
  std::vector<delta::Difference> diffs = delta::DiffLines(
      "line a\nline b\nline c\n", "line a\nCHANGED\nline c\nADDED\n");
  std::string buf;
  EncodeArgs(&buf, diffs);
  std::string_view in = buf;
  std::vector<delta::Difference> out;
  ASSERT_TRUE(DecodeArgs(&in, &out));
  ASSERT_EQ(out.size(), diffs.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].kind, diffs[i].kind);
    EXPECT_EQ(out[i].old_lines, diffs[i].old_lines);
    EXPECT_EQ(out[i].new_lines, diffs[i].new_lines);
    EXPECT_EQ(out[i].old_begin, diffs[i].old_begin);
  }
}

TEST(WireValueTest, EntryListsRoundTrip) {
  std::vector<ham::AttributeEntry> attrs = {{"contentType", 1},
                                            {"relation", 2}};
  std::vector<ham::AttributeValueEntry> values = {
      {"contentType", 1, "text"}};
  std::vector<ham::DemonEntry> demons = {
      {ham::Event::kModifyNode, "recompile"}};
  std::vector<ham::ContextInfo> contexts = {{0, "main", 0}, {3, "fork", 55}};

  std::string buf;
  EncodeArgs(&buf, attrs);
  EncodeArgs(&buf, values);
  EncodeArgs(&buf, demons);
  EncodeArgs(&buf, contexts);

  std::string_view in = buf;
  std::vector<ham::AttributeEntry> attrs_out;
  std::vector<ham::AttributeValueEntry> values_out;
  std::vector<ham::DemonEntry> demons_out;
  std::vector<ham::ContextInfo> contexts_out;
  ASSERT_TRUE(DecodeArgs(&in, &attrs_out));
  ASSERT_TRUE(DecodeArgs(&in, &values_out));
  ASSERT_TRUE(DecodeArgs(&in, &demons_out));
  ASSERT_TRUE(DecodeArgs(&in, &contexts_out));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(attrs_out[1].name, "relation");
  EXPECT_EQ(values_out[0].value, "text");
  EXPECT_EQ(demons_out[0].demon, "recompile");
  EXPECT_EQ(contexts_out[1].branched_at, 55u);
}

TEST(WireValueTest, StatsRoundTrip) {
  ham::GraphStats stats;
  stats.node_count = 1;
  stats.link_count = 2;
  stats.total_node_records = 3;
  stats.total_link_records = 4;
  stats.thread_count = 5;
  stats.attribute_count = 6;
  stats.wal_bytes = 7;
  stats.current_time = 8;
  std::string buf;
  EncodeArgs(&buf, stats);
  std::string_view in = buf;
  ham::GraphStats out;
  ASSERT_TRUE(DecodeArgs(&in, &out));
  EXPECT_EQ(out.node_count, 1u);
  EXPECT_EQ(out.current_time, 8u);
}

TEST(WireValueTest, DecodersRejectTruncation) {
  ham::SubGraph graph;
  graph.nodes.push_back(ham::SubGraphNode{1, {std::optional<std::string>("v")}});
  graph.links.push_back(ham::SubGraphLink{2, 1, 1, {}});
  std::string buf;
  EncodeArgs(&buf, graph);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    ham::SubGraph out;
    EXPECT_FALSE(DecodeArgs(&in, &out)) << cut;
  }
}

TEST(WireValueTest, CountBeyondBytesLeftIsRejected) {
  std::string buf;
  PutVarint64(&buf, uint64_t{1} << 40);
  buf += "abc";
  std::string_view in = buf;
  std::vector<uint64_t> out;
  EXPECT_FALSE(DecodeArgs(&in, &out));
  EXPECT_EQ(out.capacity(), 0u) << "nothing reserved for a bogus count";

  buf.clear();
  EncodeArgs(&buf, std::vector<uint64_t>{1, 2, 3});
  in = buf;
  ASSERT_TRUE(DecodeArgs(&in, &out));
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(WireValueTest, EventPastTheLastIsRejected) {
  ham::Event event = ham::Event::kOpenGraph;
  std::string last(1, static_cast<char>(ham::Event::kCommitTransaction));
  std::string_view in = last;
  ASSERT_TRUE(DecodeArgs(&in, &event));
  EXPECT_EQ(event, ham::Event::kCommitTransaction);
  for (int byte : {11, 21, 255}) {
    std::string bad(1, static_cast<char>(byte));
    in = bad;
    EXPECT_FALSE(DecodeArgs(&in, &event)) << byte;
  }
}

}  // namespace
}  // namespace rpc
}  // namespace neptune
