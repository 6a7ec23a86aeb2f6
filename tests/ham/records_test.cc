#include "ham/records.h"

#include <gtest/gtest.h>

#include "ham/attribute_table.h"
#include "ham/ops.h"

namespace neptune {
namespace ham {
namespace {

TEST(DemonHistoryTest, SetGetAndDisable) {
  DemonHistory d;
  EXPECT_EQ(d.Get(Event::kModifyNode, 0), "");
  d.Set(Event::kModifyNode, 10, "recompile");
  EXPECT_EQ(d.Get(Event::kModifyNode, 0), "recompile");
  EXPECT_EQ(d.Get(Event::kAddNode, 0), "");
  d.Set(Event::kModifyNode, 20, "");  // null demon disables
  EXPECT_EQ(d.Get(Event::kModifyNode, 0), "");
  EXPECT_EQ(d.Get(Event::kModifyNode, 15), "recompile");  // history kept
}

TEST(DemonHistoryTest, GetAllSkipsDisabled) {
  DemonHistory d;
  d.Set(Event::kAddNode, 10, "audit");
  d.Set(Event::kModifyNode, 10, "recompile");
  d.Set(Event::kAddNode, 20, "");
  auto now = d.GetAll(0);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0].event, Event::kModifyNode);
  auto then = d.GetAll(15);
  EXPECT_EQ(then.size(), 2u);
}

TEST(DemonHistoryTest, CodecRoundTrip) {
  DemonHistory d;
  d.Set(Event::kAddNode, 5, "a");
  d.Set(Event::kAddNode, 9, "b");
  d.Set(Event::kOpenNode, 7, "c");
  std::string encoded;
  d.EncodeTo(&encoded);
  std::string_view in = encoded;
  auto decoded = DemonHistory::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Get(Event::kAddNode, 6), "a");
  EXPECT_EQ(decoded->Get(Event::kAddNode, 0), "b");
  EXPECT_EQ(decoded->Get(Event::kOpenNode, 0), "c");
}

TEST(LinkEndTest, PositionHistory) {
  LinkEnd end;
  end.node = 3;
  end.SetPosition(10, 100, true);
  end.SetPosition(20, 200, true);
  EXPECT_EQ(end.PositionAt(0), 200u);
  EXPECT_EQ(end.PositionAt(10), 100u);
  EXPECT_EQ(end.PositionAt(15), 100u);
  EXPECT_EQ(end.PositionAt(20), 200u);
  // Before the first record, the earliest known offset applies.
  EXPECT_EQ(end.PositionAt(5), 100u);
}

TEST(LinkEndTest, UnversionedPositionOverwrites) {
  LinkEnd end;
  end.SetPosition(10, 100, false);
  end.SetPosition(20, 200, false);
  EXPECT_EQ(end.positions.size(), 1u);
  EXPECT_EQ(end.PositionAt(0), 200u);
}

TEST(NodeRecordTest, ExistsAtSemantics) {
  NodeRecord node;
  node.created = 10;
  EXPECT_TRUE(node.ExistsAt(0));
  EXPECT_TRUE(node.ExistsAt(10));
  EXPECT_TRUE(node.ExistsAt(100));
  EXPECT_FALSE(node.ExistsAt(9));
  node.deleted = 50;
  EXPECT_FALSE(node.ExistsAt(0));
  EXPECT_TRUE(node.ExistsAt(49));
  EXPECT_FALSE(node.ExistsAt(50));  // gone at its deletion instant
  EXPECT_FALSE(node.ExistsAt(60));
}

TEST(NodeRecordTest, CodecRoundTrip) {
  NodeRecord node;
  node.index = 42;
  node.is_archive = true;
  node.protections = 0640;
  node.created = 5;
  ASSERT_TRUE(node.contents.Append(5, "", "created").ok());
  ASSERT_TRUE(node.contents.Append(9, "hello world", "edit").ok());
  node.minor_versions.push_back(VersionEntry{7, "addLink"});
  node.attributes.Set(1, 6, "text", true);
  node.demons.Set(Event::kModifyNode, 8, "recompile");
  node.out_links = {1, 2, 3};
  node.in_links = {9};

  std::string encoded;
  node.EncodeTo(&encoded);
  std::string_view in = encoded;
  auto decoded = NodeRecord::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->index, 42u);
  EXPECT_TRUE(decoded->is_archive);
  EXPECT_EQ(decoded->protections, 0640u);
  EXPECT_EQ(decoded->created, 5u);
  EXPECT_EQ(*decoded->contents.Get(0), "hello world");
  EXPECT_EQ(*decoded->contents.Get(5), "");
  ASSERT_EQ(decoded->minor_versions.size(), 1u);
  EXPECT_EQ(decoded->minor_versions[0].explanation, "addLink");
  EXPECT_EQ(*decoded->attributes.Get(1, 0), "text");
  EXPECT_EQ(decoded->demons.Get(Event::kModifyNode, 0), "recompile");
  EXPECT_EQ(std::vector<LinkIndex>(decoded->out_links.begin(),
                                   decoded->out_links.end()),
            (std::vector<LinkIndex>{1, 2, 3}));
  EXPECT_EQ(std::vector<LinkIndex>(decoded->in_links.begin(),
                                   decoded->in_links.end()),
            (std::vector<LinkIndex>{9}));
}

TEST(LinkRecordTest, CodecRoundTrip) {
  LinkRecord link;
  link.index = 7;
  link.created = 11;
  link.from.node = 1;
  link.from.track_current = true;
  link.from.SetPosition(11, 120, true);
  link.to.node = 2;
  link.to.track_current = false;
  link.to.pinned_time = 9;
  link.to.SetPosition(11, 0, true);
  link.attributes.Set(3, 12, "isPartOf", true);

  std::string encoded;
  link.EncodeTo(&encoded);
  std::string_view in = encoded;
  auto decoded = LinkRecord::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->index, 7u);
  EXPECT_EQ(decoded->from.node, 1u);
  EXPECT_TRUE(decoded->from.track_current);
  EXPECT_EQ(decoded->from.PositionAt(0), 120u);
  EXPECT_FALSE(decoded->to.track_current);
  EXPECT_EQ(decoded->to.pinned_time, 9u);
  EXPECT_EQ(*decoded->attributes.Get(3, 0), "isPartOf");
}

// 64-bit FNV-1a: pins encodings too long to spell out as literals.
uint64_t Fingerprint(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// A node whose every history spans chunk boundaries.
NodeRecord DeepNode() {
  NodeRecord node;
  node.index = 7;
  node.created = 1;
  node.contents.set_keyframe_interval(16);
  std::string text;
  for (Time t = 1; t <= 150; ++t) {
    text += "line " + std::to_string(t) + "\n";
    EXPECT_TRUE(node.contents.Append(10 * t, text, "edit").ok());
    node.minor_versions.push_back(VersionEntry{10 * t + 1, "setAttribute"});
    node.attributes.Set(1, 10 * t + 1, "v" + std::to_string(t % 7), true);
    if (t % 2 == 0) {
      node.demons.Set(Event::kModifyNode, 10 * t + 2,
                      "demon " + std::to_string(t));
    }
    node.out_links.push_back(2 * t);
    if (t % 3 == 0) node.in_links.push_back(2 * t + 1);
  }
  return node;
}

LinkRecord DeepLink() {
  LinkRecord link;
  link.index = 9;
  link.created = 3;
  link.from.node = 7;
  link.to.node = 8;
  link.to.track_current = false;
  link.to.pinned_time = 30;
  for (Time t = 1; t <= 130; ++t) {
    link.from.positions.push_back({10 * t, 3 * t});
    link.attributes.Set(2, 10 * t, "w" + std::to_string(t), true);
  }
  link.to.positions.push_back({10, 0});
  return link;
}

// Records whose histories span chunk boundaries encode exactly as the
// flat-vector representation did (fingerprints recorded before
// histories were chunked), so snapshots are unchanged.
TEST(NodeRecordTest, ChunkedHistoriesEncodeToGoldenBytes) {
  std::string node_bytes;
  DeepNode().EncodeTo(&node_bytes);
  EXPECT_EQ(node_bytes.size(), 13496u);
  EXPECT_EQ(Fingerprint(node_bytes), 2037416543288954052ull);
  std::string link_bytes;
  DeepLink().EncodeTo(&link_bytes);
  EXPECT_EQ(link_bytes.size(), 1404u);
  EXPECT_EQ(Fingerprint(link_bytes), 13143637340348956691ull);

  std::string_view in = node_bytes;
  Result<NodeRecord> node = NodeRecord::DecodeFrom(&in);
  ASSERT_TRUE(node.ok());
  std::string reencoded;
  node->EncodeTo(&reencoded);
  EXPECT_EQ(reencoded, node_bytes);
}

TEST(NodeRecordTest, CopyLeavesTheOriginalUnchanged) {
  const NodeRecord original = DeepNode();
  std::string before;
  original.EncodeTo(&before);
  NodeRecord copy = original;
  for (Time t = 151; t <= 350; ++t) {
    ASSERT_TRUE(copy.contents.Append(10 * t, "copy", "edit").ok());
    copy.minor_versions.push_back(VersionEntry{10 * t + 1, "addLink"});
    copy.out_links.push_back(1000 + t);
    copy.demons.Set(Event::kModifyNode, 10 * t + 2, "copy demon");
  }
  copy.minor_versions.DropFront(100);
  std::string after;
  original.EncodeTo(&after);
  EXPECT_EQ(after, before);
}

TEST(AttributeTableTest, InternAndLookup) {
  AttributeTable table;
  EXPECT_TRUE(table.Lookup("contentType").status().IsNotFound());
  auto a = table.Intern("contentType", 5);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 1u);
  auto b = table.Intern("relation", 6);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 2u);
  // Re-interning returns the same index.
  EXPECT_EQ(*table.Intern("contentType", 9), 1u);
  EXPECT_EQ(*table.Lookup("relation"), 2u);
  EXPECT_EQ(*table.Name(1), "contentType");
  EXPECT_TRUE(table.Name(3).status().IsNotFound());
  EXPECT_TRUE(table.Name(0).status().IsNotFound());
}

TEST(AttributeTableTest, ExistedAtRespectsCreationTime) {
  AttributeTable table;
  ASSERT_TRUE(table.Intern("early", 5).ok());
  ASSERT_TRUE(table.Intern("late", 50).ok());
  EXPECT_TRUE(table.ExistedAt(1, 5));
  EXPECT_FALSE(table.ExistedAt(2, 5));
  EXPECT_TRUE(table.ExistedAt(2, 50));
  EXPECT_TRUE(table.ExistedAt(2, 0));
  EXPECT_EQ(table.AllAt(10).size(), 1u);
  EXPECT_EQ(table.AllAt(0).size(), 2u);
}

TEST(AttributeTableTest, ForcedIndexReplay) {
  AttributeTable table;
  ASSERT_TRUE(table.Intern("a", 1, 1).ok());
  ASSERT_TRUE(table.Intern("b", 2, 2).ok());
  // Wrong forced index is a corruption signal.
  EXPECT_TRUE(table.Intern("c", 3, 7).status().IsCorruption());
  EXPECT_TRUE(table.Intern("a", 3, 5).status().IsCorruption());
}

TEST(AttributeTableTest, EmptyNameRejected) {
  AttributeTable table;
  EXPECT_TRUE(table.Intern("", 1).status().IsInvalidArgument());
}

TEST(AttributeTableTest, CodecRoundTrip) {
  AttributeTable table;
  ASSERT_TRUE(table.Intern("contentType", 5).ok());
  ASSERT_TRUE(table.Intern("relation", 9).ok());
  std::string encoded;
  table.EncodeTo(&encoded);
  std::string_view in = encoded;
  auto decoded = AttributeTable::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->Lookup("contentType"), 1u);
  EXPECT_EQ(*decoded->Lookup("relation"), 2u);
  EXPECT_EQ(decoded->next_index(), 3u);
  EXPECT_FALSE(decoded->ExistedAt(2, 7));
}

TEST(OpCodecTest, AllKindsRoundTrip) {
  for (uint8_t k = 1; k <= 15; ++k) {
    Op op;
    op.kind = static_cast<OpKind>(k);
    op.time = 123456;
    op.thread = 2;
    op.node = 10;
    op.link = 20;
    op.attr = 30;
    op.arg = 0644;
    op.flag = (k % 2) == 0;
    op.event = Event::kModifyNode;
    op.value = std::string("contents with \0 nul", 19);
    op.extra = "explanation";
    op.from = LinkPt{1, 100, 0, true};
    op.to = LinkPt{2, 200, 55, false};
    op.attachments = {LinkPt{5, 7, 0, true}, LinkPt{6, 8, 9, false}};

    std::string encoded;
    EncodeOp(op, &encoded);
    std::string_view in = encoded;
    auto decoded = DecodeOp(&in);
    ASSERT_TRUE(decoded.ok()) << "kind=" << int(k);
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(decoded->kind, op.kind);
    EXPECT_EQ(decoded->time, op.time);
    EXPECT_EQ(decoded->thread, op.thread);
    EXPECT_EQ(decoded->node, op.node);
    EXPECT_EQ(decoded->link, op.link);
    EXPECT_EQ(decoded->attr, op.attr);
    EXPECT_EQ(decoded->arg, op.arg);
    EXPECT_EQ(decoded->flag, op.flag);
    EXPECT_EQ(decoded->event, op.event);
    EXPECT_EQ(decoded->value, op.value);
    EXPECT_EQ(decoded->extra, op.extra);
    EXPECT_EQ(decoded->from.node, 1u);
    EXPECT_EQ(decoded->to.time, 55u);
    ASSERT_EQ(decoded->attachments.size(), 2u);
    EXPECT_EQ(decoded->attachments[1].position, 8u);
  }
}

TEST(OpCodecTest, TransactionRoundTrip) {
  std::vector<Op> ops(3);
  ops[0].kind = OpKind::kAddNode;
  ops[0].node = 1;
  ops[0].time = 2;
  ops[1].kind = OpKind::kModifyNode;
  ops[1].node = 1;
  ops[1].value = "body";
  ops[1].time = 3;
  ops[2].kind = OpKind::kSetNodeAttribute;
  ops[2].node = 1;
  ops[2].attr = 1;
  ops[2].value = "text";
  ops[2].time = 4;

  std::string payload = EncodeTransaction(ops);
  auto decoded = DecodeTransaction(payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[1].value, "body");
  EXPECT_EQ((*decoded)[2].attr, 1u);
}

TEST(OpCodecTest, RejectsGarbage) {
  auto r1 = DecodeTransaction("\x03garbage");
  EXPECT_FALSE(r1.ok());
  std::string_view empty;
  EXPECT_FALSE(DecodeOp(&empty).ok());
  std::string bogus_kind = "\x63";  // kind 99
  std::string_view in = bogus_kind;
  EXPECT_TRUE(DecodeOp(&in).status().IsCorruption());
}

TEST(OpCodecTest, TransactionRejectsTrailingBytes) {
  std::vector<Op> ops(1);
  ops[0].kind = OpKind::kAddNode;
  std::string payload = EncodeTransaction(ops) + "x";
  EXPECT_TRUE(DecodeTransaction(payload).status().IsCorruption());
}

}  // namespace
}  // namespace ham
}  // namespace neptune
