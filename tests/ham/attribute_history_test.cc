#include "ham/attribute_history.h"

#include <gtest/gtest.h>

namespace neptune {
namespace ham {
namespace {

TEST(AttributeHistoryTest, EmptyHistory) {
  AttributeHistory h;
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.Get(1, 0).has_value());
  EXPECT_TRUE(h.GetAll(0).empty());
  EXPECT_EQ(h.LastTime(), 0u);
}

TEST(AttributeHistoryTest, SetAndGetCurrent) {
  AttributeHistory h;
  h.Set(1, 10, "alpha", true);
  EXPECT_EQ(*h.Get(1, 0), "alpha");
  EXPECT_EQ(h.LastTime(), 10u);
}

TEST(AttributeHistoryTest, VersionedHistoryIsTimeTravelable) {
  AttributeHistory h;
  h.Set(1, 10, "v1", true);
  h.Set(1, 20, "v2", true);
  h.Set(1, 30, "v3", true);
  EXPECT_FALSE(h.Get(1, 9).has_value());
  EXPECT_EQ(*h.Get(1, 10), "v1");
  EXPECT_EQ(*h.Get(1, 15), "v1");
  EXPECT_EQ(*h.Get(1, 20), "v2");
  EXPECT_EQ(*h.Get(1, 29), "v2");
  EXPECT_EQ(*h.Get(1, 30), "v3");
  EXPECT_EQ(*h.Get(1, 1000), "v3");
  EXPECT_EQ(*h.Get(1, 0), "v3");
}

TEST(AttributeHistoryTest, DeleteLeavesTombstoneWhenVersioned) {
  AttributeHistory h;
  h.Set(1, 10, "v1", true);
  h.Delete(1, 20, true);
  EXPECT_FALSE(h.Get(1, 0).has_value());
  EXPECT_FALSE(h.Get(1, 25).has_value());
  EXPECT_EQ(*h.Get(1, 15), "v1");  // pre-deletion reads still work
}

TEST(AttributeHistoryTest, ReattachAfterDelete) {
  AttributeHistory h;
  h.Set(1, 10, "v1", true);
  h.Delete(1, 20, true);
  h.Set(1, 30, "v2", true);
  EXPECT_EQ(*h.Get(1, 0), "v2");
  EXPECT_FALSE(h.Get(1, 25).has_value());
  EXPECT_EQ(*h.Get(1, 12), "v1");
}

TEST(AttributeHistoryTest, UnversionedKeepsOnlyLatest) {
  AttributeHistory h;
  h.Set(1, 10, "v1", false);
  h.Set(1, 20, "v2", false);
  EXPECT_EQ(h.entry_count(), 1u);
  EXPECT_EQ(*h.Get(1, 0), "v2");
  h.Delete(1, 30, false);
  EXPECT_FALSE(h.Get(1, 0).has_value());
  EXPECT_TRUE(h.empty());
}

TEST(AttributeHistoryTest, SameTimeSetOverwrites) {
  AttributeHistory h;
  h.Set(1, 10, "first", true);
  h.Set(1, 10, "second", true);
  EXPECT_EQ(h.entry_count(), 1u);
  EXPECT_EQ(*h.Get(1, 10), "second");
}

TEST(AttributeHistoryTest, DeleteNonexistentIsNoop) {
  AttributeHistory h;
  h.Delete(42, 10, true);
  EXPECT_TRUE(h.empty());
}

TEST(AttributeHistoryTest, MultipleAttributesIndependent) {
  AttributeHistory h;
  h.Set(1, 10, "one", true);
  h.Set(2, 20, "two", true);
  h.Set(3, 30, "three", true);
  h.Delete(2, 40, true);
  auto all_35 = h.GetAll(35);
  ASSERT_EQ(all_35.size(), 3u);
  auto all_now = h.GetAll(0);
  ASSERT_EQ(all_now.size(), 2u);
  EXPECT_EQ(all_now[0].first, 1u);
  EXPECT_EQ(all_now[0].second, "one");
  EXPECT_EQ(all_now[1].first, 3u);
  auto all_early = h.GetAll(15);
  ASSERT_EQ(all_early.size(), 1u);
}

TEST(AttributeHistoryTest, CodecRoundTrip) {
  AttributeHistory h;
  h.Set(1, 10, "v1", true);
  h.Set(1, 20, "v2", true);
  h.Delete(1, 30, true);
  h.Set(7, 15, std::string("\0binary\xff", 8), true);
  std::string encoded;
  h.EncodeTo(&encoded);
  std::string_view in = encoded;
  auto decoded = AttributeHistory::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(*decoded->Get(1, 12), "v1");
  EXPECT_EQ(*decoded->Get(1, 25), "v2");
  EXPECT_FALSE(decoded->Get(1, 0).has_value());
  EXPECT_EQ(*decoded->Get(7, 0), std::string("\0binary\xff", 8));
  EXPECT_EQ(decoded->LastTime(), 30u);
}

TEST(AttributeHistoryTest, CodecRejectsTruncation) {
  AttributeHistory h;
  h.Set(1, 10, "some value", true);
  h.Set(2, 20, "other", true);
  std::string encoded;
  h.EncodeTo(&encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    std::string_view in(encoded.data(), cut);
    EXPECT_FALSE(AttributeHistory::DecodeFrom(&in).ok()) << cut;
  }
}

// ------------------------------------------------- shared history chunks

// Everything a reader can observe of a history, at every time.
struct HistoryView {
  std::vector<std::vector<std::pair<AttributeIndex, std::string>>> reads;
  size_t entries = 0;
  Time last = 0;
  std::string encoded;

  bool operator==(const HistoryView&) const = default;
};

HistoryView Observe(const AttributeHistory& h, Time until) {
  HistoryView view;
  for (Time t = 0; t <= until; ++t) view.reads.push_back(h.GetAll(t));
  view.entries = h.entry_count();
  view.last = h.LastTime();
  h.EncodeTo(&view.encoded);
  return view;
}

TEST(AttributeHistorySharingTest, CopyEditsLeaveTheOriginalUnchanged) {
  // Attribute 1: 150 versioned entries (two full chunks plus a tail);
  // attribute 2: unversioned; attribute 3: a tombstoned history.
  AttributeHistory original;
  for (Time t = 1; t <= 150; ++t) {
    original.Set(1, t, "v" + std::to_string(t), true);
  }
  original.Set(2, 5, "file value", false);
  original.Set(3, 7, "gone soon", true);
  original.Delete(3, 9, true);
  const HistoryView before = Observe(original, 400);

  AttributeHistory copy = original;
  // Appends across three chunk boundaries (150 -> 350 entries).
  for (Time t = 151; t <= 350; ++t) {
    copy.Set(1, t, "copy " + std::to_string(t), true);
  }
  // Same-time overwrite edits the copy's newest entry in place.
  copy.Set(1, 350, "overwritten", true);
  // Unversioned replace and delete.
  copy.Set(2, 200, "replaced", false);
  copy.Delete(2, 201, false);
  EXPECT_EQ(*copy.Get(1, 0), "overwritten");
  EXPECT_FALSE(copy.Get(2, 0).has_value());
  EXPECT_EQ(Observe(original, 400), before);

  // Pruning the copy drops its prefix without touching shared chunks.
  EXPECT_GT(copy.PruneBefore(300), 0u);
  EXPECT_FALSE(copy.Get(1, 100).has_value());
  EXPECT_EQ(*copy.Get(1, 300), "copy 300");
  EXPECT_EQ(Observe(original, 400), before);

  // The original keeps its own line of history after the copy's.
  AttributeHistory sibling = original;
  sibling.Set(1, 150, "same-time overwrite", true);
  EXPECT_EQ(Observe(original, 400), before);
}

TEST(AttributeHistorySharingTest, CopyDuplicatesOneTailPerAttribute) {
  AttributeHistory shallow;
  AttributeHistory deep;
  for (Time t = 1; t <= 64; ++t) shallow.Set(1, t, "value", true);
  for (Time t = 1; t <= 64 * 64; ++t) deep.Set(1, t, "value", true);
  EXPECT_EQ(deep.CopyBytes(), shallow.CopyBytes());
}

}  // namespace
}  // namespace ham
}  // namespace neptune
