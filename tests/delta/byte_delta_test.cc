#include "delta/byte_delta.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace neptune {
namespace delta {
namespace {

void ExpectRoundTrip(std::string_view base, std::string_view target) {
  std::string script = EncodeDelta(base, target);
  auto result = ApplyDelta(base, script);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, target);
}

TEST(ByteDeltaTest, EmptyToEmpty) { ExpectRoundTrip("", ""); }

TEST(ByteDeltaTest, EmptyBase) { ExpectRoundTrip("", "brand new contents"); }

TEST(ByteDeltaTest, EmptyTarget) { ExpectRoundTrip("old stuff here", ""); }

TEST(ByteDeltaTest, IdenticalContents) {
  std::string text(5000, 'x');
  for (size_t i = 0; i < text.size(); ++i) text[i] = char('A' + i % 53);
  std::string script = EncodeDelta(text, text);
  // Identical contents must compress to (almost) nothing.
  EXPECT_LT(script.size(), 64u);
  auto result = ApplyDelta(text, script);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, text);
}

TEST(ByteDeltaTest, SmallEditOnLargeBaseIsCompact) {
  Random rng(42);
  std::string base = rng.NextBytes(64 * 1024);
  std::string target = base;
  target.insert(1000, "INSERTED TEXT");
  target.erase(30000, 50);
  std::string script = EncodeDelta(base, target);
  // The delta should be a tiny fraction of the contents size (the
  // whole point of backward deltas).
  EXPECT_LT(script.size(), base.size() / 100);
  auto result = ApplyDelta(base, script);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, target);
}

TEST(ByteDeltaTest, CompletelyDifferentContents) {
  Random rng(1);
  ExpectRoundTrip(rng.NextBytes(4096), rng.NextBytes(4096));
}

TEST(ByteDeltaTest, BaseShorterThanBlock) {
  ExpectRoundTrip("short", "also short but different");
}

TEST(ByteDeltaTest, BinaryDataWithEmbeddedNulsAndHighBytes) {
  std::string base("\x00\x01\xff\xfe", 4);
  base += std::string(100, '\0');
  std::string target = base + std::string("\xff\x00tail", 6);
  ExpectRoundTrip(base, target);
}

TEST(ByteDeltaTest, RepetitiveContentTerminates) {
  // Highly repetitive input stresses the hash-chain cap.
  std::string base(100000, 'a');
  std::string target(100001, 'a');
  target[50000] = 'b';
  ExpectRoundTrip(base, target);
}

TEST(ByteDeltaApplyTest, RejectsTruncatedScript) {
  std::string script = EncodeDelta("base contents 1234567890", "target 1234");
  for (size_t cut = 0; cut < script.size(); ++cut) {
    auto result =
        ApplyDelta("base contents 1234567890", script.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

TEST(ByteDeltaApplyTest, RejectsCopyOutOfBounds) {
  // Build a valid script against a big base, then replay it against a
  // smaller base: COPYs must be bounds-checked.
  std::string big(1000, 'r');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char('a' + i % 26);
  std::string script = EncodeDelta(big, big);
  auto result = ApplyDelta("tiny", script);
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(ByteDeltaApplyTest, RejectsUnknownOpcode) {
  std::string script;
  script.push_back('\x05');  // target_len = 5 (varint)
  script.push_back('\x07');  // bogus opcode
  auto result = ApplyDelta("base", script);
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(ByteDeltaApplyTest, RejectsLengthMismatch) {
  // Header says 100 bytes; script produces 3.
  std::string script;
  script.push_back('\x64');  // varint 100
  script.push_back('\x00');  // ADD
  script.push_back('\x03');  // len 3
  script += "abc";
  auto result = ApplyDelta("", script);
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(ByteDeltaApplyTest, RejectsOutputPastTargetLength) {
  // Header says 3 bytes; the first COPY alone would write 4.
  std::string copy;
  copy.push_back('\x03');  // varint 3
  copy += std::string("\x01\x00\x04", 3);  // COPY(0, 4)
  EXPECT_TRUE(ApplyDelta("base", copy).status().IsCorruption());

  std::string add;
  add.push_back('\x02');  // varint 2
  add.push_back('\x00');  // ADD
  add.push_back('\x03');  // len 3
  add += "abc";
  EXPECT_TRUE(ApplyDelta("", add).status().IsCorruption());
}

// Property sweep: random bases with random edit scripts of varying
// aggressiveness always round-trip.
class ByteDeltaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ByteDeltaPropertyTest, RandomEditsRoundTrip) {
  Random rng(1000 + GetParam());
  std::string base = rng.NextBytes(rng.Uniform(20000));
  std::string target = base;
  const int edits = 1 + static_cast<int>(rng.Uniform(10));
  for (int e = 0; e < edits; ++e) {
    switch (rng.Uniform(3)) {
      case 0: {  // insert
        size_t pos = target.empty() ? 0 : rng.Uniform(target.size());
        target.insert(pos, rng.NextBytes(rng.Uniform(500)));
        break;
      }
      case 1: {  // delete
        if (target.empty()) break;
        size_t pos = rng.Uniform(target.size());
        size_t len = std::min<size_t>(rng.Uniform(500), target.size() - pos);
        target.erase(pos, len);
        break;
      }
      default: {  // overwrite
        if (target.empty()) break;
        size_t pos = rng.Uniform(target.size());
        size_t len = std::min<size_t>(rng.Uniform(100), target.size() - pos);
        for (size_t i = 0; i < len; ++i) {
          target[pos + i] = static_cast<char>(rng.Uniform(256));
        }
        break;
      }
    }
  }
  std::string script = EncodeDelta(base, target);
  auto result = ApplyDelta(base, script);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, target);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteDeltaPropertyTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace delta
}  // namespace neptune
