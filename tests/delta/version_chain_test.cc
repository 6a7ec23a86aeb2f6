#include "delta/version_chain.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/metrics.h"
#include "common/random.h"
#include "delta/recon_cache.h"

namespace neptune {
namespace delta {
namespace {

TEST(VersionChainTest, EmptyChainHasNoVersions) {
  VersionChain chain;
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.CurrentTime(), 0u);
  EXPECT_TRUE(chain.Get(0).status().IsNotFound());
}

TEST(VersionChainTest, SingleVersion) {
  VersionChain chain;
  ASSERT_TRUE(chain.Append(5, "contents v1", "created").ok());
  EXPECT_EQ(chain.version_count(), 1u);
  EXPECT_EQ(chain.CurrentTime(), 5u);
  EXPECT_EQ(*chain.Get(0), "contents v1");
  EXPECT_EQ(*chain.Get(5), "contents v1");
  EXPECT_EQ(*chain.Get(100), "contents v1");  // still in effect later
  EXPECT_TRUE(chain.Get(4).status().IsNotFound());  // predates creation
}

TEST(VersionChainTest, TimeZeroIsReserved) {
  VersionChain chain;
  EXPECT_TRUE(chain.Append(0, "x", "").IsInvalidArgument());
}

TEST(VersionChainTest, TimesMustStrictlyIncrease) {
  VersionChain chain;
  ASSERT_TRUE(chain.Append(10, "a", "").ok());
  EXPECT_TRUE(chain.Append(10, "b", "").IsInvalidArgument());
  EXPECT_TRUE(chain.Append(9, "b", "").IsInvalidArgument());
  ASSERT_TRUE(chain.Append(11, "b", "").ok());
}

TEST(VersionChainTest, EveryHistoricalVersionIsReconstructible) {
  VersionChain chain;
  std::vector<std::string> texts;
  std::string text = "The quick brown fox\njumps over the lazy dog\n";
  for (uint64_t t = 1; t <= 50; ++t) {
    text += "edit at time " + std::to_string(t) + "\n";
    if (t % 7 == 0) text.erase(0, 10);
    texts.push_back(text);
    ASSERT_TRUE(chain.Append(t, text, "edit " + std::to_string(t)).ok());
  }
  for (uint64_t t = 1; t <= 50; ++t) {
    auto got = chain.Get(t);
    ASSERT_TRUE(got.ok()) << t;
    EXPECT_EQ(*got, texts[t - 1]) << t;
  }
  EXPECT_EQ(*chain.Get(0), texts.back());
}

TEST(VersionChainTest, GetBetweenVersionTimesReturnsVersionInEffect) {
  VersionChain chain;
  ASSERT_TRUE(chain.Append(10, "ten", "").ok());
  ASSERT_TRUE(chain.Append(20, "twenty", "").ok());
  EXPECT_EQ(*chain.Get(15), "ten");
  EXPECT_EQ(*chain.Get(20), "twenty");
  EXPECT_EQ(*chain.Get(19), "ten");
}

TEST(VersionChainTest, VersionMetadataKeepsExplanations) {
  VersionChain chain;
  ASSERT_TRUE(chain.Append(1, "a", "first write").ok());
  ASSERT_TRUE(chain.Append(2, "b", "second write").ok());
  ASSERT_EQ(chain.versions().size(), 2u);
  EXPECT_EQ(chain.versions()[0].time, 1u);
  EXPECT_EQ(chain.versions()[0].explanation, "first write");
  EXPECT_EQ(chain.versions()[1].explanation, "second write");
}

TEST(VersionChainTest, BackwardDeltaStoresLessThanFullCopy) {
  Random rng(9);
  std::string text = rng.NextString(20000);
  VersionChain chain(ChainMode::kBackwardDelta);
  std::vector<std::string> texts;
  size_t full_copy_bytes = 0;  // what storing every version whole takes
  for (uint64_t t = 1; t <= 20; ++t) {
    text.insert(rng.Uniform(text.size()), "small edit");
    texts.push_back(text);
    full_copy_bytes += text.size();
    ASSERT_TRUE(chain.Append(t, text, "").ok());
  }
  // Every version reads back exactly...
  for (uint64_t t = 1; t <= 20; ++t) {
    EXPECT_EQ(*chain.Get(t), texts[t - 1]);
  }
  // ...but deltas take far less space (paper §3's design rationale).
  EXPECT_LT(chain.StoredBytes(), full_copy_bytes / 5);
}

TEST(VersionChainTest, CurrentOnlyModeKeepsNoHistory) {
  VersionChain chain(ChainMode::kCurrentOnly);
  ASSERT_TRUE(chain.Append(1, "v1", "").ok());
  ASSERT_TRUE(chain.Append(2, "v2", "").ok());
  EXPECT_EQ(chain.version_count(), 1u);  // only the latest remains
  EXPECT_EQ(*chain.Get(0), "v2");
  // File nodes ignore Time on reads.
  EXPECT_EQ(*chain.Get(1), "v2");
  EXPECT_EQ(chain.StoredBytes(), 2u);
}

TEST(VersionChainTest, EncodeDecodeRoundTrip) {
  for (ChainMode mode : {ChainMode::kBackwardDelta, ChainMode::kCurrentOnly}) {
    VersionChain chain(mode);
    std::string text = "base\n";
    for (uint64_t t = 1; t <= 10; ++t) {
      text += "line " + std::to_string(t) + "\n";
      ASSERT_TRUE(chain.Append(t, text, "e" + std::to_string(t)).ok());
    }
    std::string encoded;
    chain.EncodeTo(&encoded);
    std::string_view in = encoded;
    auto decoded = VersionChain::DecodeFrom(&in);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(decoded->mode(), mode);
    EXPECT_EQ(decoded->version_count(), chain.version_count());
    EXPECT_EQ(*decoded->Get(0), *chain.Get(0));
    if (mode != ChainMode::kCurrentOnly) {
      for (uint64_t t = 1; t <= 10; ++t) {
        EXPECT_EQ(*decoded->Get(t), *chain.Get(t));
      }
    }
  }
}

TEST(VersionChainTest, DecodeRejectsTruncation) {
  VersionChain chain;
  ASSERT_TRUE(chain.Append(1, "some contents here", "why").ok());
  ASSERT_TRUE(chain.Append(2, "more contents here", "why2").ok());
  std::string encoded;
  chain.EncodeTo(&encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    std::string_view in(encoded.data(), cut);
    auto decoded = VersionChain::DecodeFrom(&in);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

// Only the two production modes decode. Bytes 1 and 3 named the
// retired full-copy and forward-delta modes; each is tried in front of
// an otherwise valid body, plain and with the keyframe flag.
TEST(VersionChainTest, DecodeRejectsBadMode) {
  std::string garbage;
  garbage.push_back('\x09');
  std::string_view in = garbage;
  EXPECT_TRUE(VersionChain::DecodeFrom(&in).status().IsCorruption());

  VersionChain chain;
  ASSERT_TRUE(chain.Append(1, "first", "").ok());
  ASSERT_TRUE(chain.Append(2, "second", "").ok());
  std::string plain;
  chain.EncodeTo(&plain);
  chain.set_keyframe_interval(4);
  std::string keyframed;
  chain.EncodeTo(&keyframed);
  ASSERT_EQ(static_cast<uint8_t>(keyframed[0]), 0x80);
  for (uint8_t mode : {1, 3}) {
    for (std::string encoded : {plain, keyframed}) {
      encoded[0] = static_cast<char>(mode | (encoded[0] & 0x80));
      std::string_view bad = encoded;
      EXPECT_TRUE(VersionChain::DecodeFrom(&bad).status().IsCorruption())
          << "mode byte " << static_cast<int>(encoded[0] & 0xff);
    }
  }
}

// ------------------------------------------------------- keyframes

uint64_t DeltasAppliedCounter() {
  return MetricsRegistry::Instance()
      .GetCounter("delta.chain.deltas_applied")
      ->Value();
}

// Builds a chain of `n` versions at times 1..n with distinct contents.
VersionChain BuildChain(ChainMode mode, uint32_t interval, int n,
                        std::vector<std::string>* texts = nullptr) {
  VersionChain chain(mode);
  chain.set_keyframe_interval(interval);
  std::string text = "seed contents\n";
  for (int t = 1; t <= n; ++t) {
    text += "edit " + std::to_string(t) + "\n";
    if (t % 9 == 0) text.erase(0, 5);
    if (texts != nullptr) texts->push_back(text);
    EXPECT_TRUE(chain.Append(t, text, "").ok());
  }
  return chain;
}

TEST(VersionChainKeyframeTest, BackwardWalkIsBoundedByInterval) {
  ReconstructionCache::Instance().Clear();
  std::vector<std::string> texts;
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 16, 256, &texts);
  EXPECT_GT(chain.keyframe_count(), 10u);  // ~ one per 16 versions
  for (uint64_t t = 1; t <= 256; ++t) {
    ReconstructionCache::Instance().Clear();  // force real reconstructions
    const uint64_t before = DeltasAppliedCounter();
    auto got = chain.Get(t);
    ASSERT_TRUE(got.ok()) << t;
    EXPECT_EQ(*got, texts[t - 1]) << t;
    EXPECT_LE(DeltasAppliedCounter() - before, 16u) << t;
  }
}

TEST(VersionChainKeyframeTest, IntervalChangeMidChainStaysCorrect) {
  std::vector<std::string> texts;
  VersionChain chain(ChainMode::kBackwardDelta);
  std::string text = "x";
  for (uint64_t t = 1; t <= 60; ++t) {
    if (t == 20) chain.set_keyframe_interval(8);
    if (t == 40) chain.set_keyframe_interval(0);  // stop keyframing
    text += " v" + std::to_string(t);
    texts.push_back(text);
    ASSERT_TRUE(chain.Append(t, text, "").ok());
  }
  for (uint64_t t = 1; t <= 60; ++t) {
    ReconstructionCache::Instance().Clear();
    EXPECT_EQ(*chain.Get(t), texts[t - 1]) << t;
  }
}

TEST(VersionChainKeyframeTest, EncodeDecodeRoundTripKeepsKeyframes) {
  std::vector<std::string> texts;
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 4, 20, &texts);
  ASSERT_GT(chain.keyframe_count(), 0u);
  std::string encoded;
  chain.EncodeTo(&encoded);
  // New-format blobs carry the keyframe flag bit on the mode byte.
  EXPECT_NE(static_cast<uint8_t>(encoded[0]) & 0x80, 0);
  std::string_view in = encoded;
  auto decoded = VersionChain::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->keyframe_interval(), 4u);
  EXPECT_EQ(decoded->keyframe_count(), chain.keyframe_count());
  for (uint64_t t = 1; t <= 20; ++t) {
    ReconstructionCache::Instance().Clear();
    EXPECT_EQ(*decoded->Get(t), texts[t - 1]) << t;
  }
}

TEST(VersionChainKeyframeTest, ChainsWithoutKeyframesEncodeLegacyFormat) {
  VersionChain chain;  // interval 0, no keyframes
  ASSERT_TRUE(chain.Append(1, "a", "").ok());
  ASSERT_TRUE(chain.Append(2, "b", "").ok());
  std::string encoded;
  chain.EncodeTo(&encoded);
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]),
            static_cast<uint8_t>(ChainMode::kBackwardDelta));
}

TEST(VersionChainKeyframeTest, DecodeRejectsTruncatedKeyframeFormat) {
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 4, 12);
  std::string encoded;
  chain.EncodeTo(&encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    std::string_view in(encoded.data(), cut);
    auto decoded = VersionChain::DecodeFrom(&in);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(VersionChainKeyframeTest, DecodeRejectsOutOfRangeKeyframeIndex) {
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 4, 12);
  std::string encoded;
  chain.EncodeTo(&encoded);
  // Corrupt: claim an interval/keyframe section on a chain whose last
  // keyframe index exceeds the version count. Easiest to synthesize
  // from a legit blob by chopping versions is fiddly; instead encode a
  // tiny chain and splice a bogus keyframe header in front.
  std::string bogus;
  bogus.push_back(static_cast<char>(0x80));  // kBackwardDelta | flag
  bogus.push_back(4);                        // interval
  bogus.push_back(1);                        // one keyframe
  bogus.push_back(99);                       // index 99 (out of range)
  bogus.push_back(1);                        // contents length 1
  bogus.push_back('k');
  VersionChain small;
  ASSERT_TRUE(small.Append(1, "a", "").ok());
  std::string tail;
  small.EncodeTo(&tail);
  bogus.append(tail.substr(1));  // drop the legacy mode byte
  std::string_view in = bogus;
  auto decoded = VersionChain::DecodeFrom(&in);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

// Decodes `input` and, if that succeeds, reads every version. Returns
// whether the decode succeeded; a failed decode must be Corruption.
bool DecodeAndReadAll(std::string_view input) {
  auto decoded = VersionChain::DecodeFrom(&input);
  if (!decoded.ok()) {
    EXPECT_TRUE(decoded.status().IsCorruption())
        << decoded.status().ToString();
    return false;
  }
  for (const VersionInfo& v : decoded->versions()) {
    (void)decoded->Get(v.time);
    (void)decoded->Get(v.time + 1);
  }
  (void)decoded->Get(0);
  (void)decoded->Get(1);
  return true;
}

// Counts and lengths in a blob are untrusted: claims far beyond the
// bytes present fail cleanly instead of becoming huge allocations.
TEST(VersionChainTest, DecodeSurvivesHugeClaimedSizes) {
  const uint64_t huge = uint64_t{1} << 40;
  std::string versions;  // backward chain claiming 2^40 versions
  versions.push_back('\x00');
  PutLengthPrefixed(&versions, "current");
  PutVarint64(&versions, huge);
  EXPECT_FALSE(DecodeAndReadAll(versions));

  std::string keyframes;  // keyframe header claiming 2^40 keyframes
  keyframes.push_back('\x80');
  PutVarint32(&keyframes, 4);
  PutVarint64(&keyframes, huge);
  EXPECT_FALSE(DecodeAndReadAll(keyframes));

  std::string target;  // a delta whose header claims a 2^60-byte target
  target.push_back('\x00');
  PutLengthPrefixed(&target, "ab");
  PutVarint64(&target, 2);
  for (uint64_t t : {1, 2}) {
    PutVarint64(&target, t);
    PutLengthPrefixed(&target, "");
  }
  PutVarint64(&target, 1);
  std::string script;
  PutVarint64(&script, uint64_t{1} << 60);
  script += std::string("\x01\x00\x02", 3);  // COPY(0, 2)
  PutLengthPrefixed(&target, script);
  std::string_view in = target;
  auto decoded = VersionChain::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->Get(1).status().IsCorruption());
  EXPECT_EQ(*decoded->Get(2), "ab");

  // A claim four times the base, backed by 2^16 COPYs of the whole
  // base: replay stops once the output would pass the claimed length
  // instead of writing 64 MiB before the final length check.
  const std::string base(1024, 'b');
  std::string copies;
  copies.push_back('\x00');
  PutLengthPrefixed(&copies, base);
  PutVarint64(&copies, 2);
  for (uint64_t t : {1, 2}) {
    PutVarint64(&copies, t);
    PutLengthPrefixed(&copies, "");
  }
  PutVarint64(&copies, 1);
  std::string repeat;
  PutVarint64(&repeat, 4 * base.size());
  for (int i = 0; i < (1 << 16); ++i) {
    repeat.push_back('\x01');
    PutVarint64(&repeat, 0);
    PutVarint64(&repeat, base.size());
  }
  PutLengthPrefixed(&copies, repeat);
  in = copies;
  decoded = VersionChain::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->Get(1).status().IsCorruption());
  EXPECT_EQ(*decoded->Get(2), base);
}

// Append keeps version times nonzero and strictly increasing; a blob
// that breaks that is corrupt, not a chain with a scrambled history.
TEST(VersionChainTest, DecodeRejectsOutOfOrderTimes) {
  for (auto times : {std::vector<uint64_t>{0, 5}, std::vector<uint64_t>{5, 5},
                     std::vector<uint64_t>{7, 3}}) {
    std::string encoded;
    encoded.push_back('\x00');
    PutLengthPrefixed(&encoded, "current");
    PutVarint64(&encoded, times.size());
    for (uint64_t t : times) {
      PutVarint64(&encoded, t);
      PutLengthPrefixed(&encoded, "");
    }
    PutVarint64(&encoded, 1);  // one delta: the counts agree
    PutLengthPrefixed(&encoded, "");
    std::string_view in = encoded;
    EXPECT_TRUE(VersionChain::DecodeFrom(&in).status().IsCorruption())
        << times[0] << "," << times[1];
  }
}

// Seeded byte flips and truncations of encoded chains of both modes:
// every input either fails with Corruption or decodes into a chain
// whose every read returns (any status) without crashing.
TEST(VersionChainTest, DecodeSurvivesCorruptInput) {
  std::vector<std::string> blobs;
  for (uint32_t interval : {0u, 4u}) {
    std::string encoded;
    BuildChain(ChainMode::kBackwardDelta, interval, 24).EncodeTo(&encoded);
    blobs.push_back(std::move(encoded));
  }
  VersionChain file(ChainMode::kCurrentOnly);
  file.set_keyframe_interval(4);
  ASSERT_TRUE(file.Append(1, "file contents v1", "").ok());
  ASSERT_TRUE(file.Append(2, "file contents v2", "").ok());
  std::string encoded_file;
  file.EncodeTo(&encoded_file);
  blobs.push_back(std::move(encoded_file));

  Random rng(1017);
  size_t decoded_ok = 0;
  for (const std::string& blob : blobs) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string bad = blob;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        bad[rng.Uniform(bad.size())] ^= static_cast<char>(1 + rng.Uniform(255));
      }
      if (rng.OneIn(3)) bad.resize(rng.Uniform(bad.size()));
      if (DecodeAndReadAll(bad)) ++decoded_ok;
    }
  }
  // Flips inside contents and explanations still decode: the sweep
  // reaches the read path, not only the decoder's early exits.
  EXPECT_GT(decoded_ok, 0u);
}

// ------------------------------------------------- reconstruction cache

TEST(ReconCacheTest, SecondReadOfSameVersionHits) {
  ReconstructionCache& cache = ReconstructionCache::Instance();
  cache.Clear();
  std::vector<std::string> texts;
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 0, 50, &texts);
  Counter* hits = MetricsRegistry::Instance().GetCounter("delta.cache.hit");
  const uint64_t hits_before = hits->Value();
  EXPECT_EQ(*chain.Get(10), texts[9]);  // miss + insert
  EXPECT_GT(cache.EntryCount(), 0u);
  EXPECT_EQ(*chain.Get(10), texts[9]);  // hit
  EXPECT_GT(hits->Value(), hits_before);
  // The cached copy must be keyed by canonical time: asking for an
  // intermediate timestamp that resolves to version 10 also hits.
  std::string out;
  EXPECT_TRUE(cache.Lookup(chain.chain_id(), 10, &out));
  EXPECT_EQ(out, texts[9]);
}

TEST(ReconCacheTest, CurrentReadsBypassTheCache) {
  ReconstructionCache& cache = ReconstructionCache::Instance();
  cache.Clear();
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 0, 10);
  EXPECT_TRUE(chain.Get(0).ok());
  EXPECT_TRUE(chain.Get(10).ok());  // newest version: served directly
  EXPECT_EQ(cache.EntryCount(), 0u);
}

TEST(ReconCacheTest, ZeroCapacityDisablesCaching) {
  ReconstructionCache& cache = ReconstructionCache::Instance();
  const size_t restore = cache.capacity_bytes();
  cache.set_capacity_bytes(0);
  cache.Clear();
  std::vector<std::string> texts;
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 0, 20, &texts);
  EXPECT_EQ(*chain.Get(5), texts[4]);
  EXPECT_EQ(cache.EntryCount(), 0u);
  cache.set_capacity_bytes(restore);
}

TEST(ReconCacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  ReconstructionCache& cache = ReconstructionCache::Instance();
  const size_t restore = cache.capacity_bytes();
  cache.set_capacity_bytes(1 << 12);  // 512 bytes per shard
  cache.Clear();
  Random rng(7);
  for (uint64_t i = 1; i <= 200; ++i) {
    cache.Insert(/*chain_id=*/1000 + i, /*version_time=*/1,
                 rng.NextString(100));
  }
  EXPECT_LE(cache.SizeBytes(), size_t{1} << 12);
  EXPECT_LT(cache.EntryCount(), 200u);
  cache.set_capacity_bytes(restore);
  cache.Clear();
}

// ----------------------------------------------------------- pruning

TEST(VersionChainPruneTest, PruneWithKeyframesReindexesSurvivors) {
  std::vector<std::string> texts;
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 8, 64, &texts);
  const uint64_t id_before = chain.chain_id();
  const size_t stored_before = chain.StoredBytes();
  EXPECT_EQ(chain.PruneBefore(40), 39u);
  EXPECT_EQ(chain.version_count(), 25u);
  // Pruning re-ids the chain so stale cache entries cannot serve.
  EXPECT_NE(chain.chain_id(), id_before);
  EXPECT_LT(chain.StoredBytes(), stored_before);
  for (uint64_t t = 40; t <= 64; ++t) {
    ReconstructionCache::Instance().Clear();
    auto got = chain.Get(t);
    ASSERT_TRUE(got.ok()) << t;
    EXPECT_EQ(*got, texts[t - 1]) << t;
  }
  EXPECT_TRUE(chain.Get(39).status().IsNotFound());
  EXPECT_EQ(*chain.Get(0), texts.back());
  // Survivor keyframes were reindexed: appends and reads still agree.
  std::string text = texts.back();
  for (uint64_t t = 65; t <= 80; ++t) {
    text += " post-prune " + std::to_string(t);
    ASSERT_TRUE(chain.Append(t, text, "").ok());
    EXPECT_EQ(*chain.Get(t), text);
  }
  EXPECT_EQ(*chain.Get(40), texts[39]);
}

TEST(VersionChainPruneTest, CurrentOnlyPruneIsNoOp) {
  VersionChain chain(ChainMode::kCurrentOnly);
  ASSERT_TRUE(chain.Append(1, "v1", "").ok());
  ASSERT_TRUE(chain.Append(2, "v2", "").ok());
  EXPECT_EQ(chain.PruneBefore(2), 0u);
  EXPECT_EQ(*chain.Get(0), "v2");
}

TEST(VersionChainPruneTest, StaleCacheEntriesNotServedAfterPrune) {
  ReconstructionCache& cache = ReconstructionCache::Instance();
  cache.Clear();
  std::vector<std::string> texts;
  VersionChain chain = BuildChain(ChainMode::kBackwardDelta, 0, 30, &texts);
  EXPECT_EQ(*chain.Get(10), texts[9]);  // populates (old_id, 10)
  const uint64_t old_id = chain.chain_id();
  ASSERT_GT(chain.PruneBefore(20), 0u);
  // The pruned version is gone even though a stale entry exists for
  // the old id.
  std::string out;
  EXPECT_TRUE(cache.Lookup(old_id, 10, &out));  // stale entry, stale key
  EXPECT_TRUE(chain.Get(10).status().IsNotFound());
  // Fresh id has no entries until the next reconstruction.
  EXPECT_FALSE(cache.Lookup(chain.chain_id(), 10, &out));
}

// Property sweep: random edit histories reconstruct exactly with and
// without keyframes, after a codec round trip.
class VersionChainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionChainPropertyTest, RandomHistoriesReconstruct) {
  Random rng(31337 + GetParam());
  const uint32_t intervals[] = {0, 3, 8};
  VersionChain chain(ChainMode::kBackwardDelta);
  chain.set_keyframe_interval(intervals[GetParam() % 3]);
  std::vector<std::pair<uint64_t, std::string>> history;
  std::string text = rng.NextBytes(rng.Uniform(2000));
  uint64_t t = 0;
  const int versions = 2 + static_cast<int>(rng.Uniform(30));
  for (int v = 0; v < versions; ++v) {
    t += 1 + rng.Uniform(5);
    if (!text.empty() && rng.OneIn(3)) {
      text.erase(rng.Uniform(text.size()),
                 std::min<size_t>(rng.Uniform(200), text.size()));
    }
    text.insert(text.empty() ? 0 : rng.Uniform(text.size()),
                rng.NextBytes(rng.Uniform(300)));
    history.emplace_back(t, text);
    ASSERT_TRUE(chain.Append(t, text, "").ok());
  }
  // Codec round trip first.
  std::string encoded;
  chain.EncodeTo(&encoded);
  std::string_view in = encoded;
  auto decoded = VersionChain::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  for (const auto& [time, contents] : history) {
    EXPECT_EQ(*decoded->Get(time), contents) << "t=" << time;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionChainPropertyTest,
                         ::testing::Range(0, 20));

// ------------------------------------------------- shared history chunks

// A deterministic chain of `versions` small edits; times 10, 20, ...
VersionChain BuildChain(int versions, uint32_t keyframe_interval) {
  VersionChain chain(ChainMode::kBackwardDelta);
  chain.set_keyframe_interval(keyframe_interval);
  std::string text = "section header\n";
  for (int v = 1; v <= versions; ++v) {
    text += "line " + std::to_string(v) + "\n";
    if (v % 5 == 0) text.erase(0, std::min<size_t>(8, text.size()));
    EXPECT_TRUE(
        chain.Append(10 * v, text, "edit " + std::to_string(v)).ok());
  }
  return chain;
}

// Everything a reader can observe of a chain, at every time.
struct ChainView {
  std::vector<std::string> reads;  // Get(t) for t = 0 .. last + 10
  std::vector<std::pair<uint64_t, std::string>> versions;
  size_t stored_bytes = 0;
  std::string encoded;

  bool operator==(const ChainView&) const = default;
};

ChainView Observe(const VersionChain& chain) {
  ChainView view;
  for (uint64_t t = 0; t <= chain.CurrentTime() + 10; ++t) {
    Result<std::string> got = chain.Get(t);
    view.reads.push_back(got.ok() ? *got : "<" + got.status().ToString() + ">");
  }
  for (const VersionInfo& v : chain.versions()) {
    view.versions.emplace_back(v.time, v.explanation);
  }
  view.stored_bytes = chain.StoredBytes();
  chain.EncodeTo(&view.encoded);
  return view;
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

TEST(VersionChainSharingTest, CopyEditsLeaveTheOriginalUnchanged) {
  // 150 versions: two full chunks of version entries plus a tail.
  const VersionChain original = BuildChain(150, /*keyframe_interval=*/16);
  const ChainView before = Observe(original);

  VersionChain copy = original;
  // Appends across three chunk boundaries (150 -> 350 versions).
  std::string text = *copy.Get(0);
  for (int v = 151; v <= 350; ++v) {
    text += "copy line " + std::to_string(v) + "\n";
    ASSERT_TRUE(copy.Append(10 * v, text, "copy edit").ok());
  }
  EXPECT_EQ(*copy.Get(3500), text);
  EXPECT_EQ(Observe(original), before);

  // Pruning the copy drops its own prefix, not the shared chunks, and
  // every read at or after the horizon is unchanged.
  std::vector<std::string> kept_reads;
  for (uint64_t t = 10 * 200; t <= 3510; ++t) {
    kept_reads.push_back(*copy.Get(t));
  }
  EXPECT_EQ(copy.PruneBefore(10 * 200), 199u);
  for (uint64_t t = 10 * 200; t <= 3510; ++t) {
    EXPECT_EQ(*copy.Get(t), kept_reads[t - 10 * 200]) << t;
  }
  EXPECT_TRUE(copy.Get(10 * 200 - 1).status().IsNotFound());
  EXPECT_EQ(Observe(original), before);

  // And the original stays writable on its own line of history.
  VersionChain sibling = original;
  ASSERT_TRUE(sibling.Append(10 * 151, "sibling", "other edit").ok());
  EXPECT_EQ(Observe(original), before);
  EXPECT_EQ(*sibling.Get(10 * 150), original.Current());
}

TEST(VersionChainSharingTest, UnversionedReplaceOnACopyLeavesTheOriginal) {
  VersionChain original(ChainMode::kCurrentOnly);
  ASSERT_TRUE(original.Append(10, "file contents", "created").ok());
  const ChainView before = Observe(original);
  VersionChain copy = original;
  ASSERT_TRUE(copy.Append(20, "replaced", "write").ok());
  EXPECT_EQ(*copy.Get(0), "replaced");
  EXPECT_EQ(Observe(original), before);
}

TEST(VersionChainSharingTest, CopyDuplicatesOnlyContentsAndTails) {
  // Beyond the current contents, the bytes a copy duplicates are the
  // unshared tails, full in both chains: the version count is 4x.
  const VersionChain shallow = BuildChain(64 * 16, 16);
  const VersionChain deep = BuildChain(64 * 64, 16);
  const size_t shallow_tails = shallow.CopyBytes() - shallow.Current().size();
  const size_t deep_tails = deep.CopyBytes() - deep.Current().size();
  EXPECT_LT(deep_tails, shallow_tails + shallow_tails / 4);
  EXPECT_LT(deep.CopyBytes(), deep.StoredBytes() / 16);
}

// Chains that span chunk boundaries encode exactly as the flat-vector
// representation did: the fingerprints were recorded before histories
// were chunked. Snapshot and WAL bytes are unchanged.
TEST(VersionChainSharingTest, ChunkedChainsEncodeToGoldenBytes) {
  struct Golden {
    int versions;
    uint32_t keyframe_interval;
    size_t size;
    uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {63, 0, 1545, 16566213596377995047ull},
      {64, 16, 2270, 5265586364038558697ull},
      {65, 16, 2297, 16498375562948403412ull},
      {200, 16, 13796, 10060731290080346387ull},
      {300, 0, 7970, 2835032045064428109ull},
  };
  for (const Golden& g : goldens) {
    VersionChain chain = BuildChain(g.versions, g.keyframe_interval);
    std::string encoded;
    chain.EncodeTo(&encoded);
    EXPECT_EQ(encoded.size(), g.size) << g.versions;
    EXPECT_EQ(Fingerprint(encoded), g.fingerprint) << g.versions;
    // Pruned chains (survivors re-chunked) round-trip too.
    chain.PruneBefore(10 * (g.versions / 2));
    std::string pruned;
    chain.EncodeTo(&pruned);
    std::string_view in = pruned;
    Result<VersionChain> decoded = VersionChain::DecodeFrom(&in);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(Observe(*decoded), Observe(chain));
  }
}

}  // namespace
}  // namespace delta
}  // namespace neptune
