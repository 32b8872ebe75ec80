#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "model/pair_set.h"

namespace progres {
namespace {

TEST(PairSetTest, InsertContainsErase) {
  PairSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(MakePairKey(1, 2)));
  EXPECT_FALSE(set.erase(MakePairKey(1, 2)));
  EXPECT_TRUE(set.insert(MakePairKey(1, 2)));
  EXPECT_FALSE(set.insert(MakePairKey(2, 1)));
  EXPECT_TRUE(set.contains(MakePairKey(2, 1)));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.erase(MakePairKey(1, 2)));
  EXPECT_FALSE(set.contains(MakePairKey(1, 2)));
  EXPECT_TRUE(set.empty());
}

// Key of the pair (low, high) for ids drawn by one of three patterns:
// uniform over a small id range (collisions and re-inserts), one low id
// with consecutive high ids (the keys of one entity's block neighbours),
// and consecutive low ids with one high id.
PairKey DrawKey(Rng* rng, int pattern, EntityId base) {
  const auto offset = static_cast<EntityId>(rng->UniformU64(600));
  switch (pattern) {
    case 0:
      return MakePairKey(static_cast<EntityId>(rng->UniformU64(50)),
                         50 + static_cast<EntityId>(rng->UniformU64(50)));
    case 1:
      return MakePairKey(base, base + 1 + offset);
    default:
      return MakePairKey(base + offset, base + 1000);
  }
}

// Seeded random operation sequences, each checked step by step against
// std::unordered_set: grow phases, then erase-heavy phases that cut the set
// back (as a checkpoint restore does) and regrow it.
TEST(PairSetTest, MatchesUnorderedSetOnRandomSequences) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    PairSet set;
    std::unordered_set<PairKey> reference;
    std::vector<PairKey> inserted;
    const int pattern = static_cast<int>(seed % 3);
    const auto base = static_cast<EntityId>(rng.UniformU64(1u << 30));
    for (int phase = 0; phase < 8; ++phase) {
      const double erase_share = phase % 2 == 0 ? 0.1 : 0.8;
      for (int op = 0; op < 1500; ++op) {
        const double roll = rng.UniformDouble();
        PairKey key = DrawKey(&rng, pattern, base);
        if (roll < erase_share) {
          // Mostly erase a present key, sometimes an absent one.
          if (!inserted.empty() && rng.Bernoulli(0.8)) {
            key = inserted[rng.UniformU64(inserted.size())];
          }
          ASSERT_EQ(set.erase(key), reference.erase(key) == 1)
              << "seed " << seed << " erase " << key;
        } else if (roll < 0.7) {
          ASSERT_EQ(set.insert(key), reference.insert(key).second)
              << "seed " << seed << " insert " << key;
          inserted.push_back(key);
        } else {
          ASSERT_EQ(set.contains(key), reference.count(key) == 1)
              << "seed " << seed << " contains " << key;
        }
        ASSERT_EQ(set.size(), reference.size());
      }
      // Every key ever inserted agrees after the phase, present or erased.
      for (const PairKey key : inserted) {
        ASSERT_EQ(set.contains(key), reference.count(key) == 1)
            << "seed " << seed << " phase " << phase << " key " << key;
      }
    }
  }
}

// Erasing everything in insertion-reversed order (a restore truncating a
// log) leaves an empty set that still finds nothing and accepts every key
// again.
TEST(PairSetTest, TruncatingTheInsertionLogEmptiesTheSet) {
  PairSet set;
  std::vector<PairKey> log;
  for (EntityId high = 1; high <= 5000; ++high) {
    const PairKey key = MakePairKey(7, 7 + high);
    ASSERT_TRUE(set.insert(key));
    log.push_back(key);
  }
  for (size_t i = log.size(); i-- > 2500;) ASSERT_TRUE(set.erase(log[i]));
  EXPECT_EQ(set.size(), 2500u);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(set.contains(log[i]), i < 2500) << i;
  }
  for (size_t i = 2500; i-- > 0;) ASSERT_TRUE(set.erase(log[i]));
  EXPECT_TRUE(set.empty());
  for (const PairKey key : log) ASSERT_FALSE(set.contains(key));
  for (const PairKey key : log) ASSERT_TRUE(set.insert(key));
  EXPECT_EQ(set.size(), log.size());
}

}  // namespace
}  // namespace progres
