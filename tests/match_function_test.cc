#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/generators.h"
#include "similarity/match_function.h"

namespace progres {
namespace {

Entity MakeEntity(EntityId id, std::vector<std::string> attributes) {
  Entity e;
  e.id = id;
  e.attributes = std::move(attributes);
  return e;
}

TEST(MatchFunctionTest, IdenticalEntitiesMatch) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.9);
  const Entity a = MakeEntity(0, {"progressive resolution"});
  const Entity b = MakeEntity(1, {"progressive resolution"});
  EXPECT_TRUE(match.Resolve(a, b));
  EXPECT_DOUBLE_EQ(match.Similarity(a, b), 1.0);
}

TEST(MatchFunctionTest, DissimilarEntitiesDoNotMatch) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.8);
  EXPECT_FALSE(match.Resolve(MakeEntity(0, {"aaaaaaaa"}),
                             MakeEntity(1, {"zzzzzzzz"})));
}

TEST(MatchFunctionTest, WeightedSumCombinesAttributes) {
  // Attribute 0 identical (weight 3), attribute 1 disjoint (weight 1):
  // similarity = 3/4.
  MatchFunction match({{0, AttributeSimilarity::kExact, 3.0, 0},
                       {1, AttributeSimilarity::kExact, 1.0, 0}},
                      0.7);
  const Entity a = MakeEntity(0, {"same", "xxx"});
  const Entity b = MakeEntity(1, {"same", "yyy"});
  EXPECT_DOUBLE_EQ(match.Similarity(a, b), 0.75);
  EXPECT_TRUE(match.Resolve(a, b));
}

TEST(MatchFunctionTest, ExactComparatorIsBinary) {
  MatchFunction match({{0, AttributeSimilarity::kExact, 1.0, 0}}, 0.5);
  EXPECT_DOUBLE_EQ(
      match.Similarity(MakeEntity(0, {"abcd"}), MakeEntity(1, {"abce"})), 0.0);
}

TEST(MatchFunctionTest, MaxCharsTruncatesComparison) {
  // Strings differ only after the 4th character; with max_chars=4 they are
  // identical (the paper truncates abstracts to 350 chars the same way).
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 4}}, 0.99);
  EXPECT_TRUE(match.Resolve(MakeEntity(0, {"abcdXXXX"}),
                            MakeEntity(1, {"abcdYYYY"})));
}

TEST(MatchFunctionTest, BothMissingValuesCountAsSimilar) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.9);
  EXPECT_TRUE(match.Resolve(MakeEntity(0, {""}), MakeEntity(1, {""})));
}

TEST(MatchFunctionTest, OneMissingValueCountsAsDissimilar) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.5);
  EXPECT_FALSE(match.Resolve(MakeEntity(0, {"value"}), MakeEntity(1, {""})));
}

TEST(MatchFunctionTest, CountsComparisons) {
  MatchFunction match({{0, AttributeSimilarity::kExact, 1.0, 0}}, 0.5);
  const Entity a = MakeEntity(0, {"x"});
  const Entity b = MakeEntity(1, {"x"});
  EXPECT_EQ(match.comparisons(), 0);
  match.Resolve(a, b);
  match.Resolve(a, b);
  EXPECT_EQ(match.comparisons(), 2);
  match.ResetCounter();
  EXPECT_EQ(match.comparisons(), 0);
}

TEST(MatchFunctionTest, SimilarityDoesNotCount) {
  MatchFunction match({{0, AttributeSimilarity::kExact, 1.0, 0}}, 0.5);
  match.Similarity(MakeEntity(0, {"x"}), MakeEntity(1, {"x"}));
  EXPECT_EQ(match.comparisons(), 0);
}

// Sanity on generated data: corrupted duplicates must mostly clear the
// threshold while random non-duplicates must mostly fail it; otherwise the
// figure reproductions cannot reach the paper's recall levels.
TEST(MatchFunctionTest, SeparatesGeneratedDuplicatesFromDistinct) {
  PublicationConfig config;
  config.num_entities = 2000;
  config.seed = 99;
  const LabeledDataset data = GeneratePublications(config);
  MatchFunction match({{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
                       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3,
                        350},
                       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
                      0.75);
  int64_t dup_hits = 0;
  int64_t dup_total = 0;
  for (PairKey pair : data.truth.AllDuplicatePairs()) {
    const auto [a, b] = PairKeyIds(pair);
    ++dup_total;
    if (match.Resolve(data.dataset.entity(a), data.dataset.entity(b))) {
      ++dup_hits;
    }
  }
  ASSERT_GT(dup_total, 100);
  EXPECT_GT(static_cast<double>(dup_hits) / static_cast<double>(dup_total),
            0.9);

  // Random non-duplicate pairs must rarely match.
  Rng rng(5);
  int64_t false_hits = 0;
  int64_t distinct_total = 0;
  while (distinct_total < 2000) {
    const EntityId a =
        static_cast<EntityId>(rng.UniformU64(static_cast<uint64_t>(data.dataset.size())));
    const EntityId b =
        static_cast<EntityId>(rng.UniformU64(static_cast<uint64_t>(data.dataset.size())));
    if (a == b || data.truth.IsDuplicate(a, b)) continue;
    ++distinct_total;
    if (match.Resolve(data.dataset.entity(a), data.dataset.entity(b))) {
      ++false_hits;
    }
  }
  EXPECT_LT(static_cast<double>(false_hits) /
                static_cast<double>(distinct_total),
            0.01);
}

// ---- Differential test: Resolve against the ordered early-exit loop ----

// The decision Resolve must reproduce bit for bit: rules summed heaviest
// weight first (stable), each contributing weight * similarity, stopping
// once the sum reaches the threshold or the remaining weight cannot reach
// it. A rule's similarity is taken from a one-rule MatchFunction with weight
// 1, whose Similarity is that similarity exactly.
bool OrderedReference(const std::vector<AttributeRule>& rules,
                      double threshold, const Entity& a, const Entity& b) {
  double total = 0.0;
  for (const AttributeRule& r : rules) total += r.weight;
  if (total <= 0.0) total = 1.0;
  std::vector<size_t> order(rules.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return rules[x].weight > rules[y].weight;
  });
  const double need = threshold * total;
  double sum = 0.0;
  double remaining = total;
  for (const size_t i : order) {
    AttributeRule unit = rules[i];
    unit.weight = 1.0;
    remaining -= rules[i].weight;
    sum += rules[i].weight * MatchFunction({unit}, 0.0).Similarity(a, b);
    if (sum >= need) return true;
    if (sum + remaining < need) return false;
  }
  return sum >= need;
}

// Checks Resolve against OrderedReference on every pair; returns the number
// of pairs checked.
int64_t ExpectSameDecisions(
    const MatchFunction& match,
    const std::vector<std::pair<const Entity*, const Entity*>>& pairs) {
  int64_t mismatches = 0;
  for (const auto& [a, b] : pairs) {
    const bool got = match.Resolve(*a, *b);
    if (got != OrderedReference(match.rules(), match.threshold(), *a, *b) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << "entities " << a->id << " and " << b->id
                    << ": Resolve says " << got << " at threshold "
                    << match.threshold();
    }
  }
  EXPECT_EQ(mismatches, 0);
  return static_cast<int64_t>(pairs.size());
}

// Candidate pairs of a generated dataset: each entity with its next
// `window - 1` neighbours in `attribute` order (the pairs a blocking pass
// compares), every true duplicate pair, and `random` uniform pairs.
std::vector<std::pair<const Entity*, const Entity*>> GeneratedPairs(
    const LabeledDataset& data, int attribute, size_t window, int random) {
  const Dataset& d = data.dataset;
  std::vector<const Entity*> sorted;
  for (const Entity& e : d.entities()) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const Entity* x, const Entity* y) {
                     return x->attribute(static_cast<size_t>(attribute)) <
                            y->attribute(static_cast<size_t>(attribute));
                   });
  std::vector<std::pair<const Entity*, const Entity*>> pairs;
  for (size_t i = 0; i < sorted.size(); ++i) {
    for (size_t j = i + 1; j < std::min(sorted.size(), i + window); ++j) {
      pairs.emplace_back(sorted[i], sorted[j]);
    }
  }
  for (const PairKey key : data.truth.AllDuplicatePairs()) {
    const auto [a, b] = PairKeyIds(key);
    pairs.emplace_back(&d.entity(a), &d.entity(b));
  }
  Rng rng(17);
  for (int i = 0; i < random; ++i) {
    const auto a = static_cast<EntityId>(rng.UniformU64(
        static_cast<uint64_t>(d.size())));
    const auto b = static_cast<EntityId>(rng.UniformU64(
        static_cast<uint64_t>(d.size())));
    pairs.emplace_back(&d.entity(a), &d.entity(b));
  }
  return pairs;
}

TEST(MatchFunctionDifferentialTest, GeneratedBooksUnderCliRules) {
  BookConfig config;
  config.num_entities = 3000;
  config.seed = 5;
  const LabeledDataset data = GenerateBooks(config);
  // progres_cli's book rule set, at its threshold and two others.
  const std::vector<AttributeRule> rules = {
      {kBookTitle, AttributeSimilarity::kEditDistance, 0.35, 0},
      {kBookAuthors, AttributeSimilarity::kEditDistance, 0.2, 0},
      {kBookPublisher, AttributeSimilarity::kEditDistance, 0.1, 0},
      {kBookYear, AttributeSimilarity::kExact, 0.1, 0},
      {kBookIsbn, AttributeSimilarity::kEditDistance, 0.1, 0},
      {kBookPages, AttributeSimilarity::kExact, 0.05, 0},
      {kBookLanguage, AttributeSimilarity::kExact, 0.05, 0},
      {kBookEdition, AttributeSimilarity::kExact, 0.05, 0}};
  const auto pairs = GeneratedPairs(data, kBookTitle, 12, 5000);
  int64_t checked = 0;
  for (const double threshold : {0.75, 0.5, 0.9}) {
    checked += ExpectSameDecisions(MatchFunction(rules, threshold), pairs);
  }
  EXPECT_GE(checked, 100000);
}

TEST(MatchFunctionDifferentialTest, GeneratedPublicationsUnderCliRules) {
  PublicationConfig config;
  config.num_entities = 3000;
  config.seed = 6;
  const LabeledDataset data = GeneratePublications(config);
  const MatchFunction match(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
  EXPECT_GE(ExpectSameDecisions(match, GeneratedPairs(data, kPubTitle, 10,
                                                      3000)),
            30000);
}

// A value drawn around `base`: equal, truncated, extended, edited, empty,
// or numeric, so every rule kind sees equal, close, far and one-sided-empty
// inputs.
std::string Variant(Rng* rng, const std::string& base) {
  switch (rng->UniformU64(8)) {
    case 0:
      return "";
    case 1:
      return base.substr(0, rng->UniformU64(base.size() + 1));
    case 2:
      return base + std::string(rng->UniformU64(6), 'z');
    case 3: {
      std::string s = base;
      for (int k = 0; k < 3 && !s.empty(); ++k) {
        s[rng->UniformU64(s.size())] =
            static_cast<char>('a' + rng->UniformU64(4));
      }
      return s;
    }
    case 4:
      return std::to_string(rng->UniformInt(0, 20));
    default:
      return base;
  }
}

TEST(MatchFunctionDifferentialTest, RandomRuleSetsAndThresholdTies) {
  Rng rng(2024);
  constexpr int kAttributes = 5;
  const AttributeSimilarity kinds[] = {
      AttributeSimilarity::kEditDistance, AttributeSimilarity::kExact,
      AttributeSimilarity::kJaroWinkler, AttributeSimilarity::kNumeric};
  const double weights[] = {0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 3.0, 1.0 / 3.0};
  int64_t checked = 0;
  int64_t ties = 0;
  for (int set = 0; set < 400; ++set) {
    std::vector<AttributeRule> rules(1 + rng.UniformU64(6));
    for (AttributeRule& r : rules) {
      r.attribute_index = static_cast<int>(rng.UniformU64(kAttributes + 1));
      r.similarity = kinds[rng.UniformU64(4)];
      r.weight = rng.Bernoulli(0.3) ? rng.UniformDouble()
                                    : weights[rng.UniformU64(8)];
      r.max_chars = rng.Bernoulli(0.3) ? static_cast<int>(rng.UniformU64(8))
                                       : 0;
      r.numeric_scale = 1.0 + static_cast<double>(rng.UniformU64(10));
    }
    // A few sets take the unfiltered path: a negative or infinite weight.
    if (set % 50 == 7) rules[0].weight = -0.25;
    if (set % 50 == 23) {
      rules[0].weight = std::numeric_limits<double>::infinity();
    }

    std::vector<Entity> entities(40);
    std::vector<std::string> bases(kAttributes);
    for (std::string& base : bases) {
      base.resize(rng.UniformU64(30));
      for (char& c : base) c = static_cast<char>('a' + rng.UniformU64(4));
    }
    for (size_t i = 0; i < entities.size(); ++i) {
      entities[i].id = static_cast<EntityId>(i);
      for (const std::string& base : bases) {
        entities[i].attributes.push_back(Variant(&rng, base));
      }
    }
    std::vector<std::pair<const Entity*, const Entity*>> pairs;
    for (size_t i = 0; i < entities.size(); ++i) {
      for (size_t j = i + 1; j < entities.size(); ++j) {
        pairs.emplace_back(&entities[i], &entities[j]);
      }
    }
    const double threshold = rng.UniformDouble() * 1.1;
    checked += ExpectSameDecisions(MatchFunction(rules, threshold), pairs);

    // Thresholds that the pair's own weighted sum lands on, and one ulp to
    // either side: the decision then rests on rounding.
    const MatchFunction scorer(rules, 0.0);
    for (size_t k = 0; k < 20; ++k) {
      const auto& [a, b] = pairs[rng.UniformU64(pairs.size())];
      const double on = scorer.Similarity(*a, *b);
      for (const double t : {on, std::nextafter(on, 0.0),
                             std::nextafter(on, 2.0)}) {
        checked += ExpectSameDecisions(MatchFunction(rules, t), {{a, b}});
        ++ties;
      }
    }
  }
  EXPECT_GE(checked, 300000);
  EXPECT_GE(ties, 20000);
}

// Weighted sums that equal the threshold exactly, or miss it by one ulp in
// floating point: the decision is the ordered loop's, not the real sum's.
TEST(MatchFunctionDifferentialTest, ConstructedThresholdTies) {
  const Entity a = MakeEntity(0, {"same", "abcd", "x", "ab", "", "7"});
  const Entity b = MakeEntity(1, {"same", "abcf", "y", "ab", "q", "9"});
  // Contributions: 1 * w0 (equal), 0.75 * w1 (one edit in four), 0 * w2,
  // 1 * w3, 0 * w4 (one side empty), numeric |7 - 9| / 4 = 0.5 * w5.
  const std::vector<AttributeRule> rules = {
      {0, AttributeSimilarity::kExact, 0.1, 0},
      {1, AttributeSimilarity::kEditDistance, 0.2, 0},
      {2, AttributeSimilarity::kExact, 0.3, 0},
      {3, AttributeSimilarity::kEditDistance, 0.2, 0},
      {4, AttributeSimilarity::kEditDistance, 0.1, 0},
      {5, AttributeSimilarity::kNumeric, 0.1, 0, 4.0}};
  const MatchFunction scorer(rules, 0.0);
  const double on = scorer.Similarity(a, b);
  int64_t checked = 0;
  for (double t = on - 1e-8; t <= on + 1e-8; t += 1e-10) {
    checked += ExpectSameDecisions(MatchFunction(rules, t), {{&a, &b}});
  }
  for (const double t : {on, 0.1 + 0.15 + 0.2 + 0.05, 0.5, 0.4999999999999999,
                         0.5000000000000001}) {
    checked += ExpectSameDecisions(MatchFunction(rules, t), {{&a, &b}});
  }
  // 0.1 + 0.2 != 0.3 in floating point: a threshold of 0.3 under these two
  // exact rules tips on the summation order.
  const std::vector<AttributeRule> thirds = {
      {0, AttributeSimilarity::kExact, 0.2, 0},
      {3, AttributeSimilarity::kExact, 0.1, 0},
      {1, AttributeSimilarity::kExact, 0.7, 0}};
  for (const double t : {0.3, std::nextafter(0.3, 1.0),
                         std::nextafter(0.3, 0.0), 0.30000000000000004}) {
    checked += ExpectSameDecisions(MatchFunction(thirds, t), {{&a, &b}});
  }
  EXPECT_GT(checked, 200);
}

}  // namespace
}  // namespace progres
