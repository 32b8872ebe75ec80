#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/forest.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "estimate/annotated_forest.h"
#include "estimate/prob_model.h"

namespace progres {
namespace {

struct Fixture {
  LabeledDataset data;
  BlockingConfig config{std::vector<FamilySpec>{}};
  std::vector<Forest> forests;
  ProbabilityModel prob;
  EstimateParams params;

  explicit Fixture(int64_t n = 3000, uint64_t seed = 31) {
    PublicationConfig gen;
    gen.num_entities = n;
    gen.seed = seed;
    data = GeneratePublications(gen);
    config = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                             {"Y", kPubAbstract, {3, 5}, -1},
                             {"Z", kPubVenue, {3, 5}, -1}});
    forests = BuildForests(data.dataset, config, /*keep_members=*/false);
    ComputeUncoveredPairs(data.dataset, config, &forests);
    prob = ProbabilityModel::Train(data.dataset, data.truth, config);
  }

  std::vector<AnnotatedForest> Annotate() {
    return AnnotateForests(forests, params, prob, data.dataset.size());
  }
};

TEST(AnnotatedForestTest, SmallBlocksEliminated) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.size < 2) {
        EXPECT_TRUE(b.eliminated);
      }
    }
  }
}

TEST(AnnotatedForestTest, EqualSizeChainsCollapse) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated || b.parent < 0) continue;
      const AnnotatedBlock& parent = forest.block(b.parent);
      // Surviving blocks always hang off surviving, strictly larger parents.
      EXPECT_FALSE(parent.eliminated);
      EXPECT_LT(b.size, parent.size);
    }
  }
}

TEST(AnnotatedForestTest, EliminatedParentsRedirectToSurvivor) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (!b.eliminated || b.redirect < 0) continue;
      const AnnotatedBlock& target = forest.block(b.redirect);
      EXPECT_EQ(target.size, b.size);
      const int found = forest.Find(b.id.path);
      ASSERT_GE(found, 0);
      EXPECT_FALSE(forest.block(found).eliminated);
    }
  }
}

TEST(AnnotatedForestTest, EstimatesAreFinite) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated) continue;
      EXPECT_GE(b.dup, 0.0) << b.id.path;
      EXPECT_GE(b.remain, 0.0);
      EXPECT_GE(b.dis, 0.0);
      EXPECT_GT(b.cost, 0.0);
      EXPECT_GE(b.util, 0.0);
      EXPECT_EQ(b.th, b.size);  // Th(X) = |X|
    }
  }
}

TEST(AnnotatedForestTest, PolicyFollowsPosition) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated) continue;
      if (b.tree_root) {
        EXPECT_EQ(b.window, fx.params.window_root);
        EXPECT_DOUBLE_EQ(b.frac, 1.0);
      } else if (b.is_leaf()) {
        EXPECT_EQ(b.window, fx.params.window_leaf);
        EXPECT_DOUBLE_EQ(b.frac, fx.params.frac_leaf);
      }
    }
  }
}

TEST(AnnotatedForestTest, TreeBlocksIsBottomUp) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int root : forest.tree_roots()) {
      const std::vector<int> order = forest.TreeBlocks(root);
      ASSERT_FALSE(order.empty());
      EXPECT_EQ(order.back(), root);  // root last
      std::unordered_map<int, size_t> position;
      for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
      for (int n : order) {
        const AnnotatedBlock& b = forest.block(n);
        if (n == root) continue;
        ASSERT_TRUE(position.count(b.parent));
        EXPECT_LT(position[n], position[b.parent]);
      }
    }
  }
}

TEST(AnnotatedForestTest, SplitCreatesNewTree) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  AnnotatedForest& forest = forests[0];

  // Find a root with an in-tree child.
  int root = -1;
  int child = -1;
  for (int r : forest.tree_roots()) {
    for (int c : forest.block(r).children) {
      if (!forest.block(c).eliminated && !forest.block(c).tree_root) {
        root = r;
        child = c;
        break;
      }
    }
    if (child >= 0) break;
  }
  ASSERT_GE(child, 0);

  const size_t roots_before = forest.tree_roots().size();
  const int64_t root_cov_before = forest.block(root).cov;
  const int64_t child_cov = forest.block(child).cov;
  forest.SplitSubtree(child);

  EXPECT_TRUE(forest.block(child).tree_root);
  EXPECT_EQ(forest.tree_roots().size(), roots_before + 1);
  EXPECT_EQ(forest.block(root).cov,
            std::max<int64_t>(0, root_cov_before - child_cov));
  EXPECT_EQ(forest.FindTreeRoot(child), child);
  // The split child is now resolved fully.
  EXPECT_EQ(forest.block(child).window, fx.params.window_root);
  EXPECT_DOUBLE_EQ(forest.block(child).frac, 1.0);
  // The old tree no longer descends into the split subtree.
  for (int n : forest.TreeBlocks(root)) EXPECT_NE(n, child);
}

TEST(AnnotatedForestTest, SplitIncreasesChildCost) {
  // Resolving fully costs more than resolving partially (the "high reduction
  // in the utility value" the paper warns about).
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  AnnotatedForest& forest = forests[0];
  for (int r : forest.tree_roots()) {
    for (int c : forest.block(r).children) {
      const AnnotatedBlock& cb = forest.block(c);
      if (cb.eliminated || cb.tree_root || cb.size < 50) continue;
      const double cost_before = cb.cost;
      const double util_before = cb.util;
      forest.SplitSubtree(c);
      EXPECT_GT(forest.block(c).cost, cost_before);
      EXPECT_LE(forest.block(c).util, util_before + 1e-9);
      return;
    }
  }
  GTEST_SKIP() << "no sufficiently large child found";
}

TEST(AnnotatedForestTest, SplitIsIdempotent) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  AnnotatedForest& forest = forests[0];
  int child = -1;
  for (int r : forest.tree_roots()) {
    for (int c : forest.block(r).children) {
      if (!forest.block(c).eliminated && !forest.block(c).tree_root) {
        child = c;
        break;
      }
    }
    if (child >= 0) break;
  }
  ASSERT_GE(child, 0);
  forest.SplitSubtree(child);
  const size_t roots = forest.tree_roots().size();
  forest.SplitSubtree(child);  // no-op
  EXPECT_EQ(forest.tree_roots().size(), roots);
}

TEST(AnnotatedForestTest, DupOnPairsOptionChangesDValue) {
  Fixture fx;
  fx.params.dup_on_covered = true;
  const std::vector<AnnotatedForest> covered = fx.Annotate();
  fx.params.dup_on_covered = false;
  const std::vector<AnnotatedForest> pairs = fx.Annotate();
  // With d on Pairs(|X|), d_value can only be >= the covered variant
  // (cov <= Pairs).
  bool found_difference = false;
  for (int f = 0; f < static_cast<int>(covered.size()); ++f) {
    for (int n = 0; n < covered[static_cast<size_t>(f)].num_blocks(); ++n) {
      const AnnotatedBlock& a = covered[static_cast<size_t>(f)].block(n);
      const AnnotatedBlock& b = pairs[static_cast<size_t>(f)].block(n);
      if (a.eliminated) continue;
      EXPECT_LE(a.d_value, b.d_value + 1e-9);
      if (a.d_value < b.d_value - 1e-9) found_difference = true;
    }
  }
  EXPECT_TRUE(found_difference);
}

// The lookup Find replaces: the statistics forest's path map, then the
// equal-size-collapse redirects of the annotated blocks.
int ReferenceFind(const Forest& forest, const AnnotatedForest& annotated,
                  const std::string& path) {
  const auto it = forest.by_path.find(path);
  if (it == forest.by_path.end()) return -1;
  int n = it->second;
  while (annotated.block(n).eliminated) {
    n = annotated.block(n).redirect;
    if (n < 0) return -1;
  }
  return n;
}

TEST(AnnotatedForestTest, FindMatchesPathMapWithRedirects) {
  Fixture fx;
  const std::vector<AnnotatedForest> annotated = fx.Annotate();
  Rng rng(77);
  int64_t singletons = 0;
  int64_t collapsed = 0;
  int64_t checked = 0;
  const auto check = [&](const Forest& forest, const AnnotatedForest& a,
                         const std::string& path) {
    ASSERT_EQ(a.Find(path), ReferenceFind(forest, a, path))
        << "family " << a.family() << ", path \"" << path << "\"";
    ++checked;
  };
  for (size_t f = 0; f < annotated.size(); ++f) {
    const Forest& forest = fx.forests[f];
    const AnnotatedForest& a = annotated[f];
    // Every block path: singletons (never resolve), collapsed parents
    // (resolve through their redirect chain) and survivors — plus near
    // misses one byte off each.
    for (const auto& [path, node] : forest.by_path) {
      if (a.block(node).size < 2) ++singletons;
      if (a.block(node).redirect >= 0) ++collapsed;
      check(forest, a, path);
      check(forest, a, path + "x");
      if (!path.empty()) {
        check(forest, a, path.substr(0, path.size() - 1));
        std::string flipped = path;
        flipped.back() = static_cast<char>(flipped.back() ^ 1);
        check(forest, a, flipped);
      }
    }
    // Every entity's chain prefixes, as the resolution map looks them up.
    const int levels = fx.config.family(static_cast<int>(f)).levels();
    for (const Entity& e : fx.data.dataset.entities()) {
      for (int level = 1; level <= levels; ++level) {
        check(forest, a, fx.config.Path(static_cast<int>(f), level, e));
      }
    }
    // Random paths, almost all absent.
    for (int i = 0; i < 2000; ++i) {
      std::string path(rng.UniformU64(12), 'a');
      for (char& c : path) {
        c = rng.Bernoulli(0.1) ? kPathSeparator
                               : static_cast<char>('a' + rng.UniformU64(26));
      }
      check(forest, a, path);
    }
  }
  EXPECT_GT(singletons, 0);
  EXPECT_GT(collapsed, 0);
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace progres
