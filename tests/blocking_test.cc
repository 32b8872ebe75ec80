#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocking_function.h"
#include "blocking/forest.h"
#include "datagen/generators.h"

namespace progres {
namespace {

Entity MakeEntity(EntityId id, std::vector<std::string> attributes) {
  Entity e;
  e.id = id;
  e.attributes = std::move(attributes);
  return e;
}

BlockingConfig ToyConfig() {
  // X: name prefix 2 (dominating), Y: state (Table I).
  return BlockingConfig({{"X", 0, {2}, -1}, {"Y", 1, {2}, -1}});
}

TEST(BlockingFunctionTest, KeyIsLowercasePrefix) {
  const BlockingConfig config({{"X", 0, {2, 4}, -1}});
  const Entity e = MakeEntity(0, {"John Lopez"});
  EXPECT_EQ(config.Key(0, 1, e), "jo");
  EXPECT_EQ(config.Key(0, 2, e), "john");
}

TEST(BlockingFunctionTest, KeyOfShortValue) {
  const BlockingConfig config({{"X", 0, {4}, -1}});
  EXPECT_EQ(config.Key(0, 1, MakeEntity(0, {"ab"})), "ab");
  EXPECT_EQ(config.Key(0, 1, MakeEntity(1, {""})), "");
}

TEST(BlockingFunctionTest, PathJoinsLevels) {
  const BlockingConfig config({{"X", 0, {2, 4}, -1}});
  const Entity e = MakeEntity(0, {"John"});
  const std::string expected =
      std::string("jo") + kPathSeparator + "john";
  EXPECT_EQ(config.Path(0, 2, e), expected);
}

// BuildChain and PathEquals against the path joined from Key, the
// per-level definition: mixed case, values shorter than a prefix, empty
// and missing attributes (whose paths are runs of separators).
TEST(BlockingFunctionTest, ChainAndPathEqualsMatchJoinedKeys) {
  const BlockingConfig config({{"X", 0, {2, 4, 8}, -1}, {"Y", 1, {3, 5}, -1}});
  const std::vector<Entity> entities = {
      MakeEntity(0, {"John Lopez", "CA"}), MakeEntity(1, {"", "Texas"}),
      MakeEntity(2, {"AbCdEfGhIj", ""}), MakeEntity(3, {"jo"}),
      MakeEntity(4, {"JOHN", "ca"})};
  const auto joined = [&](int f, int level, const Entity& e) {
    std::string path;
    for (int l = 1; l <= level; ++l) {
      if (l > 1) path.push_back(kPathSeparator);
      path += config.Key(f, l, e);
    }
    return path;
  };
  PathChain chain;
  for (int f = 0; f < config.num_families(); ++f) {
    const int levels = config.family(f).levels();
    for (const Entity& e : entities) {
      config.BuildChain(f, e, &chain);
      ASSERT_EQ(chain.levels(), levels);
      for (int level = 1; level <= levels; ++level) {
        const std::string path = joined(f, level, e);
        EXPECT_EQ(chain.Level(level), path);
        EXPECT_EQ(config.Path(f, level, e), path);
        EXPECT_TRUE(config.PathEquals(f, level, e, path));
        EXPECT_FALSE(config.PathEquals(f, level, e, path + "x"));
        EXPECT_FALSE(config.PathEquals(f, level, e, path + kPathSeparator));
        if (!path.empty()) {
          EXPECT_FALSE(config.PathEquals(f, level, e,
                                         path.substr(0, path.size() - 1)));
        }
        for (const Entity& other : entities) {
          const std::string other_path = joined(f, level, other);
          EXPECT_EQ(config.PathEquals(f, level, e, other_path),
                    other_path == path)
              << "entity " << e.id << " vs " << other.id << ", family " << f
              << ", level " << level;
        }
      }
    }
  }
}

TEST(BlockingFunctionTest, SortAttributeDefaultsToBlockingAttribute) {
  const BlockingConfig config({{"X", 2, {3}, -1}, {"Y", 0, {3}, 1}});
  EXPECT_EQ(config.SortAttribute(0), 2);
  EXPECT_EQ(config.SortAttribute(1), 1);
}

// ------------------------------------------------- forests on Table I

TEST(ForestTest, TableIRootBlocks) {
  const LabeledDataset toy = GeneratePeopleToy();
  const BlockingConfig config = ToyConfig();
  const std::vector<Forest> forests =
      BuildForests(toy.dataset, config, /*keep_members=*/true);
  ASSERT_EQ(forests.size(), 2u);

  // X1 partitions the dataset into 5 blocks: {e1,e2,e3,e9}=jo, {e4,e7}=ch,
  // {e5}=gh, {e6}=ma, {e8}=wi (ids are 0-based here).
  const Forest& x = forests[0];
  ASSERT_EQ(x.roots.size(), 5u);
  EXPECT_EQ(x.node(x.Find("jo")).size, 4);
  EXPECT_EQ(x.node(x.Find("ch")).size, 2);
  EXPECT_EQ(x.node(x.Find("gh")).size, 1);
  EXPECT_EQ(x.node(x.Find("ma")).size, 1);
  EXPECT_EQ(x.node(x.Find("wi")).size, 1);

  // Y1 partitions by state: AZ={e3,e6,e7,e8}, HI={e1,e2}, LA={e4,e5,e9}.
  const Forest& y = forests[1];
  ASSERT_EQ(y.roots.size(), 3u);
  EXPECT_EQ(y.node(y.Find("az")).size, 4);
  EXPECT_EQ(y.node(y.Find("hi")).size, 2);
  EXPECT_EQ(y.node(y.Find("la")).size, 3);
}

TEST(ForestTest, TableIUncoveredPairs) {
  const LabeledDataset toy = GeneratePeopleToy();
  const BlockingConfig config = ToyConfig();
  std::vector<Forest> forests =
      BuildForests(toy.dataset, config, /*keep_members=*/false);
  ComputeUncoveredPairs(toy.dataset, config, &forests);

  // X is the most dominating family: Uncov = 0 everywhere.
  for (const BlockNode& node : forests[0].nodes) EXPECT_EQ(node.uncov, 0);

  // HI = {John Lopez, John Lopez}: both share X-root "jo" -> 1 uncovered
  // pair. AZ and LA members all have distinct X-roots -> 0.
  const Forest& y = forests[1];
  EXPECT_EQ(y.node(y.Find("hi")).uncov, 1);
  EXPECT_EQ(y.node(y.Find("az")).uncov, 0);
  EXPECT_EQ(y.node(y.Find("la")).uncov, 0);
  EXPECT_EQ(y.node(y.Find("hi")).cov(), 0);
  EXPECT_EQ(y.node(y.Find("la")).cov(), 3);
}

TEST(ForestTest, SubBlockingBuildsTrees) {
  const LabeledDataset toy = GeneratePeopleToy();
  const BlockingConfig config({{"X", 0, {2, 4}, -1}});
  const std::vector<Forest> forests =
      BuildForests(toy.dataset, config, /*keep_members=*/true);
  const Forest& x = forests[0];

  const int jo = x.Find("jo");
  ASSERT_GE(jo, 0);
  // "jo" splits into "john" (3 entities) and "joey" (1 entity).
  ASSERT_EQ(x.node(jo).children.size(), 2u);
  const std::string john_path = std::string("jo") + kPathSeparator + "john";
  const std::string joey_path = std::string("jo") + kPathSeparator + "joey";
  EXPECT_EQ(x.node(x.Find(john_path)).size, 3);
  EXPECT_EQ(x.node(x.Find(joey_path)).size, 1);
  EXPECT_EQ(x.node(x.Find(john_path)).parent, jo);
  EXPECT_EQ(x.node(x.Find(john_path)).id.level, 2);
}

TEST(ForestTest, ChildSizesSumToParent) {
  PublicationConfig gen;
  gen.num_entities = 1500;
  gen.seed = 4;
  const LabeledDataset data = GeneratePublications(gen);
  const BlockingConfig config({{"X", kPubTitle, {2, 4, 8}, -1}});
  const std::vector<Forest> forests =
      BuildForests(data.dataset, config, /*keep_members=*/false);
  for (const BlockNode& node : forests[0].nodes) {
    if (node.is_leaf()) continue;
    int64_t sum = 0;
    for (int c : node.children) sum += forests[0].node(c).size;
    EXPECT_EQ(sum, node.size) << "block " << node.id.path;
  }
}

TEST(ForestTest, RootSizesSumToDatasetSize) {
  PublicationConfig gen;
  gen.num_entities = 1200;
  gen.seed = 6;
  const LabeledDataset data = GeneratePublications(gen);
  const BlockingConfig config({{"X", kPubTitle, {2, 4}, -1},
                               {"Y", kPubAbstract, {3}, -1},
                               {"Z", kPubVenue, {3}, -1}});
  const std::vector<Forest> forests =
      BuildForests(data.dataset, config, /*keep_members=*/false);
  for (const Forest& forest : forests) {
    int64_t total = 0;
    for (int r : forest.roots) total += forest.node(r).size;
    EXPECT_EQ(total, data.dataset.size());
  }
}

TEST(ForestTest, MembersKeptOnlyWhenRequested) {
  const LabeledDataset toy = GeneratePeopleToy();
  const BlockingConfig config = ToyConfig();
  const std::vector<Forest> with =
      BuildForests(toy.dataset, config, /*keep_members=*/true);
  const std::vector<Forest> without =
      BuildForests(toy.dataset, config, /*keep_members=*/false);
  EXPECT_FALSE(with[0].nodes[0].entities.empty());
  EXPECT_TRUE(without[0].nodes[0].entities.empty());
}

TEST(UncoveredFromJointCountsTest, PaperFigure4Example) {
  // Y_1^1 of Fig. 4: |Y| = 30, overlap with X_1^1 = 10 entities and with
  // X_2^1 = 20 entities. Uncov(Y_1^1) = Pairs(10) + Pairs(20) = 235.
  std::unordered_map<std::string, int64_t> joint;
  joint["x1"] = 10;
  joint["x2"] = 20;
  EXPECT_EQ(UncoveredFromJointCounts(joint, 1), 235);
}

TEST(UncoveredFromJointCountsTest, TwoDominatingFamilies) {
  // 4 entities all sharing both dominating roots: pairs shared with X = 6,
  // with Y = 6, with both = 6 -> 6 + 6 - 6 = 6.
  std::unordered_map<std::string, int64_t> joint;
  joint[std::string("x") + kTupleSeparator + "y"] = 4;
  EXPECT_EQ(UncoveredFromJointCounts(joint, 2), 6);
}

TEST(UncoveredFromJointCountsTest, DisjointTuplesDoNotOverlap) {
  std::unordered_map<std::string, int64_t> joint;
  joint[std::string("x1") + kTupleSeparator + "y1"] = 1;
  joint[std::string("x2") + kTupleSeparator + "y2"] = 1;
  EXPECT_EQ(UncoveredFromJointCounts(joint, 2), 0);
}

TEST(UncoveredFromJointCountsTest, PartialOverlapInclusionExclusion) {
  // Entities: 2 with (x1, y1), 1 with (x1, y2). Pairs sharing X-root x1:
  // Pairs(3) = 3. Pairs sharing Y-root y1: 1. Pairs sharing both: 1.
  // Uncov = 3 + 1 - 1 = 3.
  std::unordered_map<std::string, int64_t> joint;
  joint[std::string("x1") + kTupleSeparator + "y1"] = 2;
  joint[std::string("x1") + kTupleSeparator + "y2"] = 1;
  EXPECT_EQ(UncoveredFromJointCounts(joint, 2), 3);
}

}  // namespace
}  // namespace progres
