#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "model/dataset.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "model/union_find.h"

namespace progres {
namespace {

// ---------------------------------------------------------------- pairs

TEST(PairKeyTest, OrderIndependent) {
  EXPECT_EQ(MakePairKey(3, 9), MakePairKey(9, 3));
}

TEST(PairKeyTest, DistinctPairsDistinctKeys) {
  EXPECT_NE(MakePairKey(1, 2), MakePairKey(1, 3));
  EXPECT_NE(MakePairKey(1, 2), MakePairKey(2, 3));
}

TEST(PairKeyTest, RoundTripIds) {
  const auto [a, b] = PairKeyIds(MakePairKey(42, 7));
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 42);
}

TEST(EntityTest, MissingAttributeIsEmpty) {
  Entity e;
  e.attributes = {"x"};
  EXPECT_EQ(e.attribute(0), "x");
  EXPECT_EQ(e.attribute(5), "");
}

// ---------------------------------------------------------------- dataset

TEST(DatasetTest, AddAssignsDenseIds) {
  Dataset d({"name"});
  EXPECT_EQ(d.Add({"a"}), 0);
  EXPECT_EQ(d.Add({"b"}), 1);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.entity(1).attribute(0), "b");
}

TEST(DatasetTest, AttributeIndex) {
  Dataset d({"title", "venue"});
  EXPECT_EQ(d.AttributeIndex("title"), 0);
  EXPECT_EQ(d.AttributeIndex("venue"), 1);
  EXPECT_EQ(d.AttributeIndex("nope"), -1);
}

TEST(DatasetTest, TsvRoundTrip) {
  Dataset d({"a", "b"});
  d.Add({"x", "y"});
  d.Add({"", "z"});
  const std::string path = testing::TempDir() + "/progres_dataset.tsv";
  ASSERT_TRUE(d.SaveTsv(path));
  Dataset loaded;
  ASSERT_TRUE(Dataset::LoadTsv(path, &loaded));
  ASSERT_EQ(loaded.size(), 2);
  EXPECT_EQ(loaded.schema(), d.schema());
  EXPECT_EQ(loaded.entity(0).attributes, d.entity(0).attributes);
  EXPECT_EQ(loaded.entity(1).attributes, d.entity(1).attributes);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- truth

TEST(GroundTruthTest, CountsDuplicatePairs) {
  // Clusters: {0,1,2} (3 pairs), {3,4} (1 pair), {5} (0 pairs).
  GroundTruth truth({7, 7, 7, 9, 9, 11});
  EXPECT_EQ(truth.num_duplicate_pairs(), 4);
  EXPECT_TRUE(truth.IsDuplicate(0, 2));
  EXPECT_FALSE(truth.IsDuplicate(2, 3));
}

TEST(GroundTruthTest, AllDuplicatePairsEnumerates) {
  GroundTruth truth({1, 1, 2, 2, 2});
  std::vector<PairKey> pairs = truth.AllDuplicatePairs();
  std::sort(pairs.begin(), pairs.end());
  const std::vector<PairKey> expected = {MakePairKey(0, 1), MakePairKey(2, 3),
                                         MakePairKey(2, 4), MakePairKey(3, 4)};
  EXPECT_EQ(pairs, expected);
}

TEST(GroundTruthTest, TsvRoundTrip) {
  GroundTruth truth({5, 5, 6});
  const std::string path = testing::TempDir() + "/progres_truth.tsv";
  ASSERT_TRUE(truth.SaveTsv(path));
  GroundTruth loaded;
  ASSERT_TRUE(GroundTruth::LoadTsv(path, &loaded));
  EXPECT_EQ(loaded.num_entities(), 3);
  EXPECT_EQ(loaded.num_duplicate_pairs(), 1);
  EXPECT_TRUE(loaded.IsDuplicate(0, 1));
  EXPECT_FALSE(loaded.IsDuplicate(0, 2));
  std::remove(path.c_str());
}

// Every malformed truth row is rejected with its line number: rows must
// list each entity id in [0, rows) exactly once, with an int32 cluster id.
TEST(GroundTruthTest, LoadTsvRejectsBadRowsWithLineNumbers) {
  const std::string path = testing::TempDir() + "/progres_truth_bad.tsv";
  const auto load = [&path](const std::string& content) {
    std::ofstream(path) << content;
    GroundTruth truth;
    std::string error;
    EXPECT_FALSE(GroundTruth::LoadTsv(path, &truth, &error)) << content;
    return error;
  };
  EXPECT_EQ(load("0\t1\nx\t2\n"), "line 2: \"x\" is not an entity id");
  EXPECT_EQ(load("0\t1\n0\t1\n"), "line 2: entity id 0 is listed twice");
  EXPECT_EQ(load("0\t1\n2\t1\n"),
            "line 2: entity id 2 is outside [0, 2)");
  EXPECT_EQ(load("-1\t1\n"), "line 1: entity id -1 is outside [0, 1)");
  EXPECT_EQ(load("0\t2147483648\n"),
            "line 1: \"2147483648\" is not a 32-bit cluster id");
  EXPECT_EQ(load("0\t1\t2\n"),
            "line 1: expected entity id and cluster id, got 3 field(s)");
  EXPECT_EQ(load("0 \t1\n"), "line 1: \"0 \" is not an entity id");
  std::remove(path.c_str());

  GroundTruth truth;
  std::string error = "stale";
  EXPECT_FALSE(
      GroundTruth::LoadTsv("/nonexistent/progres_truth.tsv", &truth, &error));
  EXPECT_TRUE(error.empty());  // I/O failure, not a bad row
}

// ---------------------------------------------------------------- unionfind

TEST(UnionFindTest, InitiallyDisjoint) {
  UnionFind uf(4);
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_TRUE(uf.Connected(2, 2));
}

TEST(UnionFindTest, UnionMerges) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // already connected
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
}

TEST(UnionFindTest, TransitiveClosureOfChain) {
  UnionFind uf(100);
  for (int i = 0; i + 1 < 100; ++i) uf.Union(i, i + 1);
  EXPECT_TRUE(uf.Connected(0, 99));
}

}  // namespace
}  // namespace progres
