#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "blocking/forest_io.h"
#include "common/tsv.h"
#include "datagen/generators.h"

namespace progres {
namespace {

TEST(ForestIoTest, SaveWritesOneRowPerBlock) {
  PublicationConfig gen;
  gen.num_entities = 1500;
  gen.seed = 130;
  const LabeledDataset data = GeneratePublications(gen);
  const BlockingConfig config({{"X", kPubTitle, {2, 4, 8}, -1},
                               {"Y", kPubAbstract, {3, 5}, -1},
                               {"Z", kPubVenue, {3}, -1}});
  std::vector<Forest> forests =
      BuildForests(data.dataset, config, /*keep_members=*/false);
  ComputeUncoveredPairs(data.dataset, config, &forests);

  const std::string path = testing::TempDir() + "/progres_forests.tsv";
  ASSERT_TRUE(SaveForests(path, forests));
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(ReadTsv(path, &rows));
  std::remove(path.c_str());

  // Rows follow the forests' node order: family, level, path, parent path,
  // size, uncov.
  size_t row = 0;
  for (const Forest& forest : forests) {
    for (const BlockNode& node : forest.nodes) {
      ASSERT_LT(row, rows.size());
      const std::vector<std::string>& fields = rows[row++];
      ASSERT_EQ(fields.size(), 6u);
      EXPECT_EQ(fields[0], std::to_string(forest.family));
      EXPECT_EQ(fields[1], std::to_string(node.id.level));
      EXPECT_EQ(fields[2], node.id.path);
      EXPECT_EQ(fields[3], node.parent >= 0
                               ? forest.node(node.parent).id.path
                               : std::string());
      EXPECT_EQ(fields[4], std::to_string(node.size));
      EXPECT_EQ(fields[5], std::to_string(node.uncov));
    }
  }
  EXPECT_EQ(row, rows.size());
  EXPECT_GT(row, forests.size());  // sub-blocks were written too
}

}  // namespace
}  // namespace progres
