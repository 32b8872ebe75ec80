#include "redundancy/dominance.h"

namespace progres {

DominanceList BuildDominanceList(const Entity& e, int family, int node,
                                 const BlockingConfig& config,
                                 const std::vector<AnnotatedForest>& forests,
                                 const ProgressiveSchedule& schedule) {
  std::vector<PathChain> chains(static_cast<size_t>(config.num_families()));
  for (int f = 0; f < config.num_families(); ++f) {
    config.BuildChain(f, e, &chains[static_cast<size_t>(f)]);
  }
  return BuildDominanceList(e, family, node, chains, forests, schedule);
}

DominanceList BuildDominanceList(const Entity& e, int family, int node,
                                 const std::vector<PathChain>& chains,
                                 const std::vector<AnnotatedForest>& forests,
                                 const ProgressiveSchedule& schedule) {
  DominanceList list;
  const int n = static_cast<int>(chains.size());
  list.values.reserve(static_cast<size_t>(n) + 1);

  for (int j = 0; j < n; ++j) {
    if (j == family) {
      // Dom(TreeOf(X^k_l)): the tree the emitted block currently belongs to
      // (split-aware).
      const int root = forests[static_cast<size_t>(j)].FindTreeRoot(node);
      list.values.push_back(schedule.dominance.at(BlockRefKey(j, root)));
    } else {
      // Dom(T(Y^1_h)) for the main block of family j containing e.
      const int main_node = forests[static_cast<size_t>(j)].Find(
          chains[static_cast<size_t>(j)].Level(1));
      if (main_node < 0) {
        // The main block was eliminated (fewer than two entities): no other
        // entity shares it, so a unique per-entity sentinel is safe.
        list.values.push_back(-(e.id + 1));
      } else {
        const int root =
            forests[static_cast<size_t>(j)].FindTreeRoot(main_node);
        list.values.push_back(schedule.dominance.at(BlockRefKey(j, root)));
      }
    }
  }

  // Optional (n+1)st value: the highest (shallowest) descendant of the
  // emitted block that is the root of a split-off tree and contains e. When
  // two entities share it, their pair belongs to that split tree, not to the
  // emitted block.
  const AnnotatedForest& forest = forests[static_cast<size_t>(family)];
  const int block_level = forest.block(node).id.level;
  const PathChain& chain = chains[static_cast<size_t>(family)];
  for (int level = block_level + 1; level <= chain.levels(); ++level) {
    const int descendant = forest.Find(chain.Level(level));
    if (descendant < 0) break;  // e's chain ends here (eliminated below)
    if (descendant == node) continue;  // redirect landed on the block itself
    if (forest.block(descendant).tree_root) {
      list.values.push_back(
          schedule.dominance.at(BlockRefKey(family, descendant)));
      break;
    }
  }
  return list;
}

bool ShouldResolve(const DominanceList& a, const DominanceList& b, int index,
                   int n) {
  // A more dominant family whose tree contains both entities owns the pair.
  for (int m = 0; m < index - 1; ++m) {
    if (a.values[static_cast<size_t>(m)] == b.values[static_cast<size_t>(m)]) {
      return false;
    }
  }
  // A split tree nested below this block owns the pair.
  if (a.values.size() > static_cast<size_t>(n) &&
      b.values.size() > static_cast<size_t>(n) &&
      a.values[static_cast<size_t>(n)] == b.values[static_cast<size_t>(n)]) {
    return false;
  }
  return true;
}

}  // namespace progres
