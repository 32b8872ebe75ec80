#include "estimate/annotated_forest.h"

#include <algorithm>
#include <unordered_map>

namespace progres {

namespace {

constexpr double kMinCost = 1e-9;

// FNV-1a over the path bytes.
uint64_t PathHash(std::string_view path) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : path) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x00000100000001b3ull;
  }
  return hash;
}

size_t SlotOf(uint64_t hash, int bits) {
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

}  // namespace

AnnotatedForest::AnnotatedForest(const Forest& forest,
                                 const EstimateParams& params,
                                 const ProbabilityModel& prob,
                                 int64_t dataset_size)
    : family_(forest.family),
      dataset_size_(dataset_size),
      params_(params),
      prob_(&prob) {
  blocks_.reserve(forest.nodes.size());
  for (const BlockNode& node : forest.nodes) {
    AnnotatedBlock b;
    b.id = node.id;
    b.parent = node.parent;
    b.children = node.children;
    b.size = node.size;
    b.cov = node.cov();
    blocks_.push_back(std::move(b));
  }
  for (int r : forest.roots) {
    blocks_[static_cast<size_t>(r)].tree_root = true;
    tree_roots_.push_back(r);
  }
  EliminateSmallBlocks();
  CollapseEqualSizeChains();
  BuildIndex(forest);
  for (int r : tree_roots_) ReestimateTree(r);
}

void AnnotatedForest::BuildIndex(const Forest& forest) {
  // Resolve every path once, here: a path resolves when following the
  // collapse redirects from its block reaches a surviving block.
  std::vector<IndexSlot> entries;
  for (const auto& [path, block] : forest.by_path) {
    int n = block;
    while (n >= 0 && blocks_[static_cast<size_t>(n)].eliminated) {
      n = blocks_[static_cast<size_t>(n)].redirect;
    }
    if (n >= 0) entries.push_back({PathHash(path), block, n});
  }
  if (entries.empty()) return;
  index_bits_ = 1;
  while ((size_t{1} << index_bits_) < 2 * entries.size()) ++index_bits_;
  index_.assign(size_t{1} << index_bits_, IndexSlot{});
  const size_t mask = index_.size() - 1;
  for (const IndexSlot& entry : entries) {
    size_t i = SlotOf(entry.hash, index_bits_);
    while (index_[i].block >= 0) i = (i + 1) & mask;
    index_[i] = entry;
  }
}

void AnnotatedForest::EliminateSmallBlocks() {
  // Blocks with fewer than two entities contain no pairs; resolving them is
  // pure overhead. Children of a small block are at most as large, so whole
  // chains disappear together.
  for (AnnotatedBlock& b : blocks_) {
    if (b.size < 2) b.eliminated = true;
  }
  for (AnnotatedBlock& b : blocks_) {
    std::erase_if(b.children, [this](int c) {
      return blocks_[static_cast<size_t>(c)].eliminated;
    });
  }
  std::erase_if(tree_roots_, [this](int r) {
    const bool gone = blocks_[static_cast<size_t>(r)].eliminated;
    if (gone) blocks_[static_cast<size_t>(r)].tree_root = false;
    return gone;
  });
}

void AnnotatedForest::CollapseEqualSizeChains() {
  // If a block has the same size as its parent, the two have identical
  // entity sets (children of a prefix block partition it), so resolving both
  // duplicates CostA for no new pairs. The deeper block survives: it keeps
  // the finer sub-blocking below it and inherits the parent's place.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < blocks_.size(); ++i) {
      AnnotatedBlock& child = blocks_[i];
      if (child.eliminated || child.parent < 0) continue;
      AnnotatedBlock& parent = blocks_[static_cast<size_t>(child.parent)];
      if (parent.eliminated || parent.size != child.size) continue;

      const int parent_index = child.parent;
      parent.eliminated = true;
      parent.redirect = static_cast<int>(i);
      child.parent = parent.parent;
      if (parent.parent >= 0) {
        std::vector<int>& siblings =
            blocks_[static_cast<size_t>(parent.parent)].children;
        std::replace(siblings.begin(), siblings.end(), parent_index,
                     static_cast<int>(i));
      }
      if (parent.tree_root) {
        parent.tree_root = false;
        child.tree_root = true;
        std::replace(tree_roots_.begin(), tree_roots_.end(), parent_index,
                     static_cast<int>(i));
      }
      changed = true;
    }
  }
}

std::vector<int> AnnotatedForest::TreeBlocks(int root) const {
  // Iterative post-order: children (that belong to this tree) before parents.
  std::vector<int> order;
  std::vector<std::pair<int, bool>> stack;  // (node, children_expanded)
  stack.emplace_back(root, false);
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    const AnnotatedBlock& b = blocks_[static_cast<size_t>(n)];
    if (expanded) {
      order.push_back(n);
      continue;
    }
    stack.emplace_back(n, true);
    for (int c : b.children) {
      const AnnotatedBlock& cb = blocks_[static_cast<size_t>(c)];
      if (cb.eliminated || cb.tree_root) continue;  // split trees excluded
      stack.emplace_back(c, false);
    }
  }
  return order;
}

int AnnotatedForest::FindTreeRoot(int node) const {
  int n = node;
  while (!blocks_[static_cast<size_t>(n)].tree_root) {
    n = blocks_[static_cast<size_t>(n)].parent;
  }
  return n;
}

void AnnotatedForest::SplitSubtree(int node) {
  AnnotatedBlock& b = blocks_[static_cast<size_t>(node)];
  if (b.tree_root || b.eliminated) return;
  const int old_root = FindTreeRoot(node);
  b.tree_root = true;
  tree_roots_.push_back(node);
  // The split tree now resolves the subtree's covered pairs; remove them
  // from every ancestor up to the old root (Sec. IV-C2 decreases Cov of the
  // enclosing root).
  const int64_t moved_cov = b.cov;
  for (int a = b.parent;; a = blocks_[static_cast<size_t>(a)].parent) {
    AnnotatedBlock& ab = blocks_[static_cast<size_t>(a)];
    ab.cov = std::max<int64_t>(0, ab.cov - moved_cov);
    if (a == old_root) break;
  }
  ReestimateTree(node);
  ReestimateTree(old_root);
}

void AnnotatedForest::ReestimateTree(int root) {
  const std::vector<int> order = TreeBlocks(root);
  // Aggregates over in-tree descendants, filled bottom-up.
  std::unordered_map<int, double> desc_dis;
  std::unordered_map<int, double> desc_costp;
  for (int n : order) {
    const AnnotatedBlock& b = blocks_[static_cast<size_t>(n)];
    double sum_child_frac_d = 0.0;
    double sum_desc_dis = 0.0;
    double sum_desc_costp = 0.0;
    for (int c : b.children) {
      const AnnotatedBlock& cb = blocks_[static_cast<size_t>(c)];
      if (cb.eliminated || cb.tree_root) continue;
      sum_child_frac_d += cb.frac * cb.d_value;
      sum_desc_dis += cb.dis + desc_dis[c];
      sum_desc_costp += CostP(cb.dup, cb.dis, params_.costs) + desc_costp[c];
    }
    desc_dis[n] = sum_desc_dis;
    desc_costp[n] = sum_desc_costp;
    EstimateBlock(n, sum_child_frac_d, sum_desc_dis, sum_desc_costp);
  }
}

void AnnotatedForest::EstimateBlock(int n, double sum_child_frac_d,
                                    double sum_desc_dis,
                                    double sum_desc_costp) {
  AnnotatedBlock& b = blocks_[static_cast<size_t>(n)];
  const bool root = b.tree_root;
  bool leaf = true;
  for (int c : b.children) {
    const AnnotatedBlock& cb = blocks_[static_cast<size_t>(c)];
    if (!cb.eliminated && !cb.tree_root) {
      leaf = false;
      break;
    }
  }

  b.window = root ? params_.window_root
                  : (leaf ? params_.window_leaf : params_.window_middle);
  // Sec. VI-A5: Th(X) = |X|, scaled by the configurable factor.
  b.th = static_cast<int64_t>(params_.th_factor * static_cast<double>(b.size));
  b.frac = root ? 1.0 : (leaf ? params_.frac_leaf : params_.frac_middle);

  const double base_pairs =
      params_.dup_on_covered ? static_cast<double>(b.cov)
                             : static_cast<double>(PairsOf(b.size));
  const double p =
      prob_->Probability(family_, b.id.level, b.size, dataset_size_);
  b.d_value = p * base_pairs;

  // Eq. 2 over in-tree children (split subtrees took their covered pairs
  // with them, so they no longer contribute here).
  b.dup = std::max(0.0, b.frac * b.d_value - sum_child_frac_d);
  // Eq. 4.
  b.remain =
      std::max(0.0, static_cast<double>(b.cov) - b.d_value - sum_desc_dis);
  b.dis = root ? b.remain : std::min(static_cast<double>(b.th), b.remain);

  const double cost_a = CostA(b.size, params_.costs);
  if (root) {
    // Eq. 5.
    b.cost = cost_a + CostF(b.size, b.window, b.cov, params_.costs) -
             sum_desc_costp;
  } else {
    // Eq. 3.
    b.cost = cost_a + CostP(b.dup, b.dis, params_.costs);
  }
  b.cost = std::max({b.cost, cost_a, kMinCost});
  b.util = b.dup / b.cost;
}

int AnnotatedForest::Find(std::string_view path) const {
  if (index_.empty()) return -1;
  const uint64_t hash = PathHash(path);
  const size_t mask = index_.size() - 1;
  for (size_t i = SlotOf(hash, index_bits_);; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.block < 0) return -1;
    if (slot.hash == hash &&
        blocks_[static_cast<size_t>(slot.block)].id.path == path) {
      return slot.target;
    }
  }
}

std::vector<AnnotatedForest> AnnotateForests(const std::vector<Forest>& forests,
                                             const EstimateParams& params,
                                             const ProbabilityModel& prob,
                                             int64_t dataset_size) {
  std::vector<AnnotatedForest> out;
  out.reserve(forests.size());
  for (const Forest& f : forests) {
    out.emplace_back(f, params, prob, dataset_size);
  }
  return out;
}

}  // namespace progres
