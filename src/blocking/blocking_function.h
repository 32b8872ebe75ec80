#ifndef PROGRES_BLOCKING_BLOCKING_FUNCTION_H_
#define PROGRES_BLOCKING_BLOCKING_FUNCTION_H_

#include <string>
#include <string_view>
#include <vector>

#include "model/entity.h"

namespace progres {

// One main blocking function together with its sub-blocking functions
// (Sec. III-A): level 1 is the main function X^1; level l > 1 is the
// sub-blocking function X^l applied to each level-(l-1) block. All levels of
// a family take a lower-cased prefix of one attribute, exactly like the
// functions of Table II (e.g. title.sub(0, 2) / title.sub(0, 4) /
// title.sub(0, 8) for CiteSeerX's X family).
struct FamilySpec {
  std::string name;               // e.g. "X", "Y", "Z"
  int attribute_index = 0;        // attribute the prefixes are taken from
  std::vector<int> prefix_lens;   // one per level; size() == 1 + N(X^1)
  // Attribute used to sort a block's entities inside the SN/PSNM mechanisms
  // (Sec. VI-A3 sorts on the attribute blocking was performed on). Defaults
  // to attribute_index when negative.
  int sort_attribute = -1;

  int levels() const { return static_cast<int>(prefix_lens.size()); }
};

// Identifies a block: which family's forest it belongs to, its depth, and its
// hierarchical key path (the keys of levels 1..level joined with '\x1f').
// Joining the whole path keeps the hierarchy well-defined even for
// sub-blocking functions that are not prefix-nested.
struct BlockId {
  int family = 0;
  int level = 1;       // 1 == root block
  std::string path;

  bool operator==(const BlockId& other) const {
    return family == other.family && level == other.level && path == other.path;
  }
};

// One entity's block paths in one family, built in a single pass: the
// level-l path is the first ends[l-1] bytes of `path` (BlockingConfig::
// BuildChain). Reusing one PathChain across entities reuses its buffers.
struct PathChain {
  std::string path;
  std::vector<size_t> ends;

  int levels() const { return static_cast<int>(ends.size()); }
  std::string_view Level(int level) const {
    return std::string_view(path).substr(
        0, ends[static_cast<size_t>(level - 1)]);
  }
};

// The full blocking configuration: the main blocking functions listed in
// dominance order, i.e. families[0] is the most dominating function (the
// paper's X^1 with Index(X^1) = 1).
class BlockingConfig {
 public:
  explicit BlockingConfig(std::vector<FamilySpec> families)
      : families_(std::move(families)) {}

  int num_families() const { return static_cast<int>(families_.size()); }
  const FamilySpec& family(int f) const {
    return families_[static_cast<size_t>(f)];
  }

  // Blocking key of `e` under family `f` at `level` (1-based): the
  // lower-cased prefix of the family's attribute.
  std::string Key(int f, int level, const Entity& e) const;

  // Hierarchical path of `e`'s block in family `f` at `level`: keys of levels
  // 1..level joined with '\x1f'.
  std::string Path(int f, int level, const Entity& e) const;

  // Fills `chain` with e's paths in family `f` at levels 1..`levels` (every
  // level of the family when negative), lower-casing each key in place.
  void BuildChain(int f, const Entity& e, PathChain* chain,
                  int levels = -1) const;

  // Path(f, level, e) == path, compared key by key in place.
  bool PathEquals(int f, int level, const Entity& e,
                  std::string_view path) const;

  // Index of the attribute that blocks of family `f` are sorted on.
  int SortAttribute(int f) const {
    const FamilySpec& spec = families_[static_cast<size_t>(f)];
    return spec.sort_attribute >= 0 ? spec.sort_attribute : spec.attribute_index;
  }

 private:
  std::vector<FamilySpec> families_;
};

// Key-path separator between levels.
inline constexpr char kPathSeparator = '\x1f';

}  // namespace progres

#endif  // PROGRES_BLOCKING_BLOCKING_FUNCTION_H_
