#ifndef PROGRES_MECHANISM_MECHANISM_H_
#define PROGRES_MECHANISM_MECHANISM_H_

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "mapreduce/cost_clock.h"
#include "model/entity.h"
#include "similarity/match_function.h"

namespace progres {

// Cost-unit prices of the primitive operations a mechanism performs. One
// unit is one resolve/match invocation; everything else is priced relative
// to it. The estimation module (src/estimate) uses the same prices so that
// CostA/CostP/CostF predictions line up with what mechanisms actually charge.
struct MechanismCosts {
  double read_per_entity = 0.1;       // reading a block entity
  double sort_per_entity_log2 = 0.05; // sorting, per entity per log2(n)
  double comparison = 1.0;            // one resolve/match call
  double skip = 0.01;                 // skipping a pair (redundancy checks)
};

// Stopping parameters for resolving one block.
struct ResolveOptions {
  // Window size w: only pairs whose rank distance in the sorted block is
  // less than `window` are considered (Sec. II-B).
  int window = 15;
  // Termination threshold Th: stop once more than this many distinct
  // (non-duplicate) pairs have been resolved. -1 disables (resolve fully,
  // used for root blocks).
  int64_t termination_distinct = -1;
  // Popcorn scheme [5]: stop when the rate of newly identified duplicates
  // over the last `popcorn_window` comparisons drops below this threshold.
  // <= 0 disables.
  double popcorn_threshold = 0.0;
  int popcorn_window = 1000;

  // Sub-block restriction (the BlockSplit scheduler's single/cross match
  // tasks): only pairs whose sorted positions (i, j), i < j, satisfy
  // sub_a_lo <= i < sub_a_hi and sub_b_lo <= j < sub_b_hi are enumerated.
  // Excluded pairs cost nothing — they belong to another match task.
  // Disabled when sub_a_hi < 0.
  int64_t sub_a_lo = 0;
  int64_t sub_a_hi = -1;
  int64_t sub_b_lo = 0;
  int64_t sub_b_hi = -1;
  // Enumeration-slice restriction (the PairRange scheduler): only pairs
  // whose 0-based index in the mechanism's canonical d-major enumeration
  // falls in [slice_begin, slice_end). Disabled when slice_end < 0.
  int64_t slice_begin = 0;
  int64_t slice_end = -1;
};

// What happened while resolving one block.
struct ResolveOutcome {
  int64_t duplicates = 0;  // duplicate pairs found in this invocation
  int64_t distinct = 0;    // distinct pairs resolved in this invocation
  int64_t skipped = 0;     // pairs skipped (already resolved / not responsible)
  double cost = 0.0;       // cost units charged, including additional cost
  bool stopped_early = false;  // a stopping condition fired before the window
                               // enumeration was exhausted
};

// Everything a mechanism needs to resolve one block.
struct ResolveRequest {
  // The block's entities. Pointers remain owned by the caller's dataset.
  const std::vector<const Entity*>* block = nullptr;
  // Attribute index to sort on (the attribute blocking was performed on).
  int sort_attribute = 0;
  const MatchFunction* match = nullptr;
  ResolveOptions options;
  // Cost clock of the executing (simulated) task. Required.
  CostClock* clock = nullptr;
  // Responsibility predicate (Sec. V). Pairs for which it returns false are
  // skipped: another tree resolves them. May be null (always responsible).
  const std::function<bool(const Entity&, const Entity&)>* should_resolve =
      nullptr;
  // Pairs already resolved within this tree (incremental bottom-up
  // resolution, Sec. III-A). Pairs found here are skipped; newly resolved
  // pairs are inserted. May be null.
  std::unordered_set<PairKey>* resolved = nullptr;
  // When set (with `resolved`), every pair newly inserted into `resolved` is
  // also appended here, in insertion order, so the caller can later undo
  // the insertions past a point (checkpoint restore). May be null.
  std::vector<PairKey>* resolved_log = nullptr;
  // Invoked for every duplicate found, after the comparison is charged, so
  // the callback can read `clock` for the event's task-local cost.
  std::function<void(EntityId, EntityId)> on_duplicate;
};

// A progressive mechanism M (Sec. II-B): an ER algorithm, possibly combined
// with a hint, that resolves a block's pairs most-promising-first until a
// stopping condition fires. Implementations must be stateless across
// Resolve calls (one instance is shared by concurrent reduce tasks).
class ProgressiveMechanism {
 public:
  virtual ~ProgressiveMechanism() = default;

  virtual std::string name() const = 0;

  // Resolves one block according to `request`. See ResolveRequest.
  virtual ResolveOutcome Resolve(const ResolveRequest& request) const = 0;
};

}  // namespace progres

#endif  // PROGRES_MECHANISM_MECHANISM_H_
