#ifndef PROGRES_REDUNDANCY_DOMINANCE_H_
#define PROGRES_REDUNDANCY_DOMINANCE_H_

#include <cstdint>
#include <vector>

#include "blocking/blocking_function.h"
#include "estimate/annotated_forest.h"
#include "model/entity.h"
#include "schedule/schedule.h"

namespace progres {

// The dominance list List(e, X^k_l) of Sec. V, attached to each entity
// emission: n values (one per main blocking function) plus an optional
// (n+1)st value. The jth value identifies the tree that would resolve the
// pair if it co-occurred under the jth family; equal values on two entities
// mean a more dominant (or nested split) tree owns their pair.
struct DominanceList {
  std::vector<int32_t> values;
};

// Builds List(e, block) for entity `e` emitted toward block `node` of family
// `family`. Entities whose main block in some family was eliminated (size
// < 2) get a unique per-entity sentinel there, which can never equal another
// entity's value (a singleton block cannot witness a shared pair).
DominanceList BuildDominanceList(const Entity& e, int family, int node,
                                 const BlockingConfig& config,
                                 const std::vector<AnnotatedForest>& forests,
                                 const ProgressiveSchedule& schedule);

// The same list from e's paths already built in every family (`chains[f]`
// from BlockingConfig::BuildChain over all of f's levels): the resolution
// map builds them once per entity and reuses them for every emission.
DominanceList BuildDominanceList(const Entity& e, int family, int node,
                                 const std::vector<PathChain>& chains,
                                 const std::vector<AnnotatedForest>& forests,
                                 const ProgressiveSchedule& schedule);

// SHOULD-RESOLVE (Fig. 7): true if the block of family index `index`
// (1-based, i.e. Index(X^1)) is responsible for resolving the pair whose
// dominance lists are `a` and `b`. `n` is the number of main blocking
// functions.
bool ShouldResolve(const DominanceList& a, const DominanceList& b, int index,
                   int n);

}  // namespace progres

#endif  // PROGRES_REDUNDANCY_DOMINANCE_H_
