#ifndef PROGRES_MECHANISM_RESOLVE_LOOP_H_
#define PROGRES_MECHANISM_RESOLVE_LOOP_H_

#include <vector>

#include "mechanism/mechanism.h"

namespace progres {
namespace mechanism_internal {

// Shared pair-processing loop used by the concrete mechanisms: applies the
// redundancy checks, charges costs, runs the match function, records the
// outcome, and evaluates the stopping conditions (termination threshold and
// popcorn scheme). Mechanisms own pair *enumeration order*; this class owns
// everything else.
class ResolveLoop {
 public:
  ResolveLoop(const ResolveRequest& request, const MechanismCosts& costs)
      : request_(request),
        costs_(costs),
        start_cost_(request.clock->units()),
        popcorn_hits_(request.options.popcorn_threshold > 0.0
                          ? static_cast<size_t>(request.options.popcorn_window)
                          : 0,
                      0) {}

  // Processes the unordered pair (a, b). Returns false when enumeration
  // should stop (a stopping condition fired).
  bool ProcessPair(const Entity& a, const Entity& b) {
    const PairKey key = MakePairKey(a.id, b.id);
    if (request_.resolved != nullptr && request_.resolved->count(key) > 0) {
      request_.clock->Charge(costs_.skip);
      ++outcome_.skipped;
      return true;
    }
    if (request_.should_resolve != nullptr &&
        !(*request_.should_resolve)(a, b)) {
      request_.clock->Charge(costs_.skip);
      ++outcome_.skipped;
      return true;
    }
    request_.clock->Charge(costs_.comparison);
    const bool is_duplicate = request_.match->Resolve(a, b);
    if (request_.resolved != nullptr) {
      request_.resolved->insert(key);
      if (request_.resolved_log != nullptr) {
        request_.resolved_log->push_back(key);
      }
    }
    if (is_duplicate) {
      ++outcome_.duplicates;
      if (request_.on_duplicate) request_.on_duplicate(a.id, b.id);
    } else {
      ++outcome_.distinct;
    }
    return !ShouldStop(is_duplicate);
  }

  // Finalizes and returns the outcome; call exactly once.
  ResolveOutcome Finish() {
    outcome_.cost = request_.clock->units() - start_cost_;
    return outcome_;
  }

 private:
  bool ShouldStop(bool last_was_duplicate) {
    const ResolveOptions& opt = request_.options;
    if (opt.termination_distinct >= 0 &&
        outcome_.distinct > opt.termination_distinct) {
      outcome_.stopped_early = true;
      return true;
    }
    if (!popcorn_hits_.empty()) {
      // Sliding window over the last popcorn_window comparisons.
      popcorn_dups_ -= popcorn_hits_[popcorn_index_];
      popcorn_hits_[popcorn_index_] = last_was_duplicate ? 1 : 0;
      popcorn_dups_ += popcorn_hits_[popcorn_index_];
      popcorn_index_ = (popcorn_index_ + 1) % popcorn_hits_.size();
      const int64_t comparisons = outcome_.duplicates + outcome_.distinct;
      if (comparisons >= static_cast<int64_t>(popcorn_hits_.size())) {
        const double rate = static_cast<double>(popcorn_dups_) /
                            static_cast<double>(popcorn_hits_.size());
        if (rate < opt.popcorn_threshold) {
          outcome_.stopped_early = true;
          return true;
        }
      }
    }
    return false;
  }

  const ResolveRequest& request_;
  const MechanismCosts& costs_;
  ResolveOutcome outcome_;
  double start_cost_;

  // Popcorn state: ring buffer of duplicate hits over recent comparisons.
  std::vector<int8_t> popcorn_hits_;
  size_t popcorn_index_ = 0;
  int64_t popcorn_dups_ = 0;
};

// Pair-restriction view over ResolveOptions for sub-block match tasks (the
// BlockSplit/PairRange schedulers). Mechanisms consult it with each
// candidate pair's sorted positions (i, j) and its index in the canonical
// d-major enumeration; pairs it rejects belong to another match task and
// are passed over without charging any cost.
class PairRestriction {
 public:
  explicit PairRestriction(const ResolveOptions& options)
      : sub_(options.sub_a_hi >= 0),
        slice_(options.slice_end >= 0),
        options_(options) {}

  bool active() const { return sub_ || slice_; }

  bool Admits(int64_t i, int64_t j, int64_t index) const {
    if (sub_ && (i < options_.sub_a_lo || i >= options_.sub_a_hi ||
                 j < options_.sub_b_lo || j >= options_.sub_b_hi)) {
      return false;
    }
    if (slice_ &&
        (index < options_.slice_begin || index >= options_.slice_end)) {
      return false;
    }
    return true;
  }

  // True once no later enumeration index can be admitted, so the mechanism
  // may stop enumerating (the slice restriction is a contiguous range).
  bool Exhausted(int64_t index) const {
    return slice_ && index >= options_.slice_end;
  }

 private:
  bool sub_;
  bool slice_;
  const ResolveOptions& options_;
};

// Returns the indexes of `block` sorted by the given attribute value
// (ties broken by entity id for determinism).
std::vector<int> SortedOrder(const std::vector<const Entity*>& block,
                             int sort_attribute);

// Charges the additional cost CostA of reading and sorting a block of `n`
// entities.
void ChargeAdditionalCost(int64_t n, const MechanismCosts& costs,
                          CostClock* clock);

}  // namespace mechanism_internal
}  // namespace progres

#endif  // PROGRES_MECHANISM_RESOLVE_LOOP_H_
