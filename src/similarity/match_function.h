#ifndef PROGRES_SIMILARITY_MATCH_FUNCTION_H_
#define PROGRES_SIMILARITY_MATCH_FUNCTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "model/entity.h"

namespace progres {

// How a single attribute's similarity is computed (Sec. VI-A2: the paper
// compares attributes with edit distance or exact matching).
enum class AttributeSimilarity {
  kEditDistance,  // normalized Levenshtein similarity
  kExact,         // 1.0 if equal, else 0.0
  kJaroWinkler,   // Jaro-Winkler similarity (short name-like strings)
  kNumeric,       // 1 - |a - b| / numeric_scale, clamped to [0, 1]
};

// One attribute's contribution to the weighted-sum match decision.
struct AttributeRule {
  int attribute_index = 0;
  AttributeSimilarity similarity = AttributeSimilarity::kEditDistance;
  double weight = 1.0;
  // If > 0, only the first `max_chars` characters are compared. The paper
  // truncates the abstract attribute to 350 characters (footnote 8).
  int max_chars = 0;
  // For kNumeric: the difference at which similarity reaches zero. Values
  // that fail to parse as numbers compare as kExact.
  double numeric_scale = 1.0;
};

// The compute-intensive resolve/match function: a weighted sum of
// per-attribute similarities compared against a threshold. Thread-safe for
// concurrent Resolve calls; the comparison counter is atomic so that reduce
// tasks running in parallel can share one instance.
class MatchFunction {
 public:
  MatchFunction(std::vector<AttributeRule> rules, double threshold);

  // Copyable: the comparison counter's current value is carried over (the
  // atomic itself prevents implicit copies).
  MatchFunction(const MatchFunction& other)
      : rules_(other.rules_),
        eval_order_(other.eval_order_),
        threshold_(other.threshold_),
        total_weight_(other.total_weight_),
        filtered_(other.filtered_),
        margin_(other.margin_),
        comparisons_(other.comparisons()) {}
  MatchFunction& operator=(const MatchFunction& other) {
    rules_ = other.rules_;
    eval_order_ = other.eval_order_;
    threshold_ = other.threshold_;
    total_weight_ = other.total_weight_;
    filtered_ = other.filtered_;
    margin_ = other.margin_;
    comparisons_.store(other.comparisons(), std::memory_order_relaxed);
    return *this;
  }

  // Returns true if `a` and `b` are declared duplicates, i.e. whether
  // Similarity(a, b) >= threshold. Missing values (empty strings on both
  // sides) contribute full similarity; a value missing on one side only
  // contributes zero.
  //
  // The decision is defined by the ordered loop: rules are summed
  // heaviest-weight first and the loop stops as soon as the sum reaches the
  // threshold or the remaining weight can no longer reach it. Resolve makes
  // that same decision bit for bit while computing fewer rules. It first
  // takes the exact rules and bounds the rest without running a kernel — an
  // edit-distance rule by its length filter w * (1 - |la - lb| / max(la,
  // lb)) on the truncated values (exact when a value is empty), every other
  // kind by its weight — then computes the expensive rules heaviest first,
  // tightening the bounds after each. It decides once the upper bound falls
  // short of the threshold, or the lower bound clears it, by a margin of
  // 1e-9 (times the total weight, if above 1): far above the rounding that
  // separates these sums from the ordered loop's. A pair still undecided
  // after that, or any pair under a negative or non-finite weight, gets the
  // ordered loop itself over the values already computed.
  bool Resolve(const Entity& a, const Entity& b) const;

  // Returns the weighted similarity in [0, 1] without thresholding.
  double Similarity(const Entity& a, const Entity& b) const;

  // Number of Resolve() calls since construction or the last ResetCounter().
  int64_t comparisons() const {
    return comparisons_.load(std::memory_order_relaxed);
  }
  void ResetCounter() { comparisons_.store(0, std::memory_order_relaxed); }

  double threshold() const { return threshold_; }
  const std::vector<AttributeRule>& rules() const { return rules_; }

 private:
  // Weighted similarity of one attribute rule.
  double RuleSimilarity(const AttributeRule& rule, const Entity& a,
                        const Entity& b) const;

  // The ordered early-exit loop that defines Resolve's decision. Rule
  // eval_order_[p] contributes `cached[p]` when bit p of `known` is set and
  // is computed otherwise.
  bool OrderedResolve(const Entity& a, const Entity& b, const double* cached,
                      uint32_t known) const;

  std::vector<AttributeRule> rules_;
  // Indexes of rules_ sorted by non-increasing weight (Resolve's evaluation
  // order; maximizes early-exit opportunities).
  std::vector<int> eval_order_;
  double threshold_;
  double total_weight_;
  // Whether Resolve may decide from bounds: every weight finite and
  // non-negative, at most 32 rules (one bit each in a mask).
  bool filtered_ = false;
  // How far a bound must clear the threshold before it decides.
  double margin_ = 0.0;
  mutable std::atomic<int64_t> comparisons_{0};
};

}  // namespace progres

#endif  // PROGRES_SIMILARITY_MATCH_FUNCTION_H_
