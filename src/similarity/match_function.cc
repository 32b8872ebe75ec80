#include "similarity/match_function.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "similarity/jaro_winkler.h"
#include "similarity/levenshtein.h"

namespace progres {

namespace {

// Rules Resolve decides from bounds for; a larger rule set takes the
// ordered loop alone.
constexpr size_t kMaxFilteredRules = 32;
// Bound margin per unit of total weight (at least one unit). The sums the
// filter compares differ from the ordered loop's by a few ulps of the total
// weight per rule, ~1e-15 relative: a bound this far from the threshold
// decides the same way the ordered loop does.
constexpr double kDecisionMargin = 1e-9;

// The values rule `r` compares: attribute `r.attribute_index` of each side,
// truncated to `r.max_chars` when that is set.
std::pair<std::string_view, std::string_view> RuleValues(
    const AttributeRule& r, const Entity& a, const Entity& b) {
  std::string_view va = a.attribute(static_cast<size_t>(r.attribute_index));
  std::string_view vb = b.attribute(static_cast<size_t>(r.attribute_index));
  if (r.max_chars > 0) {
    va = Prefix(va, static_cast<size_t>(r.max_chars));
    vb = Prefix(vb, static_cast<size_t>(r.max_chars));
  }
  return {va, vb};
}

}  // namespace

MatchFunction::MatchFunction(std::vector<AttributeRule> rules, double threshold)
    : rules_(std::move(rules)), threshold_(threshold), total_weight_(0.0) {
  for (const AttributeRule& r : rules_) total_weight_ += r.weight;
  if (total_weight_ <= 0.0) total_weight_ = 1.0;
  eval_order_.resize(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    eval_order_[i] = static_cast<int>(i);
  }
  std::stable_sort(eval_order_.begin(), eval_order_.end(), [this](int a, int b) {
    return rules_[static_cast<size_t>(a)].weight >
           rules_[static_cast<size_t>(b)].weight;
  });
  filtered_ = rules_.size() <= kMaxFilteredRules;
  for (const AttributeRule& r : rules_) {
    if (!std::isfinite(r.weight) || r.weight < 0.0) filtered_ = false;
  }
  margin_ = kDecisionMargin * std::max(1.0, total_weight_);
}

double MatchFunction::RuleSimilarity(const AttributeRule& r, const Entity& a,
                                     const Entity& b) const {
  const auto [va, vb] = RuleValues(r, a, b);
  double sim = 0.0;
  switch (r.similarity) {
    case AttributeSimilarity::kEditDistance:
      sim = EditSimilarity(va, vb);
      break;
    case AttributeSimilarity::kExact:
      sim = (va == vb) ? 1.0 : 0.0;
      break;
    case AttributeSimilarity::kJaroWinkler:
      sim = JaroWinklerSimilarity(va, vb);
      break;
    case AttributeSimilarity::kNumeric: {
      char* end_a = nullptr;
      char* end_b = nullptr;
      const std::string sa(va);
      const std::string sb(vb);
      const double na = std::strtod(sa.c_str(), &end_a);
      const double nb = std::strtod(sb.c_str(), &end_b);
      const bool ok_a = end_a != sa.c_str() && *end_a == '\0' && !sa.empty();
      const bool ok_b = end_b != sb.c_str() && *end_b == '\0' && !sb.empty();
      if (!ok_a || !ok_b) {
        sim = (va == vb) ? 1.0 : 0.0;  // non-numeric: fall back to exact
      } else {
        const double scale = r.numeric_scale > 0.0 ? r.numeric_scale : 1.0;
        sim = std::max(0.0, 1.0 - std::abs(na - nb) / scale);
      }
      break;
    }
  }
  return r.weight * sim;
}

double MatchFunction::Similarity(const Entity& a, const Entity& b) const {
  double sum = 0.0;
  for (const AttributeRule& r : rules_) sum += RuleSimilarity(r, a, b);
  return sum / total_weight_;
}

bool MatchFunction::Resolve(const Entity& a, const Entity& b) const {
  comparisons_.fetch_add(1, std::memory_order_relaxed);
  if (!filtered_) return OrderedResolve(a, b, nullptr, 0);
  const double need = threshold_ * total_weight_;
  const size_t n = eval_order_.size();
  // By evaluation position: the contribution of each rule in `known`, the
  // upper bound of each other rule.
  std::array<double, kMaxFilteredRules> value{};
  std::array<double, kMaxFilteredRules> bound{};
  uint32_t known = 0;
  double lower = 0.0;
  double upper = 0.0;
  for (size_t p = 0; p < n; ++p) {
    const AttributeRule& r = rules_[static_cast<size_t>(eval_order_[p])];
    bound[p] = r.weight;
    if (r.similarity == AttributeSimilarity::kExact) {
      value[p] = RuleSimilarity(r, a, b);
      known |= uint32_t{1} << p;
    } else if (r.similarity == AttributeSimilarity::kEditDistance) {
      // dist >= |la - lb|, so similarity <= 1 - |la - lb| / max; rounding
      // is monotone, so the computed bound also holds for the computed
      // similarity. An empty side makes the similarity exact: EditSimilarity
      // gives 1 for two empty values and 1 - max / max = 0 for one.
      const auto [va, vb] = RuleValues(r, a, b);
      const size_t longest = std::max(va.size(), vb.size());
      const size_t shortest = std::min(va.size(), vb.size());
      if (shortest == 0) {
        value[p] = r.weight * (longest == 0 ? 1.0 : 0.0);
        known |= uint32_t{1} << p;
      } else {
        bound[p] = r.weight * (1.0 - static_cast<double>(longest - shortest) /
                                         static_cast<double>(longest));
      }
    }
    if ((known >> p & 1) != 0) {
      lower += value[p];
      upper += value[p];
    } else {
      upper += bound[p];
    }
  }
  // Computes the remaining rules heaviest first until the bounds decide.
  for (size_t p = 0;; ++p) {
    if (upper < need - margin_) return false;
    if (lower >= need + margin_) return true;
    while (p < n && (known >> p & 1) != 0) ++p;
    if (p == n) break;
    value[p] = RuleSimilarity(rules_[static_cast<size_t>(eval_order_[p])], a,
                              b);
    known |= uint32_t{1} << p;
    lower += value[p];
    upper += value[p] - bound[p];
  }
  return OrderedResolve(a, b, value.data(), known);
}

bool MatchFunction::OrderedResolve(const Entity& a, const Entity& b,
                                   const double* cached,
                                   uint32_t known) const {
  const double need = threshold_ * total_weight_;
  double sum = 0.0;
  double remaining = total_weight_;
  for (size_t p = 0; p < eval_order_.size(); ++p) {
    const AttributeRule& r = rules_[static_cast<size_t>(eval_order_[p])];
    remaining -= r.weight;
    sum += p < kMaxFilteredRules && (known >> p & 1) != 0
               ? cached[p]
               : RuleSimilarity(r, a, b);
    if (sum >= need) return true;              // decided: above threshold
    if (sum + remaining < need) return false;  // decided: unreachable
  }
  return sum >= need;
}

}  // namespace progres
