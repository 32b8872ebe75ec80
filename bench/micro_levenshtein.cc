// Microbenchmarks of the similarity primitives: the resolve/match function
// dominates resolution cost, so its building blocks matter. Besides the
// google-benchmark mode, "--json[=path]" times the edit-distance kernel at
// fixed string lengths and MatchFunction::Resolve over generated book
// pairs, and writes a BENCH_micro_levenshtein.json report for the CI
// regression gate (tools/compare_bench.py).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/generators.h"
#include "similarity/levenshtein.h"
#include "similarity/match_function.h"

namespace progres {
namespace {

std::string RandomString(Rng* rng, size_t length) {
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>('a' + rng->UniformU64(26)));
  }
  return s;
}

void BM_Levenshtein(benchmark::State& state) {
  Rng rng(1);
  const size_t length = static_cast<size_t>(state.range(0));
  const std::string a = RandomString(&rng, length);
  const std::string b = RandomString(&rng, length);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(32)->Arg(128)->Arg(350);

void BM_MatchFunctionResolve(benchmark::State& state) {
  Rng rng(3);
  Entity a;
  a.id = 0;
  a.attributes = {RandomString(&rng, 40), RandomString(&rng, 350),
                  RandomString(&rng, 20)};
  Entity b;
  b.id = 1;
  b.attributes = a.attributes;
  b.attributes[0][5] = '#';
  const MatchFunction match(
      {{0, AttributeSimilarity::kEditDistance, 0.5, 0},
       {1, AttributeSimilarity::kEditDistance, 0.3, 350},
       {2, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
  for (auto _ : state) {
    benchmark::DoNotOptimize(match.Resolve(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchFunctionResolve);

// ---- BENCH_micro_levenshtein.json ----

// Lengths straddling the kernel's single-word limit (64) and a long
// abstract-sized pair (350).
constexpr size_t kJsonLengths[] = {8, 32, 64, 65, 128, 350};
constexpr int kJsonReps = 9;

// The ordered early-exit loop MatchFunction::Resolve must agree with, for
// the edit-distance and exact rules the book rule set uses.
bool OrderedReference(const MatchFunction& match, const Entity& a,
                      const Entity& b) {
  const std::vector<AttributeRule>& rules = match.rules();
  std::vector<size_t> order(rules.size());
  double total = 0.0;
  for (size_t i = 0; i < rules.size(); ++i) {
    order[i] = i;
    total += rules[i].weight;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return rules[x].weight > rules[y].weight;
  });
  const double need = match.threshold() * total;
  double sum = 0.0;
  double remaining = total;
  for (const size_t i : order) {
    const AttributeRule& r = rules[i];
    const std::string_view va =
        a.attribute(static_cast<size_t>(r.attribute_index));
    const std::string_view vb =
        b.attribute(static_cast<size_t>(r.attribute_index));
    remaining -= r.weight;
    sum += r.weight * (r.similarity == AttributeSimilarity::kExact
                           ? (va == vb ? 1.0 : 0.0)
                           : EditSimilarity(va, vb));
    if (sum >= need) return true;
    if (sum + remaining < need) return false;
  }
  return sum >= need;
}

// Candidate pairs of a generated book dataset, as a sorted-neighbourhood
// pass on the title would propose them: each entity with its next
// `window - 1` neighbours in title order.
std::vector<std::pair<const Entity*, const Entity*>> BookPairs(
    const Dataset& dataset, size_t window) {
  std::vector<const Entity*> sorted;
  for (const Entity& e : dataset.entities()) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entity* x, const Entity* y) {
                     return x->attribute(kBookTitle) < y->attribute(kBookTitle);
                   });
  std::vector<std::pair<const Entity*, const Entity*>> pairs;
  for (size_t i = 0; i < sorted.size(); ++i) {
    for (size_t j = i + 1; j < std::min(sorted.size(), i + window); ++j) {
      pairs.emplace_back(sorted[i], sorted[j]);
    }
  }
  return pairs;
}

int JsonMain(const std::string& path) {
  bench::BenchReport report("micro_levenshtein");
  struct Case {
    size_t length;
    // Sixteen independent random pairs, cycled, so the timed loop is not
    // one pair's branch pattern.
    std::vector<std::pair<std::string, std::string>> pairs;
    int64_t calls;
    std::vector<double> ns;
  };
  std::vector<Case> cases;
  for (const size_t length : kJsonLengths) {
    Case c{length, {}, 0, {}};
    Rng rng(length);
    int64_t distance_sum = 0;
    for (int i = 0; i < 16; ++i) {
      c.pairs.emplace_back(RandomString(&rng, length),
                           RandomString(&rng, length));
      distance_sum += Levenshtein(c.pairs.back().first, c.pairs.back().second);
    }
    // The distances are a deterministic fact of the inputs: held exactly.
    report.AddSim("distance_sum_" + std::to_string(length), "edits",
                  static_cast<double>(distance_sum));
    // ~20 ms of work per rep at the two-row DP's speed.
    c.calls = std::max<int64_t>(
        2000, int64_t{20000000} / static_cast<int64_t>(length * length));
    cases.push_back(std::move(c));
  }

  // The match function under the book rule set (bench_util.h) over a fixed
  // set of generated candidate pairs: its duplicate decisions are held
  // exactly and must equal the ordered loop's.
  BookConfig books;
  books.num_entities = 4000;
  books.seed = 1337;
  const LabeledDataset book_data = GenerateBooks(books);
  const MatchFunction match = bench::MakeBookSetup(500).match;
  const auto book_pairs = BookPairs(book_data.dataset, /*window=*/10);
  int64_t duplicates = 0;
  int64_t reference = 0;
  for (const auto& [a, b] : book_pairs) {
    duplicates += match.Resolve(*a, *b) ? 1 : 0;
    reference += OrderedReference(match, *a, *b) ? 1 : 0;
  }
  if (duplicates != reference) {
    std::fprintf(stderr,
                 "MatchFunction::Resolve found %lld duplicates, the ordered "
                 "loop %lld\n",
                 static_cast<long long>(duplicates),
                 static_cast<long long>(reference));
    return 1;
  }
  report.AddSim("resolve_duplicates", "pairs",
                static_cast<double>(duplicates));
  std::vector<double> resolve_ns;

  // Nine reps with the cases and one calibration rep interleaved in each:
  // a slow stretch of a shared host then costs every case a rep, not one
  // case its whole measurement. Each wall metric is the median of its reps
  // and spread_* (interquartile range over median) shows their scatter.
  std::vector<double> calibrations;
  for (int rep = 0; rep < kJsonReps; ++rep) {
    calibrations.push_back(bench::CalibrationRep());
    for (Case& c : cases) {
      int64_t sink = 0;
      Stopwatch watch;
      for (int64_t i = 0; i < c.calls; ++i) {
        const auto& [a, b] = c.pairs[static_cast<size_t>(i) % c.pairs.size()];
        sink += Levenshtein(a, b);
      }
      c.ns.push_back(watch.ElapsedSeconds() * 1e9 /
                     static_cast<double>(c.calls));
      benchmark::DoNotOptimize(sink);
    }
    int64_t sink = 0;
    Stopwatch watch;
    for (const auto& [a, b] : book_pairs) sink += match.Resolve(*a, *b);
    resolve_ns.push_back(watch.ElapsedSeconds() * 1e9 /
                         static_cast<double>(book_pairs.size()));
    benchmark::DoNotOptimize(sink);
  }
  report.set_calibration(bench::Quantile(calibrations, 0.5));
  const auto add = [&](const std::string& suffix,
                       const std::vector<double>& ns) {
    const double median = bench::Quantile(ns, 0.5);
    report.AddWall("ns_per_call_" + suffix, "ns", median);
    report.AddWall("spread_" + suffix, "ratio", bench::RelativeSpread(ns),
                   /*higher_is_better=*/false, /*gated=*/false);
    std::printf("%-8s %10.1f ns/call (median of %d, spread %.1f%%)\n",
                suffix.c_str(), median, kJsonReps,
                100.0 * bench::RelativeSpread(ns));
  };
  for (const Case& c : cases) add(std::to_string(c.length), c.ns);
  add("resolve", resolve_ns);
  if (!report.WriteJson(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace progres

int main(int argc, char** argv) {
  std::string json_path;
  if (progres::bench::ParseJsonMode(argc, argv, "micro_levenshtein",
                                    &json_path)) {
    return progres::JsonMain(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
