// Microbenchmarks of the similarity primitives: the resolve/match function
// dominates resolution cost, so its building blocks matter. Besides the
// google-benchmark mode, "--json[=path]" times the edit-distance kernel at
// fixed string lengths and writes a BENCH_micro_levenshtein.json report for
// the CI regression gate (tools/compare_bench.py).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
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

int JsonMain(const std::string& path) {
  bench::BenchReport report("micro_levenshtein");
  struct Case {
    size_t length;
    // Sixteen independent random pairs, cycled, so the timed loop is not
    // one pair's branch pattern.
    std::vector<std::pair<std::string, std::string>> pairs;
    int64_t calls;
    double best_ns = -1.0;
  };
  std::vector<Case> cases;
  for (const size_t length : kJsonLengths) {
    Case c{length, {}, 0};
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
  // Best of fifteen reps, the lengths interleaved within each rep: a slow
  // stretch of a shared host then costs every length a rep, not one length
  // its whole measurement.
  for (int rep = 0; rep < 15; ++rep) {
    for (Case& c : cases) {
      int64_t sink = 0;
      Stopwatch watch;
      for (int64_t i = 0; i < c.calls; ++i) {
        const auto& [a, b] = c.pairs[static_cast<size_t>(i) % c.pairs.size()];
        sink += Levenshtein(a, b);
      }
      const double ns =
          watch.ElapsedSeconds() * 1e9 / static_cast<double>(c.calls);
      benchmark::DoNotOptimize(sink);
      if (c.best_ns < 0.0 || ns < c.best_ns) c.best_ns = ns;
    }
  }
  for (const Case& c : cases) {
    report.AddWall("ns_per_call_" + std::to_string(c.length), "ns",
                   c.best_ns);
    std::printf("%4zu chars: %10.1f ns/call\n", c.length, c.best_ns);
  }
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
