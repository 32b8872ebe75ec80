#ifndef PROGRES_BENCH_BENCH_UTIL_H_
#define PROGRES_BENCH_BENCH_UTIL_H_

// Shared setup for the figure/table reproduction benches: the synthetic
// CiteSeerX-like and OL-Books-like workloads (Sec. VI-A2), their blocking
// functions (Table II, scaled prefix lengths), match functions (Sec. VI-A2),
// and the simulated cluster.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "blocking/blocking_function.h"
#include "common/stopwatch.h"
#include "datagen/generators.h"
#include "estimate/prob_model.h"
#include "eval/recall_curve.h"
#include "mapreduce/cluster.h"
#include "mapreduce/trace.h"
#include "similarity/match_function.h"

namespace progres {
namespace bench {

// The paper's cluster: mu machines, two map and two reduce slots each.
inline ClusterConfig MakeCluster(int machines) {
  ClusterConfig cluster;
  cluster.machines = machines;
  cluster.map_slots_per_machine = 2;
  cluster.reduce_slots_per_machine = 2;
  cluster.seconds_per_cost_unit = 0.02;
  cluster.execution_threads = 0;  // use all hardware threads
  return cluster;
}

struct PublicationSetup {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
  ProbabilityModel prob;
};

// CiteSeerX-like workload: three main blocking functions on title (two
// sub-blocking functions), abstract, and venue (one each), X > Y > Z.
inline PublicationSetup MakePublicationSetup(int64_t n, uint64_t seed = 2017) {
  PublicationSetup setup;
  PublicationConfig train_gen;
  train_gen.num_entities = std::max<int64_t>(500, n / 5);
  train_gen.seed = seed + 1;
  setup.train = GeneratePublications(train_gen);
  PublicationConfig gen;
  gen.num_entities = n;
  gen.seed = seed;
  setup.data = GeneratePublications(gen);
  setup.blocking = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                                   {"Y", kPubAbstract, {3, 5}, -1},
                                   {"Z", kPubVenue, {3, 5}, -1}});
  setup.match = MatchFunction(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
  setup.prob =
      ProbabilityModel::Train(setup.train.dataset, setup.train.truth,
                              setup.blocking);
  return setup;
}

// Basic uses the main blocking functions only.
inline BlockingConfig PublicationMainBlocking() {
  return BlockingConfig({{"X", kPubTitle, {2}, -1},
                         {"Y", kPubAbstract, {3}, -1},
                         {"Z", kPubVenue, {3}, -1}});
}

struct BookSetup {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
  ProbabilityModel prob;
};

// OL-Books-like workload: title (two sub-blocking functions), authors and
// publisher (one each); eight attributes compared with edit distance or
// exact matching.
inline BookSetup MakeBookSetup(int64_t n, uint64_t seed = 1337) {
  BookSetup setup;
  BookConfig train_gen;
  train_gen.num_entities = std::max<int64_t>(500, n / 5);
  train_gen.seed = seed + 1;
  setup.train = GenerateBooks(train_gen);
  BookConfig gen;
  gen.num_entities = n;
  gen.seed = seed;
  setup.data = GenerateBooks(gen);
  setup.blocking = BlockingConfig({{"X", kBookTitle, {3, 5, 8}, -1},
                                   {"Y", kBookAuthors, {3, 5}, -1},
                                   {"Z", kBookPublisher, {3, 5}, -1}});
  setup.match = MatchFunction(
      {{kBookTitle, AttributeSimilarity::kEditDistance, 0.35, 0},
       {kBookAuthors, AttributeSimilarity::kEditDistance, 0.2, 0},
       {kBookPublisher, AttributeSimilarity::kEditDistance, 0.1, 0},
       {kBookYear, AttributeSimilarity::kExact, 0.1, 0},
       {kBookIsbn, AttributeSimilarity::kEditDistance, 0.1, 0},
       {kBookPages, AttributeSimilarity::kExact, 0.05, 0},
       {kBookLanguage, AttributeSimilarity::kExact, 0.05, 0},
       {kBookEdition, AttributeSimilarity::kExact, 0.05, 0}},
      0.75);
  setup.prob = ProbabilityModel::Train(setup.train.dataset, setup.train.truth,
                                       setup.blocking);
  return setup;
}

inline BlockingConfig BookMainBlocking() {
  return BlockingConfig({{"X", kBookTitle, {3}, -1},
                         {"Y", kBookAuthors, {3}, -1},
                         {"Z", kBookPublisher, {3}, -1}});
}

// Opt-in execution tracing for the benches: when the PROGRES_TRACE_OUT
// environment variable names a file, Attach wires the recorder into a
// cluster config and the destructor writes the collected Chrome trace_event
// JSON there. Without the variable everything is a no-op, so ablations can
// unconditionally create one of these.
class ScopedTrace {
 public:
  ScopedTrace() {
    const char* path = std::getenv("PROGRES_TRACE_OUT");
    if (path != nullptr && path[0] != '\0') path_ = path;
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace() {
    if (path_.empty() || recorder_.empty()) return;
    if (recorder_.WriteChromeJson(path_)) {
      std::fprintf(stderr, "trace written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", path_.c_str());
    }
  }

  bool enabled() const { return !path_.empty(); }
  TraceRecorder* recorder() { return enabled() ? &recorder_ : nullptr; }
  void Attach(ClusterConfig* cluster) {
    if (enabled()) cluster->trace = &recorder_;
  }

 private:
  std::string path_;
  TraceRecorder recorder_;
};

// ---- BENCH_*.json performance reports ----
//
// A bench's --json mode writes BENCH_<name>.json: a flat list of named
// metrics, each living on exactly one of the runtime's two clocks —
//
//   * kind "sim"  — deterministic simulated-clock numbers (makespans,
//     shuffle volumes, time-to-recall milestones). Reproducible
//     bit-for-bit on any machine; tools/compare_bench.py holds them to
//     exact equality against the committed baseline, like a golden file.
//   * kind "wall" — real measurements from common/stopwatch.h (wall
//     seconds, pairs per wall second). Machine-dependent; the compare
//     script normalizes them by the run's own calibration score (below) —
//     durations multiply by it, rates divide by it — so a faster or
//     slower CI machine cancels out, then applies its >15% regression
//     tolerance.
//
// A metric is one kind or the other, never a mix — the same rule the text
// tables follow by keeping "sim_*" and "wall_*" in separate columns.
//
// `gated` opts a metric into the regression gate. Wall measurements that
// are inherently noisy on shared or oversubscribed hardware (e.g. an
// 8-worker pool on a small CI runner) set it false: the compare script
// still requires the metric to exist and prints its trend, but never fails
// on it. Serial wall measurements and all sim metrics stay gated.
struct BenchMetric {
  std::string name;
  std::string kind;  // "sim" or "wall"
  std::string unit;
  bool higher_is_better = false;
  bool gated = true;
  double value = 0.0;
};

// Score of this machine/build for normalizing wall metrics: iterations per
// second of a fixed xorshift loop (loop-carried dependency, so it measures
// scalar throughput rather than vectorizer luck), one short rep.
inline double CalibrationRep() {
  constexpr int64_t kOps = int64_t{1} << 24;
  volatile uint64_t sink = 0;
  Stopwatch watch;
  uint64_t x = 88172645463325252ull;
  for (int64_t i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = sink + x;
  const double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(kOps) / seconds : 0.0;
}

// Best of three calibration reps.
inline double CalibrationScore() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) best = std::max(best, CalibrationRep());
  return best;
}

// The q-quantile (0 <= q <= 1) of `values`, interpolating linearly between
// order statistics. `values` must not be empty.
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

// Interquartile range of `values` relative to their median.
inline double RelativeSpread(const std::vector<double>& values) {
  const double median = Quantile(values, 0.5);
  return median > 0.0
             ? (Quantile(values, 0.75) - Quantile(values, 0.25)) / median
             : 0.0;
}

class BenchReport {
 public:
  explicit BenchReport(std::string bench)
      : bench_(std::move(bench)), calibration_(CalibrationScore()) {}

  void AddSim(const std::string& name, const std::string& unit, double value,
              bool higher_is_better = false) {
    metrics_.push_back(
        {name, "sim", unit, higher_is_better, /*gated=*/true, value});
  }
  void AddWall(const std::string& name, const std::string& unit, double value,
               bool higher_is_better = false, bool gated = true) {
    metrics_.push_back({name, "wall", unit, higher_is_better, gated, value});
  }
  // Replaces the construction-time calibration, e.g. with the median of
  // reps interleaved with the timed work so it sees the same host drift.
  void set_calibration(double ops_per_sec) { calibration_ = ops_per_sec; }

  std::string ToJson() const {
    const auto number = [](double v) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
      return std::string(buffer);
    };
    std::string out = "{\n";
    out += "  \"bench\": \"" + bench_ + "\",\n";
    out += "  \"schema\": 1,\n";
    out += "  \"calibration_ops_per_sec\": " + number(calibration_) + ",\n";
    out += "  \"metrics\": [\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const BenchMetric& m = metrics_[i];
      out += "    {\"name\": \"" + m.name + "\", \"kind\": \"" + m.kind +
             "\", \"unit\": \"" + m.unit + "\", \"higher_is_better\": " +
             (m.higher_is_better ? "true" : "false") +
             ", \"gated\": " + (m.gated ? "true" : "false") +
             ", \"value\": " + number(m.value) + "}";
      out += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::string json = ToJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::string bench_;
  double calibration_ = 0.0;
  std::vector<BenchMetric> metrics_;
};

// Detects the benches' "--json[=path]" flag. Returns true when JSON mode is
// requested and sets *path to the override or to "BENCH_<bench>.json".
inline bool ParseJsonMode(int argc, char** argv, const std::string& bench,
                          std::string* path) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      *path = "BENCH_" + bench + ".json";
      return true;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      *path = argv[i] + 7;
      if (path->empty()) *path = "BENCH_" + bench + ".json";
      return true;
    }
  }
  return false;
}

// Quality (Eq. 1) with a 10-point uniform cost vector over [0, horizon] and
// linearly decaying weights.
inline double QualityOverHorizon(const RecallCurve& curve, double horizon) {
  std::vector<double> times;
  std::vector<double> weights;
  for (int i = 1; i <= 10; ++i) {
    times.push_back(horizon * i / 10.0);
    weights.push_back(1.0 - (i - 1) * 0.1);
  }
  return Quality(curve, times, weights);
}

}  // namespace bench
}  // namespace progres

#endif  // PROGRES_BENCH_BENCH_UTIL_H_
