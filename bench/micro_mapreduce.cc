// Microbenchmarks of the MapReduce runtime: shuffle + sort + group
// throughput at several task counts (google-benchmark mode), plus a
// "--json[=path]" mode that measures the same fixed workload on both
// execution backends and writes a BENCH_micro_mapreduce.json report for
// the CI regression gate (tools/compare_bench.py).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mapreduce/job.h"

namespace progres {
namespace {

void BM_ShuffleThroughput(benchmark::State& state) {
  using Job = MapReduceJob<int64_t, int64_t, int64_t>;
  const int tasks = static_cast<int>(state.range(0));
  std::vector<int64_t> input;
  input.reserve(200000);
  for (int64_t i = 0; i < 200000; ++i) input.push_back(i * 2654435761 % 9973);

  ClusterConfig cluster;
  cluster.machines = tasks;
  cluster.map_slots_per_machine = 1;
  cluster.reduce_slots_per_machine = 1;
  for (auto _ : state) {
    Job job(tasks, tasks);
    const auto result = job.Run(
        input,
        [](const int64_t& record, Job::MapContext* ctx) {
          ctx->Emit(record % 1024, record);
        },
        [](const int64_t& key, std::vector<int64_t>* values,
           Job::ReduceContext* ctx) {
          int64_t sum = 0;
          for (int64_t v : *values) sum += v;
          ctx->Emit(key, sum);
        },
        cluster);
    benchmark::DoNotOptimize(result.outputs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_ShuffleThroughput)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// ---- BENCH_micro_mapreduce.json ----

using JsonJob = MapReduceJob<int64_t, int64_t, int64_t>;

// The JSON-mode workload: 2M records shuffled into 16 map x 16 reduce
// tasks on a 4-machine cluster (8 slots per phase), so every measured
// thread count in {1, 4, 8} stays within the slot capacity and has more
// tasks than workers.
JsonJob::Result RunJsonWorkload(const std::vector<int64_t>& input,
                                ExecutionBackend backend, int threads) {
  ClusterConfig cluster;
  cluster.machines = 4;
  cluster.backend = backend;
  cluster.execution_threads = threads;
  JsonJob job(16, 16);
  return job.Run(
      input,
      [](const int64_t& record, JsonJob::MapContext* ctx) {
        ctx->Emit(record % 1024, record);
      },
      [](const int64_t& key, std::vector<int64_t>* values,
         JsonJob::ReduceContext* ctx) {
        int64_t sum = 0;
        for (int64_t v : *values) sum += v;
        ctx->Emit(key, sum);
      },
      cluster);
}

int JsonMain(const std::string& path) {
  // Larger than the google-benchmark workload: the regression gate needs
  // per-run wall times well above timer noise.
  constexpr int64_t kRecords = 2000000;
  std::vector<int64_t> input;
  input.reserve(kRecords);
  for (int64_t i = 0; i < kRecords; ++i) input.push_back(i * 2654435761 % 9973);
  const double pairs = static_cast<double>(input.size());

  struct Config {
    const char* label;
    ExecutionBackend backend;
    int threads;
  };
  const std::vector<Config> configs = {
      {"sim", ExecutionBackend::kSimulated, 0},
      {"t1", ExecutionBackend::kThreaded, 1},
      {"t4", ExecutionBackend::kThreaded, 4},
      {"t8", ExecutionBackend::kThreaded, 8},
  };

  bench::BenchReport report("micro_mapreduce");
  const JsonJob::Result reference =
      RunJsonWorkload(input, ExecutionBackend::kSimulated, 0);
  if (reference.failed) {
    std::fprintf(stderr, "reference run failed: %s\n",
                 reference.error.c_str());
    return 1;
  }
  // The simulated makespan and shuffle volume are results-clock facts,
  // identical for every backend — record them once, exactly.
  report.AddSim("sim_makespan_seconds", "sim_s", reference.timing.end);
  report.AddSim("shuffle_records", "records",
                static_cast<double>(
                    reference.counters.Get("mr.shuffle.records")));

  // Seven reps with the configs interleaved inside each rep, plus one
  // calibration rep per rep: a slow stretch of a shared host then costs
  // every config (and the calibration) a rep, not one config its whole
  // measurement. Each wall metric is the median of its reps, and
  // spread_total_<config> (interquartile range over median) shows how far
  // the reps scattered.
  constexpr int kReps = 7;
  std::vector<std::vector<JobWallTiming>> timings(configs.size());
  std::vector<double> calibrations;
  for (int rep = 0; rep < kReps; ++rep) {
    calibrations.push_back(bench::CalibrationRep());
    for (size_t i = 0; i < configs.size(); ++i) {
      const Config& config = configs[i];
      const JsonJob::Result result =
          RunJsonWorkload(input, config.backend, config.threads);
      if (result.failed) {
        std::fprintf(stderr, "%s run failed: %s\n", config.label,
                     result.error.c_str());
        return 1;
      }
      if (result.outputs != reference.outputs) {
        std::fprintf(stderr,
                     "%s run diverged from the simulated reference\n",
                     config.label);
        return 1;
      }
      timings[i].push_back(result.timing.wall);
    }
  }
  report.set_calibration(bench::Quantile(calibrations, 0.5));
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    std::vector<double> map;
    std::vector<double> reduce;
    std::vector<double> total;
    for (const JobWallTiming& wall : timings[i]) {
      map.push_back(wall.map_seconds);
      reduce.push_back(wall.reduce_seconds);
      total.push_back(wall.total_seconds);
    }
    const double total_median = bench::Quantile(total, 0.5);
    const std::string label = config.label;
    // The serial backend's timings are reproducible enough to gate; the
    // threaded pool's depend on how many cores the host really has (an
    // oversubscribed 1-core runner swings them by tens of percent), so
    // they are recorded as ungated trend data.
    const bool gated = config.backend == ExecutionBackend::kSimulated;
    report.AddWall("pairs_per_sec_" + label, "pairs/s", pairs / total_median,
                   /*higher_is_better=*/true, gated);
    report.AddWall("wall_map_seconds_" + label, "wall_s",
                   bench::Quantile(map, 0.5), /*higher_is_better=*/false,
                   gated);
    report.AddWall("wall_reduce_seconds_" + label, "wall_s",
                   bench::Quantile(reduce, 0.5), /*higher_is_better=*/false,
                   gated);
    report.AddWall("wall_total_seconds_" + label, "wall_s", total_median,
                   /*higher_is_better=*/false, gated);
    report.AddWall("spread_total_" + label, "ratio",
                   bench::RelativeSpread(total), /*higher_is_better=*/false,
                   /*gated=*/false);
    std::printf("%-4s total %.4f s (median of %d, spread %.1f%%)\n",
                config.label, total_median, kReps,
                100.0 * bench::RelativeSpread(total));
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
  if (progres::bench::ParseJsonMode(argc, argv, "micro_mapreduce",
                                    &json_path)) {
    return progres::JsonMain(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
