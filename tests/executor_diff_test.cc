// Differential tests for the two execution backends. The MR contract —
// deterministic fault plans, counters merged in task order behind the
// phase barrier, fixed shuffle gather-sort order — promises that the
// threaded backend produces byte-identical results to the serial simulated
// reference, for any thread count and any real interleaving. These tests
// hold the runtime to that promise:
//
//   * every frozen golden driver, re-run threaded with 1 and 4 workers,
//     must reproduce its fixture byte for byte;
//   * a matrix of cluster-size x thread-count x fault-plan configurations
//     (crashes, hangs, poison records, shuffle corruption, backoff +
//     blacklisting, checkpointed recovery) must agree between backends on
//     the full dump, every counter and the quarantined entity ids;
//   * a traced threaded run's wall-clock spans must reconcile exactly with
//     the schedule-derived "mr.*" counters;
//   * a spilled, disk-faulted, corrupted, poisoned, deadline-cut and resumed
//     run must record the same data-plane spans and instants on both
//     backends — only their clocks and lanes may differ;
//   * a many-task, 8-worker stress run (trace + checkpoints + heavy retry
//     churn) exercises the concurrent paths TSan watches.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "er_golden_util.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/executor.h"
#include "mapreduce/job.h"
#include "mapreduce/trace.h"

namespace progres {
namespace {

using testing_util::DumpErRunResult;
using testing_util::GoldenDriverNames;
using testing_util::RunGoldenDriver;

std::string ReadGoldenFixture(const std::string& name) {
  std::ifstream in(std::string(PROGRES_GOLDEN_DIR) + "/" + name + ".golden",
                   std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- Backend selection plumbing ----

TEST(ExecutionBackendTest, ParseAndToStringRoundTrip) {
  ExecutionBackend backend = ExecutionBackend::kSimulated;
  EXPECT_TRUE(ParseExecutionBackend("threaded", &backend));
  EXPECT_EQ(backend, ExecutionBackend::kThreaded);
  EXPECT_TRUE(ParseExecutionBackend("simulated", &backend));
  EXPECT_EQ(backend, ExecutionBackend::kSimulated);
  EXPECT_FALSE(ParseExecutionBackend("Threaded", &backend));
  EXPECT_FALSE(ParseExecutionBackend("", &backend));
  EXPECT_FALSE(ParseExecutionBackend("parallel", &backend));
  EXPECT_STREQ(ToString(ExecutionBackend::kSimulated), "simulated");
  EXPECT_STREQ(ToString(ExecutionBackend::kThreaded), "threaded");
}

// ---- Golden equivalence: threaded runs reproduce the frozen fixtures ----

struct GoldenCase {
  std::string driver;
  int threads = 1;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  for (const std::string& name : GoldenDriverNames()) {
    // GoldenCluster() has 3 machines x 2 slots = 6-slot capacity, so the
    // fixture configurations admit up to 6 workers; 8-thread coverage runs
    // on the wider matrix clusters below.
    for (int threads : {1, 4}) cases.push_back({name, threads});
  }
  return cases;
}

class BackendGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(BackendGoldenTest, ThreadedRunMatchesFrozenFixture) {
  if (testing_util::DiskFaultOverlayActive()) {
    GTEST_SKIP() << "fixtures frozen without the disk-fault overlay";
  }
  const GoldenCase c = GetParam();
  const std::string threaded =
      RunGoldenDriver(c.driver, nullptr, ExecutionBackend::kThreaded,
                      c.threads);
  // The fixture is the simulated backend's output, frozen at the seed state
  // (driver_matrix_test keeps that end pinned) — matching it byte for byte
  // is the strongest form of cross-backend equality.
  EXPECT_EQ(threaded, ReadGoldenFixture(c.driver));
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, BackendGoldenTest, ::testing::ValuesIn(GoldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.driver + "_t" + std::to_string(info.param.threads);
    });

// ---- Config matrix: cluster size x threads x fault plan ----

struct MatrixCase {
  std::string label;
  int machines = 2;
  int threads = 1;
  FaultConfig fault;
  bool checkpoint_recovery = false;
  MapEmission map_emission = MapEmission::kPerBlock;
  bool expect_quarantine = false;
};

// Ten configurations spanning machines {2,3,4} x threads {1,4,8} and every
// fault family the threaded backend supports (machine failures and
// speculation are simulated-only and rejected at validation — covered in
// heterogeneous_cluster_test). Threads never exceed the cluster's slot
// capacity (2 slots per machine per phase).
std::vector<MatrixCase> MatrixCases() {
  std::vector<MatrixCase> cases;
  {
    MatrixCase c;
    c.label = "faultfree_m2_t1";
    c.machines = 2;
    c.threads = 1;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "faultfree_m4_t8";
    c.machines = 4;
    c.threads = 8;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "crashes_m2_t4";
    c.machines = 2;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 11;
    c.fault.map_failure_prob = 0.15;
    c.fault.reduce_failure_prob = 0.15;
    c.fault.max_attempts = 8;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "hangs_m3_t4";
    c.machines = 3;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 12;
    c.fault.map_hang_prob = 0.2;
    c.fault.reduce_hang_prob = 0.2;
    c.fault.task_timeout_seconds = 40.0;
    c.fault.max_attempts = 8;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "poison_skip_m3_t1";
    c.machines = 3;
    c.threads = 1;
    c.fault.enabled = true;
    c.fault.poison_records = {5, 83, 211};
    c.fault.skip_bad_records = true;
    c.fault.max_attempts = 8;
    c.expect_quarantine = true;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "corruption_m2_t4";
    c.machines = 2;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 13;
    c.fault.shuffle_corrupt_prob = 0.2;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "backoff_blacklist_m4_t8";
    c.machines = 4;
    c.threads = 8;
    c.fault.enabled = true;
    c.fault.seed = 14;
    c.fault.map_failure_prob = 0.2;
    c.fault.reduce_failure_prob = 0.2;
    c.fault.max_attempts = 8;
    c.fault.retry_backoff_seconds = 3.0;
    c.fault.blacklist_failures = 2;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "checkpoint_m3_t4";
    c.machines = 3;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 15;
    c.fault.reduce_failure_prob = 0.3;
    c.fault.max_attempts = 8;
    c.checkpoint_recovery = true;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "kitchen_sink_m4_t8";
    c.machines = 4;
    c.threads = 8;
    c.fault.enabled = true;
    c.fault.seed = 16;
    c.fault.map_failure_prob = 0.1;
    c.fault.reduce_failure_prob = 0.1;
    c.fault.map_hang_prob = 0.1;
    c.fault.task_timeout_seconds = 60.0;
    c.fault.shuffle_corrupt_prob = 0.1;
    c.fault.poison_records = {17, 301};
    c.fault.skip_bad_records = true;
    c.fault.max_attempts = 10;
    c.map_emission = MapEmission::kPerTree;
    c.expect_quarantine = true;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "checkpoint_hangs_m4_t8";
    c.machines = 4;
    c.threads = 8;
    c.fault.enabled = true;
    c.fault.seed = 17;
    c.fault.reduce_hang_prob = 0.25;
    c.fault.task_timeout_seconds = 40.0;
    c.fault.max_attempts = 8;
    c.checkpoint_recovery = true;
    cases.push_back(c);
  }
  return cases;
}

// Smaller cousin of the golden workload, sized so twenty driver runs stay
// cheap under TSan.
struct MatrixWorkload {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
};

const MatrixWorkload& GetMatrixWorkload() {
  static const MatrixWorkload* workload = [] {
    auto* w = new MatrixWorkload();
    PublicationConfig train_gen;
    train_gen.num_entities = 200;
    train_gen.seed = 961;
    w->train = GeneratePublications(train_gen);
    PublicationConfig gen;
    gen.num_entities = 400;
    gen.seed = 962;
    w->data = GeneratePublications(gen);
    w->blocking = BlockingConfig(
        {{"X", kPubTitle, {2, 4}, -1}, {"Y", kPubVenue, {3, 5}, -1}});
    w->match = MatchFunction(
        {{kPubTitle, AttributeSimilarity::kEditDistance, 0.6, 0},
         {kPubVenue, AttributeSimilarity::kEditDistance, 0.4, 0}},
        0.75);
    return w;
  }();
  return *workload;
}

const ProbabilityModel& GetMatrixModel() {
  static const ProbabilityModel* model = [] {
    const MatrixWorkload& w = GetMatrixWorkload();
    return new ProbabilityModel(
        ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking));
  }();
  return *model;
}

ErRunResult RunMatrixDriver(const MatrixCase& c, ExecutionBackend backend) {
  const MatrixWorkload& w = GetMatrixWorkload();
  const SortedNeighborMechanism sn;
  ProgressiveErOptions options;
  options.cluster.machines = c.machines;
  options.cluster.execution_threads = c.threads;
  options.cluster.backend = backend;
  options.cluster.fault = c.fault;
  options.checkpoint_recovery = c.checkpoint_recovery;
  options.map_emission = c.map_emission;
  const ProgressiveEr er(w.blocking, w.match, sn, GetMatrixModel(), options);
  return er.Run(w.data.dataset);
}

class BackendMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(BackendMatrixTest, ThreadedMatchesSimulated) {
  const MatrixCase c = GetParam();
  const ErRunResult sim = RunMatrixDriver(c, ExecutionBackend::kSimulated);
  const ErRunResult threaded = RunMatrixDriver(c, ExecutionBackend::kThreaded);
  const GroundTruth& truth = GetMatrixWorkload().data.truth;
  // The canonical dump covers events, pairs, chunks, timings, the recall
  // curve and the non-shuffle counters...
  EXPECT_EQ(DumpErRunResult(threaded, truth), DumpErRunResult(sim, truth));
  // ...and the remaining observables it skips are held to the same bar:
  // the complete counter map (including "mr.shuffle.*") and the
  // quarantined entity ids.
  EXPECT_EQ(threaded.counters.values(), sim.counters.values());
  EXPECT_EQ(threaded.quarantined_ids, sim.quarantined_ids);
  EXPECT_EQ(threaded.failed, sim.failed);
  EXPECT_EQ(threaded.error, sim.error);
  if (c.expect_quarantine) {
    // The poison plan actually fired — this config is not vacuously equal.
    EXPECT_FALSE(sim.quarantined_ids.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BackendMatrixTest, ::testing::ValuesIn(MatrixCases()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return info.param.label;
    });

// ---- Wall-clock trace reconciliation ----

using DiffJob = MapReduceJob<int, int, int>;

constexpr int kMapTasks = 6;
constexpr int kReduceTasks = 4;

// Raw job with a few groups per reduce task; checkpointing at a small alpha
// yields several snapshots per task.
DiffJob::Result RunRawJob(const ClusterConfig& cluster, int records,
                          CheckpointStore* store, double alpha) {
  std::vector<int> input;
  for (int i = 0; i < records; ++i) input.push_back(i * 37 % 101);
  DiffJob job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  if (store != nullptr) job.set_checkpointing(alpha, store, nullptr, nullptr);
  return job.Run(
      input,
      [](const int& record, DiffJob::MapContext* ctx) {
        ctx->counters().Increment("map.records");
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 13, record);
      },
      [](const int& key, std::vector<int>* values, DiffJob::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->counters().Increment("reduce.groups");
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

ClusterConfig RawCluster(int machines, int threads,
                         ExecutionBackend backend) {
  ClusterConfig cluster;
  cluster.machines = machines;
  cluster.execution_threads = threads;
  cluster.backend = backend;
  cluster.seconds_per_cost_unit = 1.0;
  return cluster;
}

// Crashes, a hang and checkpointed retries in one plan, so the traced run
// exercises every span kind the threaded backend stamps.
FaultConfig ReconcileFaults() {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 6;
  fault.injected.push_back({TaskPhase::kReduce, 0, 0});
  fault.injected.push_back({TaskPhase::kReduce, 1, 0});
  fault.injected.push_back({TaskPhase::kMap, 2, 0});
  fault.injected_hangs.push_back({TaskPhase::kMap, 1, 0, 0.5});
  fault.task_timeout_seconds = 30.0;
  return fault;
}

TEST(ThreadedTraceTest, SpansReconcileWithMrCounters) {
  ClusterConfig cluster = RawCluster(2, 4, ExecutionBackend::kThreaded);
  cluster.fault = ReconcileFaults();
  TraceRecorder recorder;
  cluster.trace = &recorder;
  CheckpointStore store;
  const DiffJob::Result r = RunRawJob(cluster, 229, &store, 5.0);
  ASSERT_FALSE(r.failed) << r.error;

  int64_t attempts = 0;
  int64_t failed = 0;
  int64_t timed_out = 0;
  int64_t shuffles = 0;
  int64_t saves = 0;
  int64_t restores = 0;
  int64_t spill_writes = 0;
  int64_t spill_merges = 0;
  for (const TraceSpan& span : recorder.spans()) {
    // Wall-clock stamps: monotone, and placed on worker lanes (the
    // threaded backend has no machine placement).
    EXPECT_GE(span.start, 0.0);
    EXPECT_GE(span.end, span.start);
    switch (span.kind) {
      case SpanKind::kAttempt:
        ++attempts;
        EXPECT_EQ(span.machine, -1);
        EXPECT_GE(span.slot, 0);
        EXPECT_LT(span.slot, cluster.execution_threads);
        if (span.outcome == SpanOutcome::kTimedOut) {
          ++timed_out;
          ++failed;
        } else if (span.outcome == SpanOutcome::kFailed) {
          ++failed;
        } else {
          EXPECT_EQ(span.outcome, SpanOutcome::kCompleted);
        }
        break;
      case SpanKind::kShuffle:
        ++shuffles;
        EXPECT_GE(span.records_in, 0);
        break;
      case SpanKind::kCheckpointSave:
        ++saves;
        break;
      case SpanKind::kCheckpointRestore:
        ++restores;
        break;
      case SpanKind::kRetryBackoff:
        ADD_FAILURE() << "no backoff configured, yet a backoff span exists";
        break;
      case SpanKind::kSpillWrite:
        ++spill_writes;
        EXPECT_GE(span.records_in, 0);
        EXPECT_GE(span.bytes, 0);
        break;
      case SpanKind::kSpillMerge:
        ++spill_merges;
        break;
    }
  }

  // Every wall-clock span kind reconciles exactly with the schedule-derived
  // "mr.*" counters — the two clocks describe the same execution.
  EXPECT_EQ(attempts, r.counters.Get("mr.attempts"));
  EXPECT_EQ(failed, r.counters.Get("mr.failed_attempts"));
  EXPECT_EQ(timed_out, r.counters.Get("mr.faults.task_timeouts"));
  EXPECT_EQ(shuffles, kReduceTasks);
  EXPECT_EQ(saves, r.counters.Get("mr.checkpoint.saved"));
  EXPECT_EQ(restores, r.counters.Get("mr.checkpoint.restored"));
  EXPECT_EQ(spill_writes, r.counters.Get("mr.spill.runs"));
  EXPECT_EQ(spill_merges, r.counters.Get("mr.spill.merge_passes"));
  // The plan actually produced retries, a timeout kill and checkpoint
  // traffic — the reconciliation above is not vacuous.
  EXPECT_GT(failed, 0);
  EXPECT_GT(timed_out, 0);
  EXPECT_GT(saves, 0);
  EXPECT_GT(restores, 0);

  // Tracing stays observational on the threaded backend too.
  ClusterConfig untraced = cluster;
  untraced.trace = nullptr;
  CheckpointStore untraced_store;
  const DiffJob::Result plain = RunRawJob(untraced, 229, &untraced_store, 5.0);
  EXPECT_EQ(r.outputs, plain.outputs);
  EXPECT_EQ(r.counters.values(), plain.counters.values());
  EXPECT_DOUBLE_EQ(r.timing.end, plain.timing.end);
}

// ---- Backend trace parity ----

// The raw job again, poison-sensitive and persisting its checkpoints:
// the traced run of the parity test below.
DiffJob::Result RunParityJob(const ClusterConfig& cluster,
                             CheckpointStore* store) {
  std::vector<int> input;
  for (int i = 0; i < 400; ++i) input.push_back(i * 37 % 101);
  DiffJob job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  job.set_poison_faults(true);
  job.set_checkpointing(5.0, store, nullptr, nullptr);
  return job.Run(
      input,
      [](const int& record, DiffJob::MapContext* ctx) {
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 13, record);
      },
      [](const int& key, std::vector<int>* values,
         DiffJob::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

// What a trace says about the data plane, clock and lane stripped off.
struct TraceFacts {
  std::multiset<std::tuple<int, int, int, int64_t, int64_t, double>> spans;
  std::multiset<std::tuple<int, int, int, int, int64_t>> instants;
};

TraceFacts FactsOf(const TraceRecorder& trace) {
  TraceFacts facts;
  for (const TraceSpan& s : trace.spans()) {
    if (s.kind == SpanKind::kAttempt) continue;
    facts.spans.emplace(static_cast<int>(s.kind), static_cast<int>(s.phase),
                        s.task, s.records_in, s.bytes, s.cost_units);
  }
  for (const TraceInstant& i : trace.instants()) {
    facts.instants.emplace(static_cast<int>(i.kind),
                           static_cast<int>(i.phase), i.task, i.peer_task,
                           i.record);
  }
  return facts;
}

// One run with every data-plane event the stamper handles: forced spills
// under transient, torn and corrupting disk faults, shuffle corruption, a
// poison record quarantined by skip-bad-records, a degraded deadline cut,
// and reduce tasks resumed from checkpoints a failed earlier run persisted.
// Both backends must record the same multiset of non-attempt spans and of
// instants: only the anchors' clock and the lanes may differ.
TEST(BackendTraceParityTest, DataPlaneSpansMatchAcrossBackends) {
  const auto run = [](ExecutionBackend backend, const std::string& tag) {
    const std::filesystem::path root =
        std::filesystem::path(::testing::TempDir()) /
        ("progres_trace_parity_" + tag);
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root / "spill");
    {
      // The "earlier process": every reduce task dies on its only
      // attempt partway through, leaving a partial journal behind.
      ClusterConfig doomed = RawCluster(2, 1, ExecutionBackend::kSimulated);
      doomed.fault.enabled = true;
      doomed.fault.max_attempts = 1;
      for (int t = 0; t < kReduceTasks; ++t) {
        doomed.fault.injected.push_back({TaskPhase::kReduce, t, 0});
      }
      CheckpointStore store;
      store.ConfigurePersistence((root / "ckpt").string(), "parity",
                                 /*resume=*/false);
      const DiffJob::Result failed = RunParityJob(doomed, &store);
      EXPECT_TRUE(failed.failed);
    }
    ClusterConfig cluster = RawCluster(2, 4, backend);
    cluster.shuffle_budget.max_bytes = 1;
    cluster.shuffle_budget.block_bytes = 64;
    cluster.shuffle_budget.spill_dir = (root / "spill").string();
    cluster.fault.enabled = true;
    cluster.fault.seed = 31;
    cluster.fault.max_attempts = 10;
    cluster.fault.spill_write_error_prob = 0.2;
    cluster.fault.spill_torn_write_prob = 0.1;
    cluster.fault.spill_corrupt_prob = 0.1;
    cluster.fault.shuffle_corrupt_prob = 0.3;
    cluster.fault.poison_records = {57};
    cluster.fault.skip_bad_records = true;
    cluster.control.allow_degraded = true;
    cluster.control.deadline_seconds = 0.0;  // set below, mid-run
    TraceRecorder trace;
    cluster.trace = &trace;
    // The deadline: halfway into the reduce phase of the same run
    // undeadlined (the simulated timeline is backend-independent).
    {
      ClusterConfig probe = cluster;
      probe.backend = ExecutionBackend::kSimulated;
      probe.trace = nullptr;
      probe.control = JobControl();
      CheckpointStore store;
      const DiffJob::Result full = RunParityJob(probe, &store);
      EXPECT_FALSE(full.failed) << full.error;
      cluster.control.deadline_seconds =
          (full.timing.map_end + full.timing.end) / 2.0;
    }
    CheckpointStore store;
    store.ConfigurePersistence((root / "ckpt").string(), "parity",
                               /*resume=*/true);
    const DiffJob::Result r = RunParityJob(cluster, &store);
    EXPECT_FALSE(r.failed) << r.error;
    EXPECT_TRUE(r.completeness.degraded);
    std::filesystem::remove_all(root);
    return FactsOf(trace);
  };
  const TraceFacts sim = run(ExecutionBackend::kSimulated, "sim");
  const TraceFacts threaded = run(ExecutionBackend::kThreaded, "thr");
  EXPECT_EQ(threaded.spans, sim.spans);
  EXPECT_EQ(threaded.instants, sim.instants);

  // Not vacuous: every data-plane kind the run was built to produce is
  // there.
  const auto has_span = [&sim](SpanKind kind) {
    for (const auto& span : sim.spans) {
      if (std::get<0>(span) == static_cast<int>(kind)) return true;
    }
    return false;
  };
  for (const SpanKind kind :
       {SpanKind::kShuffle, SpanKind::kCheckpointSave,
        SpanKind::kCheckpointRestore, SpanKind::kSpillWrite,
        SpanKind::kSpillMerge, SpanKind::kSpillRetry, SpanKind::kRunCorrupt,
        SpanKind::kRestartRestore, SpanKind::kDeadlineCancel}) {
    EXPECT_TRUE(has_span(kind)) << "no span of kind " << static_cast<int>(kind);
  }
  const auto has_instant = [&sim](InstantKind kind) {
    for (const auto& instant : sim.instants) {
      if (std::get<0>(instant) == static_cast<int>(kind)) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_instant(InstantKind::kShuffleCorruption));
  EXPECT_TRUE(has_instant(InstantKind::kRecordQuarantined));
}

// ---- Thread-safety stress (the run TSan cares about) ----

// Many more tasks than the 8 workers, heavy seed-hashed retry churn, live
// checkpoint saves and trace recording from the worker threads: the
// concurrent paths are counter accumulation, shuffle partition writes,
// CheckpointStore slots and the recorder's mutex. The serial simulated run
// is the reference the result must still match byte for byte.
TEST(ThreadedStressTest, ConcurrentRunMatchesSerialReference) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 2718;
  fault.map_failure_prob = 0.3;
  fault.reduce_failure_prob = 0.3;
  fault.max_attempts = 10;

  ClusterConfig serial = RawCluster(4, 1, ExecutionBackend::kSimulated);
  serial.fault = fault;
  CheckpointStore serial_store;

  ClusterConfig threaded = RawCluster(4, 8, ExecutionBackend::kThreaded);
  threaded.fault = fault;
  TraceRecorder recorder;
  threaded.trace = &recorder;
  CheckpointStore threaded_store;

  const int kRecords = 5000;
  const DiffJob::Result reference =
      RunRawJob(serial, kRecords, &serial_store, 20.0);
  ASSERT_FALSE(reference.failed) << reference.error;
  const DiffJob::Result stressed =
      RunRawJob(threaded, kRecords, &threaded_store, 20.0);
  ASSERT_FALSE(stressed.failed) << stressed.error;

  EXPECT_EQ(stressed.outputs, reference.outputs);
  EXPECT_EQ(stressed.counters.values(), reference.counters.values());
  EXPECT_DOUBLE_EQ(stressed.timing.end, reference.timing.end);
  EXPECT_DOUBLE_EQ(stressed.timing.map_end, reference.timing.map_end);
  EXPECT_EQ(threaded_store.saved(), serial_store.saved());
  // The churn was real: retries happened and the wall clock ran.
  EXPECT_GT(reference.counters.Get("mr.failed_attempts"), 0);
  EXPECT_EQ(stressed.timing.wall.threads, 8);
  EXPECT_GT(stressed.timing.wall.total_seconds, 0.0);
  EXPECT_FALSE(recorder.spans().empty());
}

}  // namespace
}  // namespace progres
