#ifndef PROGRES_MAPREDUCE_JOB_H_
#define PROGRES_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/cluster.h"
#include "mapreduce/cost_clock.h"
#include "mapreduce/counters.h"
#include "mapreduce/executor.h"
#include "mapreduce/fault.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "mapreduce/supervisor.h"
#include "mapreduce/task_runner.h"
#include "mapreduce/trace.h"

namespace progres {

// In-process MapReduce runtime, layered out of three components:
//   * Shuffle (shuffle.h) — partition routing, the memory-budgeted map-side
//     KV block buffers with their sorted spill runs
//     (ClusterConfig::shuffle_budget), the combiner, the reduce-side
//     gather (an in-memory sort, or a k-way external merge over the spill
//     runs), and data-plane accounting (exported under "mr.shuffle.*" and
//     "mr.spill.*");
//   * TaskAttemptRunner (task_runner.h) — the retry/abort bookkeeping of
//     fault-injected task attempts, per phase;
//   * the attempt-aware timing model (cluster.h) — converts per-attempt
//     costs into a deterministic simulated timeline, including retry delays
//     and speculative backup copies of stragglers.
//
// MapReduceJob composes them and honours the Hadoop contract the paper's
// algorithms rely on:
//   * the input is split into contiguous chunks, one per map task;
//   * map tasks emit (key, value) pairs that a partition function routes to
//     reduce tasks;
//   * each reduce task sorts its pairs by key and invokes the reduce function
//     once per distinct key, in key order (so sequence-value keys yield the
//     paper's per-task block resolution order);
//   * per-task setup hooks run before the first record/group (the second
//     job's schedule generation runs in map-task setup);
//   * task attempts that fail are retried up to FaultConfig::max_attempts
//     times. A failed attempt discards its partial buckets/outputs/counters
//     (plus any external per-task state, via the task-abort hook) and the
//     task re-runs from scratch, so job output is byte-identical to a
//     fault-free run. Exhausting max_attempts fails the job cleanly
//     (Result::failed + Result::error);
//   * with checkpointing enabled (set_checkpointing), a reduce re-attempt
//     instead restores the task's last alpha-boundary snapshot and resumes
//     mid-schedule — same byte-identical outputs, but only the progress
//     since the snapshot is re-executed;
//   * machine-level failures (FaultConfig::machine_failures) play out in
//     the timing model: a dying machine kills the attempts on its slots and
//     leaves the cluster, orphaned tasks re-queue (with exponential
//     backoff) on the survivors, and the replacement attempt is costed from
//     the task's best recovery point. Losing every machine fails the job
//     cleanly;
//   * with job supervision (ClusterConfig::control, supervisor.h) the
//     fail-fast rules above soften into deadline-driven graceful
//     degradation: a retry-budget ledger caps per-task attempts, permanent
//     task failures are quarantined instead of failing the job, the
//     simulated deadline cuts late reduce tasks back to their last
//     checkpointed prefix, and Result::completeness reports exactly what
//     was delivered. All of it is opt-in — an inactive JobControl leaves
//     every run byte- and timing-identical to the unsupervised runtime.
//
// The cluster configuration is validated at submission
// (ValidateClusterConfig); an invalid config fails the job with a labelled
// error instead of running with silently corrected parameters.
//
// Two execution backends share this contract (ClusterConfig::backend):
// the simulated backend runs attempts serially on the submitting thread —
// the deterministic reference — while the threaded backend runs them
// concurrently on a thread pool (executor.h) and measures wall-clock time
// alongside (JobTiming::wall, wall-stamped trace spans). All algorithmic
// cost is charged to deterministic per-task CostClocks and all cross-task
// state merges after the phase barriers, so results are bit-identical
// across backends and regardless of real thread interleaving; the simulated
// timeline stays the results clock under both.
//
// Keys and values are typed (template parameters) rather than raw bytes;
// serialization would add nothing to the reproduced algorithms.

template <typename Record, typename K, typename V>
class MapReduceJob {
 public:
  using JobShuffle = Shuffle<K, V>;

  class MapContext {
   public:
    int task_id() const { return task_id_; }
    CostClock& clock() { return clock_; }
    Counters& counters() { return counters_; }

    // Emits a pair routed to partition `partition(key, num_reduce_tasks)`.
    void Emit(K key, V value) {
      output_.Add(std::move(key), std::move(value));
      ++stats_.pairs_out;
    }

   private:
    friend class MapReduceJob;
    int task_id_ = 0;
    CostClock clock_;
    Counters counters_;
    TaskStats stats_;
    typename JobShuffle::MapOutput output_;
  };

  class ReduceContext {
   public:
    int task_id() const { return task_id_; }
    CostClock& clock() { return clock_; }
    Counters& counters() { return counters_; }

    void Emit(K key, V value) {
      outputs_.emplace_back(std::move(key), std::move(value));
      ++stats_.pairs_out;
    }

   private:
    friend class MapReduceJob;
    int task_id_ = 0;
    CostClock clock_;
    Counters counters_;
    TaskStats stats_;
    std::vector<std::pair<K, V>> outputs_;
  };

  using MapFn = std::function<void(const Record&, MapContext*)>;
  using ReduceFn =
      std::function<void(const K&, std::vector<V>*, ReduceContext*)>;
  using PartitionFn = typename JobShuffle::PartitionFn;
  using SetupFn = std::function<void(int task_id)>;
  // Cleanup hook run after a reduce task's last group (Hadoop's cleanup()).
  using ReduceCleanupFn = std::function<void(ReduceContext*)>;
  using CombineFn = typename JobShuffle::CombineFn;
  using WireSizeFn = typename JobShuffle::WireSizeFn;
  // Abort hook invoked when a task attempt fails, before the retry. Jobs
  // that accumulate external per-task state (sinks indexed by task_id) must
  // reset that state here or retries would double-count.
  using TaskAbortFn = std::function<void(TaskPhase phase, int task_id,
                                         int attempt)>;

  struct Result {
    // Reduce outputs concatenated in reduce-task order (within a task, in
    // emission order).
    std::vector<std::pair<K, V>> outputs;
    std::vector<TaskStats> map_stats;
    std::vector<TaskStats> reduce_stats;
    // Named counters merged across every map and reduce task, plus the
    // runtime's own bookkeeping under the reserved "mr." prefix (see
    // counters.h). Everything outside "mr." is byte-identical to a
    // fault-free run.
    Counters counters;
    JobTiming timing;
    // Input records quarantined by the skip-bad-records machinery
    // (FaultConfig::skip_bad_records), in map-task order. Quarantined
    // records were *not* processed — their absence from `outputs` is the
    // only permitted divergence from a fault-free run.
    std::vector<QuarantinedRecord> quarantined;
    // Job-supervision completeness report (supervisor.h). Inert — default
    // values — unless ClusterConfig::control is active. `degraded` set
    // means some task delivered less than its full output while `failed`
    // stayed false (degraded success).
    CompletenessReport completeness;
    // Set when some task exhausted FaultConfig::max_attempts. `outputs`,
    // stats and non-"mr." counters are empty/unspecified in that case.
    bool failed = false;
    std::string error;
  };

  MapReduceJob(int num_map_tasks, int num_reduce_tasks)
      : num_map_tasks_(std::max(1, num_map_tasks)),
        num_reduce_tasks_(std::max(1, num_reduce_tasks)),
        shuffle_(num_reduce_tasks) {}

  // Overrides the default hash partitioner.
  void set_partitioner(PartitionFn fn) {
    shuffle_.set_partitioner(std::move(fn));
  }

  // Cost units auto-charged per map input record (models record read +
  // key-extraction work).
  void set_map_cost_per_record(double cost) { map_cost_per_record_ = cost; }

  // Optional hooks run at the start of each task, before any record/group.
  void set_map_setup(SetupFn fn) { map_setup_ = std::move(fn); }
  void set_reduce_setup(SetupFn fn) { reduce_setup_ = std::move(fn); }

  // Optional combiner run on each map task's output, per partition, before
  // the shuffle (Hadoop's local aggregation).
  void set_combiner(CombineFn fn) { shuffle_.set_combiner(std::move(fn)); }

  // Optional per-pair wire size under the job's serde encoding; enables the
  // "mr.shuffle.bytes" accounting ("mr.shuffle.records" is always counted).
  void set_wire_size(WireSizeFn fn) { shuffle_.set_wire_size(std::move(fn)); }

  // Optional cleanup run at the end of each reduce task, after its last
  // group (may still charge cost and emit). Runs only on attempts that
  // complete — never on failed ones.
  void set_reduce_cleanup(ReduceCleanupFn fn) {
    reduce_cleanup_ = std::move(fn);
  }

  // Optional hook run when a task attempt fails (see TaskAbortFn).
  void set_task_abort(TaskAbortFn fn) { task_abort_ = std::move(fn); }

  // Marks this job's map function as poison-sensitive: the records listed
  // in FaultConfig::poison_records crash its map attempts, engaging the
  // skip-bad-records machinery. Off by default — jobs whose map function
  // never runs the user code a bad record would crash (e.g. a statistics
  // pre-pass) stay immune, exactly like a Hadoop job without skipping.
  void set_poison_faults(bool sensitive) { poison_faults_ = sensitive; }

  // Driver-state snapshot/restore hooks for checkpointed recovery. `save`
  // returns a type-erased snapshot of the driver's per-task state (a copy,
  // or watermarks into a state that only grows); `restore` rewinds the
  // task's state to a snapshot, or resets it to freshly-constructed when
  // the snapshot is null (no checkpoint yet).
  using SaveStateFn = std::function<std::shared_ptr<const void>(int task_id)>;
  using RestoreStateFn =
      std::function<void(int task_id, const void* snapshot)>;

  // Enables checkpointed progressive recovery of reduce tasks: after each
  // group, when the task's cost clock crosses a multiple of `alpha` (the
  // progressive emission boundary), its context and driver state are
  // snapshotted into `store`; a re-attempt restores the latest snapshot and
  // resumes instead of replaying from scratch. `store` must outlive Run,
  // which resets it at submission. Outputs stay byte-identical to a
  // fault-free run; only the "mr." bookkeeping and the simulated timeline
  // change. Drivers that keep the abort-reset path simply never call this.
  void set_checkpointing(double alpha, CheckpointStore* store,
                         SaveStateFn save, RestoreStateFn restore) {
    checkpoint_alpha_ = alpha;
    checkpoint_store_ = store;
    checkpoint_save_ = std::move(save);
    checkpoint_restore_ = std::move(restore);
  }

  // Runs the job on `input` using `cluster` for both real thread parallelism
  // and the simulated time model. `submit_time` is when the job starts on
  // the simulated clock.
  Result Run(const std::vector<Record>& input, const MapFn& map_fn,
             const ReduceFn& reduce_fn, const ClusterConfig& cluster,
             double submit_time = 0.0) {
    Result result;
    result.timing.start = submit_time;
    Stopwatch wall_watch;
    const bool threaded = cluster.backend == ExecutionBackend::kThreaded;
    // Stamps the measured wall clock into the result; called at every
    // return path so even failed jobs report how long they really took.
    // reduce_seconds is derived (total minus the map barrier's stamp) only
    // once the reduce phase has actually started — on earlier exits (invalid
    // config, doomed map task) it stays 0 rather than absorbing elapsed time
    // from a phase that never ran.
    bool reduce_phase_started = false;
    const auto finish_wall = [&result, &wall_watch, &reduce_phase_started] {
      result.timing.wall.total_seconds = wall_watch.ElapsedSeconds();
      if (reduce_phase_started) {
        result.timing.wall.reduce_seconds =
            std::max(0.0, result.timing.wall.total_seconds -
                              result.timing.wall.map_seconds);
      }
    };

    const std::string config_error = ValidateClusterConfig(cluster);
    if (!config_error.empty()) {
      result.failed = true;
      result.error = "invalid cluster config: " + config_error;
      result.timing.map_end = submit_time;
      result.timing.end = submit_time;
      finish_wall();
      return result;
    }
    // ---- Shuffle memory budget ----
    // Resolved once per run: the job-wide budget split across map tasks
    // (floored at one block each) and the spill directory prepared and
    // probed up front, so an unusable directory fails the submission
    // instead of a mid-map spill. The PROGRES_FORCE_SPILL environment hook
    // drops a disabled budget to one block so test suites can drive the
    // out-of-core path through unmodified configs — outputs are
    // byte-identical either way by design.
    {
      ShuffleBudget budget = cluster.shuffle_budget;
      if (budget.max_bytes == 0 &&
          std::getenv("PROGRES_FORCE_SPILL") != nullptr) {
        budget.max_bytes = 1;
        budget.block_bytes = 4096;
      }
      typename JobShuffle::SpillConfig spill;
      spill.block_bytes = budget.block_bytes;
      if (budget.max_bytes > 0) {
        std::string spill_error;
        spill.dir = ResolveSpillDir(budget.spill_dir, &spill_error);
        if (spill.dir.empty()) {
          result.failed = true;
          result.error = "shuffle budget unusable: " + spill_error;
          result.timing.map_end = submit_time;
          result.timing.end = submit_time;
          finish_wall();
          return result;
        }
        // The optional fallback dir is resolved and probed with the same
        // rigour — a failover target discovered broken mid-spill would turn
        // graceful degradation into a second outage.
        if (!budget.fallback_spill_dir.empty()) {
          std::string fallback_error;
          spill.fallback_dir =
              ResolveSpillDir(budget.fallback_spill_dir, &fallback_error);
          if (spill.fallback_dir.empty()) {
            result.failed = true;
            result.error = "shuffle budget unusable: " + fallback_error;
            result.timing.map_end = submit_time;
            result.timing.end = submit_time;
            finish_wall();
            return result;
          }
        }
        spill.enabled = true;
        spill.task_buffer_bytes =
            std::max(budget.block_bytes,
                     budget.max_bytes / static_cast<int64_t>(num_map_tasks_));
      }
      shuffle_.set_spill(std::move(spill));
    }
    // The threaded backend's engine: the worker pool plus the wall-clock
    // record of every attempt executed on it. Null under the simulated
    // backend, whose attempt chains run serially on this thread.
    std::unique_ptr<ThreadedExecutor> wall;
    if (threaded) {
      wall = std::make_unique<ThreadedExecutor>(cluster.execution_threads);
    }
    result.timing.wall.threads = threaded ? wall->threads() : 1;
    // Deadline cuts restore *historical* alpha boundaries, not just the
    // latest one — arm snapshot history before the store resets (and
    // preloads any persisted snapshots into it).
    if (cluster.control.active() && checkpointing()) {
      checkpoint_store_->set_keep_history(true);
    }
    if (checkpointing()) checkpoint_store_->Reset(num_reduce_tasks_);

    // PROGRES_DISK_FAULTS drives the storage fault domain through
    // unmodified configs, mirroring PROGRES_FORCE_SPILL: whenever spilling
    // is active, small planned disk-fault probabilities are overlaid so
    // test suites exercise retry/re-run recovery everywhere. Enabling the
    // plan with every other fault family at zero probability changes
    // nothing else — outputs stay byte-identical by design.
    FaultConfig fault_config = cluster.fault;
    if (shuffle_.spill_config().enabled &&
        std::getenv("PROGRES_DISK_FAULTS") != nullptr) {
      fault_config.enabled = true;
      if (fault_config.spill_write_error_prob == 0.0) {
        fault_config.spill_write_error_prob = 0.02;
      }
      if (fault_config.spill_torn_write_prob == 0.0) {
        fault_config.spill_torn_write_prob = 0.01;
      }
      if (fault_config.spill_corrupt_prob == 0.0) {
        fault_config.spill_corrupt_prob = 0.01;
      }
    }
    const FaultPlan plan(fault_config);
    const std::vector<MachineFault> machine_failures =
        plan.MachineFailures(cluster.machines);
    const bool heterogeneous = !cluster.machine_speed.empty();
    const std::vector<double> map_speeds =
        heterogeneous
            ? cluster.SlotSpeeds(cluster.map_slots_per_machine)
            : std::vector<double>(
                  static_cast<size_t>(std::max(1, cluster.map_slots())), 1.0);
    const std::vector<double> reduce_speeds =
        heterogeneous
            ? cluster.SlotSpeeds(cluster.reduce_slots_per_machine)
            : std::vector<double>(
                  static_cast<size_t>(std::max(1, cluster.reduce_slots())),
                  1.0);

    TaskAttemptRunner map_runner(TaskPhase::kMap, num_map_tasks_, &plan);
    TaskAttemptRunner reduce_runner(TaskPhase::kReduce, num_reduce_tasks_,
                                    &plan);

    // ---- Job supervision (deadline-driven graceful degradation) ----
    // The supervisor precomputes the retry-budget ledger and the breaker
    // state from the fault plan — pure functions, identical under both
    // backends. Everything below is gated on `supervisor.active()`; an
    // inactive JobControl leaves the run byte- and timing-identical to the
    // unsupervised runtime.
    const JobControl& control = cluster.control;
    const JobSupervisor supervisor(control, &plan, num_map_tasks_,
                                   num_reduce_tasks_);
    if (supervisor.active()) {
      map_runner.set_attempt_caps(supervisor.map_attempt_caps());
      reduce_runner.set_attempt_caps(supervisor.reduce_attempt_caps());
    }
    // Disk circuit breaker: armed only when a fallback dir exists to fail
    // over to — without one the sticky spill error must surface unchanged.
    const bool disk_breaker = supervisor.active() &&
                              supervisor.disk_breaker_tripped() &&
                              shuffle_.spill_config().enabled &&
                              !shuffle_.spill_config().fallback_dir.empty();
    // Supervisor events, one per kDeadlineCancel / kTaskQuarantine /
    // kBreakerTrip span. The "mr.supervisor.*" activity counters are
    // derived from this same list, so counters and spans reconcile by
    // construction.
    struct SupervisorEvent {
      SpanKind kind;
      TaskPhase phase;
      int task;
      int domain;      // FaultDomain index for breaker trips, else -1
      double cost;     // restored boundary cost (cut/quarantine), else 0
      double deadline; // the cut deadline, anchoring kDeadlineCancel spans
    };
    std::vector<SupervisorEvent> supervisor_events;
    if (supervisor.active() && supervisor.budget_breaker_tripped()) {
      supervisor_events.push_back({SpanKind::kBreakerTrip, TaskPhase::kMap,
                                   -1, static_cast<int>(FaultDomain::kTask),
                                   0.0, 0.0});
    }
    if (disk_breaker) {
      supervisor_events.push_back({SpanKind::kBreakerTrip, TaskPhase::kMap,
                                   supervisor.first_full_task(),
                                   static_cast<int>(FaultDomain::kDisk), 0.0,
                                   0.0});
    }
    // Per-task completeness slots, assembled into Result::completeness once
    // the timing model has run (deadline cuts are post-hoc).
    std::vector<TaskReport> map_report(static_cast<size_t>(num_map_tasks_));
    std::vector<char> map_affected(static_cast<size_t>(num_map_tasks_), 0);
    std::vector<TaskReport> reduce_report(
        static_cast<size_t>(num_reduce_tasks_));
    std::vector<char> reduce_affected(static_cast<size_t>(num_reduce_tasks_),
                                      0);
    bool wall_expired = false;

    // Shared scheduler inputs of both phases: the machine fault domain, the
    // retry-hygiene knobs, and the phase's hung attempts with the heartbeat
    // timeout that kills them.
    const auto phase_options = [&](TaskPhase phase,
                                   const std::vector<double>& speeds,
                                   int slots_per_machine, double start,
                                   const TaskAttemptRunner& runner) {
      AttemptScheduleOptions options;
      options.slot_speeds = speeds;
      options.slots_per_machine = slots_per_machine;
      options.start_time = start;
      options.seconds_per_cost_unit = cluster.seconds_per_cost_unit;
      options.speculation = cluster.speculation;
      options.machine_failures = machine_failures;
      options.retry_backoff_seconds = cluster.fault.retry_backoff_seconds;
      options.retry_backoff_factor = cluster.fault.retry_backoff_factor;
      options.blacklist_failures = cluster.fault.blacklist_failures;
      options.hang_attempts = runner.attempt_hangs();
      options.task_timeout_seconds = cluster.fault.task_timeout_seconds;
      // The simulated scheduler still computes the results clock under both
      // backends, but only the simulated backend records its spans — the
      // threaded backend stamps the executor's wall-clock timeline instead.
      options.trace = threaded ? nullptr : cluster.trace;
      options.trace_phase = phase;
      options.trace_pid =
          cluster.trace != nullptr ? cluster.trace->current_pid() : 0;
      return options;
    };

    // ---- Map phase ----
    std::vector<MapContext> map_ctx(static_cast<size_t>(num_map_tasks_));
    // Reduce contexts and the map-output pointer list live at Run scope
    // (not in the phase block) because the supervisor's post-hoc deadline
    // enforcement rewrites contexts after the timing model has run.
    std::vector<ReduceContext> reduce_ctx(
        static_cast<size_t>(num_reduce_tasks_));
    for (int r = 0; r < num_reduce_tasks_; ++r) {
      reduce_ctx[static_cast<size_t>(r)].task_id_ = r;
    }
    std::vector<typename JobShuffle::MapOutput*> map_outputs;
    map_outputs.reserve(map_ctx.size());
    for (MapContext& ctx : map_ctx) map_outputs.push_back(&ctx.output_);
    // Full gathered input of reduce task `t` — the denominator a degraded
    // task's coverage is reported against. Re-gathers (cheap, in-memory or
    // a re-read of the spill runs); a failing gather yields its partial
    // size, floored at the covered count by the callers.
    const auto gathered_total = [&](int t) -> int64_t {
      typename JobShuffle::GatherStats probe;
      return static_cast<int64_t>(
          shuffle_.GatherSorted(map_outputs, t, &probe).records);
    };
    // Quarantines reduce task `t` under allow_degraded: the delivered
    // output becomes the latest checkpointed prefix (nothing without one),
    // driver state is rewound to match, and the completeness report records
    // the loss against the task's full gathered input.
    const auto quarantine_reduce = [&, this](int t) {
      ReduceContext& ctx = reduce_ctx[static_cast<size_t>(t)];
      const int64_t total = gathered_total(t);
      const TaskCheckpoint* ck =
          checkpointing() ? checkpoint_store_->Latest(t) : nullptr;
      int64_t covered = 0;
      double boundary = 0.0;
      if (ck != nullptr) {
        RestoreReduceContext(&ctx, *ck);
        if (checkpoint_restore_) checkpoint_restore_(t, ck->driver_state.get());
        ctx.stats_.cost = ck->cost;
        covered = ck->records_in;
        boundary = ck->cost;
      } else {
        ResetReduceContext(&ctx);
        if (checkpointing() && checkpoint_restore_) {
          checkpoint_restore_(t, nullptr);
        }
      }
      TaskReport& report = reduce_report[static_cast<size_t>(t)];
      report.phase = TaskPhase::kReduce;
      report.task = t;
      report.kind = TaskOutcomeKind::kQuarantined;
      report.records_total = std::max(total, covered);
      report.records_covered = covered;
      report.covered_fraction =
          report.records_total > 0
              ? static_cast<double>(covered) /
                    static_cast<double>(report.records_total)
              : 0.0;
      reduce_affected[static_cast<size_t>(t)] = 1;
      supervisor_events.push_back({SpanKind::kTaskQuarantine,
                                   TaskPhase::kReduce, t, -1, boundary, 0.0});
    };
    // Per-attempt recovery bookkeeping of the reduce phase, consumed by the
    // machine-aware timing model after the pool scope closes: the absolute
    // progress each executed attempt started from, and the input values a
    // failed attempt forced the retry to re-process.
    std::vector<std::vector<double>> reduce_attempt_bases(
        static_cast<size_t>(num_reduce_tasks_));
    std::vector<int64_t> reduce_replayed(
        static_cast<size_t>(num_reduce_tasks_), 0);
    // Shuffle-corruption recovery bookkeeping, filled at the map/reduce
    // barrier and consumed by the reduce timing model and the trace:
    // per-reduce-task fetch stalls and one (reduce, map) event per detected
    // checksum error.
    std::vector<double> fetch_stalls(static_cast<size_t>(num_reduce_tasks_),
                                     0.0);
    std::vector<std::pair<int, int>> corrupt_events;
    // Per-task gather accounting of the most recent reduce attempt (so the
    // winner's values survive), consumed by the "mr.spill.merge_passes"
    // counter and the spill-merge trace spans.
    std::vector<typename JobShuffle::GatherStats> gather_stats(
        static_cast<size_t>(num_reduce_tasks_));
    // Storage-fault bookkeeping. `map_generation[t]` numbers every
    // execution of map task t (attempt retries and barrier re-runs alike)
    // so each draws fresh disk-fault decisions and unique run-file names;
    // `disk_totals[t]` accumulates the surviving executions' disk stats
    // (failed attempts' are discarded with the rest of their artifacts);
    // `corrupt_run_events` records every spill run that failed CRC
    // validation at the barrier, for the kRunCorrupt trace spans.
    std::vector<int> map_generation(static_cast<size_t>(num_map_tasks_), 0);
    std::vector<typename JobShuffle::MapOutput::DiskStats> disk_totals(
        static_cast<size_t>(num_map_tasks_));
    struct CorruptRunEvent {
      int task;
      int64_t records;
      int64_t bytes;
    };
    std::vector<CorruptRunEvent> corrupt_run_events;
    // Cross-process restart bookkeeping: reduce tasks whose first restore
    // this run came from a checkpoint persisted by an earlier process, and
    // the restored boundary cost (for the kRestartRestore spans).
    std::vector<char> restart_restored(static_cast<size_t>(num_reduce_tasks_),
                                       0);
    std::vector<double> restart_restore_cost(
        static_cast<size_t>(num_reduce_tasks_), 0.0);
    // Poison-record state, keyed by FaultPlan::PoisonIndex. Records
    // partition into disjoint per-map-task ranges, so each entry is only
    // ever touched by one task's thread.
    const bool poison_active = poison_faults_ && plan.enabled() &&
                               plan.num_poison_records() > 0;
    std::vector<int> poison_crashes(
        static_cast<size_t>(plan.num_poison_records()), 0);
    std::vector<char> poison_quarantined(
        static_cast<size_t>(plan.num_poison_records()), 0);
    std::vector<std::vector<int64_t>> quarantined_by_task(
        static_cast<size_t>(num_map_tasks_));
    // Under the threaded backend the simulated scheduler records no spans;
    // the executor's wall-clock timeline is stamped once per run instead:
    // attempt spans from the workers' measurements, data-plane instants at
    // their wall-clock anchors (checksum errors at the map barrier, a
    // quarantine at its winning map attempt's start) and shuffle delivery
    // marks at the winning reduce attempts' wall starts. Called exactly
    // once on every return path past the map phase.
    const auto stamp_wall_trace = [&] {
      if (!threaded || cluster.trace == nullptr) return;
      const int pid = cluster.trace->current_pid();
      wall->StampAttemptSpans(cluster.trace, pid);
      const double map_wall_end = wall->phase_end(TaskPhase::kMap);
      for (const auto& [r, m] : corrupt_events) {
        TraceInstant instant;
        instant.kind = InstantKind::kShuffleCorruption;
        instant.phase = TaskPhase::kReduce;
        instant.pid = pid;
        instant.time = map_wall_end;
        instant.task = r;
        instant.peer_task = m;
        cluster.trace->RecordInstant(instant);
      }
      for (const QuarantinedRecord& q : result.quarantined) {
        TraceInstant instant;
        instant.kind = InstantKind::kRecordQuarantined;
        instant.phase = TaskPhase::kMap;
        instant.pid = pid;
        WallAttempt winner;
        instant.time =
            wall->WinningAttempt(TaskPhase::kMap, q.task, &winner)
                ? winner.start
                : map_wall_end;
        instant.task = q.task;
        instant.record = q.record;
        cluster.trace->RecordInstant(instant);
      }
      if (result.failed) return;
      for (int t = 0; t < num_map_tasks_; ++t) {
        const auto& runs =
            map_ctx[static_cast<size_t>(t)].output_.spill_runs();
        WallAttempt winner;
        if (!wall->WinningAttempt(TaskPhase::kMap, t, &winner)) continue;
        for (const SpillRun& run : runs) {
          TraceSpan span;
          span.kind = SpanKind::kSpillWrite;
          span.phase = TaskPhase::kMap;
          span.pid = pid;
          span.task = t;
          span.attempt = winner.attempt;
          span.machine = -1;
          span.slot = winner.worker;
          span.start = winner.end;
          span.end = winner.end;
          span.records_in = run.records;
          span.bytes = run.bytes;
          cluster.trace->RecordSpan(span);
        }
        // Spill-retry marks, one per retried write — reconciled 1:1 with
        // "mr.disk.retries".
        for (int64_t i = 0; i < disk_totals[static_cast<size_t>(t)].retries;
             ++i) {
          TraceSpan span;
          span.kind = SpanKind::kSpillRetry;
          span.phase = TaskPhase::kMap;
          span.pid = pid;
          span.task = t;
          span.attempt = winner.attempt;
          span.machine = -1;
          span.slot = winner.worker;
          span.start = winner.end;
          span.end = winner.end;
          cluster.trace->RecordSpan(span);
        }
      }
      // Corrupt-run marks at the barrier (where CRC validation runs) —
      // reconciled 1:1 with "mr.disk.corrupt_runs".
      for (const CorruptRunEvent& event : corrupt_run_events) {
        TraceSpan span;
        span.kind = SpanKind::kRunCorrupt;
        span.phase = TaskPhase::kMap;
        span.pid = pid;
        span.task = event.task;
        span.machine = -1;
        WallAttempt winner;
        span.slot = wall->WinningAttempt(TaskPhase::kMap, event.task, &winner)
                        ? winner.worker
                        : -1;
        span.attempt = winner.attempt;
        span.start = map_wall_end;
        span.end = map_wall_end;
        span.records_in = event.records;
        span.bytes = event.bytes;
        cluster.trace->RecordSpan(span);
      }
      for (size_t t = 0; t < result.reduce_stats.size(); ++t) {
        WallAttempt winner;
        if (!wall->WinningAttempt(TaskPhase::kReduce, static_cast<int>(t),
                                  &winner)) {
          continue;
        }
        TraceSpan span;
        span.kind = SpanKind::kShuffle;
        span.phase = TaskPhase::kReduce;
        span.pid = pid;
        span.task = static_cast<int>(t);
        span.attempt = winner.attempt;
        span.machine = -1;
        span.slot = winner.worker;
        span.start = winner.start;
        span.end = winner.start;
        span.records_in = result.reduce_stats[t].records_in;
        cluster.trace->RecordSpan(span);
        const auto& gs = gather_stats[t];
        if (gs.runs_merged > 0) {
          TraceSpan merge;
          merge.kind = SpanKind::kSpillMerge;
          merge.phase = TaskPhase::kReduce;
          merge.pid = pid;
          merge.task = static_cast<int>(t);
          merge.attempt = winner.attempt;
          merge.machine = -1;
          merge.slot = winner.worker;
          merge.start = winner.start;
          merge.end = winner.start;
          merge.records_in = gs.spilled_records;
          merge.bytes = gs.spilled_bytes;
          cluster.trace->RecordSpan(merge);
        }
        // Restart-restore marks, one per task resumed from a persisted
        // checkpoint — reconciled 1:1 with "mr.restart.restored_tasks".
        if (restart_restored[t]) {
          TraceSpan restore;
          restore.kind = SpanKind::kRestartRestore;
          restore.phase = TaskPhase::kReduce;
          restore.pid = pid;
          restore.task = static_cast<int>(t);
          restore.attempt = winner.attempt;
          restore.machine = -1;
          restore.slot = winner.worker;
          restore.start = winner.start;
          restore.end = winner.start;
          restore.cost_units = restart_restore_cost[t];
          cluster.trace->RecordSpan(restore);
        }
      }
    };
    {
      ThreadPool* pool = threaded ? wall->pool() : nullptr;
      const size_t n = input.size();
      for (int t = 0; t < num_map_tasks_; ++t) {
        map_ctx[static_cast<size_t>(t)].task_id_ = t;
      }
      // Hoisted so the barrier's CRC-recovery loop can re-run a map task
      // whose spill runs failed validation: reset, then the body, exactly
      // as a scheduled attempt would. Each execution bumps the task's
      // generation — fresh disk-fault decisions, fresh run-file names.
      const auto reset_map = [this, &map_ctx, &map_generation, &plan,
                              disk_breaker, &supervisor](int t) {
        ResetMapContext(&map_ctx[static_cast<size_t>(t)]);
        map_ctx[static_cast<size_t>(t)].output_.ConfigureSpill(
            &plan, map_generation[static_cast<size_t>(t)]++);
        // Disk breaker: once the first task discovered the primary spill
        // dir full, later tasks start directly on the fallback — one global
        // failover instead of a per-task ENOSPC retry storm.
        if (disk_breaker && supervisor.StartOnFallback(t)) {
          map_ctx[static_cast<size_t>(t)].output_.StartOnFallback();
        }
      };
      const auto run_map_body =
          [this, &input, &map_fn, &map_ctx, n, &plan, &cluster,
           poison_active, &poison_crashes, &poison_quarantined,
           &quarantined_by_task](const TaskAttemptRunner::Attempt& attempt) {
            MapContext& ctx = map_ctx[static_cast<size_t>(attempt.task)];
            const size_t lo = n * static_cast<size_t>(attempt.task) /
                              static_cast<size_t>(num_map_tasks_);
            const size_t hi = n * static_cast<size_t>(attempt.task + 1) /
                              static_cast<size_t>(num_map_tasks_);
            size_t limit = hi - lo;
            // Crashes and hangs both cut the attempt short; a hung attempt
            // simply stops heartbeating at its cutoff instead of dying.
            const bool cut = attempt.fails || attempt.hangs;
            if (cut) {
              const double point =
                  attempt.fails ? attempt.fail_point : attempt.hang_point;
              limit = static_cast<size_t>(static_cast<double>(limit) * point);
            }
            if (map_setup_) map_setup_(attempt.task);
            TaskAttemptRunner::BodyOutcome out;
            for (size_t i = lo; i < lo + limit; ++i) {
              if (poison_active &&
                  plan.IsPoisonRecord(static_cast<int64_t>(i))) {
                const size_t p = static_cast<size_t>(
                    plan.PoisonIndex(static_cast<int64_t>(i)));
                if (poison_quarantined[p]) continue;  // skipped, not run
                // The record crashes this attempt. Once it has crashed
                // max_attempts_before_skip attempts, skip-bad-records
                // quarantines it so the next attempt can pass over it.
                ++poison_crashes[p];
                if (cluster.fault.skip_bad_records &&
                    poison_crashes[p] >=
                        cluster.fault.max_attempts_before_skip) {
                  poison_quarantined[p] = 1;
                  quarantined_by_task[static_cast<size_t>(attempt.task)]
                      .push_back(static_cast<int64_t>(i));
                }
                out.poison_crashed = true;
                break;
              }
              ctx.clock_.Charge(map_cost_per_record_);
              map_fn(input[i], &ctx);
              ++ctx.stats_.records_in;
            }
            if (!cut && !out.poison_crashed) {
              shuffle_.Combine(&ctx.output_);
              ctx.stats_.cost = ctx.clock_.units();
            }
            out.cost = ctx.clock_.units();
            return out;
          };
      // Quarantines map task `t` under allow_degraded: its output is
      // dropped (the chunk's records vanish from every downstream
      // partition) and the loss is recorded against the chunk size.
      const auto quarantine_map = [&, this](int t) {
        ResetMapContext(&map_ctx[static_cast<size_t>(t)]);
        const size_t lo = n * static_cast<size_t>(t) /
                          static_cast<size_t>(num_map_tasks_);
        const size_t hi = n * static_cast<size_t>(t + 1) /
                          static_cast<size_t>(num_map_tasks_);
        TaskReport& report = map_report[static_cast<size_t>(t)];
        report.phase = TaskPhase::kMap;
        report.task = t;
        report.kind = TaskOutcomeKind::kQuarantined;
        report.records_total = static_cast<int64_t>(hi - lo);
        report.records_covered = 0;
        report.covered_fraction = 0.0;
        map_affected[static_cast<size_t>(t)] = 1;
        supervisor_events.push_back(
            {SpanKind::kTaskQuarantine, TaskPhase::kMap, t, -1, 0.0, 0.0});
      };
      map_runner.RunAll(pool, wall.get(), reset_map, run_map_body,
                        task_abort_);
      if (threaded) wall->EndPhase(TaskPhase::kMap);
      result.timing.wall.map_seconds = wall_watch.ElapsedSeconds();

      map_runner.MergeFaultCounters(&result.counters);
      // Quarantine bookkeeping survives even a doomed job: the skipped
      // records and their counter are facts about the map phase.
      {
        int64_t skipped = 0;
        for (int t = 0; t < num_map_tasks_; ++t) {
          for (const int64_t rec :
               quarantined_by_task[static_cast<size_t>(t)]) {
            result.quarantined.push_back({t, rec});
            ++skipped;
          }
        }
        if (skipped > 0) {
          result.counters.Increment("mr.skipped.records", skipped);
        }
      }
      const int doomed_map = map_runner.FirstDoomed();
      if (doomed_map >= 0 && control.allow_degraded) {
        // Degraded mode: quarantine every doomed map task and keep going.
        for (const int t : map_runner.DoomedTasks()) quarantine_map(t);
      } else if (doomed_map >= 0) {
        result.failed = true;
        result.error = map_runner.DoomedError(doomed_map);
        AttemptScheduleOutcome map_schedule = ScheduleTaskAttemptsOnCluster(
            map_runner.attempt_costs(),
            phase_options(TaskPhase::kMap, map_speeds,
                          cluster.map_slots_per_machine, submit_time,
                          map_runner));
        MergeRecoveryCounters(map_schedule, &result.counters);
        result.timing.map_attempts = std::move(map_schedule.attempts);
        result.timing.map_end = map_schedule.end_time;
        result.timing.end = map_schedule.end_time;
        stamp_wall_trace();
        finish_wall();
        return result;
      }
      // A winning map attempt that could not honour the spill contract
      // fails the job with the labelled I/O error — silently exceeding the
      // memory budget is not an option (the buffered data stayed complete
      // in memory, but the configuration needs fixing, not retrying).
      for (int t = 0; t < num_map_tasks_; ++t) {
        const std::string& spill_error =
            map_ctx[static_cast<size_t>(t)].output_.spill_error();
        if (spill_error.empty()) continue;
        if (control.allow_degraded) {
          // Degraded mode: the memory budget cannot be honoured for this
          // task — quarantine it instead of failing the job.
          quarantine_map(t);
          continue;
        }
        result.failed = true;
        result.error = "map task " + std::to_string(t) + ": " + spill_error;
        AttemptScheduleOutcome map_schedule = ScheduleTaskAttemptsOnCluster(
            map_runner.attempt_costs(),
            phase_options(TaskPhase::kMap, map_speeds,
                          cluster.map_slots_per_machine, submit_time,
                          map_runner));
        MergeRecoveryCounters(map_schedule, &result.counters);
        result.timing.map_attempts = std::move(map_schedule.attempts);
        result.timing.map_end = map_schedule.end_time;
        result.timing.end = map_schedule.end_time;
        stamp_wall_trace();
        finish_wall();
        return result;
      }

      // ---- CRC validation of the spill runs the merges will trust ----
      // Torn writes and flipped bytes are silent at write time; the barrier
      // re-reads every winning run against its CRC before any reduce-side
      // merge trusts the bytes. A task with an invalid run re-runs in place
      // — a fresh generation with fresh fault decisions, mirroring the
      // shuffle-corruption map re-run — and each re-run stalls the reduce
      // tasks it feeds for the map's run time. The attempt budget caps the
      // rounds; exhausting it fails the job with a labelled error.
      if (shuffle_.spill_config().enabled && plan.HasDiskFaults()) {
        const auto accumulate_disk = [&map_ctx, &disk_totals](int t) {
          const auto& stats =
              map_ctx[static_cast<size_t>(t)].output_.disk_stats();
          auto& total = disk_totals[static_cast<size_t>(t)];
          total.write_errors += stats.write_errors;
          total.retries += stats.retries;
          total.enospc += stats.enospc;
          total.torn_writes += stats.torn_writes;
          total.dir_failovers += stats.dir_failovers;
          total.backoff_seconds += stats.backoff_seconds;
        };
        int64_t corrupt_runs = 0;
        int64_t disk_map_reruns = 0;
        for (int t = 0; t < num_map_tasks_ && !result.failed; ++t) {
          MapContext& ctx = map_ctx[static_cast<size_t>(t)];
          for (int round = 1;; ++round) {
            int64_t bad = 0;
            for (const SpillRun& run : ctx.output_.spill_runs()) {
              if (ValidateSpillRun(run)) continue;
              ++bad;
              ++corrupt_runs;
              corrupt_run_events.push_back({t, run.records, run.bytes});
            }
            if (bad == 0) break;
            if (round >= plan.max_attempts()) {
              if (control.allow_degraded) {
                quarantine_map(t);
                break;
              }
              result.failed = true;
              result.error = "map task " + std::to_string(t) +
                             ": spill runs failed CRC validation after " +
                             std::to_string(round) + " generations";
              break;
            }
            ++disk_map_reruns;
            for (int r = 0; r < num_reduce_tasks_; ++r) {
              fetch_stalls[static_cast<size_t>(r)] +=
                  map_runner.attempt_costs()[static_cast<size_t>(t)].back() *
                  cluster.seconds_per_cost_unit;
            }
            accumulate_disk(t);
            reset_map(t);
            TaskAttemptRunner::Attempt rerun;
            rerun.task = t;
            run_map_body(rerun);
            if (!ctx.output_.spill_error().empty()) {
              if (control.allow_degraded) {
                quarantine_map(t);
                break;
              }
              result.failed = true;
              result.error = "map task " + std::to_string(t) + ": " +
                             ctx.output_.spill_error();
              break;
            }
          }
        }
        for (int t = 0; t < num_map_tasks_; ++t) accumulate_disk(t);
        // The surviving executions' storage-fault tallies, exported under
        // "mr.disk.*" (zero counters stay absent, as everywhere).
        typename JobShuffle::MapOutput::DiskStats sum;
        for (const auto& total : disk_totals) {
          sum.write_errors += total.write_errors;
          sum.retries += total.retries;
          sum.enospc += total.enospc;
          sum.torn_writes += total.torn_writes;
          sum.dir_failovers += total.dir_failovers;
          sum.backoff_seconds += total.backoff_seconds;
        }
        if (sum.write_errors > 0) {
          result.counters.Increment("mr.disk.write_errors", sum.write_errors);
        }
        if (sum.retries > 0) {
          result.counters.Increment("mr.disk.retries", sum.retries);
        }
        if (sum.backoff_seconds > 0.0) {
          result.counters.Increment(
              "mr.disk.retry_backoff_seconds",
              static_cast<int64_t>(std::llround(sum.backoff_seconds)));
        }
        if (sum.enospc > 0) {
          result.counters.Increment("mr.disk.enospc", sum.enospc);
        }
        if (sum.torn_writes > 0) {
          result.counters.Increment("mr.disk.torn_writes", sum.torn_writes);
        }
        if (sum.dir_failovers > 0) {
          result.counters.Increment("mr.disk.dir_failovers",
                                    sum.dir_failovers);
        }
        if (corrupt_runs > 0) {
          result.counters.Increment("mr.disk.corrupt_runs", corrupt_runs);
        }
        if (disk_map_reruns > 0) {
          result.counters.Increment("mr.disk.map_reruns", disk_map_reruns);
        }
        if (result.failed) {
          AttemptScheduleOutcome map_schedule = ScheduleTaskAttemptsOnCluster(
              map_runner.attempt_costs(),
              phase_options(TaskPhase::kMap, map_speeds,
                            cluster.map_slots_per_machine, submit_time,
                            map_runner));
          MergeRecoveryCounters(map_schedule, &result.counters);
          result.timing.map_attempts = std::move(map_schedule.attempts);
          result.timing.map_end = map_schedule.end_time;
          result.timing.end = map_schedule.end_time;
          stamp_wall_trace();
          finish_wall();
          return result;
        }
      }

      // Post-combine shuffle volume of the winning map attempts.
      {
        typename JobShuffle::Volume volume;
        for (const MapContext& ctx : map_ctx) {
          const auto task_volume = shuffle_.MeasureVolume(ctx.output_);
          volume.records += task_volume.records;
          volume.bytes += task_volume.bytes;
        }
        result.counters.Increment("mr.shuffle.records", volume.records);
        result.counters.Increment("mr.shuffle.bytes", volume.bytes);
      }

      // Out-of-core bookkeeping of the winning map attempts: every sorted
      // spill run that will feed the reduce-side merges, reconciled against
      // the kSpillWrite trace spans (one span per run).
      {
        int64_t spill_runs = 0;
        int64_t spill_records = 0;
        int64_t spill_bytes = 0;
        for (const MapContext& ctx : map_ctx) {
          for (const SpillRun& run : ctx.output_.spill_runs()) {
            ++spill_runs;
            spill_records += run.records;
            spill_bytes += run.bytes;
          }
        }
        if (spill_runs > 0) {
          result.counters.Increment("mr.spill.runs", spill_runs);
          result.counters.Increment("mr.spill.records", spill_records);
          result.counters.Increment("mr.spill.bytes", spill_bytes);
        }
      }

      // ---- Checksummed shuffle: corruption detection & recovery ----
      // Every (map, reduce) partition ships with its CRC32; the consuming
      // reduce task recomputes it on fetch. A corrupt fetch is re-fetched
      // (free — the shuffle is in-memory), and after max_fetch_retries
      // consecutive corrupt copies the producing map attempt is re-run,
      // stalling the reduce task for the map's winning run time.
      if (plan.enabled() && cluster.fault.shuffle_corrupt_prob > 0.0) {
        int64_t checksum_errors = 0;
        int64_t refetches = 0;
        int64_t map_reruns = 0;
        const int cap = cluster.fault.max_fetch_retries + 1;
        for (int r = 0; r < num_reduce_tasks_; ++r) {
          for (int m = 0; m < num_map_tasks_; ++m) {
            const int corrupt = plan.CorruptFetches(m, r, cap);
            if (corrupt == 0) continue;
            // Detection itself: the shipped checksum against one recomputed
            // from the delivered partition. The corruption model flips the
            // delivered copy's checksum, so a mismatch is certain — but the
            // comparison below is the real gate, not the plan.
            const uint32_t shipped = shuffle_.PartitionChecksum(
                map_ctx[static_cast<size_t>(m)].output_, r);
            const uint32_t delivered = shipped ^ 0xffffffffu;
            if (delivered == shipped) continue;  // fetch verified clean
            checksum_errors += corrupt;
            refetches += corrupt;  // one re-fetch per detected error
            for (int e = 0; e < corrupt; ++e) corrupt_events.push_back({r, m});
            if (corrupt > cluster.fault.max_fetch_retries) {
              // Re-fetching never yielded a clean copy: re-run the winning
              // map attempt (at nominal speed) to regenerate the partition.
              ++map_reruns;
              fetch_stalls[static_cast<size_t>(r)] +=
                  map_runner.attempt_costs()[static_cast<size_t>(m)].back() *
                  cluster.seconds_per_cost_unit;
            }
          }
        }
        if (checksum_errors > 0) {
          result.counters.Increment("mr.shuffle.checksum_errors",
                                    checksum_errors);
          result.counters.Increment("mr.shuffle.refetches", refetches);
        }
        if (map_reruns > 0) {
          result.counters.Increment("mr.shuffle.map_reruns", map_reruns);
        }
      }

      // ---- Wall-clock deadline at the map/reduce barrier ----
      // The supervisor's coarse wall-clock guard: a job already past its
      // wall deadline when the map barrier closes does not start reduce
      // work. Degraded mode cancels every reduce task (best-effort
      // finalization below); otherwise the job fails with a labelled error.
      if (control.wall_deadline_seconds > 0.0 &&
          wall_watch.ElapsedSeconds() > control.wall_deadline_seconds) {
        if (!control.allow_degraded) {
          result.failed = true;
          result.error =
              "job wall-clock deadline exceeded at the map/reduce barrier";
          AttemptScheduleOutcome map_schedule = ScheduleTaskAttemptsOnCluster(
              map_runner.attempt_costs(),
              phase_options(TaskPhase::kMap, map_speeds,
                            cluster.map_slots_per_machine, submit_time,
                            map_runner));
          MergeRecoveryCounters(map_schedule, &result.counters);
          result.timing.map_attempts = std::move(map_schedule.attempts);
          result.timing.map_end = map_schedule.end_time;
          result.timing.end = map_schedule.end_time;
          stamp_wall_trace();
          finish_wall();
          return result;
        }
        wall_expired = true;
      }

      if (!wall_expired) {  // ---- Reduce phase ----
      // Per-task cursors of the checkpoint-aware attempt loop: the restored
      // base cost and group watermark of the currently running attempt.
      // Each task only ever touches its own slot.
      std::vector<double> attempt_base(static_cast<size_t>(num_reduce_tasks_),
                                       0.0);
      std::vector<int64_t> attempt_skip(
          static_cast<size_t>(num_reduce_tasks_), 0);
      reduce_phase_started = true;
      reduce_runner.RunAll(
          pool, wall.get(),
          [this, &reduce_ctx, &reduce_attempt_bases, &attempt_base,
           &attempt_skip, &restart_restored, &restart_restore_cost, &wall,
           &cluster, threaded](int t) {
            ReduceContext& ctx = reduce_ctx[static_cast<size_t>(t)];
            const TaskCheckpoint* checkpoint =
                checkpointing() ? checkpoint_store_->Latest(t) : nullptr;
            if (checkpoint != nullptr) {
              // A snapshot still marked preloaded came off disk from an
              // earlier process — this restore is a cross-process restart,
              // tallied separately under "mr.restart.restored_tasks".
              if (checkpoint_store_->Preloaded(t)) {
                restart_restored[static_cast<size_t>(t)] = 1;
                restart_restore_cost[static_cast<size_t>(t)] =
                    checkpoint->cost;
              }
              RestoreReduceContext(&ctx, *checkpoint);
              if (checkpoint_restore_) {
                checkpoint_restore_(t, checkpoint->driver_state.get());
              }
              checkpoint_store_->NoteRestore(t);
              attempt_base[static_cast<size_t>(t)] = checkpoint->cost;
              attempt_skip[static_cast<size_t>(t)] = checkpoint->groups;
              // Wall-clock restore mark, recorded live from the worker
              // thread (the simulated backend's scheduler emits its own).
              if (threaded && cluster.trace != nullptr) {
                TraceSpan span;
                span.kind = SpanKind::kCheckpointRestore;
                span.phase = TaskPhase::kReduce;
                span.pid = cluster.trace->current_pid();
                span.task = t;
                span.machine = -1;
                span.slot = ThreadPool::CurrentWorker();
                span.start = wall->Now();
                span.end = span.start;
                span.cost_units = checkpoint->cost;
                cluster.trace->RecordSpan(span);
              }
            } else {
              ResetReduceContext(&ctx);
              if (checkpointing() && checkpoint_restore_) {
                checkpoint_restore_(t, nullptr);
              }
              attempt_base[static_cast<size_t>(t)] = 0.0;
              attempt_skip[static_cast<size_t>(t)] = 0;
            }
            reduce_attempt_bases[static_cast<size_t>(t)].push_back(
                attempt_base[static_cast<size_t>(t)]);
          },
          [this, &map_outputs, &reduce_fn, &reduce_ctx, &attempt_base,
           &attempt_skip, &gather_stats, &wall, &cluster,
           threaded](const TaskAttemptRunner::Attempt& attempt) {
            ReduceContext& ctx = reduce_ctx[static_cast<size_t>(attempt.task)];
            RunReduceAttempt(map_outputs, reduce_fn, &ctx, attempt,
                             attempt_skip[static_cast<size_t>(attempt.task)],
                             &gather_stats[static_cast<size_t>(attempt.task)],
                             wall.get(),
                             threaded ? cluster.trace : nullptr);
            // Incremental cost: with a restored checkpoint, only the work
            // past the boundary counts as this attempt's duration.
            return TaskAttemptRunner::BodyOutcome{
                ctx.clock_.units() -
                    attempt_base[static_cast<size_t>(attempt.task)],
                false};
          },
          [this, &reduce_ctx, &reduce_replayed](TaskPhase phase, int t,
                                                int att) {
            // The retry repeats everything past the last checkpoint (from
            // scratch without one) — the measurable price of the failure.
            const ReduceContext& ctx = reduce_ctx[static_cast<size_t>(t)];
            const TaskCheckpoint* checkpoint =
                checkpointing() ? checkpoint_store_->Latest(t) : nullptr;
            const int64_t kept =
                checkpoint != nullptr ? checkpoint->records_in : 0;
            reduce_replayed[static_cast<size_t>(t)] +=
                std::max<int64_t>(0, ctx.stats_.records_in - kept);
            if (task_abort_) task_abort_(phase, t, att);
          });

      if (threaded) wall->EndPhase(TaskPhase::kReduce);

      reduce_runner.MergeFaultCounters(&result.counters);
      const int doomed_reduce = reduce_runner.FirstDoomed();
      if (doomed_reduce >= 0 && control.allow_degraded) {
        // Degraded mode: quarantine, restoring each doomed task's
        // checkpointed prefix, and keep the job alive.
        for (const int t : reduce_runner.DoomedTasks()) quarantine_reduce(t);
      } else if (doomed_reduce >= 0) {
        result.failed = true;
        result.error = reduce_runner.DoomedError(doomed_reduce);
      }
      if (!result.failed) {
        // A gather that could not read its spill runs back (unreadable or
        // corrupt files) fails the job with the labelled error, like any
        // other data-plane fault — or, degraded, quarantines the task.
        for (int t = 0; t < num_reduce_tasks_; ++t) {
          const std::string& gather_error =
              gather_stats[static_cast<size_t>(t)].error;
          if (gather_error.empty()) continue;
          if (control.allow_degraded) {
            if (!reduce_affected[static_cast<size_t>(t)]) {
              quarantine_reduce(t);
            }
            continue;
          }
          result.failed = true;
          result.error =
              "reduce task " + std::to_string(t) + ": " + gather_error;
          break;
        }
      }
      if (!result.failed) {
        // Reduce tasks whose winning gather ran the k-way external merge,
        // reconciled against the kSpillMerge trace spans (one per task).
        int64_t merge_passes = 0;
        for (int t = 0; t < num_reduce_tasks_; ++t) {
          if (gather_stats[static_cast<size_t>(t)].runs_merged > 0) {
            ++merge_passes;
          }
        }
        if (merge_passes > 0) {
          result.counters.Increment("mr.spill.merge_passes", merge_passes);
        }
      }

      }  // if (!wall_expired): reduce phase
      // (Stats, counters & outputs are collected after the timing model and
      // the supervisor's deadline enforcement — a cut task's context must
      // hold exactly its restored prefix when it is read.)
    }

    // ---- Checkpoint & replay bookkeeping ----
    {
      int64_t replayed = 0;
      for (const int64_t r : reduce_replayed) replayed += r;
      if (replayed > 0) {
        result.counters.Increment("mr.recovery.replayed_pairs", replayed);
      }
      if (checkpointing() && checkpoint_store_->saved() > 0) {
        result.counters.Increment("mr.checkpoint.saved",
                                  checkpoint_store_->saved());
      }
      if (checkpointing() && checkpoint_store_->restored() > 0) {
        result.counters.Increment("mr.checkpoint.restored",
                                  checkpoint_store_->restored());
      }
      if (checkpointing()) {
        int64_t restored_tasks = 0;
        for (const char flag : restart_restored) restored_tasks += flag;
        if (restored_tasks > 0) {
          result.counters.Increment("mr.restart.restored_tasks",
                                    restored_tasks);
        }
        if (checkpoint_store_->corrupt_checkpoints() > 0) {
          result.counters.Increment("mr.restart.corrupt_checkpoints",
                                    checkpoint_store_->corrupt_checkpoints());
        }
      }
    }

    // ---- Simulated timing (failed attempts, retries, machine faults) ----
    AttemptScheduleOutcome map_schedule = ScheduleTaskAttemptsOnCluster(
        map_runner.attempt_costs(),
        phase_options(TaskPhase::kMap, map_speeds,
                      cluster.map_slots_per_machine, submit_time,
                      map_runner));
    MergeRecoveryCounters(map_schedule, &result.counters);
    result.timing.map_attempts = std::move(map_schedule.attempts);
    result.timing.map_end = map_schedule.end_time;
    if (map_schedule.failed && !result.failed) {
      FailOnLostCluster(&result, TaskPhase::kMap, map_schedule.failed_task);
      result.timing.end = map_schedule.end_time;
      stamp_wall_trace();
      finish_wall();
      return result;
    }

    // Spill-run write marks at the winning map attempts' ends: zero-
    // duration children, one per run, carrying its volume — reconciled
    // against the "mr.spill.*" counters. (Simulated backend; the threaded
    // backend stamps the same marks on the wall clock in stamp_wall_trace.)
    if (!threaded && cluster.trace != nullptr && !result.failed) {
      for (const TaskAttemptTiming& a : result.timing.map_attempts) {
        if (!a.won) continue;
        for (const SpillRun& run :
             map_ctx[static_cast<size_t>(a.task)].output_.spill_runs()) {
          TraceSpan span;
          span.kind = SpanKind::kSpillWrite;
          span.phase = TaskPhase::kMap;
          span.pid = cluster.trace->current_pid();
          span.task = a.task;
          span.attempt = a.attempt;
          span.machine = a.slot / cluster.map_slots_per_machine;
          span.slot = a.slot;
          span.start = a.end;
          span.end = a.end;
          span.records_in = run.records;
          span.bytes = run.bytes;
          cluster.trace->RecordSpan(span);
        }
        // One zero-duration retry mark per transient spill-write retry the
        // task survived — reconciles with "mr.disk.retries".
        for (int64_t i = 0;
             i < disk_totals[static_cast<size_t>(a.task)].retries; ++i) {
          TraceSpan span;
          span.kind = SpanKind::kSpillRetry;
          span.phase = TaskPhase::kMap;
          span.pid = cluster.trace->current_pid();
          span.task = a.task;
          span.attempt = a.attempt;
          span.machine = a.slot / cluster.map_slots_per_machine;
          span.slot = a.slot;
          span.start = a.end;
          span.end = a.end;
          cluster.trace->RecordSpan(span);
        }
      }
      // Corrupt spill runs surface at the map barrier, where the CRC
      // validation pass reads them back — reconciles with
      // "mr.disk.corrupt_runs".
      for (const CorruptRunEvent& event : corrupt_run_events) {
        int slot = -1;
        int attempt = 0;
        for (const TaskAttemptTiming& a : result.timing.map_attempts) {
          if (a.won && a.task == event.task) {
            slot = a.slot;
            attempt = a.attempt;
            break;
          }
        }
        TraceSpan span;
        span.kind = SpanKind::kRunCorrupt;
        span.phase = TaskPhase::kMap;
        span.pid = cluster.trace->current_pid();
        span.task = event.task;
        span.attempt = attempt;
        span.machine =
            slot >= 0 ? slot / cluster.map_slots_per_machine : -1;
        span.slot = slot;
        span.start = result.timing.map_end;
        span.end = result.timing.map_end;
        span.records_in = event.records;
        span.bytes = event.bytes;
        cluster.trace->RecordSpan(span);
      }
    }

    // Data-plane fault instants, timestamped off the map schedule: checksum
    // errors surface at the map/reduce barrier (when fetches happen), and a
    // quarantine takes effect when the task's winning attempt first skips
    // the record. The threaded backend records the same instants on the
    // wall clock instead (stamp_wall_trace).
    if (!threaded && cluster.trace != nullptr) {
      for (const auto& [r, m] : corrupt_events) {
        TraceInstant instant;
        instant.kind = InstantKind::kShuffleCorruption;
        instant.phase = TaskPhase::kReduce;
        instant.pid = cluster.trace->current_pid();
        instant.time = result.timing.map_end;
        instant.task = r;
        instant.peer_task = m;
        cluster.trace->RecordInstant(instant);
      }
      for (const QuarantinedRecord& q : result.quarantined) {
        TraceInstant instant;
        instant.kind = InstantKind::kRecordQuarantined;
        instant.phase = TaskPhase::kMap;
        instant.pid = cluster.trace->current_pid();
        instant.time =
            map_schedule.winning_starts[static_cast<size_t>(q.task)];
        instant.task = q.task;
        instant.record = q.record;
        cluster.trace->RecordInstant(instant);
      }
    }

    AttemptScheduleOptions reduce_options = phase_options(
        TaskPhase::kReduce, reduce_speeds, cluster.reduce_slots_per_machine,
        result.timing.map_end, reduce_runner);
    reduce_options.attempt_bases = std::move(reduce_attempt_bases);
    reduce_options.fetch_stall_seconds = std::move(fetch_stalls);
    // Degraded-mode placement: machine loss that leaves reduce tasks
    // unplaceable quarantines them (below) instead of failing the job.
    reduce_options.tolerate_unplaced = control.allow_degraded;
    if (checkpointing()) {
      reduce_options.recovery_points.resize(
          static_cast<size_t>(num_reduce_tasks_));
      for (int t = 0; t < num_reduce_tasks_; ++t) {
        reduce_options.recovery_points[static_cast<size_t>(t)] =
            checkpoint_store_->RecoveryPoints(t);
      }
    }
    AttemptScheduleOutcome reduce_schedule;
    if (!wall_expired) {
      reduce_schedule = ScheduleTaskAttemptsOnCluster(
          reduce_runner.attempt_costs(), reduce_options);
      MergeRecoveryCounters(reduce_schedule, &result.counters);
      result.timing.reduce_attempts = std::move(reduce_schedule.attempts);
      result.timing.reduce_start = std::move(reduce_schedule.winning_starts);
      result.timing.end = reduce_schedule.end_time;
      if (reduce_schedule.failed && !result.failed) {
        FailOnLostCluster(&result, TaskPhase::kReduce,
                          reduce_schedule.failed_task);
        stamp_wall_trace();
        finish_wall();
        return result;
      }
    } else {
      // Past the wall deadline no reduce attempt ever started: the job
      // finalizes at the map barrier and every reduce task is cancelled.
      result.timing.reduce_start.assign(
          static_cast<size_t>(num_reduce_tasks_), result.timing.map_end);
      result.timing.end = result.timing.map_end;
      for (int t = 0; t < num_reduce_tasks_; ++t) {
        TaskReport& report = reduce_report[static_cast<size_t>(t)];
        report.phase = TaskPhase::kReduce;
        report.task = t;
        report.kind = TaskOutcomeKind::kCancelled;
        report.records_total = gathered_total(t);
        report.records_covered = 0;
        report.covered_fraction = 0.0;
        reduce_affected[static_cast<size_t>(t)] = 1;
        supervisor_events.push_back({SpanKind::kDeadlineCancel,
                                     TaskPhase::kReduce, t, -1, 0.0,
                                     result.timing.map_end});
      }
    }

    // ---- Job supervision: deadline enforcement, best-effort finalization ----
    // The simulated deadline is enforced post-hoc on the results clock —
    // identical under both backends, since the threaded backend computes
    // the same simulated timeline. Without allow_degraded an overrun is a
    // clean labelled failure; with it, each late reduce task is cut back to
    // its last checkpoint at or below the progress the deadline allowed
    // (cancelled outright without one) and the job finalizes at the
    // deadline.
    if (!result.failed && control.deadline_seconds > 0.0 &&
        result.timing.end > control.deadline_seconds &&
        !control.allow_degraded) {
      result.failed = true;
      result.error = "job deadline exceeded: finished at " +
                     std::to_string(result.timing.end) + "s > deadline " +
                     std::to_string(control.deadline_seconds) + "s";
      stamp_wall_trace();
      finish_wall();
      return result;
    }
    if (!result.failed && supervisor.active()) {
      for (const int t : reduce_schedule.unplaced_tasks) {
        if (!reduce_affected[static_cast<size_t>(t)]) quarantine_reduce(t);
      }
      if (control.deadline_seconds > 0.0) {
        const double deadline = control.deadline_seconds;
        for (const TaskAttemptTiming& a : result.timing.reduce_attempts) {
          if (!a.won || a.end <= deadline) continue;
          const int t = a.task;
          if (reduce_affected[static_cast<size_t>(t)]) continue;
          // Progress the deadline allowed: the winning attempt advances
          // from its restored base at its slot's speed. (A mid-attempt
          // machine-kill resume point is above the base — the cut then
          // restores an earlier checkpoint: conservative, still
          // deterministic.)
          const auto& bases =
              reduce_options.attempt_bases[static_cast<size_t>(t)];
          const double base = bases.empty() ? 0.0 : bases.back();
          const double speed =
              a.slot >= 0 && a.slot < static_cast<int>(reduce_speeds.size())
                  ? reduce_speeds[static_cast<size_t>(a.slot)]
                  : 1.0;
          const double start =
              result.timing.reduce_start[static_cast<size_t>(t)];
          const double cut_cost =
              base + std::max(0.0, deadline - start) * speed /
                         cluster.seconds_per_cost_unit;
          ReduceContext& ctx = reduce_ctx[static_cast<size_t>(t)];
          TaskReport& report = reduce_report[static_cast<size_t>(t)];
          report.phase = TaskPhase::kReduce;
          report.task = t;
          report.records_total = ctx.stats_.records_in;
          const TaskCheckpoint* ck =
              checkpointing()
                  ? checkpoint_store_->LatestAtOrBelow(t, cut_cost)
                  : nullptr;
          if (ck != nullptr) {
            RestoreReduceContext(&ctx, *ck);
            if (checkpoint_restore_) {
              checkpoint_restore_(t, ck->driver_state.get());
            }
            ctx.stats_.cost = ck->cost;
            report.kind = TaskOutcomeKind::kCut;
            report.records_covered = ck->records_in;
          } else {
            ResetReduceContext(&ctx);
            if (checkpointing() && checkpoint_restore_) {
              checkpoint_restore_(t, nullptr);
            }
            report.kind = TaskOutcomeKind::kCancelled;
            report.records_covered = 0;
          }
          report.covered_fraction =
              report.records_total > 0
                  ? static_cast<double>(report.records_covered) /
                        static_cast<double>(report.records_total)
                  : 0.0;
          reduce_affected[static_cast<size_t>(t)] = 1;
          supervisor_events.push_back(
              {SpanKind::kDeadlineCancel, TaskPhase::kReduce, t, -1,
               ck != nullptr ? ck->cost : 0.0, deadline});
        }
        // The job finalizes at the deadline: everything past it was
        // cancelled. (Reaching here with an overrun implies
        // allow_degraded — the fail-fast branch above returned otherwise.)
        if (result.timing.end > deadline) result.timing.end = deadline;
      }
    }

    if (!result.failed) {
      // ---- Collect stats, counters & outputs ----
      for (MapContext& ctx : map_ctx) {
        result.map_stats.push_back(ctx.stats_);
        result.counters.MergeFrom(ctx.counters_);
      }
      for (ReduceContext& ctx : reduce_ctx) {
        result.reduce_stats.push_back(ctx.stats_);
        result.counters.MergeFrom(ctx.counters_);
        for (auto& kv : ctx.outputs_) result.outputs.push_back(std::move(kv));
      }
    }

    // ---- Completeness report, supervisor counters & spans ----
    // Counters and spans are derived from the same event list, so
    // "mr.supervisor.*" reconciles 1:1 against the supervisor span kinds by
    // construction; zero counters stay absent, as everywhere.
    if (!result.failed && supervisor.active()) {
      CompletenessReport& completeness = result.completeness;
      for (int t = 0; t < num_map_tasks_; ++t) {
        if (map_affected[static_cast<size_t>(t)]) {
          completeness.tasks.push_back(map_report[static_cast<size_t>(t)]);
        }
      }
      for (int t = 0; t < num_reduce_tasks_; ++t) {
        if (reduce_affected[static_cast<size_t>(t)]) {
          completeness.tasks.push_back(reduce_report[static_cast<size_t>(t)]);
        } else {
          const int64_t records =
              result.reduce_stats[static_cast<size_t>(t)].records_in;
          completeness.records_total += records;
          completeness.records_covered += records;
        }
      }
      for (const TaskReport& report : completeness.tasks) {
        completeness.records_total += report.records_total;
        completeness.records_covered += report.records_covered;
      }
      completeness.covered_fraction =
          completeness.records_total > 0
              ? static_cast<double>(completeness.records_covered) /
                    static_cast<double>(completeness.records_total)
              : 1.0;
      completeness.degraded = !completeness.tasks.empty();
      for (const SupervisorEvent& event : supervisor_events) {
        switch (event.kind) {
          case SpanKind::kDeadlineCancel:
            ++completeness.deadline_cancels;
            break;
          case SpanKind::kTaskQuarantine:
            ++completeness.quarantined_tasks;
            break;
          case SpanKind::kBreakerTrip:
            ++completeness.breaker_trips;
            break;
          default:
            break;
        }
      }
      completeness.retries_denied = supervisor.retries_denied();
      const auto spend = [&result](const char* name, int64_t value) {
        if (value > 0) result.counters.Increment(name, value);
      };
      spend("mr.supervisor.deadline_cancels", completeness.deadline_cancels);
      spend("mr.supervisor.quarantined_tasks",
            completeness.quarantined_tasks);
      spend("mr.supervisor.breaker_trips", completeness.breaker_trips);
      spend("mr.supervisor.retries_denied", completeness.retries_denied);
      spend("mr.supervisor.retry_spend.task",
            result.counters.Get("mr.failed_attempts"));
      spend("mr.supervisor.retry_spend.machine",
            result.counters.Get("mr.faults.machine_lost"));
      spend("mr.supervisor.retry_spend.disk",
            result.counters.Get("mr.disk.retries") +
                result.counters.Get("mr.disk.map_reruns"));
      spend("mr.supervisor.retry_spend.data",
            result.counters.Get("mr.shuffle.refetches") +
                result.counters.Get("mr.shuffle.map_reruns"));
      if (cluster.trace != nullptr) {
        // Simulated anchors: a breaker trips at submission, a quarantine
        // marks its task's last attempt, a deadline cancel spans the cut
        // point to the work it threw away. The threaded backend anchors the
        // same spans on its wall clock instead (counts match either way —
        // reconciliation tests count span kinds).
        const auto win_end_of = [&result](TaskPhase phase, int task) {
          const auto& attempts = phase == TaskPhase::kMap
                                     ? result.timing.map_attempts
                                     : result.timing.reduce_attempts;
          for (const TaskAttemptTiming& a : attempts) {
            if (a.won && a.task == task) return a.end;
          }
          return result.timing.end;
        };
        const int pid = cluster.trace->current_pid();
        for (const SupervisorEvent& event : supervisor_events) {
          TraceSpan span;
          span.kind = event.kind;
          span.phase = event.phase;
          span.pid = pid;
          span.task = event.task;
          span.machine = -1;
          span.slot = -1;
          span.domain = event.domain;
          span.cost_units = event.cost;
          if (threaded) {
            double anchor = 0.0;
            if (event.kind != SpanKind::kBreakerTrip) {
              WallAttempt winner;
              anchor = wall->WinningAttempt(event.phase, event.task, &winner)
                           ? winner.end
                           : wall->phase_end(event.phase);
            }
            span.start = anchor;
            span.end = anchor;
          } else if (event.kind == SpanKind::kBreakerTrip) {
            span.start = submit_time;
            span.end = submit_time;
          } else if (event.kind == SpanKind::kTaskQuarantine) {
            span.start = win_end_of(event.phase, event.task);
            span.end = span.start;
          } else {
            span.start = event.deadline;
            span.end = std::max(event.deadline,
                                win_end_of(event.phase, event.task));
          }
          cluster.trace->RecordSpan(span);
        }
      }
    }

    // Shuffle delivery marks: each winning reduce attempt starts by pulling
    // its sorted input — a zero-duration child span carrying the volume.
    // (Simulated backend only; the threaded backend marks deliveries at the
    // winning attempts' wall starts in stamp_wall_trace.)
    if (!threaded && cluster.trace != nullptr && !result.failed) {
      for (const TaskAttemptTiming& a : result.timing.reduce_attempts) {
        if (!a.won) continue;
        TraceSpan span;
        span.kind = SpanKind::kShuffle;
        span.phase = TaskPhase::kReduce;
        span.pid = cluster.trace->current_pid();
        span.task = a.task;
        span.attempt = a.attempt;
        span.machine = a.slot / cluster.reduce_slots_per_machine;
        span.slot = a.slot;
        span.start = a.start;
        span.end = a.start;
        span.records_in =
            result.reduce_stats[static_cast<size_t>(a.task)].records_in;
        cluster.trace->RecordSpan(span);
        const auto& gs = gather_stats[static_cast<size_t>(a.task)];
        if (gs.runs_merged > 0) {
          TraceSpan merge;
          merge.kind = SpanKind::kSpillMerge;
          merge.phase = TaskPhase::kReduce;
          merge.pid = cluster.trace->current_pid();
          merge.task = a.task;
          merge.attempt = a.attempt;
          merge.machine = a.slot / cluster.reduce_slots_per_machine;
          merge.slot = a.slot;
          merge.start = a.start;
          merge.end = a.start;
          merge.records_in = gs.spilled_records;
          merge.bytes = gs.spilled_bytes;
          cluster.trace->RecordSpan(merge);
        }
        // A task resumed from a previous process's persisted snapshot marks
        // the restore at its winning attempt's start — reconciles with
        // "mr.restart.restored_tasks".
        if (restart_restored[static_cast<size_t>(a.task)]) {
          TraceSpan span;
          span.kind = SpanKind::kRestartRestore;
          span.phase = TaskPhase::kReduce;
          span.pid = cluster.trace->current_pid();
          span.task = a.task;
          span.attempt = a.attempt;
          span.machine = a.slot / cluster.reduce_slots_per_machine;
          span.slot = a.slot;
          span.start = a.start;
          span.end = a.start;
          span.cost_units =
              restart_restore_cost[static_cast<size_t>(a.task)];
          cluster.trace->RecordSpan(span);
        }
      }
    }

    MergeSpeculationCounters(result.timing, &result.counters);
    stamp_wall_trace();
    finish_wall();
    // A finished job must not be resumable: drop its persisted snapshots.
    if (checkpointing() && checkpoint_store_->persistent() &&
        !result.failed) {
      checkpoint_store_->CleanupPersisted();
    }
    return result;
  }

 private:
  void ResetMapContext(MapContext* ctx) {
    ctx->clock_.Reset();
    ctx->counters_ = Counters();
    ctx->stats_ = TaskStats();
    ctx->output_.Reset(shuffle_, ctx->task_id_);
  }

  void ResetReduceContext(ReduceContext* ctx) {
    ctx->clock_.Reset();
    ctx->counters_ = Counters();
    ctx->stats_ = TaskStats();
    ctx->outputs_.clear();
  }

  bool checkpointing() const {
    return checkpoint_store_ != nullptr && checkpoint_alpha_ > 0.0;
  }

  // Rewinds a reduce context to a saved snapshot: clock re-charged to the
  // boundary cost, counters/stats replaced, outputs truncated to the
  // boundary's length (everything before the boundary was already emitted
  // identically — determinism makes the prefix byte-equal).
  void RestoreReduceContext(ReduceContext* ctx,
                            const TaskCheckpoint& checkpoint) {
    ctx->clock_.Reset();
    ctx->clock_.Charge(checkpoint.cost);
    ctx->counters_ = checkpoint.counters;
    ctx->stats_ = TaskStats();
    ctx->stats_.records_in = checkpoint.records_in;
    ctx->stats_.pairs_out = checkpoint.pairs_out;
    if (ctx->outputs_.size() < checkpoint.outputs &&
        !checkpoint.encoded_outputs.empty()) {
      // A snapshot loaded from disk by a restarted process: the live
      // context never held the outputs, so decode the journal's copy.
      ctx->outputs_.clear();
      const std::string_view view(checkpoint.encoded_outputs);
      size_t offset = 0;
      while (offset < view.size()) {
        K key;
        V value;
        if (!KvCodec<K>::Decode(view, &offset, &key) ||
            !KvCodec<V>::Decode(view, &offset, &value)) {
          break;
        }
        ctx->outputs_.emplace_back(std::move(key), std::move(value));
      }
    }
    if (ctx->outputs_.size() > checkpoint.outputs) {
      ctx->outputs_.erase(
          ctx->outputs_.begin() +
              static_cast<std::ptrdiff_t>(checkpoint.outputs),
          ctx->outputs_.end());
    }
  }

  // Snapshots the task after a group if its clock crossed into a new
  // alpha-window (the progressive emission boundary) since the last saved
  // snapshot. The store ignores non-advancing saves, so a resumed attempt
  // re-crossing an old boundary is a no-op. Under the threaded backend
  // (`wall` and `wall_trace` non-null) each save is marked on the wall
  // clock live from the worker thread that took it.
  void MaybeCheckpoint(ReduceContext* ctx, int64_t groups_done,
                       ThreadedExecutor* wall, TraceRecorder* wall_trace) {
    if (!checkpointing()) return;
    const int task = ctx->task_id_;
    const double units = ctx->clock_.units();
    const TaskCheckpoint* latest = checkpoint_store_->Latest(task);
    const double last = latest != nullptr ? latest->cost : 0.0;
    if (units <= last) return;
    if (std::floor(units / checkpoint_alpha_) <=
        std::floor(last / checkpoint_alpha_)) {
      return;
    }
    TaskCheckpoint checkpoint;
    checkpoint.cost = units;
    checkpoint.groups = groups_done;
    checkpoint.records_in = ctx->stats_.records_in;
    checkpoint.pairs_out = ctx->stats_.pairs_out;
    checkpoint.outputs = ctx->outputs_.size();
    checkpoint.counters = ctx->counters_;
    if (checkpoint_store_->persistent()) {
      // A restarted process can't reuse this context's live outputs, so the
      // journal frame carries the outputs emitted since the last snapshot.
      const size_t from = latest != nullptr ? latest->outputs : 0;
      for (size_t i = from; i < ctx->outputs_.size(); ++i) {
        KvCodec<K>::Encode(ctx->outputs_[i].first, &checkpoint.encoded_outputs);
        KvCodec<V>::Encode(ctx->outputs_[i].second,
                           &checkpoint.encoded_outputs);
      }
    }
    if (checkpoint_save_) checkpoint.driver_state = checkpoint_save_(task);
    checkpoint_store_->Save(task, std::move(checkpoint));
    if (wall != nullptr && wall_trace != nullptr) {
      TraceSpan span;
      span.kind = SpanKind::kCheckpointSave;
      span.phase = TaskPhase::kReduce;
      span.pid = wall_trace->current_pid();
      span.task = task;
      span.machine = -1;
      span.slot = ThreadPool::CurrentWorker();
      span.start = wall->Now();
      span.end = span.start;
      span.cost_units = units;
      wall_trace->RecordSpan(span);
    }
  }

  // Runs one reduce-task attempt: gather/merge via the shuffle (decoding
  // never consumes the map-side blocks or spill files, so a failing or
  // hanging attempt leaves everything intact for the retry; a cut attempt
  // stops at the group boundary past its cutoff fraction of the input
  // pairs), then one reduce call per group; the winning attempt runs
  // cleanup. A resumed attempt skips the `skip_groups` groups its restored
  // checkpoint already covers. `gather_stats` receives the attempt's merge
  // accounting (the winner's values are the ones the job reports).
  void RunReduceAttempt(
      std::vector<typename JobShuffle::MapOutput*>& map_outputs,
      const ReduceFn& reduce_fn, ReduceContext* ctx,
      const TaskAttemptRunner::Attempt& attempt, int64_t skip_groups,
      typename JobShuffle::GatherStats* gather_stats, ThreadedExecutor* wall,
      TraceRecorder* wall_trace) {
    const bool cut = attempt.fails || attempt.hangs;
    typename JobShuffle::Gathered gathered =
        shuffle_.GatherSorted(map_outputs, attempt.task, gather_stats);
    const size_t limit =
        cut ? static_cast<size_t>(
                  static_cast<double>(gathered.records) *
                  (attempt.fails ? attempt.fail_point : attempt.hang_point))
            : gathered.records + 1;

    if (reduce_setup_) reduce_setup_(attempt.task);
    int64_t group_index = 0;
    JobShuffle::ForEachGroup(
        &gathered, limit, [&](const K& key, std::vector<V>* values) {
          const int64_t group = group_index++;
          if (group < skip_groups) return;
          ctx->stats_.records_in += static_cast<int64_t>(values->size());
          reduce_fn(key, values, ctx);
          MaybeCheckpoint(ctx, group + 1, wall, wall_trace);
        });
    if (!cut) {
      if (reduce_cleanup_) reduce_cleanup_(ctx);
      ctx->stats_.cost = ctx->clock_.units();
    }
  }

  // Clean job failure when a task ran out of machines to run on: keeps the
  // "mr." bookkeeping but scrubs user-visible data, which Result documents
  // as unspecified on failure.
  void FailOnLostCluster(Result* result, TaskPhase phase, int task) {
    result->failed = true;
    result->error =
        std::string(phase == TaskPhase::kMap ? "map" : "reduce") + " task " +
        std::to_string(task) + " lost: no healthy machines remain";
    result->outputs.clear();
    result->map_stats.clear();
    result->reduce_stats.clear();
    Counters scrubbed;
    for (const auto& [name, value] : result->counters.values()) {
      if (name.rfind("mr.", 0) == 0) scrubbed.Increment(name, value);
    }
    result->counters = std::move(scrubbed);
  }

  int num_map_tasks_;
  int num_reduce_tasks_;
  JobShuffle shuffle_;
  double map_cost_per_record_ = 1.0;
  SetupFn map_setup_;
  SetupFn reduce_setup_;
  ReduceCleanupFn reduce_cleanup_;
  TaskAbortFn task_abort_;
  bool poison_faults_ = false;
  double checkpoint_alpha_ = 0.0;
  CheckpointStore* checkpoint_store_ = nullptr;
  SaveStateFn checkpoint_save_;
  RestoreStateFn checkpoint_restore_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_JOB_H_
