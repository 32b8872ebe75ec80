#ifndef PROGRES_MAPREDUCE_JOB_H_
#define PROGRES_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
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

// In-process MapReduce runtime. MapReduceJob honours the Hadoop contract
// the paper's algorithms rely on:
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
// Run() executes one submission as a JobRun: its members are the run's
// per-task bookkeeping, its methods the phases, in order —
//   1. Submit: validate the cluster config (ValidateClusterConfig — an
//      invalid config fails the job with a labelled error instead of
//      running with silently corrected parameters), resolve the shuffle
//      memory budget, build the fault plan, attempt runners and supervisor;
//   2. RunMap: the map attempt chains (TaskAttemptRunner, task_runner.h),
//      with skip-bad-records quarantine of poison records;
//   3. MapBarrier: spill-run CRC validation and re-runs, shuffle volume,
//      checksummed-fetch recovery and the wall-clock deadline;
//   4. RunReduce: the reduce attempt chains over the gathered partitions
//      (Shuffle, shuffle.h), each attempt set up by RestoreTask;
//   5. Schedule: the attempt-aware timing model (cluster.h) turns per-
//      attempt costs into the deterministic simulated timeline, including
//      retry delays and speculative backup copies of stragglers;
//   6. Supervise: deadline enforcement and best-effort finalization;
//   7. Collect and Report: stats, counters, outputs, completeness;
//   8. Finish: trace stamping and the measured wall clock.
// A phase that fails the job hands its error to Abort, the one early exit;
// it still schedules the executed map attempts, so a failed job reports
// its timeline. Every rewind of a reduce task — a re-attempt, a
// quarantine, a deadline cut — goes through RestoreTask.
//
// Two execution backends share this contract (ClusterConfig::backend):
// the simulated backend runs attempts serially on the submitting thread —
// the deterministic reference — while the threaded backend runs them
// concurrently on a thread pool (executor.h) and measures wall-clock time
// alongside (JobTiming::wall). All algorithmic cost is charged to
// deterministic per-task CostClocks and all cross-task state merges after
// the phase barriers, so results are bit-identical across backends and
// regardless of real thread interleaving; the simulated timeline stays the
// results clock under both. The backends differ only in the clock the
// trace is anchored on: StampTrace builds the data-plane spans of either
// from one winning-attempt lookup per phase.
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
  // returns a type-erased snapshot of the driver's per-task state at a
  // boundary (the ER drivers' are watermarks into a state that only grows,
  // TaskStateRegistry::InstallWatermarkRecovery); `restore` rewinds the
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
    JobRun run(this, input, map_fn, reduce_fn, cluster, submit_time);
    return run.Execute();
  }

 private:
  // One submission of the job: the run's per-task state, and its phases.
  class JobRun {
   public:
    JobRun(MapReduceJob* job, const std::vector<Record>& input,
           const MapFn& map_fn, const ReduceFn& reduce_fn,
           const ClusterConfig& cluster, double submit_time)
        : job_(*job),
          input_(input),
          map_fn_(map_fn),
          reduce_fn_(reduce_fn),
          cluster_(cluster),
          control_(cluster.control),
          submit_time_(submit_time),
          num_map_(job->num_map_tasks_),
          num_reduce_(job->num_reduce_tasks_),
          reports_{std::vector<TaskReport>(Slots(num_map_)),
                   std::vector<TaskReport>(Slots(num_reduce_))},
          map_ctx_(Slots(num_map_)),
          reduce_ctx_(Slots(num_reduce_)),
          map_generation_(Slots(num_map_), 0),
          disk_totals_(Slots(num_map_)),
          quarantined_by_task_(Slots(num_map_)),
          gather_stats_(Slots(num_reduce_)),
          fetch_stalls_(Slots(num_reduce_), 0.0),
          attempt_bases_(Slots(num_reduce_)),
          attempt_base_(Slots(num_reduce_), 0.0),
          attempt_skip_(Slots(num_reduce_), 0),
          replayed_(Slots(num_reduce_), 0),
          restart_cost_(Slots(num_reduce_), -1.0) {
      result_.timing.start = submit_time;
      for (int t = 0; t < num_map_; ++t) {
        map_ctx_[Slot(t)].task_id_ = t;
        map_outputs_.push_back(&map_ctx_[Slot(t)].output_);
      }
      for (int t = 0; t < num_reduce_; ++t) reduce_ctx_[Slot(t)].task_id_ = t;
    }
    JobRun(const JobRun&) = delete;
    JobRun& operator=(const JobRun&) = delete;

    Result Execute() {
      std::string error = Submit();
      if (error.empty()) error = RunMap();
      if (error.empty()) error = MapBarrier();
      if (!error.empty()) return Abort(std::move(error));
      if (!wall_expired_) RunReduce();
      CountRecovery();
      if (!Schedule() || !Supervise()) return Finish();
      Collect();
      Report();
      MergeSpeculationCounters(result_.timing, &result_.counters);
      return Finish();
    }

   private:
    // Where one task's data-plane marks anchor on the trace clock: its
    // winning attempt, if it had one.
    struct Winner {
      bool won = false;
      int attempt = 0;
      int slot = -1;
      int machine = -1;
      double start = 0.0;
      double end = 0.0;
    };
    // The trace clock's anchors: each phase's winners (by task) and end,
    // and the job's start. `deadline_on_clock` says whether the simulated
    // deadline is a point on this clock (the wall clock has none).
    struct Anchors {
      std::vector<Winner> winners[2];
      double phase_end[2] = {0.0, 0.0};
      double submit = 0.0;
      bool deadline_on_clock = false;
    };
    // One event of the supervisor, marked by a kDeadlineCancel,
    // kTaskQuarantine or kBreakerTrip span. The "mr.supervisor.*" activity
    // counters are derived from the same list, so counters and spans
    // reconcile by construction.
    struct SupervisorEvent {
      SpanKind kind;
      TaskPhase phase;
      int task;
      int domain;       // FaultDomain index for breaker trips, else -1
      double cost;      // restored boundary cost (cut/quarantine), else 0
      double deadline;  // the cut deadline, anchoring kDeadlineCancel spans
    };
    struct CorruptRun {
      int task;
      int64_t records;
      int64_t bytes;
    };

    static size_t Slots(int n) { return static_cast<size_t>(n); }
    static size_t Slot(int t) { return static_cast<size_t>(t); }
    static int Phase(TaskPhase phase) { return static_cast<int>(phase); }

    CheckpointStore* store() const { return job_.checkpoint_store_; }
    bool checkpointing() const { return job_.checkpointing(); }
    const TaskCheckpoint* Latest(int t) const {
      return checkpointing() ? store()->Latest(t) : nullptr;
    }
    // Exports a non-zero tally; zero counters stay absent, as everywhere.
    void Tally(const char* name, int64_t value) {
      if (value > 0) result_.counters.Increment(name, value);
    }
    // First input record of map task `t`'s chunk (t == num_map_: the end).
    size_t ChunkBegin(int t) const {
      return input_.size() * Slot(t) / Slots(num_map_);
    }
    bool Affected(TaskPhase phase, int t) const {
      return reports_[Phase(phase)][Slot(t)].kind !=
             TaskOutcomeKind::kComplete;
    }

    // ---- 1. Submission ----
    // The shuffle memory budget is resolved once per run: the job-wide
    // budget split across map tasks (floored at one block each) and the
    // spill directories prepared and probed up front — the fallback with
    // the same rigour — so an unusable directory fails the submission
    // instead of a mid-map spill. The PROGRES_FORCE_SPILL environment hook
    // drops a disabled budget to one block so test suites can drive the
    // out-of-core path through unmodified configs; PROGRES_DISK_FAULTS
    // likewise overlays small disk-fault probabilities on any spilling job.
    // Outputs are byte-identical either way by design.
    std::string Submit() {
      std::string error = ValidateClusterConfig(cluster_);
      if (!error.empty()) return "invalid cluster config: " + error;
      ShuffleBudget budget = cluster_.shuffle_budget;
      if (budget.max_bytes == 0 &&
          std::getenv("PROGRES_FORCE_SPILL") != nullptr) {
        budget.max_bytes = 1;
        budget.block_bytes = 4096;
      }
      typename JobShuffle::SpillConfig spill;
      spill.block_bytes = budget.block_bytes;
      if (budget.max_bytes > 0) {
        spill.dir = ResolveSpillDir(budget.spill_dir, &error);
        if (spill.dir.empty()) return "shuffle budget unusable: " + error;
        if (!budget.fallback_spill_dir.empty()) {
          spill.fallback_dir =
              ResolveSpillDir(budget.fallback_spill_dir, &error);
          if (spill.fallback_dir.empty()) {
            return "shuffle budget unusable: " + error;
          }
        }
        spill.enabled = true;
        spill.task_buffer_bytes =
            std::max(budget.block_bytes,
                     budget.max_bytes / static_cast<int64_t>(num_map_));
      }
      job_.shuffle_.set_spill(std::move(spill));

      if (cluster_.backend == ExecutionBackend::kThreaded) {
        wall_ = std::make_unique<ThreadedExecutor>(cluster_.execution_threads);
      }
      result_.timing.wall.threads = wall_ ? wall_->threads() : 1;
      // The trace clock: the simulated timing model stamps attempt spans as
      // it schedules, unless the executor's wall clock is the trace clock —
      // then the executor stamps its attempts and checkpoint marks.
      scheduler_trace_ = wall_ ? nullptr : cluster_.trace;
      marks_ = cluster_.trace != nullptr ? wall_.get() : nullptr;
      // Deadline cuts restore *historical* alpha boundaries, not just the
      // latest one — arm snapshot history before the store resets (and
      // preloads any persisted snapshots into it).
      if (checkpointing()) {
        if (control_.active()) store()->set_keep_history(true);
        store()->Reset(num_reduce_);
      }

      FaultConfig fault = cluster_.fault;
      if (job_.shuffle_.spill_config().enabled &&
          std::getenv("PROGRES_DISK_FAULTS") != nullptr) {
        fault.enabled = true;
        if (fault.spill_write_error_prob == 0.0) {
          fault.spill_write_error_prob = 0.02;
        }
        if (fault.spill_torn_write_prob == 0.0) {
          fault.spill_torn_write_prob = 0.01;
        }
        if (fault.spill_corrupt_prob == 0.0) fault.spill_corrupt_prob = 0.01;
      }
      plan_.emplace(fault);
      machine_failures_ = plan_->MachineFailures(cluster_.machines);
      speeds_[0] = SlotSpeeds(cluster_.map_slots_per_machine,
                              cluster_.map_slots());
      speeds_[1] = SlotSpeeds(cluster_.reduce_slots_per_machine,
                              cluster_.reduce_slots());
      runners_[0].emplace(TaskPhase::kMap, num_map_, &*plan_);
      runners_[1].emplace(TaskPhase::kReduce, num_reduce_, &*plan_);
      poison_active_ = job_.poison_faults_ && plan_->enabled() &&
                       plan_->num_poison_records() > 0;
      poison_crashes_.assign(Slots(plan_->num_poison_records()), 0);
      poison_quarantined_.assign(Slots(plan_->num_poison_records()), 0);

      // The supervisor precomputes the retry-budget ledger and the breaker
      // state from the fault plan — pure functions, identical under both
      // backends. The disk breaker is armed only when a fallback dir exists
      // to fail over to — without one the sticky spill error must surface
      // unchanged.
      supervisor_.emplace(control_, &*plan_, num_map_, num_reduce_);
      if (!supervisor_->active()) return {};
      runners_[0]->set_attempt_caps(supervisor_->map_attempt_caps());
      runners_[1]->set_attempt_caps(supervisor_->reduce_attempt_caps());
      disk_breaker_ = supervisor_->disk_breaker_tripped() &&
                      job_.shuffle_.spill_config().enabled &&
                      !job_.shuffle_.spill_config().fallback_dir.empty();
      if (supervisor_->budget_breaker_tripped()) {
        events_.push_back({SpanKind::kBreakerTrip, TaskPhase::kMap, -1,
                           static_cast<int>(FaultDomain::kTask), 0.0, 0.0});
      }
      if (disk_breaker_) {
        events_.push_back({SpanKind::kBreakerTrip, TaskPhase::kMap,
                           supervisor_->first_full_task(),
                           static_cast<int>(FaultDomain::kDisk), 0.0, 0.0});
      }
      return {};
    }

    std::vector<double> SlotSpeeds(int slots_per_machine, int slots) const {
      return cluster_.machine_speed.empty()
                 ? std::vector<double>(Slots(std::max(1, slots)), 1.0)
                 : cluster_.SlotSpeeds(slots_per_machine);
    }

    // ---- 2. Map ----
    std::string RunMap() {
      runners_[0]->RunAll(
          wall_ ? wall_->pool() : nullptr, wall_.get(),
          [this](int t) { ResetMap(t); },
          [this](const TaskAttemptRunner::Attempt& a) { return MapBody(a); },
          job_.task_abort_);
      if (wall_) wall_->EndPhase(TaskPhase::kMap);
      result_.timing.wall.map_seconds = wall_watch_.ElapsedSeconds();
      runners_[0]->MergeFaultCounters(&result_.counters);
      // Quarantine bookkeeping survives even a doomed job: the skipped
      // records and their counter are facts about the map phase.
      for (int t = 0; t < num_map_; ++t) {
        for (const int64_t rec : quarantined_by_task_[Slot(t)]) {
          result_.quarantined.push_back({t, rec});
        }
      }
      Tally("mr.skipped.records",
            static_cast<int64_t>(result_.quarantined.size()));
      const int doomed = runners_[0]->FirstDoomed();
      if (doomed >= 0 && !control_.allow_degraded) {
        return runners_[0]->DoomedError(doomed);
      }
      // Degraded mode: quarantine every doomed map task and keep going.
      for (const int t : runners_[0]->DoomedTasks()) QuarantineMap(t);
      return {};
    }

    // Prepares an execution of map task `t` — a scheduled attempt or a
    // barrier re-run. Each bumps the task's generation: fresh disk-fault
    // decisions, fresh run-file names.
    void ResetMap(int t) {
      MapContext& ctx = map_ctx_[Slot(t)];
      job_.ResetMapContext(&ctx);
      ctx.output_.ConfigureSpill(&*plan_, map_generation_[Slot(t)]++);
      // Disk breaker: once the first task discovered the primary spill dir
      // full, later tasks start directly on the fallback — one global
      // failover instead of a per-task ENOSPC retry storm.
      if (disk_breaker_ && supervisor_->StartOnFallback(t)) {
        ctx.output_.StartOnFallback();
      }
    }

    // One map attempt over its chunk. Poison-record state is keyed by
    // FaultPlan::PoisonIndex; records partition into disjoint per-task
    // chunks, so each entry is only ever touched by one task's thread.
    TaskAttemptRunner::BodyOutcome MapBody(
        const TaskAttemptRunner::Attempt& attempt) {
      MapContext& ctx = map_ctx_[Slot(attempt.task)];
      const size_t lo = ChunkBegin(attempt.task);
      size_t limit = ChunkBegin(attempt.task + 1) - lo;
      // Crashes and hangs both cut the attempt short; a hung attempt
      // simply stops heartbeating at its cutoff instead of dying.
      const bool cut = attempt.fails || attempt.hangs;
      if (cut) {
        const double point =
            attempt.fails ? attempt.fail_point : attempt.hang_point;
        limit = static_cast<size_t>(static_cast<double>(limit) * point);
      }
      if (job_.map_setup_) job_.map_setup_(attempt.task);
      TaskAttemptRunner::BodyOutcome out;
      for (size_t i = lo; i < lo + limit; ++i) {
        const auto record = static_cast<int64_t>(i);
        if (poison_active_ && plan_->IsPoisonRecord(record)) {
          const size_t p = static_cast<size_t>(plan_->PoisonIndex(record));
          if (poison_quarantined_[p]) continue;  // skipped, not run
          // The record crashes this attempt. Once it has crashed
          // max_attempts_before_skip attempts, skip-bad-records
          // quarantines it so the next attempt can pass over it.
          ++poison_crashes_[p];
          if (cluster_.fault.skip_bad_records &&
              poison_crashes_[p] >= cluster_.fault.max_attempts_before_skip) {
            poison_quarantined_[p] = 1;
            quarantined_by_task_[Slot(attempt.task)].push_back(record);
          }
          out.poison_crashed = true;
          break;
        }
        ctx.clock_.Charge(job_.map_cost_per_record_);
        map_fn_(input_[i], &ctx);
        ++ctx.stats_.records_in;
      }
      if (!cut && !out.poison_crashed) {
        job_.shuffle_.Combine(&ctx.output_);
        ctx.stats_.cost = ctx.clock_.units();
      }
      out.cost = ctx.clock_.units();
      return out;
    }

    // Quarantines map task `t` under allow_degraded: its output is dropped
    // (the chunk's records vanish from every downstream partition) and the
    // loss is recorded against the chunk size.
    void QuarantineMap(int t) {
      job_.ResetMapContext(&map_ctx_[Slot(t)]);
      const auto total =
          static_cast<int64_t>(ChunkBegin(t + 1) - ChunkBegin(t));
      Degrade(TaskPhase::kMap, t, TaskOutcomeKind::kQuarantined, total, 0,
              SpanKind::kTaskQuarantine, 0.0, 0.0);
    }

    // Records task `t`'s degraded outcome in the completeness report, with
    // the supervisor event that marks it.
    void Degrade(TaskPhase phase, int t, TaskOutcomeKind kind, int64_t total,
                 int64_t covered, SpanKind span, double cost,
                 double deadline) {
      const double fraction =
          total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                    : 0.0;
      TaskReport& report = reports_[Phase(phase)][Slot(t)];
      report = {phase, t, kind, total, covered, fraction};
      events_.push_back({span, phase, t, -1, cost, deadline});
    }

    // ---- 3. The map/reduce barrier ----
    std::string MapBarrier() {
      // A winning map attempt that could not honour the spill contract
      // fails the job with the labelled I/O error — silently exceeding the
      // memory budget is not an option (the buffered data stayed complete
      // in memory, but the configuration needs fixing, not retrying).
      // Degraded mode quarantines the task instead.
      for (int t = 0; t < num_map_; ++t) {
        const std::string& error = map_ctx_[Slot(t)].output_.spill_error();
        if (error.empty()) continue;
        if (!control_.allow_degraded) {
          return "map task " + std::to_string(t) + ": " + error;
        }
        QuarantineMap(t);
      }
      if (job_.shuffle_.spill_config().enabled && plan_->HasDiskFaults()) {
        const std::string error = ValidateSpillRuns();
        if (!error.empty()) return error;
      }
      CountShuffle();
      CheckFetches();
      // The supervisor's coarse wall-clock guard: a job already past its
      // wall deadline when the map barrier closes does not start reduce
      // work. Degraded mode cancels every reduce task (Schedule); otherwise
      // the job fails with a labelled error.
      if (control_.wall_deadline_seconds > 0.0 &&
          wall_watch_.ElapsedSeconds() > control_.wall_deadline_seconds) {
        if (!control_.allow_degraded) {
          return "job wall-clock deadline exceeded at the map/reduce barrier";
        }
        wall_expired_ = true;
      }
      return {};
    }

    // CRC validation of the spill runs the merges will trust. Torn writes
    // and flipped bytes are silent at write time; the barrier re-reads every
    // winning run against its CRC before any reduce-side merge trusts the
    // bytes. A task with an invalid run re-runs in place — a fresh
    // generation with fresh fault decisions, mirroring the shuffle-
    // corruption map re-run — and each re-run stalls the reduce tasks it
    // feeds for the map's run time. The attempt budget caps the rounds;
    // exhausting it fails the job with a labelled error. Also exports the
    // surviving executions' storage-fault tallies under "mr.disk.*" (failed
    // attempts' are discarded with the rest of their artifacts).
    std::string ValidateSpillRuns() {
      std::string error;
      int64_t reruns = 0;
      for (int t = 0; t < num_map_ && error.empty(); ++t) {
        MapContext& ctx = map_ctx_[Slot(t)];
        for (int round = 1;; ++round) {
          int64_t bad = 0;
          for (const SpillRun& run : ctx.output_.spill_runs()) {
            if (ValidateSpillRun(run)) continue;
            ++bad;
            corrupt_runs_.push_back({t, run.records, run.bytes});
          }
          if (bad == 0) break;
          if (round >= plan_->max_attempts()) {
            error = "map task " + std::to_string(t) +
                    ": spill runs failed CRC validation after " +
                    std::to_string(round) + " generations";
          } else {
            ++reruns;
            Stall(-1, t);
            disk_totals_[Slot(t)] += ctx.output_.disk_stats();
            ResetMap(t);
            TaskAttemptRunner::Attempt rerun;
            rerun.task = t;
            MapBody(rerun);
            if (ctx.output_.spill_error().empty()) continue;
            error = "map task " + std::to_string(t) + ": " +
                    ctx.output_.spill_error();
          }
          if (control_.allow_degraded) {
            QuarantineMap(t);
            error.clear();
          }
          break;
        }
      }
      typename JobShuffle::MapOutput::DiskStats sum;
      for (int t = 0; t < num_map_; ++t) {
        disk_totals_[Slot(t)] += map_ctx_[Slot(t)].output_.disk_stats();
        sum += disk_totals_[Slot(t)];
      }
      Tally("mr.disk.write_errors", sum.write_errors);
      Tally("mr.disk.retries", sum.retries);
      if (sum.backoff_seconds > 0.0) {
        result_.counters.Increment(
            "mr.disk.retry_backoff_seconds",
            static_cast<int64_t>(std::llround(sum.backoff_seconds)));
      }
      Tally("mr.disk.enospc", sum.enospc);
      Tally("mr.disk.torn_writes", sum.torn_writes);
      Tally("mr.disk.dir_failovers", sum.dir_failovers);
      Tally("mr.disk.corrupt_runs", static_cast<int64_t>(corrupt_runs_.size()));
      Tally("mr.disk.map_reruns", reruns);
      return error;
    }

    // Charges a re-run of map task `map`'s winning attempt (at nominal
    // speed) as a fetch stall of reduce task `reduce` (-1: of every one).
    void Stall(int reduce, int map) {
      const double seconds =
          runners_[0]->attempt_costs()[Slot(map)].back() *
          cluster_.seconds_per_cost_unit;
      for (int r = 0; r < num_reduce_; ++r) {
        if (reduce < 0 || r == reduce) fetch_stalls_[Slot(r)] += seconds;
      }
    }

    // Post-combine shuffle volume of the winning map attempts, and the
    // sorted spill runs that will feed the reduce-side merges (reconciled
    // against the kSpillWrite trace spans, one per run).
    void CountShuffle() {
      typename JobShuffle::Volume volume;
      int64_t runs = 0;
      int64_t records = 0;
      int64_t bytes = 0;
      for (const MapContext& ctx : map_ctx_) {
        const auto task_volume = job_.shuffle_.MeasureVolume(ctx.output_);
        volume.records += task_volume.records;
        volume.bytes += task_volume.bytes;
        for (const SpillRun& run : ctx.output_.spill_runs()) {
          ++runs;
          records += run.records;
          bytes += run.bytes;
        }
      }
      result_.counters.Increment("mr.shuffle.records", volume.records);
      result_.counters.Increment("mr.shuffle.bytes", volume.bytes);
      if (runs > 0) {
        result_.counters.Increment("mr.spill.runs", runs);
        result_.counters.Increment("mr.spill.records", records);
        result_.counters.Increment("mr.spill.bytes", bytes);
      }
    }

    // Checksummed shuffle: every (map, reduce) partition ships with its
    // CRC32; the consuming reduce task recomputes it on fetch. A corrupt
    // fetch is re-fetched (free — the shuffle is in-memory), and after
    // max_fetch_retries consecutive corrupt copies the producing map
    // attempt is re-run, stalling the reduce task for the map's winning run
    // time.
    void CheckFetches() {
      if (!plan_->enabled() || cluster_.fault.shuffle_corrupt_prob <= 0.0) {
        return;
      }
      int64_t errors = 0;
      int64_t reruns = 0;
      const int cap = cluster_.fault.max_fetch_retries + 1;
      for (int r = 0; r < num_reduce_; ++r) {
        for (int m = 0; m < num_map_; ++m) {
          const int corrupt = plan_->CorruptFetches(m, r, cap);
          if (corrupt == 0) continue;
          // Detection itself: the shipped checksum against one recomputed
          // from the delivered partition. The corruption model flips the
          // delivered copy's checksum, so a mismatch is certain — but the
          // comparison below is the real gate, not the plan.
          const uint32_t shipped = job_.shuffle_.PartitionChecksum(
              map_ctx_[Slot(m)].output_, r);
          const uint32_t delivered = shipped ^ 0xffffffffu;
          if (delivered == shipped) continue;  // fetch verified clean
          errors += corrupt;  // one re-fetch per detected error
          for (int e = 0; e < corrupt; ++e) corrupt_fetches_.push_back({r, m});
          if (corrupt > cluster_.fault.max_fetch_retries) {
            ++reruns;
            Stall(r, m);
          }
        }
      }
      if (errors > 0) {
        result_.counters.Increment("mr.shuffle.checksum_errors", errors);
        result_.counters.Increment("mr.shuffle.refetches", errors);
      }
      Tally("mr.shuffle.map_reruns", reruns);
    }

    // ---- 4. Reduce ----
    void RunReduce() {
      reduce_phase_started_ = true;
      runners_[1]->RunAll(
          wall_ ? wall_->pool() : nullptr, wall_.get(),
          [this](int t) { BeginReduceAttempt(t); },
          [this](const TaskAttemptRunner::Attempt& a) {
            RunReduceAttempt(a);
            // Incremental cost: with a restored checkpoint, only the work
            // past the boundary counts as this attempt's duration.
            return TaskAttemptRunner::BodyOutcome{
                reduce_ctx_[Slot(a.task)].clock_.units() -
                    attempt_base_[Slot(a.task)],
                false};
          },
          [this](TaskPhase phase, int t, int attempt) {
            // The retry repeats everything past the last checkpoint (from
            // scratch without one) — the measurable price of the failure.
            const TaskCheckpoint* checkpoint = Latest(t);
            replayed_[Slot(t)] += std::max<int64_t>(
                0, reduce_ctx_[Slot(t)].stats_.records_in -
                       (checkpoint != nullptr ? checkpoint->records_in : 0));
            if (job_.task_abort_) job_.task_abort_(phase, t, attempt);
          });
      if (wall_) wall_->EndPhase(TaskPhase::kReduce);

      runners_[1]->MergeFaultCounters(&result_.counters);
      const int doomed = runners_[1]->FirstDoomed();
      if (doomed >= 0 && !control_.allow_degraded) {
        result_.failed = true;
        result_.error = runners_[1]->DoomedError(doomed);
        return;
      }
      // Degraded mode: quarantine, restoring each doomed task's
      // checkpointed prefix, and keep the job alive.
      for (const int t : runners_[1]->DoomedTasks()) QuarantineReduce(t);
      // A gather that could not read its spill runs back (unreadable or
      // corrupt files) fails the job with the labelled error, like any
      // other data-plane fault — or, degraded, quarantines the task.
      int64_t merge_passes = 0;
      for (int t = 0; t < num_reduce_; ++t) {
        const auto& gather = gather_stats_[Slot(t)];
        if (gather.runs_merged > 0) ++merge_passes;
        if (gather.error.empty()) continue;
        if (!control_.allow_degraded) {
          result_.failed = true;
          result_.error = "reduce task " + std::to_string(t) + ": " +
                          gather.error;
          return;
        }
        if (!Affected(TaskPhase::kReduce, t)) QuarantineReduce(t);
      }
      // Reduce tasks whose winning gather ran the k-way external merge,
      // reconciled against the kSpillMerge trace spans (one per task).
      Tally("mr.spill.merge_passes", merge_passes);
    }

    // Reset hook of a reduce attempt: resume from the task's latest
    // checkpoint, or start fresh without one.
    void BeginReduceAttempt(int t) {
      const TaskCheckpoint* checkpoint = Latest(t);
      // A snapshot still marked preloaded came off disk from an earlier
      // process — this restore is a cross-process restart, tallied
      // separately under "mr.restart.restored_tasks".
      if (checkpoint != nullptr && store()->Preloaded(t)) {
        restart_cost_[Slot(t)] = checkpoint->cost;
      }
      attempt_base_[Slot(t)] = RestoreTask(t, checkpoint);
      attempt_skip_[Slot(t)] = checkpoint != nullptr ? checkpoint->groups : 0;
      attempt_bases_[Slot(t)].push_back(attempt_base_[Slot(t)]);
      if (checkpoint == nullptr) return;
      store()->NoteRestore(t);
      if (marks_ != nullptr) {
        marks_->MarkCheckpoint(SpanKind::kCheckpointRestore, t,
                               checkpoint->cost);
      }
    }

    // Rewinds reduce task `t` — context and driver state — to `checkpoint`,
    // or resets both to freshly-constructed when it is null. The context's
    // clock is re-charged to the boundary cost, counters and stats
    // replaced, outputs truncated to the boundary's length (everything
    // before the boundary was already emitted identically — determinism
    // makes the prefix byte-equal). Returns the restored cost.
    double RestoreTask(int t, const TaskCheckpoint* checkpoint) {
      ReduceContext& ctx = reduce_ctx_[Slot(t)];
      ctx.clock_.Reset();
      ctx.stats_ = TaskStats();
      if (checkpoint == nullptr) {
        ctx.counters_ = Counters();
        ctx.outputs_.clear();
      } else {
        ctx.clock_.Charge(checkpoint->cost);
        ctx.counters_ = checkpoint->counters;
        ctx.stats_.records_in = checkpoint->records_in;
        ctx.stats_.pairs_out = checkpoint->pairs_out;
        ctx.stats_.cost = checkpoint->cost;
        if (ctx.outputs_.size() < checkpoint->outputs &&
            !checkpoint->encoded_outputs.empty()) {
          // A snapshot loaded from disk by a restarted process: the live
          // context never held the outputs, so decode the journal's copy.
          ctx.outputs_.clear();
          const std::string_view view(checkpoint->encoded_outputs);
          size_t offset = 0;
          while (offset < view.size()) {
            K key;
            V value;
            if (!KvCodec<K>::Decode(view, &offset, &key) ||
                !KvCodec<V>::Decode(view, &offset, &value)) {
              break;
            }
            ctx.outputs_.emplace_back(std::move(key), std::move(value));
          }
        }
        if (ctx.outputs_.size() > checkpoint->outputs) {
          ctx.outputs_.erase(
              ctx.outputs_.begin() +
                  static_cast<std::ptrdiff_t>(checkpoint->outputs),
              ctx.outputs_.end());
        }
      }
      if (checkpointing() && job_.checkpoint_restore_) {
        job_.checkpoint_restore_(
            t, checkpoint != nullptr ? checkpoint->driver_state.get()
                                     : nullptr);
      }
      return checkpoint != nullptr ? checkpoint->cost : 0.0;
    }

    // Runs one reduce-task attempt: gather/merge via the shuffle (decoding
    // never consumes the map-side blocks or spill files, so a failing or
    // hanging attempt leaves everything intact for the retry; a cut attempt
    // stops at the group boundary past its cutoff fraction of the input
    // pairs), then one reduce call per group; the winning attempt runs
    // cleanup. A resumed attempt skips the groups its restored checkpoint
    // already covers. The task's gather stats receive the attempt's merge
    // accounting (the winner's values are the ones the job reports).
    void RunReduceAttempt(const TaskAttemptRunner::Attempt& attempt) {
      const int t = attempt.task;
      ReduceContext* ctx = &reduce_ctx_[Slot(t)];
      const bool cut = attempt.fails || attempt.hangs;
      typename JobShuffle::Gathered gathered =
          job_.shuffle_.GatherSorted(map_outputs_, t, &gather_stats_[Slot(t)]);
      const size_t limit =
          cut ? static_cast<size_t>(
                    static_cast<double>(gathered.records) *
                    (attempt.fails ? attempt.fail_point : attempt.hang_point))
              : gathered.records + 1;
      if (job_.reduce_setup_) job_.reduce_setup_(t);
      const int64_t skip = attempt_skip_[Slot(t)];
      int64_t group_index = 0;
      JobShuffle::ForEachGroup(
          &gathered, limit, [&](const K& key, std::vector<V>* values) {
            const int64_t group = group_index++;
            if (group < skip) return;
            ctx->stats_.records_in += static_cast<int64_t>(values->size());
            reduce_fn_(key, values, ctx);
            MaybeCheckpoint(ctx, group + 1);
          });
      if (!cut) {
        if (job_.reduce_cleanup_) job_.reduce_cleanup_(ctx);
        ctx->stats_.cost = ctx->clock_.units();
      }
    }

    // Snapshots the task after a group if its clock crossed into a new
    // alpha-window (the progressive emission boundary) since the last saved
    // snapshot. The store ignores non-advancing saves, so a resumed attempt
    // re-crossing an old boundary is a no-op.
    void MaybeCheckpoint(ReduceContext* ctx, int64_t groups_done) {
      if (!checkpointing()) return;
      const double alpha = job_.checkpoint_alpha_;
      const int task = ctx->task_id_;
      const double units = ctx->clock_.units();
      const TaskCheckpoint* latest = store()->Latest(task);
      const double last = latest != nullptr ? latest->cost : 0.0;
      if (units <= last ||
          std::floor(units / alpha) <= std::floor(last / alpha)) {
        return;
      }
      TaskCheckpoint checkpoint;
      checkpoint.cost = units;
      checkpoint.groups = groups_done;
      checkpoint.records_in = ctx->stats_.records_in;
      checkpoint.pairs_out = ctx->stats_.pairs_out;
      checkpoint.outputs = ctx->outputs_.size();
      checkpoint.counters = ctx->counters_;
      if (store()->persistent()) {
        // A restarted process can't reuse this context's live outputs, so
        // the journal frame carries the outputs emitted since the last
        // snapshot.
        for (size_t i = latest != nullptr ? latest->outputs : 0;
             i < ctx->outputs_.size(); ++i) {
          KvCodec<K>::Encode(ctx->outputs_[i].first,
                             &checkpoint.encoded_outputs);
          KvCodec<V>::Encode(ctx->outputs_[i].second,
                             &checkpoint.encoded_outputs);
        }
      }
      if (job_.checkpoint_save_) {
        checkpoint.driver_state = job_.checkpoint_save_(task);
      }
      store()->Save(task, std::move(checkpoint));
      if (marks_ != nullptr) {
        marks_->MarkCheckpoint(SpanKind::kCheckpointSave, task, units);
      }
    }

    // Quarantines reduce task `t` under allow_degraded: the delivered
    // output becomes the latest checkpointed prefix (nothing without one),
    // driver state is rewound to match, and the completeness report records
    // the loss against the task's full gathered input.
    void QuarantineReduce(int t) {
      const int64_t total = GatheredTotal(t);
      const TaskCheckpoint* checkpoint = Latest(t);
      const double boundary = RestoreTask(t, checkpoint);
      const int64_t covered =
          checkpoint != nullptr ? checkpoint->records_in : 0;
      Degrade(TaskPhase::kReduce, t, TaskOutcomeKind::kQuarantined,
              std::max(total, covered), covered, SpanKind::kTaskQuarantine,
              boundary, 0.0);
    }

    // Full gathered input of reduce task `t` — the denominator a degraded
    // task's coverage is reported against. Re-gathers (cheap, in-memory or
    // a re-read of the spill runs); a failing gather yields its partial
    // size, floored at the covered count by the callers.
    int64_t GatheredTotal(int t) {
      typename JobShuffle::GatherStats probe;
      return static_cast<int64_t>(
          job_.shuffle_.GatherSorted(map_outputs_, t, &probe).records);
    }

    // Checkpoint, replay and restart tallies of the reduce phase.
    void CountRecovery() {
      int64_t replayed = 0;
      for (const int64_t r : replayed_) replayed += r;
      Tally("mr.recovery.replayed_pairs", replayed);
      if (!checkpointing()) return;
      Tally("mr.checkpoint.saved", store()->saved());
      Tally("mr.checkpoint.restored", store()->restored());
      Tally("mr.restart.restored_tasks",
            std::count_if(restart_cost_.begin(), restart_cost_.end(),
                          [](double cost) { return cost >= 0.0; }));
      Tally("mr.restart.corrupt_checkpoints", store()->corrupt_checkpoints());
    }

    // ---- 5. The simulated timing model ----
    // Failed attempts, retries, machine faults. Returns false when the
    // machine fault domain left a task unplaceable and failed the job.
    bool Schedule() {
      const int lost_map = ScheduleMap();
      const double map_end = result_.timing.map_end;
      if (lost_map >= 0 && !result_.failed) {
        FailOnLostCluster(TaskPhase::kMap, lost_map);
        result_.timing.end = map_end;
        return false;
      }
      if (wall_expired_) {
        // Past the wall deadline no reduce attempt ever started: the job
        // finalizes at the map barrier and every reduce task is cancelled.
        result_.timing.reduce_start.assign(Slots(num_reduce_), map_end);
        result_.timing.end = map_end;
        for (int t = 0; t < num_reduce_; ++t) {
          Degrade(TaskPhase::kReduce, t, TaskOutcomeKind::kCancelled,
                  GatheredTotal(t), 0, SpanKind::kDeadlineCancel, 0.0,
                  map_end);
        }
        return true;
      }
      AttemptScheduleOptions options =
          PhaseOptions(TaskPhase::kReduce, map_end);
      options.attempt_bases = attempt_bases_;
      options.fetch_stall_seconds = std::move(fetch_stalls_);
      // Degraded-mode placement: machine loss that leaves reduce tasks
      // unplaceable quarantines them (Supervise) instead of failing the job.
      options.tolerate_unplaced = control_.allow_degraded;
      if (checkpointing()) {
        for (int t = 0; t < num_reduce_; ++t) {
          options.recovery_points.push_back(store()->RecoveryPoints(t));
        }
      }
      AttemptScheduleOutcome schedule = ScheduleTaskAttemptsOnCluster(
          runners_[1]->attempt_costs(), options);
      MergeRecoveryCounters(schedule, &result_.counters);
      result_.timing.reduce_attempts = std::move(schedule.attempts);
      result_.timing.reduce_start = std::move(schedule.winning_starts);
      result_.timing.end = schedule.end_time;
      unplaced_ = std::move(schedule.unplaced_tasks);
      if (schedule.failed && !result_.failed) {
        FailOnLostCluster(TaskPhase::kReduce, schedule.failed_task);
        return false;
      }
      return true;
    }

    // Schedules the executed map attempts on the simulated cluster; returns
    // the task the machine fault domain left unplaceable, or -1.
    int ScheduleMap() {
      AttemptScheduleOutcome schedule = ScheduleTaskAttemptsOnCluster(
          runners_[0]->attempt_costs(),
          PhaseOptions(TaskPhase::kMap, submit_time_));
      MergeRecoveryCounters(schedule, &result_.counters);
      result_.timing.map_attempts = std::move(schedule.attempts);
      result_.timing.map_end = schedule.end_time;
      return schedule.failed ? schedule.failed_task : -1;
    }

    // Shared scheduler inputs of both phases: the machine fault domain, the
    // retry-hygiene knobs, and the phase's hung attempts with the heartbeat
    // timeout that kills them.
    AttemptScheduleOptions PhaseOptions(TaskPhase phase, double start) const {
      const bool map = phase == TaskPhase::kMap;
      AttemptScheduleOptions options;
      options.slot_speeds = speeds_[Phase(phase)];
      options.slots_per_machine = map ? cluster_.map_slots_per_machine
                                      : cluster_.reduce_slots_per_machine;
      options.start_time = start;
      options.seconds_per_cost_unit = cluster_.seconds_per_cost_unit;
      options.speculation = cluster_.speculation;
      options.machine_failures = machine_failures_;
      options.retry_backoff_seconds = cluster_.fault.retry_backoff_seconds;
      options.retry_backoff_factor = cluster_.fault.retry_backoff_factor;
      options.blacklist_failures = cluster_.fault.blacklist_failures;
      options.hang_attempts = runners_[Phase(phase)]->attempt_hangs();
      options.task_timeout_seconds = cluster_.fault.task_timeout_seconds;
      options.trace = scheduler_trace_;
      options.trace_phase = phase;
      options.trace_pid =
          cluster_.trace != nullptr ? cluster_.trace->current_pid() : 0;
      return options;
    }

    // Clean job failure when a task ran out of machines to run on: keeps the
    // "mr." bookkeeping but scrubs user-visible data, which Result documents
    // as unspecified on failure.
    void FailOnLostCluster(TaskPhase phase, int task) {
      result_.failed = true;
      result_.error = std::string(phase == TaskPhase::kMap ? "map" : "reduce") +
                      " task " + std::to_string(task) +
                      " lost: no healthy machines remain";
      result_.outputs.clear();
      result_.map_stats.clear();
      result_.reduce_stats.clear();
      Counters scrubbed;
      for (const auto& [name, value] : result_.counters.values()) {
        if (name.rfind("mr.", 0) == 0) scrubbed.Increment(name, value);
      }
      result_.counters = std::move(scrubbed);
    }

    // ---- 6. Supervision: deadline enforcement, best-effort finalization ----
    // The simulated deadline is enforced post-hoc on the results clock —
    // identical under both backends, since the threaded backend computes
    // the same simulated timeline. Without allow_degraded an overrun is a
    // clean labelled failure (returns false); with it, each late reduce
    // task is cut back to its last checkpoint at or below the progress the
    // deadline allowed (cancelled outright without one) and the job
    // finalizes at the deadline.
    bool Supervise() {
      if (result_.failed) return true;
      const double deadline = control_.deadline_seconds;
      if (deadline > 0.0 && result_.timing.end > deadline &&
          !control_.allow_degraded) {
        result_.failed = true;
        result_.error = "job deadline exceeded: finished at " +
                        std::to_string(result_.timing.end) + "s > deadline " +
                        std::to_string(deadline) + "s";
        return false;
      }
      if (!supervisor_->active()) return true;
      for (const int t : unplaced_) {
        if (!Affected(TaskPhase::kReduce, t)) QuarantineReduce(t);
      }
      if (deadline <= 0.0) return true;
      for (const TaskAttemptTiming& a : result_.timing.reduce_attempts) {
        if (!a.won || a.end <= deadline ||
            Affected(TaskPhase::kReduce, a.task)) {
          continue;
        }
        // Progress the deadline allowed: the winning attempt advances from
        // its restored base at its slot's speed. (A mid-attempt machine-kill
        // resume point is above the base — the cut then restores an earlier
        // checkpoint: conservative, still deterministic.)
        const int t = a.task;
        const std::vector<double>& bases = attempt_bases_[Slot(t)];
        const std::vector<double>& speeds = speeds_[1];
        const double speed = a.slot >= 0 && Slot(a.slot) < speeds.size()
                                 ? speeds[Slot(a.slot)]
                                 : 1.0;
        const double cut_cost =
            (bases.empty() ? 0.0 : bases.back()) +
            std::max(0.0, deadline - result_.timing.reduce_start[Slot(t)]) *
                speed / cluster_.seconds_per_cost_unit;
        const int64_t total = reduce_ctx_[Slot(t)].stats_.records_in;
        const TaskCheckpoint* checkpoint =
            checkpointing() ? store()->LatestAtOrBelow(t, cut_cost) : nullptr;
        const double boundary = RestoreTask(t, checkpoint);
        const bool cut = checkpoint != nullptr;
        Degrade(TaskPhase::kReduce, t,
                cut ? TaskOutcomeKind::kCut : TaskOutcomeKind::kCancelled,
                total, cut ? checkpoint->records_in : 0,
                SpanKind::kDeadlineCancel, boundary, deadline);
      }
      // The job finalizes at the deadline: everything past it was cancelled.
      result_.timing.end = std::min(result_.timing.end, deadline);
      return true;
    }

    // ---- 7. Collect stats, counters & outputs; the completeness report ----
    // (After the timing model and the supervisor's deadline enforcement: a
    // cut task's context must hold exactly its restored prefix when read.)
    void Collect() {
      if (result_.failed) return;
      for (MapContext& ctx : map_ctx_) {
        result_.map_stats.push_back(ctx.stats_);
        result_.counters.MergeFrom(ctx.counters_);
      }
      for (ReduceContext& ctx : reduce_ctx_) {
        result_.reduce_stats.push_back(ctx.stats_);
        result_.counters.MergeFrom(ctx.counters_);
        for (auto& kv : ctx.outputs_) result_.outputs.push_back(std::move(kv));
      }
    }

    // "mr.supervisor.*" is derived from the supervisor events, the same
    // list StampTrace marks, so the counters reconcile 1:1 against the
    // supervisor span kinds by construction.
    void Report() {
      if (result_.failed || !supervisor_->active()) return;
      CompletenessReport& completeness = result_.completeness;
      for (int phase = 0; phase < 2; ++phase) {
        for (const TaskReport& report : reports_[phase]) {
          if (report.kind != TaskOutcomeKind::kComplete) {
            completeness.tasks.push_back(report);
            completeness.records_total += report.records_total;
            completeness.records_covered += report.records_covered;
          }
        }
      }
      for (int t = 0; t < num_reduce_; ++t) {
        if (Affected(TaskPhase::kReduce, t)) continue;
        const int64_t records = result_.reduce_stats[Slot(t)].records_in;
        completeness.records_total += records;
        completeness.records_covered += records;
      }
      completeness.covered_fraction =
          completeness.records_total > 0
              ? static_cast<double>(completeness.records_covered) /
                    static_cast<double>(completeness.records_total)
              : 1.0;
      completeness.degraded = !completeness.tasks.empty();
      for (const SupervisorEvent& event : events_) {
        completeness.deadline_cancels +=
            event.kind == SpanKind::kDeadlineCancel;
        completeness.quarantined_tasks +=
            event.kind == SpanKind::kTaskQuarantine;
        completeness.breaker_trips += event.kind == SpanKind::kBreakerTrip;
      }
      completeness.retries_denied = supervisor_->retries_denied();
      const Counters& c = result_.counters;
      Tally("mr.supervisor.deadline_cancels", completeness.deadline_cancels);
      Tally("mr.supervisor.quarantined_tasks", completeness.quarantined_tasks);
      Tally("mr.supervisor.breaker_trips", completeness.breaker_trips);
      Tally("mr.supervisor.retries_denied", completeness.retries_denied);
      Tally("mr.supervisor.retry_spend.task", c.Get("mr.failed_attempts"));
      Tally("mr.supervisor.retry_spend.machine",
            c.Get("mr.faults.machine_lost"));
      Tally("mr.supervisor.retry_spend.disk",
            c.Get("mr.disk.retries") + c.Get("mr.disk.map_reruns"));
      Tally("mr.supervisor.retry_spend.data",
            c.Get("mr.shuffle.refetches") + c.Get("mr.shuffle.map_reruns"));
    }

    // ---- 8. Finish ----
    // A phase's failure: the one early exit. The executed map attempts are
    // still scheduled (a failure at submission has none), so a failed job
    // reports how far its timeline got.
    Result Abort(std::string error) {
      result_.failed = true;
      result_.error = std::move(error);
      if (runners_[0]) {
        ScheduleMap();
      } else {
        result_.timing.map_end = submit_time_;
      }
      result_.timing.end = result_.timing.map_end;
      return Finish();
    }

    // Stamps the trace and the measured wall clock — on every return path,
    // so even failed jobs report how long they really took. reduce_seconds
    // is derived (total minus the map barrier's stamp) only once the reduce
    // phase has actually started — on earlier exits it stays 0 rather than
    // absorbing elapsed time from a phase that never ran.
    Result Finish() {
      StampTrace();
      JobWallTiming& wall = result_.timing.wall;
      wall.total_seconds = wall_watch_.ElapsedSeconds();
      if (reduce_phase_started_) {
        wall.reduce_seconds =
            std::max(0.0, wall.total_seconds - wall.map_seconds);
      }
      // A finished job must not be resumable: drop its persisted snapshots.
      if (!result_.failed && checkpointing() && store()->persistent()) {
        store()->CleanupPersisted();
      }
      return std::move(result_);
    }

    // The data-plane marks of both backends, from the trace clock's
    // anchors: instants for checksum errors (at the map barrier, when
    // fetches happen) and quarantined records (when the task's winning
    // attempt first skips the record); zero-length spans for spill-run
    // writes and retried writes (at the winning map attempt's end), corrupt
    // runs (at the barrier, where CRC validation reads them back), shuffle
    // deliveries, spill merges and restart restores (at the winning reduce
    // attempt's start), each reconciled 1:1 with its "mr.*" counter; and
    // the supervisor's spans — a breaker trips at submission, a quarantine
    // marks its task's winning end (its phase's end without a winner), a
    // deadline cancel spans the cut to the work it threw away.
    void StampTrace() {
      TraceRecorder* trace = cluster_.trace;
      if (trace == nullptr) return;
      const int pid = trace->current_pid();
      const Anchors anchors = ClockAnchors(pid);
      const std::vector<Winner>& maps = anchors.winners[0];
      const std::vector<Winner>& reduces = anchors.winners[1];
      const double barrier = anchors.phase_end[0];
      const auto mark = [pid](SpanKind kind, TaskPhase phase, int task,
                              const Winner& winner, double time) {
        TraceSpan span;
        span.kind = kind;
        span.phase = phase;
        span.pid = pid;
        span.task = task;
        span.attempt = winner.attempt;
        span.machine = winner.machine;
        span.slot = winner.slot;
        span.start = time;
        span.end = time;
        return span;
      };
      const bool failed = result_.failed;
      for (int t = 0; t < num_map_ && !failed; ++t) {
        const Winner& w = maps[Slot(t)];
        if (!w.won) continue;
        for (const SpillRun& run : map_ctx_[Slot(t)].output_.spill_runs()) {
          TraceSpan span =
              mark(SpanKind::kSpillWrite, TaskPhase::kMap, t, w, w.end);
          span.records_in = run.records;
          span.bytes = run.bytes;
          trace->RecordSpan(span);
        }
        for (int64_t i = 0; i < disk_totals_[Slot(t)].retries; ++i) {
          trace->RecordSpan(
              mark(SpanKind::kSpillRetry, TaskPhase::kMap, t, w, w.end));
        }
      }
      for (size_t i = 0; i < corrupt_runs_.size() && !failed; ++i) {
        const CorruptRun& run = corrupt_runs_[i];
        TraceSpan span = mark(SpanKind::kRunCorrupt, TaskPhase::kMap, run.task,
                              maps[Slot(run.task)], barrier);
        span.records_in = run.records;
        span.bytes = run.bytes;
        trace->RecordSpan(span);
      }
      for (const auto& [r, m] : corrupt_fetches_) {
        TraceInstant instant;
        instant.kind = InstantKind::kShuffleCorruption;
        instant.phase = TaskPhase::kReduce;
        instant.pid = pid;
        instant.time = barrier;
        instant.task = r;
        instant.peer_task = m;
        trace->RecordInstant(instant);
      }
      for (const QuarantinedRecord& q : result_.quarantined) {
        TraceInstant instant;
        instant.kind = InstantKind::kRecordQuarantined;
        instant.phase = TaskPhase::kMap;
        instant.pid = pid;
        const Winner& w = maps[Slot(q.task)];
        instant.time = w.won ? w.start : barrier;
        instant.task = q.task;
        instant.record = q.record;
        trace->RecordInstant(instant);
      }
      if (failed) return;
      for (const SupervisorEvent& event : events_) {
        const int phase = Phase(event.phase);
        Winner w;
        if (event.task >= 0) w = anchors.winners[phase][Slot(event.task)];
        double end = w.won ? w.end : anchors.phase_end[phase];
        double start = end;
        if (event.kind == SpanKind::kBreakerTrip) {
          start = end = anchors.submit;
        } else if (event.kind == SpanKind::kDeadlineCancel &&
                   anchors.deadline_on_clock) {
          start = event.deadline;
        }
        TraceSpan span =
            mark(event.kind, event.phase, event.task, Winner(), start);
        span.end = std::max(start, end);
        span.domain = event.domain;
        span.cost_units = event.cost;
        trace->RecordSpan(span);
      }
      for (int t = 0; t < num_reduce_; ++t) {
        const Winner& w = reduces[Slot(t)];
        if (!w.won) continue;
        TraceSpan shuffle =
            mark(SpanKind::kShuffle, TaskPhase::kReduce, t, w, w.start);
        shuffle.records_in = result_.reduce_stats[Slot(t)].records_in;
        trace->RecordSpan(shuffle);
        const auto& gather = gather_stats_[Slot(t)];
        if (gather.runs_merged > 0) {
          TraceSpan merge =
              mark(SpanKind::kSpillMerge, TaskPhase::kReduce, t, w, w.start);
          merge.records_in = gather.spilled_records;
          merge.bytes = gather.spilled_bytes;
          trace->RecordSpan(merge);
        }
        if (restart_cost_[Slot(t)] >= 0.0) {
          TraceSpan restore = mark(SpanKind::kRestartRestore,
                                   TaskPhase::kReduce, t, w, w.start);
          restore.cost_units = restart_cost_[Slot(t)];
          trace->RecordSpan(restore);
        }
      }
    }

    // The trace clock's anchors: the simulated timing model's winning
    // attempts, or the executor's measured ones under the threaded backend
    // — whose attempt spans and checkpoint marks are stamped here too (the
    // timing model stamps the simulated ones as it schedules).
    Anchors ClockAnchors(int pid) const {
      Anchors anchors;
      if (wall_ != nullptr) {
        wall_->StampAttemptSpans(cluster_.trace, pid);
        for (const TaskPhase phase : {TaskPhase::kMap, TaskPhase::kReduce}) {
          std::vector<Winner>& winners = anchors.winners[Phase(phase)];
          winners.resize(
              Slots(phase == TaskPhase::kMap ? num_map_ : num_reduce_));
          for (size_t t = 0; t < winners.size(); ++t) {
            WallAttempt a;
            if (wall_->WinningAttempt(phase, static_cast<int>(t), &a)) {
              winners[t] = {true, a.attempt, a.worker, -1, a.start, a.end};
            }
          }
          anchors.phase_end[Phase(phase)] = wall_->phase_end(phase);
        }
        return anchors;
      }
      const auto fill = [](const std::vector<TaskAttemptTiming>& attempts,
                           int tasks, int slots_per_machine,
                           std::vector<Winner>* winners) {
        winners->resize(Slots(tasks));
        for (const TaskAttemptTiming& a : attempts) {
          if (!a.won) continue;
          (*winners)[Slot(a.task)] = {true, a.attempt, a.slot,
                                      a.slot / slots_per_machine, a.start,
                                      a.end};
        }
      };
      fill(result_.timing.map_attempts, num_map_,
           cluster_.map_slots_per_machine, &anchors.winners[0]);
      fill(result_.timing.reduce_attempts, num_reduce_,
           cluster_.reduce_slots_per_machine, &anchors.winners[1]);
      anchors.phase_end[0] = result_.timing.map_end;
      anchors.phase_end[1] = result_.timing.end;
      anchors.submit = submit_time_;
      anchors.deadline_on_clock = true;
      return anchors;
    }

    MapReduceJob& job_;
    const std::vector<Record>& input_;
    const MapFn& map_fn_;
    const ReduceFn& reduce_fn_;
    const ClusterConfig& cluster_;
    const JobControl& control_;
    const double submit_time_;
    const int num_map_;
    const int num_reduce_;

    Result result_;
    Stopwatch wall_watch_;
    bool reduce_phase_started_ = false;
    bool wall_expired_ = false;
    // Null under the simulated backend, whose attempt chains run serially
    // on the submitting thread: the worker pool plus the wall-clock record
    // of every attempt executed on it.
    std::unique_ptr<ThreadedExecutor> wall_;
    TraceRecorder* scheduler_trace_ = nullptr;
    ThreadedExecutor* marks_ = nullptr;  // records checkpoint marks, or null

    std::optional<FaultPlan> plan_;
    std::vector<MachineFault> machine_failures_;
    std::vector<double> speeds_[2];  // slot speeds, by phase
    std::optional<TaskAttemptRunner> runners_[2];
    std::optional<JobSupervisor> supervisor_;
    bool disk_breaker_ = false;
    std::vector<SupervisorEvent> events_;
    // Per-task completeness slots by phase, assembled into
    // Result::completeness once the timing model has run (deadline cuts are
    // post-hoc); kComplete marks an unaffected task.
    std::vector<TaskReport> reports_[2];

    std::vector<MapContext> map_ctx_;
    std::vector<ReduceContext> reduce_ctx_;
    std::vector<typename JobShuffle::MapOutput*> map_outputs_;

    // Map side. `map_generation_[t]` numbers every execution of map task t
    // (attempt retries and barrier re-runs alike) so each draws fresh
    // disk-fault decisions and unique run-file names; `disk_totals_[t]`
    // accumulates the surviving executions' disk stats; `corrupt_runs_`
    // records every spill run that failed CRC validation at the barrier.
    std::vector<int> map_generation_;
    std::vector<typename JobShuffle::MapOutput::DiskStats> disk_totals_;
    std::vector<CorruptRun> corrupt_runs_;
    bool poison_active_ = false;
    std::vector<int> poison_crashes_;
    std::vector<char> poison_quarantined_;
    std::vector<std::vector<int64_t>> quarantined_by_task_;

    // Reduce side. Shuffle-corruption recovery, filled at the barrier:
    // per-reduce-task fetch stalls and one (reduce, map) entry per detected
    // checksum error. The gather accounting of each task's most recent
    // attempt (so the winner's values survive). Per-attempt recovery
    // bookkeeping for the timing model: the absolute progress each executed
    // attempt started from, and the cursors of the running one (restored
    // base cost and group watermark; each task only touches its own slot).
    // The input values failed attempts forced retries to re-process, and
    // the restored cost of tasks resumed from a checkpoint persisted by an
    // earlier process (-1: none).
    std::vector<typename JobShuffle::GatherStats> gather_stats_;
    std::vector<double> fetch_stalls_;
    std::vector<std::pair<int, int>> corrupt_fetches_;
    std::vector<std::vector<double>> attempt_bases_;
    std::vector<double> attempt_base_;
    std::vector<int64_t> attempt_skip_;
    std::vector<int64_t> replayed_;
    std::vector<double> restart_cost_;
    std::vector<int> unplaced_;
  };

  void ResetMapContext(MapContext* ctx) {
    ctx->clock_.Reset();
    ctx->counters_ = Counters();
    ctx->stats_ = TaskStats();
    ctx->output_.Reset(shuffle_, ctx->task_id_);
  }

  bool checkpointing() const {
    return checkpoint_store_ != nullptr && checkpoint_alpha_ > 0.0;
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
