#ifndef PROGRES_MAPREDUCE_EXECUTOR_H_
#define PROGRES_MAPREDUCE_EXECUTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "mapreduce/fault.h"
#include "mapreduce/trace.h"

namespace progres {

class ThreadPool;

// Which engine executes a job's task attempts.
//
//  * kSimulated — attempts run serially on the submitting thread, in task
//    order. This is the deterministic reference: simulated time from the
//    attempt-aware scheduler is the only clock, and the paper's figures are
//    reproduced on it.
//  * kThreaded — attempts run concurrently on ClusterConfig::execution_threads
//    thread-pool workers and a monotonic wall clock is measured alongside.
//    The MR contract guarantees results are byte-identical to kSimulated:
//    all algorithmic cost is charged to per-task CostClocks, counters are
//    merged in task order after each phase barrier, and the shuffle
//    gather-sort order is fixed — so only the wall-clock measurements
//    (JobTiming::wall, wall-stamped trace spans) differ between runs.
//
// The simulated timeline remains the job's "results clock" under both
// backends: event timestamps, recall curves and schedule-derived "mr."
// counters come from ScheduleTaskAttemptsOnCluster either way.
enum class ExecutionBackend { kSimulated = 0, kThreaded = 1 };

// "simulated" / "threaded".
const char* ToString(ExecutionBackend backend);

// Parses a backend name as printed by ToString. Returns false (leaving
// `*out` untouched) on anything else.
bool ParseExecutionBackend(const std::string& name, ExecutionBackend* out);

// One task attempt as executed on the wall clock by the threaded backend.
// Unlike TaskAttemptTiming (simulated, deterministic), these are real
// measurements: start/end are seconds since the executor's epoch and vary
// run to run. `worker` is the pool worker lane the attempt ran on.
struct WallAttempt {
  TaskPhase phase = TaskPhase::kMap;
  int task = 0;
  int attempt = 0;
  int worker = 0;
  double start = 0.0;
  double end = 0.0;
  bool failed = false;     // injected failure, hang or poison crash
  bool timed_out = false;  // hung attempt (killed by heartbeat timeout)
};

// The threaded backend's engine: owns the worker pool and records the
// wall-clock timeline of every attempt executed on it. Thread-safe — the
// Begin/EndAttempt hooks are called concurrently from pool workers.
class ThreadedExecutor {
 public:
  explicit ThreadedExecutor(int threads);
  ~ThreadedExecutor();

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

  int threads() const;
  ThreadPool* pool() { return pool_.get(); }

  // Monotonic wall seconds since construction.
  double Now() const { return epoch_.ElapsedSeconds(); }

  // Attempt observer: BeginAttempt stamps the start time and worker lane
  // and returns a token; EndAttempt stamps the end time and outcome.
  size_t BeginAttempt(TaskPhase phase, int task, int attempt);
  void EndAttempt(size_t token, bool failed, bool timed_out);

  // Marks the phase barrier (all of the phase's attempts have finished).
  void EndPhase(TaskPhase phase);
  double phase_end(TaskPhase phase) const;

  // The winning (last, non-failed) executed attempt of `task` in `phase`.
  // Returns false if the task never completed an attempt successfully.
  bool WinningAttempt(TaskPhase phase, int task, WallAttempt* out) const;

  // Notes a checkpoint save or restore (`kind`) of reduce task `task` at
  // `cost_units`, on the calling worker's lane at the current wall time.
  void MarkCheckpoint(SpanKind kind, int task, double cost_units);

  // Stamps one kAttempt trace span per executed attempt into `trace`, on
  // wall-clock time, then one zero-length span per checkpoint mark. Worker
  // lanes stand in for slots; there is no machine fault domain on the wall
  // clock, so machine is -1 and spans carry no speculative flag (the
  // threaded backend rejects speculation).
  void StampAttemptSpans(TraceRecorder* trace, int pid) const;

 private:
  Stopwatch epoch_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;
  std::vector<WallAttempt> attempts_;
  std::vector<TraceSpan> marks_;
  double map_end_ = 0.0;
  double reduce_end_ = 0.0;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_EXECUTOR_H_
