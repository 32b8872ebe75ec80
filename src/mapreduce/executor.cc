#include "mapreduce/executor.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace progres {

const char* ToString(ExecutionBackend backend) {
  switch (backend) {
    case ExecutionBackend::kSimulated:
      return "simulated";
    case ExecutionBackend::kThreaded:
      return "threaded";
  }
  return "simulated";
}

bool ParseExecutionBackend(const std::string& name, ExecutionBackend* out) {
  if (name == "simulated") {
    *out = ExecutionBackend::kSimulated;
    return true;
  }
  if (name == "threaded") {
    *out = ExecutionBackend::kThreaded;
    return true;
  }
  return false;
}

ThreadedExecutor::ThreadedExecutor(int threads)
    : pool_(new ThreadPool(std::max(1, threads))) {}

ThreadedExecutor::~ThreadedExecutor() = default;

int ThreadedExecutor::threads() const { return pool_->num_threads(); }

size_t ThreadedExecutor::BeginAttempt(TaskPhase phase, int task, int attempt) {
  WallAttempt record;
  record.phase = phase;
  record.task = task;
  record.attempt = attempt;
  record.worker = std::max(0, ThreadPool::CurrentWorker());
  record.start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  attempts_.push_back(record);
  return attempts_.size() - 1;
}

void ThreadedExecutor::EndAttempt(size_t token, bool failed, bool timed_out) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  WallAttempt& record = attempts_[token];
  record.end = end;
  record.failed = failed;
  record.timed_out = timed_out;
}

void ThreadedExecutor::EndPhase(TaskPhase phase) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  if (phase == TaskPhase::kMap) {
    map_end_ = end;
  } else {
    reduce_end_ = end;
  }
}

double ThreadedExecutor::phase_end(TaskPhase phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase == TaskPhase::kMap ? map_end_ : reduce_end_;
}

bool ThreadedExecutor::WinningAttempt(TaskPhase phase, int task,
                                      WallAttempt* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The winner is the task's only non-failed attempt (the runner stops the
  // chain at it), so a plain scan suffices.
  for (const WallAttempt& record : attempts_) {
    if (record.phase != phase || record.task != task) continue;
    if (record.failed) continue;
    *out = record;
    return true;
  }
  return false;
}

void ThreadedExecutor::MarkCheckpoint(SpanKind kind, int task,
                                      double cost_units) {
  TraceSpan span;
  span.kind = kind;
  span.phase = TaskPhase::kReduce;
  span.task = task;
  span.slot = ThreadPool::CurrentWorker();
  span.start = Now();
  span.end = span.start;
  span.cost_units = cost_units;
  std::lock_guard<std::mutex> lock(mu_);
  marks_.push_back(span);
}

void ThreadedExecutor::StampAttemptSpans(TraceRecorder* trace, int pid) const {
  std::vector<WallAttempt> attempts;
  std::vector<TraceSpan> marks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempts = attempts_;
    marks = marks_;
  }
  for (const WallAttempt& record : attempts) {
    TraceSpan span;
    span.kind = SpanKind::kAttempt;
    span.phase = record.phase;
    span.pid = pid;
    span.task = record.task;
    span.attempt = record.attempt;
    span.machine = -1;  // no machine fault domain on the wall clock
    span.slot = record.worker;
    span.start = record.start;
    span.end = record.end;
    span.outcome = record.timed_out  ? SpanOutcome::kTimedOut
                   : record.failed  ? SpanOutcome::kFailed
                                    : SpanOutcome::kCompleted;
    trace->RecordSpan(span);
  }
  for (TraceSpan& mark : marks) {
    mark.pid = pid;
    trace->RecordSpan(mark);
  }
}

}  // namespace progres
