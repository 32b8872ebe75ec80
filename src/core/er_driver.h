#ifndef PROGRES_CORE_ER_DRIVER_H_
#define PROGRES_CORE_ER_DRIVER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/er_result.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/cluster.h"
#include "mapreduce/cost_clock.h"
#include "mapreduce/counters.h"
#include "mapreduce/fault.h"
#include "mapreduce/trace.h"
#include "mechanism/mechanism.h"
#include "model/entity.h"

namespace progres {

// Shared scaffolding of the ER drivers (Basic, MRSN, Progressive, and the
// statistics job): every driver accumulates external per-reduce-task state
// alongside its MR job, must reset that state when a fault-injected attempt
// aborts, and assembles the same ErRunResult shape from per-task events.
// This header factors those three concerns out of the drivers.

// The per-reduce-task accumulator every resolving driver shares: the raw
// duplicate-discovery events (task-local cost order) plus outcome tallies.
// Drivers with extra per-task state (MRSN's sliding window, the progressive
// driver's tree buffers) derive from it.
struct ErTaskState {
  std::vector<std::pair<double, PairKey>> raw_events;
  int64_t duplicates = 0;
  int64_t distinct = 0;
  int64_t skipped = 0;
};

// Owns one State per reduce task (each task writes only its own slot, so no
// synchronization is needed) and wires the fault-tolerance contract: a
// fault-injected reduce attempt that dies default-reconstructs its task's
// State, so the retry never double-counts.
template <typename State>
class TaskStateRegistry {
 public:
  explicit TaskStateRegistry(int num_tasks)
      : states_(static_cast<size_t>(std::max(1, num_tasks))) {}

  State& at(int task) { return states_[static_cast<size_t>(task)]; }
  const State& at(int task) const { return states_[static_cast<size_t>(task)]; }
  size_t size() const { return states_.size(); }
  std::vector<State>& states() { return states_; }
  const std::vector<State>& states() const { return states_; }

  // Installs the job's task-abort hook: a failing reduce attempt resets its
  // task's State to a freshly-constructed one.
  template <typename Job>
  void InstallAbortReset(Job* job) {
    job->set_task_abort(
        [this](TaskPhase phase, int task_id, int /*attempt*/) {
          if (phase == TaskPhase::kReduce) {
            states_[static_cast<size_t>(task_id)] = State();
          }
        });
  }

  // Installs checkpointed recovery instead (checkpoint.h): the job
  // snapshots a copy of the task's State at each alpha-emission boundary
  // and a re-attempt restores the latest snapshot (or a fresh State when
  // none exists) rather than replaying from scratch. `store` must outlive
  // the job's Run. State must be copyable. In-memory only: the store gets
  // no codec, so this suits states that are not persisted.
  template <typename Job>
  void InstallCheckpointRecovery(Job* job, double alpha,
                                 CheckpointStore* store) {
    job->set_checkpointing(
        alpha, store,
        [this](int task_id) -> std::shared_ptr<const void> {
          return std::make_shared<const State>(
              states_[static_cast<size_t>(task_id)]);
        },
        [this](int task_id, const void* snapshot) {
          State& state = states_[static_cast<size_t>(task_id)];
          if (snapshot == nullptr) {
            state = State();
          } else {
            state = *static_cast<const State*>(snapshot);
          }
        });
  }

  // Checkpointed recovery for a State that only grows between boundaries,
  // at O(1) per snapshot (DESIGN.md §14): a snapshot is the state's
  // watermarks, and a restore truncates the live state back to them —
  // valid because every retained snapshot lies on the live state's own
  // lineage (a task's attempts run one after another, each resuming from
  // the latest snapshot, and a deadline cut only ever rewinds). State must
  // provide
  //
  //   typename State::Watermark;                  // copyable, O(1) size
  //   Watermark Mark() const;                     // the current extent
  //   void TruncateTo(const Watermark& mark);     // drop all growth past it
  //   void ForgetBefore(const Watermark& mark);   // no restore goes below it
  //
  // ForgetBefore lets the state drop the undo data (e.g. insertion logs)
  // it keeps for growth before `mark`: without boundary history
  // (CheckpointStore::keep_history), each save forgets everything before
  // the snapshot it replaces, which its journal delta starts from.
  //
  // and the codec persisted journals need: `encode_delta(state, from, to)`
  // serializes the growth between two marks of `state` (`from` null: since
  // the empty state), `apply_delta(blob, state)` replays one such blob onto
  // a state, returning false to reject it. A journal replayed by a resumed
  // process becomes a snapshot carrying the rebuilt State, which its first
  // restore copies in.
  template <typename Job, typename EncodeDelta, typename ApplyDelta>
  void InstallWatermarkRecovery(Job* job, double alpha, CheckpointStore* store,
                                EncodeDelta encode_delta,
                                ApplyDelta apply_delta) {
    store->SetStateCodec(
        [this, encode_delta = std::move(encode_delta)](
            int task_id, const void* from, const void* to) {
          const auto* base = static_cast<const Snapshot*>(from);
          return encode_delta(states_[static_cast<size_t>(task_id)],
                              base != nullptr ? &base->mark : nullptr,
                              static_cast<const Snapshot*>(to)->mark);
        },
        [apply_delta = std::move(apply_delta)](
            const std::vector<std::string_view>& deltas)
            -> std::shared_ptr<const void> {
          auto state = std::make_shared<State>();
          for (const std::string_view delta : deltas) {
            if (!apply_delta(delta, state.get())) return nullptr;
          }
          return std::make_shared<const Snapshot>(
              Snapshot{state->Mark(), std::move(state)});
        });
    job->set_checkpointing(
        alpha, store,
        [this, store](int task_id) -> std::shared_ptr<const void> {
          State& state = states_[static_cast<size_t>(task_id)];
          const TaskCheckpoint* latest = store->Latest(task_id);
          if (!store->keep_history() && latest != nullptr &&
              latest->driver_state != nullptr) {
            state.ForgetBefore(
                static_cast<const Snapshot*>(latest->driver_state.get())
                    ->mark);
          }
          return std::make_shared<const Snapshot>(
              Snapshot{state.Mark(), nullptr});
        },
        [this](int task_id, const void* snapshot) {
          State& state = states_[static_cast<size_t>(task_id)];
          const auto* snap = static_cast<const Snapshot*>(snapshot);
          if (snap == nullptr) {
            state = State();
          } else if (snap->replayed != nullptr) {
            state = *snap->replayed;
          } else {
            state.TruncateTo(snap->mark);
          }
        });
  }

 private:
  // What InstallWatermarkRecovery's store holds per boundary.
  struct Snapshot {
    typename State::Watermark mark;
    // Set only on a snapshot rebuilt from a persisted journal.
    std::shared_ptr<const State> replayed;
  };

  std::vector<State> states_;
};

// The on_duplicate callback the drivers hand to the mechanism: records one
// discovery as (task-local cost now, pair) into the task's event stream.
inline std::function<void(EntityId, EntityId)> EventSink(ErTaskState* state,
                                                         CostClock* clock) {
  return [state, clock](EntityId a, EntityId b) {
    state->raw_events.emplace_back(clock->units(), MakePairKey(a, b));
  };
}

// Tallies one resolved block's outcome into the task state and the standard
// "reduce.*" counters (shared by the basic and progressive drivers).
void RecordResolveOutcome(const ResolveOutcome& outcome, ErTaskState* state,
                          Counters* counters);

// Assembles the per-task portion of an ErRunResult after a successful
// resolution job: aggregate tallies plus the globally-timed event stream
// and incremental-output chunks of every reduce task, in task order. With a
// `trace` attached, every incremental-output chunk is also recorded as an
// alpha-emission trace event (carrying the task-cumulative pair count), on
// the slot lane of the task's winning reduce attempt.
template <typename State>
void AccumulateReduceTasks(const std::vector<State>& states,
                           const JobTiming& timing,
                           const std::vector<TaskStats>& reduce_stats,
                           double seconds_per_cost_unit, double alpha,
                           ErRunResult* result,
                           TraceRecorder* trace = nullptr) {
  for (size_t t = 0; t < reduce_stats.size(); ++t) {
    const ErTaskState& state = states[t];
    result->duplicate_count += state.duplicates;
    result->distinct_count += state.distinct;
    result->skipped_count += state.skipped;
    result->comparisons += state.duplicates + state.distinct;
    const size_t first_chunk = result->chunks.size();
    AppendTaskEvents(static_cast<int>(t), timing.reduce_start[t],
                     reduce_stats[t].cost, seconds_per_cost_unit, alpha,
                     state.raw_events, result);
    if (trace == nullptr) continue;
    int slot = -1;
    for (const TaskAttemptTiming& a : timing.reduce_attempts) {
      if (a.won && a.task == static_cast<int>(t)) {
        slot = a.slot;
        break;
      }
    }
    int64_t cumulative = 0;
    for (size_t c = first_chunk; c < result->chunks.size(); ++c) {
      const ResultChunk& chunk = result->chunks[c];
      cumulative += static_cast<int64_t>(chunk.pairs.size());
      AlphaEmission emission;
      emission.pid = trace->current_pid();
      emission.task = static_cast<int>(t);
      emission.slot = slot;
      emission.time = chunk.flush_time;
      emission.pairs = static_cast<int64_t>(chunk.pairs.size());
      emission.cumulative_pairs = cumulative;
      trace->RecordEmission(emission);
    }
  }
}

}  // namespace progres

#endif  // PROGRES_CORE_ER_DRIVER_H_
