#ifndef PROGRES_MAPREDUCE_CHECKPOINT_H_
#define PROGRES_MAPREDUCE_CHECKPOINT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/counters.h"

namespace progres {

// Checkpointed progressive recovery for reduce tasks.
//
// A progressive reduce task emits its results every alpha cost units; a
// checkpoint snapshots the task's progress at exactly those emission
// boundaries — the point of the paper's progressiveness is that everything
// before the boundary has already been delivered, so a re-attempt that
// restores the snapshot and resumes mid-schedule loses nothing and repeats
// only the work since the last boundary. Without checkpoints a re-attempt
// replays the task from scratch (the abort-reset path the non-progressive
// drivers keep).
//
// A snapshot captures both halves of a task's state:
//   * the job-side context — cost clock, user counters, emitted outputs and
//     input-progress watermarks (group index / records consumed);
//   * the driver-side state — an opaque, type-erased value produced by the
//     driver's save hook. A task's state only grows between boundaries
//     (logs are appended to, counters advance), so for the progressive
//     driver this is a set of watermarks — log lengths and counters — and a
//     restore truncates the live state back to them (er_driver.h).
//
// Persistence is a per-task journal: each accepted save appends one
// CRC-framed delta record holding what the task produced since the
// previous save (DESIGN.md §14), so a save costs O(delta), not O(state).
// A resumed process replays the journal's valid prefix.
//
// The store also remembers every boundary's cost ("recovery points"): the
// timing model consults them to cost the replacement of an attempt killed
// by a machine failure (cluster.h, AttemptScheduleOptions::recovery_points).
//
// Each reduce task touches only its own slot, so the store needs no
// synchronization beyond the job's task barrier; the one job-wide tally
// persisted saves bump (the crash hook's count) is atomic.

// One saved snapshot of a reduce task at an emission boundary.
struct TaskCheckpoint {
  double cost = 0.0;        // task clock (cost units) at the boundary
  int64_t groups = 0;       // reduce groups fully processed
  int64_t records_in = 0;   // input values consumed
  int64_t pairs_out = 0;    // pairs emitted
  size_t outputs = 0;       // length of the task's output vector
  Counters counters;        // user counters at the boundary
  std::shared_ptr<const void> driver_state;  // driver save-hook snapshot
  // KvCodec-encoded task outputs. Handed to Save, it holds only the outputs
  // emitted since the task's previous snapshot — the job fills it when the
  // store persists, the store appends it to the journal frame and drops it
  // (an in-process restore reuses the live context's outputs). On a
  // snapshot loaded back from a journal it holds every output up to the
  // boundary, which a resumed *process* decodes to rebuild the outputs a
  // dead process can no longer hand over.
  std::string encoded_outputs;
};

// Per-job checkpoint store: the latest snapshot plus the boundary-cost
// history of every reduce task, and the save/restore tallies exported as
// "mr.checkpoint.saved" / "mr.checkpoint.restored".
class CheckpointStore {
 public:
  // Type-erased codec for the driver-state half of a journal, installed by
  // the driver alongside its save/restore hooks. Without one, frames carry
  // an empty driver blob (jobs whose reduce state lives entirely in the
  // job-side context need none).
  //
  // `encode(task, from, to)` serializes task `task`'s driver-state growth
  // between two of its save-hook snapshots: `from` is the snapshot of the
  // journal's previous frame (null for the first frame: growth since the
  // empty state). It is called from within Save, while the task's live
  // state still sits exactly at `to`, so it may read the delta off it.
  using StateEncodeFn =
      std::function<std::string(int task, const void* from, const void* to)>;
  // `decode(deltas)` replays a journal's driver blobs, oldest first, onto an
  // empty state and returns the snapshot of the result — one the restore
  // hook must be able to install into a freshly started process. Null
  // rejects the journal as corrupt.
  using StateDecodeFn = std::function<std::shared_ptr<const void>(
      const std::vector<std::string_view>& deltas)>;

  CheckpointStore() = default;

  // Arms disk persistence: every accepted Save also appends a CRC-framed
  // delta record to the journal `dir`/`tag`-task<N>.ckpt (the first save of
  // a run starts the journal afresh). With `resume`, the next Reset loads
  // the surviving journals back — a process killed mid-job can restart and
  // replay only past the last persisted boundary. Loading replays a
  // journal's valid prefix of frames: a torn or corrupt frame ends it (the
  // task falls back to the boundary before it), so a corrupt first frame
  // leaves the task to replay from scratch; either case is tallied.
  // `crash_after_saves` > 0 kills the process (std::_Exit) after that many
  // persisted saves — the deterministic crash hook behind the restart tests
  // and the CLI's --crash-after-checkpoints. Empty `dir` disarms
  // persistence.
  void ConfigurePersistence(std::string dir, std::string tag, bool resume,
                            int crash_after_saves = 0);

  // Installs the driver-state codec used by persisted saves/loads.
  void SetStateCodec(StateEncodeFn encode, StateDecodeFn decode);

  bool persistent() const { return !dir_.empty(); }

  // Drops all snapshots and tallies and resizes to `num_tasks` slots.
  // MapReduceJob::Run calls this at submission, so a store can be reused
  // across runs. Persistence config survives; with resume armed, each
  // task's persisted journal (if any, and valid) is loaded back and its
  // latest boundary marked preloaded.
  void Reset(int num_tasks);

  int num_tasks() const { return static_cast<int>(slots_.size()); }

  // Latest snapshot of task `t`, or nullptr if none was saved yet. Valid
  // until the task's next Save or the store's next Reset.
  const TaskCheckpoint* Latest(int t) const;

  // Arms boundary-history retention: every accepted Save is also kept, so
  // LatestAtOrBelow can cut a task back to *any* crossed boundary — what
  // deadline enforcement needs. Snapshots are watermarks, so each retained
  // boundary costs O(1). Off by default (only the latest snapshot is
  // kept). Armed by MapReduceJob when job supervision is active; survives
  // Reset.
  void set_keep_history(bool keep) { keep_history_ = keep; }
  bool keep_history() const { return keep_history_; }

  // Highest-cost retained snapshot of task `t` with cost <= `cost`, or
  // nullptr if no crossed boundary qualifies. Requires keep_history();
  // without it only the latest snapshot is consulted.
  const TaskCheckpoint* LatestAtOrBelow(int t, double cost) const;

  // Saves a snapshot of task `t`, replacing the previous one and appending
  // the boundary's cost to the task's recovery points. Snapshots must
  // advance: a save at or below the latest cost is ignored (a resumed
  // attempt re-crossing an already-saved boundary).
  void Save(int t, TaskCheckpoint checkpoint);

  // Records that a re-attempt of task `t` restored the latest snapshot.
  void NoteRestore(int t);

  // Ascending boundary costs of task `t` — the timing model's recovery
  // points for machine-killed attempts.
  const std::vector<double>& RecoveryPoints(int t) const;

  // True while task `t`'s latest snapshot is one loaded from disk by a
  // resume (no save from this process has replaced it yet) — the signal
  // job.h turns into "mr.restart.restored_tasks" and kRestartRestore spans.
  bool Preloaded(int t) const;

  // Job-wide tallies.
  int64_t saved() const;
  int64_t restored() const;
  // Persisted journals whose replay stopped at a torn or corrupt frame (or
  // whose driver blobs the codec rejected) on a resume load.
  int64_t corrupt_checkpoints() const { return corrupt_checkpoints_; }

  // Deletes this store's persisted journals (called after a successful job
  // — a finished job must not be "resumed").
  void CleanupPersisted();

 private:
  struct Slot {
    // Accepted snapshots in ascending cost order; only the latest unless
    // keep_history.
    std::vector<TaskCheckpoint> history;
    std::vector<double> points;
    int64_t saved = 0;
    int64_t restored = 0;
    bool preloaded = false;
    // Frames in the task's journal file, all valid: the next frame's
    // sequence number is frames + 1, and 0 starts the file afresh.
    int64_t frames = 0;
    // A frame failed to write: later frames would leave a gap the replay
    // cannot bridge, so this run appends no more (the valid prefix stands).
    bool journal_failed = false;
  };

  std::string PersistPath(int t) const;
  void PersistSave(int t, const TaskCheckpoint* previous,
                   const TaskCheckpoint& checkpoint);
  bool LoadPersisted(int t, TaskCheckpoint* checkpoint, Slot* slot);

  std::vector<Slot> slots_;
  std::string dir_;
  std::string tag_;
  bool keep_history_ = false;
  bool resume_ = false;
  int crash_after_saves_ = 0;
  // Bumped by concurrent reduce workers under the threaded backend.
  std::atomic<int64_t> persisted_saves_{0};
  int64_t corrupt_checkpoints_ = 0;
  StateEncodeFn encode_state_;
  StateDecodeFn decode_state_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_CHECKPOINT_H_
