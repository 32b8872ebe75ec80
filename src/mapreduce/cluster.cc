#include "mapreduce/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "mapreduce/trace.h"

namespace progres {

namespace {

double SpeedOfSlot(const std::vector<double>& slot_speeds, int slot) {
  if (slot < static_cast<int>(slot_speeds.size()) &&
      slot_speeds[static_cast<size_t>(slot)] > 0.0) {
    return slot_speeds[static_cast<size_t>(slot)];
  }
  return 1.0;
}

}  // namespace

std::vector<double> ClusterConfig::SlotSpeeds(int slots_per_machine) const {
  std::vector<double> speeds;
  speeds.reserve(static_cast<size_t>(machines * slots_per_machine));
  for (int m = 0; m < machines; ++m) {
    for (int s = 0; s < slots_per_machine; ++s) {
      speeds.push_back(SpeedOfMachine(m));
    }
  }
  return speeds;
}

std::string ValidateClusterConfig(const ClusterConfig& cluster) {
  if (cluster.machines < 1) {
    return "machines must be >= 1 (got " + std::to_string(cluster.machines) +
           ")";
  }
  if (cluster.map_slots_per_machine < 1) {
    return "map_slots_per_machine must be >= 1 (got " +
           std::to_string(cluster.map_slots_per_machine) + ")";
  }
  if (cluster.reduce_slots_per_machine < 1) {
    return "reduce_slots_per_machine must be >= 1 (got " +
           std::to_string(cluster.reduce_slots_per_machine) + ")";
  }
  if (!(cluster.seconds_per_cost_unit > 0.0)) {
    return "seconds_per_cost_unit must be > 0 (got " +
           std::to_string(cluster.seconds_per_cost_unit) + ")";
  }
  if (cluster.execution_threads < 0) {
    return "execution_threads must be >= 0 (got " +
           std::to_string(cluster.execution_threads) + ")";
  }
  if (cluster.backend == ExecutionBackend::kThreaded) {
    if (cluster.execution_threads < 1) {
      return "backend=threaded requires execution_threads >= 1 (got " +
             std::to_string(cluster.execution_threads) + ")";
    }
    const int slot_capacity =
        std::max(cluster.map_slots(), cluster.reduce_slots());
    if (cluster.execution_threads > slot_capacity) {
      return "backend=threaded: execution_threads must not exceed the "
             "cluster's slot capacity " +
             std::to_string(slot_capacity) + " (got " +
             std::to_string(cluster.execution_threads) + ")";
    }
    if (cluster.speculation.enabled) {
      return "backend=threaded does not support speculative execution "
             "(speculation lives in the simulated timing model)";
    }
    if (cluster.fault.enabled && (cluster.fault.machine_failure_prob > 0.0 ||
                                  !cluster.fault.machine_failures.empty())) {
      return "backend=threaded does not support machine failures "
             "(the machine fault domain lives in the simulated timing model)";
    }
  }
  for (size_t m = 0; m < cluster.machine_speed.size(); ++m) {
    if (!(cluster.machine_speed[m] > 0.0)) {
      return "machine_speed[" + std::to_string(m) + "] must be > 0 (got " +
             std::to_string(cluster.machine_speed[m]) + ")";
    }
  }
  if (cluster.speculation.min_remaining_seconds < 0.0) {
    return "speculation.min_remaining_seconds must be >= 0 (got " +
           std::to_string(cluster.speculation.min_remaining_seconds) + ")";
  }
  if (cluster.control.deadline_seconds < 0.0) {
    return "control.deadline_seconds must be >= 0 (got " +
           std::to_string(cluster.control.deadline_seconds) + ")";
  }
  if (cluster.control.wall_deadline_seconds < 0.0) {
    return "control.wall_deadline_seconds must be >= 0 (got " +
           std::to_string(cluster.control.wall_deadline_seconds) + ")";
  }
  if (cluster.control.fault_budget < 0) {
    return "control.fault_budget must be >= 0 (got " +
           std::to_string(cluster.control.fault_budget) + ")";
  }
  if (cluster.control.active() && cluster.speculation.enabled) {
    return "job supervision (deadline/allow_degraded/fault_budget) does not "
           "support speculative execution: a deadline cut needs exactly one "
           "winning attempt per task";
  }
  if (cluster.shuffle_budget.max_bytes < 0) {
    return "shuffle_budget.max_bytes must be >= 0 (got " +
           std::to_string(cluster.shuffle_budget.max_bytes) + ")";
  }
  if (cluster.shuffle_budget.block_bytes < 1) {
    return "shuffle_budget.block_bytes must be >= 1 (got " +
           std::to_string(cluster.shuffle_budget.block_bytes) + ")";
  }
  const FaultConfig& fault = cluster.fault;
  if (!fault.enabled) return "";
  if (fault.max_attempts < 1) {
    return "fault.max_attempts must be >= 1 (got " +
           std::to_string(fault.max_attempts) + ")";
  }
  if (fault.map_failure_prob < 0.0 || fault.map_failure_prob > 1.0) {
    return "fault.map_failure_prob must be in [0, 1] (got " +
           std::to_string(fault.map_failure_prob) + ")";
  }
  if (fault.reduce_failure_prob < 0.0 || fault.reduce_failure_prob > 1.0) {
    return "fault.reduce_failure_prob must be in [0, 1] (got " +
           std::to_string(fault.reduce_failure_prob) + ")";
  }
  if (fault.machine_failure_prob < 0.0 || fault.machine_failure_prob > 1.0) {
    return "fault.machine_failure_prob must be in [0, 1] (got " +
           std::to_string(fault.machine_failure_prob) + ")";
  }
  if (fault.machine_failure_horizon_seconds < 0.0) {
    return "fault.machine_failure_horizon_seconds must be >= 0 (got " +
           std::to_string(fault.machine_failure_horizon_seconds) + ")";
  }
  for (size_t i = 0; i < fault.machine_failures.size(); ++i) {
    const MachineFault& mf = fault.machine_failures[i];
    if (mf.machine < 0 || mf.machine >= cluster.machines) {
      return "fault.machine_failures[" + std::to_string(i) +
             "].machine must be in [0, " + std::to_string(cluster.machines) +
             ") (got " + std::to_string(mf.machine) + ")";
    }
    if (mf.time < 0.0) {
      return "fault.machine_failures[" + std::to_string(i) +
             "].time must be >= 0 (got " + std::to_string(mf.time) + ")";
    }
  }
  if (fault.retry_backoff_seconds < 0.0) {
    return "fault.retry_backoff_seconds must be >= 0 (got " +
           std::to_string(fault.retry_backoff_seconds) + ")";
  }
  if (fault.retry_backoff_factor < 1.0) {
    return "fault.retry_backoff_factor must be >= 1 (got " +
           std::to_string(fault.retry_backoff_factor) + ")";
  }
  if (fault.blacklist_failures < 0) {
    return "fault.blacklist_failures must be >= 0 (got " +
           std::to_string(fault.blacklist_failures) + ")";
  }
  if (fault.map_hang_prob < 0.0 || fault.map_hang_prob > 1.0) {
    return "fault.map_hang_prob must be in [0, 1] (got " +
           std::to_string(fault.map_hang_prob) + ")";
  }
  if (fault.reduce_hang_prob < 0.0 || fault.reduce_hang_prob > 1.0) {
    return "fault.reduce_hang_prob must be in [0, 1] (got " +
           std::to_string(fault.reduce_hang_prob) + ")";
  }
  if (fault.task_timeout_seconds < 0.0) {
    return "fault.task_timeout_seconds must be >= 0 (got " +
           std::to_string(fault.task_timeout_seconds) + ")";
  }
  for (size_t i = 0; i < fault.injected_hangs.size(); ++i) {
    const TaskHangFault& hang = fault.injected_hangs[i];
    if (!(hang.hang_at_fraction > 0.0) || hang.hang_at_fraction > 1.0) {
      return "fault.injected_hangs[" + std::to_string(i) +
             "].hang_at_fraction must be in (0, 1] (got " +
             std::to_string(hang.hang_at_fraction) + ")";
    }
  }
  if (fault.shuffle_corrupt_prob < 0.0 || fault.shuffle_corrupt_prob > 1.0) {
    return "fault.shuffle_corrupt_prob must be in [0, 1] (got " +
           std::to_string(fault.shuffle_corrupt_prob) + ")";
  }
  if (fault.max_fetch_retries < 0) {
    return "fault.max_fetch_retries must be >= 0 (got " +
           std::to_string(fault.max_fetch_retries) + ")";
  }
  if (fault.max_attempts_before_skip < 1) {
    return "fault.max_attempts_before_skip must be >= 1 (got " +
           std::to_string(fault.max_attempts_before_skip) + ")";
  }
  for (size_t i = 0; i < fault.poison_records.size(); ++i) {
    if (fault.poison_records[i] < 0) {
      return "fault.poison_records[" + std::to_string(i) +
             "] must be >= 0 (got " +
             std::to_string(fault.poison_records[i]) + ")";
    }
  }
  if (fault.spill_enospc_prob < 0.0 || fault.spill_enospc_prob > 1.0) {
    return "fault.spill_enospc_prob must be in [0, 1] (got " +
           std::to_string(fault.spill_enospc_prob) + ")";
  }
  if (fault.spill_write_error_prob < 0.0 ||
      fault.spill_write_error_prob > 1.0) {
    return "fault.spill_write_error_prob must be in [0, 1] (got " +
           std::to_string(fault.spill_write_error_prob) + ")";
  }
  if (fault.spill_torn_write_prob < 0.0 ||
      fault.spill_torn_write_prob > 1.0) {
    return "fault.spill_torn_write_prob must be in [0, 1] (got " +
           std::to_string(fault.spill_torn_write_prob) + ")";
  }
  if (fault.spill_corrupt_prob < 0.0 || fault.spill_corrupt_prob > 1.0) {
    return "fault.spill_corrupt_prob must be in [0, 1] (got " +
           std::to_string(fault.spill_corrupt_prob) + ")";
  }
  if (fault.max_spill_retries < 0) {
    return "fault.max_spill_retries must be >= 0 (got " +
           std::to_string(fault.max_spill_retries) + ")";
  }
  if (fault.spill_retry_backoff_seconds < 0.0) {
    return "fault.spill_retry_backoff_seconds must be >= 0 (got " +
           std::to_string(fault.spill_retry_backoff_seconds) + ")";
  }
  return "";
}

AttemptScheduleOutcome ScheduleTaskAttemptsOnCluster(
    const std::vector<std::vector<double>>& attempt_costs,
    const AttemptScheduleOptions& options) {
  AttemptScheduleOutcome outcome;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double>& slot_speeds = options.slot_speeds;
  const int slots = std::max(1, static_cast<int>(slot_speeds.size()));
  const double spcu = options.seconds_per_cost_unit;
  const int spm =
      options.slots_per_machine > 0 ? options.slots_per_machine : slots;
  const int num_machines = (slots + spm - 1) / spm;

  // Per-machine death and blacklist times (inf = never).
  std::vector<double> dead_time(static_cast<size_t>(num_machines), kInf);
  for (const MachineFault& f : options.machine_failures) {
    if (f.machine >= 0 && f.machine < num_machines) {
      double& d = dead_time[static_cast<size_t>(f.machine)];
      d = std::min(d, f.time);
    }
  }
  std::vector<double> blacklist_time(static_cast<size_t>(num_machines), kInf);
  std::vector<int> machine_failed(static_cast<size_t>(num_machines), 0);

  std::vector<double> free_at(static_cast<size_t>(slots),
                              options.start_time);

  const size_t n = attempt_costs.size();
  std::vector<double> win_start(n, options.start_time);
  std::vector<double> win_end(n, options.start_time);
  std::vector<int> win_index(n, -1);  // index into `outcome.attempts`
  std::vector<int> task_failures(n, 0);

  // ---- Tracing (observational only; never feeds back into the schedule)
  // Child spans of an attempt are collected per dispatched occurrence in
  // `notes` (parallel to outcome.attempts) and flushed together with the
  // attempt spans once the final outcomes (incl. speculation) are known.
  TraceRecorder* const trace = options.trace;
  struct SpanNotes {
    bool restored = false;     // resumed from a checkpoint at dispatch
    double restore_base = 0.0; // absolute progress restored to
    // Checkpoint saves first crossed in this run: (sim time, progress).
    std::vector<std::pair<double, double>> saves;
  };
  std::vector<SpanNotes> notes;
  // Highest progress any earlier occurrence of the task reached — a
  // checkpoint save is attributed to the first occurrence crossing it.
  std::vector<double> max_progress(n, 0.0);
  std::vector<int> last_planned(n, -1);
  const auto note_dispatch = [&](int task, int attempt, double run_base,
                                 double plan_base, double best_start,
                                 double speed, double reached) {
    SpanNotes note;
    if (attempt != last_planned[static_cast<size_t>(task)]) {
      last_planned[static_cast<size_t>(task)] = attempt;
      if (plan_base > 0.0) {
        note.restored = true;
        note.restore_base = plan_base;
      }
    }
    if (static_cast<size_t>(task) < options.recovery_points.size()) {
      const double tol = 1e-9 + 1e-12 * std::abs(reached);
      for (const double point :
           options.recovery_points[static_cast<size_t>(task)]) {
        if (point > reached + tol) break;
        if (point <= max_progress[static_cast<size_t>(task)]) continue;
        note.saves.emplace_back(
            best_start + (point - run_base) * spcu / speed, point);
      }
    }
    double& high = max_progress[static_cast<size_t>(task)];
    high = std::max(high, reached);
    notes.push_back(std::move(note));
  };

  // Whether planned attempt `attempt` of `task` hangs (heartbeat stops; the
  // tracker kills it after the task timeout).
  const auto hang_of = [&options](int task, int attempt) {
    if (static_cast<size_t>(task) >= options.hang_attempts.size()) {
      return false;
    }
    const std::vector<char>& hangs =
        options.hang_attempts[static_cast<size_t>(task)];
    return static_cast<size_t>(attempt) < hangs.size() &&
           hangs[static_cast<size_t>(attempt)] != 0;
  };
  // Fetch-stall seconds charged to the task's first dispatched occurrence.
  const auto stall_of = [&options](int task) {
    return static_cast<size_t>(task) < options.fetch_stall_seconds.size()
               ? options.fetch_stall_seconds[static_cast<size_t>(task)]
               : 0.0;
  };
  std::vector<char> dispatched(n, 0);

  // Absolute progress at which a planned attempt starts (0 without a
  // recovery model — every attempt restarts from scratch).
  const auto base_of = [&options](int task, int attempt) {
    if (static_cast<size_t>(task) >= options.attempt_bases.size()) return 0.0;
    const std::vector<double>& bases =
        options.attempt_bases[static_cast<size_t>(task)];
    return static_cast<size_t>(attempt) < bases.size()
               ? bases[static_cast<size_t>(attempt)]
               : 0.0;
  };
  // Delay before the k-th (1-based) re-dispatch of a task.
  const auto backoff_delay = [&options](int k) {
    if (options.retry_backoff_seconds <= 0.0) return 0.0;
    double delay = options.retry_backoff_seconds;
    for (int i = 1; i < k; ++i) delay *= options.retry_backoff_factor;
    return delay;
  };

  // ---- Regular attempts: FIFO dispatch with failure re-queue ----
  // `base` is the absolute progress the run starts from: the planned
  // attempt's own base, or a later recovery point after a machine kill.
  struct Pending {
    int task;
    int attempt;
    double ready;
    double base;
  };
  std::deque<Pending> queue;
  for (size_t i = 0; i < n; ++i) {
    // Boundaries at or below the first attempt's base were restored from
    // an earlier process, not saved by this run: no save spans for them.
    max_progress[i] = base_of(static_cast<int>(i), 0);
    if (!attempt_costs[i].empty()) {
      queue.push_back({static_cast<int>(i), 0, options.start_time,
                       base_of(static_cast<int>(i), 0)});
    }
  }

  while (!queue.empty()) {
    const Pending p = queue.front();
    queue.pop_front();
    // Earliest-starting usable slot (ties to the lowest index). A slot is
    // unusable once its machine is dead or blacklisted at the start time.
    int best = -1;
    double best_start = kInf;
    for (int s = 0; s < slots; ++s) {
      const int m = s / spm;
      const double candidate = std::max(free_at[static_cast<size_t>(s)],
                                        p.ready);
      if (candidate >= dead_time[static_cast<size_t>(m)] ||
          candidate >= blacklist_time[static_cast<size_t>(m)]) {
        continue;
      }
      if (candidate < best_start) {
        best_start = candidate;
        best = s;
      }
    }
    if (best < 0) {
      // Every machine is dead or blacklisted: the phase cannot finish this
      // task. Fail fast, or — in degraded mode — skip the task and keep
      // placing the rest (it is never re-queued, so it is recorded once).
      if (options.tolerate_unplaced) {
        outcome.unplaced_tasks.push_back(p.task);
        continue;
      }
      outcome.failed = true;
      outcome.failed_task = p.task;
      break;
    }
    const auto& chain = attempt_costs[static_cast<size_t>(p.task)];
    const double plan_base = base_of(p.task, p.attempt);
    const double plan_cost = chain[static_cast<size_t>(p.attempt)];
    // Resuming from a recovery point past the attempt's base shortens the
    // run; the base==plan_base branch keeps the arithmetic bit-identical to
    // the recovery-free scheduler.
    const double run_cost =
        p.base == plan_base ? plan_cost
                            : std::max(0.0, plan_base + plan_cost - p.base);
    const int machine = best / spm;
    const double speed = SpeedOfSlot(slot_speeds, best);
    // A hung occurrence finishes its pre-hang work, then sits silent until
    // the tracker's heartbeat timeout kills it. A task's first dispatched
    // occurrence additionally pays its shuffle-fetch stall before any
    // processing. Both additions are exact no-ops when absent, keeping the
    // fault-free timeline bit-identical.
    const bool hangs = hang_of(p.task, p.attempt);
    double stall = 0.0;
    if (!dispatched[static_cast<size_t>(p.task)]) {
      dispatched[static_cast<size_t>(p.task)] = 1;
      stall = stall_of(p.task);
    }
    const double proc_start = stall > 0.0 ? best_start + stall : best_start;
    double duration = run_cost * spcu / speed;
    if (stall > 0.0) duration += stall;
    if (hangs) duration += options.task_timeout_seconds;
    const double finish = best_start + duration;

    const double death = dead_time[static_cast<size_t>(machine)];
    if (finish > death) {
      // The machine dies mid-run: the attempt is killed at the death time
      // and the task re-queued (with backoff) from its best recovery point.
      TaskAttemptTiming timing;
      timing.task = p.task;
      timing.attempt = p.attempt;
      timing.slot = best;
      timing.start = best_start;
      timing.end = death;
      timing.failed = true;
      timing.machine_lost = true;
      outcome.attempts.push_back(timing);
      ++outcome.machine_lost_attempts;
      free_at[static_cast<size_t>(best)] = death;
      // Progress stops at the hang point (run_cost) even though a hung
      // occurrence keeps its slot; the stall spends wall time without
      // advancing progress. Both clamps are exact no-ops in the plain
      // crash path, where 0 < elapsed work < run_cost by construction.
      double done = (death - proc_start) * speed / spcu;
      if (done < 0.0) done = 0.0;
      if (done > run_cost) done = run_cost;
      const double progress = p.base + done;
      if (trace != nullptr) {
        note_dispatch(p.task, p.attempt, p.base, plan_base, proc_start, speed,
                      progress);
      }
      double resume = plan_base;
      if (static_cast<size_t>(p.task) < options.recovery_points.size()) {
        for (const double point :
             options.recovery_points[static_cast<size_t>(p.task)]) {
          if (point > progress) break;
          if (point > resume) resume = point;
        }
      }
      outcome.replayed_cost_units += std::max(0.0, progress - resume);
      const int k = ++task_failures[static_cast<size_t>(p.task)];
      const double delay = backoff_delay(k);
      outcome.backoff_seconds += delay;
      if (trace != nullptr && delay > 0.0) {
        TraceSpan wait;
        wait.kind = SpanKind::kRetryBackoff;
        wait.phase = options.trace_phase;
        wait.pid = options.trace_pid;
        wait.task = p.task;
        wait.attempt = p.attempt;  // the occurrence being delayed
        wait.start = death;
        wait.end = death + delay;
        trace->RecordSpan(wait);
      }
      queue.push_back({p.task, p.attempt, death + delay, resume});
      continue;
    }

    free_at[static_cast<size_t>(best)] = finish;
    const bool failed = static_cast<size_t>(p.attempt) + 1 < chain.size();
    TaskAttemptTiming timing;
    timing.task = p.task;
    timing.attempt = p.attempt;
    timing.slot = best;
    timing.start = best_start;
    timing.end = finish;
    timing.failed = failed;
    // A hung attempt is killed by the heartbeat timeout, never a winner —
    // which is also why a hung original can only lose to its speculative
    // twin: winners are drawn from non-hung attempts alone.
    timing.timed_out = failed && hangs;
    timing.won = !failed;
    outcome.attempts.push_back(timing);
    if (timing.timed_out) ++outcome.timeout_kills;
    if (trace != nullptr) {
      note_dispatch(p.task, p.attempt, p.base, plan_base, proc_start, speed,
                    plan_base + plan_cost);
    }
    if (failed) {
      // Blacklist a machine that keeps killing attempts — unless it is the
      // last healthy one.
      if (options.blacklist_failures > 0 &&
          ++machine_failed[static_cast<size_t>(machine)] >=
              options.blacklist_failures &&
          blacklist_time[static_cast<size_t>(machine)] == kInf) {
        int healthy_others = 0;
        for (int m = 0; m < num_machines; ++m) {
          if (m == machine) continue;
          if (blacklist_time[static_cast<size_t>(m)] == kInf &&
              dead_time[static_cast<size_t>(m)] > finish) {
            ++healthy_others;
          }
        }
        if (healthy_others > 0) {
          blacklist_time[static_cast<size_t>(machine)] = finish;
          ++outcome.machines_blacklisted;
          if (trace != nullptr) {
            TraceInstant instant;
            instant.kind = InstantKind::kMachineBlacklisted;
            instant.phase = options.trace_phase;
            instant.pid = options.trace_pid;
            instant.machine = machine;
            instant.time = finish;
            trace->RecordInstant(instant);
          }
        }
      }
      const int k = ++task_failures[static_cast<size_t>(p.task)];
      const double delay = backoff_delay(k);
      outcome.backoff_seconds += delay;
      if (trace != nullptr && delay > 0.0) {
        TraceSpan wait;
        wait.kind = SpanKind::kRetryBackoff;
        wait.phase = options.trace_phase;
        wait.pid = options.trace_pid;
        wait.task = p.task;
        wait.attempt = p.attempt + 1;  // the attempt being delayed
        wait.start = finish;
        wait.end = finish + delay;
        trace->RecordSpan(wait);
      }
      queue.push_back({p.task, p.attempt + 1, finish + delay,
                       base_of(p.task, p.attempt + 1)});
    } else {
      // Winning starts report when *processing* starts (after any fetch
      // stall) — that is what progressive-emission times key off.
      win_start[static_cast<size_t>(p.task)] = proc_start;
      win_end[static_cast<size_t>(p.task)] = finish;
      win_index[static_cast<size_t>(p.task)] =
          static_cast<int>(outcome.attempts.size()) - 1;
    }
  }

  // ---- Speculative execution on slots that fall idle ----
  // Only simulated on a fault-domain-free timeline: racing a backup against
  // machine deaths is out of scope for the model.
  if (options.speculation.enabled && options.machine_failures.empty() &&
      !outcome.attempts.empty()) {
    // Min-heap of (free time, slot); a slot that cannot profitably back up
    // any task now never can later (remaining times only shrink), so it is
    // dropped instead of re-pushed.
    using Slot = std::pair<double, int>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> idle;
    for (int s = 0; s < slots; ++s) {
      idle.push({free_at[static_cast<size_t>(s)], s});
    }
    std::vector<bool> has_backup(n, false);
    while (!idle.empty()) {
      const auto [now, slot] = idle.top();
      idle.pop();
      const double slot_speed = SpeedOfSlot(slot_speeds, slot);
      int candidate = -1;
      double candidate_remaining = options.speculation.min_remaining_seconds;
      for (size_t i = 0; i < n; ++i) {
        if (has_backup[i] || win_index[i] < 0) continue;
        if (win_start[i] > now || win_end[i] <= now) continue;  // not running
        const double remaining = win_end[i] - now;
        const double backup_end =
            now + attempt_costs[i].back() * spcu / slot_speed;
        if (remaining > candidate_remaining && backup_end < win_end[i]) {
          candidate_remaining = remaining;
          candidate = static_cast<int>(i);
        }
      }
      if (candidate < 0) continue;  // slot stays idle for good
      const size_t c = static_cast<size_t>(candidate);
      const double backup_end =
          now + attempt_costs[c].back() * spcu / slot_speed;
      TaskAttemptTiming backup;
      backup.task = candidate;
      backup.attempt =
          outcome.attempts[static_cast<size_t>(win_index[c])].attempt;
      backup.slot = slot;
      backup.start = now;
      backup.end = backup_end;
      backup.speculative = true;
      backup.won = true;  // only profitable backups are launched
      outcome.attempts[static_cast<size_t>(win_index[c])].won = false;
      win_index[c] = static_cast<int>(outcome.attempts.size());
      win_start[c] = now;
      win_end[c] = backup_end;
      has_backup[c] = true;
      outcome.attempts.push_back(backup);
      idle.push({backup_end, slot});
    }
  }

  double makespan = options.start_time;
  for (size_t i = 0; i < n; ++i) {
    if (win_index[i] >= 0) makespan = std::max(makespan, win_end[i]);
  }
  if (outcome.failed) {
    // A failed phase still reports how far the timeline got.
    for (const TaskAttemptTiming& a : outcome.attempts) {
      makespan = std::max(makespan, a.end);
    }
  }
  outcome.end_time = makespan;
  for (const MachineFault& f : options.machine_failures) {
    if (f.machine >= 0 && f.machine < num_machines &&
        f.time >= options.start_time && f.time < makespan &&
        dead_time[static_cast<size_t>(f.machine)] == f.time) {
      ++outcome.machines_lost;
      if (trace != nullptr) {
        TraceInstant instant;
        instant.kind = InstantKind::kMachineDeath;
        instant.phase = options.trace_phase;
        instant.pid = options.trace_pid;
        instant.machine = f.machine;
        instant.time = f.time;
        trace->RecordInstant(instant);
      }
    }
  }
  // Flush the attempt spans last, once speculation has settled every
  // attempt's final outcome; checkpoint children follow their attempt.
  if (trace != nullptr) {
    for (size_t i = 0; i < outcome.attempts.size(); ++i) {
      const TaskAttemptTiming& a = outcome.attempts[i];
      TraceSpan span;
      span.kind = SpanKind::kAttempt;
      span.phase = options.trace_phase;
      span.pid = options.trace_pid;
      span.task = a.task;
      span.attempt = a.attempt;
      span.machine = a.slot / spm;
      span.slot = a.slot;
      span.start = a.start;
      span.end = a.end;
      span.speculative = a.speculative;
      span.outcome = a.machine_lost ? SpanOutcome::kMachineLost
                     : a.timed_out  ? SpanOutcome::kTimedOut
                     : a.failed     ? SpanOutcome::kFailed
                     : a.won        ? SpanOutcome::kCompleted
                                    : SpanOutcome::kLostSpeculation;
      trace->RecordSpan(span);
      if (i >= notes.size()) continue;  // speculative backups: no children
      const SpanNotes& note = notes[i];
      if (note.restored) {
        TraceSpan child = span;
        child.kind = SpanKind::kCheckpointRestore;
        child.end = child.start;
        child.outcome = SpanOutcome::kNone;
        child.cost_units = note.restore_base;
        trace->RecordSpan(child);
      }
      for (const auto& [when, point] : note.saves) {
        TraceSpan child = span;
        child.kind = SpanKind::kCheckpointSave;
        // Clamp into the attempt: the crossing tolerance can land a save
        // an epsilon past the attempt's end.
        child.start = std::min(std::max(when, span.start), span.end);
        child.end = child.start;
        child.outcome = SpanOutcome::kNone;
        child.cost_units = point;
        trace->RecordSpan(child);
      }
    }
  }
  outcome.winning_starts = std::move(win_start);
  return outcome;
}

std::vector<TaskAttemptTiming> ScheduleTaskAttempts(
    const std::vector<std::vector<double>>& attempt_costs,
    const std::vector<double>& slot_speeds, double start_time,
    double seconds_per_cost_unit, const SpeculationConfig& speculation,
    double* end_time, std::vector<double>* winning_starts) {
  AttemptScheduleOptions options;
  options.slot_speeds = slot_speeds;
  options.start_time = start_time;
  options.seconds_per_cost_unit = seconds_per_cost_unit;
  options.speculation = speculation;
  AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster(attempt_costs, options);
  if (end_time != nullptr) *end_time = outcome.end_time;
  if (winning_starts != nullptr) {
    *winning_starts = std::move(outcome.winning_starts);
  }
  return std::move(outcome.attempts);
}

std::vector<double> ScheduleTasksHeterogeneous(
    const std::vector<double>& costs, const std::vector<double>& slot_speeds,
    double start_time, double seconds_per_cost_unit, double* end_time) {
  std::vector<std::vector<double>> attempt_costs;
  attempt_costs.reserve(costs.size());
  for (double cost : costs) attempt_costs.push_back({cost});
  std::vector<double> starts;
  ScheduleTaskAttempts(attempt_costs, slot_speeds, start_time,
                       seconds_per_cost_unit, SpeculationConfig{}, end_time,
                       &starts);
  return starts;
}

std::vector<double> ScheduleTasks(const std::vector<double>& costs,
                                  int slots, double start_time,
                                  double seconds_per_cost_unit,
                                  double* end_time) {
  const std::vector<double> slot_speeds(
      static_cast<size_t>(std::max(1, slots)), 1.0);
  return ScheduleTasksHeterogeneous(costs, slot_speeds, start_time,
                                    seconds_per_cost_unit, end_time);
}

}  // namespace progres
