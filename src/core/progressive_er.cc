#include "core/progressive_er.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/er_driver.h"
#include "core/stats_job.h"
#include "mapreduce/job.h"
#include "mapreduce/pipeline.h"
#include "mapreduce/serde.h"
#include "model/pair_set.h"
#include "redundancy/dominance.h"

namespace progres {

namespace {

constexpr double kMapEmitCost = 0.05;
// Cost of checking one buffered entity's membership in a block during
// per-tree regrouping.
constexpr double kRegroupCostPerEntity = 0.01;

// Shuffle value of the resolution job: an entity reference plus its
// dominance list for the target block or tree (Sec. III-B).
struct ResolveValue {
  EntityId id = -1;
  DominanceList list;
};

// Wire size of one shuffled (sequence value, entity + dominance list) pair
// under the serde encoding — the `shuffle.bytes` counter.
int64_t WireSize(int64_t sq, const ResolveValue& value) {
  int64_t bytes = VarintSize(static_cast<uint64_t>(sq));
  bytes += VarintSize(static_cast<uint64_t>(value.id));
  bytes += VarintSize(value.list.values.size());
  for (int32_t v : value.list.values) {
    bytes += VarintSize(ZigZagEncode(v));
  }
  return bytes;
}

// Block-local entity id -> dominance list lookup for the responsibility
// predicate: open addressing over one block's members (linear probing, at
// most half full). Each block rebuilds it in arrays kept across the task's
// blocks, so a build costs O(block) — never O(dataset) — and allocates only
// when a block outgrows every earlier one.
class DominanceIndex {
 public:
  // Indexes `lists[i]` under `members[i]->id`; a repeated id keeps its
  // first list.
  void Build(const std::vector<const Entity*>& members,
             const std::vector<const DominanceList*>& lists) {
    size_t capacity = 16;
    shift_ = 60;
    while (capacity < 2 * members.size()) {
      capacity *= 2;
      --shift_;
    }
    if (ids_.size() < capacity) {
      ids_.resize(capacity);
      lists_.resize(capacity);
    }
    mask_ = capacity - 1;
    std::fill_n(ids_.begin(), capacity, kEmpty);
    for (size_t i = 0; i < members.size(); ++i) {
      const EntityId id = members[i]->id;
      size_t slot = Home(id);
      while (ids_[slot] != kEmpty && ids_[slot] != id) {
        slot = (slot + 1) & mask_;
      }
      if (ids_[slot] == kEmpty) {
        ids_[slot] = id;
        lists_[slot] = lists[i];
      }
    }
  }

  // The list of block member `id`.
  const DominanceList& at(EntityId id) const {
    size_t slot = Home(id);
    while (ids_[slot] != id) {
      if (ids_[slot] == kEmpty) {
        throw std::out_of_range("DominanceIndex: id is not a block member");
      }
      slot = (slot + 1) & mask_;
    }
    return *lists_[slot];
  }

 private:
  static constexpr EntityId kEmpty = -1;

  size_t Home(EntityId id) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(id)) *
         0x9E3779B97F4A7C15ULL) >>
        shift_);
  }

  std::vector<EntityId> ids_;
  std::vector<const DominanceList*> lists_;
  size_t mask_ = 0;
  int shift_ = 60;
};

// Mutable per-reduce-task state beyond the shared accumulator: the
// incremental bottom-up resolution's resolved-pair memory and the per-tree
// emission buffers. Between reduce groups it only grows — events and log
// entries are appended, counters advance, each tree is buffered once — so a
// checkpoint is a Watermark and a restore truncates back to one
// (TaskStateRegistry::InstallWatermarkRecovery).
struct ResolveTaskState : ErTaskState {
  // Already-resolved pairs per tree (keyed by the tree's dominance value):
  // the incremental bottom-up resolution must not repeat child work.
  std::unordered_map<int32_t, PairSet> resolved;
  // Insertion log of `resolved`: every newly resolved pair in order, and
  // one (tree, end of its entries in the log) run per Resolve call that
  // added any — a call inserts into its own tree's set only. Positions are
  // absolute; the first `log_base` entries were forgotten (ForgetBefore).
  std::vector<PairKey> resolved_log;
  size_t log_base = 0;
  std::vector<std::pair<int32_t, size_t>> resolved_runs;
  // Per-tree emission: buffered tree members keyed by tree dominance value
  // (with the keys in buffering order), and the index of the next
  // unresolved block in the task's schedule.
  std::unordered_map<int32_t, std::vector<ResolveValue>> tree_values;
  std::vector<int32_t> tree_order;
  size_t next_block = 0;
  // Scratch of the block being resolved; no checkpoint carries it.
  DominanceIndex dominance;

  struct Watermark : ErTaskState::Watermark {
    size_t runs = 0;
    size_t trees = 0;
    size_t next_block = 0;
  };

  Watermark Mark() const {
    return {ErTaskState::Mark(), resolved_runs.size(), tree_order.size(),
            next_block};
  }

  size_t LogEnd() const { return log_base + resolved_log.size(); }
  size_t RunBegin(size_t run) const {
    return run == 0 ? 0 : resolved_runs[run - 1].second;
  }
  PairKey Logged(size_t position) const {
    return resolved_log[position - log_base];
  }

  // Closes the log run of one Resolve call on `tree` that began at `start`.
  void CloseRun(int32_t tree, size_t start) {
    if (LogEnd() > start) resolved_runs.emplace_back(tree, LogEnd());
  }

  void TruncateTo(const Watermark& mark) {
    ErTaskState::TruncateTo(mark);
    while (resolved_runs.size() > mark.runs) {
      const auto [tree, end] = resolved_runs.back();
      const size_t begin = RunBegin(resolved_runs.size() - 1);
      resolved_runs.pop_back();
      PairSet& pairs = resolved[tree];
      for (size_t i = begin; i < end; ++i) pairs.erase(Logged(i));
      resolved_log.resize(begin - log_base);
    }
    while (tree_order.size() > mark.trees) {
      tree_values.erase(tree_order.back());
      tree_order.pop_back();
    }
    next_block = mark.next_block;
  }

  // No restore will go below `mark` any more: drops the log entries before
  // it (their pairs stay resolved), so the log spans about one alpha
  // window instead of the whole task.
  void ForgetBefore(const Watermark& mark) {
    const size_t cut = RunBegin(mark.runs);
    if (cut <= log_base) return;
    resolved_log.erase(resolved_log.begin(),
                       resolved_log.begin() +
                           static_cast<std::ptrdiff_t>(cut - log_base));
    log_base = cut;
  }

  // Buffers a tree group's members; each tree arrives once per task.
  void BufferTree(int32_t tree, std::vector<ResolveValue> values) {
    tree_values[tree] = std::move(values);
    tree_order.push_back(tree);
  }
};

}  // namespace

// Wire form of ResolveValue: the entity id, then the dominance list as a
// counted sequence of ZigZag varints — the layout WireSize describes.
template <>
struct KvCodec<ResolveValue> {
  static void Encode(const ResolveValue& value, std::string* out) {
    PutVarint64(static_cast<uint64_t>(value.id), out);
    PutVarint64(value.list.values.size(), out);
    for (const int32_t v : value.list.values) {
      PutVarint64(ZigZagEncode(v), out);
    }
  }
  static bool Decode(std::string_view in, size_t* offset,
                     ResolveValue* value) {
    uint64_t id = 0;
    if (!GetVarint64(in, offset, &id)) return false;
    value->id = static_cast<EntityId>(id);
    uint64_t count = 0;
    if (!GetVarint64(in, offset, &count)) return false;
    // Each entry costs at least one byte; a larger count is corruption.
    if (count > in.size() - *offset) return false;
    value->list.values.clear();
    value->list.values.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t raw = 0;
      if (!GetVarint64(in, offset, &raw)) return false;
      value->list.values.push_back(
          static_cast<int32_t>(ZigZagDecode(raw)));
    }
    return true;
  }
};

namespace {

// Journal delta of a ResolveTaskState between two watermarks (`from` null:
// since the empty state), read off a state that sits at `to` — the driver
// half of one persisted checkpoint frame (CheckpointStore). Logs are
// written in insertion order, which is deterministic, so equal histories
// encode byte-identically and nothing needs sorting; the tallies and the
// block cursor travel as absolute values. Doubles travel as raw IEEE bits
// (varint-packed) for an exact round trip.
std::string EncodeResolveTaskDelta(const ResolveTaskState& state,
                                   const ResolveTaskState::Watermark* from,
                                   const ResolveTaskState::Watermark& to) {
  const ResolveTaskState::Watermark base =
      from != nullptr ? *from : ResolveTaskState::Watermark();
  std::string out;
  PutVarint64(to.events - base.events, &out);
  for (size_t i = base.events; i < to.events; ++i) {
    const auto& [cost, pair] = state.raw_events[i];
    uint64_t bits = 0;
    std::memcpy(&bits, &cost, sizeof(bits));
    PutVarint64(bits, &out);
    PutVarint64(pair, &out);
  }
  PutVarint64(static_cast<uint64_t>(to.duplicates), &out);
  PutVarint64(static_cast<uint64_t>(to.distinct), &out);
  PutVarint64(static_cast<uint64_t>(to.skipped), &out);

  PutVarint64(to.runs - base.runs, &out);
  for (size_t r = base.runs; r < to.runs; ++r) {
    const auto [tree, end] = state.resolved_runs[r];
    const size_t begin = state.RunBegin(r);
    PutVarint64(ZigZagEncode(tree), &out);
    PutVarint64(end - begin, &out);
    for (size_t i = begin; i < end; ++i) PutVarint64(state.Logged(i), &out);
  }

  PutVarint64(to.trees - base.trees, &out);
  for (size_t k = base.trees; k < to.trees; ++k) {
    const int32_t tree = state.tree_order[k];
    const std::vector<ResolveValue>& values = state.tree_values.at(tree);
    PutVarint64(ZigZagEncode(tree), &out);
    PutVarint64(values.size(), &out);
    for (const ResolveValue& value : values) {
      KvCodec<ResolveValue>::Encode(value, &out);
    }
  }
  PutVarint64(to.next_block, &out);
  return out;
}

// Replays one EncodeResolveTaskDelta blob onto `state`; false on a
// malformed blob.
bool ApplyResolveTaskDelta(std::string_view in, ResolveTaskState* state) {
  size_t offset = 0;
  const auto remaining = [&] { return in.size() - offset; };
  uint64_t count = 0;
  if (!GetVarint64(in, &offset, &count) || count > remaining()) return false;
  state->raw_events.reserve(state->raw_events.size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t bits = 0;
    uint64_t pair = 0;
    if (!GetVarint64(in, &offset, &bits) ||
        !GetVarint64(in, &offset, &pair)) {
      return false;
    }
    double cost = 0.0;
    std::memcpy(&cost, &bits, sizeof(cost));
    state->raw_events.emplace_back(cost, pair);
  }
  uint64_t duplicates = 0;
  uint64_t distinct = 0;
  uint64_t skipped = 0;
  if (!GetVarint64(in, &offset, &duplicates) ||
      !GetVarint64(in, &offset, &distinct) ||
      !GetVarint64(in, &offset, &skipped)) {
    return false;
  }
  state->duplicates = static_cast<int64_t>(duplicates);
  state->distinct = static_cast<int64_t>(distinct);
  state->skipped = static_cast<int64_t>(skipped);

  if (!GetVarint64(in, &offset, &count) || count > remaining()) return false;
  for (uint64_t r = 0; r < count; ++r) {
    uint64_t raw = 0;
    uint64_t pairs = 0;
    if (!GetVarint64(in, &offset, &raw) ||
        !GetVarint64(in, &offset, &pairs) || pairs > remaining()) {
      return false;
    }
    const int32_t tree = static_cast<int32_t>(ZigZagDecode(raw));
    PairSet& set = state->resolved[tree];
    const size_t start = state->LogEnd();
    for (uint64_t p = 0; p < pairs; ++p) {
      uint64_t pair = 0;
      if (!GetVarint64(in, &offset, &pair)) return false;
      set.insert(pair);
      state->resolved_log.push_back(pair);
    }
    state->CloseRun(tree, start);
  }

  if (!GetVarint64(in, &offset, &count) || count > remaining()) return false;
  for (uint64_t k = 0; k < count; ++k) {
    uint64_t raw = 0;
    uint64_t values = 0;
    if (!GetVarint64(in, &offset, &raw) ||
        !GetVarint64(in, &offset, &values) || values > remaining()) {
      return false;
    }
    std::vector<ResolveValue> group;
    group.reserve(values);
    for (uint64_t v = 0; v < values; ++v) {
      ResolveValue value;
      if (!KvCodec<ResolveValue>::Decode(in, &offset, &value)) return false;
      group.push_back(std::move(value));
    }
    state->BufferTree(static_cast<int32_t>(ZigZagDecode(raw)),
                      std::move(group));
  }
  uint64_t next_block = 0;
  if (!GetVarint64(in, &offset, &next_block)) return false;
  state->next_block = static_cast<size_t>(next_block);
  return offset == in.size();
}

}  // namespace

ProgressiveEr::ProgressiveEr(const BlockingConfig& blocking,
                             const MatchFunction& match,
                             const ProgressiveMechanism& mechanism,
                             const ProbabilityModel& prob,
                             ProgressiveErOptions options)
    : blocking_(blocking),
      match_(match),
      mechanism_(mechanism),
      prob_(prob),
      options_(std::move(options)) {}

void ProgressiveEr::AddPreprocessStages(const Dataset& dataset,
                                        Pipeline* pipe,
                                        Preprocessed* pre) const {
  const int map_tasks = options_.num_map_tasks > 0
                            ? options_.num_map_tasks
                            : options_.cluster.map_slots();
  const int reduce_tasks = options_.num_reduce_tasks > 0
                               ? options_.num_reduce_tasks
                               : options_.cluster.reduce_slots();

  // The raw forests cross from the stats stage to the schedule stage; a
  // shared buffer keeps the stage closures self-contained.
  auto stats_forests = std::make_shared<std::vector<Forest>>();

  // ---- First MR job: progressive blocking + statistics ----
  pipe->AddStage("statistics job", [this, &dataset, stats_forests, map_tasks,
                                    reduce_tasks](double submit_time) {
    StatsJobOutput stats =
        RunStatisticsJob(dataset, blocking_, options_.cluster, map_tasks,
                         reduce_tasks, submit_time);
    StageResult stage;
    stage.failed = stats.failed;
    stage.error = stats.error;  // already labelled "statistics job: ..."
    stage.end_time = stats.timing.end;
    stage.counters = std::move(stats.counters);
    stage.timing = std::move(stats.timing);
    *stats_forests = std::move(stats.forests);
    return stage;
  });

  // ---- Schedule generation (map-task setup of the second job) ----
  pipe->AddComputation("schedule generation", [this, &dataset, stats_forests,
                                               pre, reduce_tasks](
                                                  double /*submit_time*/) {
    pre->forests = AnnotateForests(*stats_forests, options_.estimate, prob_,
                                   dataset.size());
    ScheduleParams params;
    params.num_reduce_tasks = reduce_tasks;
    params.cost_vector = options_.cost_vector;
    params.weights = options_.weights;
    params.batch_size = options_.batch_size;
    params.scheduler = options_.scheduler;
    params.per_task_budget = options_.per_task_cost_budget;
    pre->schedule = GenerateSchedule(&pre->forests, params);

    int64_t live_blocks = 0;
    for (const AnnotatedForest& forest : pre->forests) {
      for (int n = 0; n < forest.num_blocks(); ++n) {
        if (!forest.block(n).eliminated) ++live_blocks;
      }
    }
    return options_.schedule_cost_per_block *
           static_cast<double>(live_blocks) *
           options_.cluster.seconds_per_cost_unit;
  });
}

ProgressiveEr::Preprocessed ProgressiveEr::Preprocess(
    const Dataset& dataset) const {
  Preprocessed pre;
  Pipeline pipe;
  pipe.set_trace(options_.cluster.trace);
  AddPreprocessStages(dataset, &pipe, &pre);
  const PipelineResult run = pipe.Run(/*submit_time=*/0.0);
  pre.end_time = run.end;
  if (run.failed) {
    pre.failed = true;
    pre.error = run.error;
  }
  return pre;
}

ErRunResult ProgressiveEr::Run(const Dataset& dataset) const {
  Preprocessed pre;
  ErRunResult result;

  Pipeline pipe;
  pipe.set_trace(options_.cluster.trace);
  AddPreprocessStages(dataset, &pipe, &pre);

  // ---- Second MR job: progressive resolution ----
  pipe.AddStage("resolution job", [&, this](double submit_time) {
    const std::vector<AnnotatedForest>& forests = pre.forests;
    const ProgressiveSchedule& schedule = pre.schedule;
    if (!schedule.error.empty()) {
      StageResult stage;
      stage.failed = true;
      stage.error = "schedule generation: " + schedule.error;
      stage.end_time = submit_time;
      return stage;
    }
    const int map_tasks = options_.num_map_tasks > 0
                              ? options_.num_map_tasks
                              : options_.cluster.map_slots();
    const int reduce_tasks = schedule.num_reduce_tasks;
    const int num_families = blocking_.num_families();
    const bool redundancy = options_.redundancy_elimination;
    // The pair-level schedulers ship a block to every one of its match
    // units, which per-tree regrouping cannot express — they force
    // per-block emission (documented fallback).
    const bool pair_level = schedule.pair_level;
    const bool per_tree =
        options_.map_emission == MapEmission::kPerTree && !pair_level;

    // Sequence value -> block lookup for the reduce side.
    std::unordered_map<int64_t, BlockRef> block_of_sequence;
    for (const auto& [key, sq] : schedule.sequence) {
      block_of_sequence[sq] = {static_cast<int>(key >> 32),
                               static_cast<int>(key & 0xffffffffULL)};
    }

    // Per-tree emission: the shuffle key of a tree is the sequence value of
    // its first scheduled block. Trees whose blocks were all truncated by
    // the budget have no key and are never shipped.
    std::unordered_map<uint64_t, int64_t> tree_first_sq;
    if (per_tree) {
      for (const AnnotatedForest& forest : forests) {
        for (int root : forest.tree_roots()) {
          int64_t first = -1;
          for (int n : forest.TreeBlocks(root)) {
            const int64_t sq = schedule.SequenceOf(forest.family(), n);
            if (sq >= 0 && (first < 0 || sq < first)) first = sq;
          }
          if (first >= 0) {
            tree_first_sq[BlockRefKey(forest.family(), root)] = first;
          }
        }
      }
    }

    using Job = MapReduceJob<Entity, int64_t, ResolveValue>;
    Job job(map_tasks, reduce_tasks);
    job.set_map_cost_per_record(0.1);
    job.set_partitioner([range = schedule.range_per_task](const int64_t& sq,
                                                          int /*r*/) {
      return static_cast<int>(sq / range);
    });
    job.set_wire_size([](const int64_t& sq, const ResolveValue& value) {
      return WireSize(sq, value);
    });
    // The resolution map runs the match-adjacent user code a poison record
    // crashes; the statistics pre-pass never does, so only this job engages
    // the skip-bad-records machinery.
    job.set_poison_faults(true);

    const auto map_fn = [&, this](const Entity& e, Job::MapContext* ctx) {
      // e's block paths in every family, built once per entity into reused
      // buffers; the level walk and the dominance lists read prefixes.
      thread_local std::vector<PathChain> chains;
      chains.resize(static_cast<size_t>(num_families));
      for (int f = 0; f < num_families; ++f) {
        blocking_.BuildChain(f, e, &chains[static_cast<size_t>(f)]);
      }
      for (int f = 0; f < num_families; ++f) {
        const AnnotatedForest& forest = forests[static_cast<size_t>(f)];
        const PathChain& chain = chains[static_cast<size_t>(f)];
        int previous_node = -1;
        int previous_tree = -1;
        for (int level = 1; level <= chain.levels(); ++level) {
          const int node = forest.Find(chain.Level(level));
          if (node < 0) break;  // chain eliminated from here down
          if (node == previous_node) continue;  // equal-size collapse redirect
          previous_node = node;
          if (per_tree) {
            // One emission per (entity, tree): emit when the chain enters a
            // new tree. The dominance list is identical for every block of
            // the tree along e's chain.
            const int tree = forest.FindTreeRoot(node);
            if (tree == previous_tree) continue;
            previous_tree = tree;
            const auto it = tree_first_sq.find(BlockRefKey(f, tree));
            if (it == tree_first_sq.end()) continue;  // budget-truncated tree
            ResolveValue value;
            value.id = e.id;
            if (redundancy) {
              value.list =
                  BuildDominanceList(e, f, node, chains, forests, schedule);
            }
            ctx->clock().Charge(kMapEmitCost);
            ctx->counters().Increment("map.emitted_pairs");
            ctx->counters().Increment("shuffle.bytes",
                                      WireSize(it->second, value));
            ctx->Emit(it->second, std::move(value));
          } else if (pair_level) {
            // Every match unit of the block receives the full membership:
            // sub-block restrictions are over positions in the full block's
            // sorted order, so each unit must see every member (the extra
            // shuffle volume is the price of pair-level balancing).
            const auto it =
                schedule.unit_sequences.find(BlockRefKey(f, node));
            if (it == schedule.unit_sequences.end()) continue;
            ResolveValue value;
            value.id = e.id;
            if (redundancy) {
              value.list =
                  BuildDominanceList(e, f, node, chains, forests, schedule);
            }
            for (const int64_t sq : it->second) {
              ctx->clock().Charge(kMapEmitCost);
              ctx->counters().Increment("map.emitted_pairs");
              ctx->counters().Increment("shuffle.bytes", WireSize(sq, value));
              ctx->Emit(sq, value);
            }
          } else {
            const int64_t sq = schedule.SequenceOf(f, node);
            if (sq < 0) continue;  // budget-truncated block
            ResolveValue value;
            value.id = e.id;
            if (redundancy) {
              value.list =
                  BuildDominanceList(e, f, node, chains, forests, schedule);
            }
            ctx->clock().Charge(kMapEmitCost);
            ctx->counters().Increment("map.emitted_pairs");
            ctx->counters().Increment("shuffle.bytes", WireSize(sq, value));
            ctx->Emit(sq, std::move(value));
          }
        }
      }
    };

    // A failed reduce attempt leaves partial events, resolved-pair sets and
    // buffered tree groups behind. The default abort hook resets its state
    // so the retry replays the task from scratch; with checkpoint_recovery
    // the job instead snapshots the state at each alpha-emission boundary
    // and the retry resumes from the latest snapshot.
    TaskStateRegistry<ResolveTaskState> states(reduce_tasks);
    CheckpointStore checkpoints;
    const bool persist = !options_.checkpoint_dir.empty();
    // Job supervision needs the snapshots too: a deadline cut or
    // quarantine restores the latest alpha-boundary state.
    const bool checkpointed = options_.checkpoint_recovery || persist ||
                              options_.cluster.control.active();
    if (checkpointed) {
      states.InstallWatermarkRecovery(&job, options_.alpha, &checkpoints);
      if (persist) {
        states.InstallJournalCodec(&checkpoints, EncodeResolveTaskDelta,
                                   ApplyResolveTaskDelta);
        checkpoints.ConfigurePersistence(options_.checkpoint_dir,
                                         "resolution", options_.resume,
                                         options_.crash_after_checkpoints);
      }
    } else {
      states.InstallAbortReset(&job);
    }

    // Resolves one scheduled block given its members (and their dominance
    // lists); shared by both emission modes. `unit` carries a pair-level
    // match task's sub-block or slice restriction (null: whole block).
    const auto resolve_block =
        [&, this](const BlockRef& ref, const MatchTask* unit,
                  const std::vector<const Entity*>& members,
                  const std::vector<const DominanceList*>& lists,
                  Job::ReduceContext* ctx) {
          if (options_.per_task_cost_budget > 0.0 &&
              ctx->clock().units() >= options_.per_task_cost_budget) {
            ctx->counters().Increment("reduce.blocks_skipped_budget");
            return;
          }
          const AnnotatedForest& forest =
              forests[static_cast<size_t>(ref.family)];
          const AnnotatedBlock& block = forest.block(ref.node);
          ResolveTaskState& state = states.at(ctx->task_id());

          ResolveRequest request;
          request.block = &members;
          request.sort_attribute = blocking_.SortAttribute(ref.family);
          request.match = &match_;
          request.options.window = block.window;
          request.options.termination_distinct =
              block.tree_root ? -1 : block.th;
          if (unit != nullptr) {
            if (unit->kind == MatchTask::Kind::kSub) {
              request.options.sub_a_lo = unit->a_lo;
              request.options.sub_a_hi = unit->a_hi;
              request.options.sub_b_lo = unit->b_lo;
              request.options.sub_b_hi = unit->b_hi;
            } else if (unit->kind == MatchTask::Kind::kSlice) {
              request.options.slice_begin = unit->begin;
              request.options.slice_end = unit->end;
            }
          }
          request.clock = &ctx->clock();

          std::function<bool(const Entity&, const Entity&)> predicate;
          if (redundancy) {
            state.dominance.Build(members, lists);
            predicate = [&](const Entity& a, const Entity& b) {
              return ShouldResolve(state.dominance.at(a.id),
                                   state.dominance.at(b.id), ref.family + 1,
                                   num_families);
            };
            request.should_resolve = &predicate;
          }

          const int32_t tree_dom = schedule.dominance.at(
              BlockRefKey(ref.family, forest.FindTreeRoot(ref.node)));
          request.resolved = &state.resolved[tree_dom];
          // Only a checkpoint restore ever undoes resolved pairs.
          if (checkpointed) request.resolved_log = &state.resolved_log;

          request.on_duplicate = EventSink(&state, &ctx->clock());

          const size_t log_start = state.LogEnd();
          const ResolveOutcome outcome = mechanism_.Resolve(request);
          state.CloseRun(tree_dom, log_start);
          RecordResolveOutcome(outcome, &state, &ctx->counters());
        };

    // Per-tree mode: resolves every pending scheduled block whose sequence
    // value is <= sq_limit (their trees are guaranteed buffered).
    const auto drain_pending = [&, this](int64_t sq_limit,
                                         Job::ReduceContext* ctx) {
      ResolveTaskState& state = states.at(ctx->task_id());
      const auto& blocks =
          schedule.task_blocks[static_cast<size_t>(ctx->task_id())];
      while (state.next_block < blocks.size()) {
        const BlockRef ref = blocks[state.next_block];
        const int64_t sq = schedule.SequenceOf(ref.family, ref.node);
        if (sq > sq_limit) break;
        ++state.next_block;
        const AnnotatedForest& forest =
            forests[static_cast<size_t>(ref.family)];
        const AnnotatedBlock& block = forest.block(ref.node);
        const int32_t tree_dom = schedule.dominance.at(
            BlockRefKey(ref.family, forest.FindTreeRoot(ref.node)));
        const auto buffered = state.tree_values.find(tree_dom);
        if (buffered == state.tree_values.end()) continue;  // empty tree group

        // Regroup: select the tree members belonging to this block.
        std::vector<const Entity*> members;
        std::vector<const DominanceList*> lists;
        for (const ResolveValue& value : buffered->second) {
          ctx->clock().Charge(kRegroupCostPerEntity);
          const Entity& e = dataset.entity(value.id);
          if (!blocking_.PathEquals(ref.family, block.id.level, e,
                                    block.id.path)) {
            continue;
          }
          members.push_back(&e);
          lists.push_back(&value.list);
        }
        resolve_block(ref, /*unit=*/nullptr, members, lists, ctx);
      }
    };

    const auto reduce_fn = [&](const int64_t& sq,
                               std::vector<ResolveValue>* values,
                               Job::ReduceContext* ctx) {
      if (per_tree) {
        ResolveTaskState& state = states.at(ctx->task_id());
        const BlockRef first = block_of_sequence.at(sq);
        const AnnotatedForest& forest =
            forests[static_cast<size_t>(first.family)];
        const int32_t tree_dom = schedule.dominance.at(
            BlockRefKey(first.family, forest.FindTreeRoot(first.node)));
        state.BufferTree(tree_dom, std::move(*values));
        drain_pending(sq, ctx);
        return;
      }
      const MatchTask* unit = nullptr;
      BlockRef ref;
      if (pair_level) {
        // Unit positions are the sequence layout: SQ = task * range + index.
        unit = &schedule.task_units[static_cast<size_t>(
            sq / schedule.range_per_task)][static_cast<size_t>(
            sq % schedule.range_per_task)];
        ref = unit->ref;
      } else {
        ref = block_of_sequence.at(sq);
      }
      std::vector<const Entity*> members;
      members.reserve(values->size());
      std::vector<const DominanceList*> lists;
      lists.reserve(values->size());
      for (const ResolveValue& value : *values) {
        members.push_back(&dataset.entity(value.id));
        lists.push_back(&value.list);
      }
      resolve_block(ref, unit, members, lists, ctx);
    };

    if (per_tree) {
      job.set_reduce_cleanup([&](Job::ReduceContext* ctx) {
        // Every tree group has arrived; flush the remaining blocks.
        drain_pending(std::numeric_limits<int64_t>::max(), ctx);
      });
    }

    Job::Result run = job.Run(dataset.entities(), map_fn, reduce_fn,
                              options_.cluster, submit_time);
    SurfaceQuarantinedIds(run.quarantined, dataset.entities(), &result);
    result.completeness.MergeFrom(run.completeness);
    if (!run.failed) {
      AccumulateReduceTasks(states.states(), run.timing, run.reduce_stats,
                            options_.cluster.seconds_per_cost_unit,
                            options_.alpha, &result, options_.cluster.trace);
    }
    return StageResultFromJob(std::move(run), "resolution job");
  });

  const PipelineResult pipe_result = pipe.Run(/*submit_time=*/0.0);

  // ErRunResult::counters reports the resolution job only (the statistics
  // job's counters are internal to preprocessing), so read the resolution
  // stage's report rather than the pipeline-wide merge.
  const StageReport* resolution = pipe_result.Find("resolution job");
  if (resolution != nullptr) {
    result.counters = resolution->result.counters;
    result.preprocessing_end = resolution->start;
  } else {
    result.preprocessing_end = pipe_result.end;
  }
  result.total_time = pipe_result.end;
  result.wall_seconds = pipe_result.wall_seconds;
  if (pipe_result.failed) {
    result.failed = true;
    result.error = pipe_result.error;
    return result;
  }
  FinalizeDuplicates(&result);
  return result;
}

}  // namespace progres
