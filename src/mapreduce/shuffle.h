#ifndef PROGRES_MAPREDUCE_SHUFFLE_H_
#define PROGRES_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/fault.h"
#include "mapreduce/serde.h"
#include "mapreduce/spill.h"

namespace progres {

// How the shuffle reads a key in place to sort and merge encoded records:
// a std::string key is compared as a view of its bytes inside the record;
// every other key type is decoded (an integer decodes without allocating).
// Either way the order is K's operator<, so sorting record views orders the
// records exactly as sorting decoded pairs would.
template <typename K>
struct EncodedKey {
  using View = K;
  static bool Read(std::string_view in, size_t* offset, View* view) {
    return KvCodec<K>::Decode(in, offset, view);
  }
};

template <>
struct EncodedKey<std::string> {
  using View = std::string_view;
  static bool Read(std::string_view in, size_t* offset, View* view) {
    return GetStringView(in, offset, view);
  }
};

// The shuffle of one MapReduce job as a first-class component: it owns the
// partition function, the map-side KV block buffers (one chain per reduce
// partition), the optional combiner, the spill-to-disk path that keeps a
// map task inside its memory budget, and the reduce-side gather/merge.
// MapReduceJob composes a Shuffle with the task-attempt runner and the
// timing model; tests can exercise the shuffle in isolation.
//
// Records are stored *encoded* and stay encoded until the reduce call:
// Emit serializes (key, value) through the KvCodec for K and V (serde.h)
// into fixed-size blocks. Sorting reads the keys in place (EncodedKey
// below) and moves small sort entries, never (key, value) pairs. When
// SpillConfig::enabled and a map task's buffered bytes cross its budget
// share, every partition's records are stably sorted by key and their
// bytes copied, in that order, into a spill-run file (spill.h) —
// byte-identical to decoding, stable-sorting and re-encoding, because the
// encoding is canonical. (A value is decoded there only into one reused
// slot, to find where its record ends; a combiner decodes one key group at
// a time.) GatherSorted then k-way merges the runs with the sorted
// in-memory tails on encoded keys and decodes each value once, moving it
// into its key group. The merge's tie-break — (map task, run order, memory
// last) — reproduces exactly the stable-sort order of the all-in-memory
// path, so outputs are byte-identical with spilling off or forced on.
//
// The component also *accounts* for the data crossing it: MeasureVolume
// reports the post-combine record count of a map task's output, and — when
// a wire-size function is configured — the serialized byte volume (without
// one, the actual encoded bytes). The runtime exports these under the
// reserved "mr.shuffle.records" and "mr.shuffle.bytes" counters, and the
// spill machinery under "mr.spill.*" (see counters.h).
template <typename K, typename V>
class Shuffle {
  static_assert(SerdeEncodable<K>,
                "Shuffle key type has no KvCodec specialization (serde.h); "
                "the encoded data plane cannot carry it");
  static_assert(SerdeEncodable<V>,
                "Shuffle value type has no KvCodec specialization (serde.h); "
                "the encoded data plane cannot carry it");

 public:
  using KV = std::pair<K, V>;
  using PartitionFn = std::function<int(const K&, int num_partitions)>;
  // Combiner: reduces one map task's values for a key into replacement
  // pairs appended to `out` (local aggregation before the shuffle).
  using CombineFn =
      std::function<void(const K&, std::vector<V>*, std::vector<KV>*)>;
  // Wire size of one (key, value) pair under the job's serde encoding;
  // feeds the "mr.shuffle.bytes" accounting. Optional — without it the
  // accounting falls back to the codecs' actual encoded size.
  using WireSizeFn = std::function<int64_t(const K&, const V&)>;

  // Memory policy of the map-side buffers, set by MapReduceJob::Run from
  // ClusterConfig::shuffle_budget. Disabled (the default) means buffers
  // grow without spilling — the reference in-memory behaviour.
  struct SpillConfig {
    bool enabled = false;
    // One map task's in-memory bound: the job-wide budget divided across
    // map tasks, floored at one block.
    int64_t task_buffer_bytes = 0;
    int64_t block_bytes = 256 * 1024;
    std::string dir;  // resolved, writable spill directory
    // Optional secondary spill directory (resolved). A map task whose
    // primary dir becomes unusable — planned ENOSPC, or a write-retry
    // budget exhausted — fails over here for the rest of the attempt
    // instead of failing the job. Empty means no fallback.
    std::string fallback_dir;
  };

  // One reduce partition gathered by GatherSorted: every distinct key in
  // key order with its values in the reference order (map task, emission
  // order). `records` counts the values across all groups.
  struct Group {
    K key;
    std::vector<V> values;
  };
  struct Gathered {
    std::vector<Group> groups;
    size_t records = 0;
  };

  // Merge accounting of one GatherSorted call, reconciled against the
  // "mr.spill.merge_passes" counter and kSpillMerge trace spans.
  struct GatherStats {
    int64_t runs_merged = 0;      // spill-run segments fed into the merge
    int64_t spilled_records = 0;  // records read back from those segments
    int64_t spilled_bytes = 0;    // their encoded bytes
    std::string error;            // non-empty on spill read/decode failure
  };

  explicit Shuffle(int num_partitions)
      : num_partitions_(std::max(1, num_partitions)),
        partition_([](const K& key, int r) {
          // FNV-1a over the encoded key: stable across standard libraries
          // and platforms, unlike std::hash. (MapOutput::Add hashes the
          // already-encoded key bytes instead of calling this, skipping
          // the second Encode; this lambda serves direct callers.)
          std::string encoded;
          KvCodec<K>::Encode(key, &encoded);
          return static_cast<int>(Fnv1a64(encoded) %
                                  static_cast<uint64_t>(r));
        }) {}

  int num_partitions() const { return num_partitions_; }
  bool has_combiner() const { return static_cast<bool>(combiner_); }

  void set_partitioner(PartitionFn fn) {
    partition_ = std::move(fn);
    default_partitioner_ = false;
  }
  void set_combiner(CombineFn fn) { combiner_ = std::move(fn); }
  void set_wire_size(WireSizeFn fn) { wire_size_ = std::move(fn); }
  void set_spill(SpillConfig config) { spill_ = std::move(config); }
  const SpillConfig& spill_config() const { return spill_; }

  // Map-side buffer of one map task: per-partition chains of encoded KV
  // blocks, spilled to sorted runs when the task's budget share fills.
  // Reset discards a failed attempt's pairs — and deletes its spill files —
  // so the retry starts from scratch. The destructor removes any remaining
  // run files (winning outputs live until the job's map contexts die).
  class MapOutput {
   public:
    // Storage-fault tallies of one map attempt's spill writes, merged into
    // the "mr.disk.*" counters from winning attempts only (Reset discards a
    // failed attempt's, like every other per-attempt artifact).
    struct DiskStats {
      int64_t write_errors = 0;     // failed write tries (injected or real)
      int64_t retries = 0;          // retried tries (== kSpillRetry spans)
      int64_t enospc = 0;           // planned full-disk discoveries
      int64_t torn_writes = 0;      // runs truncated after a "success"
      int64_t dir_failovers = 0;    // primary -> fallback switches
      double backoff_seconds = 0;   // modeled retry backoff, accumulated
    };

    MapOutput() = default;
    MapOutput(const MapOutput&) = delete;
    MapOutput& operator=(const MapOutput&) = delete;
    ~MapOutput() { DeleteSpillFiles(); }

    void Reset(const Shuffle& shuffle) { Reset(shuffle, task_); }
    void Reset(const Shuffle& shuffle, int task) {
      shuffle_ = &shuffle;
      task_ = task;
      DeleteSpillFiles();
      runs_.clear();
      buckets_.clear();
      buckets_.resize(static_cast<size_t>(shuffle.num_partitions_));
      spill_crc_.assign(static_cast<size_t>(shuffle.num_partitions_), 0);
      mem_bytes_ = 0;
      spilled_volume_ = {};
      spill_error_.clear();
      fault_plan_ = nullptr;
      generation_ = 0;
      use_fallback_ = false;
      disk_stats_ = {};
    }

    // Arms (or, with a null plan, disarms) storage-fault injection for the
    // attempt about to run. `generation` numbers this execution of the task
    // — attempt retries and barrier-triggered re-runs each bump it — so
    // every execution draws fresh fault decisions and names its run files
    // uniquely (no collision with a stale file from a killed attempt).
    // Call after Reset: Reset clears the fault context.
    void ConfigureSpill(const FaultPlan* plan, int generation) {
      fault_plan_ = plan != nullptr && plan->HasDiskFaults() ? plan : nullptr;
      generation_ = generation;
    }

    // Starts this execution directly on the fallback spill dir — the disk
    // circuit breaker's global failover (supervisor.h): once one task has
    // discovered the primary dir full, later tasks skip the per-task
    // ENOSPC discovery and go straight to the fallback. Counts as a
    // dir_failover like the discovery path (false with no fallback
    // configured, leaving the sticky spill_error_). Call after
    // ConfigureSpill; only meaningful under job supervision.
    bool StartOnFallback() {
      if (use_fallback_) return true;
      return FailOver();
    }

    // Routes one pair to its partition's block chain, encoded. Crossing the
    // task's budget share triggers a spill.
    void Add(K key, V value) {
      scratch_.clear();
      KvCodec<K>::Encode(key, &scratch_);
      // The default partitioner is FNV-1a over the encoded key — hash the
      // bytes just written instead of encoding the key a second time.
      const int r =
          shuffle_->default_partitioner_
              ? static_cast<int>(
                    Fnv1a64(scratch_) %
                    static_cast<uint64_t>(shuffle_->num_partitions_))
              : shuffle_->partition_(key, shuffle_->num_partitions_);
      Bucket& bucket = buckets_[static_cast<size_t>(r)];
      KvCodec<V>::Encode(value, &scratch_);
      AppendEncoded(&bucket, scratch_);
      ++bucket.records;
      bucket.wire_bytes += shuffle_->WireSize(key, value, scratch_);
      if (shuffle_->spill_.enabled && spill_error_.empty() &&
          mem_bytes_ >= shuffle_->spill_.task_buffer_bytes) {
        Spill();
      }
    }

    // The sorted runs this task has spilled so far (winning attempts only —
    // Reset removed any failed attempt's).
    const std::vector<SpillRun>& spill_runs() const { return runs_; }
    // Encoded bytes currently buffered in memory.
    int64_t buffered_bytes() const { return mem_bytes_; }
    // Non-empty after a spill write failed; the job fails with it at the
    // map barrier (the buffered data stayed in memory, but the budget
    // contract is broken and the configuration needs fixing, not retrying).
    const std::string& spill_error() const { return spill_error_; }
    // Storage-fault tallies of this attempt's spill writes so far.
    const DiskStats& disk_stats() const { return disk_stats_; }
    // This execution's generation number (set by ConfigureSpill).
    int generation() const { return generation_; }

   private:
    friend class Shuffle;

    // One partition's buffered records: sealed blocks of at most
    // block_bytes each (records never straddle blocks) plus running
    // post-combine tallies for the volume accounting.
    struct Bucket {
      std::vector<std::string> blocks;
      int64_t records = 0;
      int64_t wire_bytes = 0;
    };

    void AppendEncoded(Bucket* bucket, std::string_view record) {
      const size_t cap = static_cast<size_t>(
          std::max<int64_t>(1, shuffle_->spill_.block_bytes));
      if (bucket->blocks.empty() ||
          bucket->blocks.back().size() + record.size() > cap) {
        bucket->blocks.emplace_back();
        bucket->blocks.back().reserve(std::min(cap, record.size() + cap / 2));
      }
      bucket->blocks.back().append(record.data(), record.size());
      mem_bytes_ += static_cast<int64_t>(record.size());
    }

    // Sorts, combines and writes every partition's buffered records as one
    // spill run, then resets the in-memory chains. Without a combiner the
    // sorted records' bytes are copied as they are and the volume is the
    // bucket's running tally. On I/O failure the run is dropped, the
    // buffers stay, and spill_error_ carries the label.
    void Spill() {
      const size_t partitions = static_cast<size_t>(shuffle_->num_partitions_);
      std::vector<std::string> payloads(partitions);
      std::vector<int64_t> records(partitions, 0);
      Volume volume;
      RecordViews sorted;
      for (size_t r = 0; r < partitions; ++r) {
        const Bucket& bucket = buckets_[r];
        if (!SortedViews(bucket, &sorted)) {
          spill_error_ = kCorruptBlock;
          return;
        }
        std::string& payload = payloads[r];
        if (!shuffle_->combiner_) {
          payload.reserve(static_cast<size_t>(BucketBytes(bucket)));
          for (const ViewEntry& entry : sorted.entries) {
            payload.append(sorted.bytes[entry.index]);
          }
          records[r] = bucket.records;
          volume.bytes += bucket.wire_bytes;
        } else if (!shuffle_->CombineSorted(
                       sorted, [&](std::string_view encoded, const K& key,
                                   const V& value) {
                         payload.append(encoded);
                         ++records[r];
                         volume.bytes += shuffle_->WireSize(key, value,
                                                            encoded);
                       })) {
          spill_error_ = kCorruptBlock;
          return;
        }
        volume.records += records[r];
      }
      SpillRun run;
      if (!WriteRunWithFaults(payloads, records, &run)) return;
      for (size_t r = 0; r < partitions; ++r) {
        spill_crc_[r] = Crc32(payloads[r], spill_crc_[r]);
      }
      spilled_volume_.records += volume.records;
      spilled_volume_.bytes += volume.bytes;
      runs_.push_back(std::move(run));
      buckets_.clear();
      buckets_.resize(static_cast<size_t>(shuffle_->num_partitions_));
      mem_bytes_ = 0;
    }

    // Writes the run under the storage-fault discipline: a planned ENOSPC
    // on the task's first primary write fails the whole attempt over to the
    // fallback dir; transient write errors (injected by the plan, or real)
    // are retried with modeled backoff up to the plan's budget, exhaustion
    // failing over too; with no fallback available the attempt keeps the
    // existing sticky spill_error_ behaviour. After a successful *primary*
    // write the plan may materialize a torn write (truncated tail) or a
    // flipped byte — silent here, caught by ValidateSpillRun at the map
    // barrier. Fallback-dir writes are injection-free, so re-runs converge.
    // False when spill_error_ was set (the run is dropped, buffers stay).
    bool WriteRunWithFaults(const std::vector<std::string>& payloads,
                            const std::vector<int64_t>& records,
                            SpillRun* run) {
      const int run_index = static_cast<int>(runs_.size());
      const FaultPlan* plan = fault_plan_;
      if (!use_fallback_ && plan != nullptr &&
          plan->SpillPrimaryFull(task_)) {
        ++disk_stats_.enospc;
        if (!FailOver()) return false;
      }
      const int max_retries =
          plan != nullptr ? plan->max_spill_retries() : 0;
      int tries = 0;
      for (;;) {
        const bool injected_error =
            !use_fallback_ && plan != nullptr &&
            plan->SpillWriteError(task_, run_index, generation_, tries);
        const bool ok =
            !injected_error &&
            WriteSpillRun(NextSpillPath(dir(), task_, generation_), payloads,
                          records, run);
        if (ok) break;
        ++disk_stats_.write_errors;
        if (tries < max_retries) {
          ++tries;
          ++disk_stats_.retries;
          if (plan != nullptr) {
            disk_stats_.backoff_seconds += plan->spill_retry_backoff_seconds();
          }
          continue;
        }
        // Retry budget exhausted: this directory is unusable.
        if (!use_fallback_ && plan != nullptr) {
          if (!FailOver()) return false;
          tries = 0;
          continue;
        }
        spill_error_ = "spill write failed in " + dir() + " (map task " +
                       std::to_string(task_) + ")";
        return false;
      }
      if (!use_fallback_ && plan != nullptr && run->bytes > 0) {
        if (plan->SpillTornWrite(task_, run_index, generation_)) {
          if (TruncateSpillFile(run->path, run->bytes - 1)) {
            ++disk_stats_.torn_writes;
          }
        } else if (plan->SpillCorrupted(task_, run_index, generation_)) {
          CorruptSpillByte(
              run->path,
              static_cast<int64_t>(plan->SpillCorruptOffset(
                  task_, run_index, generation_,
                  static_cast<uint64_t>(run->bytes))));
        }
      }
      return true;
    }

    // Switches this attempt's remaining spill writes to the fallback dir.
    // Without one configured, sets the labelled sticky spill_error_.
    bool FailOver() {
      if (shuffle_->spill_.fallback_dir.empty()) {
        spill_error_ = "spill dir " + shuffle_->spill_.dir +
                       " unusable and no fallback spill dir configured "
                       "(map task " + std::to_string(task_) + ")";
        return false;
      }
      use_fallback_ = true;
      ++disk_stats_.dir_failovers;
      return true;
    }

    // The directory this attempt's next spill write targets.
    const std::string& dir() const {
      return use_fallback_ ? shuffle_->spill_.fallback_dir
                           : shuffle_->spill_.dir;
    }

    void DeleteSpillFiles() {
      for (const SpillRun& run : runs_) RemoveSpillFile(run.path);
      runs_.clear();
    }

    const Shuffle* shuffle_ = nullptr;
    int task_ = 0;
    std::vector<Bucket> buckets_;
    std::vector<SpillRun> runs_;
    // Per-partition CRC32 chained over the spilled segments, in run order;
    // PartitionChecksum continues it over the in-memory blocks.
    std::vector<uint32_t> spill_crc_;
    int64_t mem_bytes_ = 0;
    struct Volume {
      int64_t records = 0;
      int64_t bytes = 0;
    };
    Volume spilled_volume_;
    std::string spill_error_;
    std::string scratch_;
    // Storage-fault context of the current execution (see ConfigureSpill).
    const FaultPlan* fault_plan_ = nullptr;
    int generation_ = 0;
    bool use_fallback_ = false;
    DiskStats disk_stats_;
  };

  // Applies the combiner to every partition's *in-memory* records of a
  // finished map attempt (spilled runs were already combined when written):
  // values are grouped by key locally and replaced by the combiner's
  // output, re-encoded. No-op without a combiner.
  void Combine(MapOutput* out) const {
    if (!combiner_) return;
    RecordViews sorted;
    for (auto& bucket : out->buckets_) {
      typename MapOutput::Bucket combined;
      const bool ok =
          SortedViews(bucket, &sorted) &&
          CombineSorted(sorted, [&](std::string_view encoded, const K& key,
                                    const V& value) {
            out->AppendEncoded(&combined, encoded);
            ++combined.records;
            combined.wire_bytes += WireSize(key, value, encoded);
          });
      if (!ok) {
        if (out->spill_error_.empty()) out->spill_error_ = kCorruptBlock;
        out->mem_bytes_ -= BucketBytes(combined);
        return;
      }
      out->mem_bytes_ -= BucketBytes(bucket);
      bucket = std::move(combined);
    }
  }

  // Post-combine shuffle volume of one map task's output — what actually
  // crosses the map/reduce boundary, spilled runs included. `bytes` uses
  // the wire-size function when set, the encoded size otherwise.
  struct Volume {
    int64_t records = 0;
    int64_t bytes = 0;
  };
  Volume MeasureVolume(const MapOutput& out) const {
    Volume volume;
    volume.records = out.spilled_volume_.records;
    volume.bytes = out.spilled_volume_.bytes;
    for (const auto& bucket : out.buckets_) {
      volume.records += bucket.records;
      volume.bytes += bucket.wire_bytes;
    }
    return volume;
  }

  // CRC32 of partition `r` of a finished map output — the checksum shipped
  // alongside the partition so the consuming reduce task can verify its
  // fetch. With the encoded data plane the checksum covers the partition's
  // actual byte stream: the spilled segments (chained in write order) and
  // then the buffered blocks — exactly what a length-prefixed transfer
  // would put on the wire, detecting flipped payload bytes the same way
  // Hadoop's IFile checksum does.
  uint32_t PartitionChecksum(const MapOutput& out, int r) const {
    uint32_t crc = out.spill_crc_[static_cast<size_t>(r)];
    for (const std::string& block :
         out.buckets_[static_cast<size_t>(r)].blocks) {
      crc = Crc32(block, crc);
    }
    return crc;
  }

  // Reduce-side merge: partition `r` from every map output, grouped by key
  // in key order. Without spills this sorts the buffered records of every
  // map task, in map-task order, stably by key — the reference order, where
  // equal keys keep (map task, emission order). With spills it k-way merges
  // each task's runs (in run order, each already sorted and internally
  // stable) with its sorted in-memory tail, comparing encoded keys and
  // tie-breaking on source order — which reproduces the reference order bit
  // for bit, because a task's runs hold earlier emissions than its memory
  // tail. Each value is decoded once, into its group. Decoding never
  // consumes the underlying blocks or files, so a failed attempt's retry
  // simply gathers again — move-only payloads included.
  Gathered GatherSorted(const std::vector<MapOutput*>& maps, int r,
                        GatherStats* stats = nullptr) const {
    GatherStats local;
    GatherStats& gs = stats != nullptr ? *stats : local;
    gs = GatherStats{};
    const size_t part = static_cast<size_t>(r);
    bool any_runs = false;
    for (const MapOutput* m : maps) {
      if (!m->runs_.empty()) any_runs = true;
    }
    Gathered out;
    if (!any_runs) {
      // Fast path: the all-in-memory reference merge.
      std::vector<ValueEntry> decoded;
      size_t total = 0;
      for (const MapOutput* m : maps) {
        total += static_cast<size_t>(m->buckets_[part].records);
      }
      decoded.reserve(total);
      for (const MapOutput* m : maps) {
        if (!DecodeRecords(m->buckets_[part], &decoded)) {
          gs.error = kCorruptBlock;
          return {};
        }
      }
      SortEntries(&decoded);
      GroupSorted(&decoded, &out);
      return out;
    }

    // External merge: one source per non-empty spill segment plus one per
    // task's in-memory tail, in (map task, run order, memory last) order.
    std::vector<std::unique_ptr<MergeSource>> sources;
    for (const MapOutput* m : maps) {
      for (const SpillRun& run : m->runs_) {
        const SpillSegment& segment = run.segments[part];
        if (segment.bytes == 0) continue;
        auto source = std::make_unique<MergeSource>();
        source->reader = std::make_unique<SpillSegmentReader>(
            run.path, segment,
            static_cast<size_t>(std::max<int64_t>(1, spill_.block_bytes)));
        sources.push_back(std::move(source));
        ++gs.runs_merged;
        gs.spilled_records += segment.records;
        gs.spilled_bytes += segment.bytes;
      }
      const auto& bucket = m->buckets_[part];
      if (bucket.records > 0) {
        auto source = std::make_unique<MergeSource>();
        if (!DecodeRecords(bucket, &source->mem)) {
          gs.error = kCorruptBlock;
          return {};
        }
        SortEntries(&source->mem);
        sources.push_back(std::move(source));
      }
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      sources[i]->index = i;
      if (!AdvanceSource(sources[i].get(), &gs.error)) {
        if (!gs.error.empty()) return {};
      }
    }
    const auto after = [](const MergeSource* a, const MergeSource* b) {
      // True when `a` pops after `b`: larger key, or equal key from a later
      // source (the stability tie-break).
      if (b->key < a->key) return true;
      if (a->key < b->key) return false;
      return a->index > b->index;
    };
    std::priority_queue<MergeSource*, std::vector<MergeSource*>,
                        decltype(after)>
        heap(after);
    for (const auto& source : sources) {
      if (source->has) heap.push(source.get());
    }
    while (!heap.empty()) {
      MergeSource* source = heap.top();
      heap.pop();
      V* slot = NextValueSlot(source->key, &out);
      if (source->reader != nullptr) {
        *slot = std::move(source->value);
        source->reader->Consume(source->size);
      } else {
        *slot = std::move(source->mem[source->mem_pos++].value);
      }
      if (AdvanceSource(source, &gs.error)) {
        heap.push(source);
      } else if (!gs.error.empty()) {
        return {};
      }
    }
    return out;
  }

  // Invokes fn(key, &values) once per group of `gathered`, in key order.
  // Groups whose first value sits at or past position `limit` of the
  // partition's records are not visited — the injected-failure cutoff of a
  // failing reduce attempt.
  template <typename Fn>
  static void ForEachGroup(Gathered* gathered, size_t limit, Fn&& fn) {
    size_t start = 0;
    for (Group& group : gathered->groups) {
      if (start >= limit) break;
      start += group.values.size();
      fn(group.key, &group.values);
    }
  }

 private:
  using KeyView = typename EncodedKey<K>::View;
  static constexpr const char* kCorruptBlock =
      "corrupt in-memory shuffle block";

  // Map-side sort entry of one buffered record: its key, read in place,
  // and its position in emission order; the value stays encoded.
  struct ViewEntry {
    KeyView key{};
    size_t index = 0;
  };

  // A partition's records for a map-side sort: their encoded bytes in
  // emission order, and sort entries.
  struct RecordViews {
    std::vector<std::string_view> bytes;
    std::vector<ViewEntry> entries;
  };

  // Reduce-side sort entry: the key, read in place, and the value, decoded
  // in emission order (a sequential pass over the blocks) and moved out
  // into its group after the sort.
  struct ValueEntry {
    KeyView key{};
    V value{};
  };

  // One sorted stream feeding the k-way merge: a spill segment (buffered
  // file reads) or a task's sorted in-memory tail. `key` is the current
  // record's; a spill source has also decoded its value (the only way to
  // find where the record ends) and views the reader's window, which stays
  // put until the record is consumed.
  struct MergeSource {
    std::unique_ptr<SpillSegmentReader> reader;
    std::vector<ValueEntry> mem;
    size_t mem_pos = 0;
    size_t index = 0;
    KeyView key{};
    V value{};
    size_t size = 0;
    bool has = false;
  };

  // Reads the next record's key (and, from a spill, its value) into
  // `source`. False at end of stream or on error (`*error` then labels the
  // corrupt/unreadable spill).
  static bool AdvanceSource(MergeSource* source, std::string* error) {
    if (source->reader == nullptr) {
      source->has = source->mem_pos < source->mem.size();
      if (source->has) source->key = source->mem[source->mem_pos].key;
      return source->has;
    }
    SpillSegmentReader& reader = *source->reader;
    for (;;) {
      const std::string_view window = reader.window();
      size_t offset = 0;
      if (EncodedKey<K>::Read(window, &offset, &source->key) &&
          KvCodec<V>::Decode(window, &offset, &source->value)) {
        source->size = offset;
        source->has = true;
        return true;
      }
      // A failed decode mid-window means the record straddles the chunk
      // boundary: refill and retry. At end of segment, leftover bytes (or
      // an I/O error) mean corruption.
      if (!reader.Refill()) {
        source->has = false;
        if (!reader.ok()) {
          *error = "spill read failed";
        } else if (!reader.window().empty()) {
          *error = "corrupt spill record";
        }
        return false;
      }
    }
  }

  // Walks a bucket's block chain in emission order: reads each record's key
  // in place, decodes its value into *slot(key) — which is also how the
  // record's end is found — and passes the record's bytes to done(bytes).
  // Blocks end at record boundaries, so a record that fails to decode is a
  // logic error reported as false rather than dropped data.
  template <typename Slot, typename Done>
  static bool ScanRecords(const typename MapOutput::Bucket& bucket,
                          Slot&& slot, Done&& done) {
    for (const std::string& block : bucket.blocks) {
      const std::string_view bytes(block);
      size_t offset = 0;
      while (offset < bytes.size()) {
        const size_t begin = offset;
        KeyView key{};
        if (!EncodedKey<K>::Read(bytes, &offset, &key) ||
            !KvCodec<V>::Decode(bytes, &offset, slot(key))) {
          return false;
        }
        done(bytes.substr(begin, offset - begin));
      }
    }
    return true;
  }

  template <typename Entry>
  static void SortEntries(std::vector<Entry>* entries) {
    std::stable_sort(entries->begin(), entries->end(),
                     [](const Entry& a, const Entry& b) {
                       return a.key < b.key;
                     });
  }

  // Replaces `*views` with the bucket's records, entries sorted. Values
  // are decoded only to find where each record ends, into one reused slot.
  static bool SortedViews(const typename MapOutput::Bucket& bucket,
                          RecordViews* views) {
    views->bytes.clear();
    views->entries.clear();
    views->bytes.reserve(static_cast<size_t>(bucket.records));
    views->entries.reserve(static_cast<size_t>(bucket.records));
    V scratch{};
    if (!ScanRecords(
            bucket,
            [&](const KeyView& key) {
              views->entries.push_back({key, views->bytes.size()});
              return &scratch;
            },
            [&](std::string_view record) { views->bytes.push_back(record); })) {
      return false;
    }
    SortEntries(&views->entries);
    return true;
  }

  // Appends the bucket's records to `*entries`, unsorted.
  static bool DecodeRecords(const typename MapOutput::Bucket& bucket,
                            std::vector<ValueEntry>* entries) {
    entries->reserve(entries->size() + static_cast<size_t>(bucket.records));
    return ScanRecords(
        bucket,
        [&](const KeyView& key) {
          ValueEntry& entry = entries->emplace_back();
          entry.key = key;
          return &entry.value;
        },
        [](std::string_view) {});
  }

  // The value slot of the next record of a gather, whose key is `key`:
  // appended to the last group when the key equals its key, else to a new
  // group.
  static V* NextValueSlot(const KeyView& key, Gathered* out) {
    if (out->groups.empty() || out->groups.back().key < key ||
        key < out->groups.back().key) {
      out->groups.push_back(Group{K(key), {}});
    }
    ++out->records;
    return &out->groups.back().values.emplace_back();
  }

  // Groups sorted entries by key, moving each value into its group (sized
  // up front: the group's extent is known after the sort).
  static void GroupSorted(std::vector<ValueEntry>* entries, Gathered* out) {
    out->records = entries->size();
    for (size_t i = 0; i < entries->size();) {
      size_t j = i + 1;
      while (j < entries->size() && !((*entries)[i].key < (*entries)[j].key)) {
        ++j;
      }
      Group& group = out->groups.emplace_back();
      group.key = K((*entries)[i].key);
      group.values.resize(j - i);
      for (size_t k = i; k < j; ++k) {
        group.values[k - i] = std::move((*entries)[k].value);
      }
      i = j;
    }
  }

  // Runs the combiner over sorted records, one call per key group with the
  // group's decoded values, and hands each output pair to sink(encoded
  // bytes, key, value) in output order. False on a record that fails to
  // decode.
  template <typename Sink>
  bool CombineSorted(const RecordViews& sorted, Sink&& sink) const {
    const std::vector<ViewEntry>& entries = sorted.entries;
    std::vector<V> values;
    std::vector<KV> combined;
    std::string encoded;
    for (size_t i = 0; i < entries.size();) {
      size_t j = i + 1;
      while (j < entries.size() && !(entries[i].key < entries[j].key)) ++j;
      values.clear();
      values.resize(j - i);
      for (size_t k = i; k < j; ++k) {
        const std::string_view record = sorted.bytes[entries[k].index];
        size_t offset = 0;
        KeyView key{};
        if (!EncodedKey<K>::Read(record, &offset, &key) ||
            !KvCodec<V>::Decode(record, &offset, &values[k - i]) ||
            offset != record.size()) {
          return false;
        }
      }
      combined.clear();
      combiner_(K(entries[i].key), &values, &combined);
      for (const KV& kv : combined) {
        encoded.clear();
        KvCodec<K>::Encode(kv.first, &encoded);
        KvCodec<V>::Encode(kv.second, &encoded);
        sink(std::string_view(encoded), kv.first, kv.second);
      }
      i = j;
    }
    return true;
  }

  // Shuffle-volume bytes of one (key, value) pair whose encoding is
  // `encoded`: the wire-size function when set, else the encoded size.
  int64_t WireSize(const K& key, const V& value,
                   std::string_view encoded) const {
    return wire_size_ ? wire_size_(key, value)
                      : static_cast<int64_t>(encoded.size());
  }

  static int64_t BucketBytes(const typename MapOutput::Bucket& bucket) {
    int64_t bytes = 0;
    for (const std::string& block : bucket.blocks) {
      bytes += static_cast<int64_t>(block.size());
    }
    return bytes;
  }

  int num_partitions_;
  PartitionFn partition_;
  // True until set_partitioner replaces the FNV-1a default; lets Add hash
  // the encoded key bytes it just wrote rather than re-encoding the key.
  bool default_partitioner_ = true;
  CombineFn combiner_;
  WireSizeFn wire_size_;
  SpillConfig spill_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_SHUFFLE_H_
