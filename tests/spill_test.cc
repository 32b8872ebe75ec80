// Out-of-core shuffle suite: the memory-budgeted spill path must be a pure
// implementation detail. Forcing every map task to spill must leave a job's
// outputs, user counters, and simulated timeline byte-identical to the
// all-in-memory run on both backends; the "mr.spill.*" counters must
// reconcile exactly with the spill-write and spill-merge trace spans; spill
// run files must be cleaned up; and an unusable budget must fail the job
// with a labelled error instead of wedging it.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/cluster.h"
#include "mapreduce/executor.h"
#include "mapreduce/job.h"
#include "common/random.h"
#include "mapreduce/serde.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "mapreduce/trace.h"
#include "mr_test_util.h"

namespace progres {
namespace {

using testing_util::CountersMinusMr;

ClusterConfig TestCluster(ExecutionBackend backend) {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.backend = backend;
  return cluster;
}

// A budget small enough that every map task spills on this suite's inputs:
// one byte of headroom, 4 KiB blocks (the runtime's floor).
ShuffleBudget TinyBudget() {
  ShuffleBudget budget;
  budget.max_bytes = 1;
  budget.block_bytes = 4096;
  return budget;
}

// The suite's reference job: word count over synthetic lines, sized so a
// tiny budget forces several spill runs per map task.
std::vector<std::string> WordLines(int lines) {
  std::vector<std::string> input;
  input.reserve(static_cast<size_t>(lines));
  for (int i = 0; i < lines; ++i) {
    std::string line;
    for (int w = 0; w < 8; ++w) {
      if (w > 0) line.push_back(' ');
      line += "word" + std::to_string((i * 8 + w * 13) % 50);
    }
    input.push_back(std::move(line));
  }
  return input;
}

using WordJob = MapReduceJob<std::string, std::string, int64_t>;

void WordMap(const std::string& line, WordJob::MapContext* ctx) {
  size_t start = 0;
  while (start < line.size()) {
    size_t end = line.find(' ', start);
    if (end == std::string::npos) end = line.size();
    ctx->Emit(line.substr(start, end - start), 1);
    start = end + 1;
  }
}

void WordReduce(const std::string& key, std::vector<int64_t>* values,
                WordJob::ReduceContext* ctx) {
  int64_t sum = 0;
  for (int64_t v : *values) sum += v;
  ctx->Emit(key, sum);
}

WordJob::Result RunWordCount(const ClusterConfig& cluster,
                             bool with_combiner = false, int lines = 400) {
  WordJob job(4, 3);
  if (with_combiner) {
    job.set_combiner(
        [](const std::string& key, std::vector<int64_t>* values,
           std::vector<std::pair<std::string, int64_t>>* out) {
          int64_t sum = 0;
          for (int64_t v : *values) sum += v;
          out->emplace_back(key, sum);
        });
  }
  return job.Run(WordLines(lines), WordMap, WordReduce, cluster);
}

// Canonical text form of everything a run reports except the runtime's own
// spill bookkeeping (which legitimately differs between the two runs).
std::string DumpRun(const WordJob::Result& result) {
  std::string out;
  out += "failed=" + std::to_string(result.failed ? 1 : 0) + "\n";
  out += "end=" + std::to_string(result.timing.end) + "\n";
  for (const auto& [k, v] : result.outputs) {
    out += k + "=" + std::to_string(v) + "\n";
  }
  for (const auto& [name, value] : CountersMinusMr(result.counters)) {
    out += "counter " + name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

// ------------------------------------------------- output equivalence

TEST(SpillTest, ForcedSpillOutputsByteIdenticalSimulated) {
  ClusterConfig memory_cluster = TestCluster(ExecutionBackend::kSimulated);
  const WordJob::Result in_memory = RunWordCount(memory_cluster);
  ASSERT_FALSE(in_memory.failed) << in_memory.error;
  EXPECT_EQ(in_memory.counters.Get("mr.spill.runs"), 0);

  ClusterConfig spill_cluster = TestCluster(ExecutionBackend::kSimulated);
  spill_cluster.shuffle_budget = TinyBudget();
  const WordJob::Result spilled = RunWordCount(spill_cluster);
  ASSERT_FALSE(spilled.failed) << spilled.error;
  EXPECT_GT(spilled.counters.Get("mr.spill.runs"), 0);
  EXPECT_GT(spilled.counters.Get("mr.spill.records"), 0);
  EXPECT_GT(spilled.counters.Get("mr.spill.bytes"), 0);
  EXPECT_GT(spilled.counters.Get("mr.spill.merge_passes"), 0);

  EXPECT_EQ(DumpRun(in_memory), DumpRun(spilled));
}

TEST(SpillTest, ForcedSpillOutputsByteIdenticalThreaded) {
  ClusterConfig memory_cluster = TestCluster(ExecutionBackend::kThreaded);
  const WordJob::Result in_memory = RunWordCount(memory_cluster);
  ASSERT_FALSE(in_memory.failed) << in_memory.error;

  ClusterConfig spill_cluster = TestCluster(ExecutionBackend::kThreaded);
  spill_cluster.shuffle_budget = TinyBudget();
  const WordJob::Result spilled = RunWordCount(spill_cluster);
  ASSERT_FALSE(spilled.failed) << spilled.error;
  EXPECT_GT(spilled.counters.Get("mr.spill.runs"), 0);

  EXPECT_EQ(DumpRun(in_memory), DumpRun(spilled));
}

TEST(SpillTest, CombinerAppliesToSpillRunsAndMemoryTail) {
  // The combiner collapses duplicate keys inside each spill run, so the
  // combined spilled run must move strictly fewer records than the
  // combiner-free one — while producing identical reduce outputs.
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinyBudget();
  const WordJob::Result plain = RunWordCount(cluster, /*with_combiner=*/false);
  const WordJob::Result combined =
      RunWordCount(cluster, /*with_combiner=*/true);
  ASSERT_FALSE(plain.failed) << plain.error;
  ASSERT_FALSE(combined.failed) << combined.error;
  EXPECT_GT(combined.counters.Get("mr.spill.runs"), 0);
  EXPECT_LT(combined.counters.Get("mr.spill.records"),
            plain.counters.Get("mr.spill.records"));

  std::map<std::string, int64_t> plain_counts(plain.outputs.begin(),
                                              plain.outputs.end());
  std::map<std::string, int64_t> combined_counts(combined.outputs.begin(),
                                                 combined.outputs.end());
  EXPECT_EQ(plain_counts, combined_counts);

  // An in-memory combined run is the reference the spilled one must match.
  const WordJob::Result reference = RunWordCount(
      TestCluster(ExecutionBackend::kSimulated), /*with_combiner=*/true);
  ASSERT_FALSE(reference.failed) << reference.error;
  EXPECT_EQ(DumpRun(reference), DumpRun(combined));
}

// ------------------------------------------------- counter/span ledger

struct SpillSpanTally {
  int64_t writes = 0;
  int64_t write_records = 0;
  int64_t write_bytes = 0;
  int64_t merges = 0;
};

SpillSpanTally TallySpillSpans(const std::vector<TraceSpan>& spans) {
  SpillSpanTally tally;
  for (const TraceSpan& span : spans) {
    if (span.kind == SpanKind::kSpillWrite) {
      ++tally.writes;
      EXPECT_GE(span.records_in, 0);
      EXPECT_GE(span.bytes, 0);
      tally.write_records += span.records_in;
      tally.write_bytes += span.bytes;
    } else if (span.kind == SpanKind::kSpillMerge) {
      ++tally.merges;
      EXPECT_GT(span.records_in, 0);
    }
  }
  return tally;
}

void CheckSpillLedger(ExecutionBackend backend) {
  TraceRecorder recorder;
  ClusterConfig cluster = TestCluster(backend);
  cluster.shuffle_budget = TinyBudget();
  cluster.trace = &recorder;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;

  const SpillSpanTally tally = TallySpillSpans(recorder.spans());
  EXPECT_EQ(tally.writes, result.counters.Get("mr.spill.runs"));
  EXPECT_EQ(tally.write_records, result.counters.Get("mr.spill.records"));
  EXPECT_EQ(tally.write_bytes, result.counters.Get("mr.spill.bytes"));
  EXPECT_EQ(tally.merges, result.counters.Get("mr.spill.merge_passes"));
  EXPECT_GT(tally.writes, 0);
}

TEST(SpillTest, CountersReconcileWithSpansSimulated) {
  CheckSpillLedger(ExecutionBackend::kSimulated);
}

TEST(SpillTest, CountersReconcileWithSpansThreaded) {
  CheckSpillLedger(ExecutionBackend::kThreaded);
}

TEST(SpillTest, NoSpillSpansWithoutBudget) {
  TraceRecorder recorder;
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.trace = &recorder;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;
  const SpillSpanTally tally = TallySpillSpans(recorder.spans());
  EXPECT_EQ(tally.writes, 0);
  EXPECT_EQ(tally.merges, 0);
  EXPECT_EQ(result.counters.Get("mr.spill.merge_passes"), 0);
}

// ------------------------------------------------- spill run hygiene

TEST(SpillTest, SpillRunFilesAreDeletedAfterTheJob) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "progres_spill_test_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinyBudget();
  cluster.shuffle_budget.spill_dir = dir.string();
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_GT(result.counters.Get("mr.spill.runs"), 0);

  int leftovers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++leftovers;
    ADD_FAILURE() << "leftover spill file: " << entry.path();
  }
  EXPECT_EQ(leftovers, 0);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- budget failure modes

TEST(SpillTest, UnusableSpillDirFailsTheJobWithALabel) {
  // Point the spill dir at a regular file: ResolveSpillDir cannot create or
  // write into it, so submission must fail cleanly before any map work.
  const std::filesystem::path blocker =
      std::filesystem::temp_directory_path() / "progres_spill_test_blocker";
  std::filesystem::remove_all(blocker);
  { std::ofstream out(blocker); out << "x"; }

  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinyBudget();
  cluster.shuffle_budget.spill_dir = blocker.string();
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("shuffle budget unusable"), std::string::npos)
      << result.error;
  std::filesystem::remove(blocker);
}

TEST(SpillTest, NegativeBudgetIsAConfigError) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget.max_bytes = -1;
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("shuffle_budget"), std::string::npos)
      << result.error;
}

TEST(SpillTest, ZeroBlockBytesIsAConfigError) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget.max_bytes = 1 << 20;
  cluster.shuffle_budget.block_bytes = 0;
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("block_bytes"), std::string::npos)
      << result.error;
}

// ------------------------------------------------- large-budget no-op

TEST(SpillTest, GenerousBudgetNeverSpills) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget.max_bytes = int64_t{1} << 30;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_EQ(result.counters.Get("mr.spill.runs"), 0);
  EXPECT_EQ(result.counters.Get("mr.spill.merge_passes"), 0);
}

// ------------------------------------- encoded records vs the reference

// The reference data plane that spilling and merging on encoded records
// must reproduce byte for byte: pairs decoded, stably sorted by key and
// encoded again.
template <typename K, typename V>
std::string EncodeStableSorted(std::vector<std::pair<K, V>> pairs) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                     return a.first < b.first;
                   });
  std::string out;
  for (const auto& [key, value] : pairs) {
    KvCodec<K>::Encode(key, &out);
    KvCodec<V>::Encode(value, &out);
  }
  return out;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Feeds `inputs` (one pair list per map task) through a Shuffle with the
// default partitioner, spilling whenever a task's buffered bytes reach
// `budget` (never when `budget` is 0), with 64-byte blocks so merged
// records straddle read chunks. Every run file must equal the reference
// encoding of the records it took, partition after partition, and every
// gathered partition must equal the reference over all tasks' records in
// (map task, emission) order.
template <typename K, typename V>
void ExpectMatchesDecodeSortEncode(
    const std::vector<std::vector<std::pair<K, V>>>& inputs, int partitions,
    int64_t budget) {
  using TestShuffle = Shuffle<K, V>;
  TestShuffle shuffle(partitions);
  typename TestShuffle::SpillConfig spill;
  spill.enabled = budget > 0;
  spill.task_buffer_bytes = budget;
  spill.block_bytes = 64;
  std::string error;
  spill.dir = ResolveSpillDir("", &error);
  ASSERT_FALSE(spill.dir.empty()) << error;
  shuffle.set_spill(spill);

  const auto partition_of = [&](const K& key) {
    std::string encoded;
    KvCodec<K>::Encode(key, &encoded);
    return static_cast<size_t>(Fnv1a64(encoded) %
                               static_cast<uint64_t>(partitions));
  };
  std::vector<std::vector<std::pair<K, V>>> all(
      static_cast<size_t>(partitions));
  std::vector<std::unique_ptr<typename TestShuffle::MapOutput>> outputs;
  for (size_t task = 0; task < inputs.size(); ++task) {
    auto out = std::make_unique<typename TestShuffle::MapOutput>();
    out->Reset(shuffle, static_cast<int>(task));
    std::vector<std::vector<std::pair<K, V>>> pending(
        static_cast<size_t>(partitions));
    std::vector<std::string> expected_runs;
    int64_t buffered = 0;
    for (const auto& [key, value] : inputs[task]) {
      out->Add(key, value);
      const size_t r = partition_of(key);
      pending[r].emplace_back(key, value);
      all[r].emplace_back(key, value);
      std::string encoded;
      KvCodec<K>::Encode(key, &encoded);
      KvCodec<V>::Encode(value, &encoded);
      buffered += static_cast<int64_t>(encoded.size());
      if (spill.enabled && buffered >= budget) {
        std::string run;
        for (auto& records : pending) {
          run += EncodeStableSorted(records);
          records.clear();
        }
        expected_runs.push_back(std::move(run));
        buffered = 0;
      }
    }
    ASSERT_TRUE(out->spill_error().empty()) << out->spill_error();
    ASSERT_EQ(out->spill_runs().size(), expected_runs.size());
    for (size_t i = 0; i < expected_runs.size(); ++i) {
      EXPECT_EQ(ReadWholeFile(out->spill_runs()[i].path), expected_runs[i])
          << "map task " << task << ", run " << i;
    }
    outputs.push_back(std::move(out));
  }

  std::vector<typename TestShuffle::MapOutput*> maps;
  for (auto& out : outputs) maps.push_back(out.get());
  for (int r = 0; r < partitions; ++r) {
    typename TestShuffle::GatherStats stats;
    const typename TestShuffle::Gathered gathered =
        shuffle.GatherSorted(maps, r, &stats);
    ASSERT_TRUE(stats.error.empty()) << stats.error;
    std::string actual;
    size_t records = 0;
    for (size_t g = 0; g < gathered.groups.size(); ++g) {
      const auto& group = gathered.groups[g];
      ASSERT_FALSE(group.values.empty());
      if (g > 0) {
        EXPECT_LT(gathered.groups[g - 1].key, group.key);
      }
      for (const V& value : group.values) {
        KvCodec<K>::Encode(group.key, &actual);
        KvCodec<V>::Encode(value, &actual);
        ++records;
      }
    }
    EXPECT_EQ(records, gathered.records);
    EXPECT_EQ(records, all[static_cast<size_t>(r)].size());
    EXPECT_EQ(actual, EncodeStableSorted(all[static_cast<size_t>(r)]))
        << "partition " << r;
  }
}

// Three map tasks of many records over few distinct keys, so equal keys
// meet inside a run, across runs and across tasks.
std::vector<std::vector<std::pair<std::string, int64_t>>> StringKeyedInputs() {
  Rng rng(2024);
  std::vector<std::vector<std::pair<std::string, int64_t>>> inputs(3);
  for (auto& task : inputs) {
    for (int i = 0; i < 1500; ++i) {
      std::string key = "k";
      key += std::to_string(rng.UniformU64(12));
      if (rng.Bernoulli(0.2)) key += std::string(rng.UniformU64(40), 'x');
      task.emplace_back(std::move(key), rng.UniformInt(-1000000, 1000000));
    }
  }
  return inputs;
}

std::vector<std::vector<std::pair<int64_t, std::string>>> IntKeyedInputs() {
  Rng rng(2025);
  std::vector<std::vector<std::pair<int64_t, std::string>>> inputs(3);
  for (auto& task : inputs) {
    for (int i = 0; i < 1500; ++i) {
      // Negative keys take the 10-byte varint form.
      const int64_t key = rng.UniformInt(-5, 9);
      std::string value(rng.UniformU64(20), 'a');
      for (char& c : value) c = static_cast<char>('a' + rng.UniformU64(26));
      task.emplace_back(key, std::move(value));
    }
  }
  return inputs;
}

TEST(SpillTest, StringKeyedRunsAndMergeMatchDecodeSortEncode) {
  ExpectMatchesDecodeSortEncode(StringKeyedInputs(), 3, /*budget=*/1500);
}

TEST(SpillTest, StringKeyedInMemoryGatherMatchesDecodeSortEncode) {
  ExpectMatchesDecodeSortEncode(StringKeyedInputs(), 3, /*budget=*/0);
}

TEST(SpillTest, IntKeyedRunsAndMergeMatchDecodeSortEncode) {
  ExpectMatchesDecodeSortEncode(IntKeyedInputs(), 4, /*budget=*/1200);
}

TEST(SpillTest, IntKeyedInMemoryGatherMatchesDecodeSortEncode) {
  ExpectMatchesDecodeSortEncode(IntKeyedInputs(), 4, /*budget=*/0);
}

}  // namespace
}  // namespace progres
