#include <algorithm>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "eval/recall_curve.h"
#include "mechanism/psnm.h"
#include "mechanism/sorted_neighbor.h"

namespace progres {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  return cluster;
}

BlockingConfig PublicationBlocking() {
  return BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                         {"Y", kPubAbstract, {3, 5}, -1},
                         {"Z", kPubVenue, {3, 5}, -1}});
}

MatchFunction PublicationMatch() {
  return MatchFunction(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
}

struct Fixture {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking = PublicationBlocking();
  MatchFunction match = PublicationMatch();
  SortedNeighborMechanism sn;
  ProbabilityModel prob;

  explicit Fixture(int64_t n = 2500) {
    PublicationConfig train_gen;
    train_gen.num_entities = n / 4;
    train_gen.seed = 90;
    train = GeneratePublications(train_gen);
    PublicationConfig gen;
    gen.num_entities = n;
    gen.seed = 91;
    data = GeneratePublications(gen);
    prob = ProbabilityModel::Train(train.dataset, train.truth, blocking);
  }

  ProgressiveErOptions Options() const {
    ProgressiveErOptions options;
    options.cluster = TestCluster();
    return options;
  }
};

TEST(ProgressiveErTest, ReachesHighFinalRecall) {
  const Fixture fx;
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ErRunResult result = er.Run(fx.data.dataset);
  const RecallCurve curve =
      RecallCurve::FromEvents(result.events, fx.data.truth);
  // Root blocks are resolved fully, so recall approaches the match
  // function's ceiling (paper: 0.99 on CiteSeerX).
  EXPECT_GT(curve.final_recall(), 0.85);
}

TEST(ProgressiveErTest, EventsAreTimedWithinRun) {
  const Fixture fx;
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ErRunResult result = er.Run(fx.data.dataset);
  EXPECT_GT(result.preprocessing_end, 0.0);
  for (const DuplicateEvent& event : result.events) {
    EXPECT_GE(event.time, result.preprocessing_end);
    EXPECT_LE(event.time, result.total_time + 1e-9);
  }
}

TEST(ProgressiveErTest, Deterministic) {
  const Fixture fx(1500);
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ErRunResult a = er.Run(fx.data.dataset);
  const ErRunResult b = er.Run(fx.data.dataset);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].pair, b.events[i].pair);
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time);
  }
}

TEST(ProgressiveErTest, RedundancyEliminationSavesComparisons) {
  const Fixture fx;
  ProgressiveErOptions with = fx.Options();
  with.redundancy_elimination = true;
  ProgressiveErOptions without = fx.Options();
  without.redundancy_elimination = false;
  const ErRunResult on =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, with)
          .Run(fx.data.dataset);
  const ErRunResult off =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, without)
          .Run(fx.data.dataset);
  EXPECT_LT(on.comparisons, off.comparisons);
  // Responsibility assignment ignores window reach, so a shared pair can be
  // skipped everywhere except a tree whose sort order never brings it within
  // the window. The recall cost of eliminating redundancy must stay small
  // relative to the comparisons saved.
  const RecallCurve curve_on = RecallCurve::FromEvents(on.events, fx.data.truth);
  const RecallCurve curve_off =
      RecallCurve::FromEvents(off.events, fx.data.truth);
  EXPECT_LE(curve_on.final_recall(), curve_off.final_recall() + 1e-9);
  EXPECT_GT(curve_on.final_recall(), curve_off.final_recall() - 0.08);
}

TEST(ProgressiveErTest, PreprocessExposesScheduleAndForests) {
  const Fixture fx(1200);
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ProgressiveEr::Preprocessed pre = er.Preprocess(fx.data.dataset);
  EXPECT_EQ(pre.forests.size(), 3u);
  EXPECT_GT(pre.end_time, 0.0);
  EXPECT_EQ(pre.schedule.num_reduce_tasks, TestCluster().reduce_slots());
  size_t scheduled = 0;
  for (const auto& blocks : pre.schedule.task_blocks) scheduled += blocks.size();
  EXPECT_GT(scheduled, 0u);
}

TEST(ProgressiveErTest, WorksWithPsnm) {
  const Fixture fx(1500);
  const PsnmMechanism psnm;
  const ProgressiveEr er(fx.blocking, fx.match, psnm, fx.prob, fx.Options());
  const ErRunResult result = er.Run(fx.data.dataset);
  const RecallCurve curve =
      RecallCurve::FromEvents(result.events, fx.data.truth);
  EXPECT_GT(curve.final_recall(), 0.8);
}

TEST(ProgressiveErTest, SchedulerVariantsRun) {
  const Fixture fx(1500);
  for (TreeScheduler scheduler :
       {TreeScheduler::kOurs, TreeScheduler::kNoSplit, TreeScheduler::kLpt}) {
    ProgressiveErOptions options = fx.Options();
    options.scheduler = scheduler;
    const ErRunResult result =
        ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, options)
            .Run(fx.data.dataset);
    const RecallCurve curve =
        RecallCurve::FromEvents(result.events, fx.data.truth);
    EXPECT_GT(curve.final_recall(), 0.8)
        << "scheduler " << static_cast<int>(scheduler);
  }
}

TEST(ProgressiveErTest, MoreMachinesFinishSooner) {
  const Fixture fx(3000);
  ProgressiveErOptions small = fx.Options();
  small.cluster.machines = 2;
  ProgressiveErOptions large = fx.Options();
  large.cluster.machines = 8;
  const ErRunResult slow =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, small)
          .Run(fx.data.dataset);
  const ErRunResult fast =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, large)
          .Run(fx.data.dataset);
  EXPECT_LT(fast.total_time, slow.total_time);
}

TEST(ProgressiveErTest, AlphaControlsChunkCount) {
  const Fixture fx(1500);
  ProgressiveErOptions fine = fx.Options();
  fine.alpha = 200.0;
  ProgressiveErOptions coarse = fx.Options();
  coarse.alpha = 1e9;
  const ErRunResult fine_run =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, fine)
          .Run(fx.data.dataset);
  const ErRunResult coarse_run =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, coarse)
          .Run(fx.data.dataset);
  EXPECT_GT(fine_run.chunks.size(), coarse_run.chunks.size());
  // With a huge alpha there is exactly one chunk per reduce task.
  EXPECT_EQ(coarse_run.chunks.size(),
            static_cast<size_t>(TestCluster().reduce_slots()));
}

// Persisted checkpoints on the threaded backend: concurrent reduce workers
// each append to their own task's journal (and share the store's crash-hook
// tally), which the TSan job checks. The pairs must match the simulated
// run's, and a finished run leaves no journal behind.
TEST(ProgressiveErTest, ThreadedRunPersistsCheckpoints) {
  const Fixture fx(1500);
  ProgressiveErOptions simulated = fx.Options();
  simulated.alpha = 200.0;
  const ErRunResult reference =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, simulated)
          .Run(fx.data.dataset);
  ASSERT_FALSE(reference.failed) << reference.error;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "progres_threaded_ckpt";
  std::filesystem::remove_all(dir);
  // With injected reduce failures the retries restore the latest
  // checkpoint, truncating each task's state from its worker thread.
  for (const bool faults : {false, true}) {
    ProgressiveErOptions threaded = simulated;
    threaded.cluster.backend = ExecutionBackend::kThreaded;
    threaded.cluster.execution_threads = 3;
    threaded.checkpoint_dir = dir.string();
    if (faults) {
      threaded.cluster.fault.enabled = true;
      threaded.cluster.fault.max_attempts = 4;
      for (int task = 0; task < threaded.cluster.reduce_slots(); ++task) {
        threaded.cluster.fault.injected.push_back(
            {TaskPhase::kReduce, task, 0});
      }
    }
    const ErRunResult run =
        ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, threaded)
            .Run(fx.data.dataset);
    ASSERT_FALSE(run.failed) << run.error;
    EXPECT_EQ(run.duplicates, reference.duplicates) << "faults=" << faults;
    EXPECT_EQ(run.comparisons, reference.comparisons) << "faults=" << faults;
    EXPECT_GT(run.counters.Get("mr.checkpoint.saved"), 0);
    if (faults) {
      EXPECT_GT(run.counters.Get("mr.checkpoint.restored"), 0);
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << "faults=" << faults;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace progres
