// perfbench_harness — the timed client behind perfbench/run.py.
//
// It drives the ProgRES libraries only through their public functions and
// times those calls from outside:
//
//   prepare --workload=W --seed=S --dir=D [--scale=F]
//       Generates the workload's TSV inputs into D with src/datagen, loads
//       them back and resolves them once on the serial simulated backend.
//       Prints {"rows": ..., "pairs": ..., "digest": ...}: the reference,
//       and "anchor_errors": where the reference disagrees with the plain
//       match decision or the generator's ground truth (see CheckAnchor).
//   measure --workload=W --dir=D --work=K [--scale=F] [--no-persist]
//           [--stats-spill-bytes=B]
//       One measured run: loads D's TSV files and runs ProgressiveEr::Run
//       on the threaded backend with kThreads execution threads. Prints the
//       end-to-end metrics, the digest of the resolved pairs and any broken
//       layer invariant. B is what prepare reported the statistics job
//       spills.
//   trace   --workload=W --dir=D --work=K --trace-out=T [--scale=F]
//       The same run with spans recorded around every layer call (see
//       README.md), written to T as Chrome trace_event JSON. Prints the raw
//       per-layer numbers.
//
// K is a scratch directory for spill runs and checkpoints. Every mode
// prints exactly one JSON object on stdout; exit code 0 means the run
// completed (its pairs may still be wrong — run.py judges those).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/progressive_er.h"
#include "core/stats_job.h"
#include "datagen/generators.h"
#include "estimate/prob_model.h"
#include "mapreduce/serde.h"
#include "mechanism/sorted_neighbor.h"
#include "schedule/schedule.h"

namespace progres {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Small dense index per OS thread: the trace's "tid" and the key of the
// per-thread busy totals. The main thread takes lane 0 in main().
std::atomic<int> g_next_lane{0};
int Lane() {
  thread_local const int lane = g_next_lane.fetch_add(1);
  return lane;
}

// ------------------------------------------------------------- workloads

enum class Kind { kPublications, kBooks };

// One benchmark workload. Entity counts and byte budgets are scaled by
// --scale (the smoke test runs at a tiny scale); everything else is fixed.
struct Workload {
  const char* name;
  Kind kind;
  int64_t entities;
  // ProgressiveErOptions::per_task_cost_budget (0 = full resolve).
  double per_task_cost_budget;
  // ShuffleBudget::max_bytes (0 = never spill), in kSpillBlockBytes blocks.
  int64_t shuffle_max_bytes;
  // Persist resolution-job checkpoints at every alpha boundary.
  bool persist_checkpoints;
  double alpha;
  // Floors on the reference's precision and recall against the generator's
  // ground truth, checked at full scale. Eight seeds (six on pubs-spill)
  // gave precision >= 0.996 everywhere, and recall 0.86-0.90 on
  // books-durable. pubs-spill's tiny budget makes its
  // recall (0.002-0.008) follow the schedule's shape, so it has no recall
  // floor.
  double min_precision;
  double min_recall;
};

constexpr int64_t kTrainEntities = 5000;
// Execution threads of every measured and traced run.
constexpr int kThreads = 2;
constexpr int64_t kSpillBlockBytes = 64 * 1024;

// Why each workload exists is in README.md; the invariants that prove it
// does that job are in CheckInvariants below.
constexpr Workload kWorkloads[] = {
    // Preprocessing-bound: a tiny resolution budget, and a shuffle budget
    // small enough that the statistics job spills sorted runs.
    {"pubs-spill", Kind::kPublications, 300000, 2000.0, 4 * 1024 * 1024,
     false, 5000.0, 0.99, 0.0},
    // Short strings, eight rules per pair, checkpoints persisted at every
    // alpha boundary.
    {"books-durable", Kind::kBooks, 30000, 0.0, 0, true, 2000.0, 0.99, 0.82},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int64_t Scaled(int64_t value, double scale) {
  return std::max<int64_t>(1, std::llround(static_cast<double>(value) *
                                           scale));
}

// The blocking and match configuration progres_cli uses for each schema.
struct Config {
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
};

Config ConfigFor(Kind kind) {
  Config c;
  if (kind == Kind::kPublications) {
    c.blocking = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                                 {"Y", kPubAbstract, {3, 5}, -1},
                                 {"Z", kPubVenue, {3, 5}, -1}});
    c.match = MatchFunction(
        {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
         {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
         {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
        0.75);
  } else {
    c.blocking = BlockingConfig({{"X", kBookTitle, {3, 5, 8}, -1},
                                 {"Y", kBookAuthors, {3, 5}, -1},
                                 {"Z", kBookPublisher, {3, 5}, -1}});
    c.match = MatchFunction(
        {{kBookTitle, AttributeSimilarity::kEditDistance, 0.35, 0},
         {kBookAuthors, AttributeSimilarity::kEditDistance, 0.2, 0},
         {kBookPublisher, AttributeSimilarity::kEditDistance, 0.1, 0},
         {kBookYear, AttributeSimilarity::kExact, 0.1, 0},
         {kBookIsbn, AttributeSimilarity::kEditDistance, 0.1, 0},
         {kBookPages, AttributeSimilarity::kExact, 0.05, 0},
         {kBookLanguage, AttributeSimilarity::kExact, 0.05, 0},
         {kBookEdition, AttributeSimilarity::kExact, 0.05, 0}},
        0.75);
  }
  return c;
}

LabeledDataset Generate(Kind kind, int64_t entities, uint64_t seed) {
  if (kind == Kind::kPublications) {
    PublicationConfig config;
    config.num_entities = entities;
    config.seed = seed;
    return GeneratePublications(config);
  }
  BookConfig config;
  config.num_entities = entities;
  config.seed = seed;
  return GenerateBooks(config);
}

// Options of the measured run. `work` holds spill runs and checkpoints.
ProgressiveErOptions MakeOptions(const Workload& w, double scale,
                                 bool threaded, bool persist,
                                 const std::string& work) {
  ProgressiveErOptions options;
  options.cluster.machines = 10;
  if (threaded) {
    options.cluster.backend = ExecutionBackend::kThreaded;
    options.cluster.execution_threads = kThreads;
  }
  if (w.shuffle_max_bytes > 0) {
    options.cluster.shuffle_budget.max_bytes =
        Scaled(w.shuffle_max_bytes, scale);
    options.cluster.shuffle_budget.block_bytes =
        std::max<int64_t>(4096, Scaled(kSpillBlockBytes, scale));
    options.cluster.shuffle_budget.spill_dir = work + "/spill";
  }
  options.per_task_cost_budget = w.per_task_cost_budget;
  options.alpha = w.alpha;
  if (persist) options.checkpoint_dir = work + "/ckpt";
  return options;
}

// ---------------------------------------------------------------- flags

struct Flags {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::string Require(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench_harness: missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench_harness: unexpected argument %s\n",
                   arg.c_str());
      std::exit(2);
    }
    const size_t eq = std::min(arg.find('='), arg.size());
    const std::string key(arg.begin() + 2, arg.begin() + eq);
    flags.values[key] = eq < arg.size() ? arg.substr(eq + 1) : "1";
  }
  return flags;
}

// --------------------------------------------------------------- helpers

// FNV-1a over the bytes of the sorted pair keys.
uint64_t PairsDigest(const std::vector<PairKey>& pairs) {
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(pairs.data()),
                                  pairs.size() * sizeof(PairKey)));
}

double CpuSeconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

rusage Usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

// Bytes this process has passed to write(2) so far (/proc/self/io wchar);
// -1 when the kernel does not expose it.
int64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

int64_t FilesIn(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  int64_t n = 0;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

struct Inputs {
  Dataset data;
  Dataset train;
  GroundTruth train_truth;
};

bool LoadInputs(const std::string& dir, Inputs* in) {
  return Dataset::LoadTsv(dir + "/data.tsv", &in->data) &&
         Dataset::LoadTsv(dir + "/train.tsv", &in->train) &&
         GroundTruth::LoadTsv(dir + "/train_truth.tsv", &in->train_truth);
}

// Minimal JSON object writer: one line, keys in insertion order.
class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, Quote(v));
  }
  void NumList(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? ", " : "", vs[i]);
      out += buf;
    }
    Raw(key, out + "]");
  }
  void StrList(const std::string& key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(vs[i]);
    }
    Raw(key, out + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(key) + ": " + value;
  }
  std::string body_;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// ------------------------------------------------------ mechanism wrapper

// One Resolve call as seen from outside the mechanism.
struct ResolveSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int lane = 0;
  int64_t block_size = 0;
  int64_t comparisons = 0;
  int64_t duplicates = 0;
  // should_resolve calls, how many said "skip", and their summed time.
  int64_t checks = 0;
  int64_t check_skips = 0;
  int64_t check_ns = 0;
};

// Wraps the progressive mechanism the driver calls. Always records when the
// first Resolve starts and when each duplicate is reported; with `traced`
// it also records one span per Resolve call, times the responsibility
// predicate (summed per call) and keeps a fixed hash-selected sample of the
// pairs the run compared, for the kernel replay.
class ObservedMechanism : public ProgressiveMechanism {
 public:
  ObservedMechanism(const ProgressiveMechanism& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  std::string name() const override { return inner_.name(); }

  ResolveOutcome Resolve(const ResolveRequest& request) const override {
    const int64_t start = NowNs();
    int64_t expected = 0;
    first_resolve_ns_.compare_exchange_strong(expected, start);

    ResolveRequest wrapped = request;
    const auto& report = request.on_duplicate;
    wrapped.on_duplicate = [this, &report](EntityId a, EntityId b) {
      if (report) report(a, b);
      const int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(mu_);
      dups_.emplace_back(now, MakePairKey(a, b));
    };
    if (!traced_) return inner_.Resolve(wrapped);

    ResolveSpan span;
    std::vector<PairKey> sampled;
    const auto* inner_check = request.should_resolve;
    // A null predicate means "always responsible"; the wrapper keeps that.
    const std::function<bool(const Entity&, const Entity&)> check =
        [&](const Entity& a, const Entity& b) {
          const int64_t t = NowNs();
          const bool ok = inner_check == nullptr || (*inner_check)(a, b);
          span.check_ns += NowNs() - t;
          ++span.checks;
          if (!ok) {
            ++span.check_skips;
          } else {
            const PairKey key = MakePairKey(a.id, b.id);
            if (SampleHash(key) % kSampleModulus == 0) sampled.push_back(key);
          }
          return ok;
        };
    wrapped.should_resolve = &check;
    const ResolveOutcome outcome = inner_.Resolve(wrapped);
    span.start_ns = start;
    span.end_ns = NowNs();
    span.lane = Lane();
    span.block_size = static_cast<int64_t>(request.block->size());
    span.comparisons = outcome.duplicates + outcome.distinct;
    span.duplicates = outcome.duplicates;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
    sample_.insert(sample_.end(), sampled.begin(), sampled.end());
    return outcome;
  }

  int64_t first_resolve_ns() const { return first_resolve_ns_.load(); }
  // (report time, pair) of every duplicate, in no particular order.
  const std::vector<std::pair<int64_t, PairKey>>& dups() const {
    return dups_;
  }
  const std::vector<ResolveSpan>& spans() const { return spans_; }
  // Up to `cap` of the sampled compared pairs, those with the smallest
  // hashes: deterministic for a fixed input, since the set depends only on
  // which pairs were compared, and spread over the whole id range.
  std::vector<PairKey> Sample(size_t cap) const {
    std::vector<PairKey> s = sample_;
    std::sort(s.begin(), s.end(), [](PairKey a, PairKey b) {
      const uint64_t ha = SampleHash(a), hb = SampleHash(b);
      return ha != hb ? ha < hb : a < b;
    });
    s.erase(std::unique(s.begin(), s.end()), s.end());
    if (s.size() > cap) s.resize(cap);
    return s;
  }

 private:
  static constexpr uint64_t kSampleModulus = 16;
  static uint64_t SampleHash(PairKey key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    return key;
  }

  const ProgressiveMechanism& inner_;
  const bool traced_;
  mutable std::atomic<int64_t> first_resolve_ns_{0};
  mutable std::mutex mu_;
  mutable std::vector<std::pair<int64_t, PairKey>> dups_;
  mutable std::vector<ResolveSpan> spans_;
  mutable std::vector<PairKey> sample_;
};

// Time at which the duplicate completing half of `final_pairs` was
// reported, and the sorted distinct pairs the wrapper saw reported.
std::pair<int64_t, std::vector<PairKey>> HalfwayTime(
    std::vector<std::pair<int64_t, PairKey>> dups, size_t final_pairs) {
  std::sort(dups.begin(), dups.end());
  std::unordered_set<PairKey> seen;
  const size_t half = (final_pairs + 1) / 2;
  int64_t at = -1;
  for (const auto& [t, pair] : dups) {
    if (seen.insert(pair).second && seen.size() == half && at < 0) at = t;
  }
  std::vector<PairKey> reported(seen.begin(), seen.end());
  std::sort(reported.begin(), reported.end());
  return {at, std::move(reported)};
}

// The layer invariants a workload exists to exercise, checked on every run.
// `written` is the /proc/self/io wchar delta across Run; `stats_spill` the
// bytes the statistics job spilled when prepare ran it alone.
std::vector<std::string> CheckInvariants(const Workload& w, bool persist,
                                         const ErRunResult& run,
                                         int64_t written, int64_t stats_spill,
                                         const std::string& work) {
  std::vector<std::string> errors;
  const int64_t saved = run.counters.Get("mr.checkpoint.saved");
  const int64_t resolution_spill = run.counters.Get("mr.spill.bytes");
  if (FilesIn(work + "/ckpt") != 0) {
    errors.push_back("checkpoint files left behind after a successful run");
  }
  if (FilesIn(work + "/spill") != 0) {
    errors.push_back("spill runs left behind after the run");
  }
  if (persist) {
    if (saved <= 0) errors.push_back("no checkpoint was saved");
    if (written <= 0) errors.push_back("checkpoints were not written out");
  } else if (saved != 0) {
    errors.push_back("checkpoints saved although persistence is off");
  }
  if (w.shuffle_max_bytes > 0) {
    // Nothing but spill runs is written during Run here, so bytes written
    // beyond the resolution job's own spill are the statistics job's.
    if (stats_spill <= 0 ||
        (written >= 0 && written - resolution_spill < stats_spill)) {
      errors.push_back("the statistics job did not spill");
    }
  } else if (!persist && written != 0 && written != -1) {
    errors.push_back("bytes were written although neither spill nor "
                     "checkpoints are configured");
  }
  if (run.completeness.degraded) errors.push_back("run degraded");
  return errors;
}

// ----------------------------------------------------------------- anchor

// The serial reference comes from the library under test, so a change in
// code both backends share (a faster kernel that decides differently, say)
// would move the reference with it. CheckAnchor holds the reference to two
// things the library does not produce: a plain second implementation of
// the match decision, and the generator's ground truth.

// Levenshtein distance by the full two-row dynamic program: no band, no
// early exit.
int64_t PlainEditDistance(std::string_view a, std::string_view b) {
  std::vector<int64_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int64_t>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int64_t>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

// Weighted score of every rule, in declaration order, minus the threshold
// (both scaled by the total weight): >= 0 is a match. NaN for a rule kind
// the workloads do not use.
double PlainMatchMargin(const MatchFunction& match, const Entity& a,
                        const Entity& b) {
  double sum = 0.0;
  double total = 0.0;
  for (const AttributeRule& r : match.rules()) {
    std::string_view va = a.attribute(static_cast<size_t>(r.attribute_index));
    std::string_view vb = b.attribute(static_cast<size_t>(r.attribute_index));
    if (r.max_chars > 0) {
      va = va.substr(0, std::min(va.size(), static_cast<size_t>(r.max_chars)));
      vb = vb.substr(0, std::min(vb.size(), static_cast<size_t>(r.max_chars)));
    }
    double sim = 0.0;
    if (r.similarity == AttributeSimilarity::kEditDistance) {
      const size_t longest = std::max(va.size(), vb.size());
      sim = longest == 0 ? 1.0
                         : 1.0 - static_cast<double>(PlainEditDistance(va, vb)) /
                                     static_cast<double>(longest);
    } else if (r.similarity == AttributeSimilarity::kExact) {
      sim = va == vb ? 1.0 : 0.0;
    } else {
      return std::nan("");
    }
    sum += r.weight * sim;
    total += r.weight;
  }
  return sum - match.threshold() * total;
}

// Pairs this close to the threshold are not judged: summation order may
// tip them either way.
constexpr double kMarginEpsilon = 1e-9;
// Compared pairs and reference pairs the plain decision re-checks.
constexpr size_t kAnchorCompared = 4096;
constexpr size_t kAnchorPairs = 2048;

struct Anchor {
  int64_t checked = 0;       // pairs the plain decision judged
  int64_t disagreements = 0;
  double precision = 0.0;    // of the reference, against the ground truth
  double recall = 0.0;
};

// `compared`: pairs the reference run compared; `pairs`: its sorted final
// pair set. A compared pair is in the final set exactly when it matches,
// and every final pair was compared somewhere.
Anchor CheckAnchor(const MatchFunction& match, const Dataset& data,
                   const GroundTruth& truth,
                   const std::vector<PairKey>& compared,
                   const std::vector<PairKey>& pairs) {
  Anchor anchor;
  const auto judge = [&](PairKey key, bool in_pairs) {
    const auto [x, y] = PairKeyIds(key);
    const double margin = PlainMatchMargin(match, data.entity(x),
                                           data.entity(y));
    if (!(std::abs(margin) > kMarginEpsilon)) return;  // also NaN
    ++anchor.checked;
    if ((margin > 0.0) != in_pairs) ++anchor.disagreements;
  };
  for (const PairKey key : compared) {
    judge(key, std::binary_search(pairs.begin(), pairs.end(), key));
  }
  const size_t stride = std::max<size_t>(1, pairs.size() / kAnchorPairs);
  for (size_t i = 0; i < pairs.size(); i += stride) judge(pairs[i], true);

  int64_t true_pairs = 0;
  for (const PairKey key : pairs) {
    const auto [x, y] = PairKeyIds(key);
    if (truth.IsDuplicate(x, y)) ++true_pairs;
  }
  if (!pairs.empty()) {
    anchor.precision = static_cast<double>(true_pairs) /
                       static_cast<double>(pairs.size());
  }
  if (truth.num_duplicate_pairs() > 0) {
    anchor.recall = static_cast<double>(true_pairs) /
                    static_cast<double>(truth.num_duplicate_pairs());
  }
  return anchor;
}

// ------------------------------------------------------------------ modes

int Prepare(const Workload& w, const Flags& flags, double scale) {
  const std::string dir = flags.Require("dir");
  const uint64_t seed = std::strtoull(flags.Require("seed").c_str(),
                                      nullptr, 10);
  std::filesystem::create_directories(dir);
  GroundTruth truth;
  {
    const LabeledDataset data =
        Generate(w.kind, Scaled(w.entities, scale), seed);
    const LabeledDataset train = Generate(
        w.kind, Scaled(kTrainEntities, std::min(1.0, scale * 10)),
        seed ^ 0x9e3779b97f4a7c15ULL);
    if (!data.dataset.SaveTsv(dir + "/data.tsv") ||
        !train.dataset.SaveTsv(dir + "/train.tsv") ||
        !train.truth.SaveTsv(dir + "/train_truth.tsv")) {
      std::fprintf(stderr, "perfbench_harness: cannot write inputs in %s\n",
                   dir.c_str());
      return 1;
    }
    truth = data.truth;
  }
  // The reference resolves what a measured run will load: the files.
  Inputs in;
  if (!LoadInputs(dir, &in)) {
    std::fprintf(stderr, "perfbench_harness: cannot reload inputs\n");
    return 1;
  }
  const Config config = ConfigFor(w.kind);
  const ProbabilityModel prob =
      ProbabilityModel::Train(in.train, in.train_truth, config.blocking);
  const SortedNeighborMechanism sn;
  // Traced only to sample the compared pairs for the anchor.
  const ObservedMechanism mechanism(sn, /*traced=*/true);
  ProgressiveErOptions options;
  options.cluster.machines = 10;
  options.per_task_cost_budget = w.per_task_cost_budget;
  options.alpha = w.alpha;
  const ProgressiveEr er(config.blocking, config.match, mechanism, prob,
                         options);
  const ErRunResult ref = er.Run(in.data);
  if (ref.failed || ref.duplicates.empty()) {
    std::fprintf(stderr, "perfbench_harness: reference run failed: %s\n",
                 ref.failed ? ref.error.c_str() : "no duplicates");
    return 1;
  }
  // What the statistics job spills under the workload's budget: measured
  // runs must write at least this much.
  int64_t stats_spill = 0;
  if (w.shuffle_max_bytes > 0) {
    const ProgressiveErOptions budgeted =
        MakeOptions(w, scale, false, false, dir + "/prepare");
    std::filesystem::create_directories(dir + "/prepare/spill");
    const StatsJobOutput stats = RunStatisticsJob(
        in.data, config.blocking, budgeted.cluster,
        budgeted.cluster.map_slots(), budgeted.cluster.reduce_slots());
    std::filesystem::remove_all(dir + "/prepare");
    stats_spill = stats.counters.Get("mr.spill.bytes");
    if (stats.failed || stats_spill <= 0) {
      std::fprintf(stderr,
                   "perfbench_harness: the statistics job does not spill "
                   "under the %s budget\n", w.name);
      return 1;
    }
  }
  const Anchor anchor =
      CheckAnchor(config.match, in.data, truth,
                  mechanism.Sample(kAnchorCompared), ref.duplicates);
  std::vector<std::string> anchor_errors;
  if (anchor.disagreements > 0 || anchor.checked == 0) {
    anchor_errors.push_back(
        "the plain match decision disagrees with the reference on " +
        std::to_string(anchor.disagreements) + " of " +
        std::to_string(anchor.checked) + " pairs");
  }
  if (scale == 1.0 && (anchor.precision < w.min_precision ||
                       anchor.recall < w.min_recall)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "precision %.4f / recall %.4f against the ground truth, "
                  "below the floor %.4f / %.4f",
                  anchor.precision, anchor.recall, w.min_precision,
                  w.min_recall);
    anchor_errors.push_back(buf);
  }
  JsonLine out;
  out.Int("stats_spill_bytes", stats_spill);
  out.Int("rows", in.data.size());
  out.Int("train_rows", in.train.size());
  out.Int("pairs", static_cast<int64_t>(ref.duplicates.size()));
  out.Str("digest", Hex(PairsDigest(ref.duplicates)));
  out.Int("comparisons", ref.comparisons);
  out.Int("anchor_checked", anchor.checked);
  out.Num("precision", anchor.precision);
  out.Num("recall", anchor.recall);
  out.StrList("anchor_errors", anchor_errors);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int Measure(const Workload& w, const Flags& flags, double scale) {
  const std::string dir = flags.Require("dir");
  const std::string work = flags.Require("work");
  const bool persist = w.persist_checkpoints && !flags.values.count("no-persist");
  std::filesystem::create_directories(work + "/spill");
  std::filesystem::create_directories(work + "/ckpt");

  const rusage ru0 = Usage();
  const int64_t t0 = NowNs();
  Inputs in;
  if (!LoadInputs(dir, &in)) {
    std::fprintf(stderr, "perfbench_harness: cannot load inputs in %s\n",
                 dir.c_str());
    return 1;
  }
  const Config config = ConfigFor(w.kind);
  const ProbabilityModel prob =
      ProbabilityModel::Train(in.train, in.train_truth, config.blocking);
  const SortedNeighborMechanism sn;
  const ObservedMechanism mechanism(sn, /*traced=*/false);
  const ProgressiveEr er(config.blocking, config.match, mechanism, prob,
                         MakeOptions(w, scale, true, persist, work));
  const int64_t written0 = WrittenBytes();
  const ErRunResult run = er.Run(in.data);
  const int64_t t_end = NowNs();
  const rusage ru1 = Usage();
  const int64_t written1 = WrittenBytes();

  if (run.failed) {
    std::fprintf(stderr, "perfbench_harness: run failed: %s\n",
                 run.error.c_str());
    return 1;
  }
  const auto [half_ns, reported] =
      HalfwayTime(mechanism.dups(), run.duplicates.size());
  std::vector<std::string> errors = CheckInvariants(
      w, persist, run, written0 < 0 ? -1 : written1 - written0,
      std::atoll(flags.Get("stats-spill-bytes", "0").c_str()), work);
  // Both sorted: ErRunResult::duplicates is sorted and unique.
  if (reported != run.duplicates) {
    errors.push_back("reported duplicates differ from the final pair set");
  }
  if (mechanism.first_resolve_ns() == 0 || half_ns < 0) {
    errors.push_back("no Resolve call or no duplicate observed");
  }

  JsonLine out;
  out.Num("setup_s", Seconds(mechanism.first_resolve_ns() - t0));
  out.Num("dups_50_s", Seconds(half_ns - t0));
  out.Num("resolve_s", Seconds(t_end - t0));
  out.Num("cpu_s", CpuSeconds(ru1) - CpuSeconds(ru0));
  out.Num("peak_rss_mb", static_cast<double>(ru1.ru_maxrss) / 1024.0);
  out.Int("pairs", static_cast<int64_t>(run.duplicates.size()));
  out.Str("digest", Hex(PairsDigest(run.duplicates)));
  out.Int("comparisons", run.comparisons);
  out.Int("checkpoints_saved", run.counters.Get("mr.checkpoint.saved"));
  out.Int("written_bytes", written0 < 0 ? -1 : written1 - written0);
  out.StrList("invariant_errors", errors);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// A span of the traced run on the harness's side of a layer boundary.
struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int lane = 0;
  int id = 0;
  int parent = -1;
  std::vector<std::pair<std::string, double>> args;
};

class SpanLog {
 public:
  // Runs `fn` inside a span on the calling thread and returns its id.
  template <typename Fn>
  int Time(const std::string& name, const std::string& layer, int parent,
           Fn&& fn) {
    const int id = Open(name, layer, parent);
    fn();
    Close(id);
    return id;
  }
  int Open(const std::string& name, const std::string& layer, int parent) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_ns = NowNs();
    s.lane = Lane();
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  Span& at(int id) { return spans_[static_cast<size_t>(id)]; }
  void Add(Span s) {
    s.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  double Duration(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return Seconds(s.end_ns - s.start_ns);
  }

  // Chrome trace_event JSON ("X" complete events, microseconds from the
  // root span's start). args.id / args.parent carry the span tree.
  bool WriteChromeJson(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof(head),
                    "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, ",
                    s.lane, static_cast<double>(s.start_ns - base) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << head << "\"name\": " << JsonLine::Quote(s.name)
          << ", \"cat\": " << JsonLine::Quote(s.layer)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent;
      for (const auto& [key, value] : s.args) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.9g", value);
        out << ", " << JsonLine::Quote(key) << ": " << num;
      }
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// Keeps the kernel replay's results observable, so it is not optimized out.
volatile int64_t g_replay_sink = 0;

int Trace(const Workload& w, const Flags& flags, double scale) {
  const std::string dir = flags.Require("dir");
  const std::string work = flags.Require("work");
  const std::string trace_out = flags.Require("trace-out");
  const bool persist = w.persist_checkpoints;
  std::filesystem::create_directories(work + "/spill");
  std::filesystem::create_directories(work + "/ckpt");

  SpanLog log;
  const int root = log.Open("traced run", "bench", -1);
  const int64_t t0 = log.at(root).start_ns;
  Inputs in;
  bool loaded = false;
  const int load = log.Time("LoadTsv", "model", root,
                            [&] { loaded = LoadInputs(dir, &in); });
  if (!loaded) {
    std::fprintf(stderr, "perfbench_harness: cannot load inputs in %s\n",
                 dir.c_str());
    return 1;
  }
  const Config config = ConfigFor(w.kind);
  ProbabilityModel prob;
  const int train = log.Time("Train", "estimate", root, [&] {
    prob = ProbabilityModel::Train(in.train, in.train_truth, config.blocking);
  });

  // The preprocessing decomposition: the calls Run makes before its
  // resolution job, with the driver's arguments, timed one by one.
  const ProgressiveErOptions options =
      MakeOptions(w, scale, true, persist, work);
  StatsJobOutput stats;
  const int stats_span = log.Time("RunStatisticsJob", "core", root, [&] {
    stats = RunStatisticsJob(in.data, config.blocking, options.cluster,
                             options.cluster.map_slots(),
                             options.cluster.reduce_slots());
  });
  std::vector<AnnotatedForest> forests;
  const int annotate = log.Time("AnnotateForests", "estimate", root, [&] {
    forests = AnnotateForests(stats.forests, options.estimate, prob,
                              in.data.size());
  });
  ProgressiveSchedule schedule;
  const int generate = log.Time("GenerateSchedule", "schedule", root, [&] {
    ScheduleParams params;
    params.num_reduce_tasks = options.cluster.reduce_slots();
    params.cost_vector = options.cost_vector;
    params.weights = options.weights;
    params.batch_size = options.batch_size;
    params.scheduler = options.scheduler;
    params.per_task_budget = options.per_task_cost_budget;
    schedule = GenerateSchedule(&forests, params);
  });

  const SortedNeighborMechanism sn;
  const ObservedMechanism mechanism(sn, /*traced=*/true);
  const ProgressiveEr er(config.blocking, config.match, mechanism, prob,
                         options);
  // The driver's own preprocessing, which the decomposition above must
  // reproduce: the same schedule, in about the same time.
  bool schedule_matches = false;
  const int preprocess = log.Time("Preprocess", "core", root, [&] {
    const ProgressiveEr::Preprocessed pre = er.Preprocess(in.data);
    schedule_matches = !pre.failed &&
                       pre.schedule.sequence == schedule.sequence &&
                       pre.schedule.task_blocks == schedule.task_blocks;
  });
  ErRunResult run;
  const int run_span =
      log.Time("Run", "core", root, [&] { run = er.Run(in.data); });
  log.Close(root);
  if (run.failed || stats.failed) {
    std::fprintf(stderr, "perfbench_harness: traced run failed: %s%s\n",
                 run.error.c_str(), stats.error.c_str());
    return 1;
  }

  // Resolve spans become children of the Run span, on their worker lanes.
  int64_t busy_ns = 0, comparisons = 0, duplicates = 0, checks = 0;
  int64_t check_skips = 0, check_ns = 0;
  int64_t first_start = INT64_MAX, last_end = 0;
  std::map<int, int64_t> lane_busy;
  std::vector<double> block_us;
  for (const ResolveSpan& r : mechanism.spans()) {
    Span s;
    s.name = "Resolve";
    s.layer = "mechanism";
    s.start_ns = r.start_ns;
    s.end_ns = r.end_ns;
    s.lane = r.lane;
    s.parent = run_span;
    s.args = {{"block_size", static_cast<double>(r.block_size)},
              {"comparisons", static_cast<double>(r.comparisons)},
              {"duplicates", static_cast<double>(r.duplicates)},
              {"should_resolve_s", Seconds(r.check_ns)},
              {"should_resolve_calls", static_cast<double>(r.checks)}};
    log.Add(std::move(s));
    busy_ns += r.end_ns - r.start_ns;
    lane_busy[r.lane] += r.end_ns - r.start_ns;
    comparisons += r.comparisons;
    duplicates += r.duplicates;
    checks += r.checks;
    check_skips += r.check_skips;
    check_ns += r.check_ns;
    first_start = std::min(first_start, r.start_ns);
    last_end = std::max(last_end, r.end_ns);
    block_us.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
  }
  if (!log.WriteChromeJson(trace_out)) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                 trace_out.c_str());
    return 1;
  }

  // Kernel replay: MatchFunction::Resolve over a fixed sample of the pairs
  // this run compared, single-threaded, after the run.
  const std::vector<PairKey> sample = mechanism.Sample(8192);
  double ns_per_cmp = 0.0;
  if (!sample.empty()) {
    int64_t calls = 0;
    int64_t matched = 0;
    const int64_t r0 = NowNs();
    do {
      for (const PairKey pair : sample) {
        const auto [a, b] = PairKeyIds(pair);
        matched += config.match.Resolve(in.data.entity(a), in.data.entity(b));
      }
      calls += static_cast<int64_t>(sample.size());
    } while (NowNs() - r0 < 300'000'000);
    ns_per_cmp = static_cast<double>(NowNs() - r0) /
                 static_cast<double>(calls);
    g_replay_sink = matched;
  }

  const double decomposition_s =
      log.Duration(stats_span) + log.Duration(annotate) +
      log.Duration(generate);
  const double setup_in_run_s =
      Seconds(mechanism.first_resolve_ns() - log.at(run_span).start_ns);
  const double lanes = static_cast<double>(std::max<size_t>(1, lane_busy.size()));
  int64_t max_lane = 0;
  for (const auto& [lane, ns] : lane_busy) max_lane = std::max(max_lane, ns);
  const double resolution_wall_s =
      first_start == INT64_MAX ? 0.0 : Seconds(last_end - first_start);

  JsonLine out;
  out.Int("pairs", static_cast<int64_t>(run.duplicates.size()));
  out.Str("digest", Hex(PairsDigest(run.duplicates)));
  // Traced equivalents of the end-to-end metrics: the decomposition and
  // Preprocess calls are extra work of the traced run, so they are taken
  // out again.
  out.Num("traced_setup_s", log.Duration(load) + log.Duration(train) +
                                setup_in_run_s);
  out.Num("traced_resolve_s", Seconds(log.at(run_span).end_ns - t0) -
                                  decomposition_s - log.Duration(preprocess));
  out.Num("decomposition_s", log.Duration(load) + log.Duration(train) +
                                 decomposition_s);
  out.Num("preprocess_ratio", decomposition_s / log.Duration(preprocess));
  out.Int("schedule_matches", schedule_matches ? 1 : 0);
  out.Int("threads", kThreads);
  out.Num("model.load_s", log.Duration(load));
  out.Num("estimate.train_s", log.Duration(train));
  out.Num("core.stats_job_s", log.Duration(stats_span));
  out.Num("estimate.annotate_s", log.Duration(annotate));
  out.Num("schedule.generate_s", log.Duration(generate));
  out.Int("schedule.blocks", static_cast<int64_t>(schedule.sequence.size()));
  out.Num("mapreduce.stats_map_s", stats.timing.wall.map_seconds);
  out.Num("mapreduce.stats_reduce_s", stats.timing.wall.reduce_seconds);
  out.Int("mapreduce.shuffle_bytes", stats.counters.Get("mr.shuffle.bytes"));
  out.Int("mapreduce.spill_runs", stats.counters.Get("mr.spill.runs"));
  out.Int("mapreduce.spill_bytes", stats.counters.Get("mr.spill.bytes"));
  out.Int("mapreduce.merge_passes",
          stats.counters.Get("mr.spill.merge_passes"));
  out.Int("mapreduce.checkpoints_saved",
          run.counters.Get("mr.checkpoint.saved"));
  out.Num("mechanism.busy_s", Seconds(busy_ns));
  out.Int("mechanism.calls", static_cast<int64_t>(mechanism.spans().size()));
  out.Int("mechanism.comparisons", comparisons);
  out.Int("mechanism.run_comparisons", run.comparisons);
  out.Num("mechanism.dups_per_cmp",
          comparisons > 0 ? static_cast<double>(duplicates) /
                                static_cast<double>(comparisons)
                          : 0.0);
  out.Num("mechanism.resolution_wall_s", resolution_wall_s);
  out.Num("mechanism.imbalance",
          busy_ns > 0 ? static_cast<double>(max_lane) * lanes /
                            static_cast<double>(busy_ns)
                      : 0.0);
  out.Num("redundancy.check_s", Seconds(check_ns));
  out.Int("redundancy.checks", checks);
  out.Num("redundancy.skip_ratio",
          checks > 0 ? static_cast<double>(check_skips) /
                           static_cast<double>(checks)
                     : 0.0);
  out.Num("similarity.ns_per_cmp", ns_per_cmp);
  out.Int("similarity.sample_pairs", static_cast<int64_t>(sample.size()));
  out.NumList("block_us", block_us);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace progres

int main(int argc, char** argv) {
  using namespace progres;
  Lane();  // the main thread is lane 0
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness prepare|measure|trace "
                 "--workload=NAME ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const Flags flags = ParseFlags(argc, argv);
  const Workload* w = FindWorkload(flags.Require("workload"));
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_harness: unknown workload %s\n",
                 flags.Require("workload").c_str());
    return 2;
  }
  const double scale = std::atof(flags.Get("scale", "1").c_str());
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::fprintf(stderr, "perfbench_harness: --scale must be in (0, 1]\n");
    return 2;
  }
  if (mode == "prepare") return Prepare(*w, flags, scale);
  if (mode == "measure") return Measure(*w, flags, scale);
  if (mode == "trace") return Trace(*w, flags, scale);
  std::fprintf(stderr, "perfbench_harness: unknown mode %s\n", mode.c_str());
  return 2;
}
