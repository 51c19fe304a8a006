// Shared pieces of the benchmark: the corpus and models every workload
// starts from, the span tracer, sample statistics, and the operation
// counts and metrics of the final JSON line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "models/listwise/listwise_reranker.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Corpus and model make-up (README "Corpus and requests"). ---

/// Candidates per search session: four slates' worth.
constexpr int64_t kCandidates = 40;
/// Rerank slate size (TwoStageOptions::top_k).
constexpr int64_t kSlate = 10;
/// One ParallelTrainer optimizer step, in train_cl and in the serving
/// workloads' set-up training alike: kTrainShards shards of kTrainBatch
/// rows on kTrainWorkers workers. Smaller steps spend a larger share in
/// the workers' barrier, whose wake-up jitter on a shared host made
/// p99_ms unsteady (spread 0.33 at 2 shards of 32 rows per step).
constexpr int64_t kTrainBatch = 64;
constexpr int64_t kTrainShards = 4;
constexpr int kTrainWorkers = 2;
/// Passes of the serving workloads' set-up training.
constexpr int64_t kSetupEpochs = 2;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// The corpus is one fixed JD-style world, the same for every seed:
/// --seed draws the request streams and all training randomness.
/// (Worlds drawn per seed differ in how hard they are to rank, by more
/// than the quality bounds could absorb.)
constexpr uint64_t kCorpusSeed = 20230608;
awmoe::JdConfig CorpusConfig();
awmoe::AwMoeConfig AwMoeModelConfig();
awmoe::TrainerConfig AwMoeTrainerConfig(uint64_t seed, int64_t batch_size);

// --- Tracing: one span per call into a module's public function. ---

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// In-memory span log. Disabled tracers record nothing (Scope is then
/// two branches), which is what the untraced runs use.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (µs) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Writes the spans as JSON lines (name, start, end, parent).
  void Write(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

// --- Statistics. ---

/// Nearest-rank percentile (pct in [0, 100]) of an unsorted sample;
/// 0 for an empty one.
double Percentile(std::vector<double> values, double pct);

/// A fixed-size uniform sample of a stream of values (reservoir
/// sampling with a fixed seed): percentiles of a whole run without
/// memory that grows with the run's length, which peak_rss_mib would
/// otherwise pick up.
class Reservoir {
 public:
  static constexpr size_t kCapacity = size_t{1} << 18;

  Reservoir() : rng_(0x5EED) { values_.reserve(kCapacity); }
  void Add(double value);
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  int64_t seen_ = 0;
  awmoe::Rng rng_;
};
double Median(std::vector<double> values);
double PeakRssMib();

/// A fixed arithmetic loop owned by the benchmark: its time tracks the
/// host's speed, not the program's.
double HostProbeMs();

// --- Outcome of a run. ---

/// Operation counts plus the named metrics of the final JSON line. A
/// failed output check counts as one failed operation and is reported
/// on stderr.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

// --- The world every workload starts from. ---

struct World {
  awmoe::JdDataset data;
  awmoe::Standardizer standardizer;
  /// Holdout sessions, each exactly kCandidates impressions.
  std::vector<std::vector<const awmoe::Example*>> sessions;
};

std::unique_ptr<World> BuildWorld(Tracer* tracer);

/// AW-MoE & CL trained with ParallelTrainer (2 workers, BCE + InfoNCE)
/// for a fixed number of passes over the training split.
std::unique_ptr<awmoe::AwMoeRanker> TrainAwMoe(const World& world,
                                               uint64_t seed);

/// The listwise reranker of stage 2, trained with the ListNet loss.
std::unique_ptr<awmoe::ListwiseReranker> TrainListwise(const World& world,
                                                       uint64_t seed);

/// Session-averaged AUC and binary-gain NDCG@k computed by the
/// benchmark itself (pairwise counts, log2 discounts), for checking
/// awmoe::EvaluateRanking against an independent implementation.
struct OwnRanking {
  double auc = 0.0;
  double ndcg_at_10 = 0.0;
};
OwnRanking OwnEvaluate(const std::vector<awmoe::Example>& examples,
                       const std::vector<double>& scores);

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

/// Spearman rank correlation of two equally long lists.
double Spearman(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
