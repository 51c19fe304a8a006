#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "core/parallel_trainer.h"
#include "core/trainer.h"
#include "serving/request.h"

namespace perfbench {

using namespace awmoe;

JdConfig CorpusConfig() {
  JdConfig config;
  config.num_users = 1500;
  config.num_items = 1200;
  config.num_categories = 12;
  config.brands_per_category = 6;
  config.num_shops = 60;
  config.train_sessions = 1000;
  config.test_sessions = 500;
  config.longtail1_sessions = 0;
  config.longtail2_sessions = 0;
  config.items_per_session = kCandidates;
  config.seed = kCorpusSeed;
  return config;
}

AwMoeConfig AwMoeModelConfig() {
  AwMoeConfig config;
  config.dims = ModelDims::Default();
  return config;
}

TrainerConfig AwMoeTrainerConfig(uint64_t seed, int64_t batch_size) {
  TrainerConfig config;
  config.batch_size = batch_size;
  config.epochs = kSetupEpochs;
  config.lr = 2e-3f;
  config.contrastive = true;
  config.seed = seed;
  return config;
}

// --- Tracer. ---

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  saved_parent_ = tracer_->current_;
  tracer_->spans_.push_back(Span{name, tracer_->NowNs(), 0, saved_parent_});
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = tracer_->NowNs();
  tracer_->current_ = saved_parent_;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns
        << ", \"parent\": " << span.parent << "}\n";
  }
}

// --- Statistics. ---

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

void Reservoir::Add(double value) {
  ++seen_;
  if (values_.size() < kCapacity) {
    values_.push_back(value);
    return;
  }
  const int64_t slot = rng_.UniformInt(seen_);
  if (slot < static_cast<int64_t>(kCapacity)) {
    values_[static_cast<size_t>(slot)] = value;
  }
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double HostProbeMs() {
  const Clock::time_point start = Clock::now();
  // A dependent chain of integer mixes: no memory traffic, no SIMD, so
  // its time moves only with the core's clock and its contention.
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 2000000; ++i) {
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ULL;
  }
  sink = x;
  (void)sink;
  return SecondsSince(start) * 1e3;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "[perfbench] check failed: %s\n", what.c_str());
  }
}

// --- World. ---

std::unique_ptr<World> BuildWorld(Tracer* tracer) {
  auto world = std::make_unique<World>();
  {
    Tracer::Scope span(tracer, "data.generate");
    world->data = JdSyntheticGenerator(CorpusConfig()).Generate();
  }
  world->standardizer.Fit(world->data.train);
  for (auto& session : GroupBySession(world->data.full_test)) {
    if (static_cast<int64_t>(session.size()) == kCandidates) {
      world->sessions.push_back(std::move(session));
    }
  }
  return world;
}

std::unique_ptr<AwMoeRanker> TrainAwMoe(const World& world, uint64_t seed) {
  Rng rng(seed ^ 0xA5A5u);
  auto model = std::make_unique<AwMoeRanker>(world.data.meta,
                                             AwMoeModelConfig(), &rng);
  ParallelTrainerConfig config;
  config.base = AwMoeTrainerConfig(seed, kTrainBatch);
  config.num_workers = kTrainWorkers;
  config.grad_accumulation = kTrainShards;
  ParallelTrainer trainer(model.get(), config);
  trainer.Train(world.data.train, world.data.meta, &world.standardizer);
  return model;
}

namespace {

ModelDims ListwiseInputDims() {
  ModelDims dims;
  dims.emb_dim = 8;
  dims.tower_mlp = {16, 8};
  dims.activation_unit = {8, 4};
  dims.gate_unit = {8, 4};
  dims.expert = {16, 8};
  return dims;
}

ListwiseDims RerankDims() {
  ListwiseDims ldims;
  ldims.d_model = 16;
  ldims.num_heads = 2;
  ldims.num_layers = 1;
  ldims.ffn_hidden = {32};
  ldims.head_hidden = {16};
  ldims.max_slate_len = 64;
  return ldims;
}

}  // namespace

std::unique_ptr<ListwiseReranker> TrainListwise(const World& world,
                                                uint64_t seed) {
  Rng rng(seed ^ 0x5A5Au);
  auto model = std::make_unique<ListwiseReranker>(
      world.data.meta, ListwiseInputDims(), RerankDims(), &rng);
  TrainerConfig config;
  config.batch_size = 128;
  config.epochs = 20;
  config.lr = 4e-4f;
  config.seed = seed;
  Trainer trainer(model.get(), config);
  trainer.Train(world.data.train, world.data.meta, &world.standardizer);
  return model;
}

// --- Independent ranking metrics. ---

OwnRanking OwnEvaluate(const std::vector<Example>& examples,
                       const std::vector<double>& scores) {
  double auc_sum = 0.0;
  int64_t auc_sessions = 0;
  double ndcg_sum = 0.0;
  int64_t sessions = 0;
  size_t begin = 0;
  while (begin < examples.size()) {
    size_t end = begin;
    while (end < examples.size() &&
           examples[end].session_id == examples[begin].session_id) {
      ++end;
    }
    // AUC: share of (positive, negative) pairs ordered correctly, ties
    // counting one half.
    double pairs = 0.0;
    double correct = 0.0;
    for (size_t i = begin; i < end; ++i) {
      if (examples[i].label <= 0.5f) continue;
      for (size_t j = begin; j < end; ++j) {
        if (examples[j].label > 0.5f) continue;
        pairs += 1.0;
        correct += scores[i] > scores[j] ? 1.0 : scores[i] == scores[j] ? 0.5
                                                                        : 0.0;
      }
    }
    if (pairs > 0.0) {
      auc_sum += correct / pairs;
      ++auc_sessions;
    }
    // NDCG@10 with binary gains: DCG of the top 10 by score (stable on
    // ties, in impression order) over the DCG of the ideal order.
    std::vector<size_t> order(end - begin);
    std::iota(order.begin(), order.end(), begin);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return scores[a] > scores[b]; });
    int64_t positives = 0;
    for (size_t i = begin; i < end; ++i) positives += examples[i].label > 0.5f;
    double dcg = 0.0;
    double ideal = 0.0;
    for (size_t r = 0; r < order.size() && r < 10; ++r) {
      const double discount = 1.0 / std::log2(static_cast<double>(r) + 2.0);
      if (examples[order[r]].label > 0.5f) dcg += discount;
      if (static_cast<int64_t>(r) < positives) ideal += discount;
    }
    ndcg_sum += ideal > 0.0 ? dcg / ideal : 0.0;
    ++sessions;
    begin = end;
  }
  OwnRanking out;
  out.auc = auc_sessions > 0 ? auc_sum / static_cast<double>(auc_sessions) : 0;
  out.ndcg_at_10 = sessions > 0 ? ndcg_sum / static_cast<double>(sessions) : 0;
  return out;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double Spearman(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<size_t> order(v.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t x, size_t y) { return v[x] < v[y]; });
    std::vector<double> rank(v.size());
    size_t i = 0;
    while (i < order.size()) {  // Ties share their mean rank.
      size_t j = i;
      while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
      for (size_t t = i; t <= j; ++t) rank[order[t]] = 0.5 * double(i + j);
      i = j + 1;
    }
    return rank;
  };
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  const double n = static_cast<double>(a.size());
  const double mean = (n - 1.0) / 2.0;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (ra[i] - mean) * (rb[i] - mean);
    va += (ra[i] - mean) * (ra[i] - mean);
    vb += (rb[i] - mean) * (rb[i] - mean);
  }
  return va > 0.0 && vb > 0.0 ? cov / std::sqrt(va * vb) : 0.0;
}

}  // namespace perfbench
