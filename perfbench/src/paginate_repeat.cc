// paginate_repeat: one closed-loop client sends bursts of kBurst
// requests through RankBatch to a 1-replica pool on one engine lane.
// (On two lanes the figures did not hold steady on a shared 4-vCPU
// host; the traced run still measures two lanes for
// serving.lane_scaling and serving.max_active_lanes.)
// Sessions are drawn Zipf-popular from the holdout; each request either
// repeats the session's current page (level-1 score cache), turns to
// its next page (gate cache + level-2 encoding store, candidate-tail
// forward only) or follows a click that grew the session's behaviour
// history (all three levels invalidated, then refilled).
// A request's latency is the client-side wall time of its burst's
// RankBatch call: the client holds no response until the call returns.

#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "serving/model_pool.h"
#include "util/hash.h"
#include "workloads.h"

namespace perfbench {

using namespace awmoe;

namespace {

constexpr int64_t kPages = kCandidates / kSlate;
constexpr size_t kBurst = 8;
constexpr double kZipfExponent = 1.1;
/// Request mix: exact repeats, next pages, the rest history changes.
/// The repeat share is 0.5, the repeat rate at which bench_fleet_load
/// gates the level-1 cache (ROADMAP); the even split of the other half
/// is an assumption (README "Corpus and requests").
constexpr double kRepeatShare = 0.5;
constexpr double kNextPageShare = 0.25;
constexpr int kWarmupBursts = 100;
/// Micro-batch cap: a burst splits into two micro-batches, one per lane
/// when there are two.
constexpr int64_t kMaxBatchItems = kSlate * static_cast<int64_t>(kBurst) / 2;

enum Kind { kRepeat = 0, kNextPage = 1, kHistory = 2 };

/// One client, its session population and the serving stack it talks
/// to. Two instances built from one seed replay the same stream.
class Paginator {
 public:
  Paginator(uint64_t seed, int lanes, Tracer* tracer)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 11), zipf_(1, 0.0) {
    world_ = BuildWorld(tracer);
    const World& world = *world_;
    stream_ = world.data.full_test;
    for (auto& session : GroupBySession(stream_)) {
      std::vector<Example*> items;
      for (const Example* ex : session) items.push_back(const_cast<Example*>(ex));
      sessions_.push_back(std::move(items));
    }
    page_.assign(sessions_.size(), 0);
    zipf_ = ZipfDistribution(static_cast<int64_t>(sessions_.size()),
                             kZipfExponent);
    popularity_.resize(sessions_.size());
    std::iota(popularity_.begin(), popularity_.end(), size_t{0});
    rng_.Shuffle(&popularity_);

    std::unique_ptr<AwMoeRanker> awmoe;
    {
      Tracer::Scope span(tracer, "core.train");
      awmoe = TrainAwMoe(world, seed);
    }
    Tracer::Scope span(tracer, "serving.pool_build");
    cold_pool_ = std::make_unique<ModelPool>(world.data.meta, &world.standardizer);
    cold_pool_->RegisterOwned("aw-moe", awmoe->Clone());
    cold_ = std::make_unique<ServingEngine>(cold_pool_.get(), ColdEngineOptions());
    ModelPoolOptions pool_options;
    pool_options.replicas = lanes;
    pool_ = std::make_unique<ModelPool>(world.data.meta, &world.standardizer,
                                        pool_options);
    pool_->RegisterOwned("aw-moe", std::move(awmoe));
    ServingEngineOptions options;
    options.num_threads = lanes > 1 ? lanes : 0;
    options.max_batch_items = kMaxBatchItems;
    engine_ = std::make_unique<ServingEngine>(pool_.get(), options);
  }

  /// Draws the next burst (applying its history changes to the stream)
  /// and serves it. Returns the burst's wall time in seconds.
  double Burst(Tracer* tracer) {
    Plan();
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer, "serving.rank_batch");
      responses_ = engine_->RankBatch(requests_);
    }
    return SecondsSince(start);
  }

  /// Checks the last burst's responses: every level-1 hit and every
  /// score served after a history change is bitwise equal to the
  /// reference engine's.
  void CheckBurst(Report* report) {
    for (size_t i = 0; i < requests_.size(); ++i) {
      const RankResponse& response = responses_[i];
      bool ok = response.status.ok() &&
                response.scores.size() == requests_[i].items.size();
      if (ok && (response.score_cache_hit || kinds_[i] == kHistory)) {
        const std::pair<size_t, int64_t> key{chosen_[i], page_[chosen_[i]]};
        auto it = reference_.find(key);
        if (it == reference_.end()) {
          it = reference_.emplace(key, cold_->Rank(requests_[i]).scores).first;
        }
        ok = BitwiseEqual(it->second, response.scores);
      }
      report->Check(ok, "paginate_repeat request, session " +
                            std::to_string(requests_[i].session_id));
    }
  }

  /// Serves every page of every session once, kBurst pages per
  /// RankBatch, before any history changes; returns the served scores
  /// aligned with the holdout (for ndcg_at_10 / auc).
  std::vector<double> ServeAllPages() {
    std::vector<double> scores;
    std::vector<RankRequest> batch;
    auto flush = [&] {
      for (const RankResponse& response : engine_->RankBatch(batch)) {
        scores.insert(scores.end(), response.scores.begin(),
                      response.scores.end());
      }
      batch.clear();
    };
    for (const auto& session : sessions_) {
      for (int64_t p = 0; p < kPages; ++p) {
        RankRequest request;
        request.session_id = session[0]->session_id;
        request.model = "aw-moe";
        request.items.assign(session.begin() + p * kSlate,
                             session.begin() + (p + 1) * kSlate);
        batch.push_back(std::move(request));
        if (batch.size() == kBurst) flush();
      }
    }
    if (!batch.empty()) flush();
    return scores;
  }

  /// Times SessionScoreCache::Lookup for every request of the last
  /// burst, right after the engine filled the entries.
  void ReplayLookups(Tracer* tracer) {
    const auto snapshot = pool_->CurrentSnapshot("aw-moe");
    for (const RankRequest& request : requests_) {
      std::vector<uint64_t> hashes;
      uint64_t set = 0;
      for (const Example* item : request.items) {
        hashes.push_back(CandidateScoreHash(*item));
        set = SetHashAdd(set, hashes.back());
      }
      const uint64_t history = SessionHistoryHash(*request.items[0]);
      std::vector<float> out(request.items.size());
      Tracer::Scope span(tracer, "serving.score_cache.lookup");
      snapshot->score_cache().Lookup(request.session_id, set, history, hashes,
                                     out);
    }
  }

  ServingEngine& engine() { return *engine_; }
  ModelPool& pool() { return *pool_; }
  const std::vector<Example>& holdout() const { return world_->data.full_test; }

 private:
  void Plan() {
    requests_.clear();
    kinds_.clear();
    chosen_.clear();
    std::set<size_t> used;
    while (requests_.size() < kBurst) {
      const size_t s = popularity_[static_cast<size_t>(zipf_.Sample(&rng_))];
      if (!used.insert(s).second) continue;  // One request per session.
      const double u = rng_.Uniform();
      const Kind kind = u < kRepeatShare                    ? kRepeat
                        : u < kRepeatShare + kNextPageShare ? kNextPage
                                                            : kHistory;
      if (kind == kNextPage) page_[s] = (page_[s] + 1) % kPages;
      if (kind == kHistory) GrowHistory(s);
      RankRequest request;
      request.session_id = sessions_[s][0]->session_id;
      request.model = "aw-moe";
      const auto first = sessions_[s].begin() + page_[s] * kSlate;
      request.items.assign(first, first + kSlate);
      requests_.push_back(std::move(request));
      kinds_.push_back(kind);
      chosen_.push_back(s);
    }
  }

  /// The user clicked the first item of the current page: it becomes the
  /// newest behaviour of every impression of the session (the sequence
  /// keeps its max_seq_len newest entries). Cached reference scores of
  /// the session are dropped with the old history.
  void GrowHistory(size_t s) {
    const Example clicked = *sessions_[s][static_cast<size_t>(page_[s] * kSlate)];
    const size_t max_len = static_cast<size_t>(world_->data.meta.max_seq_len);
    for (Example* ex : sessions_[s]) {
      const bool attrs = ex->behavior_attrs.size() ==
                         ex->behavior_items.size() * Example::kItemAttrs;
      ex->behavior_items.insert(ex->behavior_items.begin(), clicked.target_item);
      ex->behavior_cats.insert(ex->behavior_cats.begin(), clicked.target_cat);
      ex->behavior_brands.insert(ex->behavior_brands.begin(),
                                 clicked.target_brand);
      if (attrs) {
        ex->behavior_attrs.insert(ex->behavior_attrs.begin(),
                                  clicked.target_attrs,
                                  clicked.target_attrs + Example::kItemAttrs);
      } else {
        ex->behavior_attrs.clear();
      }
      if (ex->behavior_items.size() > max_len) {
        ex->behavior_items.resize(max_len);
        ex->behavior_cats.resize(max_len);
        ex->behavior_brands.resize(max_len);
        if (attrs) ex->behavior_attrs.resize(max_len * Example::kItemAttrs);
      }
    }
    for (int64_t p = 0; p < kPages; ++p) reference_.erase({s, p});
  }

  std::unique_ptr<World> world_;
  std::vector<Example> stream_;
  std::vector<std::vector<Example*>> sessions_;
  std::vector<int64_t> page_;
  Rng rng_;
  ZipfDistribution zipf_;
  std::vector<size_t> popularity_;

  std::unique_ptr<ModelPool> pool_;
  std::unique_ptr<ServingEngine> engine_;
  std::unique_ptr<ModelPool> cold_pool_;
  std::unique_ptr<ServingEngine> cold_;
  /// Reference-engine scores per (session, page) under the session's
  /// current history.
  std::map<std::pair<size_t, int64_t>, std::vector<double>> reference_;

  std::vector<RankRequest> requests_;
  std::vector<Kind> kinds_;
  std::vector<size_t> chosen_;
  std::vector<RankResponse> responses_;
};

/// Builds a client and warms it up: every page served once (the scores
/// `quality_scores` receives), then kWarmupBursts bursts of the stream.
std::unique_ptr<Paginator> SetUp(uint64_t seed, int lanes, Tracer* tracer,
                                 Report* report,
                                 std::vector<double>* quality_scores) {
  auto client = std::make_unique<Paginator>(seed, lanes, tracer);
  *quality_scores = client->ServeAllPages();
  for (int b = 0; b < kWarmupBursts; ++b) {
    client->Burst(tracer);
    client->CheckBurst(report);
  }
  client->engine().ResetStats();
  return client;
}

void SetLayerMetrics(Paginator& client, const Tracer& tracer,
                     Report* report) {
  const ServingStatsSnapshot stats = client.engine().Stats();
  auto ratio = [](int64_t hits, int64_t misses) {
    return hits + misses > 0
               ? static_cast<double>(hits) / static_cast<double>(hits + misses)
               : 0.0;
  };
  const double requests = static_cast<double>(stats.requests);
  report->Set("serving.score_cache.hit_ratio",
              ratio(stats.score_cache_hits, stats.score_cache_misses), "ratio");
  report->Set("serving.score_cache.lookups",
              static_cast<double>(stats.score_cache_hits + stats.score_cache_misses),
              "count");
  report->Set("serving.gate_cache.hit_ratio",
              ratio(stats.gate_cache_hits, stats.gate_cache_misses), "ratio");
  report->Set("serving.gate_cache.lookups",
              static_cast<double>(stats.gate_cache_hits + stats.gate_cache_misses),
              "count");
  report->Set("serving.encoding_cache.hit_ratio",
              ratio(stats.encoding_cache_hits, stats.encoding_cache_misses),
              "ratio");
  report->Set("serving.encoding_cache.lookups",
              static_cast<double>(stats.encoding_cache_hits +
                                  stats.encoding_cache_misses),
              "count");
  report->Set("serving.invalidations",
              1e3 *
                  static_cast<double>(stats.score_cache_invalidations +
                                      stats.encoding_cache_invalidations) /
                  requests,
              "1/kreq");
  report->Set("serving.score_hit_p50_ms", stats.score_hit_p50_ms, "ms");
  report->Set("serving.score_miss_p50_ms", stats.score_miss_p50_ms, "ms");
  report->Set("serving.forward_passes_per_request",
              static_cast<double>(stats.batches) / requests, "ratio");
  report->Set("serving.batch_items_mean", stats.mean_batch_items, "count");
  const CacheUsage usage = client.pool().TotalCacheUsage();
  report->Set("serving.cache_resident_kib",
              static_cast<double>(usage.score_bytes + usage.encoding_bytes +
                                  usage.gate_bytes) /
                  1024.0,
              "KiB");
  report->Set("serving.score_cache.lookup_us",
              Median(tracer.DurationsUs("serving.score_cache.lookup")), "us");
}

}  // namespace

void RunPaginateRepeat(const PhaseSpec& spec, Report* report, Tracer* tracer) {
  std::vector<double> setup_s;
  std::unique_ptr<Paginator> client;
  std::vector<double> quality_scores;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    client.reset();
    Report scratch;  // Warm-up checks of discarded set-ups.
    const Clock::time_point start = Clock::now();
    client = SetUp(spec.seed, 1, tracer,
                   rep + 1 == spec.setup_repeats ? report : &scratch,
                   &quality_scores);
    setup_s.push_back(SecondsSince(start));
  }
  // Traced runs also replay the stream on a 2-replica, 2-lane stack for
  // serving.lane_scaling, one burst each in turn.
  std::unique_ptr<Paginator> two_lane;
  std::vector<double> two_lane_scores;
  if (spec.trace) two_lane = SetUp(spec.seed, 2, tracer, report, &two_lane_scores);

  // Every request of a burst waits the burst's wall time, so one sample
  // per burst gives the per-request percentiles.
  Reservoir burst_ms;
  double measured_s = 0.0, traced_s = 0.0, two_lane_s = 0.0;
  int64_t bursts = 0, traced_bursts = 0, two_lane_bursts = 0;
  const int64_t cycle = spec.trace ? 3 : 1;
  const Clock::time_point phase_start = Clock::now();
  for (int64_t b = 0;; ++b) {
    const int64_t kind = b % cycle;
    if (kind == 2) {
      two_lane_s += two_lane->Burst(tracer);
      two_lane->CheckBurst(report);
      ++two_lane_bursts;
    } else {
      tracer->set_enabled(kind == 1);
      const double burst_s = client->Burst(tracer);
      tracer->set_enabled(spec.trace);
      if (kind == 1) {
        traced_s += burst_s;
        ++traced_bursts;
        client->ReplayLookups(tracer);
      } else {
        measured_s += burst_s;
        burst_ms.Add(burst_s * 1e3);
        ++bursts;
      }
      client->CheckBurst(report);
    }
    if (SecondsSince(phase_start) >= spec.seconds && (b + 1) % cycle == 0) {
      break;
    }
  }

  const OwnRanking quality =
      CheckedRanking(client->holdout(), quality_scores, report);
  if (spec.trace) {
    SetLayerMetrics(*client, *tracer, report);
    report->Set("serving.lane_scaling",
                (static_cast<double>(two_lane_bursts) / two_lane_s) /
                    (static_cast<double>(bursts) / measured_s),
                "ratio");
    report->Set("serving.max_active_lanes",
                static_cast<double>(two_lane->engine().Stats().max_active_lanes),
                "count");
    report->Set("trace.overhead",
                (static_cast<double>(traced_bursts) / traced_s) /
                    (static_cast<double>(bursts) / measured_s),
                "ratio");
  } else {
    SetTimingMetrics(burst_ms.values(),
                     static_cast<double>(bursts * kBurst), measured_s, setup_s,
                     report);
    // The share of requests each cache level served in the measured
    // phase, so a change in the mix the engine sees is visible.
    const ServingStatsSnapshot stats = client->engine().Stats();
    const double requests = static_cast<double>(stats.requests);
    std::printf(
        "[perfbench] paginate_repeat served: requests=%lld score_hit=%.4f "
        "gate_hit=%.4f encoding_hit=%.4f invalidations=%.4f\n",
        static_cast<long long>(stats.requests),
        static_cast<double>(stats.score_cache_hits) / requests,
        static_cast<double>(stats.gate_cache_hits) / requests,
        static_cast<double>(stats.encoding_cache_hits) / requests,
        static_cast<double>(stats.score_cache_invalidations) / requests);
    report->Set("ndcg_at_10", quality.ndcg_at_10, "ratio");
    report->Set("auc", quality.auc, "ratio");
  }
}

}  // namespace perfbench
