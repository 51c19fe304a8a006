#ifndef AWMOE_SERVING_SERVING_STATS_H_
#define AWMOE_SERVING_SERVING_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace awmoe {

/// Counters of one published model version, split by replica lane.
struct ModelVersionStatsSnapshot {
  std::string model;
  int64_t version = 0;
  int64_t leases = 0;
  /// Leases per replica lane (index = lane). Sums to `leases`.
  std::vector<int64_t> lane_leases;
};

/// Point-in-time health of one model version — what a staged rollout's
/// gate (serving/rollout.h) compares between the stable and candidate
/// arms. Percentiles come from a SLIDING window of the newest
/// `ServingStats::kHealthWindow` latency samples for that version, so
/// they track how the version serves NOW (an early warm-up spike ages
/// out instead of poisoning the whole ramp); `requests`/`errors` are
/// lifetime-exact for the version.
struct VersionHealthSnapshot {
  std::string model;
  int64_t version = 0;
  int64_t requests = 0;
  int64_t errors = 0;
  /// errors / requests (0 when nothing recorded).
  double error_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Latency samples currently in the window (<= kHealthWindow).
  int64_t window = 0;

  /// Accuracy-drift evidence: shadow-scored sessions attributed to this
  /// version (via `ServingStats::RecordDriftSample`) and how many of
  /// them ENGAGED — a positive-labelled item surfaced in the version's
  /// top-K (a UCTR-style proxy). Lifetime-exact per version, like
  /// `requests`/`errors`; the rollout drift gate compares
  /// `drift_engaged_rate` between the candidate and stable arms.
  int64_t drift_sessions = 0;
  int64_t drift_engaged = 0;
  /// drift_engaged / drift_sessions (0 when nothing recorded).
  double drift_engaged_rate = 0.0;
};

/// The raw, mergeable serving counters: everything `ServingStats`
/// accumulates besides its latency reservoirs and per-version maps.
/// Every field is a sum, except the three maxima (max_batch_requests,
/// queue_max_ms, max_active_lanes) and `wall_seconds`, which merge by
/// max. `ServingStatsSnapshot` extends this block with the derived
/// means, percentiles and QPS.
struct ServingCounters {
  int64_t requests = 0;
  int64_t items = 0;
  double total_ms = 0.0;

  /// Forward passes executed (one per micro-batch), the requests and
  /// candidates they carried, and the fullest one.
  int64_t batches = 0;
  int64_t batch_requests_total = 0;
  int64_t batch_items_total = 0;
  int64_t max_batch_requests = 0;

  /// Async front only: requests that went through the `Submit` queue,
  /// and how long they waited there before their flush started.
  int64_t queued_requests = 0;
  double queue_total_ms = 0.0;
  double queue_max_ms = 0.0;

  /// §III-F gate LRU outcome counts (one lookup per request on the
  /// shared-gate path; a miss covers cold, invalidated and stale rows).
  int64_t gate_cache_hits = 0;
  int64_t gate_cache_misses = 0;

  /// Level-1 session score cache and level-2 session-encoding (feature
  /// store) lookup outcomes, one lookup per request on each enabled
  /// level. An invalidation is a lookup that found the session's entry
  /// stamped with an outdated context (its behaviour history changed)
  /// and evicted it; every invalidation also counts as a miss.
  int64_t score_cache_hits = 0;
  int64_t score_cache_misses = 0;
  int64_t score_cache_invalidations = 0;
  int64_t encoding_cache_hits = 0;
  int64_t encoding_cache_misses = 0;
  int64_t encoding_cache_invalidations = 0;

  /// Snapshot-scoped cache occupancy gauges (live entries / estimated
  /// resident bytes across the pool's published snapshots), filled by
  /// `ServingEngine::Stats` from the pool at snapshot time; MergeFrom
  /// sums them, so a fleet sink reports fleet-wide residency. A bare
  /// ServingStats only carries the gauges of merged-in snapshots.
  int64_t score_cache_entries = 0;
  int64_t score_cache_bytes = 0;
  int64_t encoding_cache_entries = 0;
  int64_t encoding_cache_bytes = 0;
  int64_t gate_cache_entries = 0;
  int64_t gate_cache_bytes = 0;

  /// Slate-scoring (listwise) accounting: slates rerank-scored, their
  /// total candidate count, and a size-occupancy histogram (slate
  /// length <= 10 / <= 25 / <= 50 / > 50 candidates).
  int64_t slates = 0;
  int64_t slate_items = 0;
  int64_t slates_le10 = 0;
  int64_t slates_le25 = 0;
  int64_t slates_le50 = 0;
  int64_t slates_gt50 = 0;

  /// Replica-lane accounting: one lease is acquired per executed
  /// micro-batch, and each acquire samples how many of the snapshot's
  /// lanes were busy — >1 means forwards for one model genuinely
  /// overlapped on distinct replicas.
  int64_t snapshot_leases = 0;
  int64_t active_lanes_total = 0;
  int64_t max_active_lanes = 0;

  /// Embedding ids at or above their vocabulary (an item newer than the
  /// model, say) that the forwards' collation mapped to the 0 = unknown
  /// bucket instead of rejecting the request. Counted per forward, so a
  /// score-cache hit on such a request adds nothing.
  int64_t unknown_ids = 0;

  /// Engine-wide accuracy-drift totals (sum over all versions' drift
  /// counters, including trimmed ones). Unlike the per-version health
  /// windows these DO merge, so a fleet sink reports how much
  /// shadow-scoring evidence the fleet has seen.
  int64_t drift_sessions = 0;
  int64_t drift_engaged = 0;

  /// Observed wall-clock window (seconds) behind `qps`, measured from
  /// the first recorded request (not construction), so idle setup time
  /// does not dilute the rate; 0 before the first request. Merging
  /// takes the max across sources (concurrent shards share the wall),
  /// not the sum.
  double wall_seconds = 0.0;
};

/// Point-in-time view of the serving counters (safe to copy around and
/// print without holding any lock): the raw counters plus what is
/// derived from them and from the latency reservoirs.
struct ServingStatsSnapshot : ServingCounters {
  /// Request latency: mean, nearest-rank percentiles over the retained
  /// reservoir, and completed requests per second of `wall_seconds`.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;

  /// Occupancy — `mean_batch_requests` — is the cross-session
  /// amortisation factor: 1.0 means every request paid its own forward.
  double mean_batch_requests = 0.0;
  double mean_batch_items = 0.0;
  double queue_mean_ms = 0.0;
  double mean_slate_items = 0.0;
  double mean_active_lanes = 0.0;

  /// End-to-end request latency split by level-1 outcome: the hit path
  /// skips collation, lane leasing and the forward pass entirely, and
  /// these two distributions quantify exactly what that buys (the
  /// bench gate asserts hit p99 < miss p99).
  double score_hit_p50_ms = 0.0;
  double score_hit_p99_ms = 0.0;
  double score_miss_p50_ms = 0.0;
  double score_miss_p99_ms = 0.0;

  /// Rerank-stage latency: one sample per slate-scoring forward pass
  /// (the lane critical section of a slate micro-batch — collation and
  /// response fan-out excluded).
  double rerank_p50_ms = 0.0;
  double rerank_p99_ms = 0.0;

  /// Versions published via `ModelPool::UpdateModel` over the pool's
  /// lifetime (filled by `ServingEngine::Stats` from the pool; 0 when
  /// snapshotting a bare ServingStats).
  int64_t model_swaps = 0;

  /// Per model-version lease counters, ordered by (model, version).
  std::vector<ModelVersionStatsSnapshot> versions;

  /// Per model-version health windows (see VersionHealthSnapshot),
  /// ordered by (model, version).
  std::vector<VersionHealthSnapshot> version_health;

  /// The retained latency reservoirs, ascending-sorted — what the
  /// percentiles above were computed from: every request, then split by
  /// score-cache outcome, then one sample per rerank forward. Carried so
  /// snapshots can be POOLED: `ServingStats::MergeFrom` concatenates the
  /// reservoirs of per-shard snapshots, which is the exact sample union
  /// (and thus yields exact merged percentiles) as long as every source
  /// stayed under kMaxSamples samples per reservoir.
  std::vector<double> samples_ms;
  std::vector<double> score_hit_samples_ms;
  std::vector<double> score_miss_samples_ms;
  std::vector<double> rerank_samples_ms;
};

/// Outcome of one session-cache lookup (level-1 scores, level-2
/// encodings, §III-F gate rows), from the cache through to the stats
/// counters. kStale means the entry existed but its validity stamp no
/// longer matched (history moved on) and was evicted; kNone means the
/// level did not look up at all.
enum class CacheLookup {
  kNone,
  kMiss,
  kHit,
  kStale,
};

/// One executed micro-batch's lease, as recorded into the stats.
struct LeaseSample {
  std::string model;
  int64_t version = 0;
  int replica = 0;
  int num_replicas = 1;
  /// Lanes of the snapshot active at acquire time (including this one).
  int active_lanes = 1;
  /// False for a micro-batch served ENTIRELY from the level-1 score
  /// cache: the snapshot was pinned (model/version above are real) but
  /// no replica lane was leased and no forward pass ran, so the batch
  /// and lease counters are skipped — only the per-request samples and
  /// the version health window are fed.
  bool lane_leased = true;
  /// Ids the forward's collation mapped to the unknown bucket
  /// (Batch::unknown_ids); counted only when lane_leased.
  int64_t unknown_ids = 0;
};

/// One request's contribution to a micro-batch stats record.
struct RequestSample {
  int64_t items = 0;
  double latency_ms = 0.0;
  double queue_ms = -1.0;  // < 0: not an async (queued) request.
  /// A stale gate row counts as a plain gate miss; a stale score or
  /// encoding entry counts as a miss AND an invalidation.
  CacheLookup gate_lookup = CacheLookup::kNone;
  CacheLookup score_lookup = CacheLookup::kNone;     // Level-1 score cache.
  CacheLookup encoding_lookup = CacheLookup::kNone;  // Level-2 encodings.
};

/// Latency accounting for the serving engine. Per-request latency
/// samples are kept, so percentiles are exact (nearest-rank) up to
/// kMaxSamples samples per reservoir; past that a uniform reservoir
/// bounds memory and percentiles become statistically representative
/// estimates. Counts, totals and the means stay exact throughout.
/// Thread-safe: engine workers record concurrently.
class ServingStats {
 public:
  /// Samples retained per latency reservoir for percentile computation.
  static constexpr int64_t kMaxSamples = 1 << 16;

  /// Per-model cap on retained version entries in the lease breakdown:
  /// under continuous hot swaps only the newest versions stay, so the
  /// stats map (copied on every Snapshot) cannot grow without bound.
  static constexpr int kMaxVersionsPerModel = 8;

  /// Sliding-window size of the per-version health percentiles (the
  /// rollout gate's p99 is computed over the newest kHealthWindow
  /// samples of each version).
  static constexpr int64_t kHealthWindow = 2048;

  ServingStats() = default;

  /// Records one executed micro-batch (one forward pass carrying
  /// `batch_items` candidates) and all its requests under a SINGLE
  /// lock acquisition: workers and the async flusher all contend on
  /// this mutex. Each sample counts one request, its queue delay
  /// (queue_ms >= 0) and its cache lookups; samples with a score
  /// lookup also land in the hit/miss split latency reservoirs. A
  /// non-null `lease` counts one snapshot+replica lease and feeds each
  /// sample's latency into the lease's (model, version) health window
  /// (ok=true; the engine's scored path cannot fail). A lease with
  /// lane_leased == false (micro-batch fully served from the score
  /// cache) skips the batch and lease counters: no forward pass ran.
  void RecordMicroBatch(int64_t batch_items,
                        const std::vector<RequestSample>& samples,
                        const LeaseSample* lease = nullptr);

  /// Records the rerank stage of one slate-scoring micro-batch: one
  /// size-histogram entry per slate in `slate_sizes` (the per-request
  /// candidate counts the forward scored atomically) plus the stage's
  /// forward latency into the rerank reservoir. One lock acquisition
  /// for the whole micro-batch, like RecordMicroBatch.
  void RecordSlateBatch(std::span<const int64_t> slate_sizes,
                        double rerank_ms);

  /// Records one request outcome into `(model, version)`'s health
  /// window: `ok` requests contribute their latency to the sliding
  /// percentile window, failed ones count toward the error rate the
  /// rollout gate checks. The engine feeds this per scored request (via
  /// RecordMicroBatch) and per serving-side async reject (backpressure
  /// / stopped, attributed to the routed arm's version by Submit); it
  /// is public so error paths outside the engine can attribute
  /// failures to a version directly.
  void RecordVersionSample(const std::string& model, int64_t version,
                           double latency_ms, bool ok);

  /// Records one shadow-scored session outcome into `(model,
  /// version)`'s drift counters: `engaged` is true when a
  /// positive-labelled item surfaced in the version's top-K for that
  /// session (UCTR-style engagement; see train/retrain_driver.h for
  /// the shadow-scoring loop that feeds this). Also bumps the
  /// engine-wide drift totals. Ignored per-version (totals still
  /// count) when the version is older than every retained one.
  void RecordDriftSample(const std::string& model, int64_t version,
                         bool engaged);

  /// Zeroes `(model, version)`'s drift counters (latency/error health
  /// and the engine-wide totals are untouched). The drift gate compares
  /// ENGAGEMENT RATES across arms, which is only fair over the same
  /// shadow population — the retrain driver calls this on the stable
  /// arm at the start of each round so a long-lived stable's evidence
  /// from earlier (differently difficult) windows does not skew the
  /// floor the fresh candidate must clear.
  void ResetDriftCounters(const std::string& model, int64_t version);

  /// The health window of `(model, version)`; zeros when that version
  /// has recorded nothing (or was trimmed as one of the oldest).
  VersionHealthSnapshot VersionHealth(const std::string& model,
                                      int64_t version) const;

  /// Lock-cheap counter reads: with these three the fleet admission
  /// controller refreshes its sliding SERVICE-time estimate —
  /// (total - queue) / requests over a counter delta — without paying
  /// for a full Snapshot (which copies and sorts the reservoirs).
  int64_t requests() const;
  double total_ms() const;
  double queue_total_ms() const;

  ServingStatsSnapshot Snapshot() const;

  /// Folds another engine's snapshot into this stats object — the
  /// fleet-aggregation path (serving/shard.h): a fresh ServingStats is
  /// used as a sink, each shard's Snapshot() is merged in, and the
  /// sink's own Snapshot() then reports fleet-wide counters and EXACT
  /// pooled percentiles (the snapshot carries its latency reservoirs;
  /// concatenation is the sample union while every source stayed under
  /// kMaxSamples). Counters and per-version lease breakdowns sum;
  /// max-fields take the max; the QPS wall-clock window takes the max
  /// of the sources (concurrent shards share the wall). Per-version
  /// HEALTH windows are not merged — a sliding window has no exact
  /// merge, and rollout health is gated per shard anyway.
  void MergeFrom(const ServingStatsSnapshot& other);

  /// Drops all samples and restarts the QPS wall-clock.
  void Reset();

 private:
  /// A uniform latency sample (Algorithm R) capped at kMaxSamples:
  /// exact until the cap, each of `count` samples kept with equal
  /// probability past it.
  class LatencyReservoir {
   public:
    /// Appends one sample; `rng` is the owner's xorshift state, which
    /// all its reservoirs draw from in record order.
    void Append(double latency_ms, uint64_t* rng);
    /// Pools `samples`, which stand for `count` recorded samples. The
    /// concatenation may exceed kMaxSamples in an aggregation sink —
    /// that is intentional (it IS the exact union); Append only ever
    /// overwrites slots below kMaxSamples, so an oversized reservoir
    /// stays safe if the sink later records directly.
    void Merge(const std::vector<double>& samples, int64_t count);
    const std::vector<double>& samples() const { return samples_; }

   private:
    std::vector<double> samples_;
    int64_t count_ = 0;  // Samples ever appended or merged.
  };

  /// Per-version health accumulator: a circular buffer of the newest
  /// kHealthWindow ok-latencies plus lifetime request/error counts.
  struct HealthWindow {
    std::vector<double> ring;  // Capacity kHealthWindow, overwritten FIFO.
    size_t next = 0;           // Ring write cursor.
    int64_t requests = 0;
    int64_t errors = 0;
    /// Shadow-scored drift evidence (lifetime, like requests/errors).
    int64_t drift_sessions = 0;
    int64_t drift_engaged = 0;
  };

  using VersionKey = std::pair<std::string, int64_t>;

  /// Everything Reset() clears.
  struct State {
    ServingCounters counters;
    LatencyReservoir requests;
    LatencyReservoir score_hits;
    LatencyReservoir score_misses;
    LatencyReservoir rerank;
    /// Keyed by (model, version), so one model's versions are
    /// contiguous and ascending; lane_leases sized on first use per
    /// lane. Both maps keep only the newest kMaxVersionsPerModel
    /// versions per model.
    std::map<VersionKey, std::vector<int64_t>> version_lane_leases;
    std::map<VersionKey, HealthWindow> version_health;
    bool wall_started = false;  // Clock starts at the first request.
    double wall_offset_s = 0.0;  // First request's own service time.
  };

  static void AppendHealthSample(HealthWindow* window, double latency_ms,
                                 bool ok);
  /// Builds the percentile view from a COPIED window — called outside
  /// mu_ so the O(N log N) sort never blocks the recording hot path.
  static VersionHealthSnapshot HealthSnapshotOf(const std::string& model,
                                                int64_t version,
                                                HealthWindow window);

  // One mutex guards all state, the reservoirs' vector growth, slot
  // overwrites and the xorshift state included: samples are recorded
  // concurrently by RankBatch worker threads and the async flusher
  // thread. The async stress test asserts exact counts under contention
  // and the TSan CI job checks the locking.
  mutable std::mutex mu_;
  State state_;
  uint64_t reservoir_rng_ = 0x9E3779B97F4A7C15ull;  // Survives Reset.
  Stopwatch wall_;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_SERVING_STATS_H_
