#include "serving/serving_stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace awmoe {

namespace {

/// Nearest-rank percentile over an ascending-sorted sample vector: the
/// smallest sample with at least pct% of the mass at or below it.
double NearestRank(const std::vector<double>& sorted, double pct) {
  AWMOE_CHECK(pct > 0.0 && pct <= 100.0) << "percentile " << pct;
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  rank = std::max<size_t>(rank, 1);
  return sorted[rank - 1];
}

/// num / den, or 0 when nothing was counted.
double Ratio(double num, int64_t den) {
  return den > 0 ? num / static_cast<double>(den) : 0.0;
}

/// Counts one lookup into a cache level's counters: a stale entry is a
/// miss, and also an invalidation where the level counts those
/// (`invalidations` non-null).
void CountLookup(CacheLookup outcome, int64_t* hits, int64_t* misses,
                 int64_t* invalidations) {
  if (outcome == CacheLookup::kNone) return;
  if (outcome == CacheLookup::kHit) {
    ++*hits;
    return;
  }
  ++*misses;
  if (outcome == CacheLookup::kStale && invalidations != nullptr) {
    ++*invalidations;
  }
}

/// Folds `from` into `to`: each counter once, summed, or max-ed where
/// it is a maximum or the shared wall-clock window.
void AddCounters(const ServingCounters& from, ServingCounters* to) {
  to->requests += from.requests;
  to->items += from.items;
  to->total_ms += from.total_ms;
  to->batches += from.batches;
  to->batch_requests_total += from.batch_requests_total;
  to->batch_items_total += from.batch_items_total;
  to->max_batch_requests =
      std::max(to->max_batch_requests, from.max_batch_requests);
  to->queued_requests += from.queued_requests;
  to->queue_total_ms += from.queue_total_ms;
  to->queue_max_ms = std::max(to->queue_max_ms, from.queue_max_ms);
  to->gate_cache_hits += from.gate_cache_hits;
  to->gate_cache_misses += from.gate_cache_misses;
  to->score_cache_hits += from.score_cache_hits;
  to->score_cache_misses += from.score_cache_misses;
  to->score_cache_invalidations += from.score_cache_invalidations;
  to->encoding_cache_hits += from.encoding_cache_hits;
  to->encoding_cache_misses += from.encoding_cache_misses;
  to->encoding_cache_invalidations += from.encoding_cache_invalidations;
  to->score_cache_entries += from.score_cache_entries;
  to->score_cache_bytes += from.score_cache_bytes;
  to->encoding_cache_entries += from.encoding_cache_entries;
  to->encoding_cache_bytes += from.encoding_cache_bytes;
  to->gate_cache_entries += from.gate_cache_entries;
  to->gate_cache_bytes += from.gate_cache_bytes;
  to->slates += from.slates;
  to->slate_items += from.slate_items;
  to->slates_le10 += from.slates_le10;
  to->slates_le25 += from.slates_le25;
  to->slates_le50 += from.slates_le50;
  to->slates_gt50 += from.slates_gt50;
  to->snapshot_leases += from.snapshot_leases;
  to->active_lanes_total += from.active_lanes_total;
  to->max_active_lanes = std::max(to->max_active_lanes, from.max_active_lanes);
  to->unknown_ids += from.unknown_ids;
  to->drift_sessions += from.drift_sessions;
  to->drift_engaged += from.drift_engaged;
  to->wall_seconds = std::max(to->wall_seconds, from.wall_seconds);
}

/// Finds-or-creates `(model, version)`'s entry in one of the
/// per-version maps (lease breakdown, health windows), keeping only the
/// model's newest kMaxVersionsPerModel entries; the key orders one
/// model's entries by ascending version. Returns nullptr when the
/// version is too old to track: a fresh insert below every retained
/// version is itself what the trim drops (e.g. a straggler lease on a
/// long-retired snapshot), and is not resurrected. Otherwise the
/// pointer stays valid for the rest of the locked section (map nodes
/// are stable).
template <typename Map>
typename Map::mapped_type* VersionEntry(Map* map, const std::string& model,
                                        int64_t version) {
  auto [it, inserted] = map->try_emplace({model, version});
  if (!inserted) return &it->second;
  auto first = map->lower_bound({model, 0});
  int count = 0;
  for (auto walk = first; walk != map->end() && walk->first.first == model;
       ++walk) {
    ++count;
  }
  bool erased_inserted = false;
  for (; count > ServingStats::kMaxVersionsPerModel; --count) {
    if (first == it) erased_inserted = true;
    first = map->erase(first);
  }
  return erased_inserted ? nullptr : &it->second;
}

}  // namespace

void ServingStats::LatencyReservoir::Append(double latency_ms, uint64_t* rng) {
  ++count_;
  if (static_cast<int64_t>(samples_.size()) < kMaxSamples) {
    samples_.push_back(latency_ms);
    return;
  }
  // Algorithm R: keep each of the `count_` samples with equal
  // probability in O(kMaxSamples) memory.
  *rng ^= *rng << 13;
  *rng ^= *rng >> 7;
  *rng ^= *rng << 17;
  const uint64_t slot = *rng % static_cast<uint64_t>(count_);
  if (slot < static_cast<uint64_t>(kMaxSamples)) {
    samples_[static_cast<size_t>(slot)] = latency_ms;
  }
}

void ServingStats::LatencyReservoir::Merge(const std::vector<double>& samples,
                                           int64_t count) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
  count_ += count;
}

void ServingStats::RecordMicroBatch(
    int64_t batch_items, const std::vector<RequestSample>& samples,
    const LeaseSample* lease) {
  std::lock_guard<std::mutex> lock(mu_);
  ServingCounters& c = state_.counters;
  // A fully score-cache-served micro-batch leased no lane and ran no
  // forward pass: the batch (occupancy) and lease counters would
  // misreport it as compute.
  const bool forward_ran = lease == nullptr || lease->lane_leased;
  if (forward_ran) {
    const int64_t batch_requests = static_cast<int64_t>(samples.size());
    ++c.batches;
    c.batch_requests_total += batch_requests;
    c.batch_items_total += batch_items;
    c.max_batch_requests = std::max(c.max_batch_requests, batch_requests);
  }
  // One map probe for the whole micro-batch: every sample lands in the
  // same (model, version) health window as the shared lease.
  HealthWindow* health =
      lease == nullptr
          ? nullptr
          : VersionEntry(&state_.version_health, lease->model, lease->version);
  for (const RequestSample& sample : samples) {
    if (!state_.wall_started) {
      // The clock starts when serving starts, not at construction; this
      // is the first completion, so backdate by its latency to include
      // its service time in the QPS window.
      wall_.Restart();
      state_.wall_started = true;
      state_.wall_offset_s = sample.latency_ms / 1e3;
    }
    ++c.requests;
    c.items += sample.items;
    c.total_ms += sample.latency_ms;
    state_.requests.Append(sample.latency_ms, &reservoir_rng_);
    if (sample.queue_ms >= 0.0) {
      ++c.queued_requests;
      c.queue_total_ms += sample.queue_ms;
      c.queue_max_ms = std::max(c.queue_max_ms, sample.queue_ms);
    }
    CountLookup(sample.gate_lookup, &c.gate_cache_hits, &c.gate_cache_misses,
                /*invalidations=*/nullptr);
    CountLookup(sample.score_lookup, &c.score_cache_hits,
                &c.score_cache_misses, &c.score_cache_invalidations);
    if (sample.score_lookup != CacheLookup::kNone) {
      LatencyReservoir& split = sample.score_lookup == CacheLookup::kHit
                                    ? state_.score_hits
                                    : state_.score_misses;
      split.Append(sample.latency_ms, &reservoir_rng_);
    }
    CountLookup(sample.encoding_lookup, &c.encoding_cache_hits,
                &c.encoding_cache_misses, &c.encoding_cache_invalidations);
    if (health != nullptr) {
      AppendHealthSample(health, sample.latency_ms, /*ok=*/true);
    }
  }
  if (lease == nullptr || !lease->lane_leased) return;
  c.unknown_ids += lease->unknown_ids;
  ++c.snapshot_leases;
  c.active_lanes_total += lease->active_lanes;
  c.max_active_lanes =
      std::max(c.max_active_lanes, static_cast<int64_t>(lease->active_lanes));
  std::vector<int64_t>* lanes = VersionEntry(&state_.version_lane_leases,
                                             lease->model, lease->version);
  if (lanes == nullptr) return;  // Older than every retained version.
  if (static_cast<int>(lanes->size()) < lease->num_replicas) {
    lanes->resize(static_cast<size_t>(lease->num_replicas), 0);
  }
  ++(*lanes)[static_cast<size_t>(lease->replica)];
}

void ServingStats::RecordSlateBatch(std::span<const int64_t> slate_sizes,
                                    double rerank_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ServingCounters& c = state_.counters;
  for (int64_t size : slate_sizes) {
    ++c.slates;
    c.slate_items += size;
    if (size <= 10) {
      ++c.slates_le10;
    } else if (size <= 25) {
      ++c.slates_le25;
    } else if (size <= 50) {
      ++c.slates_le50;
    } else {
      ++c.slates_gt50;
    }
  }
  state_.rerank.Append(rerank_ms, &reservoir_rng_);
}

void ServingStats::RecordVersionSample(const std::string& model,
                                       int64_t version, double latency_ms,
                                       bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  HealthWindow* window = VersionEntry(&state_.version_health, model, version);
  if (window != nullptr) AppendHealthSample(window, latency_ms, ok);
}

void ServingStats::RecordDriftSample(const std::string& model,
                                     int64_t version, bool engaged) {
  std::lock_guard<std::mutex> lock(mu_);
  ++state_.counters.drift_sessions;
  if (engaged) ++state_.counters.drift_engaged;
  HealthWindow* window = VersionEntry(&state_.version_health, model, version);
  if (window == nullptr) return;  // Older than every retained version.
  ++window->drift_sessions;
  if (engaged) ++window->drift_engaged;
}

void ServingStats::ResetDriftCounters(const std::string& model,
                                      int64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.version_health.find({model, version});
  if (it == state_.version_health.end()) return;
  it->second.drift_sessions = 0;
  it->second.drift_engaged = 0;
}

void ServingStats::AppendHealthSample(HealthWindow* window, double latency_ms,
                                      bool ok) {
  ++window->requests;
  if (!ok) {
    ++window->errors;
  } else if (static_cast<int64_t>(window->ring.size()) < kHealthWindow) {
    window->ring.push_back(latency_ms);
  } else {
    // Sliding window, not a reservoir: the rollout gate wants the
    // version's CURRENT tail, so the oldest sample is the one evicted.
    window->ring[window->next] = latency_ms;
    window->next = (window->next + 1) % static_cast<size_t>(kHealthWindow);
  }
}

VersionHealthSnapshot ServingStats::HealthSnapshotOf(const std::string& model,
                                                     int64_t version,
                                                     HealthWindow window) {
  VersionHealthSnapshot snap;
  snap.model = model;
  snap.version = version;
  snap.requests = window.requests;
  snap.errors = window.errors;
  snap.error_rate =
      Ratio(static_cast<double>(window.errors), window.requests);
  snap.drift_sessions = window.drift_sessions;
  snap.drift_engaged = window.drift_engaged;
  snap.drift_engaged_rate =
      Ratio(static_cast<double>(window.drift_engaged), window.drift_sessions);
  snap.window = static_cast<int64_t>(window.ring.size());
  std::sort(window.ring.begin(), window.ring.end());
  snap.p50_ms = NearestRank(window.ring, 50.0);
  snap.p99_ms = NearestRank(window.ring, 99.0);
  return snap;
}

VersionHealthSnapshot ServingStats::VersionHealth(const std::string& model,
                                                  int64_t version) const {
  HealthWindow copy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = state_.version_health.find({model, version});
    if (it != state_.version_health.end()) copy = it->second;
  }
  // Sort outside the lock: the rollout gate polls this while workers
  // record into the same mutex.
  return HealthSnapshotOf(model, version, std::move(copy));
}

int64_t ServingStats::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.counters.requests;
}

double ServingStats::total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.counters.total_ms;
}

double ServingStats::queue_total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.counters.queue_total_ms;
}

ServingStatsSnapshot ServingStats::Snapshot() const {
  ServingStatsSnapshot snap;
  std::map<VersionKey, HealthWindow> health;
  {
    std::lock_guard<std::mutex> lock(mu_);
    static_cast<ServingCounters&>(snap) = state_.counters;
    snap.samples_ms = state_.requests.samples();
    snap.score_hit_samples_ms = state_.score_hits.samples();
    snap.score_miss_samples_ms = state_.score_misses.samples();
    snap.rerank_samples_ms = state_.rerank.samples();
    for (const auto& [key, lanes] : state_.version_lane_leases) {
      ModelVersionStatsSnapshot version;
      version.model = key.first;
      version.version = key.second;
      version.lane_leases = lanes;
      for (int64_t count : lanes) version.leases += count;
      snap.versions.push_back(std::move(version));
    }
    health = state_.version_health;
    if (state_.wall_started) {
      snap.wall_seconds = std::max(
          snap.wall_seconds, wall_.ElapsedSeconds() + state_.wall_offset_s);
    }
  }
  // Everything below works on the copies, outside the lock, so
  // concurrent recorders are not blocked behind the O(n log n) sorts.
  for (auto& [key, window] : health) {
    snap.version_health.push_back(
        HealthSnapshotOf(key.first, key.second, std::move(window)));
  }
  for (std::vector<double>* samples :
       {&snap.samples_ms, &snap.score_hit_samples_ms,
        &snap.score_miss_samples_ms, &snap.rerank_samples_ms}) {
    std::sort(samples->begin(), samples->end());
  }
  snap.mean_ms = Ratio(snap.total_ms, snap.requests);
  snap.p50_ms = NearestRank(snap.samples_ms, 50.0);
  snap.p95_ms = NearestRank(snap.samples_ms, 95.0);
  snap.p99_ms = NearestRank(snap.samples_ms, 99.0);
  if (snap.wall_seconds > 0.0) {
    snap.qps = static_cast<double>(snap.requests) / snap.wall_seconds;
  }
  snap.mean_batch_requests =
      Ratio(static_cast<double>(snap.batch_requests_total), snap.batches);
  snap.mean_batch_items =
      Ratio(static_cast<double>(snap.batch_items_total), snap.batches);
  snap.queue_mean_ms = Ratio(snap.queue_total_ms, snap.queued_requests);
  snap.mean_slate_items =
      Ratio(static_cast<double>(snap.slate_items), snap.slates);
  snap.mean_active_lanes =
      Ratio(static_cast<double>(snap.active_lanes_total), snap.snapshot_leases);
  snap.score_hit_p50_ms = NearestRank(snap.score_hit_samples_ms, 50.0);
  snap.score_hit_p99_ms = NearestRank(snap.score_hit_samples_ms, 99.0);
  snap.score_miss_p50_ms = NearestRank(snap.score_miss_samples_ms, 50.0);
  snap.score_miss_p99_ms = NearestRank(snap.score_miss_samples_ms, 99.0);
  snap.rerank_p50_ms = NearestRank(snap.rerank_samples_ms, 50.0);
  snap.rerank_p99_ms = NearestRank(snap.rerank_samples_ms, 99.0);
  return snap;
}

void ServingStats::MergeFrom(const ServingStatsSnapshot& other) {
  std::lock_guard<std::mutex> lock(mu_);
  AddCounters(other, &state_.counters);
  // The request reservoir stands for every request of the source; the
  // split and rerank reservoirs for the samples they carry.
  state_.requests.Merge(other.samples_ms, other.requests);
  state_.score_hits.Merge(
      other.score_hit_samples_ms,
      static_cast<int64_t>(other.score_hit_samples_ms.size()));
  state_.score_misses.Merge(
      other.score_miss_samples_ms,
      static_cast<int64_t>(other.score_miss_samples_ms.size()));
  state_.rerank.Merge(other.rerank_samples_ms,
                      static_cast<int64_t>(other.rerank_samples_ms.size()));
  for (const ModelVersionStatsSnapshot& version : other.versions) {
    std::vector<int64_t>* lanes = VersionEntry(
        &state_.version_lane_leases, version.model, version.version);
    if (lanes == nullptr) continue;  // Older than every retained version.
    if (lanes->size() < version.lane_leases.size()) {
      lanes->resize(version.lane_leases.size(), 0);
    }
    for (size_t lane = 0; lane < version.lane_leases.size(); ++lane) {
      (*lanes)[lane] += version.lane_leases[lane];
    }
  }
  // Health windows are deliberately NOT merged (sliding windows have no
  // exact union); see the header comment.
}

void ServingStats::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = State{};
}

}  // namespace awmoe
