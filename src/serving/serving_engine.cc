#include "serving/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "data/batcher.h"
#include "models/ranker.h"
#include "nn/inference.h"
#include "util/check.h"
#include "util/hash.h"

namespace awmoe {

ServingEngine::ServingEngine(ModelPool* pool, ServingEngineOptions options)
    : pool_(pool), options_(options) {
  AWMOE_CHECK(pool_ != nullptr) << "ServingEngine: null pool";
  AWMOE_CHECK(options_.max_batch_items > 0)
      << "max_batch_items " << options_.max_batch_items;
  AWMOE_CHECK(options_.max_batch_candidates >= 0)
      << "max_batch_candidates " << options_.max_batch_candidates;
  AWMOE_CHECK(options_.max_queue_delay_ms >= 0.0)
      << "max_queue_delay_ms " << options_.max_queue_delay_ms;
  AWMOE_CHECK(options_.max_pending_requests >= 0)
      << "max_pending_requests " << options_.max_pending_requests;
  AWMOE_CHECK(options_.async_flush_lanes >= 0)
      << "async_flush_lanes " << options_.async_flush_lanes;
  for (int t = 1; t < options_.num_threads; ++t) {
    workers_.emplace_back([this] {
      for (;;) {
        std::function<void()> job;
        {
          std::unique_lock<std::mutex> lock(queue_mu_);
          queue_cv_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
          if (queue_.empty()) {
            if (stopping_) return;
            continue;
          }
          job = std::move(queue_.back());
          queue_.pop_back();
        }
        job();
      }
    });
  }
}

ServingEngine::~ServingEngine() {
  // Drain the async front first: its flusher lanes score pending
  // batches through pool snapshots, which must still be reachable.
  Stop(/*drain=*/true);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ServingEngine::GateSharingActive(const std::string& model) const {
  // Ask the CURRENT snapshot: eligibility is re-evaluated on every hot
  // swap, so a published model change (e.g. to a non-AW-MoE ranker)
  // changes the answer here and the path Rank actually takes together.
  std::shared_ptr<const ModelSnapshot> snapshot =
      pool_->CurrentSnapshot(pool_->ResolveName(model));
  return options_.share_gate && snapshot->gate_shareable();
}

ServingStatsSnapshot ServingEngine::Stats() const {
  ServingStatsSnapshot snap = stats_.Snapshot();
  snap.model_swaps = pool_->swap_count();
  // Live cache occupancy comes from the pool at snapshot time (gauges,
  // not counters): retired snapshots drop out the moment they free.
  const CacheUsage usage = pool_->TotalCacheUsage();
  snap.score_cache_entries += usage.score_entries;
  snap.score_cache_bytes += usage.score_bytes;
  snap.encoding_cache_entries += usage.encoding_entries;
  snap.encoding_cache_bytes += usage.encoding_bytes;
  snap.gate_cache_entries += usage.gate_entries;
  snap.gate_cache_bytes += usage.gate_bytes;
  return snap;
}

RolloutArm ServingEngine::RouteArm(const std::string& resolved,
                                   const RankRequest& request) const {
  switch (request.arm_policy) {
    case ArmPolicy::kForceStable:
      return RolloutArm::kStable;
    case ArmPolicy::kForceCandidate:
      return RolloutArm::kCandidate;
    case ArmPolicy::kRouter:
      break;
  }
  return router_.Route(resolved, request.session_id);
}

namespace {

// True when any embedding id the forward reads is negative. (An id at
// or above its vocabulary is not an error: collation maps it to the
// 0 = unknown bucket.)
bool HasNegativeId(const Example& item) {
  const size_t history = item.behavior_items.size();
  for (size_t j = 0; j < history; ++j) {
    if (item.behavior_items[j] < 0 || item.behavior_cats[j] < 0 ||
        item.behavior_brands[j] < 0) {
      return true;
    }
  }
  return std::min({item.target_item, item.target_cat, item.target_brand,
                   item.target_shop, item.query_id, item.query_cat,
                   item.age_segment}) < 0;
}

// True when a dense input (numeric features, item side-info) is NaN or
// infinite: it would reach the score silently, not abort.
bool HasNonFiniteFeature(const Example& item) {
  auto finite = [](float v) { return std::isfinite(v); };
  return !std::all_of(item.numeric.begin(), item.numeric.end(), finite) ||
         !std::all_of(item.behavior_attrs.begin(), item.behavior_attrs.end(),
                      finite) ||
         !std::all_of(std::begin(item.target_attrs),
                      std::end(item.target_attrs), finite);
}

// Client-input admission, the one check behind RankBatch, Submit and
// the pinned-snapshot backstop: bad input becomes a per-request status
// and never reaches a forward whose CHECKs would abort the process, nor
// a score it would silently poison. `snapshot` is null when the model
// name did not resolve.
Status AdmitRequest(const RankRequest& request, const ModelSnapshot* snapshot,
                    const DatasetMeta& meta) {
  if (snapshot == nullptr) {
    return Status::NotFound("unknown model '" + request.model + "'");
  }
  if (request.items.empty()) {
    return Status::InvalidArgument("empty candidate list for session " +
                                   std::to_string(request.session_id));
  }
  // Per candidate: the feature widths CollateBatch and
  // Standardizer::Transform rely on, then id signs and finite values.
  for (size_t i = 0; i < request.items.size(); ++i) {
    const Example& item = *request.items[i];
    const size_t history = item.behavior_items.size();
    const char* bad = nullptr;
    if (static_cast<int64_t>(item.numeric.size()) != meta.numeric_dim) {
      bad = "numeric width is not the dataset's numeric_dim";
    } else if (!item.behavior_attrs.empty() &&
               item.behavior_attrs.size() !=
                   history * static_cast<size_t>(Example::kItemAttrs)) {
      bad = "behavior_attrs is not kItemAttrs values per behaviour";
    } else if (item.behavior_cats.size() < history ||
               item.behavior_brands.size() < history) {
      bad = "behavior_cats/behavior_brands shorter than behavior_items";
    } else if (HasNegativeId(item)) {
      bad = "negative id";
    } else if (HasNonFiniteFeature(item)) {
      bad = "non-finite feature value";
    }
    if (bad != nullptr) {
      return Status::InvalidArgument(
          "candidate " + std::to_string(i) + " of session " +
          std::to_string(request.session_id) + ": " + bad);
    }
  }
  const int64_t max_slate = snapshot->max_slate_items();
  if (max_slate > 0 &&
      static_cast<int64_t>(request.items.size()) > max_slate) {
    return Status::InvalidArgument(
        "slate of " + std::to_string(request.items.size()) +
        " candidates exceeds model '" + snapshot->name() +
        "' max slate length " + std::to_string(max_slate));
  }
  return Status::OK();
}

// The response fields admission settles: status, session, model and
// version. It is the whole response of a rejected request; `replica`
// stays -1 unless a lane serves the request.
RankResponse AdmissionResponse(const RankRequest& request, Status status,
                              const ModelSnapshot* snapshot) {
  RankResponse response;
  response.status = std::move(status);
  response.session_id = request.session_id;
  response.model = snapshot == nullptr ? request.model : snapshot->name();
  response.model_version = snapshot == nullptr ? 0 : snapshot->version();
  response.replica = -1;
  return response;
}

std::future<RankResponse> ReadyFuture(RankResponse response) {
  std::promise<RankResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

// One request of a micro-batch, by micro position.
struct MicroRequest {
  const RankRequest* request = nullptr;
  size_t index = 0;  // Into the caller's requests and responses.
  Status admission;  // Non-OK: rejected at the pinned-snapshot backstop.
  CacheLookup score_lookup = CacheLookup::kNone;
  // GateContextHash of the first item: the stamp of both session-row
  // caches (the encoding reads a subset of the gate's inputs).
  uint64_t context_hash = 0;
  uint64_t history_hash = 0;
  uint64_t set_hash = 0;
  std::vector<uint64_t> item_hashes;
  std::vector<float> hit_scores;
};

// Where one miss request's row of a session-row kind comes from.
struct RowSource {
  // kMiss while the kind's cache is off: every request probes.
  CacheLookup lookup = CacheLookup::kMiss;
  int64_t probe_row = -1;  // Row of this micro-batch's probe; -1: `cached`.
  std::vector<float> cached;
};

// One session-row kind over the miss requests of a micro-batch.
struct SessionRows {
  const SessionRowKind* kind = nullptr;  // Null: the kind is off.
  std::vector<RowSource> source;         // By miss position.
  std::vector<const Example*> probes;    // One per distinct key, key order.
  std::vector<SessionRowKey> keys;       // keys[r] is the key of probes[r].
};

// The requests of a micro-batch that need a forward, by miss position
// k: admitted, and not served from the level-1 score cache.
struct MissBatch {
  std::vector<MicroRequest*> micro;
  std::vector<int64_t> first_row;  // First logits row, i.e. slate start.
  std::vector<float> scores;       // By logits row.
  SessionRows gate;
  SessionRows encoding;
  int64_t unknown_ids = 0;  // Batch::unknown_ids of the forward's batch.
};

// Admit stage: the backstop against the PINNED snapshot. RankBatch and
// Submit admitted every request against the snapshot current at their
// admission time; a hot swap to a model with a smaller slate cap
// between then and this pin still lands here.
std::vector<MicroRequest> AdmitMicroBatch(
    const std::vector<size_t>& request_indices,
    const std::vector<RankRequest>& requests, const ModelSnapshot& snapshot,
    const DatasetMeta& meta) {
  std::vector<MicroRequest> batch(request_indices.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].index = request_indices[i];
    batch[i].request = &requests[batch[i].index];
    batch[i].admission = AdmitRequest(*batch[i].request, &snapshot, meta);
  }
  return batch;
}

// Level-1 stage: an exact repeat request (same session, same candidate
// set, unchanged behaviour history) takes its scores straight from the
// snapshot's cache. Per-element CandidateScoreHash verification inside
// Lookup makes a set-hash collision a miss, never a wrong score.
void LookupScores(SessionScoreCache& cache, std::span<MicroRequest> batch) {
  for (MicroRequest& entry : batch) {
    if (!entry.admission.ok()) continue;
    const RankRequest& request = *entry.request;
    entry.history_hash = SessionHistoryHash(*request.items[0]);
    entry.item_hashes.reserve(request.items.size());
    for (const Example* item : request.items) {
      entry.item_hashes.push_back(CandidateScoreHash(*item));
      entry.set_hash = SetHashAdd(entry.set_hash, entry.item_hashes.back());
    }
    entry.hit_scores.resize(request.items.size());
    entry.score_lookup =
        cache.Lookup(request.session_id, entry.set_hash, entry.history_hash,
                     entry.item_hashes, entry.hit_scores);
  }
}

// Gathers the requests that need a forward and lays out their rows:
// each request's candidates are one contiguous block, in miss order.
// `stamp`: a session-row kind is on and needs the context hashes.
MissBatch CollectMisses(std::span<MicroRequest> batch, bool stamp) {
  MissBatch misses;
  misses.micro.reserve(batch.size());
  for (MicroRequest& entry : batch) {
    if (entry.admission.ok() && entry.score_lookup != CacheLookup::kHit) {
      misses.micro.push_back(&entry);
    }
  }
  misses.first_row.reserve(misses.micro.size());
  size_t rows = 0;
  for (MicroRequest* entry : misses.micro) {
    misses.first_row.push_back(static_cast<int64_t>(rows));
    rows += entry->request->items.size();
    if (stamp) entry->context_hash = GateContextHash(*entry->request->items[0]);
  }
  misses.scores.resize(rows);
  return misses;
}

// Session-row stage, part 1, outside the lane lock: §III-F behind the
// API, one row per session. A miss request's row comes from the kind's
// cache when its session was served before, otherwise from one probe
// row per distinct (session id, context hash). The key, not the session
// id alone, dedups: two same-session requests with *different* contexts
// in one micro-batch each get their own probe, mirroring the staleness
// check the cross-request cache does.
SessionRows PlanSessionRows(const SessionRowKind& kind,
                            const MissBatch& misses) {
  SessionRows rows;
  rows.kind = &kind;
  rows.source.resize(misses.micro.size());
  std::vector<std::pair<SessionRowKey, size_t>> pending;  // (key, k).
  for (size_t k = 0; k < misses.micro.size(); ++k) {
    const SessionRowKey key{misses.micro[k]->request->session_id,
                            misses.micro[k]->context_hash};
    RowSource& source = rows.source[k];
    if (kind.capacity > 0) {
      source.lookup = kind.cache->Lookup(key.first, key.second, &source.cached);
      if (source.lookup == CacheLookup::kHit) continue;
    }
    pending.emplace_back(key, k);
  }
  // Sorted by (key, k): each key's probe is its first request, and the
  // cache puts run in key order.
  std::sort(pending.begin(), pending.end());
  for (size_t p = 0; p < pending.size(); ++p) {
    const auto& [key, k] = pending[p];
    if (p == 0 || key != pending[p - 1].first) {
      rows.keys.push_back(key);
      rows.probes.push_back(misses.micro[k]->request->items[0]);
    }
    rows.source[k].probe_row = static_cast<int64_t>(rows.keys.size()) - 1;
  }
  return rows;
}

// Session-row stage, part 2, under the lane lock: probes and caches the
// planned rows, then replicates each miss request's row across its
// candidates into the kind's rows staging slot.
const float* StageSessionRows(const MissBatch& misses,
                              const SessionRows& rows, Ranker* model,
                              InferenceWorkspace* workspace,
                              const ModelPool& pool) {
  const SessionRowKind& kind = *rows.kind;
  std::span<const float> fresh;
  if (!rows.probes.empty()) {
    const Batch probes =
        CollateBatch(rows.probes, pool.meta(), pool.standardizer());
    fresh = ProbeSessionRows(kind, probes, rows.keys, model, workspace);
  }
  const std::span<float> staged = workspace->Staging(
      kind.rows_slot, static_cast<int64_t>(misses.scores.size()) * kind.width);
  float* dst = staged.data();
  for (size_t k = 0; k < misses.micro.size(); ++k) {
    const RowSource& source = rows.source[k];
    const float* row = source.probe_row < 0
                           ? source.cached.data()
                           : fresh.data() + source.probe_row * kind.width;
    for (size_t j = 0; j < misses.micro[k]->request->items.size(); ++j) {
      dst = std::copy(row, row + kind.width, dst);
    }
  }
  return staged.data();
}

// Collate + forward stage. One lane critical section covers both
// session-row kinds' probes and the main forward, which all touch this
// replica's model state and workspace; other replicas of the snapshot
// run their own micro-batches concurrently. Workspaces are sized to the
// engine's batching caps, so a lane serves every later micro-batch
// without regrowing. Leaves post-sigmoid scores in `misses->scores`.
void ForwardMisses(MissBatch* misses, const ServingEngineOptions& options,
                   const ModelPool& pool, const ModelSnapshot& snapshot,
                   ReplicaLane& lane, ServingStats* stats) {
  std::vector<const Example*> items;
  items.reserve(misses->scores.size());
  for (const MicroRequest* entry : misses->micro) {
    items.insert(items.end(), entry->request->items.begin(),
                 entry->request->items.end());
  }
  const Batch batch = CollateBatch(items, pool.meta(), pool.standardizer());
  misses->unknown_ids = batch.unknown_ids;
  const std::span<float> logits(misses->scores);
  double rerank_ms = 0.0;  // Slate-stage latency (slate models only).
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    // Started AFTER the lock is held: the rerank reservoir samples the
    // lane critical section as documented, so lock-wait behind a
    // contended replica shows up in request latency, not in the
    // rerank-stage percentiles.
    const Stopwatch rerank_watch;
    InferenceWorkspace* workspace = lane.EnsureWorkspace(std::max(
        {options.max_batch_items, options.max_batch_candidates, batch.size}));
    auto stage = [&](const SessionRows& rows) {
      return StageSessionRows(*misses, rows, lane.model, workspace, pool);
    };
    // A kind that is off passes null: the forward then takes the
    // respective fused path (the generic ScoreWithSessionInto contract).
    SessionGate gate;
    SessionEncoding encoding;
    if (misses->gate.kind != nullptr) {
      gate = {stage(misses->gate), batch.size, misses->gate.kind->width};
    }
    if (misses->encoding.kind != nullptr) {
      encoding = {stage(misses->encoding), batch.size,
                  misses->encoding.kind->width};
    }
    if (snapshot.slate_scoring()) {
      // first_row IS the slate-starts vector: one slate per request,
      // whole and in request order, so every candidate attends over
      // exactly its own slate regardless of batch composition.
      lane.model->ScoreSlateInto(batch, misses->first_row, workspace, logits);
    } else {
      lane.model->ScoreWithSessionInto(
          batch, misses->gate.kind != nullptr ? &gate : nullptr,
          misses->encoding.kind != nullptr ? &encoding : nullptr, workspace,
          logits);
    }
    rerank_ms = rerank_watch.ElapsedMillis();
  }
  if (snapshot.slate_scoring()) {
    std::vector<int64_t> slate_sizes(misses->micro.size());
    for (size_t k = 0; k < slate_sizes.size(); ++k) {
      slate_sizes[k] =
          static_cast<int64_t>(misses->micro[k]->request->items.size());
    }
    stats->RecordSlateBatch(slate_sizes, rerank_ms);
  }
  // Per-element arithmetic matches the tier's sigmoid, so on the
  // reference tier this is still StableSigmoid element for element.
  SigmoidSpanInto(logits, logits);
}

// Cache-fill stage: freshly computed scores feed the level-1 cache,
// outside the lane lock (the cache has its own mutex and the floats are
// engine-owned). Stored post-sigmoid, exactly the floats a later hit
// serves, so a hit is bitwise-equal to recompute by construction.
void FillScoreCache(SessionScoreCache& cache, const MissBatch& misses,
                    int64_t capacity) {
  for (size_t k = 0; k < misses.micro.size(); ++k) {
    const MicroRequest& entry = *misses.micro[k];
    const float* first = misses.scores.data() + misses.first_row[k];
    cache.Put(entry.request->session_id, entry.set_hash, entry.history_hash,
              entry.item_hashes,
              std::vector<float>(first, first + entry.request->items.size()),
              capacity);
  }
}

// Miss k's lookup outcome for one session-row kind; kNone when it is off.
CacheLookup LookupOf(const SessionRows& rows, size_t k) {
  return rows.kind == nullptr ? CacheLookup::kNone : rows.source[k].lookup;
}

// Respond stage: fills every response of the micro-batch and returns
// the samples of the served requests. A rejected request is a client
// error, not a serve, so it adds no sample.
std::vector<RequestSample> Respond(std::span<const MicroRequest> batch,
                                   const MissBatch& misses,
                                   const ModelSnapshot& snapshot,
                                   RolloutArm granted, int replica,
                                   const std::vector<double>* queue_delays_ms,
                                   double service_ms,
                                   std::vector<RankResponse>* responses) {
  std::vector<RequestSample> samples;
  samples.reserve(batch.size());
  size_t k = 0;  // Miss position of the next request that needed a forward.
  for (const MicroRequest& entry : batch) {
    const RankRequest& request = *entry.request;
    RankResponse& response = (*responses)[entry.index];
    const double queue_ms =
        queue_delays_ms == nullptr ? 0.0 : (*queue_delays_ms)[entry.index];
    const bool hit = entry.score_lookup == CacheLookup::kHit;
    response = AdmissionResponse(request, entry.admission, &snapshot);
    response.arm = granted;
    response.latency_ms = service_ms + queue_ms;
    response.queue_ms = queue_ms;
    if (!entry.admission.ok()) continue;
    response.replica = hit ? -1 : replica;
    response.score_cache_hit = hit;
    RequestSample& sample = samples.emplace_back();
    sample.items = static_cast<int64_t>(request.items.size());
    sample.latency_ms = response.latency_ms;
    if (queue_delays_ms != nullptr) sample.queue_ms = queue_ms;
    sample.score_lookup = entry.score_lookup;
    if (hit) {
      response.scores.assign(entry.hit_scores.begin(), entry.hit_scores.end());
      continue;
    }
    sample.gate_lookup = LookupOf(misses.gate, k);
    sample.encoding_lookup = LookupOf(misses.encoding, k);
    response.gate_shared = misses.gate.kind != nullptr;
    response.gate_cache_hit = sample.gate_lookup == CacheLookup::kHit;
    response.encoding_cache_hit = sample.encoding_lookup == CacheLookup::kHit;
    const float* first = misses.scores.data() + misses.first_row[k++];
    response.scores.assign(first, first + request.items.size());
  }
  return samples;
}

}  // namespace

void ServingEngine::ExecuteMicroBatch(const MicroBatch& micro,
                                      const std::vector<RankRequest>& requests,
                                      const std::vector<double>* queue_delays_ms,
                                      const Stopwatch& service_watch,
                                      std::vector<RankResponse>* responses) {
  // Pin the snapshot FIRST, without a lane: the version cannot change
  // under us (hot swaps publish a NEW snapshot), and a micro-batch
  // fully served from the level-1 score cache never leases a replica
  // lane at all. The arm picks between the stable and staged-candidate
  // snapshots; a candidate dropped since routing falls back to stable
  // (`granted` reports what was actually served).
  RolloutArm granted = micro.arm;
  std::shared_ptr<const ModelSnapshot> snapshot_ptr =
      pool_->SnapshotForArm(micro.model, micro.arm, &granted);
  const ModelSnapshot& snapshot = *snapshot_ptr;
  std::vector<MicroRequest> batch =
      AdmitMicroBatch(micro.request_indices, requests, snapshot,
                      pool_->meta());

  // A slate-scoring model ranks each request's rows JOINTLY: a cached
  // score was computed against one particular slate, and serving it to
  // a repeat request would freeze the candidate's context. Slate models
  // bypass the score cache entirely (no lookups, no puts), and take
  // neither gate nor encoding rows (ScoreSlateInto has no such inputs).
  const bool slate = snapshot.slate_scoring();
  const bool score_cache_on = options_.score_cache_capacity > 0 && !slate;
  const bool shared =
      options_.share_gate && snapshot.gate_shareable() && !slate;
  const bool encode = options_.share_session_encoding &&
                      snapshot.encoding_shareable() && !slate;
  const SessionRowKind gate_kind{
      &snapshot.gate_cache(), options_.gate_cache_capacity,
      snapshot.gate_width(), InferenceWorkspace::kGateProbe,
      InferenceWorkspace::kGateRows, &Ranker::GateInto};
  const SessionRowKind encoding_kind{
      &snapshot.encoding_cache(), options_.encoding_cache_capacity,
      snapshot.encoding_width(), InferenceWorkspace::kSessionProbe,
      InferenceWorkspace::kSessionRows, &Ranker::EncodeSessionInto};

  if (score_cache_on) LookupScores(snapshot.score_cache(), batch);
  MissBatch misses = CollectMisses(batch, shared || encode);
  SnapshotLease lease;
  if (!misses.micro.empty()) {
    // Real compute remains: NOW lease a replica lane.
    lease = pool_->LeaseLane(snapshot_ptr, granted);
    if (shared) misses.gate = PlanSessionRows(gate_kind, misses);
    if (encode) misses.encoding = PlanSessionRows(encoding_kind, misses);
    ForwardMisses(&misses, options_, *pool_, snapshot, lease.lane(),
                  &stats_);
    if (score_cache_on) {
      FillScoreCache(snapshot.score_cache(), misses,
                     options_.score_cache_capacity);
    }
  }

  const std::vector<RequestSample> samples =
      Respond(batch, misses, snapshot, granted, lease.replica(),
              queue_delays_ms, service_watch.ElapsedMillis(), responses);
  // Record stage, one stats lock for the whole micro-batch: workers and
  // the async flusher lanes contend on the stats mutex. A micro-batch
  // whose every request was rejected served nothing and is not counted.
  if (samples.empty()) return;
  LeaseSample lease_sample;
  lease_sample.model = snapshot.name();
  lease_sample.version = snapshot.version();
  lease_sample.num_replicas = snapshot.num_replicas();
  // Fully served from the score cache: no lane was leased, no forward.
  lease_sample.lane_leased = static_cast<bool>(lease);
  lease_sample.replica = lease ? lease.replica() : -1;
  lease_sample.active_lanes = lease ? lease.active_lanes_at_acquire() : 0;
  lease_sample.unknown_ids = misses.unknown_ids;
  stats_.RecordMicroBatch(static_cast<int64_t>(misses.scores.size()), samples,
                          &lease_sample);
}

void ServingEngine::RunJobs(std::vector<std::function<void()>> jobs) {
  if (workers_.empty() || jobs.size() <= 1) {
    for (auto& job : jobs) job();
    return;
  }
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = jobs.size();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (auto& job : jobs) {
      queue_.push_back([task = std::move(job), sync] {
        task();
        {
          std::lock_guard<std::mutex> lock(sync->mu);
          --sync->remaining;
        }
        sync->cv.notify_one();
      });
    }
  }
  queue_cv_.notify_all();
  // Work-share: the caller drains the queue alongside the workers
  // instead of blocking idle, so num_threads means num_threads lanes of
  // work (n-1 workers + this thread). The caller may pick up jobs from
  // a concurrent RankBatch — that is fine, they are self-contained.
  for (;;) {
    std::function<void()> job;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!queue_.empty()) {
        job = std::move(queue_.back());
        queue_.pop_back();
      }
    }
    if (!job) break;
    job();
  }
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->remaining == 0; });
}

std::vector<RankResponse> ServingEngine::RankBatch(
    const std::vector<RankRequest>& requests) {
  std::vector<RankResponse> responses(requests.size());
  if (requests.empty()) return responses;
  Stopwatch submit_watch;

  // Route: group the admitted requests by (resolved model, rollout arm)
  // — one route key — in first-seen route order, and pack each route's
  // requests, in request order, into micro-batches of whole sessions up
  // to the item cap. Splitting by arm keeps the invariant that one
  // micro-batch runs on exactly one snapshot. Each route's snapshot is
  // pinned once for admission; a rejected request gets its status here
  // and the rest of the batch is served normally.
  struct Route {
    std::shared_ptr<const ModelSnapshot> snapshot;
    std::vector<MicroBatch> micros;
  };
  std::unordered_map<std::string, Route> routes;
  std::vector<const Route*> route_order;  // Map nodes never move.
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::optional<std::string> name =
        pool_->LookupName(requests[i].model);
    RolloutArm arm = RolloutArm::kStable;
    Route* route = nullptr;
    if (name.has_value()) {
      arm = RouteArm(*name, requests[i]);
      auto [it, inserted] = routes.try_emplace(EncodeRouteKey(*name, arm));
      if (inserted) {
        it->second.snapshot = pool_->SnapshotForArm(*name, arm, nullptr);
        route_order.push_back(&it->second);
      }
      route = &it->second;
    }
    const ModelSnapshot* snapshot =
        route == nullptr ? nullptr : route->snapshot.get();
    Status admitted = AdmitRequest(requests[i], snapshot, pool_->meta());
    if (!admitted.ok()) {
      responses[i] =
          AdmissionResponse(requests[i], std::move(admitted), snapshot);
      continue;
    }
    const int64_t items = static_cast<int64_t>(requests[i].items.size());
    std::vector<MicroBatch>& micros = route->micros;
    if (micros.empty() ||
        micros.back().total_items + items > options_.max_batch_items) {
      micros.push_back(MicroBatch{*name, arm, {}, 0});
    }
    micros.back().request_indices.push_back(i);
    micros.back().total_items += items;
  }

  std::vector<std::function<void()>> jobs;
  for (const Route* route : route_order) {
    for (const MicroBatch& micro : route->micros) {
      jobs.push_back([this, &micro, &requests, &submit_watch, &responses] {
        ExecuteMicroBatch(micro, requests, /*queue_delays_ms=*/nullptr,
                          submit_watch, &responses);
      });
    }
  }
  RunJobs(std::move(jobs));
  return responses;
}

RankResponse ServingEngine::Rank(const RankRequest& request) {
  std::vector<RankResponse> responses = RankBatch({request});
  return std::move(responses[0]);
}

std::future<RankResponse> ServingEngine::Submit(RankRequest request) {
  // Resolve and admit up front, like RankBatch: a rejected request never
  // occupies queue space (and, as a client error, feeds no version
  // health sample), and per-route queues key on concrete names. The
  // rollout arm is pinned at submit time too, so a ramp step before the
  // flush cannot move a session mid-flight; a candidate rolled back in
  // that window falls back to stable at lease time.
  const std::optional<std::string> resolved = pool_->LookupName(request.model);
  RolloutArm arm = RolloutArm::kStable;
  std::shared_ptr<const ModelSnapshot> snapshot;
  if (resolved.has_value()) {
    arm = RouteArm(*resolved, request);
    snapshot = pool_->SnapshotForArm(*resolved, arm, nullptr);
  }
  Status admitted = AdmitRequest(request, snapshot.get(), pool_->meta());
  if (!admitted.ok()) {
    return ReadyFuture(
        AdmissionResponse(request, std::move(admitted), snapshot.get()));
  }
  const std::string route_key = EncodeRouteKey(*resolved, arm);
  AsyncBatchQueue* queue = nullptr;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    if (async_queue_ == nullptr && !async_stopped_) {
      AsyncQueueOptions queue_options;
      queue_options.max_batch_candidates = options_.max_batch_candidates > 0
                                               ? options_.max_batch_candidates
                                               : options_.max_batch_items;
      queue_options.max_queue_delay = std::chrono::microseconds(
          std::llround(options_.max_queue_delay_ms * 1e3));
      queue_options.max_pending_requests = options_.max_pending_requests;
      // One flush lane per pool replica by default: a hot model can
      // keep every one of its replicas busy with its own in-flight
      // micro-batch instead of capping out at one global flusher.
      queue_options.num_flush_lanes = options_.async_flush_lanes > 0
                                          ? options_.async_flush_lanes
                                          : pool_->replicas();
      async_queue_ = std::make_unique<AsyncBatchQueue>(
          queue_options,
          [this](const std::string& key,
                 std::vector<AsyncBatchQueue::Pending> batch) {
            FlushAsync(key, std::move(batch));
          });
    }
    queue = async_queue_.get();
  }
  if (queue == nullptr) {
    // Stopped before the async front ever started.
    return ReadyFuture(AdmissionResponse(
        request, Status::Unavailable("Submit: serving engine is stopped"),
        snapshot.get()));
  }
  Status sync_reject;
  std::future<RankResponse> future =
      queue->Submit(std::move(request), *resolved, route_key, &sync_reject);
  // Serving-side rejects (backpressure, stopped) are failures of the
  // version the request was admitted on — feed them to its health
  // window so the rollout error-rate gate sees real overload, not just
  // hand-recorded test samples.
  if (sync_reject.code() == StatusCode::kResourceExhausted ||
      sync_reject.code() == StatusCode::kUnavailable) {
    stats_.RecordVersionSample(*resolved, snapshot->version(), 0.0,
                               /*ok=*/false);
  }
  return future;
}

void ServingEngine::Stop(bool drain) {
  AsyncBatchQueue* queue = nullptr;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    async_stopped_ = true;
    // Stop the queue in place instead of destroying it: a Submit that
    // grabbed the pointer concurrently must find a live object (it will
    // be rejected with kUnavailable).
    queue = async_queue_.get();
  }
  if (queue != nullptr) queue->Stop(drain);
}

int64_t ServingEngine::pending_async_requests() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  return async_queue_ == nullptr ? 0 : async_queue_->pending_requests();
}

void ServingEngine::FlushAsync(const std::string& route_key,
                               std::vector<AsyncBatchQueue::Pending> batch) {
  Stopwatch service_watch;
  const auto flush_start = std::chrono::steady_clock::now();
  const size_t n = batch.size();
  std::vector<RankRequest> requests;
  requests.reserve(n);
  std::vector<double> queue_delays_ms(n, 0.0);
  MicroBatch micro;
  micro.request_indices.resize(n);
  std::iota(micro.request_indices.begin(), micro.request_indices.end(),
            size_t{0});
  for (size_t i = 0; i < n; ++i) {
    queue_delays_ms[i] = std::chrono::duration<double, std::milli>(
                             flush_start - batch[i].enqueued_at)
                             .count();
    requests.push_back(std::move(batch[i].request));
  }
  // The queue grouped the batch under the (resolved name, rollout arm)
  // key Submit pinned at enqueue time — route by that key, not by
  // re-resolving a possibly empty (default) request name or re-running
  // the router at flush time.
  auto [model, arm] = DecodeRouteKey(route_key);
  micro.model = std::move(model);
  micro.arm = arm;
  std::vector<RankResponse> responses(n);
  ExecuteMicroBatch(micro, requests, &queue_delays_ms, service_watch,
                    &responses);
  for (size_t i = 0; i < n; ++i) {
    batch[i].promise.set_value(std::move(responses[i]));
  }
}

}  // namespace awmoe
