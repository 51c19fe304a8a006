#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "serving/ab_test.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"
#include "support/graph_reference.h"

namespace awmoe {
namespace {

// These tests compare engine scores against the Var-graph reference
// (support/graph_reference.h) bitwise, which only holds on the reference
// kernel tier (the fast tier is epsilon-bounded; see kernel_tier_test.cc).
const bool kPinnedReferenceTier = [] {
  SetKernelTier(KernelTier::kReference);
  return true;
}();

AwMoeConfig SmallAwMoeConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  return config;
}

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    JdConfig jd;
    jd.num_users = 300;
    jd.num_items = 200;
    jd.num_categories = 8;
    jd.brands_per_category = 4;
    jd.num_shops = 15;
    jd.train_sessions = 100;
    jd.test_sessions = 60;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 77;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng rng(5);
    model_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng);
    Rng rng2(12);
    second_model_ =
        new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng2);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete standardizer_;
    delete model_;
    delete second_model_;
    data_ = nullptr;
    standardizer_ = nullptr;
    model_ = nullptr;
    second_model_ = nullptr;
  }

  /// Fresh single-model pool over the shared fixture data (unique_ptr:
  /// the pool holds per-lane mutexes, so it is neither copyable nor
  /// movable).
  static std::unique_ptr<ModelPool> MakeRegistry() {
    auto pool = std::make_unique<ModelPool>(data_->meta, standardizer_);
    pool->Register("aw-moe", model_);
    return pool;
  }

  /// Copies a session with one extra behaviour appended to every item —
  /// the "user clicked between pagination requests" gate context.
  static std::vector<Example> MakeGrownSession(
      const std::vector<const Example*>& session) {
    std::vector<Example> grown;
    grown.reserve(session.size());
    for (const Example* ex : session) {
      Example copy = *ex;
      copy.behavior_items.push_back(1);
      copy.behavior_cats.push_back(1);
      copy.behavior_brands.push_back(1);
      if (!copy.behavior_attrs.empty()) {
        copy.behavior_attrs.insert(copy.behavior_attrs.end(),
                                   Example::kItemAttrs, 0.0f);
      }
      grown.push_back(std::move(copy));
    }
    return grown;
  }

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* model_;
  static AwMoeRanker* second_model_;
};

JdDataset* ServingTest::data_ = nullptr;
Standardizer* ServingTest::standardizer_ = nullptr;
AwMoeRanker* ServingTest::model_ = nullptr;
AwMoeRanker* ServingTest::second_model_ = nullptr;

// ---------------------------------------------------------------------
// GroupBySession.
// ---------------------------------------------------------------------

TEST_F(ServingTest, GroupBySessionPartitionsExamples) {
  auto sessions = GroupBySession(data_->full_test);
  size_t total = 0;
  for (const auto& session : sessions) {
    EXPECT_FALSE(session.empty());
    for (const Example* ex : session) {
      EXPECT_EQ(ex->session_id, session[0]->session_id);
    }
    total += session.size();
  }
  EXPECT_EQ(total, data_->full_test.size());
}

TEST_F(ServingTest, GroupBySessionEmptySplit) {
  std::vector<Example> empty;
  EXPECT_TRUE(GroupBySession(empty).empty());
}

TEST_F(ServingTest, GroupBySessionSingleSession) {
  std::vector<Example> examples(4);
  for (size_t i = 0; i < examples.size(); ++i) {
    examples[i].session_id = 9;
    examples[i].target_item = static_cast<int64_t>(i + 1);
  }
  auto sessions = GroupBySession(examples);
  ASSERT_EQ(sessions.size(), 1u);
  ASSERT_EQ(sessions[0].size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sessions[0][i]->target_item, static_cast<int64_t>(i + 1));
  }
}

TEST_F(ServingTest, GroupBySessionInterleavedPreservesWithinSessionOrder) {
  // Sessions 2, 1, 3 interleaved; target_item encodes arrival order.
  std::vector<Example> examples(6);
  const int64_t ids[] = {2, 1, 2, 1, 3, 2};
  for (size_t i = 0; i < examples.size(); ++i) {
    examples[i].session_id = ids[i];
    examples[i].target_item = static_cast<int64_t>(i);
  }
  auto sessions = GroupBySession(examples);
  ASSERT_EQ(sessions.size(), 3u);
  // Ascending session id.
  EXPECT_EQ(sessions[0][0]->session_id, 1);
  EXPECT_EQ(sessions[1][0]->session_id, 2);
  EXPECT_EQ(sessions[2][0]->session_id, 3);
  // Within-session arrival order preserved.
  ASSERT_EQ(sessions[0].size(), 2u);
  EXPECT_EQ(sessions[0][0]->target_item, 1);
  EXPECT_EQ(sessions[0][1]->target_item, 3);
  ASSERT_EQ(sessions[1].size(), 3u);
  EXPECT_EQ(sessions[1][0]->target_item, 0);
  EXPECT_EQ(sessions[1][1]->target_item, 2);
  EXPECT_EQ(sessions[1][2]->target_item, 5);
  ASSERT_EQ(sessions[2].size(), 1u);
  EXPECT_EQ(sessions[2][0]->target_item, 4);
}

// ---------------------------------------------------------------------
// Engine vs the Var-graph reference: the regression anchor. The engine
// must reproduce the graph's scores bit for bit.
// ---------------------------------------------------------------------

TEST_F(ServingTest, EngineMatchesGraphReferenceBitwisePerItemGate) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.share_gate = false;
  ServingEngine engine(&registry, options);

  auto sessions = GroupBySession(data_->full_test);
  for (const auto& session : sessions) {
    std::vector<double> expected = GraphReferenceScores(
        model_, data_->meta, standardizer_, session, /*share_gate=*/false);
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    RankResponse response = engine.Rank(request);
    EXPECT_FALSE(response.gate_shared);
    ASSERT_EQ(response.scores.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.scores[i], expected[i]) << "item " << i;
    }
  }
}

TEST_F(ServingTest, EngineMatchesGraphReferenceBitwiseSharedGate) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  ASSERT_TRUE(engine.GateSharingActive());

  auto sessions = GroupBySession(data_->full_test);
  for (const auto& session : sessions) {
    std::vector<double> expected = GraphReferenceScores(
        model_, data_->meta, standardizer_, session, /*share_gate=*/true);
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    RankResponse response = engine.Rank(request);
    EXPECT_TRUE(response.gate_shared);
    ASSERT_EQ(response.scores.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.scores[i], expected[i]) << "item " << i;
    }
  }
}

// §III-F is exact, not approximate: sharing the gate must not change a
// single bit of any score.
TEST_F(ServingTest, SharedGateBitwiseIdenticalToPerItemGate) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  // Score caching off: both engines share one pool (one snapshot, one
  // score cache), and this test must compare two real forward paths,
  // not a cached replay of the first engine's scores.
  ServingEngineOptions per_item_options;
  per_item_options.share_gate = false;
  per_item_options.score_cache_capacity = 0;
  ServingEngine per_item(&registry, per_item_options);
  ServingEngineOptions shared_options;
  shared_options.score_cache_capacity = 0;
  ServingEngine shared(&registry, shared_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = per_item.RankBatch(requests);
  auto b = shared.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_FALSE(a[s].gate_shared);
    EXPECT_TRUE(b[s].gate_shared);
    ASSERT_EQ(a[s].scores.size(), b[s].scores.size());
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i])
          << "session " << a[s].session_id << " item " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Micro-batching and threading invariance.
// ---------------------------------------------------------------------

TEST_F(ServingTest, MicroBatchingDoesNotChangeScores) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));

  ServingEngineOptions one_by_one;
  one_by_one.max_batch_items = 1;  // Every session alone (never split).
  ServingEngine baseline(&registry, one_by_one);
  auto expected = baseline.RankBatch(requests);

  for (int64_t cap : {64, 1024}) {
    ServingEngineOptions options;
    options.max_batch_items = cap;
    ServingEngine engine(&registry, options);
    auto responses = engine.RankBatch(requests);
    ASSERT_EQ(responses.size(), expected.size());
    for (size_t s = 0; s < responses.size(); ++s) {
      ASSERT_EQ(responses[s].scores.size(), expected[s].scores.size());
      for (size_t i = 0; i < responses[s].scores.size(); ++i) {
        EXPECT_EQ(responses[s].scores[i], expected[s].scores[i])
            << "cap " << cap << " session " << s << " item " << i;
      }
    }
  }
}

TEST_F(ServingTest, WorkerPoolDoesNotChangeScores) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("a", model_);
  registry.Register("b", second_model_);

  auto sessions = GroupBySession(data_->full_test);
  std::vector<RankRequest> requests;
  for (size_t s = 0; s < sessions.size(); ++s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.model = std::string(1, s % 2 == 0 ? 'a' : 'b');
    request.items = sessions[s];
    requests.push_back(std::move(request));
  }

  ServingEngineOptions serial_options;
  serial_options.max_batch_items = 32;
  ServingEngine serial(&registry, serial_options);
  auto expected = serial.RankBatch(requests);

  ServingEngineOptions pooled_options = serial_options;
  pooled_options.num_threads = 4;
  ServingEngine pooled(&registry, pooled_options);
  auto responses = pooled.RankBatch(requests);

  ASSERT_EQ(responses.size(), expected.size());
  for (size_t s = 0; s < responses.size(); ++s) {
    EXPECT_EQ(responses[s].model, expected[s].model);
    ASSERT_EQ(responses[s].scores.size(), expected[s].scores.size());
    for (size_t i = 0; i < responses[s].scores.size(); ++i) {
      EXPECT_EQ(responses[s].scores[i], expected[s].scores[i]);
    }
  }
}

// ---------------------------------------------------------------------
// Gate cache.
// ---------------------------------------------------------------------

TEST_F(ServingTest, GateCacheHitsOnRepeatSessionWithIdenticalScores) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  // Level-1 caching off: a repeat request must reach the GATE cache
  // (with scores cached it would short-circuit before the gate lookup).
  ServingEngineOptions options;
  options.score_cache_capacity = 0;
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  RankResponse first = engine.Rank(request);
  EXPECT_TRUE(first.gate_shared);
  EXPECT_FALSE(first.gate_cache_hit);
  RankResponse second = engine.Rank(request);
  EXPECT_TRUE(second.gate_cache_hit);
  ASSERT_EQ(second.scores.size(), first.scores.size());
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], first.scores[i]);
  }
}

TEST_F(ServingTest, GateCacheInvalidatesOnChangedSessionContext) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_FALSE(engine.Rank(request).gate_cache_hit);
  EXPECT_TRUE(engine.Rank(request).gate_cache_hit);

  // Same session id, but the user's behaviour sequence grew in the
  // meantime: the cached gate is stale and must be re-probed.
  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest grown_request;
  grown_request.session_id = request.session_id;
  for (const Example& ex : grown) grown_request.items.push_back(&ex);
  RankResponse stale_check = engine.Rank(grown_request);
  EXPECT_FALSE(stale_check.gate_cache_hit);

  // The fresh gate must match an engine that never saw the old context.
  auto clean_registry_owner = MakeRegistry();
  ModelPool& clean_registry = *clean_registry_owner;
  ServingEngine clean_engine(&clean_registry);
  RankResponse expected = clean_engine.Rank(grown_request);
  ASSERT_EQ(stale_check.scores.size(), expected.scores.size());
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(stale_check.scores[i], expected.scores[i]);
  }
}

TEST_F(ServingTest, SameSessionDifferentContextInOneBatchGetOwnGates) {
  // Two requests with the same session id but different gate inputs
  // inside ONE RankBatch must each be probed — the first request's
  // gate must not leak to the second.
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest original;
  original.session_id = sessions[0][0]->session_id;
  original.items = sessions[0];
  RankRequest changed;
  changed.session_id = original.session_id;
  for (const Example& ex : grown) changed.items.push_back(&ex);

  auto responses = engine.RankBatch({original, changed});

  auto clean_registry_owner = MakeRegistry();
  ModelPool& clean_registry = *clean_registry_owner;
  ServingEngine clean_engine(&clean_registry);
  RankResponse expected_changed = clean_engine.Rank(changed);
  ASSERT_EQ(responses[1].scores.size(), expected_changed.scores.size());
  for (size_t i = 0; i < expected_changed.scores.size(); ++i) {
    EXPECT_EQ(responses[1].scores[i], expected_changed.scores[i])
        << "item " << i;
  }
}

TEST_F(ServingTest, GateCacheEvictsLeastRecentlyUsed) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 2;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  auto rank = [&](size_t s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.items = sessions[s];
    return engine.Rank(request);
  };
  EXPECT_FALSE(rank(0).gate_cache_hit);
  EXPECT_FALSE(rank(1).gate_cache_hit);
  EXPECT_TRUE(rank(0).gate_cache_hit);   // 0 refreshed; LRU order {0, 1}.
  EXPECT_FALSE(rank(2).gate_cache_hit);  // Evicts 1.
  EXPECT_FALSE(rank(1).gate_cache_hit);  // 1 was evicted; evicts 0.
  EXPECT_TRUE(rank(2).gate_cache_hit);
}

TEST_F(ServingTest, GateCacheDisabledStillSharesWithinRequest) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 0;
  options.score_cache_capacity = 0;  // Repeats must re-run the forward.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse first = engine.Rank(request);
  RankResponse second = engine.Rank(request);
  EXPECT_TRUE(first.gate_shared);
  EXPECT_TRUE(second.gate_shared);
  EXPECT_FALSE(second.gate_cache_hit);
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], first.scores[i]);
  }
}

TEST_F(ServingTest, GateCacheCountersTrackHitsAndMisses) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  engine.Rank(request);  // Cold: one miss.
  EXPECT_EQ(engine.Stats().gate_cache_hits, 0);
  EXPECT_EQ(engine.Stats().gate_cache_misses, 1);
  engine.Rank(request);  // Repeat: one hit.
  EXPECT_EQ(engine.Stats().gate_cache_hits, 1);
  EXPECT_EQ(engine.Stats().gate_cache_misses, 1);

  // Same session id, changed gate context: the invalidation re-probe
  // counts as a miss, not a hit.
  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest grown_request;
  grown_request.session_id = request.session_id;
  for (const Example& ex : grown) grown_request.items.push_back(&ex);
  engine.Rank(grown_request);
  EXPECT_EQ(engine.Stats().gate_cache_hits, 1);
  EXPECT_EQ(engine.Stats().gate_cache_misses, 2);

  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_EQ(snap.gate_cache_hits, 1);
  EXPECT_EQ(snap.gate_cache_misses, 2);
  engine.ResetStats();
  EXPECT_EQ(engine.Stats().gate_cache_hits, 0);
  EXPECT_EQ(engine.Stats().gate_cache_misses, 0);
}

TEST_F(ServingTest, GateCacheEvictionShowsUpInMissCounters) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 2;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  auto rank = [&](size_t s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.items = sessions[s];
    return engine.Rank(request);
  };
  rank(0);  // miss (cold)
  rank(1);  // miss (cold)
  rank(0);  // hit; LRU order {0, 1}
  rank(2);  // miss (cold), evicts 1
  rank(1);  // miss (evicted), evicts 0
  rank(2);  // hit
  EXPECT_EQ(engine.Stats().gate_cache_hits, 2);
  EXPECT_EQ(engine.Stats().gate_cache_misses, 4);
}

TEST_F(ServingTest, GateCacheDisabledCountsEveryLookupAsMiss) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 0;
  options.score_cache_capacity = 0;  // Repeats must re-run the forward.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  engine.Rank(request);
  engine.Rank(request);
  EXPECT_EQ(engine.Stats().gate_cache_hits, 0);
  EXPECT_EQ(engine.Stats().gate_cache_misses, 2);
}

// ---------------------------------------------------------------------
// Gate-sharing preconditions.
// ---------------------------------------------------------------------

TEST_F(ServingTest, GateSharingDisabledInRecommendationMode) {
  DatasetMeta rec_meta = data_->meta;
  rec_meta.recommendation_mode = true;
  Rng rng(5);
  AwMoeRanker rec_model(rec_meta, SmallAwMoeConfig(), &rng);
  ModelPool registry(rec_meta, standardizer_);
  registry.Register("aw-moe", &rec_model);
  ServingEngine engine(&registry);
  EXPECT_FALSE(engine.GateSharingActive())
      << "rec mode gate depends on the target item; sharing must disable";
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse response = engine.Rank(request);
  EXPECT_FALSE(response.gate_shared);
  EXPECT_EQ(response.scores.size(), sessions[0].size());
}

TEST_F(ServingTest, GateSharingRequiresShareableGate) {
  Rng rng(9);
  ModelDims dims = SmallAwMoeConfig().dims;
  DnnRanker dnn(data_->meta, dims, &rng);
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("dnn", &dnn);
  ServingEngine engine(&registry);
  EXPECT_FALSE(engine.GateSharingActive());
  // Still serves correctly via the fallback path.
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse response = engine.Rank(request);
  EXPECT_EQ(response.scores.size(), sessions[0].size());
  for (double s : response.scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

// Gate sharing is model-agnostic since the ScoreInto redesign: any
// ranker declaring SupportsSessionGateReuse + a gate width serves the
// §III-F path — Category-MoE's query-category gate qualifies in search
// mode, with scores bitwise-unchanged and repeat requests hitting the
// snapshot's gate cache. (The old engine hard-downcast to AwMoeRanker
// and could not do this.)
TEST_F(ServingTest, CategoryMoeServesSharedGateThroughGenericApi) {
  Rng rng(23);
  CategoryMoeRanker cat_moe(data_->meta, SmallAwMoeConfig().dims, &rng);
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("cat-moe", &cat_moe);

  // Score caching off on both engines: they share one pool snapshot,
  // and the comparison needs two real forwards, not a cached replay.
  ServingEngineOptions shared_options;
  shared_options.score_cache_capacity = 0;
  ServingEngine shared(&registry, shared_options);
  ASSERT_TRUE(shared.GateSharingActive());
  ServingEngineOptions per_item_options;
  per_item_options.share_gate = false;
  per_item_options.score_cache_capacity = 0;
  ServingEngine per_item(&registry, per_item_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = per_item.RankBatch(requests);
  auto b = shared.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_FALSE(a[s].gate_shared);
    EXPECT_TRUE(b[s].gate_shared);
    ASSERT_EQ(a[s].scores.size(), b[s].scores.size());
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i])
          << "session " << a[s].session_id << " item " << i;
    }
  }
  // Repeat request: the cached row serves without re-running the gate.
  EXPECT_TRUE(shared.Rank(requests[0]).gate_cache_hit);
}

// ---------------------------------------------------------------------
// Gate-cache warm-up (ModelPool::WarmSessionGates).
// ---------------------------------------------------------------------

TEST_F(ServingTest, WarmSessionGatesMakesFirstRequestAHit) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  const int64_t warmed =
      registry.WarmSessionGates("aw-moe", RolloutArm::kStable, sessions,
                                engine.options().gate_cache_capacity);
  EXPECT_EQ(warmed, static_cast<int64_t>(sessions.size()));

  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse warm = engine.Rank(request);
  EXPECT_TRUE(warm.gate_shared);
  EXPECT_TRUE(warm.gate_cache_hit)
      << "a warmed session's FIRST request must skip the gate probe";

  // Warmed rows come from the same GateInto path a cold probe takes, so
  // scores must equal a never-warmed engine's bitwise.
  auto cold_owner = MakeRegistry();
  ServingEngine cold_engine(&*cold_owner);
  RankResponse cold = cold_engine.Rank(request);
  ASSERT_EQ(warm.scores.size(), cold.scores.size());
  for (size_t i = 0; i < cold.scores.size(); ++i) {
    EXPECT_EQ(warm.scores[i], cold.scores[i]) << "item " << i;
  }
}

TEST_F(ServingTest, WarmSessionGatesOnStagedCandidateOnly) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  // Nothing staged yet: warming the candidate arm is a no-op.
  EXPECT_EQ(registry.WarmSessionGates("aw-moe", RolloutArm::kCandidate,
                                      sessions, 4096),
            0);

  registry.StageCandidate("aw-moe", model_->Clone());
  const int64_t warmed = registry.WarmSessionGates(
      "aw-moe", RolloutArm::kCandidate, sessions, 4096);
  EXPECT_EQ(warmed, static_cast<int64_t>(sessions.size()));

  // The candidate snapshot starts gate-warm BEFORE taking traffic...
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  request.arm_policy = ArmPolicy::kForceCandidate;
  RankResponse candidate = engine.Rank(request);
  EXPECT_EQ(candidate.arm, RolloutArm::kCandidate);
  EXPECT_TRUE(candidate.gate_cache_hit);

  // ...while the stable snapshot's cache was not touched.
  request.arm_policy = ArmPolicy::kForceStable;
  EXPECT_FALSE(engine.Rank(request).gate_cache_hit);
  registry.DropCandidate("aw-moe");
}

TEST_F(ServingTest, WarmSessionGatesWithoutShareableGateReturnsZero) {
  Rng rng(9);
  DnnRanker dnn(data_->meta, SmallAwMoeConfig().dims, &rng);
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("dnn", &dnn);
  auto sessions = GroupBySession(data_->full_test);
  EXPECT_EQ(
      registry.WarmSessionGates("dnn", RolloutArm::kStable, sessions, 4096),
      0);
}

// ---------------------------------------------------------------------
// Level-1 session score cache and level-2 session feature store.
// ---------------------------------------------------------------------

TEST_F(ServingTest, ScoreCacheHitServesBitwiseEqualScoresWithoutLane) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  RankResponse first = engine.Rank(request);
  EXPECT_FALSE(first.score_cache_hit);
  EXPECT_GE(first.replica, 0);
  RankResponse second = engine.Rank(request);
  EXPECT_TRUE(second.score_cache_hit);
  EXPECT_EQ(second.replica, -1);  // No lane was leased.
  EXPECT_EQ(second.model_version, first.model_version);
  ASSERT_EQ(second.scores.size(), first.scores.size());
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], first.scores[i]) << "item " << i;
  }

  // Cached scores must be bitwise-equal to a full recompute on an
  // engine that has never cached anything.
  auto clean_owner = MakeRegistry();
  ServingEngineOptions cold;
  cold.score_cache_capacity = 0;
  ServingEngine clean(&*clean_owner, cold);
  RankResponse recompute = clean.Rank(request);
  for (size_t i = 0; i < recompute.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], recompute.scores[i]) << "item " << i;
  }
}

TEST_F(ServingTest, ScoreCacheHitIsCandidateOrderInsensitive) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  // Pick a session with at least 2 candidates.
  size_t s = 0;
  while (s < sessions.size() && sessions[s].size() < 2) ++s;
  ASSERT_LT(s, sessions.size());
  RankRequest request;
  request.session_id = sessions[s][0]->session_id;
  request.items = sessions[s];
  RankResponse first = engine.Rank(request);
  EXPECT_FALSE(first.score_cache_hit);

  // Same candidate set, reversed order: still a hit, and every item
  // gets ITS score (matched per candidate hash, not by position).
  RankRequest reversed = request;
  std::reverse(reversed.items.begin(), reversed.items.end());
  RankResponse second = engine.Rank(reversed);
  EXPECT_TRUE(second.score_cache_hit);
  ASSERT_EQ(second.scores.size(), first.scores.size());
  const size_t n = first.scores.size();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(second.scores[i], first.scores[n - 1 - i]) << "item " << i;
  }
}

TEST_F(ServingTest, ScoreCacheInvalidatesOnHistoryChange) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_FALSE(engine.Rank(request).score_cache_hit);
  EXPECT_TRUE(engine.Rank(request).score_cache_hit);
  EXPECT_EQ(engine.Stats().score_cache_invalidations, 0);

  // The user clicked between requests: same items, grown history. The
  // cached scores are stale and a real forward must run.
  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest grown_request;
  grown_request.session_id = request.session_id;
  for (const Example& ex : grown) grown_request.items.push_back(&ex);
  RankResponse fresh = engine.Rank(grown_request);
  EXPECT_FALSE(fresh.score_cache_hit);
  EXPECT_GE(fresh.replica, 0);
  EXPECT_EQ(engine.Stats().score_cache_invalidations, 1);

  // The recomputed scores match an engine that never saw the old state.
  auto clean_owner = MakeRegistry();
  ServingEngine clean(&*clean_owner);
  RankResponse expected = clean.Rank(grown_request);
  ASSERT_EQ(fresh.scores.size(), expected.scores.size());
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(fresh.scores[i], expected.scores[i]) << "item " << i;
  }

  // And the old (pre-click) request no longer hits either: the whole
  // session was invalidated, not just the new key.
  EXPECT_FALSE(engine.Rank(request).score_cache_hit);
}

TEST_F(ServingTest, ScoreCacheColdAfterHotSwap) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_FALSE(engine.Rank(request).score_cache_hit);
  EXPECT_TRUE(engine.Rank(request).score_cache_hit);

  // Publish a new version (identical weights — the point is the cache
  // scoping, not the scores): the new snapshot starts cache-cold.
  const int64_t v2 = registry.UpdateModel("aw-moe", model_->Clone());
  RankResponse after = engine.Rank(request);
  EXPECT_FALSE(after.score_cache_hit);
  EXPECT_EQ(after.model_version, v2);
  // The repeat on the new snapshot caches again.
  EXPECT_TRUE(engine.Rank(request).score_cache_hit);
}

TEST_F(ServingTest, ScoreCacheCountersAndGaugesTrack) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  engine.Rank(request);  // Cold: one miss.
  EXPECT_EQ(engine.Stats().score_cache_hits, 0);
  EXPECT_EQ(engine.Stats().score_cache_misses, 1);
  engine.Rank(request);  // Repeat: one hit.
  EXPECT_EQ(engine.Stats().score_cache_hits, 1);
  EXPECT_EQ(engine.Stats().score_cache_misses, 1);

  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_EQ(snap.score_cache_hits, 1);
  EXPECT_EQ(snap.score_cache_misses, 1);
  // Live occupancy gauges from the pool: one score entry, one gate row,
  // one encoding row resident, all with non-zero byte estimates.
  EXPECT_EQ(snap.score_cache_entries, 1);
  EXPECT_GT(snap.score_cache_bytes, 0);
  EXPECT_EQ(snap.encoding_cache_entries, 1);
  EXPECT_GT(snap.encoding_cache_bytes, 0);
  EXPECT_EQ(snap.gate_cache_entries, 1);
  EXPECT_GT(snap.gate_cache_bytes, 0);
  // Split latency reservoirs: one sample each.
  EXPECT_EQ(static_cast<int64_t>(snap.score_hit_samples_ms.size()), 1);
  EXPECT_EQ(static_cast<int64_t>(snap.score_miss_samples_ms.size()), 1);
  EXPECT_GT(snap.score_miss_p99_ms, 0.0);

  // A hot swap retires the old snapshot's caches: gauges drop to zero.
  registry.UpdateModel("aw-moe", model_->Clone());
  ServingStatsSnapshot after = engine.Stats();
  EXPECT_EQ(after.score_cache_entries, 0);
  EXPECT_EQ(after.score_cache_bytes, 0);
}

TEST_F(ServingTest, ScoreCacheDisabledNeverHits) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  engine.Rank(request);
  RankResponse second = engine.Rank(request);
  EXPECT_FALSE(second.score_cache_hit);
  EXPECT_GE(second.replica, 0);
  EXPECT_EQ(engine.Stats().score_cache_hits, 0);
  EXPECT_EQ(engine.Stats().score_cache_misses, 0);  // No lookups at all.
}

TEST_F(ServingTest, EncodingCacheHitsOnNewCandidatesSameSession) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  // Page 1: session 0's own candidates. Page 2: same session context,
  // DIFFERENT candidates (borrowed items re-stamped with session 0's
  // user/query/history) — a score-cache miss by construction, but the
  // session encoding and gate row are reusable.
  RankRequest page1;
  page1.session_id = sessions[0][0]->session_id;
  page1.items = sessions[0];
  std::vector<Example> page2_items;
  for (const Example* ex : sessions[1]) {
    Example copy = *ex;
    const Example& ctx = *sessions[0][0];
    copy.session_id = ctx.session_id;
    copy.user_id = ctx.user_id;
    copy.age_segment = ctx.age_segment;
    copy.query_id = ctx.query_id;
    copy.query_cat = ctx.query_cat;
    copy.behavior_items = ctx.behavior_items;
    copy.behavior_cats = ctx.behavior_cats;
    copy.behavior_brands = ctx.behavior_brands;
    copy.behavior_attrs = ctx.behavior_attrs;
    page2_items.push_back(std::move(copy));
  }
  RankRequest page2;
  page2.session_id = page1.session_id;
  for (const Example& ex : page2_items) page2.items.push_back(&ex);

  RankResponse first = engine.Rank(page1);
  EXPECT_FALSE(first.encoding_cache_hit);
  RankResponse second = engine.Rank(page2);
  EXPECT_FALSE(second.score_cache_hit);  // New candidates.
  EXPECT_TRUE(second.encoding_cache_hit);
  EXPECT_TRUE(second.gate_cache_hit);
  EXPECT_EQ(engine.Stats().encoding_cache_hits, 1);

  // The encoding-replay scores are bitwise-equal to a cold engine's.
  auto clean_owner = MakeRegistry();
  ServingEngine clean(&*clean_owner);
  RankResponse expected = clean.Rank(page2);
  ASSERT_EQ(second.scores.size(), expected.scores.size());
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], expected.scores[i]) << "item " << i;
  }
}

TEST_F(ServingTest, EncodingPathBitwiseIdenticalToDisabled) {
  // The level-2 split path (EncodeSessionInto + ScoreWithSessionInto)
  // on the full test traffic must reproduce the plain fused engine
  // bitwise — cache hits, probes and replication included.
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions split_options;
  split_options.score_cache_capacity = 0;  // Force every forward to run.
  ServingEngine split_engine(&registry, split_options);

  auto fused_owner = MakeRegistry();
  ServingEngineOptions fused_options;
  fused_options.score_cache_capacity = 0;
  fused_options.share_session_encoding = false;
  ServingEngine fused_engine(&*fused_owner, fused_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = split_engine.RankBatch(requests);
  auto b = fused_engine.RankBatch(requests);
  // Run the same traffic twice so cross-request encoding hits serve.
  auto a2 = split_engine.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  int64_t encoding_hits = 0;
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].scores.size(), b[s].scores.size());
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i])
          << "cold session " << a[s].session_id << " item " << i;
      EXPECT_EQ(a2[s].scores[i], b[s].scores[i])
          << "warm session " << a[s].session_id << " item " << i;
    }
    if (a2[s].encoding_cache_hit) ++encoding_hits;
  }
  EXPECT_GT(encoding_hits, 0);
}

TEST_F(ServingTest, EncodingDisabledStillScoresIdentically) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;
  options.encoding_cache_capacity = 0;  // Within-request sharing only.
  ServingEngine engine(&registry, options);

  auto fused_owner = MakeRegistry();
  ServingEngineOptions fused_options;
  fused_options.score_cache_capacity = 0;
  fused_options.share_session_encoding = false;
  ServingEngine fused(&*fused_owner, fused_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = engine.RankBatch(requests);
  auto b = fused.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_FALSE(a[s].encoding_cache_hit);
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i]) << "item " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Registry and routing.
// ---------------------------------------------------------------------

TEST_F(ServingTest, RegistryRoutesNamedAndDefaultModels) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("control", model_);
  registry.Register("treatment", second_model_);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.default_model(), "control");
  EXPECT_EQ(registry.Resolve(""), model_);
  EXPECT_EQ(registry.Resolve("treatment"), second_model_);
  EXPECT_EQ(registry.Find("missing"), nullptr);
  registry.SetDefault("treatment");
  EXPECT_EQ(registry.Resolve(""), second_model_);

  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_EQ(engine.Rank(request).model, "treatment");
  request.model = "control";
  EXPECT_EQ(engine.Rank(request).model, "control");
}

TEST_F(ServingTest, TwoModelsInOneEngineScoreIndependently) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("control", model_);
  registry.Register("treatment", second_model_);
  ServingEngine engine(&registry);

  // Per-model reference engines.
  ModelPool control_only(data_->meta, standardizer_);
  control_only.Register("control", model_);
  ServingEngine control_engine(&control_only);
  ModelPool treatment_only(data_->meta, standardizer_);
  treatment_only.Register("treatment", second_model_);
  ServingEngine treatment_engine(&treatment_only);

  auto sessions = GroupBySession(data_->full_test);
  std::vector<RankRequest> mixed;
  for (size_t s = 0; s < 10 && s < sessions.size(); ++s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.model = (s % 2 == 0) ? "control" : "treatment";
    request.items = sessions[s];
    mixed.push_back(std::move(request));
  }
  auto responses = engine.RankBatch(mixed);
  for (size_t s = 0; s < mixed.size(); ++s) {
    ServingEngine& reference =
        (s % 2 == 0) ? control_engine : treatment_engine;
    RankRequest solo = mixed[s];
    solo.model.clear();
    auto expected = reference.Rank(solo);
    ASSERT_EQ(responses[s].scores.size(), expected.scores.size());
    for (size_t i = 0; i < expected.scores.size(); ++i) {
      EXPECT_EQ(responses[s].scores[i], expected.scores[i]);
    }
  }
}

// ---------------------------------------------------------------------
// ServingStats.
// ---------------------------------------------------------------------

// One served request of `items` candidates, as the engine records it.
RequestSample Served(int64_t items, double latency_ms) {
  RequestSample sample;
  sample.items = items;
  sample.latency_ms = latency_ms;
  return sample;
}

// Requests of `items` candidates at 1, 2, ..., n ms, plus `offset` ms.
std::vector<RequestSample> Ramp(int n, int64_t items, int offset = 0) {
  std::vector<RequestSample> samples;
  for (int ms = 1; ms <= n; ++ms) {
    samples.push_back(Served(items, static_cast<double>(ms + offset)));
  }
  return samples;
}

TEST(ServingStatsTest, PercentilesAreExactOverSamples) {
  ServingStats stats;
  // 1..100 ms, shuffled order must not matter.
  std::vector<RequestSample> samples = Ramp(100, /*items=*/2);
  std::reverse(samples.begin(), samples.end());
  stats.RecordMicroBatch(/*batch_items=*/200, samples);
  EXPECT_EQ(stats.requests(), 100);
  ServingStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.items, 200);
  EXPECT_DOUBLE_EQ(snap.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(snap.p95_ms, 95.0);
  EXPECT_DOUBLE_EQ(snap.p99_ms, 99.0);
  EXPECT_DOUBLE_EQ(snap.samples_ms.back(), 100.0);  // The p100 rank.
  EXPECT_DOUBLE_EQ(snap.mean_ms, 50.5);
  EXPECT_GT(snap.qps, 0.0);
  stats.Reset();
  snap = stats.Snapshot();
  EXPECT_EQ(stats.requests(), 0);
  EXPECT_DOUBLE_EQ(snap.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(snap.p99_ms, 0.0);
}

TEST(ServingStatsTest, MergeFromEqualsRecordingTheUnion) {
  // Two disjoint shards...
  ServingStats a;
  ServingStats b;
  a.RecordMicroBatch(/*batch_items=*/100, Ramp(50, /*items=*/2));
  b.RecordMicroBatch(/*batch_items=*/150, Ramp(50, /*items=*/3, 50));
  // ...and one stats object that saw every request directly.
  ServingStats direct;
  direct.RecordMicroBatch(100, Ramp(50, 2));
  direct.RecordMicroBatch(150, Ramp(50, 3, 50));

  ServingStats merged;
  merged.MergeFrom(a.Snapshot());
  merged.MergeFrom(b.Snapshot());
  const ServingStatsSnapshot got = merged.Snapshot();
  const ServingStatsSnapshot want = direct.Snapshot();

  // Pooled-reservoir merging is EXACT while every source stays under
  // the reservoir cap: same counts, same mean, same percentiles as
  // recording the union into one object.
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.items, want.items);
  EXPECT_DOUBLE_EQ(got.total_ms, want.total_ms);
  EXPECT_DOUBLE_EQ(got.mean_ms, want.mean_ms);
  EXPECT_DOUBLE_EQ(got.p50_ms, want.p50_ms);
  EXPECT_DOUBLE_EQ(got.p95_ms, want.p95_ms);
  EXPECT_DOUBLE_EQ(got.p99_ms, want.p99_ms);
  EXPECT_EQ(got.samples_ms.size(), 100u);
}

TEST(ServingStatsTest, MergeFromPoolsCountersNotAverages) {
  // Shard a: one forward of 4 requests / 40 candidates; one request
  // waited 2 ms in the queue and hit the gate cache.
  ServingStats a;
  std::vector<RequestSample> a_batch(4, Served(10, 1.0));
  a_batch[0].queue_ms = 2.0;
  a_batch[0].gate_lookup = CacheLookup::kHit;
  a.RecordMicroBatch(/*batch_items=*/40, a_batch);
  // Shard b: two single-request forwards of 5 candidates; one request
  // waited 6 ms and missed the gate cache.
  ServingStats b;
  RequestSample queued = Served(5, 3.0);
  queued.queue_ms = 6.0;
  queued.gate_lookup = CacheLookup::kMiss;
  b.RecordMicroBatch(/*batch_items=*/5, {queued});
  b.RecordMicroBatch(/*batch_items=*/5, {Served(5, 3.0)});

  ServingStats merged;
  merged.MergeFrom(a.Snapshot());
  merged.MergeFrom(b.Snapshot());
  const ServingStatsSnapshot got = merged.Snapshot();
  EXPECT_EQ(got.batches, 3);
  // Pooled occupancy: (4+1+1)/3 — NOT the average of per-shard means
  // ((4.0 + 1.0) / 2 = 2.5).
  EXPECT_DOUBLE_EQ(got.mean_batch_requests, 2.0);
  EXPECT_EQ(got.max_batch_requests, 4);
  EXPECT_EQ(got.queued_requests, 2);
  EXPECT_DOUBLE_EQ(got.queue_mean_ms, 4.0);
  EXPECT_DOUBLE_EQ(got.queue_max_ms, 6.0);
  EXPECT_EQ(got.gate_cache_hits, 1);
  EXPECT_EQ(got.gate_cache_misses, 1);
  EXPECT_DOUBLE_EQ(got.queue_total_ms, 8.0);

  // Reset clears merged state too.
  merged.Reset();
  EXPECT_EQ(merged.Snapshot().requests, 0);
  EXPECT_EQ(merged.Snapshot().batches, 0);
}

TEST(ServingStatsTest, MergeFromTakesMaxWallClockForQps) {
  ServingStats a;
  ServingStats b;
  for (int i = 0; i < 10; ++i) {
    a.RecordMicroBatch(/*batch_items=*/1, {Served(1, 1.0)});
    b.RecordMicroBatch(/*batch_items=*/1, {Served(1, 1.0)});
  }
  const ServingStatsSnapshot sa = a.Snapshot();
  const ServingStatsSnapshot sb = b.Snapshot();
  ServingStats merged;
  merged.MergeFrom(sa);
  merged.MergeFrom(sb);
  const ServingStatsSnapshot got = merged.Snapshot();
  // Concurrent shards share the wall: 20 requests over max(wall_a,
  // wall_b) seconds, not over their sum.
  EXPECT_EQ(got.requests, 20);
  EXPECT_GE(got.wall_seconds, std::max(sa.wall_seconds, sb.wall_seconds));
  if (got.wall_seconds > 0.0) {
    EXPECT_NEAR(got.qps,
                20.0 / got.wall_seconds,
                1e-6 * got.qps + 1e-9);
  }
}

// Past kMaxSamples each of the four reservoirs (requests, score hits,
// score misses, rerank) keeps exactly kMaxSamples samples, picked by
// Algorithm R from the one xorshift stream all four draw from in record
// order. The golden sums and percentiles pin that selection for this
// exact record sequence, so a change to the draw order or to the
// replacement rule shows up here. Latencies are multiples of 1/8 ms, so
// the sums are exact.
TEST(ServingStatsTest, ReservoirsPastTheCapHoldKMaxSamplesEach) {
  constexpr int64_t kMax = ServingStats::kMaxSamples;
  constexpr int64_t kSamples = 2 * kMax + 2 * 8192;  // Half hit, half miss.
  const CacheLookup score[] = {CacheLookup::kMiss, CacheLookup::kHit,
                               CacheLookup::kStale, CacheLookup::kHit};
  const CacheLookup gate[] = {CacheLookup::kHit, CacheLookup::kMiss,
                              CacheLookup::kStale};
  const CacheLookup encoding[] = {CacheLookup::kNone, CacheLookup::kMiss,
                                  CacheLookup::kHit, CacheLookup::kStale,
                                  CacheLookup::kHit};
  ServingStats stats;
  std::vector<RequestSample> batch(2);
  for (int64_t b = 0; b < kSamples / 2; ++b) {
    for (int64_t s = 0; s < 2; ++s) {
      const int64_t j = 2 * b + s;
      RequestSample& sample = batch[static_cast<size_t>(s)];
      sample = Served(1 + j % 7, static_cast<double>(j * 37 % 1000) / 8.0 +
                                     0.125);
      if (j % 2 == 0) sample.queue_ms = 0.5;
      sample.score_lookup = score[j % 4];
      sample.gate_lookup = gate[j % 3];
      sample.encoding_lookup = encoding[j % 5];
    }
    stats.RecordMicroBatch(/*batch_items=*/b % 9 + 2, batch);
    const int64_t slate_sizes[] = {b % 60 + 1, b % 13 + 40};
    stats.RecordSlateBatch(slate_sizes,
                           static_cast<double>(b * 53 % 977) / 4.0);
  }
  const ServingStatsSnapshot snap = stats.Snapshot();

  // Counts stay exact past the cap; a stale gate row is a plain miss.
  EXPECT_EQ(snap.requests, kSamples);
  EXPECT_EQ(snap.items, 589821);
  EXPECT_EQ(snap.batches, kSamples / 2);
  EXPECT_DOUBLE_EQ(snap.mean_batch_items, 6.0);
  EXPECT_EQ(snap.queued_requests, kSamples / 2);
  EXPECT_EQ(snap.score_cache_hits, kSamples / 2);
  EXPECT_EQ(snap.score_cache_misses, kSamples / 2);
  EXPECT_EQ(snap.score_cache_invalidations, kSamples / 4);
  EXPECT_EQ(snap.gate_cache_hits, kSamples / 3);
  EXPECT_EQ(snap.gate_cache_misses, kSamples - kSamples / 3);
  EXPECT_EQ(snap.encoding_cache_hits, 58982);
  EXPECT_EQ(snap.encoding_cache_misses, 58982);
  EXPECT_EQ(snap.encoding_cache_invalidations, 29491);
  EXPECT_EQ(snap.slates, kSamples);
  EXPECT_EQ(snap.slate_items, 5639884);
  EXPECT_EQ(snap.slates_le10, 12290);
  EXPECT_EQ(snap.slates_le25, 18435);
  EXPECT_EQ(snap.slates_le50, 93109);
  EXPECT_EQ(snap.slates_gt50, 23622);

  auto sum = [](const std::vector<double>& samples) {
    double total = 0.0;
    for (double ms : samples) total += ms;
    return total;
  };
  ASSERT_EQ(static_cast<int64_t>(snap.samples_ms.size()), kMax);
  ASSERT_EQ(static_cast<int64_t>(snap.score_hit_samples_ms.size()), kMax);
  ASSERT_EQ(static_cast<int64_t>(snap.score_miss_samples_ms.size()), kMax);
  ASSERT_EQ(static_cast<int64_t>(snap.rerank_samples_ms.size()), kMax);
  EXPECT_EQ(sum(snap.samples_ms), 4092692.875);
  EXPECT_EQ(snap.p50_ms, 62.375);
  EXPECT_EQ(snap.p95_ms, 118.75);
  EXPECT_EQ(snap.p99_ms, 123.75);
  EXPECT_EQ(sum(snap.score_hit_samples_ms), 4104934.75);
  EXPECT_EQ(snap.score_hit_p50_ms, 62.75);
  EXPECT_EQ(snap.score_hit_p99_ms, 123.75);
  EXPECT_EQ(sum(snap.score_miss_samples_ms), 4096944.25);
  EXPECT_EQ(snap.score_miss_p50_ms, 62.375);
  EXPECT_EQ(snap.score_miss_p99_ms, 123.625);
  EXPECT_EQ(sum(snap.rerank_samples_ms), 7994991.25);
  EXPECT_EQ(snap.rerank_p50_ms, 122.0);
  EXPECT_EQ(snap.rerank_p99_ms, 241.75);
}

TEST_F(ServingTest, EngineStatsAccumulatePerRequest) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  auto requests = MakeSessionRequests(
      {sessions.begin(), sessions.begin() + 3});
  engine.RankBatch(requests);
  EXPECT_EQ(engine.stats().requests(), 3);
  EXPECT_EQ(engine.Stats().items,
            static_cast<int64_t>(sessions[0].size() + sessions[1].size() +
                                 sessions[2].size()));
  EXPECT_GT(engine.stats().total_ms(), 0.0);
  EXPECT_GT(engine.Stats().p99_ms, 0.0);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().requests(), 0);
}

// ---------------------------------------------------------------------
// A/B testing on the engine API.
// ---------------------------------------------------------------------

TEST_F(ServingTest, AbTestIsPairedAndDeterministic) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("control", model_);
  registry.Register("treatment", second_model_);
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  AbTestResult r1 = RunAbTest(&engine, "control", "treatment", sessions, 42);
  AbTestResult r2 = RunAbTest(&engine, "control", "treatment", sessions, 42);
  EXPECT_EQ(r1.control.uctr, r2.control.uctr);
  EXPECT_EQ(r1.treatment.ucvr, r2.treatment.ucvr);
  EXPECT_EQ(r1.control.session_clicked.size(), sessions.size());
  EXPECT_GE(r1.control.uctr, 0.0);
  EXPECT_LE(r1.control.uctr, 1.0);

  // Same model in both arms -> identical outcomes, lift 0, p = 1.
  AbTestResult same = RunAbTest(&engine, "control", "control", sessions, 42);
  EXPECT_DOUBLE_EQ(same.uctr_lift_percent, 0.0);
  EXPECT_DOUBLE_EQ(same.ucvr_lift_percent, 0.0);
  EXPECT_DOUBLE_EQ(same.uctr_p_value, 1.0);
}

// ---------------------------------------------------------------------
// Admission: no client input aborts the process. An empty candidate
// list or an unknown model becomes a per-request status, the same on
// both fronts, and the well-formed requests of the same batch keep
// their bitwise scores.
// ---------------------------------------------------------------------

// Scores `requests` one by one on a fresh engine: the bitwise reference.
std::vector<std::vector<double>> SoloScores(
    ModelPool* pool, const std::vector<RankRequest>& requests) {
  ServingEngine solo(pool);
  std::vector<std::vector<double>> scores;
  for (const RankRequest& request : requests) {
    RankResponse response = solo.Rank(request);
    EXPECT_TRUE(response.status.ok()) << response.status;
    scores.push_back(response.scores);
  }
  return scores;
}

TEST_F(ServingTest, EmptyCandidateListRejectedPerRequest) {
  std::vector<RankRequest> good =
      MakeSessionRequests(GroupBySession(data_->full_test));
  good.resize(3);
  auto solo_owner = MakeRegistry();
  const std::vector<std::vector<double>> expected =
      SoloScores(solo_owner.get(), good);

  RankRequest empty;
  empty.session_id = 4321;
  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  const std::vector<RankResponse> responses =
      engine.RankBatch({good[0], empty, good[1], good[2]});
  ASSERT_EQ(responses.size(), 4u);
  const RankResponse& rejected = responses[1];
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rejected.scores.empty());
  EXPECT_EQ(rejected.session_id, 4321);
  EXPECT_EQ(rejected.model, "aw-moe");
  EXPECT_EQ(rejected.replica, -1);
  const size_t served[] = {0, 2, 3};
  for (size_t g = 0; g < good.size(); ++g) {
    const RankResponse& response = responses[served[g]];
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_EQ(response.scores.size(), expected[g].size());
    for (size_t i = 0; i < expected[g].size(); ++i) {
      EXPECT_EQ(response.scores[i], expected[g][i]) << "request " << g;
    }
  }
  EXPECT_EQ(engine.stats().requests(), 3);  // Served traffic only.

  // The async front rejects it with the identical status.
  EXPECT_EQ(engine.Submit(empty).get().status, rejected.status);
}

TEST_F(ServingTest, UnknownModelNotFoundOnBothFrontsWithoutHealthSample) {
  std::vector<RankRequest> good =
      MakeSessionRequests(GroupBySession(data_->full_test));
  good.resize(2);
  auto solo_owner = MakeRegistry();
  const std::vector<std::vector<double>> expected =
      SoloScores(solo_owner.get(), good);

  RankRequest unknown = good[0];
  unknown.model = "no-such-model";
  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  const std::vector<RankResponse> responses =
      engine.RankBatch({good[0], unknown, good[1]});
  ASSERT_EQ(responses.size(), 3u);
  const RankResponse& rejected = responses[1];
  EXPECT_EQ(rejected.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(rejected.scores.empty());
  EXPECT_EQ(rejected.model, "no-such-model");
  EXPECT_EQ(rejected.replica, -1);
  for (size_t g = 0; g < good.size(); ++g) {
    const RankResponse& response = responses[2 * g];
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_EQ(response.scores.size(), expected[g].size());
    for (size_t i = 0; i < expected[g].size(); ++i) {
      EXPECT_EQ(response.scores[i], expected[g][i]) << "request " << g;
    }
  }

  const RankResponse async = engine.Submit(unknown).get();
  EXPECT_EQ(async.status, rejected.status);
  EXPECT_TRUE(async.scores.empty());

  // A client error is no model's fault: the only health samples are the
  // two served requests.
  const ServingStatsSnapshot snap = engine.Stats();
  EXPECT_EQ(snap.requests, 2);
  ASSERT_EQ(snap.version_health.size(), 1u);
  EXPECT_EQ(snap.version_health[0].model, "aw-moe");
  EXPECT_EQ(snap.version_health[0].requests, 2);
  EXPECT_EQ(snap.version_health[0].errors, 0);
}

TEST_F(ServingTest, MalformedFeatureWidthsRejectedPerRequest) {
  std::vector<RankRequest> good =
      MakeSessionRequests(GroupBySession(data_->full_test));
  good.resize(2);
  auto solo_owner = MakeRegistry();
  const std::vector<std::vector<double>> expected =
      SoloScores(solo_owner.get(), good);

  const Example* base = nullptr;
  for (const Example& ex : data_->full_test) {
    if (!ex.behavior_items.empty()) {
      base = &ex;
      break;
    }
  }
  ASSERT_NE(base, nullptr);
  // One bad field per copy. A fresh empty vector owns no storage, so an
  // unchecked read of it faults instead of reading spare capacity.
  std::vector<Example> bad(4, *base);
  bad[0].numeric.push_back(0.0f);
  bad[1].behavior_attrs.assign(
      base->behavior_items.size() * Example::kItemAttrs + 1, 0.0f);
  bad[2].behavior_cats = std::vector<int64_t>();
  bad[3].behavior_brands = std::vector<int64_t>();

  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  for (size_t b = 0; b < bad.size(); ++b) {
    // A well-formed candidate first: the whole request is rejected.
    RankRequest malformed = good[0];
    malformed.session_id = 9000 + static_cast<int64_t>(b);
    malformed.items = {good[0].items[0], &bad[b]};
    const std::vector<RankResponse> responses =
        engine.RankBatch({good[0], malformed, good[1]});
    ASSERT_EQ(responses.size(), 3u);
    const RankResponse& rejected = responses[1];
    EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument)
        << "case " << b << ": " << rejected.status;
    EXPECT_TRUE(rejected.scores.empty());
    EXPECT_EQ(rejected.replica, -1);
    for (size_t g = 0; g < good.size(); ++g) {
      const RankResponse& response = responses[2 * g];
      ASSERT_TRUE(response.status.ok()) << response.status;
      ASSERT_EQ(response.scores.size(), expected[g].size());
      for (size_t i = 0; i < expected[g].size(); ++i) {
        EXPECT_EQ(response.scores[i], expected[g][i])
            << "case " << b << " request " << g;
      }
    }
    EXPECT_EQ(engine.Submit(malformed).get().status, rejected.status);
  }

  const ServingStatsSnapshot snap = engine.Stats();
  const int64_t served = 2 * static_cast<int64_t>(bad.size());
  EXPECT_EQ(snap.requests, served);
  ASSERT_EQ(snap.version_health.size(), 1u);
  EXPECT_EQ(snap.version_health[0].requests, served);
  EXPECT_EQ(snap.version_health[0].errors, 0);
}

// The first full-test candidate with a behaviour history.
const Example* CandidateWithHistory(const std::vector<Example>& split) {
  for (const Example& ex : split) {
    if (!ex.behavior_items.empty()) return &ex;
  }
  return nullptr;
}

// Each `bad` candidate, sent second in a two-candidate request between
// two good requests, is rejected with kInvalidArgument on both fronts;
// the good requests keep their bitwise scores and are the only health
// samples.
void ExpectEachRejectedPerRequest(ModelPool* pool,
                                  const std::vector<RankRequest>& good,
                                  const std::vector<Example>& bad) {
  const std::vector<std::vector<double>> expected = SoloScores(pool, good);
  ServingEngine engine(pool);
  for (size_t b = 0; b < bad.size(); ++b) {
    RankRequest malformed = good[0];
    malformed.session_id = 9100 + static_cast<int64_t>(b);
    malformed.items = {good[0].items[0], &bad[b]};
    const std::vector<RankResponse> responses =
        engine.RankBatch({good[0], malformed, good[1]});
    ASSERT_EQ(responses.size(), 3u);
    const RankResponse& rejected = responses[1];
    EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument)
        << "case " << b << ": " << rejected.status;
    EXPECT_TRUE(rejected.scores.empty());
    EXPECT_EQ(rejected.replica, -1);
    for (size_t g = 0; g < good.size(); ++g) {
      const RankResponse& response = responses[2 * g];
      ASSERT_TRUE(response.status.ok()) << response.status;
      EXPECT_EQ(response.scores, expected[g]) << "case " << b;
    }
    EXPECT_EQ(engine.Submit(malformed).get().status, rejected.status);
  }
  const ServingStatsSnapshot snap = engine.Stats();
  const int64_t served = 2 * static_cast<int64_t>(bad.size());
  EXPECT_EQ(snap.requests, served);
  ASSERT_EQ(snap.version_health.size(), 1u);
  EXPECT_EQ(snap.version_health[0].requests, served);
  EXPECT_EQ(snap.version_health[0].errors, 0);
}

TEST_F(ServingTest, NegativeIdsRejectedPerRequest) {
  std::vector<RankRequest> good =
      MakeSessionRequests(GroupBySession(data_->full_test));
  good.resize(2);
  const Example* base = CandidateWithHistory(data_->full_test);
  ASSERT_NE(base, nullptr);
  // One negative id per copy; each would index before its embedding
  // table (a behaviour id used to abort the process in the gather).
  std::vector<Example> bad(5, *base);
  bad[0].behavior_items[0] = -3;
  bad[1].behavior_cats[0] = -1;
  bad[2].target_item = -1;
  bad[3].query_id = -7;
  bad[4].age_segment = -1;
  auto pool = MakeRegistry();
  ExpectEachRejectedPerRequest(pool.get(), good, bad);
}

TEST_F(ServingTest, NonFiniteFeaturesRejectedPerRequest) {
  std::vector<RankRequest> good =
      MakeSessionRequests(GroupBySession(data_->full_test));
  good.resize(2);
  const Example* base = CandidateWithHistory(data_->full_test);
  ASSERT_NE(base, nullptr);
  ASSERT_FALSE(base->behavior_attrs.empty());
  // Each would be scored silently: a NaN or inf flows through the
  // forward into the candidate's score.
  std::vector<Example> bad(4, *base);
  std::fill(bad[0].numeric.begin(), bad[0].numeric.end(),
            std::numeric_limits<float>::quiet_NaN());
  bad[1].numeric[kFeatPrice] = std::numeric_limits<float>::infinity();
  bad[2].behavior_attrs[0] = std::numeric_limits<float>::quiet_NaN();
  bad[3].target_attrs[1] = -std::numeric_limits<float>::infinity();
  auto pool = MakeRegistry();
  ExpectEachRejectedPerRequest(pool.get(), good, bad);
}

// An id at or above its vocabulary (an item the model has never seen)
// is not a client error: it scores as the 0 = unknown id, bitwise, and
// the stats count each such id once per forward.
TEST_F(ServingTest, OutOfVocabularyIdsScoreAsUnknownAndAreCounted) {
  std::vector<RankRequest> requests =
      MakeSessionRequests(GroupBySession(data_->full_test));
  RankRequest base;
  for (const RankRequest& request : requests) {
    if (request.items.size() >= 2 &&
        !request.items[0]->behavior_items.empty()) {
      base = request;
      break;
    }
  }
  ASSERT_GE(base.items.size(), 2u);
  const DatasetMeta& meta = data_->meta;
  std::vector<Example> unknown, zeroed;
  for (const Example* item : base.items) {
    unknown.push_back(*item);
    zeroed.push_back(*item);
  }
  unknown[0].target_item = int64_t{1} << 30;  // Used to abort in the gather.
  zeroed[0].target_item = 0;
  unknown[1].target_brand = meta.num_brands;  // First id past the table.
  zeroed[1].target_brand = 0;
  for (Example* ex : {&unknown[0], &unknown[1]}) {
    ex->behavior_items[0] = meta.num_items + 5;
  }
  for (Example* ex : {&zeroed[0], &zeroed[1]}) ex->behavior_items[0] = 0;
  auto request_of = [&base](const std::vector<Example>& items) {
    RankRequest request = base;
    request.items.clear();
    for (const Example& ex : items) request.items.push_back(&ex);
    return request;
  };

  auto pool = MakeRegistry();
  ServingEngine want_engine(pool.get());
  const RankResponse want = want_engine.Rank(request_of(zeroed));
  ASSERT_TRUE(want.status.ok()) << want.status;
  EXPECT_EQ(want_engine.Stats().unknown_ids, 0);

  auto registry = MakeRegistry();
  ServingEngine engine(registry.get());
  const RankRequest request = request_of(unknown);
  const RankResponse got = engine.Rank(request);
  ASSERT_TRUE(got.status.ok()) << got.status;
  EXPECT_EQ(got.scores, want.scores);
  const RankResponse async = engine.Submit(request).get();
  ASSERT_TRUE(async.status.ok()) << async.status;
  EXPECT_EQ(async.scores, want.scores);

  // Two candidates' target ids plus candidate 0's and 1's first
  // behaviour id. The async repeat is a score-cache hit: no forward, no
  // collation, nothing more counted.
  const ServingStatsSnapshot snap = engine.Stats();
  EXPECT_EQ(snap.requests, 2);
  EXPECT_EQ(snap.score_cache_hits, 1);
  EXPECT_EQ(snap.unknown_ids, 4);
}

// ---------------------------------------------------------------------
// Per-level cache accounting across a history change, pinned exactly:
// the level-1 score cache, the gate rows and the session encodings each
// count one lookup per request, and a changed history is a stale gate
// row (a plain gate miss) but an encoding and a score invalidation.
// ---------------------------------------------------------------------

TEST_F(ServingTest, HistoryChangeCountsEveryCacheLevelExactly) {
  auto sessions = GroupBySession(data_->full_test);
  size_t s = 0;
  while (sessions[s].size() < 2) ++s;
  const std::vector<Example> grown = MakeGrownSession(sessions[s]);
  RankRequest before;
  before.session_id = sessions[s][0]->session_id;
  before.items = sessions[s];
  RankRequest after = before;
  after.items.clear();
  for (const Example& ex : grown) after.items.push_back(&ex);
  RankRequest page = after;  // Same grown history, fewer candidates.
  page.items.resize(page.items.size() / 2);

  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  const RankResponse cold = engine.Rank(before);
  const RankResponse changed = engine.Rank(after);
  const RankResponse repeat = engine.Rank(after);
  const RankResponse paged = engine.Rank(page);
  EXPECT_FALSE(changed.score_cache_hit);
  EXPECT_FALSE(changed.gate_cache_hit);
  EXPECT_FALSE(changed.encoding_cache_hit);
  EXPECT_TRUE(repeat.score_cache_hit);
  EXPECT_TRUE(paged.gate_cache_hit);
  EXPECT_TRUE(paged.encoding_cache_hit);

  const ServingStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.score_cache_hits, 1);
  EXPECT_EQ(stats.score_cache_misses, 3);
  EXPECT_EQ(stats.score_cache_invalidations, 1);
  EXPECT_EQ(stats.gate_cache_hits, 1);
  EXPECT_EQ(stats.gate_cache_misses, 2);
  EXPECT_EQ(stats.encoding_cache_hits, 1);
  EXPECT_EQ(stats.encoding_cache_misses, 2);
  EXPECT_EQ(stats.encoding_cache_invalidations, 1);

  // Every score is bitwise what an engine with no caches computes.
  ServingEngineOptions off;
  off.share_gate = false;
  off.gate_cache_capacity = 0;
  off.score_cache_capacity = 0;
  off.share_session_encoding = false;
  off.encoding_cache_capacity = 0;
  auto cold_owner = MakeRegistry();
  ServingEngine reference(cold_owner.get(), off);
  const std::pair<const RankResponse*, const RankRequest*> served[] = {
      {&cold, &before}, {&changed, &after}, {&repeat, &after},
      {&paged, &page}};
  for (const auto& [response, request] : served) {
    const RankResponse want = reference.Rank(*request);
    ASSERT_TRUE(response->status.ok()) << response->status;
    ASSERT_EQ(response->scores.size(), want.scores.size());
    for (size_t i = 0; i < want.scores.size(); ++i) {
      EXPECT_EQ(response->scores[i], want.scores[i]) << "item " << i;
    }
  }
}

}  // namespace
}  // namespace awmoe
