// search_fresh: one closed-loop client sends every holdout session
// through TwoStageRanker (AW-MoE & CL retrieval over kCandidates
// candidates, ListwiseReranker over the top kSlate), under a session id
// it has never sent before. Every cache level misses and only fills, so
// the time goes to collation and the two models' forward passes.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "nn/inference.h"
#include "serving/model_pool.h"
#include "serving/two_stage.h"
#include "workloads.h"

namespace perfbench {

using namespace awmoe;

namespace {

constexpr int kWarmupPasses = 2;
/// Sessions the post-run checks re-score through the reference engine.
constexpr size_t kCheckedSessions = 16;
/// MatMulInto calls per nn.matmul span (one call is about a microsecond).
constexpr int kMatMulReps = 64;

struct State {
  std::unique_ptr<World> world;
  /// The request stream: a copy of the holdout whose session ids are
  /// rewritten before every pass.
  std::vector<Example> stream;
  std::vector<std::vector<const Example*>> sessions;
  /// Order in which a pass sends the sessions, drawn from the seed.
  std::vector<size_t> order;
  int64_t next_session_id = 1;

  std::unique_ptr<ModelPool> pool;
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<TwoStageRanker> ranker;
  std::unique_ptr<ModelPool> cold_pool;
  std::unique_ptr<ServingEngine> cold;
  /// Private copies the layer replay calls directly.
  std::unique_ptr<Ranker> replay_awmoe;
  std::unique_ptr<Ranker> replay_listwise;

  void FreshIds() {
    for (auto& session : sessions) {
      const int64_t id = next_session_id++;
      for (const Example* ex : session) const_cast<Example*>(ex)->session_id = id;
    }
  }
};

std::unique_ptr<State> SetUp(uint64_t seed, Tracer* tracer) {
  auto state = std::make_unique<State>();
  state->world = BuildWorld(tracer);
  const World& world = *state->world;
  state->stream = world.data.full_test;
  state->sessions = GroupBySession(state->stream);
  state->order.resize(state->sessions.size());
  std::iota(state->order.begin(), state->order.end(), size_t{0});
  Rng order_rng(seed * 7919 + 1);
  order_rng.Shuffle(&state->order);
  state->next_session_id = 1 + static_cast<int64_t>(state->stream.size());

  std::unique_ptr<AwMoeRanker> awmoe;
  std::unique_ptr<ListwiseReranker> listwise;
  {
    Tracer::Scope span(tracer, "core.train");
    awmoe = TrainAwMoe(world, seed);
    listwise = TrainListwise(world, seed);
  }
  {
    Tracer::Scope span(tracer, "serving.pool_build");
    state->replay_awmoe = awmoe->Clone();
    state->replay_listwise = listwise->Clone();
    state->cold_pool =
        std::make_unique<ModelPool>(world.data.meta, &world.standardizer);
    state->cold_pool->RegisterOwned("aw-moe", awmoe->Clone());
    state->cold_pool->RegisterOwned("listwise", listwise->Clone());
    state->cold = std::make_unique<ServingEngine>(state->cold_pool.get(),
                                                  ColdEngineOptions());
    state->pool =
        std::make_unique<ModelPool>(world.data.meta, &world.standardizer);
    state->pool->RegisterOwned("aw-moe", std::move(awmoe));
    state->pool->RegisterOwned("listwise", std::move(listwise));
    state->engine = std::make_unique<ServingEngine>(state->pool.get());
    TwoStageOptions options;
    options.retrieval_model = "aw-moe";
    options.rerank_model = "listwise";
    options.top_k = kSlate;
    state->ranker =
        std::make_unique<TwoStageRanker>(state->engine.get(), options);
  }
  for (int pass = 0; pass < kWarmupPasses; ++pass) {
    state->FreshIds();
    for (size_t s : state->order) {
      const auto& session = state->sessions[s];
      RankRequest request;
      request.session_id = session[0]->session_id;
      request.items = session;
      state->ranker->Rank(request);
    }
  }
  state->engine->ResetStats();
  return state;
}

/// The slate is the stable top-kSlate of the stage-1 scores, and the
/// final ranking lists exactly the slate members first.
bool TwoStageConsistent(const TwoStageResult& result, size_t n) {
  if (!result.status.ok() || result.retrieval_scores.size() != n ||
      result.final_scores.size() != n || result.ranking.size() != n) {
    return false;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result.retrieval_scores[a] > result.retrieval_scores[b];
  });
  const size_t k = std::min(static_cast<size_t>(kSlate), n);
  if (result.slate != std::vector<size_t>(order.begin(), order.begin() + k) ||
      result.rerank_scores.size() != k) {
    return false;
  }
  std::vector<size_t> head(result.ranking.begin(), result.ranking.begin() + k);
  std::vector<size_t> slate = result.slate;
  std::sort(head.begin(), head.end());
  std::sort(slate.begin(), slate.end());
  return head == slate;
}

/// The calls the engine makes for one fresh two-stage request, made
/// directly with one span each (plus the fused ScoreInto and a raw
/// MatMulInto at the expert first-layer shape, which the engine path
/// does not take).
struct LayerReplay {
  explicit LayerReplay(const State& state)
      : meta(state.world->data.meta),
        standardizer(&state.world->standardizer),
        awmoe(state.replay_awmoe.get()),
        listwise(state.replay_listwise.get()),
        awmoe_ws(awmoe->CreateInferenceWorkspace(256)),
        listwise_ws(listwise->CreateInferenceWorkspace(256)) {
    Rng rng(3);
    const int64_t expert_in = 4 * AwMoeModelConfig().dims.hidden_dim();
    const int64_t expert_out = AwMoeModelConfig().dims.expert.front();
    matmul_a = Matrix(kCandidates, expert_in);
    matmul_w = Matrix(expert_in, expert_out);
    matmul_out = Matrix(kCandidates, expert_out);
    for (int64_t i = 0; i < matmul_a.size(); ++i) {
      matmul_a.data()[i] = static_cast<float>(rng.Normal());
    }
    for (int64_t i = 0; i < matmul_w.size(); ++i) {
      matmul_w.data()[i] = static_cast<float>(rng.Normal());
    }
  }

  /// Makes the calls; returns the summed time (µs) of those the engine
  /// path makes.
  double Run(const std::vector<const Example*>& items, Tracer* tracer) {
    const size_t first = tracer->spans().size();
    Calls(items, tracer);
    double direct_us = 0.0;
    for (size_t i = first; i < tracer->spans().size(); ++i) {
      const Span& span = tracer->spans()[i];
      const std::string name = span.name;
      if (name != "replay" && name != "core.aw_moe.score_into" &&
          name != "nn.matmul") {
        direct_us += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      }
    }
    return direct_us;
  }

  void Calls(const std::vector<const Example*>& items, Tracer* tracer) {
    const int64_t n = static_cast<int64_t>(items.size());
    const int64_t gate_w = awmoe->SessionGateWidth();
    const int64_t enc_w = awmoe->SessionEncodingWidth();
    Tracer::Scope replay(tracer, "replay");
    Batch batch;
    {
      Tracer::Scope span(tracer, "data.collate");
      batch = CollateBatch(items, meta, standardizer);
    }
    Batch probe;
    {
      Tracer::Scope span(tracer, "data.collate_probe");
      probe = CollateBatch({items[0]}, meta, standardizer);
    }
    gate_row.resize(static_cast<size_t>(gate_w));
    {
      Tracer::Scope span(tracer, "core.aw_moe.gate_into");
      awmoe->GateInto(probe, awmoe_ws.get(), gate_row);
    }
    {
      Tracer::Scope span(tracer, "data.collate_probe");
      probe = CollateBatch({items[0]}, meta, standardizer);
    }
    enc_row.resize(static_cast<size_t>(enc_w));
    {
      Tracer::Scope span(tracer, "core.aw_moe.encode_session");
      awmoe->EncodeSessionInto(probe, awmoe_ws.get(), enc_row);
    }
    gate_rows.resize(static_cast<size_t>(n * gate_w));
    enc_rows.resize(static_cast<size_t>(n * enc_w));
    for (int64_t r = 0; r < n; ++r) {
      std::copy(gate_row.begin(), gate_row.end(), gate_rows.begin() + r * gate_w);
      std::copy(enc_row.begin(), enc_row.end(), enc_rows.begin() + r * enc_w);
    }
    const SessionGate gate{gate_rows.data(), n, gate_w};
    const SessionEncoding encoding{enc_rows.data(), n, enc_w};
    logits.resize(static_cast<size_t>(n));
    {
      Tracer::Scope span(tracer, "core.aw_moe.score_with_session");
      awmoe->ScoreWithSessionInto(batch, &gate, &encoding, awmoe_ws.get(),
                                  logits);
    }
    fused.resize(static_cast<size_t>(n));
    {
      Tracer::Scope span(tracer, "core.aw_moe.score_into");
      awmoe->ScoreInto(batch, nullptr, awmoe_ws.get(), fused);
    }
    std::vector<size_t> order(items.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return logits[a] > logits[b]; });
    std::vector<const Example*> slate_items;
    for (int64_t j = 0; j < std::min(kSlate, n); ++j) {
      slate_items.push_back(items[order[static_cast<size_t>(j)]]);
    }
    Batch slate;
    {
      Tracer::Scope span(tracer, "data.collate_slate");
      slate = CollateBatch(slate_items, meta, standardizer);
    }
    const std::vector<int64_t> starts = {0};
    slate_logits.resize(slate_items.size());
    {
      Tracer::Scope span(tracer, "models.listwise.score_slate");
      listwise->ScoreSlateInto(slate, starts, listwise_ws.get(), slate_logits);
    }
    {
      Tracer::Scope span(tracer, "nn.matmul");
      for (int rep = 0; rep < kMatMulReps; ++rep) {
        MatMulInto(MatrixView(matmul_a), matmul_w,
                   MatView{matmul_out.data(), matmul_out.rows(),
                           matmul_out.cols(), matmul_out.cols()});
      }
    }
  }

  const DatasetMeta& meta;
  const Standardizer* standardizer;
  Ranker* awmoe;
  Ranker* listwise;
  std::unique_ptr<InferenceWorkspace> awmoe_ws;
  std::unique_ptr<InferenceWorkspace> listwise_ws;
  std::vector<float> gate_row, enc_row, gate_rows, enc_rows;
  std::vector<float> logits, fused, slate_logits;
  Matrix matmul_a, matmul_w, matmul_out;
};

double MedianUs(const Tracer& tracer, const char* name) {
  return Median(tracer.DurationsUs(name));
}

/// Stage times of the Rank calls in replay passes, and for each of
/// those requests the engine-path time of its replayed calls.
struct StageSamples {
  std::vector<double> retrieve_ms, rerank_ms, overhead_us, share;
};

/// Per-layer metrics of this phase, from its spans and stage times.
void SetLayerMetrics(const Tracer& tracer, const StageSamples& stages,
                     Report* report) {
  const AwMoeConfig config = AwMoeModelConfig();
  const double flops =
      MatMulFlops(kCandidates, 4 * config.dims.hidden_dim(),
                  config.dims.expert.front()) *
      kMatMulReps;
  report->Set("data.collate_us", MedianUs(tracer, "data.collate"), "us");
  report->Set("core.aw_moe.gate_into_us",
              MedianUs(tracer, "core.aw_moe.gate_into"), "us");
  report->Set("core.aw_moe.encode_session_us",
              MedianUs(tracer, "core.aw_moe.encode_session"), "us");
  report->Set("core.aw_moe.score_with_session_us",
              MedianUs(tracer, "core.aw_moe.score_with_session"), "us");
  report->Set("core.aw_moe.score_into_us",
              MedianUs(tracer, "core.aw_moe.score_into"), "us");
  report->Set("models.listwise.score_slate_us",
              MedianUs(tracer, "models.listwise.score_slate"), "us");
  report->Set("nn.matmul_gflops", flops / (MedianUs(tracer, "nn.matmul") * 1e3),
              "GFLOP/s");
  report->Set("serving.retrieve_ms", Median(stages.retrieve_ms), "ms");
  report->Set("serving.rerank_ms", Median(stages.rerank_ms), "ms");
  // Per request: the engine collates the request, the gate probe, the
  // encoding probe and the slate, and runs the four forwards; what
  // remains of the two stage times is the engine's own work (routing,
  // cache lookups and fills, leasing, row replication, sigmoid, stats,
  // response fan-out).
  report->Set("serving.direct_share", Median(stages.share), "ratio");
  report->Set("serving.engine_overhead_us", Median(stages.overhead_us), "us");
}

}  // namespace

void RunSearchFresh(const PhaseSpec& spec, Report* report, Tracer* tracer) {
  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = SetUp(spec.seed, tracer);
    setup_s.push_back(SecondsSince(start));
  }
  const size_t n_sessions = state->sessions.size();
  // Pass-0 results per holdout session, aligned with the holdout.
  std::vector<double> first_final(n_sessions * kCandidates);
  std::vector<double> first_retrieval(n_sessions * kCandidates);
  std::vector<double> first_rerank(n_sessions * kSlate);
  std::vector<std::vector<size_t>> first_slates(n_sessions);
  Reservoir latencies_ms;
  StageSamples stages;
  double measured_s = 0.0, traced_s = 0.0;
  int64_t requests = 0, traced_requests = 0;
  std::unique_ptr<LayerReplay> replay;
  if (spec.trace) replay = std::make_unique<LayerReplay>(*state);

  // Serves session `s` of pass `pass` and checks the result. Only the
  // Rank call is timed: it adds to `rank_s`.
  double rank_s = 0.0;
  auto serve = [&](int64_t pass, size_t s) {
    const auto& session = state->sessions[s];
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    const Clock::time_point start = Clock::now();
    TwoStageResult result;
    {
      Tracer::Scope span(tracer, "serving.two_stage.rank");
      result = state->ranker->Rank(request);
    }
    const double seconds = SecondsSince(start);
    rank_s += seconds;
    latencies_ms.Add(seconds * 1e3);
    bool ok = TwoStageConsistent(result, session.size());
    if (ok && pass == 0) {
      std::copy(result.final_scores.begin(), result.final_scores.end(),
                first_final.begin() + static_cast<ptrdiff_t>(s * kCandidates));
      std::copy(result.retrieval_scores.begin(), result.retrieval_scores.end(),
                first_retrieval.begin() +
                    static_cast<ptrdiff_t>(s * kCandidates));
      std::copy(result.rerank_scores.begin(), result.rerank_scores.end(),
                first_rerank.begin() + static_cast<ptrdiff_t>(s * kSlate));
      first_slates[s] = result.slate;
    } else if (pass > 0) {
      // A fresh session id must not change a single bit.
      const std::vector<double> before(
          first_final.begin() + static_cast<ptrdiff_t>(s * kCandidates),
          first_final.begin() + static_cast<ptrdiff_t>((s + 1) * kCandidates));
      ok = ok && BitwiseEqual(before, result.final_scores);
    }
    report->Check(ok, "search_fresh request " + std::to_string(s));
    return result;
  };

  const int64_t cycle = spec.trace ? 3 : 1;
  const Clock::time_point phase_start = Clock::now();
  for (int64_t pass = 0;; ++pass) {
    // Traced runs cycle untraced / traced / replay passes, so host-speed
    // drift falls on all three alike.
    const int64_t kind = pass % cycle;
    state->FreshIds();
    if (kind == 2) {
      // Each request is served and its calls replayed back to back, in
      // alternating order, so the two times see the same host speed.
      for (size_t i = 0; i < n_sessions; ++i) {
        const size_t s = state->order[i];
        double direct_us = 0.0;
        if (i % 2 == 1) direct_us = replay->Run(state->sessions[s], tracer);
        const TwoStageResult result = serve(pass, s);
        if (i % 2 == 0) direct_us = replay->Run(state->sessions[s], tracer);
        const double stage_us = (result.retrieve_ms + result.rerank_ms) * 1e3;
        stages.retrieve_ms.push_back(result.retrieve_ms);
        stages.rerank_ms.push_back(result.rerank_ms);
        stages.overhead_us.push_back(stage_us - direct_us);
        stages.share.push_back(direct_us / stage_us);
      }
    } else {
      tracer->set_enabled(kind == 1);
      rank_s = 0.0;
      for (size_t s : state->order) serve(pass, s);
      (kind == 1 ? traced_s : measured_s) += rank_s;
      (kind == 1 ? traced_requests : requests) +=
          static_cast<int64_t>(n_sessions);
      tracer->set_enabled(spec.trace);
    }
    if (SecondsSince(phase_start) >= spec.seconds && (pass + 1) % cycle == 0) {
      break;
    }
  }

  // --- Output checks. ---
  const std::vector<Example>& holdout = state->world->data.full_test;
  const OwnRanking final_quality = CheckedRanking(holdout, first_final, report);
  const OwnRanking retrieval_quality =
      CheckedRanking(holdout, first_retrieval, report);
  {
    // Served scores rank-correlate with the generator's noiseless
    // utility (session-averaged Spearman).
    double rho = 0.0;
    for (size_t s = 0; s < n_sessions; ++s) {
      std::vector<double> oracle, served;
      for (size_t j = 0; j < kCandidates; ++j) {
        oracle.push_back(holdout[s * kCandidates + j].oracle_utility);
        served.push_back(first_final[s * kCandidates + j]);
      }
      rho += Spearman(served, oracle);
    }
    rho /= static_cast<double>(n_sessions);
    report->Check(rho > 0.0, "search_fresh oracle Spearman " +
                                 std::to_string(rho));
  }
  for (size_t s = 0; s < std::min(kCheckedSessions, n_sessions); ++s) {
    // Stage 1 against the reference engine: each item's score is the
    // same bits whether the item is ranked with all candidates, in
    // reverse order, or with only half of them.
    const auto& session = state->sessions[s];
    RankRequest full;
    full.session_id = session[0]->session_id;
    full.model = "aw-moe";
    full.items = session;
    RankRequest reversed = full;
    std::reverse(reversed.items.begin(), reversed.items.end());
    RankRequest half = full;
    half.items.resize(session.size() / 2);
    const RankResponse a = state->cold->Rank(full);
    const RankResponse b = state->cold->Rank(reversed);
    const RankResponse c = state->cold->Rank(half);
    const std::vector<double> served(
        first_retrieval.begin() + static_cast<ptrdiff_t>(s * kCandidates),
        first_retrieval.begin() + static_cast<ptrdiff_t>((s + 1) * kCandidates));
    bool ok = a.status.ok() && b.status.ok() && c.status.ok() &&
              BitwiseEqual(a.scores, served);
    for (size_t j = 0; ok && j < session.size(); ++j) {
      ok = b.scores[session.size() - 1 - j] == a.scores[j] &&
           (j >= half.items.size() || c.scores[j] == a.scores[j]);
    }
    report->Check(ok, "search_fresh pointwise reference, session " +
                          std::to_string(s));
    // Stage 2 against the reference engine on the served slate.
    RankRequest slate;
    slate.session_id = full.session_id;
    slate.model = "listwise";
    for (size_t idx : first_slates[s]) slate.items.push_back(session[idx]);
    const RankResponse d = state->cold->Rank(slate);
    const std::vector<double> served_rerank(
        first_rerank.begin() + static_cast<ptrdiff_t>(s * kSlate),
        first_rerank.begin() + static_cast<ptrdiff_t>((s + 1) * kSlate));
    report->Check(d.status.ok() && BitwiseEqual(d.scores, served_rerank),
                  "search_fresh rerank reference, session " + std::to_string(s));
  }

  if (spec.trace) {
    SetLayerMetrics(*tracer, stages, report);
    report->Set("trace.overhead",
                (static_cast<double>(traced_requests) / traced_s) /
                    (static_cast<double>(requests) / measured_s),
                "ratio");
    report->Set("data.generate_s",
                Median(tracer->DurationsUs("data.generate")) / 1e6, "s");
    report->Set("core.train_s", Median(tracer->DurationsUs("core.train")) / 1e6,
                "s");
    report->Set("serving.pool_build_s",
                Median(tracer->DurationsUs("serving.pool_build")) / 1e6, "s");
  } else {
    SetTimingMetrics(latencies_ms.values(), static_cast<double>(requests), measured_s,
                     setup_s, report);
    report->Set("ndcg_at_10", final_quality.ndcg_at_10, "ratio");
    report->Set("auc", retrieval_quality.auc, "ratio");
  }
}

}  // namespace perfbench
