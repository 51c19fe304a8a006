// train_cl: ParallelTrainer with 2 workers trains AW-MoE & CL (BCE plus
// the InfoNCE loss over masked behaviour sequences) on the fixed
// training split, one optimizer step per operation, then scores the
// holdout. Autograd, the matrix kernels, augmentation and AdamW do all
// the work; serving does none.

#include <cmath>
#include <string>
#include <vector>

#include "core/contrastive.h"
#include "core/parallel_trainer.h"
#include "core/trainer.h"
#include "nn/optimizer.h"
#include "workloads.h"

namespace perfbench {

using namespace awmoe;

namespace {

/// The model scored on the holdout is the one after this many rounds
/// (passes over the training split): a fixed step count, so quality
/// depends on the seed only. Every run trains at least this long,
/// whatever its --seconds, also as a secondary phase of a traced run.
constexpr int64_t kEvalRounds = 3;

std::unique_ptr<ParallelTrainer> MakeTrainer(Ranker* model, uint64_t seed,
                                             int workers) {
  ParallelTrainerConfig config;
  config.base = AwMoeTrainerConfig(seed, kTrainBatch);
  config.num_workers = workers;
  config.grad_accumulation = kTrainShards;
  return std::make_unique<ParallelTrainer>(model, config);
}

struct State {
  std::unique_ptr<World> world;
  /// The training split, shuffled once, cut into one-step chunks.
  std::vector<std::vector<Example>> chunks;
  std::unique_ptr<AwMoeRanker> model;
  std::unique_ptr<ParallelTrainer> trainer;
};

std::unique_ptr<State> SetUp(uint64_t seed, Tracer* tracer) {
  auto state = std::make_unique<State>();
  state->world = BuildWorld(tracer);
  const World& world = *state->world;
  std::vector<const Example*> rows;
  for (const Example& ex : world.data.train) rows.push_back(&ex);
  Rng shuffle(seed + 101);
  shuffle.Shuffle(&rows);
  const size_t step_rows = static_cast<size_t>(kTrainBatch * kTrainShards);
  for (size_t begin = 0; begin + step_rows <= rows.size(); begin += step_rows) {
    std::vector<Example> chunk;
    for (size_t i = begin; i < begin + step_rows; ++i) chunk.push_back(*rows[i]);
    state->chunks.push_back(std::move(chunk));
  }
  Rng init(seed ^ 0xA5A5u);
  state->model =
      std::make_unique<AwMoeRanker>(world.data.meta, AwMoeModelConfig(), &init);
  state->trainer = MakeTrainer(state->model.get(), seed, kTrainWorkers);
  // Warm-up: two steps of a throwaway copy, so the measured model
  // trains from its initial weights.
  auto warm = state->model->Clone();
  auto warm_trainer = MakeTrainer(warm.get(), seed, kTrainWorkers);
  for (size_t c = 0; c < 2; ++c) {
    warm_trainer->TrainEpoch(state->chunks[c], world.data.meta,
                             &world.standardizer);
  }
  return state;
}

/// One serial training step taken apart with one span per public call:
/// what each ParallelTrainer shard does, plus the optimizer step.
struct StepReplay {
  StepReplay(const State& state, uint64_t seed)
      : config(AwMoeTrainerConfig(seed, kTrainBatch)),
        model(state.model->Clone()),
        params(model->Parameters()),
        optimizer(params, config.lr, config.weight_decay),
        rng(seed + 7),
        augmenter(config.cl, &rng) {}

  void Run(const std::vector<Example>& chunk, const World& world,
           Tracer* tracer) {
    Tracer::Scope replay(tracer, "replay");
    BatchIterator it(&chunk, world.data.meta, kTrainBatch, &world.standardizer,
                     &rng);
    Batch batch;
    {
      Tracer::Scope span(tracer, "data.batch_next");
      it.Next(&batch);
    }
    {
      Tracer::Scope span(tracer, "core.contrastive.augment");
      Batch augmented = augmenter.Augment(batch);
      augmenter.SampleNegatives(augmented.size);
    }
    model->ZeroGrad();
    BatchLossTerms terms;
    Var loss;
    {
      Tracer::Scope span(tracer, "autograd.forward");
      loss = BuildTrainingLoss(model.get(), batch, config, &augmenter, &terms);
    }
    {
      Tracer::Scope span(tracer, "autograd.backward");
      loss.Backward();
    }
    {
      Tracer::Scope span(tracer, "nn.adamw_step");
      optimizer.Step();
    }
  }

  TrainerConfig config;
  std::unique_ptr<Ranker> model;
  std::vector<Var> params;
  AdamW optimizer;
  Rng rng;
  ContrastiveAugmenter augmenter;
};

bool AllFinite(const Ranker& model) {
  for (const Var& p : model.Parameters()) {
    const Matrix& m = p.value();
    for (int64_t i = 0; i < m.size(); ++i) {
      if (!std::isfinite(m.data()[i])) return false;
    }
  }
  return true;
}

double MedianMs(const Tracer& tracer, const char* name) {
  return Median(tracer.DurationsUs(name)) / 1e3;
}

}  // namespace

void RunTrainCl(const PhaseSpec& spec, Report* report, Tracer* tracer) {
  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = SetUp(spec.seed, tracer);
    setup_s.push_back(SecondsSince(start));
  }
  const World& world = *state->world;
  const int64_t n_chunks = static_cast<int64_t>(state->chunks.size());
  const double step_rows = static_cast<double>(kTrainBatch * kTrainShards);

  // Traced runs also take every step through the serial replay and
  // through a 1-worker trainer (core.parallel.speedup), in turn.
  std::unique_ptr<StepReplay> replay;
  std::unique_ptr<Ranker> one_worker_model;
  std::unique_ptr<ParallelTrainer> one_worker;
  if (spec.trace) {
    replay = std::make_unique<StepReplay>(*state, spec.seed);
    one_worker_model = state->model->Clone();
    one_worker = MakeTrainer(one_worker_model.get(), spec.seed, 1);
  }

  std::vector<double> step_ms, round_loss;
  std::vector<double> two_worker_ms, one_worker_ms;
  double measured_s = 0.0, traced_s = 0.0;
  int64_t steps = 0, traced_steps = 0;
  std::unique_ptr<Ranker> evaluated;
  double loss_sum = 0.0;
  const Clock::time_point phase_start = Clock::now();
  for (int64_t t = 0;; ++t) {
    const std::vector<Example>& chunk =
        state->chunks[static_cast<size_t>(t % n_chunks)];
    const bool traced = spec.trace && t % 2 == 1;
    tracer->set_enabled(traced);
    const Clock::time_point start = Clock::now();
    EpochStats stats;
    {
      Tracer::Scope span(tracer, "core.parallel.train_step");
      stats = state->trainer->TrainEpoch(chunk, world.data.meta,
                                         &world.standardizer);
    }
    const double seconds = SecondsSince(start);
    tracer->set_enabled(spec.trace);
    report->Check(std::isfinite(stats.mean_rank_loss) &&
                      std::isfinite(stats.mean_cl_loss) &&
                      stats.num_batches == kTrainShards,
                  "train_cl step " + std::to_string(t));
    loss_sum += stats.mean_rank_loss;
    if (traced) {
      traced_s += seconds;
      ++traced_steps;
    } else {
      measured_s += seconds;
      ++steps;
      step_ms.push_back(seconds * 1e3);
      two_worker_ms.push_back(seconds * 1e3);
    }
    if (spec.trace) {
      replay->Run(chunk, world, tracer);
      const Clock::time_point one = Clock::now();
      one_worker->TrainEpoch(chunk, world.data.meta, &world.standardizer);
      one_worker_ms.push_back(SecondsSince(one) * 1e3);
    }
    if ((t + 1) % n_chunks != 0) continue;
    round_loss.push_back(loss_sum / static_cast<double>(n_chunks));
    loss_sum = 0.0;
    const int64_t rounds = static_cast<int64_t>(round_loss.size());
    if (rounds == kEvalRounds) evaluated = state->model->Clone();
    if (rounds >= kEvalRounds && SecondsSince(phase_start) >= spec.seconds) {
      break;
    }
  }

  // --- Output checks. ---
  report->Check(round_loss.back() < round_loss.front(),
                "train_cl loss falls: first round " +
                    std::to_string(round_loss.front()) + ", last round " +
                    std::to_string(round_loss.back()));
  report->Check(AllFinite(*state->model), "train_cl parameters finite");
  const std::vector<double> scores =
      Predict(evaluated.get(), world.data.full_test, world.data.meta,
              &world.standardizer);
  const OwnRanking quality = CheckedRanking(world.data.full_test, scores, report);
  report->Check(quality.auc > 0.5,
                "train_cl holdout AUC above chance: " + std::to_string(quality.auc));

  if (spec.trace) {
    report->Set("data.batch_next_ms", MedianMs(*tracer, "data.batch_next"), "ms");
    report->Set("core.contrastive.augment_ms",
                MedianMs(*tracer, "core.contrastive.augment"), "ms");
    report->Set("autograd.forward_ms", MedianMs(*tracer, "autograd.forward"),
                "ms");
    report->Set("autograd.backward_ms", MedianMs(*tracer, "autograd.backward"),
                "ms");
    report->Set("nn.adamw_step_ms", MedianMs(*tracer, "nn.adamw_step"), "ms");
    report->Set("core.parallel.speedup",
                Median(one_worker_ms) / Median(two_worker_ms), "ratio");
    report->Set("trace.overhead",
                (static_cast<double>(traced_steps) / traced_s) /
                    (static_cast<double>(steps) / measured_s),
                "ratio");
    report->Set("data.generate_s",
                Median(tracer->DurationsUs("data.generate")) / 1e6, "s");
  } else {
    SetTimingMetrics(step_ms, static_cast<double>(steps) * step_rows,
                     measured_s, setup_s, report);
    report->Set("ndcg_at_10", quality.ndcg_at_10, "ratio");
    report->Set("auc", quality.auc, "ratio");
  }
}

}  // namespace perfbench
