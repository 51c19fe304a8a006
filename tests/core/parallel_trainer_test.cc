// ParallelTrainer determinism contract (see core/parallel_trainer.h):
// worker-count independence is BITWISE, single-shard steps are bitwise-
// equal to the serial Trainer — both at each kernel tier — and
// accumulated shard groups match a serial run over the same row unions
// to float tolerance. Training on the fast tier ends near the reference
// tier's model.

#include "core/parallel_trainer.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/jd_synthetic.h"
#include "eval/metrics.h"
#include "models/dnn_ranker.h"
#include "models/ranker.h"
#include "support/kernel_tiers.h"

namespace awmoe {
namespace {

JdConfig TinyCorpus() {
  JdConfig config;
  config.num_users = 200;
  config.num_items = 150;
  config.num_categories = 6;
  config.brands_per_category = 4;
  config.num_shops = 12;
  config.train_sessions = 120;
  config.test_sessions = 30;
  config.longtail1_sessions = 5;
  config.longtail2_sessions = 5;
  config.seed = 90210;
  return config;
}

AwMoeConfig TinyAwMoeConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  return config;
}

ModelDims TinyDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {12, 8};
  return dims;
}

/// Bitwise parameter equality (exact float identity, not tolerance).
void ExpectParamsBitwiseEqual(const Ranker& a, const Ranker& b) {
  const std::vector<Var> pa = a.Parameters();
  const std::vector<Var> pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    const Matrix& ma = pa[i].value();
    const Matrix& mb = pb[i].value();
    ASSERT_EQ(ma.rows(), mb.rows());
    ASSERT_EQ(ma.cols(), mb.cols());
    for (int64_t k = 0; k < ma.size(); ++k) {
      ASSERT_EQ(ma.data()[k], mb.data()[k])
          << "param " << i << " element " << k << " diverged";
    }
  }
}

double MaxParamAbsDiff(const Ranker& a, const Ranker& b) {
  const std::vector<Var> pa = a.Parameters();
  const std::vector<Var> pb = b.Parameters();
  EXPECT_EQ(pa.size(), pb.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < pa.size(); ++i) {
    const Matrix& ma = pa[i].value();
    const Matrix& mb = pb[i].value();
    for (int64_t k = 0; k < ma.size(); ++k) {
      max_diff = std::max(
          max_diff, std::abs(static_cast<double>(ma.data()[k]) -
                             static_cast<double>(mb.data()[k])));
    }
  }
  return max_diff;
}

class ParallelTrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new JdDataset(JdSyntheticGenerator(TinyCorpus()).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete standardizer_;
    data_ = nullptr;
    standardizer_ = nullptr;
  }
  static JdDataset* data_;
  static Standardizer* standardizer_;
};

JdDataset* ParallelTrainerTest::data_ = nullptr;
Standardizer* ParallelTrainerTest::standardizer_ = nullptr;

// The bitwise contracts, once per kernel tier: training dispatches its
// products through the active tier, and each tier's kernels are
// deterministic per shape.
class ParallelTrainerTierTest
    : public ParallelTrainerTest,
      public ::testing::WithParamInterface<KernelTier>,
      protected KernelTierPin {
 protected:
  void SetUp() override { PinKernelTier(GetParam()); }
};

TEST_P(ParallelTrainerTierTest, SingleShardStepsMatchSerialTrainerBitwise) {
  // grad_accumulation == 1, contrastive off: the parallel trainer walks
  // the serial Trainer's exact step sequence (the 1.0f shard weight is
  // an IEEE multiply identity), so two epochs end bit-for-bit equal.
  TrainerConfig base;
  base.batch_size = 64;
  base.epochs = 2;
  base.seed = 11;

  Rng rng_serial(5);
  AwMoeRanker serial_model(data_->meta, TinyAwMoeConfig(), &rng_serial);
  Rng rng_parallel(5);
  AwMoeRanker parallel_model(data_->meta, TinyAwMoeConfig(), &rng_parallel);

  Trainer serial(&serial_model, base);
  serial.Train(data_->train, data_->meta, standardizer_);

  ParallelTrainerConfig config;
  config.base = base;
  config.num_workers = 1;
  config.grad_accumulation = 1;
  ParallelTrainer parallel(&parallel_model, config);
  parallel.Train(data_->train, data_->meta, standardizer_);

  ExpectParamsBitwiseEqual(serial_model, parallel_model);
}

TEST_P(ParallelTrainerTierTest, WorkerCountDoesNotChangeParametersBitwise) {
  // The headline contract: 4 workers over 3-shard groups, contrastive
  // ON (per-shard forked augmentation streams), ends bit-for-bit equal
  // to the same schedule on 1 worker.
  TrainerConfig base;
  base.batch_size = 32;
  base.epochs = 2;
  base.seed = 23;
  base.contrastive = true;

  ParallelTrainerConfig config;
  config.base = base;
  config.grad_accumulation = 3;

  Rng rng_one(9);
  AwMoeRanker one_worker_model(data_->meta, TinyAwMoeConfig(), &rng_one);
  config.num_workers = 1;
  {
    ParallelTrainer trainer(&one_worker_model, config);
    trainer.Train(data_->train, data_->meta, standardizer_);
    EXPECT_GT(trainer.steps(), 0);
  }

  Rng rng_four(9);
  AwMoeRanker four_worker_model(data_->meta, TinyAwMoeConfig(), &rng_four);
  config.num_workers = 4;
  {
    ParallelTrainer trainer(&four_worker_model, config);
    trainer.Train(data_->train, data_->meta, standardizer_);
  }

  ExpectParamsBitwiseEqual(one_worker_model, four_worker_model);
}

TEST_F(ParallelTrainerTest, AccumulatedShardsMatchSerialLargeBatch) {
  // Two B-row shards per step against a serial trainer with 2B-row
  // batches: the same shuffle stream slices into the same row unions,
  // and the row-weighted shard-gradient average equals the union-mean
  // gradient — mathematically exactly, in float to summation-order
  // tolerance. One epoch keeps the float drift bounded.
  TrainerConfig base;
  base.batch_size = 32;
  base.epochs = 1;
  base.seed = 31;

  Rng rng_serial(13);
  DnnRanker serial_model(data_->meta, TinyDims(), &rng_serial);
  Rng rng_parallel(13);
  DnnRanker parallel_model(data_->meta, TinyDims(), &rng_parallel);

  TrainerConfig serial_config = base;
  serial_config.batch_size = 64;
  Trainer serial(&serial_model, serial_config);
  EpochStats serial_stats =
      serial.TrainEpoch(data_->train, data_->meta, standardizer_);

  ParallelTrainerConfig config;
  config.base = base;
  config.num_workers = 2;
  config.grad_accumulation = 2;
  ParallelTrainer parallel(&parallel_model, config);
  EpochStats parallel_stats =
      parallel.TrainEpoch(data_->train, data_->meta, standardizer_);

  // Twice the shards, same optimizer step count.
  EXPECT_EQ(parallel_stats.num_batches, 2 * serial_stats.num_batches);
  EXPECT_EQ(parallel.steps(), serial_stats.num_batches);
  EXPECT_LT(MaxParamAbsDiff(serial_model, parallel_model), 1e-3);
}

TEST_F(ParallelTrainerTest, TrainingLearns) {
  // The parallel schedule must still optimise: loss decreases across
  // epochs with real parallelism in play.
  TrainerConfig base;
  base.batch_size = 32;
  base.epochs = 3;
  base.lr = 3e-3f;
  base.seed = 47;

  Rng rng(21);
  DnnRanker model(data_->meta, TinyDims(), &rng);
  ParallelTrainerConfig config;
  config.base = base;
  config.num_workers = 3;
  config.grad_accumulation = 2;
  ParallelTrainer trainer(&model, config);
  const std::vector<EpochStats> history =
      trainer.Train(data_->train, data_->meta, standardizer_);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_GT(history.front().num_batches, 0);
  EXPECT_LT(history.back().mean_rank_loss, history.front().mean_rank_loss);
}

INSTANTIATE_TEST_SUITE_P(Tiers, ParallelTrainerTierTest,
                         ::testing::ValuesIn(kAllKernelTiers),
                         KernelTierParamName);

bool AllParamsFinite(const Ranker& model) {
  for (const Var& param : model.Parameters()) {
    const Matrix& m = param.value();
    for (int64_t k = 0; k < m.size(); ++k) {
      if (!std::isfinite(m.data()[k])) return false;
    }
  }
  return true;
}

TEST_F(ParallelTrainerTest, FastTierTrainsLikeReferenceTier) {
  // The same seed, schedule and data on both tiers: the fast kernels
  // only reassociate float sums, so after a few epochs of AW-MoE & CL
  // the per-epoch losses agree to kLossEpsilon (observed gaps are a
  // few 1e-8) and the holdout AUC to 0.01.
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  constexpr double kLossEpsilon = 1e-4;
  TrainerConfig base;
  base.batch_size = 32;
  base.epochs = 3;
  base.lr = 3e-3f;
  base.seed = 61;
  base.contrastive = true;
  ParallelTrainerConfig config;
  config.base = base;
  config.num_workers = 2;
  config.grad_accumulation = 2;

  struct TierRun {
    std::vector<EpochStats> history;
    double auc = 0.0;
    bool finite = false;
  };
  auto train_at = [&](KernelTier tier) {
    ScopedKernelTier pin(tier);
    Rng rng(17);
    AwMoeRanker model(data_->meta, TinyAwMoeConfig(), &rng);
    ParallelTrainer trainer(&model, config);
    TierRun run;
    run.history = trainer.Train(data_->train, data_->meta, standardizer_);
    run.finite = AllParamsFinite(model);
    run.auc = EvaluateRanking(data_->full_test,
                              Predict(&model, data_->full_test, data_->meta,
                                      standardizer_))
                  .auc;
    return run;
  };
  const TierRun reference = train_at(KernelTier::kReference);
  const TierRun fast = train_at(KernelTier::kFast);

  EXPECT_TRUE(reference.finite);
  EXPECT_TRUE(fast.finite);
  ASSERT_EQ(reference.history.size(), fast.history.size());
  for (size_t e = 0; e < fast.history.size(); ++e) {
    EXPECT_NEAR(fast.history[e].mean_rank_loss,
                reference.history[e].mean_rank_loss, kLossEpsilon)
        << "epoch " << e;
    EXPECT_NEAR(fast.history[e].mean_cl_loss,
                reference.history[e].mean_cl_loss, kLossEpsilon)
        << "epoch " << e;
  }
  EXPECT_NEAR(fast.auc, reference.auc, 0.01);
  EXPECT_GT(reference.auc, 0.5);
}

}  // namespace
}  // namespace awmoe
