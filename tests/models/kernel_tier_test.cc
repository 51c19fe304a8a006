// Kernel-tier regression suite: the fast (AVX2/FMA) tier must agree
// with the reference tier to an epsilon/ULP bound for every ranker,
// both gate modes and a sweep of batch sizes, and per product (matmul,
// matmul_nt, matmul_tn) at tail shapes; the forced-scalar
// dispatch path must stay bitwise-identical to the reference kernels;
// and the fast tier must keep per-row results independent of
// micro-batch composition (the invariant the serving engine's session
// fusion relies on). Also holds the regression tests for the arena
// alignment/Rewind fixes and the row-parallel matmul mode.

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace awmoe {
namespace {

DatasetMeta TestMeta(bool recommendation) {
  DatasetMeta meta;
  meta.num_items = 60;
  meta.num_cats = 7;
  meta.num_brands = 21;
  meta.num_shops = 9;
  meta.num_queries = 14;
  meta.max_seq_len = 6;
  meta.recommendation_mode = recommendation;
  return meta;
}

ModelDims TinyDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {12, 8};
  dims.num_experts = 4;
  return dims;
}

std::vector<Example> MakeSession(uint64_t seed, int64_t session_id,
                                 int64_t items, int64_t hist) {
  Rng rng(seed);
  std::vector<Example> session;
  std::vector<int64_t> behavior_items, behavior_cats, behavior_brands;
  std::vector<float> behavior_attrs;
  for (int64_t j = 0; j < hist; ++j) {
    behavior_items.push_back(rng.UniformInt(1, 59));
    behavior_cats.push_back(rng.UniformInt(1, 6));
    behavior_brands.push_back(rng.UniformInt(1, 20));
    behavior_attrs.push_back(static_cast<float>(rng.Normal()));
    behavior_attrs.push_back(static_cast<float>(rng.Uniform()));
    behavior_attrs.push_back(static_cast<float>(rng.Uniform()));
  }
  const int64_t query_id = rng.UniformInt(1, 13);
  const int64_t query_cat = rng.UniformInt(1, 6);
  const int64_t user_id = rng.UniformInt(1, 100);
  const int64_t age = rng.UniformInt(0, 2);
  for (int64_t i = 0; i < items; ++i) {
    Example ex;
    ex.behavior_items = behavior_items;
    ex.behavior_cats = behavior_cats;
    ex.behavior_brands = behavior_brands;
    ex.behavior_attrs = behavior_attrs;
    ex.target_item = rng.UniformInt(1, 59);
    ex.target_cat = rng.UniformInt(1, 6);
    ex.target_brand = rng.UniformInt(1, 20);
    ex.target_shop = rng.UniformInt(1, 8);
    for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
      ex.target_attrs[c] = static_cast<float>(rng.Normal());
    }
    ex.query_id = query_id;
    ex.query_cat = query_cat;
    ex.user_id = user_id;
    ex.age_segment = age;
    ex.session_id = session_id;
    ex.numeric.resize(kNumNumericFeatures);
    for (float& v : ex.numeric) v = static_cast<float>(rng.Normal());
    session.push_back(std::move(ex));
  }
  return session;
}

struct NamedRanker {
  std::string label;
  std::unique_ptr<Ranker> model;
};

std::vector<NamedRanker> MakeRankers(const DatasetMeta& meta) {
  std::vector<NamedRanker> rankers;
  {
    Rng rng(11);
    rankers.push_back(
        {"DNN", std::make_unique<DnnRanker>(meta, TinyDims(), &rng)});
  }
  {
    Rng rng(12);
    rankers.push_back(
        {"DIN", std::make_unique<DinRanker>(meta, TinyDims(), &rng)});
  }
  {
    Rng rng(13);
    rankers.push_back({"Category-MoE", std::make_unique<CategoryMoeRanker>(
                                           meta, TinyDims(), &rng)});
  }
  {
    Rng rng(14);
    AwMoeConfig config;
    config.dims = TinyDims();
    rankers.push_back(
        {"AW-MoE", std::make_unique<AwMoeRanker>(meta, config, &rng)});
  }
  return rankers;
}

/// ULP distance between two finite floats of the same sign regime
/// (monotone integer mapping of the IEEE ordering).
int64_t UlpDistance(float a, float b) {
  const auto key = [](float x) {
    int32_t bits = std::bit_cast<int32_t>(x);
    return bits >= 0 ? static_cast<int64_t>(bits)
                     : -static_cast<int64_t>(bits & 0x7fffffff);
  };
  return std::abs(key(a) - key(b));
}

/// The fast tier's acceptance bound vs the reference tier: a handful
/// of reassociated FMA sums through a few layers. Either a small
/// absolute gap (values near 0) or a tight ULP budget must hold.
::testing::AssertionResult TierClose(float fast, float reference) {
  if (!std::isfinite(fast) || !std::isfinite(reference)) {
    return ::testing::AssertionFailure()
           << "non-finite: fast=" << fast << " reference=" << reference;
  }
  const double abs_err = std::abs(static_cast<double>(fast) - reference);
  const int64_t ulps = UlpDistance(fast, reference);
  if (abs_err <= 1e-5 || ulps <= 512) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "fast=" << fast << " reference=" << reference
         << " abs_err=" << abs_err << " ulps=" << ulps;
}

std::vector<float> ScoreAtTier(Ranker* model, const Batch& batch,
                               InferenceWorkspace* workspace,
                               KernelTier tier) {
  ScopedKernelTier pin(tier);
  std::vector<float> out(static_cast<size_t>(batch.size));
  model->ScoreInto(batch, nullptr, workspace, out);
  return out;
}

// ---------------------------------------------------------------------
// Fast-vs-reference agreement.
// ---------------------------------------------------------------------

class KernelTierTest : public ::testing::TestWithParam<bool> {};

// The tentpole acceptance gate: fast tier within epsilon of the
// reference tier for all four rankers x both dataset (gate) modes x
// batch sizes {1, 8, 64, 256}.
TEST_P(KernelTierTest, FastTierMatchesReferenceWithinEpsilon) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const DatasetMeta meta = TestMeta(GetParam());
  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(256);
    for (int64_t batch_size : {1, 8, 64, 256}) {
      auto session = MakeSession(/*seed=*/1000 + batch_size, /*session_id=*/7,
                                 /*items=*/batch_size, /*hist=*/4);
      std::vector<const Example*> items;
      for (const Example& ex : session) items.push_back(&ex);
      Batch batch = CollateBatch(items, meta, nullptr);
      const std::vector<float> reference = ScoreAtTier(
          ranker.model.get(), batch, workspace.get(), KernelTier::kReference);
      const std::vector<float> fast = ScoreAtTier(
          ranker.model.get(), batch, workspace.get(), KernelTier::kFast);
      for (int64_t i = 0; i < batch.size; ++i) {
        EXPECT_TRUE(TierClose(fast[static_cast<size_t>(i)],
                              reference[static_cast<size_t>(i)]))
            << ranker.label << " batch " << batch_size << " row " << i;
      }
    }
  }
}

// Gate rows ride the same kernels: AW-MoE's GateInto must agree across
// tiers to the same bound.
TEST_P(KernelTierTest, GateIntoMatchesAcrossTiers) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const DatasetMeta meta = TestMeta(GetParam());
  Rng rng(21);
  AwMoeConfig config;
  config.dims = TinyDims();
  AwMoeRanker model(meta, config, &rng);
  auto session = MakeSession(/*seed=*/177, /*session_id=*/3, /*items=*/9,
                             /*hist=*/5);
  std::vector<const Example*> items;
  for (const Example& ex : session) items.push_back(&ex);
  Batch batch = CollateBatch(items, meta, nullptr);
  auto workspace = model.CreateInferenceWorkspace(16);

  const int64_t k = model.SessionGateWidth();
  std::vector<float> reference(static_cast<size_t>(batch.size * k));
  std::vector<float> fast(reference.size());
  {
    ScopedKernelTier pin(KernelTier::kReference);
    model.GateInto(batch, workspace.get(), reference);
  }
  {
    ScopedKernelTier pin(KernelTier::kFast);
    model.GateInto(batch, workspace.get(), fast);
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(TierClose(fast[i], reference[i])) << "gate element " << i;
  }
}

// The serving engine fuses arbitrary session subsets into micro-batches
// and expects a given row to score identically no matter who shares the
// batch. The fast tier's masked tails are designed to preserve exactly
// this: solo-vs-fused must agree BITWISE at the fast tier.
TEST_P(KernelTierTest, FastTierRowsIndependentOfBatchComposition) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const DatasetMeta meta = TestMeta(GetParam());
  ScopedKernelTier pin(KernelTier::kFast);
  const int64_t hists[] = {0, 2, 6, 4, 1};
  const int64_t items[] = {3, 1, 5, 2, 4};
  std::vector<std::vector<Example>> sessions;
  for (int64_t s = 0; s < 5; ++s) {
    sessions.push_back(MakeSession(2200 + static_cast<uint64_t>(s) * 97,
                                   300 + s, items[s], hists[s]));
  }
  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(32);
    std::vector<std::vector<float>> solo;
    for (const auto& session : sessions) {
      std::vector<const Example*> ptrs;
      for (const Example& ex : session) ptrs.push_back(&ex);
      Batch batch = CollateBatch(ptrs, meta, nullptr);
      std::vector<float> out(static_cast<size_t>(batch.size));
      ranker.model->ScoreInto(batch, nullptr, workspace.get(), out);
      solo.push_back(std::move(out));
    }
    // Fused in reverse session order: different rows, same sessions.
    std::vector<const Example*> fused;
    for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) {
      for (const Example& ex : *it) fused.push_back(&ex);
    }
    Batch batch = CollateBatch(fused, meta, nullptr);
    std::vector<float> got(static_cast<size_t>(batch.size));
    ranker.model->ScoreInto(batch, nullptr, workspace.get(), got);
    size_t row = 0;
    for (size_t s = sessions.size(); s-- > 0;) {
      for (float want : solo[s]) {
        EXPECT_EQ(got[row], want)
            << ranker.label << " fused row " << row << " (session " << s
            << ")";
        ++row;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelTierTest, ::testing::Bool());

// ---------------------------------------------------------------------
// Dispatch resolution + forced-scalar bitwise guarantees.
// ---------------------------------------------------------------------

TEST(KernelDispatchTest, ResolveKernelTierRules) {
  // Unset / "" / "0" mean "no override": fast when available.
  EXPECT_EQ(ResolveKernelTier(nullptr, true), KernelTier::kFast);
  EXPECT_EQ(ResolveKernelTier("", true), KernelTier::kFast);
  EXPECT_EQ(ResolveKernelTier("0", true), KernelTier::kFast);
  // Any other value forces the reference tier.
  EXPECT_EQ(ResolveKernelTier("1", true), KernelTier::kReference);
  EXPECT_EQ(ResolveKernelTier("true", true), KernelTier::kReference);
  // Without a fast tier (non-AVX2 CPU or build) everything is reference.
  EXPECT_EQ(ResolveKernelTier(nullptr, false), KernelTier::kReference);
  EXPECT_EQ(ResolveKernelTier("1", false), KernelTier::kReference);
}

TEST(KernelDispatchTest, TableMetadata) {
  const KernelDispatchTable& reference =
      GetKernelTable(KernelTier::kReference);
  EXPECT_STREQ(reference.name, "reference-scalar");
  EXPECT_TRUE(reference.bitwise_reference);
  EXPECT_STREQ(KernelTierName(KernelTier::kReference), "reference-scalar");
  if (FastKernelTierAvailable()) {
    const KernelDispatchTable& fast = GetKernelTable(KernelTier::kFast);
    EXPECT_STREQ(fast.name, "avx2-fma");
    EXPECT_FALSE(fast.bitwise_reference);
  }
  EXPECT_EQ(MatMulFlops(8, 128, 128), 2.0 * 8 * 128 * 128);
}

// The forced-scalar path is the non-AVX2 fallback: dispatching through
// the reference table must reproduce the legacy Var-graph forward
// BITWISE (not just within epsilon) — the same guarantee the direct
// kernels gave before the dispatch layer existed.
TEST(KernelDispatchTest, ForcedScalarDispatchIsBitwiseReference) {
  ScopedKernelTier pin(KernelTier::kReference);
  for (const bool recommendation : {false, true}) {
    const DatasetMeta meta = TestMeta(recommendation);
    for (NamedRanker& ranker : MakeRankers(meta)) {
      auto session = MakeSession(/*seed=*/3100, /*session_id=*/5,
                                 /*items=*/7, /*hist=*/3);
      std::vector<const Example*> items;
      for (const Example& ex : session) items.push_back(&ex);
      Batch batch = CollateBatch(items, meta, nullptr);
      auto workspace = ranker.model->CreateInferenceWorkspace(8);
      Matrix want = ranker.model->InferenceLogits(batch);
      std::vector<float> got(static_cast<size_t>(batch.size));
      ranker.model->ScoreInto(batch, nullptr, workspace.get(), got);
      for (int64_t i = 0; i < batch.size; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], want(i, 0))
            << ranker.label << " row " << i;
      }
    }
  }
}

// Reference-tier SigmoidSpanInto == StableSigmoid element for element;
// fast-tier within epsilon of it, and position-independent (the same
// value produces the same bits in a full vector lane and in a masked
// tail lane).
TEST(KernelDispatchTest, SigmoidSpanTierContracts) {
  std::vector<float> x;
  for (float v : {-100.0f, -88.5f, -20.0f, -3.25f, -1.0f, -0.5f, -0.0f,
                  0.0f, 0.5f, 1.0f, 3.25f, 20.0f, 88.5f, 100.0f}) {
    x.push_back(v);
  }
  Rng rng(5);
  while (x.size() < 37) x.push_back(static_cast<float>(rng.Normal() * 4.0));

  std::vector<float> reference(x.size());
  {
    ScopedKernelTier pin(KernelTier::kReference);
    SigmoidSpanInto(x, reference);
  }
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(reference[i], StableSigmoid(x[i])) << "x=" << x[i];
  }

  if (!FastKernelTierAvailable()) return;
  ScopedKernelTier pin(KernelTier::kFast);
  std::vector<float> fast(x.size());
  SigmoidSpanInto(x, fast);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(TierClose(fast[i], reference[i])) << "x=" << x[i];
    EXPECT_GE(fast[i], 0.0f);
    EXPECT_LE(fast[i], 1.0f);
  }
  // Position independence: each element alone (span of 1 => pure
  // masked-tail path) must reproduce its bits from the full span.
  for (size_t i = 0; i < x.size(); ++i) {
    float solo = 0.0f;
    SigmoidSpanInto(std::span<const float>(&x[i], 1),
                    std::span<float>(&solo, 1));
    EXPECT_EQ(solo, fast[i]) << "x=" << x[i];
  }
  // In-place aliasing is part of the contract.
  std::vector<float> in_place = x;
  SigmoidSpanInto(in_place, in_place);
  EXPECT_EQ(in_place, fast);
}

// ---------------------------------------------------------------------
// The table's three products — matmul (a*b), matmul_nt (a*b^T) and
// matmul_tn (a^T*b), the graph's forward and its two gradients — at
// tail shapes around the fast tier's 4-row / 16-column / 8-lane
// blocking.
// ---------------------------------------------------------------------

enum class Product { kNN, kNT, kTN };

const char* ProductName(Product product) {
  switch (product) {
    case Product::kNN:
      return "matmul";
    case Product::kNT:
      return "matmul_nt";
    case Product::kTN:
      return "matmul_tn";
  }
  return "?";
}

constexpr int64_t kTailDims[] = {1, 3, 4, 5, 17, 64};
constexpr int64_t kStridePad = 3;
constexpr float kSentinel = 12345.0f;

/// A rows x cols matrix in a buffer whose row stride is cols + 3, so a
/// kernel that ignores the stride — or writes past a row's last column
/// — shows up. The padding holds kSentinel.
class Strided {
 public:
  Strided(int64_t rows, int64_t cols)
      : rows_(rows),
        cols_(cols),
        storage_(static_cast<size_t>(rows * (cols + kStridePad)), kSentinel) {}

  static Strided Random(int64_t rows, int64_t cols, Rng* rng) {
    Strided s(rows, cols);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        s.at(i, j) = static_cast<float>(rng->Normal());
      }
    }
    return s;
  }

  float& at(int64_t i, int64_t j) {
    return storage_[static_cast<size_t>(i * stride() + j)];
  }
  float at(int64_t i, int64_t j) const {
    return storage_[static_cast<size_t>(i * stride() + j)];
  }
  int64_t stride() const { return cols_ + kStridePad; }
  ConstMatView view() const {
    return ConstMatView(storage_.data(), rows_, cols_, stride());
  }
  MatView mutable_view() {
    return MatView{storage_.data(), rows_, cols_, stride()};
  }
  /// True when every padding slot still holds kSentinel.
  bool PaddingIntact() const {
    for (int64_t i = 0; i < rows_; ++i) {
      for (int64_t j = cols_; j < stride(); ++j) {
        if (at(i, j) != kSentinel) return false;
      }
    }
    return true;
  }
  const std::vector<float>& storage() const { return storage_; }

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<float> storage_;
};

/// Random operands of `product` for an [m,n] result with inner size k.
struct ProductCase {
  ProductCase(Product p, int64_t m, int64_t k, int64_t n, uint64_t seed)
      : product(p),
        m(m),
        k(k),
        n(n),
        rng(seed),
        a(p == Product::kTN ? Strided::Random(k, m, &rng)
                            : Strided::Random(m, k, &rng)),
        b(p == Product::kNT ? Strided::Random(n, k, &rng)
                            : Strided::Random(k, n, &rng)) {}

  float A(int64_t i, int64_t p) const {
    return product == Product::kTN ? a.at(p, i) : a.at(i, p);
  }
  float B(int64_t p, int64_t j) const {
    return product == Product::kNT ? b.at(j, p) : b.at(p, j);
  }

  Product product;
  int64_t m, k, n;
  Rng rng;
  Strided a;
  Strided b;
};

void RunProduct(const KernelDispatchTable& table, Product product,
                const ConstMatView& a, const ConstMatView& b, MatView out) {
  switch (product) {
    case Product::kNN:
      table.matmul(a, b, out);
      return;
    case Product::kNT:
      table.matmul_nt(a, b, out);
      return;
    case Product::kTN:
      table.matmul_tn(a, b, out);
      return;
  }
}

Strided RunProduct(const KernelDispatchTable& table, const ProductCase& c) {
  Strided out(c.m, c.n);
  // Garbage in every output slot: the product must overwrite it all.
  for (int64_t i = 0; i < c.m; ++i) {
    for (int64_t j = 0; j < c.n; ++j) out.at(i, j) = -777.0f;
  }
  RunProduct(table, c.product, c.a.view(), c.b.view(), out.mutable_view());
  return out;
}

// The reference products are the textbook sums, and the fast ones agree
// with them within the standard floating-point bound for two differently
// ordered length-k sums: |fast - reference| <= (k + 1) * FLT_EPSILON *
// sum_p |a_ip * b_pj|. Both leave the stride padding untouched.
TEST(KernelProductTest, FastProductsMatchReferenceAtTailShapes) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const KernelDispatchTable& reference =
      GetKernelTable(KernelTier::kReference);
  const KernelDispatchTable& fast = GetKernelTable(KernelTier::kFast);
  uint64_t seed = 1;
  for (const Product product : {Product::kNN, Product::kNT, Product::kTN}) {
    for (const int64_t m : kTailDims) {
      for (const int64_t k : kTailDims) {
        for (const int64_t n : kTailDims) {
          const ProductCase c(product, m, k, n, seed++);
          const Strided want = RunProduct(reference, c);
          const Strided got = RunProduct(fast, c);
          ASSERT_TRUE(want.PaddingIntact()) << ProductName(product);
          ASSERT_TRUE(got.PaddingIntact())
              << ProductName(product) << " " << m << "x" << k << "x" << n;
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              double exact = 0.0, magnitude = 0.0;
              for (int64_t p = 0; p < k; ++p) {
                const double term =
                    static_cast<double>(c.A(i, p)) * c.B(p, j);
                exact += term;
                magnitude += std::abs(term);
              }
              const double bound =
                  static_cast<double>(k + 1) * FLT_EPSILON * magnitude;
              ASSERT_LE(std::abs(static_cast<double>(want.at(i, j)) - exact),
                        bound)
                  << "reference " << ProductName(product);
              ASSERT_LE(std::abs(static_cast<double>(got.at(i, j)) -
                                 want.at(i, j)),
                        bound)
                  << ProductName(product) << " " << m << "x" << k << "x" << n
                  << " at (" << i << "," << j << ")";
            }
          }
        }
      }
    }
  }
}

// Determinism per shape: the same operands give the same bits on every
// call, at both tiers.
TEST(KernelProductTest, RepeatCallsAreBitwiseIdentical) {
  std::vector<KernelTier> tiers = {KernelTier::kReference};
  if (FastKernelTierAvailable()) tiers.push_back(KernelTier::kFast);
  for (const KernelTier tier : tiers) {
    const KernelDispatchTable& table = GetKernelTable(tier);
    for (const Product product : {Product::kNN, Product::kNT, Product::kTN}) {
      for (const int64_t dim : kTailDims) {
        const ProductCase c(product, dim + 2, dim, 2 * dim + 1,
                            /*seed=*/static_cast<uint64_t>(dim) + 70);
        const Strided first = RunProduct(table, c);
        const Strided second = RunProduct(table, c);
        ASSERT_EQ(first.storage(), second.storage())
            << KernelTierName(tier) << " " << ProductName(product) << " dim "
            << dim;
      }
    }
  }
}

// matmul and matmul_nt keep each output row a function of its own input
// row: any row range of a, multiplied alone, reproduces those rows of
// the full product bitwise — whatever the range's length and offset do
// to the fast tier's 4-row / 2-row blocking. This is what lets the
// serving engine fuse sessions into one micro-batch.
TEST(KernelProductTest, MatMulAndMatMulNtRowsIndependentOfBatch) {
  std::vector<KernelTier> tiers = {KernelTier::kReference};
  if (FastKernelTierAvailable()) tiers.push_back(KernelTier::kFast);
  for (const KernelTier tier : tiers) {
    const KernelDispatchTable& table = GetKernelTable(tier);
    for (const Product product : {Product::kNN, Product::kNT}) {
      for (const int64_t k : kTailDims) {
        for (const int64_t n : kTailDims) {
          const int64_t m = 17;
          const ProductCase c(product, m, k, n,
                              /*seed=*/static_cast<uint64_t>(k * 100 + n));
          const Strided full = RunProduct(table, c);
          const std::pair<int64_t, int64_t> ranges[] = {
              {0, 1}, {16, 17}, {1, 4}, {3, 8}, {5, 17}, {2, 3}};
          for (const auto& [begin, end] : ranges) {
            const ConstMatView a = c.a.view();
            const ConstMatView rows(a.row(begin), end - begin, k, a.stride);
            Strided part(end - begin, n);
            RunProduct(table, product, rows, c.b.view(), part.mutable_view());
            for (int64_t i = begin; i < end; ++i) {
              for (int64_t j = 0; j < n; ++j) {
                ASSERT_EQ(part.at(i - begin, j), full.at(i, j))
                    << KernelTierName(tier) << " " << ProductName(product)
                    << " k=" << k << " n=" << n << " rows [" << begin << ","
                    << end << ") row " << i << " col " << j;
              }
            }
          }
        }
      }
    }
  }
}

std::vector<float> Values(const Matrix& m) {
  return std::vector<float>(m.data(), m.data() + m.size());
}

// The Matrix-level wrappers (MatMul, MatMulTransA, MatMulTransB — what
// the autograd graph calls) dispatch through the active tier: each
// equals its table entry bit for bit at either tier.
TEST(KernelProductTest, MatrixWrappersDispatchThroughActiveTier) {
  std::vector<KernelTier> tiers = {KernelTier::kReference};
  if (FastKernelTierAvailable()) tiers.push_back(KernelTier::kFast);
  Rng rng(404);
  auto random = [&rng](int64_t rows, int64_t cols) {
    Matrix m(rows, cols);
    for (int64_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<float>(rng.Normal());
    }
    return m;
  };
  const Matrix a = random(9, 21), b = random(21, 13), c = random(9, 13);
  const Matrix bt = random(13, 21);
  for (const KernelTier tier : tiers) {
    ScopedKernelTier pin(tier);
    const KernelDispatchTable& table = GetKernelTable(tier);
    Matrix want(9, 13);
    table.matmul(MatrixView(a), MatrixView(b), MutableView(&want));
    EXPECT_EQ(Values(MatMul(a, b)), Values(want)) << KernelTierName(tier);
    table.matmul_nt(MatrixView(a), MatrixView(bt), MutableView(&want));
    EXPECT_EQ(Values(MatMulTransB(a, bt)), Values(want))
        << KernelTierName(tier);
    Matrix want_tn(21, 13);
    table.matmul_tn(MatrixView(a), MatrixView(c), MutableView(&want_tn));
    EXPECT_EQ(Values(MatMulTransA(a, c)), Values(want_tn))
        << KernelTierName(tier);
  }
}

// ---------------------------------------------------------------------
// Arena alignment + Rewind regression tests (satellite bugfix).
// ---------------------------------------------------------------------

TEST(InferenceArenaTest, SlabsAndRowsAre64ByteAligned) {
  InferenceArena arena;
  constexpr std::pair<int64_t, int64_t> kShapes[] = {
      {1, 1}, {3, 7}, {8, 16}, {5, 17}, {256, 33}, {2, 64}};
  for (const auto& [rows, cols] : kShapes) {
    const MatView view = arena.Alloc(rows, cols);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(view.data) %
                  AlignedBuffer::kAlignment,
              0u)
        << rows << "x" << cols;
    // Stride padded to the alignment quantum => every row aligned.
    EXPECT_EQ(view.stride % InferenceArena::kAlignFloats, 0);
    EXPECT_GE(view.stride, cols);
    for (int64_t r = 0; r < rows; ++r) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(view.row(r)) %
                    AlignedBuffer::kAlignment,
                0u)
          << rows << "x" << cols << " row " << r;
    }
  }
}

TEST(InferenceArenaTest, RewindToMarkTakenBeforeSlabSpill) {
  InferenceArena arena;
  const MatView first = arena.Alloc(4, 8);
  const size_t mark = arena.Mark();
  // Spill: materialise several more slabs past the mark.
  for (int i = 0; i < 6; ++i) arena.Alloc(16, 32);
  const size_t spilled = arena.num_slabs();
  EXPECT_GE(spilled, 7u);
  arena.Rewind(mark);
  // The mark is a slab index: post-rewind allocs must reuse the slabs
  // (and their grown capacity) right after the mark, not leak new ones.
  const MatView reused = arena.Alloc(16, 32);
  EXPECT_EQ(arena.num_slabs(), spilled);
  // The pre-mark slab is untouched by the rewind.
  EXPECT_NE(arena.Alloc(4, 8).data, first.data);
  // Reset rewinds to the first slab.
  arena.Reset();
  EXPECT_EQ(arena.Alloc(4, 8).data, first.data);
  (void)reused;
}

TEST(InferenceArenaTest, WarmedSlabGrowsInPlaceOnly) {
  InferenceArena arena;
  arena.Alloc(8, 8);
  arena.Reset();
  const MatView grown = arena.Alloc(64, 64);  // Same slab, regrown.
  EXPECT_EQ(arena.num_slabs(), 1u);
  arena.Reset();
  const MatView warm = arena.Alloc(32, 32);  // Fits: no new allocation.
  EXPECT_EQ(warm.data, grown.data);
  EXPECT_EQ(arena.num_slabs(), 1u);
}

TEST(InferenceWorkspaceTest, StagingAlignedAndPreservedAcrossGrowth) {
  InferenceWorkspace workspace(/*max_candidates=*/8);
  std::span<float> small =
      workspace.Staging(InferenceWorkspace::kGateRows, 10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(small.data()) %
                AlignedBuffer::kAlignment,
            0u);
  for (int i = 0; i < 10; ++i) small[static_cast<size_t>(i)] = float(i);
  // Growth must preserve prior contents (the serving engine stages gate
  // rows, then grows the buffer for a larger session set).
  std::span<float> grown =
      workspace.Staging(InferenceWorkspace::kGateRows, 1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(grown.data()) %
                AlignedBuffer::kAlignment,
            0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(grown[static_cast<size_t>(i)], float(i)) << i;
  }
}

// ---------------------------------------------------------------------
// Row-parallel matmul: bitwise-identical to serial at BOTH tiers.
// ---------------------------------------------------------------------

TEST(RowParallelTest, MatMulBitwiseIdenticalToSerial) {
  const int64_t m = 96, k = 37, n = 53;
  Rng rng(91);
  std::vector<float> a(static_cast<size_t>(m * k));
  for (float& v : a) v = static_cast<float>(rng.Normal());
  Matrix w(k, n);
  for (int64_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.Normal());
  }
  const ConstMatView a_view(a.data(), m, k, k);

  std::vector<KernelTier> tiers = {KernelTier::kReference};
  if (FastKernelTierAvailable()) tiers.push_back(KernelTier::kFast);
  for (const KernelTier tier : tiers) {
    ScopedKernelTier pin(tier);
    std::vector<float> serial(static_cast<size_t>(m * n));
    std::vector<float> parallel(serial.size());
    MatMulInto(a_view, w, MatView{serial.data(), m, n, n});
    SetKernelRowParallelism(4);
    MatMulInto(a_view, w, MatView{parallel.data(), m, n, n});
    SetKernelRowParallelism(0);
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << KernelTierName(tier) << " element " << i;
    }
  }
}

TEST(RowParallelTest, SettingValidatesAndRoundTrips) {
  const int before = KernelRowParallelism();
  SetKernelRowParallelism(3);
  EXPECT_EQ(KernelRowParallelism(), 3);
  SetKernelRowParallelism(0);
  EXPECT_EQ(KernelRowParallelism(), 0);
  SetKernelRowParallelism(before);
}

}  // namespace
}  // namespace awmoe
