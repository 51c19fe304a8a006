#include "core/gate_network.h"

#include "autograd/ops.h"
#include "mat/kernels.h"

namespace awmoe {

namespace {
std::vector<int64_t> WithOutput(std::vector<int64_t> dims, int64_t out) {
  dims.push_back(out);
  return dims;
}
}  // namespace

GateUnit::GateUnit(int64_t hidden_dim, std::vector<int64_t> mlp_dims,
                   int64_t num_experts, Rng* rng)
    : hidden_dim_(hidden_dim),
      mlp_(3 * hidden_dim, WithOutput(std::move(mlp_dims), num_experts),
           rng) {}

Var GateUnit::Forward(const Var& h_b, const Var& h_ref) const {
  AWMOE_CHECK(h_b.cols() == hidden_dim_ && h_ref.cols() == hidden_dim_)
      << "GateUnit: dims " << h_b.cols() << "/" << h_ref.cols() << " vs "
      << hidden_dim_;
  Var interaction = ag::Mul(h_b, h_ref);
  return mlp_.Forward(ag::ConcatCols({h_b, h_ref, interaction}));
}

void GateUnit::CollectParameters(std::vector<Var>* params) const {
  mlp_.CollectParameters(params);
}

GateNetwork::GateNetwork(const DatasetMeta& meta, const ModelDims& dims,
                         const EmbeddingSet* embeddings,
                         const GateConfig& config, Rng* rng)
    : meta_(meta),
      dims_(dims),
      config_(config),
      embeddings_(embeddings),
      item_tower_(embeddings->item_dim() + Example::kItemAttrs,
                  dims.tower_mlp, rng),
      ref_tower_(meta.recommendation_mode
                     ? embeddings->item_dim() + Example::kItemAttrs
                     : embeddings->emb_dim(),
                 dims.tower_mlp, rng),
      gate_unit_(dims.hidden_dim(), dims.gate_unit, dims.num_experts, rng),
      activation_unit_(dims.hidden_dim(), dims.activation_unit, rng),
      gate_bias_(Matrix(1, dims.num_experts), /*requires_grad=*/true) {
  AWMOE_CHECK(config.top_k >= 0 && config.top_k <= dims.num_experts)
      << "top_k=" << config.top_k << " with K=" << dims.num_experts;
}

Var GateNetwork::Reference(const Batch& batch) const {
  if (meta_.recommendation_mode) {
    // No query exists: the target item drives expert activation (§IV-A2).
    return ref_tower_.Forward(ag::ConcatCols(
        {embeddings_->ItemTriple(batch.target_items, batch.target_cats,
                                 batch.target_brands),
         Var(batch.target_attrs)}));
  }
  return ref_tower_.Forward(embeddings_->Query(batch.query_ids));
}

Var GateNetwork::Forward(const Batch& batch) const {
  Var h_ref = Reference(batch);
  const int64_t k = dims_.num_experts;

  Var g;  // [B, K] accumulated below (without bias).
  if (config_.mode == GateMode::kFull ||
      config_.mode == GateMode::kBaseGateUnit) {
    // Per-item gate units (Eq. 7), optionally attention-weighted (Eq. 8).
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      Var h_bj = item_tower_.Forward(ag::ConcatCols(
          {embeddings_->ItemTriple(
               batch.BehaviorColumn(batch.behavior_items, j),
               batch.BehaviorColumn(batch.behavior_cats, j),
               batch.BehaviorColumn(batch.behavior_brands, j)),
           Var(batch.BehaviorAttrsColumn(j))}));
      Var a_j = gate_unit_.Forward(h_bj, h_ref);
      Matrix mask_j = batch.MaskColumn(j);
      Var contribution;
      if (config_.mode == GateMode::kFull) {
        Var w_j = activation_unit_.Forward(h_bj, h_ref);
        contribution = ag::MulColBroadcast(a_j, ag::MulMask(w_j, mask_j));
      } else {
        contribution = ag::MulMask(a_j, BroadcastCol(mask_j, k));
      }
      g = g.defined() ? ag::Add(g, contribution) : contribution;
    }
  } else {
    // Pooled modes: pool behaviour hiddens first, then one gate unit.
    Var pooled;
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      Var h_bj = item_tower_.Forward(ag::ConcatCols(
          {embeddings_->ItemTriple(
               batch.BehaviorColumn(batch.behavior_items, j),
               batch.BehaviorColumn(batch.behavior_cats, j),
               batch.BehaviorColumn(batch.behavior_brands, j)),
           Var(batch.BehaviorAttrsColumn(j))}));
      Matrix mask_j = batch.MaskColumn(j);
      Var contribution;
      if (config_.mode == GateMode::kBaseActivationUnit) {
        Var w_j = activation_unit_.Forward(h_bj, h_ref);
        contribution = ag::MulColBroadcast(h_bj, ag::MulMask(w_j, mask_j));
      } else {  // kBaseSumPool.
        contribution =
            ag::MulMask(h_bj, BroadcastCol(mask_j, h_bj.cols()));
      }
      pooled =
          pooled.defined() ? ag::Add(pooled, contribution) : contribution;
    }
    g = gate_unit_.Forward(pooled, h_ref);
  }

  g = ag::AddBias(g, gate_bias_);
  if (config_.softmax) g = ag::SoftmaxRows(g);
  if (config_.top_k > 0 && config_.top_k < k) {
    // Sparsely-gated MoE (§V): hard top-k selection; gradients flow only
    // through the surviving activations.
    Matrix mask = TopKMaskRows(g.value(), config_.top_k);
    g = ag::MulMask(g, mask);
  }
  return g;
}

void GateUnit::InferInto(const ConstMatView& h_b, const ConstMatView& h_ref,
                         InferenceArena* arena, MatView out) const {
  AWMOE_CHECK(h_b.cols == hidden_dim_ && h_ref.cols == hidden_dim_)
      << "GateUnit::InferInto: dims " << h_b.cols << "/" << h_ref.cols
      << " vs " << hidden_dim_;
  const size_t mark = arena->Mark();
  MatView joined = arena->Alloc(h_b.rows, 3 * hidden_dim_);
  ConcatInteractionInto(h_b, h_ref, joined);
  mlp_.InferInto(joined, arena, out);
  arena->Rewind(mark);
}

void GateNetwork::ReferenceInto(const Batch& batch, InferenceArena* arena,
                                MatView out) const {
  const size_t mark = arena->Mark();
  if (meta_.recommendation_mode) {
    // No query exists: the target item drives expert activation (§IV-A2).
    const int64_t item_in = embeddings_->item_dim() + Example::kItemAttrs;
    MatView joined = arena->Alloc(batch.size, item_in);
    embeddings_->ItemWithAttrsInto(batch.target_items.data(),
                                   batch.target_cats.data(),
                                   batch.target_brands.data(), batch.size,
                                   /*id_stride=*/1,
                                   MatrixView(batch.target_attrs), joined);
    ref_tower_.InferInto(joined, arena, out);
  } else {
    MatView q = arena->Alloc(batch.size, embeddings_->emb_dim());
    embeddings_->QueryInto(batch.query_ids.data(), batch.size, q);
    ref_tower_.InferInto(q, arena, out);
  }
  arena->Rewind(mark);
}

void GateNetwork::BehaviorHiddenInto(const Batch& batch, int64_t j,
                                     InferenceArena* arena,
                                     MatView out) const {
  const size_t mark = arena->Mark();
  const int64_t item_in = embeddings_->item_dim() + Example::kItemAttrs;
  MatView joined = arena->Alloc(batch.size, item_in);
  embeddings_->ItemWithAttrsInto(
      batch.behavior_items.data() + j, batch.behavior_cats.data() + j,
      batch.behavior_brands.data() + j, batch.size,
      /*id_stride=*/batch.seq_len,
      MatrixColsView(batch.behavior_attrs, j * Example::kItemAttrs,
                     Example::kItemAttrs),
      joined);
  item_tower_.InferInto(joined, arena, out);
  arena->Rewind(mark);
}

void GateNetwork::InferInto(const Batch& batch, InferenceArena* arena,
                            MatView out) const {
  const int64_t b = batch.size;
  const int64_t k = dims_.num_experts;
  const int64_t h = dims_.hidden_dim();
  AWMOE_CHECK(out.rows == b && out.cols == k)
      << "GateNetwork::InferInto: out " << out.rows << "x" << out.cols;
  AWMOE_CHECK(batch.seq_len > 0)
      << "GateNetwork::InferInto: empty sequence layout";
  const size_t outer_mark = arena->Mark();
  MatView h_ref = arena->Alloc(b, h);
  ReferenceInto(batch, arena, h_ref);

  // `out` accumulates g exactly like Forward: position 0 assigns, later
  // positions add a materialised contribution buffer.
  if (config_.mode == GateMode::kFull ||
      config_.mode == GateMode::kBaseGateUnit) {
    // Per-item gate units (Eq. 7), optionally attention-weighted (Eq. 8).
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      const size_t mark = arena->Mark();
      MatView h_bj = arena->Alloc(b, h);
      BehaviorHiddenInto(batch, j, arena, h_bj);
      MatView a_j = arena->Alloc(b, k);
      gate_unit_.InferInto(h_bj, h_ref, arena, a_j);
      const ConstMatView mask_j = MatrixColsView(batch.behavior_mask, j, 1);
      ConstMatView weights;
      if (config_.mode == GateMode::kFull) {
        MatView w_j = arena->Alloc(b, 1);
        activation_unit_.InferInto(h_bj, h_ref, arena, w_j);
        MatView masked = arena->Alloc(b, 1);
        MulInto(w_j, mask_j, masked);
        weights = masked;
      } else {
        weights = mask_j;
      }
      if (j == 0) {
        MulColBroadcastInto(a_j, weights, out);
      } else {
        MatView contribution = arena->Alloc(b, k);
        MulColBroadcastInto(a_j, weights, contribution);
        AddInto(out, contribution, out);
      }
      arena->Rewind(mark);
    }
  } else {
    // Pooled modes: pool behaviour hiddens first, then one gate unit.
    MatView pooled = arena->Alloc(b, h);
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      const size_t mark = arena->Mark();
      MatView h_bj = arena->Alloc(b, h);
      BehaviorHiddenInto(batch, j, arena, h_bj);
      const ConstMatView mask_j = MatrixColsView(batch.behavior_mask, j, 1);
      ConstMatView weights;
      if (config_.mode == GateMode::kBaseActivationUnit) {
        MatView w_j = arena->Alloc(b, 1);
        activation_unit_.InferInto(h_bj, h_ref, arena, w_j);
        MatView masked = arena->Alloc(b, 1);
        MulInto(w_j, mask_j, masked);
        weights = masked;
      } else {  // kBaseSumPool.
        weights = mask_j;
      }
      if (j == 0) {
        MulColBroadcastInto(h_bj, weights, pooled);
      } else {
        MatView contribution = arena->Alloc(b, h);
        MulColBroadcastInto(h_bj, weights, contribution);
        AddInto(pooled, contribution, pooled);
      }
      arena->Rewind(mark);
    }
    gate_unit_.InferInto(pooled, h_ref, arena, out);
  }

  AddBiasInPlace(out, gate_bias_.value());
  if (config_.softmax) SoftmaxRowsInto(out, out);
  if (config_.top_k > 0 && config_.top_k < k) {
    // Sparsely-gated MoE (§V): hard top-k selection, same tie-breaking
    // as the training path's TopKMaskRows.
    TopKMulInPlace(out, config_.top_k, arena);
  }
  arena->Rewind(outer_mark);
}

void GateNetwork::CollectParameters(std::vector<Var>* params) const {
  item_tower_.CollectParameters(params);
  ref_tower_.CollectParameters(params);
  gate_unit_.CollectParameters(params);
  if (config_.mode == GateMode::kFull ||
      config_.mode == GateMode::kBaseActivationUnit) {
    activation_unit_.CollectParameters(params);
  }
  params->push_back(gate_bias_);
}

}  // namespace awmoe
