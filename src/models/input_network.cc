#include "models/input_network.h"

#include "autograd/ops.h"
#include "mat/kernels.h"

namespace awmoe {

InputNetwork::InputNetwork(const DatasetMeta& meta, const ModelDims& dims,
                           const EmbeddingSet* embeddings,
                           UserPooling pooling, Rng* rng)
    : meta_(meta),
      dims_(dims),
      embeddings_(embeddings),
      pooling_(pooling),
      item_tower_(embeddings->item_dim() + Example::kItemAttrs,
                  dims.tower_mlp, rng),
      query_tower_(embeddings->emb_dim(), dims.tower_mlp, rng),
      other_tower_(2 * embeddings->emb_dim() + meta.numeric_dim,
                   dims.tower_mlp, rng),
      activation_unit_(dims.hidden_dim(), dims.activation_unit, rng) {}

int64_t InputNetwork::output_dim() const {
  int64_t parts = meta_.recommendation_mode ? 3 : 4;
  return parts * dims_.hidden_dim();
}

Var InputNetwork::Forward(const Batch& batch) const {
  // h_t: target-item tower (Eq. 2). Item representations combine the id
  // embeddings with the item's dense side-info attributes.
  Var h_target = item_tower_.Forward(ag::ConcatCols(
      {embeddings_->ItemTriple(batch.target_items, batch.target_cats,
                               batch.target_brands),
       Var(batch.target_attrs)}));

  // v_u: behaviour pooling (Eq. 3), padded positions masked out.
  Var v_user;
  for (int64_t j = 0; j < batch.seq_len; ++j) {
    Var h_bj = item_tower_.Forward(ag::ConcatCols(
        {embeddings_->ItemTriple(
             batch.BehaviorColumn(batch.behavior_items, j),
             batch.BehaviorColumn(batch.behavior_cats, j),
             batch.BehaviorColumn(batch.behavior_brands, j)),
         Var(batch.BehaviorAttrsColumn(j))}));
    Matrix mask_j = batch.MaskColumn(j);
    Var contribution;
    if (pooling_ == UserPooling::kAttention) {
      Var w_j = activation_unit_.Forward(h_bj, h_target);
      Var masked_w = ag::MulMask(w_j, mask_j);
      contribution = ag::MulColBroadcast(h_bj, masked_w);
    } else {
      contribution = ag::MulMask(
          h_bj, BroadcastCol(mask_j, h_bj.cols()));
    }
    v_user = v_user.defined() ? ag::Add(v_user, contribution) : contribution;
  }

  // h_o: profile + cross/numeric features.
  Var h_other = other_tower_.Forward(ag::ConcatCols(
      {embeddings_->Age(batch.age_segments),
       embeddings_->Shop(batch.target_shops), Var(batch.numeric)}));

  if (meta_.recommendation_mode) {
    return ag::ConcatCols({v_user, h_target, h_other});
  }
  Var h_query = query_tower_.Forward(embeddings_->Query(batch.query_ids));
  return ag::ConcatCols({v_user, h_target, h_query, h_other});
}

int64_t InputNetwork::session_encoding_dim() const {
  const int64_t h = dims_.hidden_dim();
  const int64_t behavior =
      pooling_ == UserPooling::kAttention ? meta_.max_seq_len * h : h;
  return behavior + (meta_.recommendation_mode ? 0 : h);
}

void InputNetwork::InferInto(const Batch& batch, InferenceArena* arena,
                             MatView out) const {
  InferCore(batch, /*encoding=*/nullptr, arena, out);
}

void InputNetwork::InferWithSessionInto(const Batch& batch,
                                        const ConstMatView& encoding,
                                        InferenceArena* arena,
                                        MatView out) const {
  AWMOE_CHECK(encoding.rows == batch.size &&
              encoding.cols == session_encoding_dim())
      << "InputNetwork::InferWithSessionInto: encoding " << encoding.rows
      << "x" << encoding.cols;
  InferCore(batch, &encoding, arena, out);
}

void InputNetwork::EncodeSessionInto(const Batch& batch,
                                     InferenceArena* arena,
                                     MatView out) const {
  const int64_t b = batch.size;
  const int64_t h = dims_.hidden_dim();
  AWMOE_CHECK(out.rows == b && out.cols == session_encoding_dim())
      << "InputNetwork::EncodeSessionInto: out " << out.rows << "x"
      << out.cols;
  // The blob layout is indexed by padded position, so the pad width
  // must be the snapshot-constant one the width was derived from.
  AWMOE_CHECK(batch.seq_len == meta_.max_seq_len)
      << "InputNetwork::EncodeSessionInto: seq_len " << batch.seq_len
      << " vs meta " << meta_.max_seq_len;
  const int64_t item_in = embeddings_->item_dim() + Example::kItemAttrs;

  // Every block below is computed by the EXACT op sequence of
  // InferCore's fused path — into arena storage, exactly as the fused
  // path allocates it — and only then copied into the blob. Compute-
  // then-copy keeps the arithmetic (and its memory alignment) identical
  // to the fused path, which is what makes the replay bitwise-exact.
  if (pooling_ == UserPooling::kAttention) {
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      const size_t mark = arena->Mark();
      MatView joined = arena->Alloc(b, item_in);
      embeddings_->ItemWithAttrsInto(
          batch.behavior_items.data() + j, batch.behavior_cats.data() + j,
          batch.behavior_brands.data() + j, b,
          /*id_stride=*/batch.seq_len,
          MatrixColsView(batch.behavior_attrs, j * Example::kItemAttrs,
                         Example::kItemAttrs),
          joined);
      MatView h_bj = arena->Alloc(b, h);
      item_tower_.InferInto(joined, arena, h_bj);
      CopyInto(h_bj, out.ColBlock(j * h, h));
      arena->Rewind(mark);
    }
  } else {
    // Sum pooling weighs positions by the mask alone, so the pooled
    // v_user itself is candidate-independent: cache it pooled.
    const size_t outer = arena->Mark();
    MatView v_user = arena->Alloc(b, h);
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      const size_t mark = arena->Mark();
      MatView joined = arena->Alloc(b, item_in);
      embeddings_->ItemWithAttrsInto(
          batch.behavior_items.data() + j, batch.behavior_cats.data() + j,
          batch.behavior_brands.data() + j, b,
          /*id_stride=*/batch.seq_len,
          MatrixColsView(batch.behavior_attrs, j * Example::kItemAttrs,
                         Example::kItemAttrs),
          joined);
      MatView h_bj = arena->Alloc(b, h);
      item_tower_.InferInto(joined, arena, h_bj);
      const ConstMatView mask_j = MatrixColsView(batch.behavior_mask, j, 1);
      if (j == 0) {
        MulColBroadcastInto(h_bj, mask_j, v_user);
      } else {
        MatView contribution = arena->Alloc(b, h);
        MulColBroadcastInto(h_bj, mask_j, contribution);
        AddInto(v_user, contribution, v_user);
      }
      arena->Rewind(mark);
    }
    CopyInto(v_user, out.ColBlock(0, h));
    arena->Rewind(outer);
  }

  if (!meta_.recommendation_mode) {
    const size_t mark = arena->Mark();
    MatView q = arena->Alloc(b, embeddings_->emb_dim());
    embeddings_->QueryInto(batch.query_ids.data(), b, q);
    MatView h_query = arena->Alloc(b, h);
    query_tower_.InferInto(q, arena, h_query);
    const int64_t offset =
        pooling_ == UserPooling::kAttention ? batch.seq_len * h : h;
    CopyInto(h_query, out.ColBlock(offset, h));
    arena->Rewind(mark);
  }
}

void InputNetwork::InferCore(const Batch& batch, const ConstMatView* encoding,
                             InferenceArena* arena, MatView out) const {
  const int64_t b = batch.size;
  const int64_t h = dims_.hidden_dim();
  AWMOE_CHECK(out.rows == b && out.cols == output_dim())
      << "InputNetwork::InferInto: out " << out.rows << "x" << out.cols;
  AWMOE_CHECK(batch.seq_len > 0)
      << "InputNetwork::InferInto: empty sequence layout";
  if (encoding != nullptr) {
    AWMOE_CHECK(batch.seq_len == meta_.max_seq_len)
        << "InputNetwork::InferCore: seq_len " << batch.seq_len << " vs meta "
        << meta_.max_seq_len;
  }
  const int64_t item_in = embeddings_->item_dim() + Example::kItemAttrs;
  // Column sub-view of the encoding blob (keeps the row stride, so a
  // broadcast single-row blob stays stride-0).
  auto encoded_block = [&](int64_t offset, int64_t cols) {
    return ConstMatView(encoding->data + offset, b, cols, encoding->stride);
  };

  // v_imp slices, in the ConcatCols order of Forward:
  //   v_user | h_target | [h_query |] h_other
  MatView v_user = out.ColBlock(0, h);
  MatView h_target = out.ColBlock(h, h);
  MatView h_other = out.ColBlock(meta_.recommendation_mode ? 2 * h : 3 * h, h);

  // h_t: target-item tower (Eq. 2). Candidate-dependent, always
  // computed.
  {
    const size_t mark = arena->Mark();
    MatView joined = arena->Alloc(b, item_in);
    embeddings_->ItemWithAttrsInto(batch.target_items.data(),
                                   batch.target_cats.data(),
                                   batch.target_brands.data(), b,
                                   /*id_stride=*/1,
                                   MatrixView(batch.target_attrs), joined);
    item_tower_.InferInto(joined, arena, h_target);
    arena->Rewind(mark);
  }

  // v_u: behaviour pooling (Eq. 3), padded positions masked out. The
  // first position writes v_user, later ones accumulate via a
  // contribution buffer — the exact Add(v_user, contribution) shape of
  // the graph path, so no fused multiply-add can change a bit.
  if (encoding != nullptr && pooling_ == UserPooling::kSumPool) {
    // The blob carries the pooled vector itself; nothing to weigh.
    CopyInto(encoded_block(0, h), v_user);
  } else {
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      const size_t mark = arena->Mark();
      MatView h_bj = arena->Alloc(b, h);
      if (encoding != nullptr) {
        // Replay the cached position from the blob into arena storage:
        // downstream kernels read the same aligned-arena views as the
        // fused path, only the tower forward is skipped.
        CopyInto(encoded_block(j * h, h), h_bj);
      } else {
        MatView joined = arena->Alloc(b, item_in);
        embeddings_->ItemWithAttrsInto(
            batch.behavior_items.data() + j, batch.behavior_cats.data() + j,
            batch.behavior_brands.data() + j, b,
            /*id_stride=*/batch.seq_len,
            MatrixColsView(batch.behavior_attrs, j * Example::kItemAttrs,
                           Example::kItemAttrs),
            joined);
        item_tower_.InferInto(joined, arena, h_bj);
      }

      const ConstMatView mask_j = MatrixColsView(batch.behavior_mask, j, 1);
      ConstMatView weights;  // [B, 1] per-row factor of this position.
      if (pooling_ == UserPooling::kAttention) {
        MatView w_j = arena->Alloc(b, 1);
        activation_unit_.InferInto(h_bj, h_target, arena, w_j);
        MatView masked = arena->Alloc(b, 1);
        MulInto(w_j, mask_j, masked);
        weights = masked;
      } else {
        weights = mask_j;
      }
      if (j == 0) {
        MulColBroadcastInto(h_bj, weights, v_user);
      } else {
        MatView contribution = arena->Alloc(b, h);
        MulColBroadcastInto(h_bj, weights, contribution);
        AddInto(v_user, contribution, v_user);
      }
      arena->Rewind(mark);
    }
  }

  // h_o: profile + cross/numeric features.
  {
    const size_t mark = arena->Mark();
    const int64_t e = embeddings_->emb_dim();
    MatView joined = arena->Alloc(b, 2 * e + meta_.numeric_dim);
    embeddings_->AgeInto(batch.age_segments.data(), b, joined.ColBlock(0, e));
    embeddings_->ShopInto(batch.target_shops.data(), b,
                          joined.ColBlock(e, e));
    CopyInto(MatrixView(batch.numeric),
             joined.ColBlock(2 * e, meta_.numeric_dim));
    other_tower_.InferInto(joined, arena, h_other);
    arena->Rewind(mark);
  }

  if (!meta_.recommendation_mode) {
    if (encoding != nullptr) {
      const int64_t offset =
          pooling_ == UserPooling::kAttention ? batch.seq_len * h : h;
      CopyInto(encoded_block(offset, h), out.ColBlock(2 * h, h));
    } else {
      const size_t mark = arena->Mark();
      MatView q = arena->Alloc(b, embeddings_->emb_dim());
      embeddings_->QueryInto(batch.query_ids.data(), b, q);
      query_tower_.InferInto(q, arena, out.ColBlock(2 * h, h));
      arena->Rewind(mark);
    }
  }
}

void InputNetwork::CollectParameters(std::vector<Var>* params) const {
  item_tower_.CollectParameters(params);
  if (!meta_.recommendation_mode) query_tower_.CollectParameters(params);
  other_tower_.CollectParameters(params);
  if (pooling_ == UserPooling::kAttention) {
    activation_unit_.CollectParameters(params);
  }
}

}  // namespace awmoe
