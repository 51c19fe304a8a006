#include "models/embedding_set.h"

namespace awmoe {

EmbeddingSet::EmbeddingSet(const DatasetMeta& meta, int64_t emb_dim, Rng* rng)
    : emb_dim_(emb_dim),
      item_(meta.num_items, emb_dim, rng),
      cat_(meta.num_cats, emb_dim, rng),
      brand_(meta.num_brands, emb_dim, rng),
      shop_(meta.num_shops, emb_dim, rng),
      query_(meta.query_vocab(), emb_dim, rng),
      age_(meta.age_vocab(), emb_dim, rng) {}

Var EmbeddingSet::ItemTriple(const std::vector<int64_t>& items,
                             const std::vector<int64_t>& cats,
                             const std::vector<int64_t>& brands) const {
  return ag::ConcatCols(
      {item_.Forward(items), cat_.Forward(cats), brand_.Forward(brands)});
}

Var EmbeddingSet::Query(const std::vector<int64_t>& query_ids) const {
  return query_.Forward(query_ids);
}

Var EmbeddingSet::Shop(const std::vector<int64_t>& shop_ids) const {
  return shop_.Forward(shop_ids);
}

Var EmbeddingSet::Age(const std::vector<int64_t>& age_segments) const {
  return age_.Forward(age_segments);
}

Var EmbeddingSet::Category(const std::vector<int64_t>& cat_ids) const {
  return cat_.Forward(cat_ids);
}

void EmbeddingSet::ItemTripleInto(const int64_t* items, const int64_t* cats,
                                  const int64_t* brands, int64_t count,
                                  int64_t id_stride, MatView out) const {
  AWMOE_CHECK(out.cols == item_dim())
      << "ItemTripleInto: out width " << out.cols << " vs " << item_dim();
  item_.GatherInto(items, count, id_stride, out.ColBlock(0, emb_dim_));
  cat_.GatherInto(cats, count, id_stride, out.ColBlock(emb_dim_, emb_dim_));
  brand_.GatherInto(brands, count, id_stride,
                    out.ColBlock(2 * emb_dim_, emb_dim_));
}

void EmbeddingSet::ItemWithAttrsInto(const int64_t* items,
                                     const int64_t* cats,
                                     const int64_t* brands, int64_t count,
                                     int64_t id_stride,
                                     const ConstMatView& attrs,
                                     MatView out) const {
  AWMOE_CHECK(out.cols == item_dim() + attrs.cols)
      << "ItemWithAttrsInto: out width " << out.cols << " vs "
      << item_dim() + attrs.cols;
  ItemTripleInto(items, cats, brands, count, id_stride,
                 out.ColBlock(0, item_dim()));
  CopyInto(attrs, out.ColBlock(item_dim(), attrs.cols));
}

void EmbeddingSet::QueryInto(const int64_t* query_ids, int64_t count,
                             MatView out) const {
  query_.GatherInto(query_ids, count, /*id_stride=*/1, out);
}

void EmbeddingSet::ShopInto(const int64_t* shop_ids, int64_t count,
                            MatView out) const {
  shop_.GatherInto(shop_ids, count, /*id_stride=*/1, out);
}

void EmbeddingSet::AgeInto(const int64_t* age_segments, int64_t count,
                           MatView out) const {
  age_.GatherInto(age_segments, count, /*id_stride=*/1, out);
}

void EmbeddingSet::CategoryInto(const int64_t* cat_ids, int64_t count,
                                MatView out) const {
  cat_.GatherInto(cat_ids, count, /*id_stride=*/1, out);
}

void EmbeddingSet::CollectParameters(std::vector<Var>* params) const {
  item_.CollectParameters(params);
  cat_.CollectParameters(params);
  brand_.CollectParameters(params);
  shop_.CollectParameters(params);
  query_.CollectParameters(params);
  age_.CollectParameters(params);
}

}  // namespace awmoe
