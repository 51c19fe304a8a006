#ifndef AWMOE_TESTS_SUPPORT_GRAPH_REFERENCE_H_
#define AWMOE_TESTS_SUPPORT_GRAPH_REFERENCE_H_

#include <vector>

#include "autograd/variable.h"
#include "core/aw_moe.h"
#include "data/batcher.h"
#include "mat/kernels.h"

namespace awmoe {

// The serving engine's bitwise regression anchor: one session's scores
// straight from the autograd graph, with no engine, pool or cache in
// between. With `share_gate` the §III-F gate is evaluated once, on a
// one-row probe of the session's first item, and reused for every
// candidate; otherwise every candidate runs its own gate. Bitwise
// agreement with the engine holds on the reference kernel tier.
inline std::vector<double> GraphReferenceScores(
    AwMoeRanker* model, const DatasetMeta& meta,
    const Standardizer* standardizer,
    const std::vector<const Example*>& session, bool share_gate) {
  NoGradGuard guard;
  Batch batch = CollateBatch(session, meta, standardizer);
  Var logits;
  if (share_gate) {
    Batch probe = CollateBatch({session[0]}, meta, standardizer);
    logits = model->ForwardLogitsWithGate(batch,
                                          model->GateRepresentation(probe));
  } else {
    logits = model->ForwardLogits(batch);
  }
  Matrix probs = Sigmoid(logits.value());
  std::vector<double> scores(static_cast<size_t>(probs.rows()));
  for (int64_t i = 0; i < probs.rows(); ++i) {
    scores[static_cast<size_t>(i)] = probs(i, 0);
  }
  return scores;
}

}  // namespace awmoe

#endif  // AWMOE_TESTS_SUPPORT_GRAPH_REFERENCE_H_
