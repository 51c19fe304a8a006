#include <cmath>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace awmoe;

OwnRanking CheckedRanking(const std::vector<Example>& examples,
                          const std::vector<double>& scores, Report* report) {
  const OwnRanking own = OwnEvaluate(examples, scores);
  const RankingEvaluation lib = EvaluateRanking(examples, scores, 10);
  report->Check(std::abs(own.auc - lib.auc) < 1e-9,
                "AUC: own " + std::to_string(own.auc) + " vs EvaluateRanking " +
                    std::to_string(lib.auc));
  report->Check(std::abs(own.ndcg_at_10 - lib.ndcg_at_k) < 1e-9,
                "NDCG@10: own " + std::to_string(own.ndcg_at_10) +
                    " vs EvaluateRanking " + std::to_string(lib.ndcg_at_k));
  return own;
}

ServingEngineOptions ColdEngineOptions() {
  ServingEngineOptions options;
  options.share_gate = false;
  options.gate_cache_capacity = 0;
  options.score_cache_capacity = 0;
  options.share_session_encoding = false;
  options.encoding_cache_capacity = 0;
  return options;
}

void SetTimingMetrics(const std::vector<double>& latencies_ms,
                      double operations, double measured_s,
                      const std::vector<double>& setup_s, Report* report) {
  report->Set("throughput", operations / measured_s, "1/s");
  report->Set("p50_ms", Percentile(latencies_ms, 50.0), "ms");
  report->Set("p99_ms", Percentile(latencies_ms, 99.0), "ms");
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mib", PeakRssMib(), "MiB");
}

}  // namespace perfbench
