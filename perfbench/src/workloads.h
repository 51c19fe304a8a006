// The three workloads. Each runs as a phase of one process: set-up
// (repeated `setup_repeats` times, setup_s being the median), warm-up,
// the measured phase of whole rounds until `seconds` have passed, then
// the output checks. Untraced, a phase sets the end-to-end metrics;
// traced, it alternates untraced and traced rounds (trace.overhead),
// replays the calls each layer makes with one span per call, and sets
// the per-layer metrics whose home it is (README "Per-layer metrics").

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "serving/serving_engine.h"

namespace perfbench {

struct PhaseSpec {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setup_repeats = 1;
};

void RunSearchFresh(const PhaseSpec& spec, Report* report, Tracer* tracer);
void RunPaginateRepeat(const PhaseSpec& spec, Report* report, Tracer* tracer);
void RunTrainCl(const PhaseSpec& spec, Report* report, Tracer* tracer);

/// Ranking quality of per-session scores, cross-checked: the benchmark's
/// own AUC / NDCG@10 must agree with awmoe::EvaluateRanking (one check
/// each). Returns the benchmark's own figures.
OwnRanking CheckedRanking(const std::vector<awmoe::Example>& examples,
                          const std::vector<double>& scores, Report* report);

/// Engine options of the reference engine the checks compare against:
/// every cache level off and no gate or encoding sharing, so each score
/// comes from one fused forward of the request alone.
awmoe::ServingEngineOptions ColdEngineOptions();

/// Sets p50_ms / p99_ms / throughput / setup_s / peak_rss_mib.
void SetTimingMetrics(const std::vector<double>& latencies_ms,
                      double operations, double measured_s,
                      const std::vector<double>& setup_s, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
