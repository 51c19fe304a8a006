// The benchmark's one command:
//   perfbench --workload <search_fresh|paginate_repeat|train_cl>
//             --seed <n> --seconds <s> --trace <0|1>
// Untraced it prints the end-to-end metrics of the workload; traced it
// runs the workload long and the other two short, and prints the
// per-layer metrics derived from the spans. The last stdout line is the
// JSON result.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "nn/inference.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s", "throughput", "p50_ms", "p99_ms",
    "ndcg_at_10", "auc", "peak_rss_mib"};

const std::vector<std::string> kPerLayer = {
    "data.generate_s",
    "data.collate_us",
    "nn.matmul_gflops",
    "core.aw_moe.score_into_us",
    "core.aw_moe.gate_into_us",
    "core.aw_moe.encode_session_us",
    "core.aw_moe.score_with_session_us",
    "models.listwise.score_slate_us",
    "serving.retrieve_ms",
    "serving.rerank_ms",
    "serving.engine_overhead_us",
    "serving.direct_share",
    "serving.score_cache.lookup_us",
    "serving.score_hit_p50_ms",
    "serving.score_miss_p50_ms",
    "serving.score_cache.hit_ratio",
    "serving.score_cache.lookups",
    "serving.gate_cache.hit_ratio",
    "serving.gate_cache.lookups",
    "serving.encoding_cache.hit_ratio",
    "serving.encoding_cache.lookups",
    "serving.invalidations",
    "serving.cache_resident_kib",
    "serving.forward_passes_per_request",
    "serving.batch_items_mean",
    "serving.max_active_lanes",
    "serving.lane_scaling",
    "serving.pool_build_s",
    "core.train_s",
    "data.batch_next_ms",
    "core.contrastive.augment_ms",
    "autograd.forward_ms",
    "autograd.backward_ms",
    "nn.adamw_step_ms",
    "core.parallel.speedup",
    "host.probe_ms",
    "trace.overhead",
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using PhaseFn = void (*)(const PhaseSpec&, Report*, Tracer*);

struct Workload {
  const char* name;
  PhaseFn run;
};

const Workload kWorkloads[] = {
    {"search_fresh", RunSearchFresh},
    {"paginate_repeat", RunPaginateRepeat},
    {"train_cl", RunTrainCl},
};

/// Seconds each secondary workload runs in a traced run (train_cl runs
/// at least its kEvalRounds passes, however short this is).
constexpr double kSecondarySeconds = 1.5;

int Fail(const std::string& message) {
  std::fprintf(stderr, "[perfbench] %s\n", message.c_str());
  return 2;
}

bool EnvSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0';
}

double MedianProbe(int n) {
  std::vector<double> probes;
  for (int i = 0; i < n; ++i) probes.push_back(HostProbeMs());
  return Median(probes);
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Fail("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Fail("--trace takes 0 or 1");
        options.trace = value == "1";
      } else {
        return Fail("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Fail("bad value for " + flag + ": " + value);
    }
  }
  const Workload* primary = nullptr;
  for (const Workload& w : kWorkloads) {
    if (have_workload && options.workload == w.name) primary = &w;
  }
  if (primary == nullptr) return Fail("unknown --workload " + options.workload);
  if (!(options.seconds > 0.0)) return Fail("--seconds must be positive");

  // Environment guard: a forced scalar tier or kernel row threads would
  // pass for a program regression; so would a non-Release build.
  if (EnvSet("AWMOE_FORCE_SCALAR") || EnvSet("AWMOE_KERNEL_THREADS")) {
    return Fail("refusing to report: AWMOE_FORCE_SCALAR or "
                "AWMOE_KERNEL_THREADS is set");
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return Fail(std::string("refusing to report from a ") +
                PERFBENCH_BUILD_TYPE + " build");
  }
  std::printf(
      "[perfbench] workload=%s seed=%llu seconds=%g trace=%d kernel_tier=%s "
      "row_parallelism=%d compiler=\"%s\" build=%s nproc=%u\n",
      primary->name, static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      awmoe::KernelTierName(awmoe::ActiveKernelTier()),
      awmoe::KernelRowParallelism(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency());

  Report report;
  std::vector<double> probes = {MedianProbe(5)};
  // Secondary phases first, so the primary's figures for shared names
  // (set-up spans, trace.overhead) are the ones kept.
  std::vector<const Workload*> order;
  if (options.trace) {
    for (const Workload& w : kWorkloads) {
      if (&w != primary) order.push_back(&w);
    }
  }
  order.push_back(primary);
  for (const Workload* w : order) {
    const bool is_primary = w == primary;
    PhaseSpec spec;
    spec.seed = options.seed;
    spec.seconds = is_primary ? options.seconds : kSecondarySeconds;
    spec.trace = options.trace;
    spec.setup_repeats = options.trace ? 1 : kSetupRepeats;
    Tracer tracer(options.trace);
    w->run(spec, &report, &tracer);
    if (options.trace) {
      tracer.Write(std::string(argv[0]) + ".spans-" + w->name + ".jsonl");
    }
    probes.push_back(MedianProbe(5));
  }
  const double probe_ms = Median(probes);
  std::printf("[perfbench] host.probe_ms=%.6f attempted=%lld failed=%lld\n",
              probe_ms, static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  if (options.trace) report.Set("host.probe_ms", probe_ms, "ms");

  const std::vector<std::string>& wanted = options.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const std::string& name : wanted) {
    auto it = report.metrics.find(name);
    if (it == report.metrics.end()) return Fail("metric " + name + " missing");
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), it->second.first,
                  it->second.second.c_str());
    metrics += buffer;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
