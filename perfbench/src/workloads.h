// The benchmark's workloads and the serving measurement they share.
//
// A run is one workload, one seed, one mode. Untraced runs (trace off)
// report the end-to-end metrics; traced runs report the per-layer metrics
// from spans the benchmark opens around its calls into the library.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/model_io.h"
#include "src/serve/rec_service.h"
#include "src/serve/seen_items.h"
#include "src/stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the serving phase at the named rate.
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's artifacts (removed at exit) and span file.
  std::string work_dir;
};

/// Fixed traffic settings of one serving measurement. Every rate is a
/// constant of the workload; none is derived from a run-time measurement.
struct TrafficSpec {
  /// Zipf(1.1) over users when true, uniform otherwise.
  bool zipf = true;
  /// Rate of the measured phase (requests/s), well below capacity.
  double named_qps = 0.0;
  /// Ascending rates max_qps is read from.
  std::vector<double> ladder;
  /// p99 limit (us) a ladder rung must meet.
  double p99_limit_us = 0.0;
};

/// Two saved generations the service alternates between, with in-memory
/// copies of each for the bitwise output checks.
struct Deployment {
  std::string path[2];
  std::shared_ptr<const gnmr::core::ServingModel> model[2];
  std::shared_ptr<const gnmr::serve::SeenItems> seen;
  /// True when the service runs the HNSW tier.
  bool hnsw = false;
};

/// Geometric rate ladder base * step^i, i < count.
std::vector<double> Ladder(double base, double step, int count);

/// Untraced: serves `deployment` (generation 0 already installed in
/// `service`) at the named rate with hot swaps, in blocks between the
/// rungs of the rate ladder; adds recall10, p99_us, swap_p99_us and
/// max_qps (and p50_us to the printed table) and runs the output checks.
/// `after_block`, when set, runs after each named block.
void MeasureServing(const TrafficSpec& spec, const Deployment& deployment,
                    gnmr::serve::RecService* service,
                    const RunOptions& options, Report* report,
                    const std::function<void()>& after_block = {});

/// Traced: replays the same traffic from one sender with spans around
/// every call, and times the retrieval tiers directly; adds the serving
/// per-layer metrics (trace.overhead_pct too when `report_overhead`).
void TraceServing(const TrafficSpec& spec, const Deployment& deployment,
                  gnmr::serve::RecService* service, const RunOptions& options,
                  bool report_overhead, Report* report);

/// True when every byte of the two models' embeddings (and shapes) match.
bool SameEmbeddings(const gnmr::core::ServingModel& a,
                    const gnmr::core::ServingModel& b);

void RunTrainTaobao(const RunOptions& options, Report* report);
void RunServeZipfSwap(const RunOptions& options, Report* report);
void RunServeUniformHnsw(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
