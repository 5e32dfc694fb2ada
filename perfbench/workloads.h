#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// 0: measure the end-to-end metrics untraced. 1: alternate untraced
  /// and traced chunks of the time, and report the per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Content of the result line.
struct BenchResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The names --workload accepts.
const std::vector<std::string>& WorkloadNames();

/// Generates the workload's inputs from the seed, computes the oracle's
/// answers, sets the system up (several times, timed), runs the measured
/// closed loop and derives the metrics. Diagnostics go to stderr.
lusail::Result<BenchResult> RunWorkload(const BenchArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
