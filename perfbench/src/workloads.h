#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

/// The benchmark's workloads and the layer probes of its traced run.
/// Every deployment is a default OdysseyOptions with only the shape fields
/// a user must choose: node count, group count, partitioning, query
/// threads per node, k and the DTW window (plus the iSAX config's series
/// length, which must match the archive).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One named metric value with its unit.
struct MetricValue {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  size_t attempted = 0;  ///< queries whose answers were checked
  size_t failed = 0;     ///< wrong answers plus non-ok Status
  std::map<std::string, MetricValue> metrics;
  /// Human-readable lines (medians with quartiles and sample counts, the
  /// per-layer self-time table) printed before the result line.
  std::vector<std::string> report;
  /// Chrome trace-event JSON of the traced run (empty when untraced).
  std::string trace_json;
};

/// Runs workload `name` on inputs generated from `seed`, measuring for
/// about `seconds` seconds. Untraced runs report the end-to-end metrics;
/// traced runs record spans and report the per-layer metrics. `scratch_dir`
/// receives the archive file of the streaming build and is cleaned up.
/// Returns false (with `error`) for an unknown workload or a failed set-up.
bool RunWorkload(const std::string& name, uint64_t seed, double seconds,
                 bool traced, const std::string& scratch_dir,
                 RunResult* result, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
