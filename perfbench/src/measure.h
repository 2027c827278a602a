#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

/// The benchmark's own measurement code: sample summaries (median,
/// quartiles and the tail percentile the sample count supports), the
/// exactness check of one answer against the oracle, and an in-memory span
/// recorder with per-layer self time and Chrome trace-event export. Nothing
/// here calls into the Odyssey library except the Neighbor answer type.

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/index/query_engine.h"

namespace perfbench {

/// Percentile `p` (0..100) of `samples` by linear interpolation between the
/// closest ranks (the "type 7" estimator); NaN for no samples. `samples`
/// need not be sorted.
double Percentile(std::vector<double> samples, double p);

/// The highest of p99.9, p99, p95, p90 and p50 that leaves at least ten of
/// `count` samples beyond it, or 0 when even the median does not (fewer
/// than 20 samples). A tail read from fewer samples than that is one
/// outlier, not a percentile.
double TailPercentile(size_t count);

/// A timing reported the way the benchmark prints every timing.
struct Summary {
  size_t count = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_percentile = 0.0;  ///< TailPercentile(count); 0 = no tail
  double tail = 0.0;             ///< value at tail_percentile
};

/// Summarizes a sample set (NaN fields when it is empty).
Summary Summarize(const std::vector<double>& samples);

/// Relative tolerance of the exactness check. Oracle and system compute
/// the same squared distances with differently ordered float sums, so they
/// may disagree in the last bits; any real mismatch (a missed neighbor, a
/// wrong id) is orders of magnitude larger.
inline constexpr double kDistanceTolerance = 1e-4;

/// Recomputes the exact squared distance from the query to series `id`.
using DistanceFn = std::function<double(uint32_t id)>;

/// True when `got` is an exact k-NN answer: it has as many neighbors as
/// the oracle's `want` (both ascending), each rank's distance agrees with
/// the oracle's within kDistanceTolerance, the ids are distinct and
/// in-range (< `num_series`), and every reported distance is the real
/// distance of the reported id. Ids may differ from the oracle's only
/// between tied distances.
bool AnswerMatches(const std::vector<odyssey::Neighbor>& got,
                   const std::vector<odyssey::Neighbor>& want,
                   size_t num_series, const DistanceFn& distance);

/// One recorded span. Times are microseconds since the recorder started.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
};

/// Records nested spans in memory (single-threaded: the benchmark's own
/// thread). When disabled, Begin/End are no-ops, so untraced runs carry
/// no recording cost beyond one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (or -1 when disabled).
  int Begin(const std::string& name);
  /// Closes the innermost open span.
  void End();

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in microseconds: each span's duration minus
  /// the part of its interval covered by its children, summed by name.
  std::map<std::string, double> SelfTimes() const;

  /// Chrome trace-event JSON ("X" complete events on one thread), which
  /// Perfetto and chrome://tracing open as-is.
  std::string ChromeTraceJson() const;

 private:
  double NowUs() const;

  bool enabled_;
  double origin_us_ = 0.0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the current scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder) {
    recorder_->Begin(name);
  }
  ~ScopedSpan() { recorder_->End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Self time of `spans` by name (see SpanRecorder::SelfTimes).
std::map<std::string, double> SpanSelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
