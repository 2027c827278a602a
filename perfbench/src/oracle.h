#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

/// The exactness oracle: k-NN by brute force over every series, built only
/// from the distance layer's public functions and run outside every timed
/// region. Each candidate is abandoned once it provably cannot enter the
/// running k best, which keeps the scan exact. ED uses the portable scalar
/// kernel, so a defect in a vector kernel cannot hide by agreeing with
/// itself; DTW uses the banded DTW with no lower-bound pruning.

#include <cstddef>
#include <vector>

#include "src/dataset/series_collection.h"
#include "src/index/query_engine.h"

namespace perfbench {

struct Metric {
  bool dtw = false;
  size_t window = 0;  ///< Sakoe-Chiba half-width (DTW only)
};

/// Exact squared distance between two series of length `n`.
double ExactDistance(const float* a, const float* b, size_t n,
                     const Metric& metric);

/// The exact k nearest neighbors of every query, ascending by distance
/// (ties broken by id), computed on `threads` threads.
std::vector<std::vector<odyssey::Neighbor>> BruteForceKnn(
    const odyssey::SeriesCollection& data,
    const odyssey::SeriesCollection& queries, int k, const Metric& metric,
    int threads);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
