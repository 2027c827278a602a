#include "perfbench/src/oracle.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"

namespace perfbench {

double ExactDistance(const float* a, const float* b, size_t n,
                     const Metric& metric) {
  return metric.dtw ? odyssey::SquaredDtw(a, b, n, metric.window)
                    : odyssey::SquaredEuclideanScalar(a, b, n);
}

std::vector<std::vector<odyssey::Neighbor>> BruteForceKnn(
    const odyssey::SeriesCollection& data,
    const odyssey::SeriesCollection& queries, int k, const Metric& metric,
    int threads) {
  using odyssey::Neighbor;
  std::vector<std::vector<Neighbor>> out(queries.size());
  auto before = [](const Neighbor& a, const Neighbor& b) {
    return a.squared_distance != b.squared_distance
               ? a.squared_distance < b.squared_distance
               : a.id < b.id;
  };
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t q = next++; q < queries.size(); q = next++) {
      // Max-heap of the k best so far under `before`.
      std::vector<Neighbor> heap;
      for (size_t i = 0; i < data.size(); ++i) {
        const bool full = heap.size() == static_cast<size_t>(k);
        // Candidates are abandoned once they provably reach the current k-th
        // distance (the scalar ED kernel's partial sums only grow; the DTW
        // kernel promises the exact value below the threshold and some value
        // at or above it otherwise), so every value below the threshold is
        // exact. A candidate tying the k-th comes later in id order and
        // would lose the tie anyway.
        const float threshold =
            full ? heap.front().squared_distance
                 : std::numeric_limits<float>::infinity();
        const float d =
            metric.dtw
                ? odyssey::SquaredDtwEarlyAbandon(queries.data(q), data.data(i),
                                                  data.length(), metric.window,
                                                  threshold)
                : odyssey::SquaredEuclideanEarlyAbandonScalar(
                      queries.data(q), data.data(i), data.length(), threshold);
        const Neighbor cand{d, static_cast<uint32_t>(i)};
        if (!full) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end(), before);
        } else if (d < threshold) {
          std::pop_heap(heap.begin(), heap.end(), before);
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end(), before);
        }
      }
      std::sort_heap(heap.begin(), heap.end(), before);
      out[q] = std::move(heap);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  return out;
}

}  // namespace perfbench
