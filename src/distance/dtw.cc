#include "src/distance/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/hotpath.h"
#include "src/distance/simd.h"

namespace odyssey {
namespace {

/// The dtw kernel's scratch, owned per thread and grown to the longest
/// series seen: allocating it per call would put a heap allocation behind
/// every scanned candidate in DTW mode, squarely inside the hot-path purity
/// contract's scoring loops.
struct DtwScratch {
  std::vector<float> floats;
};

float* ScratchForThisThread(size_t n) {
  static thread_local DtwScratch scratch;
  const size_t need = simd::DtwScratchFloats(n);
  if (scratch.floats.size() < need) scratch.floats.resize(need);
  return scratch.floats.data();
}

}  // namespace

ODYSSEY_HOT float SquaredDtw(const float* a, const float* b, size_t n,
                             size_t window) {
  return SquaredDtwEarlyAbandon(a, b, n, window,
                                std::numeric_limits<float>::infinity());
}

ODYSSEY_HOT float SquaredDtwEarlyAbandon(const float* a, const float* b,
                                         size_t n, size_t window,
                                         float threshold) {
  return simd::ActiveTable().dtw(a, b, n, window, threshold,
                                 ScratchForThisThread(n));
}

void ReserveDtwScratch(size_t n) { ScratchForThisThread(n); }

size_t WarpingWindowFromFraction(size_t length, double fraction) {
  if (fraction <= 0.0) return 0;
  const double w = std::ceil(fraction * static_cast<double>(length));
  return std::max<size_t>(1, static_cast<size_t>(w));
}

}  // namespace odyssey
