#include "src/distance/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/hotpath.h"
#include "src/distance/simd.h"

namespace odyssey {
namespace {

/// The scratch of the dtw and lb_improved_second_pass kernels, owned per
/// thread and grown to the longest series seen: allocating it per call
/// would put a heap allocation behind every scanned candidate in DTW mode,
/// squarely inside the hot-path purity contract's scoring loops. The
/// cascade's second pass is done with it before the DP starts, so the two
/// share one buffer.
struct DtwScratch {
  std::vector<float> floats;
};

float* ScratchForThisThread(size_t n) {
  static thread_local DtwScratch scratch;
  const size_t need =
      std::max(simd::DtwScratchFloats(n), simd::LbImprovedScratchFloats(n));
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

ODYSSEY_HOT float SquaredDtwCascade(const float* query,
                                    const Envelope& envelope,
                                    const float* candidate, size_t window,
                                    float threshold, size_t* dp_runs) {
  const simd::KernelTable& kernels = simd::ActiveTable();
  const size_t n = envelope.length();
  const float* upper = envelope.upper.data();
  const float* lower = envelope.lower.data();
  const float keogh =
      kernels.lb_keogh_early_abandon(upper, lower, candidate, n, threshold);
  if (keogh >= threshold) return keogh;
  float* scratch = ScratchForThisThread(n);
  // The second pass abandons at the budget left above LB_Keogh. An
  // abandoned pass returns a partial sum, still a lower bound, and the
  // comparison below is made on the sum itself, so rounding in the budget
  // can only send a candidate on to the DP, never discard one.
  const float improved =
      keogh + kernels.lb_improved_second_pass(query, upper, lower, candidate,
                                              n, window, threshold - keogh,
                                              scratch);
  if (improved >= threshold) return improved;
  if (dp_runs != nullptr) ++*dp_runs;
  return kernels.dtw(candidate, query, n, window, threshold, scratch);
}

void ReserveDtwScratch(size_t n) { ScratchForThisThread(n); }

size_t WarpingWindowFromFraction(size_t length, double fraction) {
  if (fraction <= 0.0) return 0;
  const double w = std::ceil(fraction * static_cast<double>(length));
  return std::max<size_t>(1, static_cast<size_t>(w));
}

}  // namespace odyssey
