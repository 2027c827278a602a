#ifndef ODYSSEY_DISTANCE_DTW_H_
#define ODYSSEY_DISTANCE_DTW_H_

#include <cstddef>

#include "src/common/hotpath.h"
#include "src/distance/lb_keogh.h"

namespace odyssey {

/// Dynamic Time Warping under a Sakoe-Chiba band (the paper's Section 4
/// extension). All values are *squared* accumulated point costs, mirroring
/// the squared-Euclidean convention of the rest of the library: the true
/// DTW distance is sqrt(SquaredDtw(...)).

/// Squared DTW between two length-n series with warping window `window`
/// (in points; 0 reduces to squared Euclidean). O(n * window) time, through
/// the dispatched simd::KernelTable::dtw kernel, whose result is
/// bit-identical at every ISA level and symmetric in a and b. The kernel's
/// scratch is grow-only and thread-local (see ReserveDtwScratch), so
/// steady-state calls are allocation-free.
ODYSSEY_HOT float SquaredDtw(const float* a, const float* b, size_t n,
                             size_t window);

/// Early-abandoning variant: returns the exact squared DTW if it is
/// < `threshold`; otherwise returns the minimum of the first DP row whose
/// cells are all >= `threshold` (every warping path crosses every row, so
/// that bounds the final value). Checked after every row at every ISA
/// level, so even abandoned values are bit-identical across levels.
ODYSSEY_HOT float SquaredDtwEarlyAbandon(const float* a, const float* b,
                                         size_t n, size_t window,
                                         float threshold);

/// The DTW scan's distance of `candidate` to `query`, whose warping
/// envelope for `window` is `envelope`: a cascade of ever tighter lower
/// bounds, each early-abandoning at `threshold`. LB_Keogh first; then
/// LB_Improved, which adds the second pass of simd::KernelTable's
/// lb_improved_second_pass; then the DP of SquaredDtwEarlyAbandon. Same
/// contract as SquaredDtwEarlyAbandon: exact when < `threshold`, otherwise
/// some value >= `threshold` that lower-bounds the squared DTW. Both bounds
/// hold under the same band, so a candidate they discard would have scored
/// >= `threshold` anyway. Bumps `*dp_runs` (when given) if the DP ran.
ODYSSEY_HOT float SquaredDtwCascade(const float* query,
                                    const Envelope& envelope,
                                    const float* candidate, size_t window,
                                    float threshold, size_t* dp_runs = nullptr);

/// Pre-sizes the calling thread's DTW scratch for length-n series: the
/// larger of simd::DtwScratchFloats(n) (the scalar kernel's two DP rows, or
/// the wide-band wavefront's ring of recent cell and b vectors) and
/// simd::LbImprovedScratchFloats(n) (the cascade's padded projection). The
/// executor warm-up calls this on every pool worker so even a worker's
/// first DTW distance of a batch allocates nothing.
void ReserveDtwScratch(size_t n);

/// Converts a warping fraction (e.g. 0.05 for the paper's "5% warping") to
/// a window in points, rounding up, minimum 1 when fraction > 0.
size_t WarpingWindowFromFraction(size_t length, double fraction);

}  // namespace odyssey

#endif  // ODYSSEY_DISTANCE_DTW_H_
