#include "src/distance/simd.h"

#include "src/common/hotpath.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

// x86-64 only (not __i386__): the SSE tier relies on SSE2 being an
// architectural baseline, which holds for x86-64 but not 32-bit x86.
// Other architectures use the scalar table.
#if defined(__x86_64__)
#define ODYSSEY_X86 1
#include <immintrin.h>
#endif

namespace odyssey {
namespace simd {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The first 64-byte boundary at or after p (at most 15 floats on), where
/// kernel scratch that vector loops store to starts.
inline float* AlignTo64(float* p) {
  while ((reinterpret_cast<uintptr_t>(p) & 63u) != 0) ++p;
  return p;
}

// --------------------------------------------------------------- scalar

ODYSSEY_HOT float SquaredEuclideanScalarK(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float SquaredEuclideanEarlyAbandonScalarK(const float* a, const float* b,
                                          size_t n, float threshold) {
  float sum = 0.0f;
  size_t i = 0;
  // Check the threshold once per 16-point block: frequent enough to abandon
  // early, rare enough not to serialize the loop. Every ISA level uses the
  // same cadence so all levels abandon at the same point.
  while (i + 16 <= n) {
    for (size_t j = 0; j < 16; ++j) {
      const float d = a[i + j] - b[i + j];
      sum += d * d;
    }
    i += 16;
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

inline float LbKeoghPointGap(float upper, float lower, float c) {
  // max(c - upper, lower - c, 0): positive only outside the envelope band.
  float d = c - upper;
  const float dl = lower - c;
  if (dl > d) d = dl;
  return d > 0.0f ? d : 0.0f;
}

ODYSSEY_HOT float LbKeoghScalarK(const float* upper, const float* lower,
                     const float* candidate, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float LbKeoghEarlyAbandonScalarK(const float* upper, const float* lower,
                                 const float* candidate, size_t n,
                                 float threshold) {
  float sum = 0.0f;
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t j = 0; j < 16; ++j) {
      const float d =
          LbKeoghPointGap(upper[i + j], lower[i + j], candidate[i + j]);
      sum += d * d;
    }
    i += 16;
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT void PaaScalarK(const float* series, size_t n, int segments, double* out) {
  size_t begin = 0;
  for (int i = 0; i < segments; ++i) {
    const size_t end =
        (static_cast<size_t>(i) + 1) * n / static_cast<size_t>(segments);
    double sum = 0.0;
    for (size_t t = begin; t < end; ++t) sum += series[t];
    out[i] = sum / static_cast<double>(end - begin);
    begin = end;
  }
}

ODYSSEY_HOT float DtwScalarK(const float* a, const float* b, size_t n,
                             size_t window, float threshold, float* scratch) {
  if (n == 0) return 0.0f;
  if (window > n - 1) window = n - 1;
  // Two rolling DP rows over the full length; cells outside the band stay
  // +inf. For the window sizes the paper uses (<= 15% of n) the wasted cells
  // are cheap and the reference stays simple.
  float* prev = scratch;
  float* cur = scratch + n;
  for (size_t j = 0; j < 2 * n; ++j) scratch[j] = kInf;

  // Row 0: the only predecessor of (0, j) is (0, j-1), so the row is the
  // running prefix sum of point costs; its minimum is the first cell.
  float run = 0.0f;
  for (size_t j = 0; j <= window; ++j) {
    const float d = a[0] - b[j];
    run += d * d;
    cur[j] = run;
  }
  if (cur[0] >= threshold) return cur[0];

  // Every later row: cur[j] = (a_i - b_j)^2 + min(up, diag, left). Any
  // warping path passes through every row's band, so a row minimum at or
  // above the threshold lower-bounds the final value: abandon.
  for (size_t i = 1; i < n; ++i) {
    float* const t = prev;
    prev = cur;
    cur = t;
    const size_t jlo = (i >= window) ? i - window : 0;
    const size_t jhi = (i + window < n - 1) ? i + window : n - 1;
    // cur still holds row i-2. Only the two cells flanking this row's band
    // are read before being written (cur[jlo-1] as the in-row left
    // neighbor, and both flanks as prev cells of row i+1, whose band grows
    // by at most one on each side) — resetting them is enough.
    if (jlo > 0) cur[jlo - 1] = kInf;
    if (jhi + 1 < n) cur[jhi + 1] = kInf;
    float row_min = kInf;
    size_t j = jlo;
    if (j == 0) {
      const float d = a[i] - b[0];
      cur[0] = d * d + prev[0];
      row_min = cur[0];
      j = 1;
    }
    for (; j <= jhi; ++j) {
      const float d = a[i] - b[j];
      float best = prev[j];
      if (prev[j - 1] < best) best = prev[j - 1];
      if (cur[j - 1] < best) best = cur[j - 1];
      cur[j] = d * d + best;
      if (cur[j] < row_min) row_min = cur[j];
    }
    if (row_min >= threshold) return row_min;
  }
  return cur[n - 1];
}

// ------------------------------------------------- LB_Improved second pass
// Every level runs the same three steps:
//   1. project the candidate onto the query's envelope, into two buffers
//      padded by w points of -inf (hi) and +inf (lo);
//   2. turn them into the projection's envelope by log-doubling passes:
//      after the pass with shift s, entry i holds the max/min over
//      [i, i + 2s), until 2s would exceed the window's 2w + 1 points; one
//      last pass joins two overlapping runs to cover exactly 2w + 1;
//   3. score the query against that envelope with the level's own
//      early-abandoning LB_Keogh.
// Each pass runs in place from low to high index: entry i reads only i and
// i + s, which the pass has not written yet. The vector passes round their
// length up to whole vectors instead of running a scalar tail: the extra
// entries read and write the slack past n + 2w, and no entry a later pass
// relies on ever reads them.

/// Floats of slack each padded buffer keeps past n + 2w for the rounded-up
/// vector passes: they read at most 15 entries past the end.
constexpr size_t kProjectionSlack = kDtwMaxLanes;

/// The second pass's padded buffers: hi then lo, each n + 2w floats plus
/// the slack, hi on a 64-byte boundary and lo on a 16-float one. At most
/// 15 + 2 * (3n - 2 + 16 + 15) floats, within LbImprovedScratchFloats(n).
struct ProjectionBuffers {
  float* hi;
  float* lo;
};

inline ProjectionBuffers PadProjection(size_t n, size_t w, float* scratch) {
  float* hi = AlignTo64(scratch);
  const size_t stride = (n + 2 * w + kProjectionSlack + 15) / 16 * 16;
  float* lo = hi + stride;
  for (size_t m = 0; m < w; ++m) {
    hi[m] = -kInf;
    lo[m] = kInf;
    hi[n + w + m] = -kInf;
    lo[n + w + m] = kInf;
  }
  return {hi, lo};
}

/// max(c, lower) then min with upper: the exact clamp every level uses.
inline float ClampToBand(float c, float lower, float upper) {
  const float lifted = c > lower ? c : lower;
  return lifted < upper ? lifted : upper;
}

/// One in-place max/min pass: entry i of [0, len) takes the max (hi) / min
/// (lo) of itself and entry i + shift.
/// Unconditional stores, so the compiler emits branch-free max/min instead
/// of a branch that data-dependent comparisons mispredict.
inline void MaxMinPassScalar(float* hi, float* lo, size_t len, size_t shift) {
  for (size_t i = 0; i < len; ++i) {
    hi[i] = std::max(hi[i], hi[i + shift]);
    lo[i] = std::min(lo[i], lo[i + shift]);
  }
}

}  // namespace

ODYSSEY_HOT void SlidingMaxMin(float* hi, float* lo, size_t n,
                               size_t window) {
  const size_t span = 2 * window + 1;
  size_t len = n + 2 * window;
  size_t s = 1;
  for (; 2 * s <= span; s *= 2) {
    len -= s;
    MaxMinPassScalar(hi, lo, len, s);
  }
  if (span > s) MaxMinPassScalar(hi, lo, n, span - s);
}

namespace {

ODYSSEY_HOT float LbImprovedSecondPassScalarK(
    const float* query, const float* upper, const float* lower,
    const float* candidate, size_t n, size_t window, float threshold,
    float* scratch) {
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const ProjectionBuffers buf = PadProjection(n, w, scratch);
  for (size_t i = 0; i < n; ++i) {
    buf.hi[w + i] = buf.lo[w + i] =
        ClampToBand(candidate[i], lower[i], upper[i]);
  }
  SlidingMaxMin(buf.hi, buf.lo, n, w);
  return LbKeoghEarlyAbandonScalarK(buf.hi, buf.lo, query, n, threshold);
}

constexpr KernelTable kScalarTable = {
    Isa::kScalar,
    SquaredEuclideanScalarK,
    SquaredEuclideanEarlyAbandonScalarK,
    LbKeoghScalarK,
    LbKeoghEarlyAbandonScalarK,
    PaaScalarK,
    DtwScalarK,
    LbImprovedSecondPassScalarK,
};

#if defined(ODYSSEY_X86)

// ------------------------------------------------------- DTW wavefront
// The AVX2 and AVX-512 DTW kernels sweep the band as one continuous
// anti-diagonal wavefront. Rows are kept in lanes modulo L: lane l owns every
// row r = l (mod L). In band coordinates k = j - r + w (0 <= k <= 2w), row r
// starts at step s*r and computes cell k at step s*r + k, so a new row starts
// every s steps, in the lane its row r - L has just left:
//   left = (r, k-1)   the lane's own value from step t-1;
//   up   = (r-1, k+1) lane l-1's value from step t-s+1;
//   diag = (r-1, k)   lane l-1's value from step t-s: the previous up.
// "Lane l-1" wraps, lane 0 reading lane L-1, so up is a vector from s-1 steps
// back rotated up one lane. The spacing is s = max(2, ceil((2w+1)/L)): with
// s >= 2 up is never from the same step, and a lane's row needs 2w+1 of its
// s*L steps, so it finishes before its next row starts. s*L is even and
// 2w+1 odd, so at least one idle step follows the row's last cell k = 2w.
// Idle steps cost +inf, so their +inf is what the next row in the lane reads
// as left of its first cell and row r+1 reads as up of its last one. At
// s = 2 (w <= L - 1) up is the previous vector, held in a register; wider
// bands keep the last s-1 vectors in a ring in the caller's scratch.
//
// Lane l reads b_j with j = r + k - w. A cell's j equals that of row r-1 at
// k+1, which lane l-1 met s-1 steps earlier, so the b vector is carried the
// same way as up: rotated from s-1 steps back. Only the top of the carry
// chain is new: each step that ends a group of s, one lane sits at its idle
// cell k = s*L - 1 and takes its b by a masked broadcast. b outside [0, n)
// reads as -inf, lanes past row n-1 take a = +inf, and the cost is masked to
// +inf outside 0 <= k <= 2w, so every cell outside the band or the series
// costs +inf and no blend sits on the loop-carried chain. The virtual row -1
// is +inf except at (-1, j = -1), the diagonal predecessor of (0, 0), which
// enters as a 0 in lane 0's diag at step w.
//
// Each cell is d * d plus the minimum of left, diag and up, as in the scalar
// kernel. min is exact, and with no NaN and no -0 among the cells (all sums
// of squares, or +inf) the order of the two mins changes no bit, so every
// cell is bit-identical to the scalar kernel's. Each lane also tracks its
// row's minimum. Rows complete in row order, at most one per step (row r's
// last cell is at step s*r + min(2w, n-1-r+w)), so checking the threshold on
// the lane that completes its row abandons after the same row as the scalar
// kernel, with the same value.

/// Steps between two row starts for clamped window w and L lanes.
inline size_t DtwRowSpacing(size_t w, size_t lanes) {
  const size_t s = (2 * w + 1 + lanes - 1) / lanes;
  return s < 2 ? 2 : s;
}

/// b_j, or -inf outside the series, so that the cell costs +inf.
inline float DtwPaddedB(const float* b, size_t n, ptrdiff_t j) {
  return j >= 0 && static_cast<size_t>(j) < n ? b[j] : -kInf;
}

/// Band column of row r's last real cell, where the row is complete.
inline int32_t DtwRowEnd(size_t n, size_t w, size_t r) {
  const size_t last_k = n - 1 - r + w;
  return static_cast<int32_t>(last_k < 2 * w ? last_k : 2 * w);
}

/// The b vector at step t, 1-s <= t <= -1, before row 0 starts: lane l then
/// holds the virtual row l - L at k = t + s * (L - l).
inline void DtwInitialB(const float* b, size_t n, size_t w, size_t s,
                        size_t lanes, ptrdiff_t t, float* out) {
  for (size_t l = 0; l < lanes; ++l) {
    const ptrdiff_t j = t + static_cast<ptrdiff_t>((s - 1) * (lanes - l)) -
                        static_cast<ptrdiff_t>(w);
    out[l] = DtwPaddedB(b, n, j);
  }
}

/// The b value the lane at its idle cell k = s*L - 1 takes on the step
/// before row r starts in that lane.
inline float DtwInsertedB(const float* b, size_t n, size_t w, size_t s,
                          size_t lanes, size_t r) {
  return DtwPaddedB(b, n,
                    static_cast<ptrdiff_t>(r + (s - 1) * lanes - 1 - w));
}

// ------------------------------------------------------------------ SSE
// x86-64 baseline (SSE2) — always available, no target attribute needed.

inline float HorizontalSum128(__m128 v) {
  const __m128 hi = _mm_movehl_ps(v, v);           // lanes [2,3,·,·]
  const __m128 sum2 = _mm_add_ps(v, hi);           // [0+2, 1+3, ·, ·]
  const __m128 lane1 = _mm_shuffle_ps(sum2, sum2, 0x55);
  return _mm_cvtss_f32(_mm_add_ss(sum2, lane1));
}

ODYSSEY_HOT float SquaredEuclideanSseK(const float* a, const float* b, size_t n) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  }
  float sum = HorizontalSum128(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float SquaredEuclideanEarlyAbandonSseK(const float* a, const float* b,
                                       size_t n, float threshold) {
  __m128 acc = _mm_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t k = 0; k < 16; k += 4) {
      const __m128 d =
          _mm_sub_ps(_mm_loadu_ps(a + i + k), _mm_loadu_ps(b + i + k));
      acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    i += 16;
    sum = HorizontalSum128(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

inline __m128 LbKeoghGap128(const float* upper, const float* lower,
                            const float* candidate) {
  const __m128 c = _mm_loadu_ps(candidate);
  const __m128 du = _mm_sub_ps(c, _mm_loadu_ps(upper));
  const __m128 dl = _mm_sub_ps(_mm_loadu_ps(lower), c);
  return _mm_max_ps(_mm_max_ps(du, dl), _mm_setzero_ps());
}

ODYSSEY_HOT float LbKeoghSseK(const float* upper, const float* lower,
                  const float* candidate, size_t n) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 d = LbKeoghGap128(upper + i, lower + i, candidate + i);
    acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  }
  float sum = HorizontalSum128(acc);
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT float LbKeoghEarlyAbandonSseK(const float* upper, const float* lower,
                              const float* candidate, size_t n,
                              float threshold) {
  __m128 acc = _mm_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  while (i + 16 <= n) {
    for (size_t k = 0; k < 16; k += 4) {
      const __m128 d =
          LbKeoghGap128(upper + i + k, lower + i + k, candidate + i + k);
      acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    i += 16;
    sum = HorizontalSum128(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_HOT void PaaSseK(const float* series, size_t n, int segments, double* out) {
  size_t begin = 0;
  for (int i = 0; i < segments; ++i) {
    const size_t end =
        (static_cast<size_t>(i) + 1) * n / static_cast<size_t>(segments);
    // Two independent accumulators keep the add_pd latency chains off the
    // critical path (a segment is typically 16 points: 4 iterations here).
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    size_t t = begin;
    for (; t + 4 <= end; t += 4) {
      const __m128 v = _mm_loadu_ps(series + t);
      acc0 = _mm_add_pd(acc0, _mm_cvtps_pd(v));
      acc1 = _mm_add_pd(acc1, _mm_cvtps_pd(_mm_movehl_ps(v, v)));
    }
    const __m128d acc = _mm_add_pd(acc0, acc1);
    double sum = _mm_cvtsd_f64(acc) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
    for (; t < end; ++t) sum += series[t];
    out[i] = sum / static_cast<double>(end - begin);
    begin = end;
  }
}

/// MaxMinPassScalar, four lanes at a time, rounding len up to whole
/// vectors (see kProjectionSlack).
inline void MaxMinPass128(float* hi, float* lo, size_t len, size_t shift) {
  for (size_t i = 0; i < len; i += 4) {
    _mm_storeu_ps(hi + i, _mm_max_ps(_mm_loadu_ps(hi + i),
                                     _mm_loadu_ps(hi + i + shift)));
    _mm_storeu_ps(lo + i, _mm_min_ps(_mm_loadu_ps(lo + i),
                                     _mm_loadu_ps(lo + i + shift)));
  }
}

ODYSSEY_HOT float LbImprovedSecondPassSseK(const float* query,
                                           const float* upper,
                                           const float* lower,
                                           const float* candidate, size_t n,
                                           size_t window, float threshold,
                                           float* scratch) {
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const ProjectionBuffers buf = PadProjection(n, w, scratch);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 h = _mm_min_ps(
        _mm_max_ps(_mm_loadu_ps(candidate + i), _mm_loadu_ps(lower + i)),
        _mm_loadu_ps(upper + i));
    _mm_storeu_ps(buf.hi + w + i, h);
    _mm_storeu_ps(buf.lo + w + i, h);
  }
  for (; i < n; ++i) {
    buf.hi[w + i] = buf.lo[w + i] =
        ClampToBand(candidate[i], lower[i], upper[i]);
  }
  const size_t span = 2 * w + 1;
  size_t len = n + 2 * w;
  size_t s = 1;
  for (; 2 * s <= span; s *= 2) {
    len -= s;
    MaxMinPass128(buf.hi, buf.lo, len, s);
  }
  if (span > s) MaxMinPass128(buf.hi, buf.lo, n, span - s);
  return LbKeoghEarlyAbandonSseK(buf.hi, buf.lo, query, n, threshold);
}

constexpr KernelTable kSseTable = {
    Isa::kSse,
    SquaredEuclideanSseK,
    SquaredEuclideanEarlyAbandonSseK,
    LbKeoghSseK,
    LbKeoghEarlyAbandonSseK,
    PaaSseK,
    DtwScalarK,  // the wavefront kernels start at AVX2
    LbImprovedSecondPassSseK,
};

// ----------------------------------------------------------------- AVX2
// Compiled with per-function target attributes so the rest of the library
// keeps the baseline ISA; only ever called after a CPUID check.

#define ODYSSEY_TARGET_AVX2 __attribute__((target("avx2,fma")))

ODYSSEY_TARGET_AVX2 inline float HorizontalSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  return HorizontalSum128(_mm_add_ps(lo, hi));
}

// Aligned-load fast path predicate: every operand sits on a 32-byte
// boundary, so the kernel may use vmovaps and — when the length is a lane
// multiple — drop the scalar tail entirely. SeriesCollection allocates its
// storage 64-byte aligned, so for the common series lengths (multiples of
// 8) every row qualifies. The fast paths keep the exact accumulation order
// of the generic loops (same lane striping, FMA, and abandon cadence), so
// results are bit-identical — asserted by the distance property tests.
inline bool Aligned32(const float* p) {
  return (reinterpret_cast<uintptr_t>(p) & 31u) == 0;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float SquaredEuclideanAvx2K(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  if (n % 8 == 0 && Aligned32(a) && Aligned32(b)) {
    for (size_t i = 0; i < n; i += 8) {
      const __m256 d =
          _mm256_sub_ps(_mm256_load_ps(a + i), _mm256_load_ps(b + i));
      acc = _mm256_fmadd_ps(d, d, acc);
    }
    return HorizontalSum256(acc);
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float sum = HorizontalSum256(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float SquaredEuclideanEarlyAbandonAvx2K(const float* a, const float* b,
                                        size_t n, float threshold) {
  __m256 acc = _mm256_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  if (n % 16 == 0 && Aligned32(a) && Aligned32(b)) {
    // Tail-free aligned variant of the loop below (the 16-point abandon
    // block matches the lane unroll, so n % 16 == 0 leaves no remainder).
    while (i < n) {
      const __m256 d0 =
          _mm256_sub_ps(_mm256_load_ps(a + i), _mm256_load_ps(b + i));
      acc = _mm256_fmadd_ps(d0, d0, acc);
      const __m256 d1 =
          _mm256_sub_ps(_mm256_load_ps(a + i + 8), _mm256_load_ps(b + i + 8));
      acc = _mm256_fmadd_ps(d1, d1, acc);
      i += 16;
      sum = HorizontalSum256(acc);
      if (sum >= threshold) return sum;
    }
    return sum;
  }
  // Two unrolled 8-lane FMAs per iteration, threshold check per 16 points.
  while (i + 16 <= n) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(d0, d0, acc);
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc = _mm256_fmadd_ps(d1, d1, acc);
    i += 16;
    sum = HorizontalSum256(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2 inline __m256 LbKeoghGap256(const float* upper,
                                                const float* lower,
                                                const float* candidate) {
  const __m256 c = _mm256_loadu_ps(candidate);
  const __m256 du = _mm256_sub_ps(c, _mm256_loadu_ps(upper));
  const __m256 dl = _mm256_sub_ps(_mm256_loadu_ps(lower), c);
  return _mm256_max_ps(_mm256_max_ps(du, dl), _mm256_setzero_ps());
}

ODYSSEY_TARGET_AVX2 inline __m256 LbKeoghGap256Aligned(
    const float* upper, const float* lower, const float* candidate) {
  const __m256 c = _mm256_load_ps(candidate);
  const __m256 du = _mm256_sub_ps(c, _mm256_load_ps(upper));
  const __m256 dl = _mm256_sub_ps(_mm256_load_ps(lower), c);
  return _mm256_max_ps(_mm256_max_ps(du, dl), _mm256_setzero_ps());
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float LbKeoghAvx2K(const float* upper, const float* lower,
                   const float* candidate, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  if (n % 8 == 0 && Aligned32(upper) && Aligned32(lower) &&
      Aligned32(candidate)) {
    for (size_t i = 0; i < n; i += 8) {
      const __m256 d =
          LbKeoghGap256Aligned(upper + i, lower + i, candidate + i);
      acc = _mm256_fmadd_ps(d, d, acc);
    }
    return HorizontalSum256(acc);
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = LbKeoghGap256(upper + i, lower + i, candidate + i);
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float sum = HorizontalSum256(acc);
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float LbKeoghEarlyAbandonAvx2K(const float* upper, const float* lower,
                               const float* candidate, size_t n,
                               float threshold) {
  __m256 acc = _mm256_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  if (n % 16 == 0 && Aligned32(upper) && Aligned32(lower) &&
      Aligned32(candidate)) {
    while (i < n) {
      const __m256 d0 =
          LbKeoghGap256Aligned(upper + i, lower + i, candidate + i);
      acc = _mm256_fmadd_ps(d0, d0, acc);
      const __m256 d1 = LbKeoghGap256Aligned(upper + i + 8, lower + i + 8,
                                             candidate + i + 8);
      acc = _mm256_fmadd_ps(d1, d1, acc);
      i += 16;
      sum = HorizontalSum256(acc);
      if (sum >= threshold) return sum;
    }
    return sum;
  }
  while (i + 16 <= n) {
    const __m256 d0 = LbKeoghGap256(upper + i, lower + i, candidate + i);
    acc = _mm256_fmadd_ps(d0, d0, acc);
    const __m256 d1 =
        LbKeoghGap256(upper + i + 8, lower + i + 8, candidate + i + 8);
    acc = _mm256_fmadd_ps(d1, d1, acc);
    i += 16;
    sum = HorizontalSum256(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT void PaaAvx2K(const float* series, size_t n, int segments, double* out) {
  size_t begin = 0;
  for (int i = 0; i < segments; ++i) {
    const size_t end =
        (static_cast<size_t>(i) + 1) * n / static_cast<size_t>(segments);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    size_t t = begin;
    for (; t + 8 <= end; t += 8) {
      acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm_loadu_ps(series + t)));
      acc1 =
          _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm_loadu_ps(series + t + 4)));
    }
    const __m256d acc = _mm256_add_pd(acc0, acc1);
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                    _mm256_extractf128_pd(acc, 1));
    double sum = _mm_cvtsd_f64(pair) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
    for (; t < end; ++t) sum += series[t];
    out[i] = sum / static_cast<double>(end - begin);
    begin = end;
  }
}

/// Rotates x up one lane: lane l takes lane l-1, lane 0 takes lane 7.
ODYSSEY_TARGET_AVX2 inline __m256 RotateUp256(__m256 x) {
  return _mm256_permutevar8x32_ps(x, _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6));
}

/// All-ones in lane `lane`, zero elsewhere: the AVX2 stand-in for a mask.
ODYSSEY_TARGET_AVX2 inline __m256 LaneMask256(size_t lane) {
  return _mm256_castsi256_ps(
      _mm256_cmpeq_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(lane))));
}

/// The 8-lane wavefront (see "DTW wavefront" above) at row spacing s.
/// Without kRing (s = 2) up and b come from the previous step's registers.
/// With kRing (any s >= 3) the last s-1 steps' vectors sit in `ring`,
/// 64-byte aligned: s-1 cell vectors, then s-1 b vectors. As s is
/// ceil((2w+1)/L) there, (s-1) * L < 2w + 1, so the ring fits
/// DtwScratchFloats(n).
template <bool kRing>
ODYSSEY_TARGET_AVX2 inline float DtwWavefront256(const float* a,
                                                 const float* b, size_t n,
                                                 size_t w, size_t s,
                                                 float threshold,
                                                 float* ring) {
  constexpr size_t kLanes = 8;
  const size_t depth = s - 1;
  float* const v_ring = ring;
  float* const b_ring = ring + depth * kLanes;
  const __m256 inf = _mm256_set1_ps(kInf);
  const __m256i band_hi = _mm256_set1_epi32(static_cast<int>(2 * w));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256 vthreshold = _mm256_set1_ps(threshold);
  // Without the ring (s = 2), b_prev holds the b vector of step t-1.
  __m256 b_prev = inf;
  alignas(32) float initial_b[kLanes];
  for (size_t i = 0; i < depth; ++i) {
    DtwInitialB(b, n, w, s, kLanes, -1 - static_cast<ptrdiff_t>(i),
                initial_b);
    // Ring slot i holds step i - depth: step -1-i sits in slot depth-1-i.
    if constexpr (kRing) {
      _mm256_store_ps(v_ring + (depth - 1 - i) * kLanes, inf);
      _mm256_store_ps(b_ring + (depth - 1 - i) * kLanes,
                      _mm256_load_ps(initial_b));
    } else {
      b_prev = _mm256_load_ps(initial_b);
    }
  }
  __m256 va = inf;
  __m256 v = inf;
  __m256 diag = inf;
  __m256 row_min = inf;
  __m256i k = _mm256_setzero_si256();
  __m256i row_end = _mm256_set1_epi32(-1);
  const size_t last_step = s * (n - 1) + w;
  // Steps per row start; a constant 2 lets the register path unroll.
  const size_t group = kRing ? s : 2;
  size_t slot = 0;
  for (size_t row = 0, t = 0;; ++row) {
    const __m256 start = LaneMask256(row % kLanes);
    const bool real = row < n;
    va = _mm256_blendv_ps(va, _mm256_set1_ps(real ? a[row] : kInf), start);
    row_end = _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(row_end),
        _mm256_castsi256_ps(
            _mm256_set1_epi32(real ? DtwRowEnd(n, w, row) : -1)),
        start));
    k = _mm256_castps_si256(
        _mm256_andnot_ps(start, _mm256_castsi256_ps(k)));
    row_min = _mm256_blendv_ps(row_min, inf, start);
    for (size_t phase = 0; phase < group; ++phase, ++t) {
      __m256 up;
      __m256 bv;
      if constexpr (kRing) {
        up = RotateUp256(_mm256_load_ps(v_ring + slot * kLanes));
        bv = RotateUp256(_mm256_load_ps(b_ring + slot * kLanes));
      } else {
        up = RotateUp256(v);
        bv = RotateUp256(b_prev);
      }
      if (phase == group - 1) {
        bv = _mm256_blendv_ps(
            bv, _mm256_set1_ps(DtwInsertedB(b, n, w, s, kLanes, row + 1)),
            LaneMask256((row + 1) % kLanes));
      }
      if (t == w) diag = _mm256_blend_ps(diag, _mm256_setzero_ps(), 0x01);
      const __m256 d = _mm256_sub_ps(va, bv);
      // 0 <= k <= 2w as one unsigned compare: min_epu32(k, 2w) == k.
      const __m256i in_band =
          _mm256_cmpeq_epi32(_mm256_min_epu32(k, band_hi), k);
      const __m256 cost = _mm256_blendv_ps(inf, _mm256_mul_ps(d, d),
                                           _mm256_castsi256_ps(in_band));
      // In the ring, up is from s-1 >= 2 steps back: min(diag, up) is off
      // the chain.
      v = !kRing
              ? _mm256_add_ps(cost, _mm256_min_ps(_mm256_min_ps(v, diag), up))
              : _mm256_add_ps(cost, _mm256_min_ps(v, _mm256_min_ps(diag, up)));
      diag = up;
      if constexpr (kRing) {
        _mm256_store_ps(v_ring + slot * kLanes, v);
        _mm256_store_ps(b_ring + slot * kLanes, bv);
        if (++slot == depth) slot = 0;
      } else {
        b_prev = bv;
      }
      row_min = _mm256_min_ps(row_min, v);
      const int abandon = _mm256_movemask_ps(_mm256_and_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, row_end)),
          _mm256_cmp_ps(row_min, vthreshold, _CMP_GE_OQ)));
      if (abandon != 0) {
        alignas(32) float lanes_out[kLanes];
        _mm256_store_ps(lanes_out, row_min);
        return lanes_out[__builtin_ctz(static_cast<unsigned>(abandon))];
      }
      if (t == last_step) {
        alignas(32) float lanes_out[kLanes];
        _mm256_store_ps(lanes_out, v);
        return lanes_out[(n - 1) % kLanes];
      }
      k = _mm256_add_epi32(k, one);
    }
  }
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float DtwAvx2K(const float* a, const float* b, size_t n,
                           size_t window, float threshold, float* scratch) {
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const size_t s = DtwRowSpacing(w, 8);
  if (s == 2) return DtwWavefront256<false>(a, b, n, w, s, threshold, scratch);
  return DtwWavefront256<true>(a, b, n, w, s, threshold, AlignTo64(scratch));
}

ODYSSEY_TARGET_AVX2 inline void MaxMinPass256(float* hi, float* lo,
                                               size_t len, size_t shift) {
  for (size_t i = 0; i < len; i += 8) {
    _mm256_storeu_ps(hi + i, _mm256_max_ps(_mm256_loadu_ps(hi + i),
                                           _mm256_loadu_ps(hi + i + shift)));
    _mm256_storeu_ps(lo + i, _mm256_min_ps(_mm256_loadu_ps(lo + i),
                                           _mm256_loadu_ps(lo + i + shift)));
  }
}

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float LbImprovedSecondPassAvx2K(const float* query,
                                            const float* upper,
                                            const float* lower,
                                            const float* candidate, size_t n,
                                            size_t window, float threshold,
                                            float* scratch) {
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const ProjectionBuffers buf = PadProjection(n, w, scratch);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 h = _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(candidate + i),
                                                 _mm256_loadu_ps(lower + i)),
                                   _mm256_loadu_ps(upper + i));
    _mm256_storeu_ps(buf.hi + w + i, h);
    _mm256_storeu_ps(buf.lo + w + i, h);
  }
  for (; i < n; ++i) {
    buf.hi[w + i] = buf.lo[w + i] =
        ClampToBand(candidate[i], lower[i], upper[i]);
  }
  const size_t span = 2 * w + 1;
  size_t len = n + 2 * w;
  size_t s = 1;
  for (; 2 * s <= span; s *= 2) {
    len -= s;
    MaxMinPass256(buf.hi, buf.lo, len, s);
  }
  if (span > s) MaxMinPass256(buf.hi, buf.lo, n, span - s);
  return LbKeoghEarlyAbandonAvx2K(buf.hi, buf.lo, query, n, threshold);
}

constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,
    SquaredEuclideanAvx2K,
    SquaredEuclideanEarlyAbandonAvx2K,
    LbKeoghAvx2K,
    LbKeoghEarlyAbandonAvx2K,
    PaaAvx2K,
    DtwAvx2K,
    LbImprovedSecondPassAvx2K,
};

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

// -------------------------------------------------------------- AVX-512
// F+DQ only (DQ for the 256-bit extract in the horizontal sum): the widest
// deployed AVX-512 baseline, present on every Skylake-SP+ server part. Same
// per-function target-attribute scheme as AVX2, only called after CPUID.

#define ODYSSEY_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,fma")))

ODYSSEY_TARGET_AVX512 inline float HorizontalSum512(__m512 v) {
  const __m256 half = _mm256_add_ps(_mm512_castps512_ps256(v),
                                    _mm512_extractf32x8_ps(v, 1));
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(half),
                        _mm256_extractf128_ps(half, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  return _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55)));
}

// 64-byte variant of the Aligned32 fast-path predicate: SeriesCollection
// rows are 64-byte aligned, so lane-multiple lengths take vmovaps with no
// scalar tail. Same bit-identity promise as AVX2: the fast path keeps the
// generic loop's exact accumulation order.
inline bool Aligned64(const float* p) {
  return (reinterpret_cast<uintptr_t>(p) & 63u) == 0;
}

ODYSSEY_TARGET_AVX512
ODYSSEY_HOT float SquaredEuclideanAvx512K(const float* a, const float* b, size_t n) {
  __m512 acc = _mm512_setzero_ps();
  if (n % 16 == 0 && Aligned64(a) && Aligned64(b)) {
    for (size_t i = 0; i < n; i += 16) {
      const __m512 d =
          _mm512_sub_ps(_mm512_load_ps(a + i), _mm512_load_ps(b + i));
      acc = _mm512_fmadd_ps(d, d, acc);
    }
    return HorizontalSum512(acc);
  }
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  float sum = HorizontalSum512(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX512
ODYSSEY_HOT float SquaredEuclideanEarlyAbandonAvx512K(const float* a, const float* b,
                                          size_t n, float threshold) {
  // The 16-point abandon block is exactly one 512-bit vector, so the
  // cadence costs one horizontal sum per FMA — the tier where checking
  // every block is cheapest.
  __m512 acc = _mm512_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  if (n % 16 == 0 && Aligned64(a) && Aligned64(b)) {
    while (i < n) {
      const __m512 d =
          _mm512_sub_ps(_mm512_load_ps(a + i), _mm512_load_ps(b + i));
      acc = _mm512_fmadd_ps(d, d, acc);
      i += 16;
      sum = HorizontalSum512(acc);
      if (sum >= threshold) return sum;
    }
    return sum;
  }
  while (i + 16 <= n) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc = _mm512_fmadd_ps(d, d, acc);
    i += 16;
    sum = HorizontalSum512(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX512 inline __m512 LbKeoghGap512(const float* upper,
                                                  const float* lower,
                                                  const float* candidate) {
  const __m512 c = _mm512_loadu_ps(candidate);
  const __m512 du = _mm512_sub_ps(c, _mm512_loadu_ps(upper));
  const __m512 dl = _mm512_sub_ps(_mm512_loadu_ps(lower), c);
  return _mm512_max_ps(_mm512_max_ps(du, dl), _mm512_setzero_ps());
}

ODYSSEY_TARGET_AVX512 inline __m512 LbKeoghGap512Aligned(
    const float* upper, const float* lower, const float* candidate) {
  const __m512 c = _mm512_load_ps(candidate);
  const __m512 du = _mm512_sub_ps(c, _mm512_load_ps(upper));
  const __m512 dl = _mm512_sub_ps(_mm512_load_ps(lower), c);
  return _mm512_max_ps(_mm512_max_ps(du, dl), _mm512_setzero_ps());
}

ODYSSEY_TARGET_AVX512
ODYSSEY_HOT float LbKeoghAvx512K(const float* upper, const float* lower,
                     const float* candidate, size_t n) {
  __m512 acc = _mm512_setzero_ps();
  if (n % 16 == 0 && Aligned64(upper) && Aligned64(lower) &&
      Aligned64(candidate)) {
    for (size_t i = 0; i < n; i += 16) {
      const __m512 d =
          LbKeoghGap512Aligned(upper + i, lower + i, candidate + i);
      acc = _mm512_fmadd_ps(d, d, acc);
    }
    return HorizontalSum512(acc);
  }
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 d = LbKeoghGap512(upper + i, lower + i, candidate + i);
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  float sum = HorizontalSum512(acc);
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

ODYSSEY_TARGET_AVX512
ODYSSEY_HOT float LbKeoghEarlyAbandonAvx512K(const float* upper, const float* lower,
                                 const float* candidate, size_t n,
                                 float threshold) {
  __m512 acc = _mm512_setzero_ps();
  float sum = 0.0f;
  size_t i = 0;
  if (n % 16 == 0 && Aligned64(upper) && Aligned64(lower) &&
      Aligned64(candidate)) {
    while (i < n) {
      const __m512 d =
          LbKeoghGap512Aligned(upper + i, lower + i, candidate + i);
      acc = _mm512_fmadd_ps(d, d, acc);
      i += 16;
      sum = HorizontalSum512(acc);
      if (sum >= threshold) return sum;
    }
    return sum;
  }
  while (i + 16 <= n) {
    const __m512 d = LbKeoghGap512(upper + i, lower + i, candidate + i);
    acc = _mm512_fmadd_ps(d, d, acc);
    i += 16;
    sum = HorizontalSum512(acc);
    if (sum >= threshold) return sum;
  }
  for (; i < n; ++i) {
    const float d = LbKeoghPointGap(upper[i], lower[i], candidate[i]);
    sum += d * d;
  }
  return sum;
}

/// Rotates x up one lane: lane l takes lane l-1, lane 0 takes lane 15
/// (valignd of x with itself).
ODYSSEY_TARGET_AVX512 inline __m512 RotateUp512(__m512 x) {
  const __m512i xi = _mm512_castps_si512(x);
  return _mm512_castsi512_ps(_mm512_alignr_epi32(xi, xi, 15));
}

/// The 16-lane wavefront (see "DTW wavefront" above), as DtwWavefront256.
template <bool kRing>
ODYSSEY_TARGET_AVX512 inline float DtwWavefront512(const float* a,
                                                   const float* b, size_t n,
                                                   size_t w, size_t s,
                                                   float threshold,
                                                   float* ring) {
  constexpr size_t kLanes = 16;
  const size_t depth = s - 1;
  float* const v_ring = ring;
  float* const b_ring = ring + depth * kLanes;
  const __m512 inf = _mm512_set1_ps(kInf);
  const __m512i band_hi = _mm512_set1_epi32(static_cast<int>(2 * w));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512 vthreshold = _mm512_set1_ps(threshold);
  // Without the ring (s = 2), b_prev holds the b vector of step t-1.
  __m512 b_prev = inf;
  alignas(64) float initial_b[kLanes];
  for (size_t i = 0; i < depth; ++i) {
    DtwInitialB(b, n, w, s, kLanes, -1 - static_cast<ptrdiff_t>(i),
                initial_b);
    // Ring slot i holds step i - depth: step -1-i sits in slot depth-1-i.
    if constexpr (kRing) {
      _mm512_store_ps(v_ring + (depth - 1 - i) * kLanes, inf);
      _mm512_store_ps(b_ring + (depth - 1 - i) * kLanes,
                      _mm512_load_ps(initial_b));
    } else {
      b_prev = _mm512_load_ps(initial_b);
    }
  }
  __m512 va = inf;
  __m512 v = inf;
  __m512 diag = inf;
  __m512 row_min = inf;
  __m512i k = _mm512_setzero_si512();
  __m512i row_end = _mm512_set1_epi32(-1);
  const size_t last_step = s * (n - 1) + w;
  // Steps per row start; a constant 2 lets the register path unroll.
  const size_t group = kRing ? s : 2;
  size_t slot = 0;
  for (size_t row = 0, t = 0;; ++row) {
    const __mmask16 start = static_cast<__mmask16>(1u << (row % kLanes));
    const bool real = row < n;
    va = _mm512_mask_mov_ps(va, start, _mm512_set1_ps(real ? a[row] : kInf));
    row_end = _mm512_mask_mov_epi32(
        row_end, start, _mm512_set1_epi32(real ? DtwRowEnd(n, w, row) : -1));
    k = _mm512_maskz_mov_epi32(static_cast<__mmask16>(~start), k);
    row_min = _mm512_mask_mov_ps(row_min, start, inf);
    for (size_t phase = 0; phase < group; ++phase, ++t) {
      __m512 up;
      __m512 bv;
      if constexpr (kRing) {
        up = RotateUp512(_mm512_load_ps(v_ring + slot * kLanes));
        bv = RotateUp512(_mm512_load_ps(b_ring + slot * kLanes));
      } else {
        up = RotateUp512(v);
        bv = RotateUp512(b_prev);
      }
      if (phase == group - 1) {
        bv = _mm512_mask_mov_ps(
            bv, static_cast<__mmask16>(1u << ((row + 1) % kLanes)),
            _mm512_set1_ps(DtwInsertedB(b, n, w, s, kLanes, row + 1)));
      }
      if (t == w) diag = _mm512_mask_mov_ps(diag, 1, _mm512_setzero_ps());
      const __m512 d = _mm512_sub_ps(va, bv);
      const __mmask16 in_band = _mm512_cmple_epu32_mask(k, band_hi);
      const __m512 cost = _mm512_mask_mul_ps(inf, in_band, d, d);
      // In the ring, up is from s-1 >= 2 steps back: min(diag, up) is off
      // the chain.
      v = !kRing
              ? _mm512_add_ps(cost, _mm512_min_ps(_mm512_min_ps(v, diag), up))
              : _mm512_add_ps(cost, _mm512_min_ps(v, _mm512_min_ps(diag, up)));
      diag = up;
      if constexpr (kRing) {
        _mm512_store_ps(v_ring + slot * kLanes, v);
        _mm512_store_ps(b_ring + slot * kLanes, bv);
        if (++slot == depth) slot = 0;
      } else {
        b_prev = bv;
      }
      row_min = _mm512_min_ps(row_min, v);
      const __mmask16 abandon = _mm512_mask_cmp_ps_mask(
          _mm512_cmpeq_epi32_mask(k, row_end), row_min, vthreshold,
          _CMP_GE_OQ);
      if (abandon != 0) {
        alignas(64) float lanes_out[kLanes];
        _mm512_store_ps(lanes_out, row_min);
        return lanes_out[__builtin_ctz(abandon)];
      }
      if (t == last_step) {
        alignas(64) float lanes_out[kLanes];
        _mm512_store_ps(lanes_out, v);
        return lanes_out[(n - 1) % kLanes];
      }
      k = _mm512_add_epi32(k, one);
    }
  }
}

ODYSSEY_TARGET_AVX512
ODYSSEY_HOT float DtwAvx512K(const float* a, const float* b, size_t n,
                             size_t window, float threshold, float* scratch) {
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const size_t s = DtwRowSpacing(w, 16);
  if (s == 2) return DtwWavefront512<false>(a, b, n, w, s, threshold, scratch);
  return DtwWavefront512<true>(a, b, n, w, s, threshold, AlignTo64(scratch));
}

ODYSSEY_TARGET_AVX512 inline void MaxMinPass512(float* hi, float* lo,
                                                 size_t len, size_t shift) {
  for (size_t i = 0; i < len; i += 16) {
    _mm512_storeu_ps(hi + i, _mm512_max_ps(_mm512_loadu_ps(hi + i),
                                           _mm512_loadu_ps(hi + i + shift)));
    _mm512_storeu_ps(lo + i, _mm512_min_ps(_mm512_loadu_ps(lo + i),
                                           _mm512_loadu_ps(lo + i + shift)));
  }
}

ODYSSEY_TARGET_AVX512
ODYSSEY_HOT float LbImprovedSecondPassAvx512K(const float* query,
                                              const float* upper,
                                              const float* lower,
                                              const float* candidate,
                                              size_t n, size_t window,
                                              float threshold,
                                              float* scratch) {
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const ProjectionBuffers buf = PadProjection(n, w, scratch);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 h = _mm512_min_ps(_mm512_max_ps(_mm512_loadu_ps(candidate + i),
                                                 _mm512_loadu_ps(lower + i)),
                                   _mm512_loadu_ps(upper + i));
    _mm512_storeu_ps(buf.hi + w + i, h);
    _mm512_storeu_ps(buf.lo + w + i, h);
  }
  for (; i < n; ++i) {
    buf.hi[w + i] = buf.lo[w + i] =
        ClampToBand(candidate[i], lower[i], upper[i]);
  }
  const size_t span = 2 * w + 1;
  size_t len = n + 2 * w;
  size_t s = 1;
  for (; 2 * s <= span; s *= 2) {
    len -= s;
    MaxMinPass512(buf.hi, buf.lo, len, s);
  }
  if (span > s) MaxMinPass512(buf.hi, buf.lo, n, span - s);
  return LbKeoghEarlyAbandonAvx512K(buf.hi, buf.lo, query, n, threshold);
}

// PAA delegates to the AVX2 kernel: a 512-bit version measured 3-15%
// slower than AVX2 on a 4-core AVX-512 host, its short segments leaving the
// wider vectors little to do.
constexpr KernelTable kAvx512Table = {
    Isa::kAvx512,
    SquaredEuclideanAvx512K,
    SquaredEuclideanEarlyAbandonAvx512K,
    LbKeoghAvx512K,
    LbKeoghEarlyAbandonAvx512K,
    PaaAvx2K,
    DtwAvx512K,
    LbImprovedSecondPassAvx512K,
};

bool CpuHasAvx512() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") && CpuHasAvx2Fma();
}

#endif  // defined(ODYSSEY_X86)

// ------------------------------------------------------------- dispatch

Isa BestSupportedIsa() {
#if defined(ODYSSEY_X86)
  if (CpuHasAvx512()) return Isa::kAvx512;
  return CpuHasAvx2Fma() ? Isa::kAvx2 : Isa::kSse;
#else
  return Isa::kScalar;
#endif
}

Isa ResolveIsa() {
  Isa isa = BestSupportedIsa();
  const char* env = std::getenv("ODYSSEY_SIMD");
  if (env != nullptr) {
    Isa requested = isa;  // unknown values and "auto" keep the best ISA
    if (std::strcmp(env, "scalar") == 0) {
      requested = Isa::kScalar;
    } else if (std::strcmp(env, "sse") == 0) {
      requested = Isa::kSse;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = Isa::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = Isa::kAvx512;
    }
    // The override can only lower the ISA: asking for one the CPU lacks
    // degrades to the best supported level instead of crashing.
    if (static_cast<int>(requested) < static_cast<int>(isa)) isa = requested;
  }
  return isa;
}

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
#if defined(ODYSSEY_X86)
    case Isa::kAvx512:
      return &kAvx512Table;
    case Isa::kAvx2:
      return &kAvx2Table;
    case Isa::kSse:
      return &kSseTable;
#else
    case Isa::kAvx512:
    case Isa::kAvx2:
    case Isa::kSse:
      return &kScalarTable;  // non-x86 builds carry only the scalar tier
#endif
    case Isa::kScalar:
      return &kScalarTable;
  }
  return &kScalarTable;  // unreachable; keeps -Wreturn-type satisfied
}

// Resolves the dispatched table once and, under ODYSSEY_SIMD_LOG, reports
// the choice to stderr — a silently degraded CI machine (e.g. AVX-512
// requested, SSE resolved) would otherwise poison cross-run baseline
// comparisons without a trace in the bench logs.
const KernelTable* ResolveActiveTable() {
  const Isa best = BestSupportedIsa();
  const Isa chosen = ResolveIsa();
  if (std::getenv("ODYSSEY_SIMD_LOG") != nullptr) {
    std::fprintf(stderr, "odyssey: simd tier %s (best supported %s)\n",
                 IsaName(chosen), IsaName(best));
  }
  return TableFor(chosen);
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse:
      return "sse";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";  // unreachable; keeps -Wreturn-type satisfied
}

const KernelTable& ScalarTable() { return kScalarTable; }

const KernelTable* SseTable() {
#if defined(ODYSSEY_X86)
  return &kSseTable;
#else
  return nullptr;
#endif
}

const KernelTable* Avx2Table() {
#if defined(ODYSSEY_X86)
  if (CpuHasAvx2Fma()) return &kAvx2Table;
#endif
  return nullptr;
}

const KernelTable* Avx512Table() {
#if defined(ODYSSEY_X86)
  if (CpuHasAvx512()) return &kAvx512Table;
#endif
  return nullptr;
}

const KernelTable& ActiveTable() {
  static const KernelTable* const table = ResolveActiveTable();
  return *table;
}

Isa ActiveIsa() { return ActiveTable().isa; }

}  // namespace simd
}  // namespace odyssey
