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
  float* hi = scratch;
  while ((reinterpret_cast<uintptr_t>(hi) & 63u) != 0) ++hi;
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
// The AVX2 and AVX-512 DTW kernels sweep the band in blocks of L rows as an
// anti-diagonal wavefront, lane l owning row i = i0 + l. In band coordinates
// k = j - i + w (0 <= k <= 2w), lane l computes cell k = t - 2l at step t,
// so no lane needs another lane's value from the same step:
//   left = (i, k-1)   the lane's own value from step t-1;
//   up   = (i-1, k+1) lane l-1's value from step t-1: the previous vector
//                     shifted up one lane, lane 0 taking the previous
//                     block's last row at k+1;
//   diag = (i-1, k)   lane l-1's value from step t-2: the previous up.
// Lane l reads b_j with j = i0 - w + t - l, which falls as l rises, so b is
// stored reversed and each step loads its b values with one contiguous
// load. Cells outside the band or the series cost +inf — the reversed b is
// padded with -inf, lanes past row n-1 take a = +inf, and the cost is
// masked to +inf outside 0 <= k <= 2w — so no blend sits on the
// loop-carried chain. Each cell is d * d + min(min(left, diag), up), the
// scalar kernel's arithmetic exactly (min is exact), so every cell is
// bit-identical to it. Each lane also tracks its row's minimum. At most one
// row completes per step, in row order, so checking the threshold on the
// lane that completes its row abandons after the same row as the scalar
// kernel, with the same value.

/// A wavefront kernel's view of its scratch (see PrepareDtwWavefront).
struct DtwWavefront {
  /// b reversed, rev_b[m] = b[n-1-m], padded with -inf over
  /// [-(w+L), 0) and [n, n+w+L).
  const float* rev_b;
  /// The band row above the current block (row i0-1), indexed by k over
  /// [-(2L-1), 2w+2L); +inf past 2w. Before the first block it is the
  /// virtual row -1: 0 at k = w (the diagonal predecessor of (0, 0)).
  float* band;
  /// band - (2L-1): step t of a block stores the last lane's step t-1
  /// value (cell k = t-2L+1 of the block's last row) at sink[t], which
  /// lane 0 of the current block has already read.
  float* sink;
};

/// Lays out scratch for L-lane blocks and clamped window w: the padded
/// reversed b (n + 2w + 2L floats), then the band row (2w + 4L - 1). At
/// most 5n + 6L floats, within DtwScratchFloats(n) for L <= kDtwMaxLanes.
inline DtwWavefront PrepareDtwWavefront(const float* b, size_t n, size_t w,
                                        size_t lanes, float* scratch) {
  const size_t pad = w + lanes;
  float* p = scratch;
  for (size_t m = 0; m < pad; ++m) *p++ = -kInf;
  for (size_t m = 0; m < n; ++m) *p++ = b[n - 1 - m];
  for (size_t m = 0; m < pad; ++m) *p++ = -kInf;
  float* sink = p;
  for (size_t m = 0; m < 2 * w + 4 * lanes - 1; ++m) sink[m] = kInf;
  float* band = sink + 2 * lanes - 1;
  band[w] = 0.0f;
  return {scratch + pad, band, sink};
}

/// Steps a wavefront block runs: all of it, or — in the block holding row
/// n-1, its lane `rows-1` — only up to that row's final cell k = w.
inline size_t DtwBlockSteps(size_t w, size_t lanes, size_t rows, bool last) {
  return last ? w + 2 * (rows - 1) + 1 : 2 * w + 2 * lanes - 1;
}

/// Per-lane inputs of the block starting at row i0: a_i, and the band column
/// of row i's last real cell, min(2w, n-1-i+w), where the row is complete.
/// Lanes past row n-1 take a = +inf and a column no step reaches.
inline void DtwBlockLanes(const float* a, size_t n, size_t w, size_t i0,
                          size_t lanes, float* a_lanes, int32_t* row_end) {
  for (size_t l = 0; l < lanes; ++l) {
    const size_t i = i0 + l;
    if (i < n) {
      a_lanes[l] = a[i];
      const size_t last_k = n - 1 - i + w;
      row_end[l] = static_cast<int32_t>(last_k < 2 * w ? last_k : 2 * w);
    } else {
      a_lanes[l] = kInf;
      row_end[l] = INT32_MAX;
    }
  }
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

ODYSSEY_TARGET_AVX2
ODYSSEY_HOT float DtwAvx2K(const float* a, const float* b, size_t n,
                           size_t window, float threshold, float* scratch) {
  constexpr size_t kLanes = 8;
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const DtwWavefront wf = PrepareDtwWavefront(b, n, w, kLanes, scratch);
  const __m256 inf = _mm256_set1_ps(kInf);
  const __m256i shift_up = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  const __m256i band_hi = _mm256_set1_epi32(static_cast<int>(2 * w));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256 vthreshold = _mm256_set1_ps(threshold);
  for (size_t i0 = 0;; i0 += kLanes) {
    const bool last = i0 + kLanes >= n;
    const size_t rows = last ? n - i0 : kLanes;
    const size_t steps = DtwBlockSteps(w, kLanes, rows, last);
    float a_lanes[kLanes];
    int32_t row_end_lanes[kLanes];
    DtwBlockLanes(a, n, w, i0, kLanes, a_lanes, row_end_lanes);
    const __m256 va = _mm256_loadu_ps(a_lanes);
    const __m256i row_end = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(row_end_lanes));
    const float* b_step = wf.rev_b + (n - 1 - i0 + w);
    __m256i k = _mm256_setr_epi32(0, -2, -4, -6, -8, -10, -12, -14);
    __m256 v = inf;
    __m256 diag = _mm256_blend_ps(inf, _mm256_broadcast_ss(wf.band), 0x01);
    __m256 row_min = inf;
    float lanes_out[kLanes];
    for (size_t t = 0; t < steps; ++t) {
      const __m256 shifted = _mm256_permutevar8x32_ps(v, shift_up);
      _mm_store_ss(wf.sink + t, _mm256_castps256_ps128(shifted));
      const __m256 up = _mm256_blend_ps(
          shifted, _mm256_broadcast_ss(wf.band + t + 1), 0x01);
      const __m256 d = _mm256_sub_ps(va, _mm256_loadu_ps(b_step - t));
      // 0 <= k <= 2w as one unsigned compare: min_epu32(k, 2w) == k.
      const __m256i in_band =
          _mm256_cmpeq_epi32(_mm256_min_epu32(k, band_hi), k);
      const __m256 cost = _mm256_blendv_ps(inf, _mm256_mul_ps(d, d),
                                           _mm256_castsi256_ps(in_band));
      v = _mm256_add_ps(cost, _mm256_min_ps(_mm256_min_ps(v, diag), up));
      diag = up;
      row_min = _mm256_min_ps(row_min, v);
      // At most one lane completes its row per step; abandon on it exactly
      // as the scalar kernel does after that row.
      const int abandon = _mm256_movemask_ps(_mm256_and_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, row_end)),
          _mm256_cmp_ps(row_min, vthreshold, _CMP_GE_OQ)));
      if (abandon != 0) {
        _mm256_storeu_ps(lanes_out, row_min);
        return lanes_out[__builtin_ctz(static_cast<unsigned>(abandon))];
      }
      k = _mm256_add_epi32(k, one);
    }
    if (last) {
      _mm256_storeu_ps(lanes_out, v);
      return lanes_out[rows - 1];
    }
    _mm_store_ss(wf.sink + steps, _mm256_castps256_ps128(
                                      _mm256_permutevar8x32_ps(v, shift_up)));
  }
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

ODYSSEY_TARGET_AVX512
ODYSSEY_HOT float DtwAvx512K(const float* a, const float* b, size_t n,
                             size_t window, float threshold, float* scratch) {
  constexpr size_t kLanes = 16;
  static_assert(kLanes <= kDtwMaxLanes, "DtwScratchFloats sizes 16 lanes");
  if (n == 0) return 0.0f;
  const size_t w = window < n ? window : n - 1;
  const DtwWavefront wf = PrepareDtwWavefront(b, n, w, kLanes, scratch);
  const __m512 inf = _mm512_set1_ps(kInf);
  const __m512i last_lane = _mm512_set1_epi32(15);
  const __m512i band_hi = _mm512_set1_epi32(static_cast<int>(2 * w));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512 vthreshold = _mm512_set1_ps(threshold);
  for (size_t i0 = 0;; i0 += kLanes) {
    const bool last = i0 + kLanes >= n;
    const size_t rows = last ? n - i0 : kLanes;
    const size_t steps = DtwBlockSteps(w, kLanes, rows, last);
    float a_lanes[kLanes];
    int32_t row_end_lanes[kLanes];
    DtwBlockLanes(a, n, w, i0, kLanes, a_lanes, row_end_lanes);
    const __m512 va = _mm512_loadu_ps(a_lanes);
    const __m512i row_end = _mm512_loadu_si512(row_end_lanes);
    const float* b_step = wf.rev_b + (n - 1 - i0 + w);
    __m512i k = _mm512_setr_epi32(0, -2, -4, -6, -8, -10, -12, -14, -16, -18,
                                  -20, -22, -24, -26, -28, -30);
    __m512 v = inf;
    __m512 diag = _mm512_mask_mov_ps(inf, 1, _mm512_set1_ps(wf.band[0]));
    __m512 row_min = inf;
    float lanes_out[kLanes];
    for (size_t t = 0; t < steps; ++t) {
      _mm_store_ss(wf.sink + t, _mm512_castps512_ps128(
                                    _mm512_permutexvar_ps(last_lane, v)));
      // valignd shifts v up one lane and fills lane 0 in one instruction.
      const __m512 up = _mm512_castsi512_ps(_mm512_alignr_epi32(
          _mm512_castps_si512(v),
          _mm512_castps_si512(_mm512_set1_ps(wf.band[t + 1])), 15));
      const __m512 d = _mm512_sub_ps(va, _mm512_loadu_ps(b_step - t));
      const __mmask16 in_band = _mm512_cmple_epu32_mask(k, band_hi);
      const __m512 cost = _mm512_mask_mul_ps(inf, in_band, d, d);
      v = _mm512_add_ps(cost, _mm512_min_ps(_mm512_min_ps(v, diag), up));
      diag = up;
      row_min = _mm512_min_ps(row_min, v);
      const __mmask16 abandon = _mm512_mask_cmp_ps_mask(
          _mm512_cmpeq_epi32_mask(k, row_end), row_min, vthreshold,
          _CMP_GE_OQ);
      if (abandon != 0) {
        _mm512_storeu_ps(lanes_out, row_min);
        return lanes_out[__builtin_ctz(abandon)];
      }
      k = _mm512_add_epi32(k, one);
    }
    if (last) {
      _mm512_storeu_ps(lanes_out, v);
      return lanes_out[rows - 1];
    }
    _mm_store_ss(wf.sink + steps, _mm512_castps512_ps128(
                                      _mm512_permutexvar_ps(last_lane, v)));
  }
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
