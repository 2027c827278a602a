#include "src/distance/simd.h"

#include "src/common/hotpath.h"

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

/// Block length for the DTW row kernels: the vectorizable parts (point cost
/// and the prev-row two-way min) are staged into stack buffers of this many
/// floats, then the loop-carried cur[j-1] dependency is folded in scalar.
constexpr size_t kDtwBlock = 128;

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

ODYSSEY_HOT float DtwRowScalarK(float ai, const float* b, const float* prev, float* cur,
                    size_t jlo, size_t jhi) {
  float row_min = kInf;
  size_t j = jlo;
  if (j == 0) {
    const float d = ai - b[0];
    cur[0] = d * d + prev[0];
    row_min = cur[0];
    j = 1;
  }
  for (; j <= jhi; ++j) {
    const float d = ai - b[j];
    float best = prev[j];
    if (prev[j - 1] < best) best = prev[j - 1];
    if (cur[j - 1] < best) best = cur[j - 1];
    cur[j] = d * d + best;
    if (cur[j] < row_min) row_min = cur[j];
  }
  return row_min;
}

constexpr KernelTable kScalarTable = {
    Isa::kScalar,
    SquaredEuclideanScalarK,
    SquaredEuclideanEarlyAbandonScalarK,
    LbKeoghScalarK,
    LbKeoghEarlyAbandonScalarK,
    PaaScalarK,
    DtwRowScalarK,
};

#if defined(ODYSSEY_X86)

// Scalar remainder of the staging arrays for lanes [t, len) of a DTW row
// block starting at column j — shared by the SSE and AVX2 row kernels so
// the two cannot drift apart.
inline void DtwStageTail(float ai, const float* b, const float* prev,
                         size_t j, size_t t, size_t len, float* cost,
                         float* s) {
  for (; t < len; ++t) {
    const float d = ai - b[j + t];
    cost[t] = d * d;
    const float pm =
        prev[j + t] < prev[j + t - 1] ? prev[j + t] : prev[j + t - 1];
    s[t] = cost[t] + pm;
  }
}

// Folds the cur[j-1] dependency chain over one staged block; returns the
// updated row minimum. cur[j] = min(s[j], cost[j] + cur[j-1]) equals
// cost[j] + min(prev[j], prev[j-1], cur[j-1]) bit-for-bit because float
// addition is monotone.
inline float DtwFoldBlock(const float* cost, const float* s, float* cur,
                          size_t j, size_t len, float row_min) {
  for (size_t t = 0; t < len; ++t) {
    const float left = cost[t] + cur[j + t - 1];
    const float v = s[t] < left ? s[t] : left;
    cur[j + t] = v;
    if (v < row_min) row_min = v;
  }
  return row_min;
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

ODYSSEY_HOT float DtwRowSseK(float ai, const float* b, const float* prev, float* cur,
                 size_t jlo, size_t jhi) {
  float row_min = kInf;
  size_t j = jlo;
  if (j == 0) {
    const float d = ai - b[0];
    cur[0] = d * d + prev[0];
    row_min = cur[0];
    j = 1;
  }
  // Stage the order-independent parts of each block with SIMD: the point
  // costs and s[j] = cost[j] + min(prev[j], prev[j-1]). The scalar fold
  // (DtwFoldBlock) then only carries the cur[j-1] chain. Costs use mul
  // (not FMA) so every ISA produces bit-identical DP rows.
  float cost[kDtwBlock];
  float s[kDtwBlock];
  const __m128 vai = _mm_set1_ps(ai);
  while (j <= jhi) {
    const size_t len = (jhi - j + 1 < kDtwBlock) ? jhi - j + 1 : kDtwBlock;
    size_t t = 0;
    for (; t + 4 <= len; t += 4) {
      const __m128 d = _mm_sub_ps(vai, _mm_loadu_ps(b + j + t));
      const __m128 c = _mm_mul_ps(d, d);
      _mm_storeu_ps(cost + t, c);
      const __m128 p0 = _mm_loadu_ps(prev + j + t);
      const __m128 p1 = _mm_loadu_ps(prev + j + t - 1);
      _mm_storeu_ps(s + t, _mm_add_ps(c, _mm_min_ps(p0, p1)));
    }
    DtwStageTail(ai, b, prev, j, t, len, cost, s);
    row_min = DtwFoldBlock(cost, s, cur, j, len, row_min);
    j += len;
  }
  return row_min;
}

constexpr KernelTable kSseTable = {
    Isa::kSse,
    SquaredEuclideanSseK,
    SquaredEuclideanEarlyAbandonSseK,
    LbKeoghSseK,
    LbKeoghEarlyAbandonSseK,
    PaaSseK,
    DtwRowSseK,
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
ODYSSEY_HOT float DtwRowAvx2K(float ai, const float* b, const float* prev, float* cur,
                  size_t jlo, size_t jhi) {
  float row_min = kInf;
  size_t j = jlo;
  if (j == 0) {
    const float d = ai - b[0];
    cur[0] = d * d + prev[0];
    row_min = cur[0];
    j = 1;
  }
  // Same staging scheme as the SSE row kernel (see its comment); 8 lanes.
  float cost[kDtwBlock];
  float s[kDtwBlock];
  const __m256 vai = _mm256_set1_ps(ai);
  while (j <= jhi) {
    const size_t len = (jhi - j + 1 < kDtwBlock) ? jhi - j + 1 : kDtwBlock;
    size_t t = 0;
    for (; t + 8 <= len; t += 8) {
      const __m256 d = _mm256_sub_ps(vai, _mm256_loadu_ps(b + j + t));
      const __m256 c = _mm256_mul_ps(d, d);
      _mm256_storeu_ps(cost + t, c);
      const __m256 p0 = _mm256_loadu_ps(prev + j + t);
      const __m256 p1 = _mm256_loadu_ps(prev + j + t - 1);
      _mm256_storeu_ps(s + t, _mm256_add_ps(c, _mm256_min_ps(p0, p1)));
    }
    DtwStageTail(ai, b, prev, j, t, len, cost, s);
    row_min = DtwFoldBlock(cost, s, cur, j, len, row_min);
    j += len;
  }
  return row_min;
}

constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,
    SquaredEuclideanAvx2K,
    SquaredEuclideanEarlyAbandonAvx2K,
    LbKeoghAvx2K,
    LbKeoghEarlyAbandonAvx2K,
    PaaAvx2K,
    DtwRowAvx2K,
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

// PAA and the DTW row delegate to the AVX2 kernels: 512-bit versions of
// both measured 3-15% slower than AVX2 on a 4-core AVX-512 host. PAA's
// short segments and the row's scalar cur[j-1] fold leave the wider
// vectors little to do.
constexpr KernelTable kAvx512Table = {
    Isa::kAvx512,
    SquaredEuclideanAvx512K,
    SquaredEuclideanEarlyAbandonAvx512K,
    LbKeoghAvx512K,
    LbKeoghEarlyAbandonAvx512K,
    PaaAvx2K,
    DtwRowAvx2K,
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
