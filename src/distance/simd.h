#ifndef ODYSSEY_DISTANCE_SIMD_H_
#define ODYSSEY_DISTANCE_SIMD_H_

#include <cstddef>

#include "src/common/hotpath.h"

namespace odyssey {
namespace simd {

/// Runtime-dispatched SIMD kernels for the distance hot path. Every kernel
/// has a slot at four ISA levels — portable scalar, SSE (x86-64 baseline),
/// AVX2+FMA and AVX-512 — grouped into per-ISA tables so that call sites
/// pay for dispatch once, not per distance computation. The AVX-512 table
/// reuses the AVX2 PAA kernel, which wider vectors do not speed up, and the
/// SSE table reuses the scalar DTW kernel. The active table is chosen at
/// first use from CPUID, overridable with the ODYSSEY_SIMD environment
/// variable ("scalar", "sse", "avx2", "avx512", "auto"); requesting an ISA
/// the CPU lacks silently degrades to the best supported one, so CI
/// machines without AVX2/AVX-512 run the same binaries. Set
/// ODYSSEY_SIMD_LOG=1 to print the resolved tier to stderr once, so bench
/// JSON runs are attributable to an ISA.
///
/// All kernels share the library's conventions: squared distances, float
/// series, and early-abandoning variants that return some value >=
/// `threshold` once the running sum provably crosses it, checked at the
/// same cadence at every ISA level: every 16 points for Euclidean and
/// LB_Keogh (and LB_Improved's second pass), every DP row for DTW.

enum class Isa {
  kScalar = 0,
  kSse = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Human-readable ISA name ("scalar", "sse", "avx2", "avx512").
const char* IsaName(Isa isa);

/// Every function bound into a KernelTable slot is a purity-checked hot
/// path (ODYSSEY_HOT, src/common/hotpath.h): kernels never allocate, lock,
/// throw or touch the OS. tools/check_hot_paths.py resolves the indirect
/// kernels_->xxx(...) call edges through these tables' positional
/// initializers in simd.cc and verifies the closure — a new kernel wired
/// into a slot without the annotation fails the static-analysis CI job.
struct KernelTable {
  Isa isa;

  /// Squared Euclidean distance over length-n series.
  float (*squared_euclidean)(const float* a, const float* b, size_t n);

  /// Early-abandoning squared Euclidean: exact when < threshold, otherwise
  /// some value >= threshold as soon as the running sum crosses it.
  float (*squared_euclidean_early_abandon)(const float* a, const float* b,
                                           size_t n, float threshold);

  /// Squared LB_Keogh of `candidate` against a precomputed warping envelope
  /// (upper/lower, both length n): sum of squared gaps outside the band.
  float (*lb_keogh)(const float* upper, const float* lower,
                    const float* candidate, size_t n);

  /// Early-abandoning squared LB_Keogh.
  float (*lb_keogh_early_abandon)(const float* upper, const float* lower,
                                  const float* candidate, size_t n,
                                  float threshold);

  /// PAA summarization: the mean of each of `segments` contiguous ranges of
  /// the length-n float series, written to out[0..segments). Boundaries are
  /// the integer partition [floor(i*n/w), floor((i+1)*n/w)) shared with
  /// PaaConfig. Accumulation is double at every ISA level; the vector
  /// levels stripe the per-segment sum across lanes, so results can differ
  /// from scalar by ordinary FP reassociation (property-tested to the same
  /// relative tolerance as the distance kernels).
  void (*paa)(const float* series, size_t n, int segments, double* out);

  /// Early-abandoning squared DTW of two length-n series under a
  /// Sakoe-Chiba band of `window` points (clamped to n - 1): exact when it
  /// is < threshold (pass +inf for the full DP); otherwise, as soon as a
  /// completed DP row's minimum is >= threshold, that minimum. `scratch`
  /// holds at least DtwScratchFloats(n) floats, owned by the caller.
  ///
  /// Every cell is cost + min(diag, up, left) with cost = d * d (mul, never
  /// FMA), and every level abandons after the same row, so results —
  /// abandoned or not — are bit-identical at every ISA level. The scalar
  /// kernel (shared by SSE) walks the band row by row. The AVX2/AVX-512
  /// kernels sweep it as one continuous anti-diagonal wavefront: rows sit in
  /// the 8/16 lanes modulo the lane count, and a lane starts its next row as
  /// soon as it finishes one, a new row every max(2, ceil((2w+1)/lanes))
  /// steps. That takes the DP's add-min chain off the per-cell critical path.
  float (*dtw)(const float* a, const float* b, size_t n, size_t window,
               float threshold, float* scratch);

  /// The second pass of LB_Improved (Lemire, "Faster retrieval with a
  /// two-pass dynamic-time-warping lower bound", 2009). Projects `candidate`
  /// onto the query's warping envelope (upper/lower, both length n):
  /// h = clamp(candidate, lower, upper). Then builds the envelope of h for
  /// `window` (clamped to n - 1) and returns the squared LB_Keogh of `query`
  /// against it, early-abandoning as lb_keogh_early_abandon does. Added to
  /// the candidate's squared LB_Keogh, it gives LB_Improved, which still
  /// lower-bounds the squared DTW under the same band. `scratch` holds at
  /// least LbImprovedScratchFloats(n) floats, owned by the caller.
  ///
  /// The envelope of h is a sliding max/min by log-doubling passes over
  /// copies of h padded with -inf/+inf, exact at every ISA level, so the
  /// levels differ only by the final sum's reassociation, as for LB_Keogh.
  float (*lb_improved_second_pass)(const float* query, const float* upper,
                                   const float* lower, const float* candidate,
                                   size_t n, size_t window, float threshold,
                                   float* scratch);
};

/// Most lanes a wavefront DTW kernel keeps rows in (the AVX-512 lane count).
constexpr size_t kDtwMaxLanes = 16;

/// Floats of caller scratch the dtw slot needs for length-n series, at every
/// ISA level: the scalar kernel's two DP rows, or the wide-band wavefront's
/// ring of recent cell and b vectors (at most 4w floats, plus up to 15 to
/// align it to 64 bytes; narrow bands need none).
constexpr size_t DtwScratchFloats(size_t n) {
  return 4 * n + kDtwMaxLanes;
}

/// Floats of caller scratch the lb_improved_second_pass slot needs for
/// length-n series: two copies of the projection padded by the window (at
/// most n - 1 points) on both sides, plus vector slack and alignment.
constexpr size_t LbImprovedScratchFloats(size_t n) {
  return 6 * n + 6 * kDtwMaxLanes;
}

/// The scalar sliding-window max/min behind lb_improved_second_pass, also
/// BuildEnvelope's. On entry hi and lo hold a length-n series padded on both
/// sides by `window` points of -inf (hi) and +inf (lo), n + 2 * window
/// floats each. On return hi[i] and lo[i], i < n, are the series' maximum
/// and minimum over [i - window, i + window]. Log-doubling passes in place,
/// O(n log window); min and max are exact, so the result is too.
ODYSSEY_HOT void SlidingMaxMin(float* hi, float* lo, size_t n, size_t window);

/// Portable scalar reference kernels — always available, the ground truth
/// the vector kernels are property-tested against.
const KernelTable& ScalarTable();

/// SSE kernels; nullptr on non-x86 builds.
const KernelTable* SseTable();

/// AVX2+FMA kernels; nullptr when the CPU (or build) lacks them.
const KernelTable* Avx2Table();

/// AVX-512 (F+DQ) kernels; nullptr when the CPU (or build) lacks them.
const KernelTable* Avx512Table();

/// The dispatched table: best supported ISA, clamped by ODYSSEY_SIMD.
/// Resolved once per process; the returned reference is immutable.
const KernelTable& ActiveTable();

/// ISA of ActiveTable(), for logging / benchmark counters.
Isa ActiveIsa();

}  // namespace simd
}  // namespace odyssey

#endif  // ODYSSEY_DISTANCE_SIMD_H_
