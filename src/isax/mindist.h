#ifndef ODYSSEY_ISAX_MINDIST_H_
#define ODYSSEY_ISAX_MINDIST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/distance/lb_keogh.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// Lower-bound ("mindist") distances between a query and iSAX summaries.
/// All results are squared, consistent with the distance kernels, and are
/// guaranteed <= the squared Euclidean (resp. DTW) distance between the
/// query and ANY series summarized by the summary — the invariant that
/// makes pruning exact.
///
/// The bounds are defined per segment. For a query PAA value q and a
/// summary region [lo, hi] (the breakpoint region of the segment's
/// symbol), the segment's term is count * gap^2, where count is the
/// segment's point count and gap is lo - q if q < lo, q - hi if q > hi,
/// and 0 otherwise (the query lies in the region). For DTW the query value
/// widens to the band [lower, upper] of the warping envelope's PAA: the gap
/// is lo - upper if lo > upper, lower - hi if hi < lower, and 0 otherwise
/// (LB_PAA of Keogh & Ratanamahatana lifted to iSAX regions; it is <=
/// squared LB_Keogh <= squared DTW). The ED term is the band term with
/// lower == upper == q. A bound is the sum of its segment terms, added in
/// segment order in double and returned as float.

/// Per-segment PAA of a DTW warping envelope: means of the upper and lower
/// envelope over each segment. Precomputed once per query.
struct EnvelopePaa {
  std::vector<double> upper;
  std::vector<double> lower;
};

/// Builds the per-segment envelope PAA.
EnvelopePaa ComputeEnvelopePaa(const Envelope& envelope,
                               const IsaxConfig& config);

/// One query's segment terms, precomputed for every full-cardinality
/// symbol, so that a bound costs one table read per segment instead of two
/// breakpoint lookups, a segment-size division and the gap arithmetic.
///
/// Layout: cell (i, s) holds the term of segment i for the full-cardinality
/// (config.max_bits) symbol s, computed by the definition above with the
/// same doubles in the same order. Per segment the table also records where
/// the contiguous range of symbols with a zero term (regions that meet the
/// query, or its band) starts: regions are ordered, so every symbol below
/// that range lies entirely under the query and every symbol above it
/// entirely over it.
///
/// Bit identity with the definition:
///  - ToSax sums the cells of the series' symbols in segment order, which
///    is exactly the definition's sum.
///  - ToWord: a b-bit symbol s covers the full-cardinality symbols
///    [first, last] = [s * 2^(m-b), (s+1) * 2^(m-b) - 1] (m = max_bits),
///    and the b-bit region's edges are the same doubles as the outer edges
///    of that range: breakpoint j at b bits is InverseNormalCdf(j / 2^b),
///    and j / 2^b == (j * 2^(m-b)) / 2^m exactly, so the full-cardinality
///    breakpoint gets an identical argument. If the whole range lies above
///    the query, the region's gap is its first symbol's gap; if below, its
///    last symbol's; otherwise the range meets the zero range and the term
///    is 0. Clamping any zero-range symbol z into [first, last] selects
///    exactly that cell: first if z < first, last if z > last, and a
///    symbol of the zero range (whose cell is 0) otherwise — a branch-free
///    lookup.
///  - Cells are a product and the bounds pure sums, so FP contraction (FMA)
///    has nothing to fuse.
/// For DTW this needs lower <= upper per segment (a non-empty zero range),
/// which the envelope PAA guarantees (pointwise lower <= upper, summed in
/// the same order); the build checks it.
///
/// Memory: segments * 2^max_bits doubles plus one symbol per segment —
/// 32 KB at the defaults (16 segments, 8 bits). Built once per
/// QueryExecution; at the defaults a build takes about 8 µs on a 4-core
/// AVX-512 host, the time of a few dozen early-abandoning ED distances.
class MindistTable {
 public:
  /// An empty table; only useful as a slot to assign a real one into.
  MindistTable() = default;

  /// Euclidean terms of a query PAA (config.segments() doubles).
  static MindistTable ForPaa(const double* query_paa,
                             const IsaxConfig& config);

  /// DTW terms of a query's envelope PAA.
  static MindistTable ForEnvelope(const EnvelopePaa& env_paa,
                                  const IsaxConfig& config);

  /// Squared bound to a full-cardinality SAX summary (a leaf's per-series
  /// summary; the tightest summary-level filter before a real distance).
  float ToSax(const uint8_t* sax) const {
    double sum = 0.0;
    const double* row = cells_.data();
    for (int i = 0; i < segments_; ++i, row += cardinality_) {
      sum += row[sax[i]];
    }
    return static_cast<float>(sum);
  }

  /// Squared bound to a variable-cardinality iSAX word (a tree node).
  float ToWord(const IsaxWord& word) const {
    const uint8_t* symbols = word.symbols.data();
    const uint8_t* bits = word.bits.data();
    double sum = 0.0;
    const double* row = cells_.data();
    for (int i = 0; i < segments_; ++i, row += cardinality_) {
      const int shift = max_bits_ - bits[i];
      const uint32_t first = static_cast<uint32_t>(symbols[i]) << shift;
      const uint32_t last = first + (1u << shift) - 1;
      sum += row[std::min(std::max(zero_[i], first), last)];
    }
    return static_cast<float>(sum);
  }

 private:
  MindistTable(const double* lower, const double* upper,
               const IsaxConfig& config);

  int segments_ = 0;
  int max_bits_ = 0;
  uint32_t cardinality_ = 0;    // 2^max_bits
  std::vector<double> cells_;   // segments_ rows of cardinality_ cells
  std::vector<uint32_t> zero_;  // per segment: first zero-term symbol
};

}  // namespace odyssey

#endif  // ODYSSEY_ISAX_MINDIST_H_
