#ifndef ODYSSEY_DISTANCE_LB_KEOGH_H_
#define ODYSSEY_DISTANCE_LB_KEOGH_H_

#include <cstddef>
#include <vector>

namespace odyssey {

/// The LB_Keogh lower bound for DTW (Keogh & Ratanamahatana 2005), used by
/// the paper's DTW extension (Section 4): a candidate series is pruned when
/// its squared distance to the query's warping envelope already exceeds the
/// best-so-far squared DTW distance.

/// Upper/lower warping envelope of a query: upper[i] = max of q over
/// [i-window, i+window], lower[i] = min over the same range.
struct Envelope {
  std::vector<float> upper;
  std::vector<float> lower;

  size_t length() const { return upper.size(); }
};

/// Builds the envelope of `q` for the given window (in points) with the
/// log-doubling sliding max/min of simd::SlidingMaxMin, O(n log window).
Envelope BuildEnvelope(const float* q, size_t n, size_t window);

/// Squared LB_Keogh: sum over i of the squared gap between candidate[i] and
/// the envelope band. Guaranteed <= SquaredDtw(query, candidate, window).
float SquaredLbKeogh(const Envelope& envelope, const float* candidate);

/// Early-abandoning variant (returns >= threshold once crossed).
float SquaredLbKeoghEarlyAbandon(const Envelope& envelope,
                                 const float* candidate, float threshold);

}  // namespace odyssey

#endif  // ODYSSEY_DISTANCE_LB_KEOGH_H_
