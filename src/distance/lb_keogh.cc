#include "src/distance/lb_keogh.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "src/common/check.h"
#include "src/common/summary_stats.h"
#include "src/distance/simd.h"

namespace odyssey {

Envelope BuildEnvelope(const float* q, size_t n, size_t window) {
  summary_stats::CountEnvelope();
  Envelope env;
  if (n == 0) return env;
  // The sliding max/min runs in place on copies of q padded by w points of
  // -inf (upper) and +inf (lower) on both sides; the envelope is their
  // first n entries, so trimming them allocates nothing further.
  const size_t w = std::min(window, n - 1);
  env.upper.assign(n + 2 * w, -std::numeric_limits<float>::infinity());
  env.lower.assign(n + 2 * w, std::numeric_limits<float>::infinity());
  std::copy(q, q + n, env.upper.begin() + static_cast<std::ptrdiff_t>(w));
  std::copy(q, q + n, env.lower.begin() + static_cast<std::ptrdiff_t>(w));
  simd::SlidingMaxMin(env.upper.data(), env.lower.data(), n, w);
  env.upper.resize(n);
  env.lower.resize(n);
  return env;
}

float SquaredLbKeogh(const Envelope& envelope, const float* candidate) {
  return simd::ActiveTable().lb_keogh(envelope.upper.data(),
                                      envelope.lower.data(), candidate,
                                      envelope.length());
}

float SquaredLbKeoghEarlyAbandon(const Envelope& envelope,
                                 const float* candidate, float threshold) {
  return simd::ActiveTable().lb_keogh_early_abandon(
      envelope.upper.data(), envelope.lower.data(), candidate,
      envelope.length(), threshold);
}

}  // namespace odyssey
