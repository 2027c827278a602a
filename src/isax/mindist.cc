#include "src/isax/mindist.h"

#include <limits>

#include "src/common/check.h"

namespace odyssey {

EnvelopePaa ComputeEnvelopePaa(const Envelope& envelope,
                               const IsaxConfig& config) {
  EnvelopePaa out;
  out.upper = ComputePaa(envelope.upper.data(), config.paa);
  out.lower = ComputePaa(envelope.lower.data(), config.paa);
  return out;
}

MindistTable MindistTable::ForPaa(const double* query_paa,
                                  const IsaxConfig& config) {
  return MindistTable(query_paa, query_paa, config);
}

MindistTable MindistTable::ForEnvelope(const EnvelopePaa& env_paa,
                                       const IsaxConfig& config) {
  ODYSSEY_CHECK(env_paa.lower.size() ==
                    static_cast<size_t>(config.segments()) &&
                env_paa.upper.size() == env_paa.lower.size());
  return MindistTable(env_paa.lower.data(), env_paa.upper.data(), config);
}

MindistTable::MindistTable(const double* lower, const double* upper,
                           const IsaxConfig& config)
    : segments_(config.segments()),
      max_bits_(config.max_bits),
      cardinality_(1u << config.max_bits) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double>& bps = BreakpointTable::Get().ForBits(max_bits_);
  cells_.resize(static_cast<size_t>(segments_) * cardinality_);
  zero_.resize(segments_);
  double* row = cells_.data();
  for (int i = 0; i < segments_; ++i, row += cardinality_) {
    const double ql = lower[i];
    const double qu = upper[i];
    // Negated so a NaN band (all terms zero) passes like the definition.
    ODYSSEY_CHECK_MSG(!(ql > qu), "envelope PAA band with lower > upper");
    const double count = static_cast<double>(config.paa.SegmentCount(i));
    uint32_t below = 0;  // symbols [0, below) lie entirely under the band
    for (uint32_t s = 0; s < cardinality_; ++s) {
      const double lo = (s == 0) ? -kInf : bps[s - 1];
      const double hi = (s == cardinality_ - 1) ? kInf : bps[s];
      double gap = 0.0;
      if (lo > qu) {
        gap = lo - qu;
      } else if (hi < ql) {
        gap = ql - hi;
        below = s + 1;
      }
      row[s] = count * gap * gap;
    }
    zero_[i] = below;
  }
}

}  // namespace odyssey
