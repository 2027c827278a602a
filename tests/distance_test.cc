#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/dataset/generators.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/lb_keogh.h"
#include "src/distance/simd.h"
#include "src/isax/isax_word.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

using testing_utils::NearlyEqual;

std::vector<float> RandomSeries(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

// ------------------------------------------------------------- Euclidean

class EuclideanLengthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EuclideanLengthTest, DispatchedMatchesScalar) {
  const size_t n = GetParam();
  Rng rng(n * 7 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<float> a = RandomSeries(&rng, n);
    const std::vector<float> b = RandomSeries(&rng, n);
    const float simd = SquaredEuclidean(a.data(), b.data(), n);
    const float scalar = SquaredEuclideanScalar(a.data(), b.data(), n);
    EXPECT_TRUE(NearlyEqual(simd, scalar)) << simd << " vs " << scalar;
  }
}

TEST_P(EuclideanLengthTest, EarlyAbandonExactBelowThreshold) {
  const size_t n = GetParam();
  Rng rng(n * 13 + 1);
  const std::vector<float> a = RandomSeries(&rng, n);
  const std::vector<float> b = RandomSeries(&rng, n);
  const float exact = SquaredEuclideanScalar(a.data(), b.data(), n);
  const float got = SquaredEuclideanEarlyAbandon(
      a.data(), b.data(), n, exact * 2.0f + 1.0f);
  EXPECT_TRUE(NearlyEqual(got, exact));
}

TEST_P(EuclideanLengthTest, EarlyAbandonReturnsAtLeastThresholdWhenCrossed) {
  const size_t n = GetParam();
  Rng rng(n * 17 + 1);
  const std::vector<float> a = RandomSeries(&rng, n);
  const std::vector<float> b = RandomSeries(&rng, n);
  const float exact = SquaredEuclideanScalar(a.data(), b.data(), n);
  if (exact <= 0.0f) return;
  const float threshold = exact / 2.0f;
  const float got =
      SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, threshold);
  EXPECT_GE(got * (1.0f + 1e-4f), threshold);
}

INSTANTIATE_TEST_SUITE_P(Lengths, EuclideanLengthTest,
                         ::testing::Values(1, 3, 8, 15, 16, 17, 31, 32, 96,
                                           100, 128, 200, 256));

TEST(EuclideanTest, ZeroForIdenticalSeries) {
  Rng rng(1);
  const std::vector<float> a = RandomSeries(&rng, 64);
  EXPECT_EQ(SquaredEuclidean(a.data(), a.data(), 64), 0.0f);
}

TEST(EuclideanTest, KnownValue) {
  const float a[] = {0, 0, 0, 0};
  const float b[] = {1, 2, 3, 4};
  EXPECT_FLOAT_EQ(SquaredEuclidean(a, b, 4), 30.0f);
}

TEST(EuclideanTest, ScalarEarlyAbandonMatchesSimdVariant) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 64;
    const std::vector<float> a = RandomSeries(&rng, n);
    const std::vector<float> b = RandomSeries(&rng, n);
    const float threshold = static_cast<float>(rng.NextDouble() * 200.0);
    const float s =
        SquaredEuclideanEarlyAbandonScalar(a.data(), b.data(), n, threshold);
    const float v =
        SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, threshold);
    // Both must agree on whether the threshold was crossed, and on the exact
    // value when it was not.
    EXPECT_EQ(s >= threshold, v * (1 + 1e-5f) >= threshold * (1 - 1e-5f))
        << s << " " << v << " thr " << threshold;
    if (s < threshold) {
      EXPECT_TRUE(NearlyEqual(s, v));
    }
  }
}

// ------------------------------------------------------------------- DTW

TEST(DtwTest, WindowZeroEqualsEuclidean) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<float> a = RandomSeries(&rng, 50);
    const std::vector<float> b = RandomSeries(&rng, 50);
    EXPECT_TRUE(NearlyEqual(SquaredDtw(a.data(), b.data(), 50, 0),
                            SquaredEuclideanScalar(a.data(), b.data(), 50)));
  }
}

TEST(DtwTest, NeverExceedsEuclidean) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<float> a = RandomSeries(&rng, 40);
    const std::vector<float> b = RandomSeries(&rng, 40);
    const float ed = SquaredEuclideanScalar(a.data(), b.data(), 40);
    for (size_t w : {1u, 2u, 5u, 39u}) {
      EXPECT_LE(SquaredDtw(a.data(), b.data(), 40, w), ed * (1 + 1e-5f));
    }
  }
}

TEST(DtwTest, MonotoneNonIncreasingInWindow) {
  Rng rng(7);
  const std::vector<float> a = RandomSeries(&rng, 60);
  const std::vector<float> b = RandomSeries(&rng, 60);
  float prev = SquaredDtw(a.data(), b.data(), 60, 0);
  for (size_t w = 1; w <= 10; ++w) {
    const float cur = SquaredDtw(a.data(), b.data(), 60, w);
    EXPECT_LE(cur, prev * (1 + 1e-5f)) << "w=" << w;
    prev = cur;
  }
}

TEST(DtwTest, Symmetric) {
  // Bitwise, not approximately: approximate search computes DTW(query,
  // series) and the exact scan DTW(series, query), and KnnSet dedups an id
  // offered by both only if the two distances agree exactly.
  Rng rng(9);
  for (size_t n : {1u, 7u, 32u, 64u, 100u, 256u}) {
    for (size_t window : {0u, 1u, 4u, 12u, 300u}) {
      const std::vector<float> a = RandomSeries(&rng, n);
      const std::vector<float> b = RandomSeries(&rng, n);
      EXPECT_EQ(SquaredDtw(a.data(), b.data(), n, window),
                SquaredDtw(b.data(), a.data(), n, window))
          << "n=" << n << " window=" << window;
    }
  }
}

TEST(DtwTest, ZeroForIdenticalSeries) {
  Rng rng(11);
  const std::vector<float> a = RandomSeries(&rng, 32);
  EXPECT_EQ(SquaredDtw(a.data(), a.data(), 32, 3), 0.0f);
}

TEST(DtwTest, AlignsShiftedSeries) {
  // A one-step shifted copy should be nearly free under warping but
  // expensive under ED.
  const size_t n = 64;
  std::vector<float> a(n), b(n);
  for (size_t t = 0; t < n; ++t) {
    a[t] = std::sin(0.3 * static_cast<double>(t));
    b[t] = std::sin(0.3 * static_cast<double>(t + 1));
  }
  const float ed = SquaredEuclideanScalar(a.data(), b.data(), n);
  const float dtw = SquaredDtw(a.data(), b.data(), n, 3);
  EXPECT_LT(dtw, ed * 0.2f);
}

TEST(DtwTest, EarlyAbandonExactBelowThreshold) {
  // The exact scan relies on "result < threshold => result is exact", so an
  // abandoned value must never fall below its threshold — not even by an
  // ulp. No slack.
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBounded(130);
    const size_t window = rng.NextBounded(n + 2);
    const std::vector<float> a = RandomSeries(&rng, n);
    const std::vector<float> b = RandomSeries(&rng, n);
    const float exact = SquaredDtw(a.data(), b.data(), n, window);
    EXPECT_EQ(SquaredDtwEarlyAbandon(a.data(), b.data(), n, window,
                                     exact * 2 + 1),
              exact)
        << "n=" << n << " window=" << window;
    for (float threshold : {exact, exact / 2, exact / 16}) {
      EXPECT_GE(
          SquaredDtwEarlyAbandon(a.data(), b.data(), n, window, threshold),
          threshold)
          << "n=" << n << " window=" << window;
    }
  }
}

// The scan's cascade keeps SquaredDtwEarlyAbandon's contract: exact below
// the threshold, and a discarded candidate's DTW is at the threshold or
// above (up to the bounds' rounding). It reports the DPs it ran.
TEST(DtwTest, CascadeKeepsEarlyAbandonContract) {
  const SeriesCollection data = GenerateSeismicLike(200, 64, 17);
  const size_t n = 64;
  for (size_t window : {0u, 1u, 12u, 63u}) {
    const Envelope env = BuildEnvelope(data.data(0), n, window);
    size_t dp_runs = 0, calls = 0, exact_answers = 0;
    for (size_t i = 1; i < data.size(); ++i) {
      const float dtw = SquaredDtw(data.data(0), data.data(i), n, window);
      for (float threshold : {dtw * 2.0f + 1.0f, dtw, dtw * 0.5f}) {
        const float got = SquaredDtwCascade(data.data(0), env, data.data(i),
                                            window, threshold, &dp_runs);
        ++calls;
        if (got < threshold) {
          ASSERT_EQ(got, dtw) << "window=" << window << " i=" << i;
          ++exact_answers;
        } else {
          ASSERT_GE(dtw * (1 + 1e-5f) + 1e-6f, threshold)
              << "window=" << window << " i=" << i;
        }
      }
    }
    EXPECT_EQ(exact_answers, data.size() - 1) << "window=" << window;
    EXPECT_LE(dp_runs, calls);
    EXPECT_GE(dp_runs, exact_answers);
  }
}

TEST(DtwTest, WarpingWindowFromFraction) {
  EXPECT_EQ(WarpingWindowFromFraction(256, 0.0), 0u);
  EXPECT_EQ(WarpingWindowFromFraction(256, 0.05), 13u);  // ceil(12.8)
  EXPECT_EQ(WarpingWindowFromFraction(100, 0.001), 1u);  // min 1
  EXPECT_EQ(WarpingWindowFromFraction(100, 0.15), 15u);
}

// -------------------------------------------------------------- LB_Keogh

TEST(LbKeoghTest, EnvelopeMatchesBruteForce) {
  Rng rng(15);
  const std::vector<float> q = RandomSeries(&rng, 40);
  for (size_t w : {0u, 1u, 3u, 10u, 39u, 100u}) {
    const Envelope env = BuildEnvelope(q.data(), q.size(), w);
    for (size_t i = 0; i < q.size(); ++i) {
      const size_t lo = (i >= w) ? i - w : 0;
      const size_t hi = std::min(q.size() - 1, i + w);
      float mx = -1e30f, mn = 1e30f;
      for (size_t j = lo; j <= hi; ++j) {
        mx = std::max(mx, q[j]);
        mn = std::min(mn, q[j]);
      }
      ASSERT_EQ(env.upper[i], mx) << "w=" << w << " i=" << i;
      ASSERT_EQ(env.lower[i], mn) << "w=" << w << " i=" << i;
    }
  }
}

// Every length and window around the log-doubling pass boundaries: spans
// 2w + 1 just below, at and above powers of two, and windows past n.
TEST(LbKeoghTest, EnvelopeMatchesBruteForceOnEveryLength) {
  Rng rng(16);
  for (size_t n = 1; n <= 70; ++n) {
    const std::vector<float> q = RandomSeries(&rng, n);
    for (size_t w : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                     size_t{7}, size_t{8}, size_t{12}, n / 2, n - 1, n,
                     n + 3}) {
      const Envelope env = BuildEnvelope(q.data(), n, w);
      ASSERT_EQ(env.length(), n);
      for (size_t i = 0; i < n; ++i) {
        const size_t lo = (i >= w) ? i - w : 0;
        const size_t hi = std::min(n - 1, i + w);
        ASSERT_EQ(env.upper[i],
                  *std::max_element(q.begin() + lo, q.begin() + hi + 1))
            << "n=" << n << " w=" << w << " i=" << i;
        ASSERT_EQ(env.lower[i],
                  *std::min_element(q.begin() + lo, q.begin() + hi + 1))
            << "n=" << n << " w=" << w << " i=" << i;
      }
    }
  }
}

TEST(LbKeoghTest, LowerBoundsDtw) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 48;
    const size_t w = 1 + rng.NextBounded(8);
    const std::vector<float> q = RandomSeries(&rng, n);
    const std::vector<float> c = RandomSeries(&rng, n);
    const Envelope env = BuildEnvelope(q.data(), n, w);
    const float lb = SquaredLbKeogh(env, c.data());
    const float dtw = SquaredDtw(q.data(), c.data(), n, w);
    EXPECT_LE(lb, dtw * (1 + 1e-5f) + 1e-6f)
        << "trial " << trial << " w=" << w;
  }
}

TEST(LbKeoghTest, ZeroWhenCandidateInsideEnvelope) {
  Rng rng(19);
  const std::vector<float> q = RandomSeries(&rng, 32);
  const Envelope env = BuildEnvelope(q.data(), 32, 2);
  // The query itself always lies inside its own envelope.
  EXPECT_EQ(SquaredLbKeogh(env, q.data()), 0.0f);
}

TEST(LbKeoghTest, EarlyAbandonConsistent) {
  Rng rng(21);
  const std::vector<float> q = RandomSeries(&rng, 32);
  const std::vector<float> c = RandomSeries(&rng, 32);
  const Envelope env = BuildEnvelope(q.data(), 32, 2);
  const float exact = SquaredLbKeogh(env, c.data());
  EXPECT_TRUE(NearlyEqual(
      SquaredLbKeoghEarlyAbandon(env, c.data(), exact * 2 + 1), exact));
  if (exact > 0) {
    EXPECT_GE(SquaredLbKeoghEarlyAbandon(env, c.data(), exact / 2),
              exact / 2 * (1 - 1e-5f));
  }
}

// Pipeline property: summary filter -> LB_Keogh -> DTW must be a chain of
// lower bounds on real data (the exactness invariant of the DTW extension).
TEST(LbKeoghTest, BoundChainOnRealisticData) {
  const SeriesCollection data = GenerateSeismicLike(100, 64, 23);
  const SeriesCollection queries = GenerateSeismicLike(5, 64, 29);
  const size_t w = WarpingWindowFromFraction(64, 0.05);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Envelope env = BuildEnvelope(queries.data(qi), 64, w);
    for (size_t i = 0; i < data.size(); ++i) {
      const float lb = SquaredLbKeogh(env, data.data(i));
      const float dtw = SquaredDtw(queries.data(qi), data.data(i), 64, w);
      ASSERT_LE(lb, dtw * (1 + 1e-5f) + 1e-6f);
    }
  }
}

// ----------------------------------------------------------- LB_Improved

/// LB_Improved's second pass by its definition: project the candidate onto
/// the envelope, take the projection's envelope by brute force, and sum the
/// query's squared gaps to it in double.
double ReferenceSecondPass(const std::vector<float>& query,
                           const Envelope& envelope,
                           const std::vector<float>& candidate,
                           size_t window) {
  const size_t n = query.size();
  std::vector<float> h(n);
  for (size_t i = 0; i < n; ++i) {
    h[i] = std::min(std::max(candidate[i], envelope.lower[i]),
                    envelope.upper[i]);
  }
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= window ? i - window : 0;
    const size_t hi = std::min(n - 1, i + window);
    const float mx = *std::max_element(h.begin() + lo, h.begin() + hi + 1);
    const float mn = *std::min_element(h.begin() + lo, h.begin() + hi + 1);
    double gap = 0.0;
    if (query[i] > mx) gap = query[i] - mx;
    if (query[i] < mn) gap = mn - query[i];
    sum += gap * gap;
  }
  return sum;
}

/// Squared LB_Keogh and LB_Improved of `candidate` against `query`, full
/// (no abandoning), through the dispatched kernels.
std::pair<float, float> KeoghAndImproved(const std::vector<float>& query,
                                         const std::vector<float>& candidate,
                                         size_t window) {
  const size_t n = query.size();
  const Envelope env = BuildEnvelope(query.data(), n, window);
  std::vector<float> scratch(simd::LbImprovedScratchFloats(n));
  const float keogh = SquaredLbKeogh(env, candidate.data());
  const float second = simd::ActiveTable().lb_improved_second_pass(
      query.data(), env.upper.data(), env.lower.data(), candidate.data(), n,
      window, std::numeric_limits<float>::infinity(), scratch.data());
  return {keogh, keogh + second};
}

TEST(LbImprovedTest, ScalarSecondPassMatchesDefinition) {
  Rng rng(151);
  for (size_t n = 1; n <= 80; ++n) {
    for (size_t w : {size_t{0}, size_t{1}, size_t{3}, n / 2, n - 1, n + 5}) {
      const std::vector<float> q = RandomSeries(&rng, n);
      const std::vector<float> c = RandomSeries(&rng, n);
      const Envelope env = BuildEnvelope(q.data(), n, w);
      std::vector<float> scratch(simd::LbImprovedScratchFloats(n));
      const float got = simd::ScalarTable().lb_improved_second_pass(
          q.data(), env.upper.data(), env.lower.data(), c.data(), n, w,
          std::numeric_limits<float>::infinity(), scratch.data());
      const double want = ReferenceSecondPass(q, env, c, std::min(w, n - 1));
      ASSERT_TRUE(NearlyEqual(got, static_cast<float>(want)))
          << "n=" << n << " w=" << w << ": " << got << " vs " << want;
    }
  }
}

// LB_Keogh <= LB_Improved <= DTW under the same band: the exactness
// invariant of the DTW scan's cascade, on three kinds of pairs.
TEST(LbImprovedTest, BoundChainHolds) {
  constexpr size_t kLength = 128;
  const size_t w = 12;
  const SeriesCollection walks = GenerateRandomWalk(40, kLength, 153);
  const SeriesCollection seismic = GenerateSeismicLike(40, kLength, 155);
  Rng rng(157);
  for (const SeriesCollection* data : {&walks, &seismic}) {
    for (size_t i = 0; i + 1 < data->size(); i += 2) {
      const std::vector<float> q(data->data(i), data->data(i) + kLength);
      std::vector<float> c(data->data(i + 1), data->data(i + 1) + kLength);
      // kind 0: the next series; 1: a noisy copy of q; 2: a noisy copy
      // shifted by 3 points.
      for (int kind = 0; kind < 3; ++kind) {
        for (size_t t = 0; kind > 0 && t < kLength; ++t) {
          const size_t from = kind == 1 ? t : std::min(kLength - 1, t + 3);
          c[t] = q[from] + static_cast<float>(0.05 * rng.NextGaussian());
        }
        const auto [keogh, improved] = KeoghAndImproved(q, c, w);
        const float dtw = SquaredDtw(q.data(), c.data(), kLength, w);
        ASSERT_LE(keogh, improved) << "pair " << i << " kind " << kind;
        ASSERT_LE(improved, dtw * (1 + 1e-5f) + 1e-6f)
            << "pair " << i << " kind " << kind;
      }
    }
  }
}

// Near-duplicates are where the bound must be tight. At window 0 the
// envelope is the query itself, and LB_Improved reaches the DTW (then the
// squared ED). At window 12, a copy shifted by 3 points sits inside the
// query's envelope almost everywhere, so LB_Keogh sees almost nothing of
// it; the second pass recovers several times more.
TEST(LbImprovedTest, TightOnNearDuplicates) {
  constexpr size_t kLength = 128;
  const SeriesCollection seismic = GenerateSeismicLike(20, kLength, 159);
  Rng rng(161);
  double keogh_sum = 0.0, improved_sum = 0.0;
  for (size_t i = 0; i < seismic.size(); ++i) {
    const std::vector<float> q(seismic.data(i), seismic.data(i) + kLength);
    EXPECT_EQ(KeoghAndImproved(q, q, 12).second, 0.0f);
    std::vector<float> noisy(kLength), shifted(kLength);
    for (size_t t = 0; t < kLength; ++t) {
      const float noise = static_cast<float>(0.05 * rng.NextGaussian());
      noisy[t] = q[t] + noise;
      shifted[t] = q[std::min(kLength - 1, t + 3)] + noise;
    }
    EXPECT_TRUE(NearlyEqual(KeoghAndImproved(q, noisy, 0).second,
                            SquaredDtw(q.data(), noisy.data(), kLength, 0)))
        << "series " << i;
    const auto [keogh, improved] = KeoghAndImproved(q, shifted, 12);
    keogh_sum += keogh;
    improved_sum += improved;
  }
  EXPECT_GT(improved_sum, 4.0 * keogh_sum);
}

// ----------------------------------------------------- SIMD kernel layer
// Property tests of the runtime-dispatched kernel tables against the scalar
// reference: every available vector ISA, every length in [1, 256] (covering
// all non-multiple-of-8/16 remainders), plus subnormal inputs.

std::vector<const simd::KernelTable*> VectorTables() {
  std::vector<const simd::KernelTable*> tables;
  if (simd::SseTable() != nullptr) tables.push_back(simd::SseTable());
  if (simd::Avx2Table() != nullptr) tables.push_back(simd::Avx2Table());
  if (simd::Avx512Table() != nullptr) tables.push_back(simd::Avx512Table());
  return tables;
}

TEST(SimdKernelTest, ActiveTableIsBestAvailable) {
  const simd::KernelTable& active = simd::ActiveTable();
  EXPECT_EQ(&active, &simd::ActiveTable());  // stable across calls
  if (std::getenv("ODYSSEY_SIMD") == nullptr) {
    if (simd::Avx512Table() != nullptr) {
      EXPECT_EQ(active.isa, simd::Isa::kAvx512);
    } else if (simd::Avx2Table() != nullptr) {
      EXPECT_EQ(active.isa, simd::Isa::kAvx2);
    }
  }
}

TEST(SimdKernelTest, EuclideanMatchesScalarOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(31);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> a = RandomSeries(&rng, n);
      const std::vector<float> b = RandomSeries(&rng, n);
      const float want = scalar.squared_euclidean(a.data(), b.data(), n);
      const float got = table->squared_euclidean(a.data(), b.data(), n);
      ASSERT_TRUE(NearlyEqual(got, want))
          << simd::IsaName(table->isa) << " n=" << n << ": " << got << " vs "
          << want;
    }
  }
}

TEST(SimdKernelTest, EuclideanEarlyAbandonConsistentOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(41);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> a = RandomSeries(&rng, n);
      const std::vector<float> b = RandomSeries(&rng, n);
      const float exact = scalar.squared_euclidean(a.data(), b.data(), n);
      const float threshold =
          static_cast<float>(rng.NextDouble()) * 2.0f * (exact + 1.0f);
      const float got = table->squared_euclidean_early_abandon(
          a.data(), b.data(), n, threshold);
      // Away from the threshold boundary the contract is unambiguous:
      // exact value when clearly below, >= threshold when clearly above.
      if (exact < threshold * (1.0f - 1e-4f)) {
        ASSERT_TRUE(NearlyEqual(got, exact))
            << simd::IsaName(table->isa) << " n=" << n;
      } else if (exact > threshold * (1.0f + 1e-4f)) {
        ASSERT_GE(got * (1.0f + 1e-4f), threshold)
            << simd::IsaName(table->isa) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, LbKeoghMatchesScalarOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(51);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> q = RandomSeries(&rng, n);
      const std::vector<float> c = RandomSeries(&rng, n);
      const size_t w = rng.NextBounded(n + 4);
      const Envelope env = BuildEnvelope(q.data(), n, w);
      const float want =
          scalar.lb_keogh(env.upper.data(), env.lower.data(), c.data(), n);
      const float got =
          table->lb_keogh(env.upper.data(), env.lower.data(), c.data(), n);
      ASSERT_TRUE(NearlyEqual(got, want))
          << simd::IsaName(table->isa) << " n=" << n << " w=" << w;
      const float exact_ea = table->lb_keogh_early_abandon(
          env.upper.data(), env.lower.data(), c.data(), n, want * 2.0f + 1.0f);
      ASSERT_TRUE(NearlyEqual(exact_ea, want))
          << simd::IsaName(table->isa) << " n=" << n;
      if (want > 0.0f) {
        ASSERT_GE(table->lb_keogh_early_abandon(env.upper.data(),
                                                env.lower.data(), c.data(), n,
                                                want / 2.0f) *
                      (1.0f + 1e-4f),
                  want / 2.0f)
            << simd::IsaName(table->isa) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, LbImprovedMatchesScalarOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(53);
    for (size_t n = 1; n <= 256; ++n) {
      // Exactly sized, so a sanitizer run catches a scratch overrun.
      std::vector<float> scratch(simd::LbImprovedScratchFloats(n));
      for (size_t w : {size_t{0}, size_t{1}, size_t{12}, n / 2, n - 1,
                       n + 5}) {
        const std::vector<float> q = RandomSeries(&rng, n);
        const std::vector<float> c = RandomSeries(&rng, n);
        const Envelope env = BuildEnvelope(q.data(), n, w);
        auto second_pass = [&](const simd::KernelTable& t, float threshold) {
          return t.lb_improved_second_pass(q.data(), env.upper.data(),
                                           env.lower.data(), c.data(), n, w,
                                           threshold, scratch.data());
        };
        const float want = second_pass(scalar, kInf);
        ASSERT_TRUE(NearlyEqual(second_pass(*table, kInf), want))
            << simd::IsaName(table->isa) << " n=" << n << " w=" << w;
        ASSERT_TRUE(NearlyEqual(second_pass(*table, want * 2.0f + 1.0f), want))
            << simd::IsaName(table->isa) << " n=" << n << " w=" << w;
        if (want > 0.0f) {
          ASSERT_GE(second_pass(*table, want / 2.0f) * (1.0f + 1e-4f),
                    want / 2.0f)
              << simd::IsaName(table->isa) << " n=" << n << " w=" << w;
        }
      }
    }
  }
}

/// Places a copy of values[0, n) (zeros when `values` is null) in `storage`
/// at a 64-byte boundary plus `misalign` floats, and returns it.
float* PlaceAt(std::vector<float>* storage, const float* values, size_t n,
               size_t misalign) {
  storage->assign(n + 17, 0.0f);
  float* p = storage->data();
  while (reinterpret_cast<uintptr_t>(p) % 64 != 0) ++p;
  p += misalign;
  if (values != nullptr) std::copy(values, values + n, p);
  return p;
}

/// LB_Improved's second pass of query q and candidate c gives bit-identical
/// results with every operand and the scratch 64-byte aligned and with all
/// of them one float off. The kernel aligns its own buffers, so the query's
/// alignment picks the final LB_Keogh sum's path.
void ExpectLbImprovedIgnoresAlignment(const simd::KernelTable& table,
                                      const float* q, const float* c,
                                      size_t n) {
  for (size_t w : {size_t{8}, size_t{12}}) {
    const Envelope env = BuildEnvelope(q, n, w);
    float full[2], abandoned[2];
    for (size_t misalign : {0, 1}) {
      std::vector<float> storage[5];
      const float* pq = PlaceAt(&storage[0], q, n, misalign);
      const float* pu = PlaceAt(&storage[1], env.upper.data(), n, misalign);
      const float* pl = PlaceAt(&storage[2], env.lower.data(), n, misalign);
      const float* pc = PlaceAt(&storage[3], c, n, misalign);
      float* scratch = PlaceAt(&storage[4], nullptr,
                               simd::LbImprovedScratchFloats(n), misalign);
      full[misalign] = table.lb_improved_second_pass(
          pq, pu, pl, pc, n, w, std::numeric_limits<float>::infinity(),
          scratch);
      abandoned[misalign] = table.lb_improved_second_pass(
          pq, pu, pl, pc, n, w, full[0] * 0.25f, scratch);
    }
    ASSERT_EQ(full[0], full[1]) << "n=" << n << " w=" << w;
    ASSERT_EQ(abandoned[0], abandoned[1]) << "n=" << n << " w=" << w;
  }
}

TEST(SimdKernelTest, AlignedFastPathBitIdenticalToUnaligned) {
  // The AVX2 kernels take an aligned-load fast path when every operand sits
  // on a 32-byte boundary and the length is a lane multiple. The fast path
  // keeps the generic loops' exact accumulation order, so the same values
  // at an aligned vs a misaligned address must give bit-identical results —
  // exact EQ, no tolerance (gated like the AVX2 paths themselves).
  const simd::KernelTable* avx2 = simd::Avx2Table();
  if (avx2 == nullptr) GTEST_SKIP() << "CPU/build lacks AVX2";
  Rng rng(61);
  // Over-aligned buffers, plus +1-float shadow copies of the same values
  // at deliberately misaligned addresses.
  constexpr size_t kMax = 256;
  auto aligned_buf = [](size_t n) {
    void* p = nullptr;
    ODYSSEY_CHECK(posix_memalign(&p, 64, (n + 8) * sizeof(float)) == 0);
    return static_cast<float*>(p);
  };
  float* a = aligned_buf(kMax);
  float* b = aligned_buf(kMax);
  float* c = aligned_buf(kMax);
  float* ua = aligned_buf(kMax) + 1;
  float* ub = aligned_buf(kMax) + 1;
  float* uc = aligned_buf(kMax) + 1;
  for (size_t n = 8; n <= kMax; n += 8) {
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextGaussian());
      b[i] = static_cast<float>(rng.NextGaussian());
      c[i] = static_cast<float>(rng.NextGaussian());
    }
    std::copy(a, a + n, ua);
    std::copy(b, b + n, ub);
    std::copy(c, c + n, uc);
    ASSERT_EQ(avx2->squared_euclidean(a, b, n),
              avx2->squared_euclidean(ua, ub, n))
        << "n=" << n;
    const float exact = avx2->squared_euclidean(a, b, n);
    for (float threshold : {exact * 0.25f, exact, exact * 4.0f + 1.0f}) {
      ASSERT_EQ(avx2->squared_euclidean_early_abandon(a, b, n, threshold),
                avx2->squared_euclidean_early_abandon(ua, ub, n, threshold))
          << "n=" << n << " threshold=" << threshold;
    }
    // LB_Keogh: a/b as the (not necessarily ordered) band edges is fine for
    // an identity check — the kernel only computes gaps against them.
    ASSERT_EQ(avx2->lb_keogh(a, b, c, n), avx2->lb_keogh(ua, ub, uc, n))
        << "n=" << n;
    const float lb = avx2->lb_keogh(a, b, c, n);
    for (float threshold : {lb * 0.25f, lb * 4.0f + 1.0f}) {
      ASSERT_EQ(avx2->lb_keogh_early_abandon(a, b, c, n, threshold),
                avx2->lb_keogh_early_abandon(ua, ub, uc, n, threshold))
          << "n=" << n << " threshold=" << threshold;
    }
    ExpectLbImprovedIgnoresAlignment(*avx2, a, c, n);
  }
  std::free(a);
  std::free(b);
  std::free(c);
  std::free(ua - 1);
  std::free(ub - 1);
  std::free(uc - 1);
}

TEST(SimdKernelTest, Avx512AlignedFastPathBitIdenticalToUnaligned) {
  // The AVX-512 mirror of the test above: the fast path engages on 64-byte
  // boundaries with 16-lane multiples, and must stay bit-identical to the
  // unaligned path on the same values.
  const simd::KernelTable* avx512 = simd::Avx512Table();
  if (avx512 == nullptr) GTEST_SKIP() << "CPU/build lacks AVX-512";
  Rng rng(71);
  constexpr size_t kMax = 256;
  auto aligned_buf = [](size_t n) {
    void* p = nullptr;
    ODYSSEY_CHECK(posix_memalign(&p, 64, (n + 16) * sizeof(float)) == 0);
    return static_cast<float*>(p);
  };
  float* a = aligned_buf(kMax);
  float* b = aligned_buf(kMax);
  float* c = aligned_buf(kMax);
  float* ua = aligned_buf(kMax) + 1;
  float* ub = aligned_buf(kMax) + 1;
  float* uc = aligned_buf(kMax) + 1;
  for (size_t n = 16; n <= kMax; n += 16) {
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextGaussian());
      b[i] = static_cast<float>(rng.NextGaussian());
      c[i] = static_cast<float>(rng.NextGaussian());
    }
    std::copy(a, a + n, ua);
    std::copy(b, b + n, ub);
    std::copy(c, c + n, uc);
    ASSERT_EQ(avx512->squared_euclidean(a, b, n),
              avx512->squared_euclidean(ua, ub, n))
        << "n=" << n;
    const float exact = avx512->squared_euclidean(a, b, n);
    for (float threshold : {exact * 0.25f, exact, exact * 4.0f + 1.0f}) {
      ASSERT_EQ(avx512->squared_euclidean_early_abandon(a, b, n, threshold),
                avx512->squared_euclidean_early_abandon(ua, ub, n, threshold))
          << "n=" << n << " threshold=" << threshold;
    }
    ASSERT_EQ(avx512->lb_keogh(a, b, c, n), avx512->lb_keogh(ua, ub, uc, n))
        << "n=" << n;
    const float lb = avx512->lb_keogh(a, b, c, n);
    for (float threshold : {lb * 0.25f, lb * 4.0f + 1.0f}) {
      ASSERT_EQ(avx512->lb_keogh_early_abandon(a, b, c, n, threshold),
                avx512->lb_keogh_early_abandon(ua, ub, uc, n, threshold))
          << "n=" << n << " threshold=" << threshold;
    }
    ExpectLbImprovedIgnoresAlignment(*avx512, a, c, n);
  }
  std::free(a);
  std::free(b);
  std::free(c);
  std::free(ua - 1);
  std::free(ub - 1);
  std::free(uc - 1);
}

/// The minimum of every row of the banded DTW DP, written from the
/// recurrence over the whole n x n matrix: the thresholds at which an
/// early-abandoning kernel stops after each row. Row minima never fall
/// (every cell adds a cost to a cell of its own or the previous row).
std::vector<float> DtwRowMinima(const float* a, const float* b, size_t n,
                                size_t window) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const size_t w = std::min(window, n - 1);
  std::vector<float> prev(n, kInf), cur(n, kInf), minima(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if ((i > j ? i - j : j - i) > w) {
        cur[j] = kInf;
        continue;
      }
      float best = i == 0 && j == 0 ? 0.0f : kInf;
      if (i > 0) best = std::min(best, prev[j]);
      if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
      if (j > 0) best = std::min(best, cur[j - 1]);
      const float d = a[i] - b[j];
      cur[j] = d * d + best;
    }
    minima[i] = *std::min_element(cur.begin(), cur.end());
    std::swap(prev, cur);
  }
  return minima;
}

TEST(SimdKernelTest, DtwBitIdenticalToScalar) {
  // Every cell is d*d + min(diag, up, left) with mul (not FMA) at every ISA
  // level, and every level abandons after the same row with that row's
  // minimum, so each result must match the scalar kernel bit for bit —
  // exact EQ, no tolerance. The lengths sit below, at and past the 8 and 16
  // lanes of the wavefront kernels. The windows run from Euclidean (0)
  // through the full matrix (>= n) and cross the wavefront's changes of
  // row spacing s = max(2, ceil((2w+1)/lanes)): 7/8 and 15/16 (s = 2 in
  // registers to s = 3 in the scratch ring on AVX2 and AVX-512), 11/12 and
  // 23/24 (s = 3 to 4), and 26 and 64 deeper in the ring. The
  // thresholds sweep every distinct row minimum of a reference DP, so the
  // kernels abandon after each row in turn, the last one included.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const simd::KernelTable& scalar = simd::ScalarTable();
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (size_t n : {63u, 64u, 65u, 255u, 256u, 257u}) lengths.push_back(n);
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(61);
    for (size_t n : lengths) {
      std::vector<float> want_scratch(simd::DtwScratchFloats(n));
      std::vector<float> got_scratch(simd::DtwScratchFloats(n));
      for (int shape = 0; shape < 2; ++shape) {
        // shape 1 draws from four values, so costs and DP cells tie often.
        std::vector<float> a(n), b(n);
        for (size_t i = 0; i < n; ++i) {
          a[i] = shape == 0 ? static_cast<float>(rng.NextGaussian())
                            : static_cast<float>(rng.NextBounded(4)) * 0.5f;
          b[i] = shape == 0 ? static_cast<float>(rng.NextGaussian())
                            : static_cast<float>(rng.NextBounded(4)) * 0.5f;
        }
        for (size_t window : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                              size_t{8}, size_t{11}, size_t{12}, size_t{15},
                              size_t{16}, size_t{23}, size_t{24}, size_t{26},
                              size_t{64}, n - 1, n, n + 5}) {
          const auto dtw = [&](const simd::KernelTable& t,
                               std::vector<float>* scratch, float threshold) {
            return t.dtw(a.data(), b.data(), n, window, threshold,
                         scratch->data());
          };
          const float exact = dtw(scalar, &want_scratch, kInf);
          ASSERT_EQ(dtw(*table, &got_scratch, kInf), exact)
              << simd::IsaName(table->isa) << " n=" << n << " w=" << window
              << " shape=" << shape;
          ASSERT_EQ(dtw(*table, &got_scratch, std::nextafter(exact, kInf)),
                    exact)
              << simd::IsaName(table->isa) << " n=" << n << " w=" << window;
          std::vector<float> thresholds =
              DtwRowMinima(a.data(), b.data(), n, window);
          thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                           thresholds.end());
          thresholds.push_back(exact);
          thresholds.push_back(exact / 2);
          for (float threshold : thresholds) {
            const float abandoned = dtw(*table, &got_scratch, threshold);
            ASSERT_GE(abandoned, threshold)
                << simd::IsaName(table->isa) << " n=" << n
                << " w=" << window << " threshold=" << threshold;
            ASSERT_EQ(abandoned, dtw(scalar, &want_scratch, threshold))
                << simd::IsaName(table->isa) << " n=" << n
                << " w=" << window << " threshold=" << threshold;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, PaaMatchesScalarOnEveryLengthTo256) {
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(91);
    for (size_t n = 1; n <= 256; ++n) {
      const std::vector<float> s = RandomSeries(&rng, n);
      // Segment counts spanning 1 point per segment up to one segment
      // total, including the non-dividing geometries.
      for (size_t segments :
           {size_t{1}, std::min<size_t>(n, 3), std::min<size_t>(n, 8),
            std::min<size_t>(n, 16), n}) {
        std::vector<double> want(segments), got(segments);
        scalar.paa(s.data(), n, static_cast<int>(segments), want.data());
        table->paa(s.data(), n, static_cast<int>(segments), got.data());
        for (size_t i = 0; i < segments; ++i) {
          ASSERT_TRUE(NearlyEqual(static_cast<float>(got[i]),
                                  static_cast<float>(want[i])))
              << simd::IsaName(table->isa) << " n=" << n
              << " segments=" << segments << " i=" << i << ": " << got[i]
              << " vs " << want[i];
        }
      }
    }
  }
}

TEST(SimdKernelTest, SaxSymbolsAgreeAcrossPaaKernels) {
  // The SAX word is quantized from the PAA; lane-striped accumulation may
  // move a mean by a few double ulps, which must not flip breakpoints on
  // generic data (a flip needs a mean within ~1 ulp of a quantile).
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(93);
    for (size_t n : {8u, 64u, 100u, 256u}) {
      const IsaxConfig config(n, 8);
      for (int trial = 0; trial < 20; ++trial) {
        const std::vector<float> s = RandomSeries(&rng, n);
        std::vector<double> paa_scalar(8), paa_vector(8);
        scalar.paa(s.data(), n, 8, paa_scalar.data());
        table->paa(s.data(), n, 8, paa_vector.data());
        std::vector<uint8_t> sax_scalar(8), sax_vector(8);
        ComputeSaxFromPaa(paa_scalar.data(), config, sax_scalar.data());
        ComputeSaxFromPaa(paa_vector.data(), config, sax_vector.data());
        for (int i = 0; i < 8; ++i) {
          ASSERT_EQ(sax_scalar[i], sax_vector[i])
              << simd::IsaName(table->isa) << " n=" << n << " segment " << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, SubnormalInputsMatchScalar) {
  // ±subnormals and tiny normals: d*d underflows; all ISAs must agree (no
  // kernel sets FTZ/DAZ, so vector and scalar follow the same IEEE rules).
  const float specials[] = {0.0f,     1e-38f,  -1e-38f, 1e-41f, -1e-41f,
                            1e-44f,   -1e-44f, 1.5f,    -2.5f,  1e-30f,
                            -1e-30f};
  const size_t kNumSpecials = sizeof(specials) / sizeof(specials[0]);
  const simd::KernelTable& scalar = simd::ScalarTable();
  for (const simd::KernelTable* table : VectorTables()) {
    Rng rng(71);
    for (size_t n : {1u, 7u, 16u, 61u, 250u, 256u}) {
      std::vector<float> a(n), b(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = specials[rng.NextBounded(kNumSpecials)];
        b[i] = specials[rng.NextBounded(kNumSpecials)];
      }
      const float want = scalar.squared_euclidean(a.data(), b.data(), n);
      const float got = table->squared_euclidean(a.data(), b.data(), n);
      ASSERT_TRUE(NearlyEqual(got, want))
          << simd::IsaName(table->isa) << " n=" << n;
      const Envelope env = BuildEnvelope(a.data(), n, 2);
      ASSERT_TRUE(NearlyEqual(
          table->lb_keogh(env.upper.data(), env.lower.data(), b.data(), n),
          scalar.lb_keogh(env.upper.data(), env.lower.data(), b.data(), n)))
          << simd::IsaName(table->isa) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, PublicEntryPointsUseActiveTable) {
  Rng rng(81);
  const std::vector<float> a = RandomSeries(&rng, 96);
  const std::vector<float> b = RandomSeries(&rng, 96);
  const simd::KernelTable& active = simd::ActiveTable();
  EXPECT_EQ(SquaredEuclidean(a.data(), b.data(), 96),
            active.squared_euclidean(a.data(), b.data(), 96));
  const Envelope env = BuildEnvelope(a.data(), 96, 5);
  EXPECT_EQ(SquaredLbKeogh(env, b.data()),
            active.lb_keogh(env.upper.data(), env.lower.data(), b.data(), 96));
  EXPECT_EQ(HasAvx2Kernels(), active.isa == simd::Isa::kAvx2);
}

}  // namespace
}  // namespace odyssey
