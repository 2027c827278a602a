#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/simd.h"
#include "src/index/approx_search.h"
#include "src/index/builder.h"
#include "src/index/pqueue.h"
#include "src/index/query_engine.h"
#include "src/isax/breakpoints.h"
#include "src/isax/isax_word.h"
#include "src/isax/mindist.h"
#include "src/isax/paa.h"
#include "src/query/prepared_query.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

// ----------------------------------------------------------- Breakpoints

TEST(InverseNormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.8413447), 1.0, 1e-5);
}

TEST(BreakpointTableTest, CountsAndOrdering) {
  const BreakpointTable& table = BreakpointTable::Get();
  for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
    const auto& bps = table.ForBits(bits);
    ASSERT_EQ(bps.size(), (1u << bits) - 1) << "bits=" << bits;
    for (size_t i = 1; i < bps.size(); ++i) ASSERT_LT(bps[i - 1], bps[i]);
  }
}

TEST(BreakpointTableTest, SymmetricAroundZero) {
  const BreakpointTable& table = BreakpointTable::Get();
  for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
    const auto& bps = table.ForBits(bits);
    const size_t n = bps.size();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(bps[i], -bps[n - 1 - i], 1e-9);
    }
  }
}

TEST(BreakpointTableTest, NestingGivesPrefixProperty) {
  // The b-bit symbol of any value equals its (b+1)-bit symbol >> 1 — the
  // property the iSAX tree's cardinality refinement depends on.
  const BreakpointTable& table = BreakpointTable::Get();
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const double v = rng.NextGaussian() * 1.5;
    const uint8_t full = table.MaxBitsSymbol(v);
    for (int bits = 1; bits < kMaxSaxBits; ++bits) {
      // Recompute the symbol at `bits` directly from that level's
      // breakpoints.
      const auto& bps = table.ForBits(bits);
      uint32_t direct = 0;
      while (direct < bps.size() && bps[direct] < v) ++direct;
      EXPECT_EQ(direct, static_cast<uint32_t>(full >> (kMaxSaxBits - bits)))
          << "v=" << v << " bits=" << bits;
    }
  }
}

TEST(BreakpointTableTest, RegionBoundsBracketSymbolValues) {
  const BreakpointTable& table = BreakpointTable::Get();
  Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const double v = rng.NextGaussian() * 2.0;
    for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
      const uint32_t symbol = table.MaxBitsSymbol(v) >> (kMaxSaxBits - bits);
      EXPECT_GE(v, table.RegionLower(bits, symbol) - 1e-12);
      EXPECT_LE(v, table.RegionUpper(bits, symbol) + 1e-12);
    }
  }
}

// ------------------------------------------------------------------- PAA

TEST(PaaTest, SegmentBoundsPartitionTheSeries) {
  for (size_t length : {64u, 96u, 100u, 200u, 256u}) {
    for (int segments : {1, 4, 7, 16}) {
      if (static_cast<size_t>(segments) > length) continue;
      const PaaConfig config(length, segments);
      size_t covered = 0;
      for (int i = 0; i < segments; ++i) {
        EXPECT_EQ(config.SegmentBegin(i), covered);
        EXPECT_GE(config.SegmentCount(i), 1u);
        covered = config.SegmentEnd(i);
      }
      EXPECT_EQ(covered, length);
    }
  }
}

TEST(PaaTest, ConstantSeriesHasConstantPaa) {
  std::vector<float> series(100, 2.5f);
  const PaaConfig config(100, 8);
  const std::vector<double> paa = ComputePaa(series.data(), config);
  for (double v : paa) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(PaaTest, MeansAreExact) {
  const float series[] = {1, 3, 5, 7, 2, 4, 6, 8};
  const PaaConfig config(8, 2);
  const std::vector<double> paa = ComputePaa(series, config);
  EXPECT_DOUBLE_EQ(paa[0], 4.0);
  EXPECT_DOUBLE_EQ(paa[1], 5.0);
}

TEST(PaaTest, PaaDistanceLowerBoundsEuclidean) {
  // sum_i n_i (paa_a[i] - paa_b[i])^2 <= squared ED — the Cauchy-Schwarz
  // backbone of every mindist in the library.
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 60;
    const PaaConfig config(n, 8);
    std::vector<float> a(n), b(n);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    const std::vector<double> pa = ComputePaa(a.data(), config);
    const std::vector<double> pb = ComputePaa(b.data(), config);
    double lb = 0.0;
    for (int i = 0; i < 8; ++i) {
      const double d = pa[i] - pb[i];
      lb += static_cast<double>(config.SegmentCount(i)) * d * d;
    }
    const double ed = SquaredEuclideanScalar(a.data(), b.data(), n);
    EXPECT_LE(lb, ed * (1 + 1e-6) + 1e-9);
  }
}

// ------------------------------------------------------------- IsaxWord

TEST(IsaxWordTest, ComputeSaxMatchesPerSegmentSymbols) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(10, 64, 9);
  const BreakpointTable& table = BreakpointTable::Get();
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    const std::vector<double> paa = ComputePaa(data.data(i), config.paa);
    for (int s = 0; s < 8; ++s) {
      EXPECT_EQ(sax[s], table.MaxBitsSymbol(paa[s]));
    }
  }
}

TEST(IsaxWordTest, RootWordAndKeyRoundTrip) {
  const IsaxConfig config(64, 8);
  for (uint32_t key : {0u, 1u, 37u, 128u, 255u}) {
    const IsaxWord word = IsaxWord::Root(config, key);
    ASSERT_EQ(word.symbols.size(), 8u);
    uint32_t rebuilt = 0;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(word.bits[i], 1);
      rebuilt = (rebuilt << 1) | word.symbols[i];
    }
    EXPECT_EQ(rebuilt, key);
  }
}

TEST(IsaxWordTest, SeriesMatchesItsOwnRootWord) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(50, 64, 11);
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    const IsaxWord root = IsaxWord::Root(config, RootKey(sax.data(), config));
    EXPECT_TRUE(root.Matches(sax.data(), config));
  }
}

TEST(IsaxWordTest, ToStringShowsBits) {
  IsaxWord word;
  word.symbols = {1, 0, 3};
  word.bits = {1, 1, 2};
  EXPECT_EQ(word.ToString(), "1|0|11");
}

TEST(IsaxWordTest, MaxBitsBelowEight) {
  const IsaxConfig config(64, 8, /*bits=*/4);
  const SeriesCollection data = GenerateRandomWalk(20, 64, 13);
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    for (int s = 0; s < 8; ++s) EXPECT_LT(sax[s], 16);  // 4-bit symbols
  }
}

// -------------------------------------------------------------- Mindist

class MindistPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(MindistPropertyTest, WordMindistLowerBoundsEuclidean) {
  const auto [length, segments] = GetParam();
  const IsaxConfig config(length, segments);
  const SeriesCollection data = GenerateRandomWalk(200, length, 17);
  const SeriesCollection queries = GenerateRandomWalk(10, length, 19);
  std::vector<uint8_t> sax(segments);
  Rng rng(21);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<double> paa = ComputePaa(queries.data(qi), config.paa);
    const MindistTable table = MindistTable::ForPaa(paa.data(), config);
    for (size_t i = 0; i < data.size(); ++i) {
      ComputeSax(data.data(i), config, sax.data());
      const float ed =
          SquaredEuclideanScalar(queries.data(qi), data.data(i), length);
      // Full-cardinality summary bound.
      ASSERT_LE(table.ToSax(sax.data()), ed * (1 + 1e-5f) + 1e-6f);
      // Variable-cardinality word bound, at random per-segment bit depths.
      IsaxWord word;
      word.symbols.resize(segments);
      word.bits.resize(segments);
      for (int s = 0; s < segments; ++s) {
        const int bits = 1 + static_cast<int>(rng.NextBounded(kMaxSaxBits));
        word.bits[s] = static_cast<uint8_t>(bits);
        word.symbols[s] =
            static_cast<uint8_t>(sax[s] >> (kMaxSaxBits - bits));
      }
      ASSERT_LE(table.ToWord(word), ed * (1 + 1e-5f) + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MindistPropertyTest,
    ::testing::Values(std::make_tuple(64u, 8), std::make_tuple(96u, 16),
                      std::make_tuple(100u, 7), std::make_tuple(128u, 16),
                      std::make_tuple(200u, 16)));

TEST(MindistTest, SeriesAgainstOwnSummaryIsZero) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(50, 64, 23);
  std::vector<uint8_t> sax(8);
  for (size_t i = 0; i < data.size(); ++i) {
    ComputeSax(data.data(i), config, sax.data());
    const std::vector<double> paa = ComputePaa(data.data(i), config.paa);
    EXPECT_EQ(MindistTable::ForPaa(paa.data(), config).ToSax(sax.data()),
              0.0f);
  }
}

TEST(MindistTest, TighterWithMoreBits) {
  // Refining a word can only increase (or keep) the lower bound.
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateRandomWalk(30, 64, 29);
  const SeriesCollection queries = GenerateRandomWalk(5, 64, 31);
  std::vector<uint8_t> sax(8);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<double> paa = ComputePaa(queries.data(qi), config.paa);
    const MindistTable table = MindistTable::ForPaa(paa.data(), config);
    for (size_t i = 0; i < data.size(); ++i) {
      ComputeSax(data.data(i), config, sax.data());
      float prev = -1.0f;
      for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
        IsaxWord word;
        word.symbols.resize(8);
        word.bits.assign(8, static_cast<uint8_t>(bits));
        for (int s = 0; s < 8; ++s) {
          word.symbols[s] =
              static_cast<uint8_t>(sax[s] >> (kMaxSaxBits - bits));
        }
        const float lb = table.ToWord(word);
        ASSERT_GE(lb, prev - 1e-6f) << "bits=" << bits;
        prev = lb;
      }
    }
  }
}

TEST(MindistTest, EnvelopeMindistLowerBoundsDtw) {
  const IsaxConfig config(64, 8);
  const SeriesCollection data = GenerateSeismicLike(150, 64, 33);
  const SeriesCollection queries = GenerateSeismicLike(5, 64, 35);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  std::vector<uint8_t> sax(8);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Envelope env = BuildEnvelope(queries.data(qi), 64, window);
    const MindistTable table =
        MindistTable::ForEnvelope(ComputeEnvelopePaa(env, config), config);
    for (size_t i = 0; i < data.size(); ++i) {
      ComputeSax(data.data(i), config, sax.data());
      const float dtw =
          SquaredDtw(queries.data(qi), data.data(i), 64, window);
      ASSERT_LE(table.ToSax(sax.data()), dtw * (1 + 1e-5f) + 1e-6f);
      const IsaxWord root =
          IsaxWord::Root(config, RootKey(sax.data(), config));
      ASSERT_LE(table.ToWord(root), dtw * (1 + 1e-5f) + 1e-6f);
    }
  }
}

// --------------------------------------------------------- MindistTable

// MindistTable must reproduce the reference definitions
// (testing_utils::Mindist*) bit for bit: the table is a pure speed-up, so
// every pruning decision, and with it every query's stats, must stay the
// same.

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

/// Checks `table` against the reference bounds `ref_sax`/`ref_word` on
/// SAX rows that visit every (segment, symbol) cell plus random rows, and
/// on words at every depth 1..max_bits (all symbols, per segment rotated)
/// plus random mixed-depth words.
template <typename RefSax, typename RefWord>
void ExpectTableMatchesReference(const MindistTable& table,
                                 const IsaxConfig& config, Rng* rng,
                                 const RefSax& ref_sax,
                                 const RefWord& ref_word) {
  const int w = config.segments();
  const int m = config.max_bits;
  const uint32_t card = 1u << m;
  std::vector<uint8_t> sax(w);
  for (uint32_t s = 0; s < card; ++s) {
    for (int i = 0; i < w; ++i) {
      sax[i] = static_cast<uint8_t>((s + 37u * static_cast<uint32_t>(i)) %
                                    card);
    }
    ASSERT_EQ(Bits(table.ToSax(sax.data())), Bits(ref_sax(sax.data())))
        << "rotated sax " << s;
  }
  for (int r = 0; r < 64; ++r) {
    for (int i = 0; i < w; ++i) {
      sax[i] = static_cast<uint8_t>(rng->NextBounded(card));
    }
    ASSERT_EQ(Bits(table.ToSax(sax.data())), Bits(ref_sax(sax.data())))
        << "random sax " << r;
  }
  IsaxWord word;
  word.symbols.resize(w);
  word.bits.resize(w);
  for (int b = 1; b <= m; ++b) {
    const uint32_t depth_card = 1u << b;
    word.bits.assign(w, static_cast<uint8_t>(b));
    for (uint32_t s = 0; s < depth_card; ++s) {
      for (int i = 0; i < w; ++i) {
        word.symbols[i] = static_cast<uint8_t>(
            (s + 5u * static_cast<uint32_t>(i)) % depth_card);
      }
      ASSERT_EQ(Bits(table.ToWord(word)), Bits(ref_word(word)))
          << "depth " << b << " word " << word.ToString();
    }
  }
  for (int r = 0; r < 64; ++r) {
    for (int i = 0; i < w; ++i) {
      const int b = 1 + static_cast<int>(rng->NextBounded(m));
      word.bits[i] = static_cast<uint8_t>(b);
      word.symbols[i] = static_cast<uint8_t>(rng->NextBounded(1u << b));
    }
    ASSERT_EQ(Bits(table.ToWord(word)), Bits(ref_word(word)))
        << "mixed word " << word.ToString();
  }
}

/// Query PAA vectors that stress the region edges: ordinary random-walk
/// means, values exactly on a breakpoint (of the full cardinality and of
/// coarser depths, which are the same doubles), and values beyond the
/// outermost breakpoints.
std::vector<std::vector<double>> EdgeQueryPaas(const IsaxConfig& config,
                                               uint64_t seed) {
  const int w = config.segments();
  const int m = config.max_bits;
  const BreakpointTable& bp = BreakpointTable::Get();
  std::vector<std::vector<double>> out;
  const SeriesCollection walks =
      GenerateRandomWalk(3, config.series_length(), seed);
  for (size_t q = 0; q < walks.size(); ++q) {
    out.push_back(ComputePaa(walks.data(q), config.paa));
  }
  for (int b = 1; b <= m; ++b) {
    const std::vector<double>& bps = bp.ForBits(b);
    std::vector<double> on(w);
    for (int i = 0; i < w; ++i) on[i] = bps[(7 * i + b) % bps.size()];
    out.push_back(on);
  }
  const std::vector<double>& full = bp.ForBits(m);
  std::vector<double> beyond(w);
  for (int i = 0; i < w; ++i) {
    beyond[i] = (i % 2 == 0) ? full.front() - 0.5 * (i + 1)
                             : full.back() + 0.5 * (i + 1);
  }
  out.push_back(beyond);
  out.push_back(std::vector<double>(w, -1e3));
  out.push_back(std::vector<double>(w, 1e3));
  return out;
}

class MindistTableTest
    : public ::testing::TestWithParam<std::tuple<int, size_t, int>> {};

TEST_P(MindistTableTest, EuclideanBoundsAreBitIdenticalToReference) {
  const auto [max_bits, length, segments] = GetParam();
  const IsaxConfig config(length, segments, max_bits);
  Rng rng(501 + static_cast<uint64_t>(max_bits));
  for (const std::vector<double>& paa : EdgeQueryPaas(config, 503)) {
    const MindistTable table = MindistTable::ForPaa(paa.data(), config);
    ExpectTableMatchesReference(
        table, config, &rng,
        [&](const uint8_t* sax) {
          return testing_utils::MindistPaaToSax(paa.data(), sax, config);
        },
        [&](const IsaxWord& word) {
          return testing_utils::MindistPaaToWord(paa.data(), word, config);
        });
    if (HasFatalFailure()) return;
  }
}

TEST_P(MindistTableTest, EnvelopeBoundsAreBitIdenticalToReference) {
  const auto [max_bits, length, segments] = GetParam();
  const IsaxConfig config(length, segments, max_bits);
  Rng rng(507 + static_cast<uint64_t>(max_bits));
  std::vector<EnvelopePaa> bands;
  // Real envelopes at the extreme windows (0: the band is the series
  // itself; n: every point's band is the global min/max) and a typical one.
  const SeriesCollection walks = GenerateSeismicLike(2, length, 509);
  for (size_t q = 0; q < walks.size(); ++q) {
    for (const size_t window : {size_t{0}, length / 20, length}) {
      bands.push_back(ComputeEnvelopePaa(
          BuildEnvelope(walks.data(q), length, window), config));
    }
  }
  // Bands whose edges sit exactly on breakpoints or beyond the outermost.
  for (const std::vector<double>& paa : EdgeQueryPaas(config, 511)) {
    EnvelopePaa point{paa, paa};
    bands.push_back(point);
    EnvelopePaa wide = point;
    for (int i = 0; i < segments; ++i) {
      wide.lower[i] = std::min(paa[i], paa[(i + 1) % segments]);
      wide.upper[i] = std::max(paa[i], paa[(i + 1) % segments]);
    }
    bands.push_back(wide);
  }
  for (const EnvelopePaa& band : bands) {
    const MindistTable table = MindistTable::ForEnvelope(band, config);
    ExpectTableMatchesReference(
        table, config, &rng,
        [&](const uint8_t* sax) {
          return testing_utils::MindistEnvelopeToSax(band, sax, config);
        },
        [&](const IsaxWord& word) {
          return testing_utils::MindistEnvelopeToWord(band, word, config);
        });
    if (HasFatalFailure()) return;
  }
}

// max_bits 1..8 x lengths that divide (64) and do not divide (250: segment
// sizes 15 and 16 at 16 segments) x segments {1, 4, 16}.
INSTANTIATE_TEST_SUITE_P(
    Geometry, MindistTableTest,
    ::testing::Combine(::testing::Range(1, kMaxSaxBits + 1),
                       ::testing::Values(size_t{64}, size_t{250}),
                       ::testing::Values(1, 4, 16)));

struct ReferenceStats {
  size_t leaves_inserted = 0;
  size_t leaves_processed = 0;
  size_t real_distances = 0;
};

/// QueryExecution's one-thread, one-batch, unbounded-queue algorithm
/// (traverse every root in order, then pop the single queue), with every
/// summary bound computed by the reference definitions instead of the
/// execution's MindistTable. Seeds `knn` like SeedInitialBsf and checks
/// that the approximate search's root fallback picks the reference's
/// best root.
ReferenceStats RunWithReferenceBounds(const Index& index,
                                      const PreparedQuery& query,
                                      const QueryOptions& options,
                                      KnnSet* knn) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const IsaxConfig& config = index.config();
  const IndexTree& tree = index.tree();
  const size_t n = config.series_length();
  const simd::KernelTable& kernels = simd::ActiveTable();
  auto word_bound = [&](const IsaxWord& word) {
    return options.use_dtw ? testing_utils::MindistEnvelopeToWord(
                                 query.envelope_paa(), word, config)
                           : testing_utils::MindistPaaToWord(query.paa(),
                                                             word, config);
  };
  auto sax_bound = [&](const uint8_t* sax) {
    return options.use_dtw ? testing_utils::MindistEnvelopeToSax(
                                 query.envelope_paa(), sax, config)
                           : testing_utils::MindistPaaToSax(query.paa(), sax,
                                                            config);
  };
  auto threshold = [&] { return std::nextafter(knn->Threshold(), kInf); };

  // Root fallback: the first root with the smallest PAA word bound.
  if (tree.FindRoot(RootKey(query.sax(), config)) < 0) {
    size_t best_root = 0;
    float best = kInf;
    for (size_t r = 0; r < tree.root_count(); ++r) {
      const float lb =
          testing_utils::MindistPaaToWord(query.paa(), tree.root(r)->word(),
                                          config);
      if (lb < best) {
        best = lb;
        best_root = r;
      }
    }
    const TreeNode* leaf = ApproximateSearchLeaf(index, query);
    EXPECT_TRUE(tree.root(best_root)->word().Matches(leaf->leaf_sax(0),
                                                     config));
  }
  uint32_t approx_id = 0;
  const float approx =
      options.use_dtw ? ApproximateSearchSquaredDtw(index, query, &approx_id)
                      : ApproximateSearchSquared(index, query, &approx_id);
  knn->Offer(approx, approx_id);

  ReferenceStats stats;
  BoundedPq queue(0);
  std::function<void(const TreeNode*)> traverse = [&](const TreeNode* node) {
    if (node->subtree_size() == 0) return;
    const float lb = word_bound(node->word());
    if (lb >= threshold()) return;
    if (node->is_leaf()) {
      queue.Push({lb, node});
      ++stats.leaves_inserted;
      return;
    }
    traverse(node->left());
    traverse(node->right());
  };
  for (size_t r = 0; r < tree.root_count(); ++r) traverse(tree.root(r));

  while (!queue.empty()) {
    const PqItem item = queue.Pop();
    if (item.lower_bound >= threshold()) break;
    ++stats.leaves_processed;
    const TreeNode* leaf = item.leaf;
    for (size_t i = 0; i < leaf->ids().size(); ++i) {
      const float t = threshold();
      if (sax_bound(leaf->leaf_sax(i)) >= t) continue;
      const float* series = index.data().data(leaf->ids()[i]);
      float d = 0.0f;
      if (options.use_dtw) {
        d = kernels.lb_keogh_early_abandon(query.envelope().upper.data(),
                                           query.envelope().lower.data(),
                                           series, n, t);
        if (d < t) {
          d = SquaredDtwEarlyAbandon(series, query.series(), n,
                                     options.dtw_window, t);
        }
      } else {
        d = kernels.squared_euclidean_early_abandon(query.series(), series,
                                                    n, t);
      }
      ++stats.real_distances;
      if (d < t) knn->Offer(d, leaf->ids()[i]);
    }
  }
  return stats;
}

TEST(MindistTableTest, EngineStatsMatchReferenceBounds) {
  // 250 points over 16 segments: unequal segment sizes. Near-duplicate
  // queries hit their root key; unrelated walks exercise the fallback.
  constexpr size_t kLength = 250;
  IndexOptions index_options;
  index_options.config = IsaxConfig(kLength, 16);
  index_options.leaf_capacity = 32;
  const SeriesCollection data = GenerateRandomWalk(1200, kLength, 513);
  const Index index = Index::Build(data, index_options);
  const SeriesCollection near = GenerateUniformQueries(data, 4, 0.5, 515);
  const SeriesCollection unrelated = GenerateRandomWalk(4, kLength, 517);
  const size_t window = WarpingWindowFromFraction(kLength, 0.05);

  size_t fallbacks = 0;
  for (const bool use_dtw : {false, true}) {
    for (const int k : {1, 3}) {
      for (const SeriesCollection* queries : {&near, &unrelated}) {
        for (size_t q = 0; q < queries->size(); ++q) {
          SCOPED_TRACE(::testing::Message()
                       << (use_dtw ? "DTW" : "ED") << " k=" << k
                       << (queries == &near ? " near " : " unrelated ")
                       << q);
          const PreparedQuery prepared = PreparedQuery::Prepare(
              queries->data(q), index_options.config, use_dtw,
              use_dtw ? window : 0);
          if (index.tree().FindRoot(
                  RootKey(prepared.sax(), index_options.config)) < 0) {
            ++fallbacks;
          }
          QueryOptions options;
          options.num_threads = 1;
          options.k = k;
          options.use_dtw = use_dtw;
          options.dtw_window = use_dtw ? window : 0;
          QueryExecution execution(&index, prepared, options);
          execution.SeedInitialBsf();
          execution.Run();
          const QueryStats stats = execution.stats();
          const std::vector<Neighbor> answers =
              execution.results().SortedResults();

          KnnSet reference_knn(k);
          const ReferenceStats reference =
              RunWithReferenceBounds(index, prepared, options, &reference_knn);
          EXPECT_EQ(stats.leaves_inserted, reference.leaves_inserted);
          EXPECT_EQ(stats.leaves_processed, reference.leaves_processed);
          EXPECT_EQ(stats.real_distances, reference.real_distances);
          const std::vector<Neighbor> reference_answers =
              reference_knn.SortedResults();
          ASSERT_EQ(answers.size(), reference_answers.size());
          for (size_t i = 0; i < answers.size(); ++i) {
            EXPECT_EQ(answers[i].id, reference_answers[i].id);
            EXPECT_EQ(Bits(answers[i].squared_distance),
                      Bits(reference_answers[i].squared_distance));
          }

          // And the answers are still exact.
          const std::vector<Neighbor> exact =
              use_dtw ? testing_utils::BruteForceKnnDtw(
                            data, queries->data(q), k, window)
                      : testing_utils::BruteForceKnn(data, queries->data(q),
                                                     k);
          ASSERT_EQ(answers.size(), exact.size());
          for (size_t i = 0; i < exact.size(); ++i) {
            EXPECT_TRUE(testing_utils::NearlyEqual(
                answers[i].squared_distance, exact[i].squared_distance))
                << "rank " << i;
          }
        }
      }
    }
  }
  EXPECT_GT(fallbacks, 0u) << "no query exercised the root fallback";
}

}  // namespace
}  // namespace odyssey
