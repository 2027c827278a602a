// Tests for the PreparedQuery pipeline: the batch-level summaries must be
// (a) exactly what the standalone summarization routines produce, (b)
// bit-identical in effect whether an execution uses the batch-shared
// artifact or a freshly prepared one — across ED / DTW / k-NN /
// approximate modes and under work-stealing — and (c) built at most once
// per query per batch across scheduling, replicas and stolen work
// (asserted through the summary_stats counters).

// Installs the counting global operator new from testing_utils.h so the
// hot-path purity tests below can assert zero steady-state allocations.
// Must be defined before any include (one TU per binary may define it).
#define ODYSSEY_TESTING_COUNT_ALLOCATIONS 1

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/hotpath.h"
#include "src/common/rng.h"
#include "src/common/summary_stats.h"
#include "src/common/thread_pool.h"
#include "src/core/driver.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/index/query_engine.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

IndexOptions TestIndexOptions(size_t length = 64) {
  IndexOptions options;
  options.config = IsaxConfig(length, 8);
  options.leaf_capacity = 32;
  return options;
}

// ------------------------------------------------- PreparedQuery contents

TEST(PreparedQueryTest, SummariesMatchStandaloneRoutines) {
  const SeriesCollection queries = GenerateRandomWalk(10, 64, 201);
  const IsaxConfig config(64, 8);
  const size_t window = WarpingWindowFromFraction(64, 0.1);
  for (size_t q = 0; q < queries.size(); ++q) {
    const float* series = queries.data(q);
    const PreparedQuery prepared =
        PreparedQuery::Prepare(series, config, /*build_dtw_envelope=*/true,
                               window);
    EXPECT_EQ(prepared.series(), series);
    EXPECT_EQ(prepared.length(), 64u);
    EXPECT_EQ(prepared.segments(), 8);

    const std::vector<double> paa = ComputePaa(series, config.paa);
    std::vector<uint8_t> sax(config.segments());
    ComputeSax(series, config, sax.data());
    for (int i = 0; i < config.segments(); ++i) {
      EXPECT_EQ(prepared.paa()[i], paa[i]) << "segment " << i;
      EXPECT_EQ(prepared.sax()[i], sax[i]) << "segment " << i;
    }

    ASSERT_TRUE(prepared.has_envelope());
    EXPECT_EQ(prepared.dtw_window(), window);
    const Envelope envelope = BuildEnvelope(series, 64, window);
    ASSERT_EQ(prepared.envelope().length(), envelope.length());
    for (size_t t = 0; t < envelope.length(); ++t) {
      EXPECT_EQ(prepared.envelope().upper[t], envelope.upper[t]);
      EXPECT_EQ(prepared.envelope().lower[t], envelope.lower[t]);
    }
    const EnvelopePaa env_paa = ComputeEnvelopePaa(envelope, config);
    for (int i = 0; i < config.segments(); ++i) {
      EXPECT_EQ(prepared.envelope_paa().upper[i], env_paa.upper[i]);
      EXPECT_EQ(prepared.envelope_paa().lower[i], env_paa.lower[i]);
    }
  }
}

TEST(PreparedQueryTest, EnvelopeAccessorsGatedOnPreparation) {
  const SeriesCollection queries = GenerateRandomWalk(1, 64, 203);
  const PreparedQuery prepared =
      PreparedQuery::Prepare(queries.data(0), IsaxConfig(64, 8));
  EXPECT_FALSE(prepared.has_envelope());
  EXPECT_EQ(prepared.dtw_window(), 0u);
}

TEST(PreparedBatchTest, PooledBuildIsBitIdenticalToSerial) {
  const SeriesCollection queries = GenerateSeismicLike(37, 64, 205);
  const IsaxConfig config(64, 8);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  ThreadPool pool(4);
  const PreparedBatch pooled =
      PreparedBatch::Prepare(queries, config, true, window, &pool);
  const PreparedBatch serial =
      PreparedBatch::Prepare(queries, config, true, window);
  ASSERT_EQ(pooled.size(), queries.size());
  ASSERT_EQ(serial.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (int i = 0; i < config.segments(); ++i) {
      EXPECT_EQ(pooled.query(q).paa()[i], serial.query(q).paa()[i]);
      EXPECT_EQ(pooled.query(q).sax()[i], serial.query(q).sax()[i]);
    }
    for (size_t t = 0; t < 64; ++t) {
      EXPECT_EQ(pooled.query(q).envelope().upper[t],
                serial.query(q).envelope().upper[t]);
      EXPECT_EQ(pooled.query(q).envelope().lower[t],
                serial.query(q).envelope().lower[t]);
    }
  }
}

// ------------------------------------- shared-vs-fresh execution identity

struct ModeCase {
  const char* name;
  bool use_dtw;
  int k;
  bool approximate;
};

class SharedSummaryEquivalenceTest : public ::testing::TestWithParam<ModeCase> {
};

TEST_P(SharedSummaryEquivalenceTest, BatchSharedArtifactIsBitIdentical) {
  const ModeCase mode = GetParam();
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 207);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 209);

  QueryOptions qo;
  qo.num_threads = 2;
  qo.k = mode.k;
  qo.use_dtw = mode.use_dtw;
  qo.dtw_window =
      mode.use_dtw ? WarpingWindowFromFraction(64, 0.05) : 0;
  qo.approximate = mode.approximate;

  // The batch-shared artifacts, built once for all queries...
  const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryExecution shared_exec(&index, batch.query(q), qo);
    shared_exec.SeedInitialBsf();
    shared_exec.Run(&pool);
    // ... against a per-execution summarization, as the pre-refactor code
    // performed inside every Initialize().
    const PreparedQuery fresh =
        PrepareQuery(queries.data(q), index.config(), qo);
    QueryExecution fresh_exec(&index, fresh, qo);
    fresh_exec.SeedInitialBsf();
    fresh_exec.Run(&pool);

    const auto got = shared_exec.results().SortedResults();
    const auto want = fresh_exec.results().SortedResults();
    ASSERT_EQ(got.size(), want.size()) << mode.name << " query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].squared_distance, want[i].squared_distance)
          << mode.name << " query " << q << " rank " << i;
      EXPECT_EQ(got[i].id, want[i].id)
          << mode.name << " query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SharedSummaryEquivalenceTest,
    ::testing::Values(ModeCase{"ed_k1", false, 1, false},
                      ModeCase{"ed_k5", false, 5, false},
                      ModeCase{"dtw_k1", true, 1, false},
                      ModeCase{"dtw_k3", true, 3, false},
                      ModeCase{"approx_k1", false, 1, true},
                      ModeCase{"approx_k10", false, 10, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SharedSummaryEquivalenceTest, StolenWorkReusesVictimArtifact) {
  // Victim and thief split the RS-batches of one query. Sharing the
  // victim's prepared artifact must give bit-identical merged answers to
  // both sides preparing their own (the pre-refactor behavior).
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 211);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 2.0, 213);
  QueryOptions qo;
  qo.num_threads = 2;
  qo.num_batches = 8;
  ThreadPool pool(2);

  auto run_split = [&](const PreparedQuery& for_victim,
                       const PreparedQuery& for_thief) {
    QueryExecution victim(&index, for_victim, qo);
    QueryExecution thief(&index, for_thief, qo);
    victim.SeedInitialBsf();
    thief.SeedInitialBsf();
    std::vector<int> victim_ids, thief_ids;
    for (int b = 0; b < 8; ++b) {
      (b % 2 == 0 ? victim_ids : thief_ids).push_back(b);
    }
    victim.RunBatchSubset(victim_ids, &pool);
    thief.RunBatchSubset(thief_ids, &pool);
    std::vector<Neighbor> merged;
    for (const auto& n : victim.results().SortedResults()) merged.push_back(n);
    for (const auto& n : thief.results().SortedResults()) merged.push_back(n);
    return MergeAnswers(merged, qo.k);
  };

  const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);
  for (size_t q = 0; q < queries.size(); ++q) {
    const PreparedQuery fresh_victim =
        PrepareQuery(queries.data(q), index.config(), qo);
    const PreparedQuery fresh_thief =
        PrepareQuery(queries.data(q), index.config(), qo);
    const auto shared = run_split(batch.query(q), batch.query(q));
    const auto fresh = run_split(fresh_victim, fresh_thief);
    ASSERT_EQ(shared.size(), fresh.size()) << "query " << q;
    for (size_t i = 0; i < shared.size(); ++i) {
      EXPECT_EQ(shared[i].squared_distance, fresh[i].squared_distance);
      EXPECT_EQ(shared[i].id, fresh[i].id);
    }
  }
}

// -------------------------------------------- once-per-query-per-batch

TEST(SummarizationCountTest, EdBatchSummarizesOncePerQuery) {
  const SeriesCollection data = GenerateSeismicLike(1200, 64, 215);
  const SeriesCollection queries = GenerateUniformQueries(data, 12, 1.0, 217);
  OdysseyOptions options;
  // FULL replication with stealing and prediction-based dynamic
  // scheduling: the configuration with the most summary consumers — the
  // scheduler's estimation, four replicas, and stolen-work runs.
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);

  summary_stats::Reset();
  const BatchReport report = cluster.AnswerBatch(queries);
  ASSERT_EQ(report.answers.size(), queries.size());
  EXPECT_EQ(summary_stats::PaaCalls(), queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), queries.size());
  EXPECT_EQ(summary_stats::EnvelopeCalls(), 0u);

  // A second batch prepares again (once per query per batch).
  cluster.AnswerBatch(queries);
  EXPECT_EQ(summary_stats::PaaCalls(), 2 * queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), 2 * queries.size());
}

TEST(SummarizationCountTest, DtwBatchBuildsOneEnvelopePerQuery) {
  const SeriesCollection data = GenerateSeismicLike(800, 64, 219);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 221);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  options.query_options.use_dtw = true;
  options.query_options.dtw_window = WarpingWindowFromFraction(64, 0.05);
  OdysseyCluster cluster(data, options);

  summary_stats::Reset();
  cluster.AnswerBatch(queries);
  EXPECT_EQ(summary_stats::EnvelopeCalls(), queries.size());
  // One PAA for the query itself plus one per envelope band.
  EXPECT_EQ(summary_stats::PaaCalls(), 3 * queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), queries.size());
}

TEST(SummarizationCountTest, StreamPreparesOncePerQuery) {
  const SeriesCollection data = GenerateRandomWalk(600, 64, 223);
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.0, 225);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);

  summary_stats::Reset();
  cluster.AnswerStream(queries, std::vector<double>(queries.size(), 0.0));
  EXPECT_EQ(summary_stats::PaaCalls(), queries.size());
  EXPECT_EQ(summary_stats::SaxCalls(), queries.size());
}

// ------------------------------------------------ distributed equivalence

TEST(DistributedEquivalenceTest, ClusterAnswersMatchSingleIndexPipeline) {
  // The cluster path (prepared batch shared across nodes) must agree with
  // brute force, under the configuration that exercises estimation,
  // replicas and steals at once.
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 227);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.5, 229);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 2;
  options.query_options.k = 3;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto exact = testing_utils::BruteForceKnn(data, queries.data(q), 3);
    ASSERT_EQ(report.answers[q].size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_TRUE(testing_utils::NearlyEqual(
          report.answers[q][i].squared_distance, exact[i].squared_distance))
          << "query " << q << " rank " << i;
    }
  }
}

// ------------------------------------------------- hot-path purity

// FixedIdSet (the open-addressing set that replaced KnnSet's allocating
// std::unordered_set) must agree with a reference set under a KnnSet-like
// workload: capacity-bounded membership with evictions, dense ids so probe
// chains collide and backward-shift deletion is exercised hard.
TEST(FixedIdSetTest, MatchesReferenceSetUnderEvictionWorkload) {
  std::mt19937 rng(12345);
  for (const size_t capacity : {size_t{1}, size_t{3}, size_t{16}, size_t{100}}) {
    FixedIdSet set(capacity);
    std::unordered_set<uint32_t> ref;
    std::vector<uint32_t> resident;  // for picking random eviction victims
    for (int step = 0; step < 20000; ++step) {
      const uint32_t id = rng() % 512;
      ASSERT_EQ(set.Contains(id), ref.count(id) > 0) << "step " << step;
      if (ref.count(id) == 0) {
        if (ref.size() == capacity) {
          // Full: evict a random resident first, as KnnSet evicts its
          // current worst before admitting a better candidate.
          const size_t v = rng() % resident.size();
          const uint32_t victim = resident[v];
          set.Remove(victim);
          ref.erase(victim);
          resident[v] = resident.back();
          resident.pop_back();
          ASSERT_FALSE(set.Contains(victim)) << "step " << step;
        }
        set.Add(id);
        ref.insert(id);
        resident.push_back(id);
      }
      const uint32_t probe = rng() % 512;
      ASSERT_EQ(set.Contains(probe), ref.count(probe) > 0) << "step " << step;
      ASSERT_EQ(set.size(), ref.size()) << "step " << step;
    }
  }
}

// ------------------------------------------------- leaf-scan block edges

// The exact scan filters, prefetches and scores a leaf in blocks of
// QueryExecution::kScanBlock series. This data set puts leaves of every
// size around a block edge — 1, 31, 32, 33 and 128 series — next to an
// overflow leaf: 200 series with one SAX word at full cardinality, more
// than leaf_capacity, so no split can separate them.
//
// Each ordinary cluster shares one root key (the signs of its segment
// means, four positive and four negative) and holds at most
// leaf_capacity series, so it is one root leaf. The overflow cluster's
// series add offsets of +-j/1024 pairwise within each segment to segment
// means of +-0.75: every sum is exact, so every PAA value is exactly
// +-0.75 and the SAX words agree. Offsets repeat every 50 series, which
// makes exact distance ties that the (distance, id) order must resolve.
//
// The last series of the 31-, 33- and 128-series clusters are near zero:
// their cluster's signs at magnitudes kNearZero[c]. Near-zero queries
// with the signs of a cluster that holds no such series (see
// kNearZeroQueryPatterns) then have their nearest neighbours in those leaf
// tails, outside the leaf the approximate search seeds the answer from,
// so even k = 1 depends on the exact scan reaching a leaf's last block.
constexpr size_t kBlockTestLength = 64;
constexpr size_t kBlockTestLeafCapacity = 128;
constexpr size_t kOverflowLeafSize = 200;
constexpr size_t kSegmentLength = kBlockTestLength / 8;
constexpr uint8_t kNearZeroQueryPatterns[] = {0x0F, 0x33, 0xAA};

void AppendSignPattern(uint8_t pattern, float magnitude,
                       SeriesCollection* data) {
  std::vector<float> series(kBlockTestLength);
  for (size_t t = 0; t < kBlockTestLength; ++t) {
    const bool positive = (pattern >> (t / kSegmentLength)) & 1u;
    series[t] = positive ? magnitude : -magnitude;
  }
  data->Append(series.data());
}

SeriesCollection BlockEdgeCollection() {
  const size_t sizes[] = {1, 31, 32, 33, 128};
  const uint8_t patterns[] = {0x0F, 0xF0, 0x33, 0xCC, 0x55};
  const float kNearZero[] = {0.0f, 0.025f, 0.0f, 0.02f, 0.03f};
  SeriesCollection data(kBlockTestLength);
  Rng rng(4101);
  std::vector<float> series(kBlockTestLength);
  for (size_t c = 0; c < std::size(sizes); ++c) {
    for (size_t n = 0; n < sizes[c]; ++n) {
      if (kNearZero[c] > 0.0f && n + 1 == sizes[c]) {
        AppendSignPattern(patterns[c], kNearZero[c], &data);
        continue;
      }
      for (size_t t = 0; t < kBlockTestLength; ++t) {
        const bool positive = (patterns[c] >> (t / kSegmentLength)) & 1u;
        series[t] = (positive ? 1.0f : -1.0f) +
                    static_cast<float>(0.2 * rng.NextGaussian());
      }
      data.Append(series.data());
    }
  }
  constexpr uint8_t kOverflowPattern = 0xAA;
  for (size_t n = 0; n < kOverflowLeafSize; ++n) {
    const float step = static_cast<float>(n % 50 + 1) / 1024.0f;
    for (size_t t = 0; t < kBlockTestLength; ++t) {
      const bool positive = (kOverflowPattern >> (t / kSegmentLength)) & 1u;
      const size_t j = t % kSegmentLength;
      const float offset = static_cast<float>(j / 2 + 1) * step;
      series[t] = (positive ? 0.75f : -0.75f) + (j % 2 == 0 ? offset : -offset);
    }
    data.Append(series.data());
  }
  return data;
}

void CollectLeafSizes(const TreeNode* node, std::vector<size_t>* sizes) {
  if (node->is_leaf()) {
    if (!node->ids().empty()) sizes->push_back(node->ids().size());
    return;
  }
  CollectLeafSizes(node->left(), sizes);
  CollectLeafSizes(node->right(), sizes);
}

struct BlockEdgeCase {
  const char* name;
  bool use_dtw;
  int k;
  int num_threads;
};

class LeafScanBlockTest : public ::testing::TestWithParam<BlockEdgeCase> {};

TEST_P(LeafScanBlockTest, AnswersMatchOracleAtEveryBlockEdge) {
  const BlockEdgeCase mode = GetParam();
  const SeriesCollection data = BlockEdgeCollection();
  IndexOptions index_options;
  index_options.config = IsaxConfig(kBlockTestLength, 8);
  index_options.leaf_capacity = kBlockTestLeafCapacity;
  const Index index = Index::Build(SeriesCollection(data), index_options);

  std::vector<size_t> leaf_sizes;
  for (size_t r = 0; r < index.tree().root_count(); ++r) {
    CollectLeafSizes(index.tree().root(r), &leaf_sizes);
  }
  std::sort(leaf_sizes.begin(), leaf_sizes.end());
  ASSERT_EQ(leaf_sizes, (std::vector<size_t>{1, 31, 32, 33, 128,
                                             kOverflowLeafSize}));
  ASSERT_EQ(QueryExecution::kScanBlock, 32u)
      << "the leaf sizes above bracket this block size";

  // Queries near each cluster (perturbed members, and one exact overflow
  // member), the near-zero queries, and walks that belong to no cluster,
  // so both pruned and fully scanned leaves occur.
  SeriesCollection queries(kBlockTestLength);
  Rng rng(4103);
  std::vector<float> query(kBlockTestLength);
  for (uint32_t member : {0u, 20u, 50u, 90u, 200u, 300u, 400u}) {
    for (size_t t = 0; t < kBlockTestLength; ++t) {
      query[t] = data.data(member)[t] +
                 static_cast<float>(0.3 * rng.NextGaussian());
    }
    queries.Append(query.data());
  }
  queries.Append(data.data(data.size() - 1));
  const size_t first_near_zero = queries.size();
  for (uint8_t pattern : kNearZeroQueryPatterns) {
    AppendSignPattern(pattern, 0.005f, &queries);
  }
  const size_t end_near_zero = queries.size();
  const SeriesCollection walks = GenerateRandomWalk(3, kBlockTestLength, 4105);
  for (size_t q = 0; q < walks.size(); ++q) queries.Append(walks.data(q));

  QueryOptions qo;
  qo.num_threads = mode.num_threads;
  qo.k = mode.k;
  qo.use_dtw = mode.use_dtw;
  qo.dtw_window =
      mode.use_dtw ? WarpingWindowFromFraction(kBlockTestLength, 0.1) : 0;
  const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);
  ThreadPool pool(2);
  ThreadPool* run_pool = mode.num_threads > 1 ? &pool : nullptr;

  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<Neighbor> want =
        mode.use_dtw
            ? testing_utils::BruteForceKnnDtw(data, queries.data(q), mode.k,
                                              qo.dtw_window)
            : testing_utils::BruteForceKnn(data, queries.data(q), mode.k);
    if (q >= first_near_zero && q < end_near_zero) {
      const std::vector<uint32_t>& seed_ids =
          ApproximateSearchLeaf(index, batch.query(q), nullptr)->ids();
      ASSERT_EQ(std::count(seed_ids.begin(), seed_ids.end(), want[0].id), 0)
          << mode.name << " query " << q
          << ": the nearest neighbour must lie outside the seeding leaf";
    }
    size_t first_real_distances = 0;
    for (int run = 0; run < 2; ++run) {
      QueryExecution exec(&index, batch.query(q), qo);
      exec.SeedInitialBsf();
      exec.Run(run_pool);
      const std::vector<Neighbor> got = exec.results().SortedResults();
      ASSERT_EQ(got.size(), want.size()) << mode.name << " query " << q;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].squared_distance, want[i].squared_distance)
            << mode.name << " query " << q << " rank " << i;
        EXPECT_EQ(got[i].id, want[i].id)
            << mode.name << " query " << q << " rank " << i;
      }
      // One worker scores a deterministic sequence of series.
      const size_t real_distances = exec.stats().real_distances;
      if (run == 0) {
        first_real_distances = real_distances;
      } else if (mode.num_threads == 1) {
        EXPECT_EQ(real_distances, first_real_distances)
            << mode.name << " query " << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LeafScanBlockTest,
    ::testing::Values(BlockEdgeCase{"ed_k1_t1", false, 1, 1},
                      BlockEdgeCase{"ed_k1_t2", false, 1, 2},
                      BlockEdgeCase{"ed_k5_t1", false, 5, 1},
                      BlockEdgeCase{"ed_k5_t2", false, 5, 2},
                      BlockEdgeCase{"dtw_k1_t1", true, 1, 1},
                      BlockEdgeCase{"dtw_k1_t2", true, 1, 2},
                      BlockEdgeCase{"dtw_k5_t1", true, 5, 1},
                      BlockEdgeCase{"dtw_k5_t2", true, 5, 2}),
    [](const auto& info) { return std::string(info.param.name); });

// ------------------------------------------------------ DTW bound cascade

struct DtwKnnCase {
  const char* name;
  int k;
  size_t window;
  int num_threads;
};

class DtwCascadeKnnTest : public ::testing::TestWithParam<DtwKnnCase> {};

// The scan discards a candidate by LB_Keogh or LB_Improved only when its
// DTW could not beat the threshold, so DTW k-NN stays exact: at window 0
// (ED through the DTW path), 12 (5% of a 256-point series' worth of
// warping, here 19% of 64) and n - 1 (the full matrix), on one worker and
// on two.
TEST_P(DtwCascadeKnnTest, AnswersMatchOracle) {
  const DtwKnnCase mode = GetParam();
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 4201);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 4203);
  QueryOptions qo;
  qo.num_threads = mode.num_threads;
  qo.k = mode.k;
  qo.use_dtw = true;
  qo.dtw_window = mode.window;
  const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<Neighbor> want = testing_utils::BruteForceKnnDtw(
        data, queries.data(q), mode.k, mode.window);
    QueryExecution exec(&index, batch.query(q), qo);
    exec.SeedInitialBsf();
    exec.Run(mode.num_threads > 1 ? &pool : nullptr);
    const std::vector<Neighbor> got = exec.results().SortedResults();
    ASSERT_EQ(got.size(), want.size()) << mode.name << " query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].squared_distance, want[i].squared_distance)
          << mode.name << " query " << q << " rank " << i;
      EXPECT_EQ(got[i].id, want[i].id)
          << mode.name << " query " << q << " rank " << i;
    }
    EXPECT_LE(exec.stats().dtw_distances, exec.stats().real_distances)
        << mode.name << " query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DtwCascadeKnnTest,
    ::testing::Values(DtwKnnCase{"k1_w0_t1", 1, 0, 1},
                      DtwKnnCase{"k1_w0_t2", 1, 0, 2},
                      DtwKnnCase{"k1_w12_t1", 1, 12, 1},
                      DtwKnnCase{"k1_w12_t2", 1, 12, 2},
                      DtwKnnCase{"k1_w63_t1", 1, 63, 1},
                      DtwKnnCase{"k1_w63_t2", 1, 63, 2},
                      DtwKnnCase{"k5_w0_t1", 5, 0, 1},
                      DtwKnnCase{"k5_w0_t2", 5, 0, 2},
                      DtwKnnCase{"k5_w12_t1", 5, 12, 1},
                      DtwKnnCase{"k5_w12_t2", 5, 12, 2},
                      DtwKnnCase{"k5_w63_t1", 5, 63, 1},
                      DtwKnnCase{"k5_w63_t2", 5, 63, 2}),
    [](const auto& info) { return std::string(info.param.name); });

// dtw_distances counts the DPs the cascade actually ran. On seismic-like
// data at window 12 LB_Improved discards some candidates that LB_Keogh let
// through, so fewer DPs run than real distances are scored; ED runs none.
TEST(DtwCascadeTest, RunsFewerDpsThanRealDistances) {
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 4205);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.0, 4207);
  for (const bool use_dtw : {true, false}) {
    QueryOptions qo;
    qo.num_threads = 1;
    qo.use_dtw = use_dtw;
    qo.dtw_window = use_dtw ? 12 : 0;
    const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);
    size_t real_distances = 0, dtw_distances = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      QueryExecution exec(&index, batch.query(q), qo);
      exec.SeedInitialBsf();
      exec.Run();
      real_distances += exec.stats().real_distances;
      dtw_distances += exec.stats().dtw_distances;
    }
    ASSERT_GT(real_distances, 0u);
    if (use_dtw) {
      EXPECT_GT(dtw_distances, 0u);
      EXPECT_LT(dtw_distances, real_distances);
    } else {
      EXPECT_EQ(dtw_distances, 0u);
    }
  }
}

// The counting allocator itself must be live — allocations inside a hot
// region are observed, allocations outside (or under an allowance) are
// not. Without this, the steady-state assertions below could pass
// trivially with a broken counter. Direct operator-new calls are used
// because new-expressions may legally be elided.
TEST(HotPathPurityTest, CountingAllocatorObservesHotRegionAllocations) {
  testing_utils::ResetHotAllocations();
  ::operator delete(::operator new(64));
  EXPECT_EQ(testing_utils::HotAllocations(), 0u) << "counted outside region";
  {
    hotpath::ScopedHotRegion region;
    ::operator delete(::operator new(64));
  }
  EXPECT_EQ(testing_utils::HotAllocations(), 1u) << "missed in-region alloc";
  {
    hotpath::ScopedHotRegion region;
    hotpath::ScopedAllowance allowance;
    ::operator delete(::operator new(64));
  }
  EXPECT_EQ(testing_utils::HotAllocations(), 1u)
      << "allowance did not suppress counting";
  testing_utils::ResetHotAllocations();
}

// The dynamic backstop behind tools/check_hot_paths.py: once the
// thread-local scratch (DTW DP rows, claim snapshots, FixedIdSet heaps)
// has warmed up on the first query, every later query's scoring phases
// must perform zero heap allocations. num_threads = 1 runs all three
// phases inline on the calling thread, so the warm-up deterministically
// heats exactly the thread-locals the steady-state queries use.
TEST(HotPathPurityTest, SteadyStateSingleThreadedRunIsAllocationFree) {
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 401);
  const Index index = Index::Build(SeriesCollection(data), TestIndexOptions());
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 403);

  struct Mode {
    const char* name;
    bool use_dtw;
    int k;
  };
  for (const Mode& mode :
       {Mode{"ed_k1", false, 1}, Mode{"ed_k5", false, 5},
        Mode{"dtw_k3", true, 3}}) {
    QueryOptions qo;
    qo.num_threads = 1;
    qo.k = mode.k;
    qo.use_dtw = mode.use_dtw;
    qo.dtw_window = mode.use_dtw ? WarpingWindowFromFraction(64, 0.05) : 0;
    const PreparedBatch batch = PrepareBatch(queries, index.config(), qo);

    // Warm-up: grows this thread's QueryScratch / DtwScratch high-water
    // marks. Construction of QueryExecution (queues, KnnSet heap) happens
    // outside the hot regions and is allowed to allocate every run.
    {
      QueryExecution warm(&index, batch.query(0), qo);
      warm.SeedInitialBsf();
      warm.Run();
    }

    testing_utils::ResetHotAllocations();
    for (size_t q = 1; q < queries.size(); ++q) {
      QueryExecution exec(&index, batch.query(q), qo);
      exec.SeedInitialBsf();
      exec.Run();
      ASSERT_EQ(exec.results().SortedResults().size(),
                static_cast<size_t>(mode.k))
          << mode.name << " query " << q;
    }
    EXPECT_EQ(testing_utils::HotAllocations(), 0u) << mode.name;
  }
}

}  // namespace
}  // namespace odyssey
