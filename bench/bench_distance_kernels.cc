// Microbenchmarks of the runtime-dispatched distance-kernel layer
// (src/distance/simd.h): squared Euclidean, early-abandoning Euclidean,
// LB_Keogh, and banded DTW at each available ISA level on 256-point series
// (the paper's standard series length). The scalar/vector ratio here is the
// acceptance number for SIMD-touching PRs. BM_MindistSax/BM_MindistWord
// time the summary lower bounds the exact search computes per series and
// per tree node: the direct per-segment definition (Arg 0) against the
// per-query MindistTable (Arg 1). BM_ScatteredScan times the leaf-scan
// layer above them: one ED call on an L1-resident series, on a series
// scattered over a 51 MB chunk, and on scattered series that the scan's
// filter-then-prefetch blocks load ahead of scoring. BM_DtwCascade times
// the DTW scan's bound cascade per candidate: LB_Keogh, LB_Improved's
// second pass, and the whole cascade with the share reaching the DP.
// BM_DtwWindow times one DTW DP call per tier and window on the pairs the
// cascade sends to the DP.
//
//   $ ./bench_distance_kernels

#include <benchmark/benchmark.h>

#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/distance/dtw.h"
#include "src/distance/lb_keogh.h"
#include "src/distance/simd.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/index/buffers.h"
#include "src/index/builder.h"
#include "src/isax/mindist.h"
#include "src/isax/paa.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

constexpr size_t kLength = 256;
constexpr size_t kSeries = 4096;

/// A flat pool of random series reused by every case (cache-warm, like the
/// leaf scans of a real query).
const std::vector<float>& Pool() {
  static const std::vector<float>& pool = *new std::vector<float>([] {
    std::vector<float> p(kSeries * kLength);
    Rng rng(97);
    for (auto& x : p) x = static_cast<float>(rng.NextGaussian());
    return p;
  }());
  return pool;
}

const simd::KernelTable* TableForArg(int64_t arg) {
  switch (arg) {
    case 3:
      return simd::Avx512Table();
    case 2:
      return simd::Avx2Table();
    case 1:
      return simd::SseTable();
    default:
      return &simd::ScalarTable();
  }
}

void ApplyIsaArgs(benchmark::internal::Benchmark* b) {
  b->Arg(0);
  if (simd::SseTable() != nullptr) b->Arg(1);
  if (simd::Avx2Table() != nullptr) b->Arg(2);
  if (simd::Avx512Table() != nullptr) b->Arg(3);
}

void BM_SquaredEuclidean256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  const float* query = pool.data();
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < kSeries; ++i) {
      checksum +=
          table->squared_euclidean(query, pool.data() + i * kLength, kLength);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - 1));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_SquaredEuclidean256)->Apply(ApplyIsaArgs)
    ->Unit(benchmark::kMicrosecond);

void BM_SquaredEuclideanEarlyAbandon256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  const float* query = pool.data();
  // A realistic pruning threshold: most candidates abandon part-way, like a
  // leaf scan once a good BSF is known.
  const float threshold =
      table->squared_euclidean(query, pool.data() + kLength, kLength);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < kSeries; ++i) {
      checksum += table->squared_euclidean_early_abandon(
          query, pool.data() + i * kLength, kLength, threshold);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - 1));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_SquaredEuclideanEarlyAbandon256)->Apply(ApplyIsaArgs)
    ->Unit(benchmark::kMicrosecond);

void BM_LbKeogh256(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  const Envelope env = BuildEnvelope(pool.data(), kLength, 13);  // 5% warping
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < kSeries; ++i) {
      checksum += table->lb_keogh(env.upper.data(), env.lower.data(),
                                  pool.data() + i * kLength, kLength);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSeries - 1));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_LbKeogh256)->Apply(ApplyIsaArgs)->Unit(benchmark::kMicrosecond);

void BM_Paa256(benchmark::State& state) {
  // The PAA summarization kernel (16 segments, as in MESSI/Odyssey): what
  // PreparedBatch pays once per query. The scalar/vector ratio here is the
  // acceptance number for the summarization kernel.
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  constexpr int kSegments = 16;
  double out[kSegments];
  double checksum = 0.0;
  for (auto _ : state) {
    for (size_t i = 0; i < kSeries; ++i) {
      table->paa(pool.data() + i * kLength, kLength, kSegments, out);
      checksum += out[0];
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kSeries));
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_Paa256)->Apply(ApplyIsaArgs)->Unit(benchmark::kMicrosecond);

void BM_Dtw256(benchmark::State& state) {
  // The whole banded DTW DP at 5% warping, per ISA. Arg 1 = 0 runs every DP
  // in full; 1 early-abandons at a realistic threshold (the query's DTW to
  // one pool series), so roughly half the candidates abandon part-way, as
  // in a leaf scan whose candidates mostly survive LB_Keogh.
  const simd::KernelTable* table = TableForArg(state.range(0));
  const std::vector<float>& pool = Pool();
  const float* query = pool.data();
  const size_t window = WarpingWindowFromFraction(kLength, 0.05);
  std::vector<float> scratch(simd::DtwScratchFloats(kLength));
  float threshold = std::numeric_limits<float>::infinity();
  if (state.range(1) != 0) {
    threshold = table->dtw(query, pool.data() + kLength, kLength, window,
                           threshold, scratch.data());
  }
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < 64; ++i) {
      checksum += table->dtw(query, pool.data() + i * kLength, kLength,
                             window, threshold, scratch.data());
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * 63);
  state.SetLabel(simd::IsaName(table->isa));
}
BENCHMARK(BM_Dtw256)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int abandon : {0, 1}) {
        b->Args({0, abandon});
        if (simd::SseTable() != nullptr) b->Args({1, abandon});
        if (simd::Avx2Table() != nullptr) b->Args({2, abandon});
        if (simd::Avx512Table() != nullptr) b->Args({3, abandon});
      }
    })
    ->Unit(benchmark::kMicrosecond);

void BM_SquaredDtw256(benchmark::State& state) {
  // End-to-end banded DTW through the public API (dispatched kernel and
  // thread-local scratch); ODYSSEY_SIMD=scalar selects the scalar kernel.
  const std::vector<float>& pool = Pool();
  const size_t window = WarpingWindowFromFraction(kLength, 0.05);
  float checksum = 0.0f;
  for (auto _ : state) {
    for (size_t i = 1; i < 64; ++i) {
      checksum += SquaredDtw(pool.data(), pool.data() + i * kLength, kLength,
                             window);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * 63);
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_SquaredDtw256)->Unit(benchmark::kMillisecond);

/// `count` noisy copies of archive series (noise 0.1-1.0, as the
/// benchmark's stream-dtw workload draws them): DtwFixture's queries.
WorkloadOptions NoisyCopyQueries(size_t count) {
  WorkloadOptions options;
  options.count = count;
  options.min_noise = 0.1;
  options.max_noise = 1.0;
  options.seed = 131;
  return options;
}

/// Seismic-like (query, candidate) pairs for the DTW scan's bound cascade
/// and DP: an archive of 256-point series, and queries that are noisy
/// copies of archive series (see NoisyCopyQueries), each with its envelope
/// and its exact 5th-nearest DTW distance at the window, where a converged
/// scan abandons. Built once per (archive size, query count, window).
struct DtwFixture {
  static constexpr int kK = 5;

  size_t window;
  SeriesCollection archive;
  SeriesCollection queries;
  std::vector<Envelope> envelopes;
  std::vector<float> thresholds;
  struct Pair {
    size_t query;
    size_t candidate;
    float keogh;
  };
  /// The pairs whose LB_Keogh stays below the threshold, with that bound:
  /// the calls the second pass gets.
  std::vector<Pair> keogh_survivors;
  /// The pairs SquaredDtwCascade sends on to the DP.
  std::vector<Pair> dp_pairs;

  DtwFixture(size_t archive_size, size_t query_count, size_t w)
      : window(w),
        archive(GenerateSeismicLike(archive_size, kLength, 127)),
        queries(GenerateQueries(archive, NoisyCopyQueries(query_count))) {
    for (size_t q = 0; q < query_count; ++q) {
      envelopes.push_back(BuildEnvelope(queries.data(q), kLength, window));
      thresholds.push_back(testing_utils::BruteForceKnnDtw(
                               archive, queries.data(q), kK, window)
                               .back()
                               .squared_distance);
      for (size_t c = 0; c < archive_size; ++c) {
        const float keogh = SquaredLbKeogh(envelopes[q], archive.data(c));
        if (keogh >= thresholds[q]) continue;
        keogh_survivors.push_back({q, c, keogh});
        size_t dp_runs = 0;
        SquaredDtwCascade(queries.data(q), envelopes[q], archive.data(c),
                          window, thresholds[q], &dp_runs);
        if (dp_runs != 0) dp_pairs.push_back({q, c, keogh});
      }
    }
  }

  static const DtwFixture& Get(size_t archive_size, size_t query_count,
                               size_t window) {
    static std::map<std::tuple<size_t, size_t, size_t>, DtwFixture>& built =
        *new std::map<std::tuple<size_t, size_t, size_t>, DtwFixture>();
    return built
        .try_emplace(std::make_tuple(archive_size, query_count, window),
                     archive_size, query_count, window)
        .first->second;
  }
};

/// The DTW scan's cascade per candidate (4096-series archive, 8 queries,
/// window 12), at the dispatched ISA: Arg 0 times LB_Keogh on every pair,
/// Arg 1 LB_Improved's second pass on the pairs LB_Keogh lets through (per
/// call), Arg 2 the whole SquaredDtwCascade on every pair. The dp_share counter is the share of all pairs that reach
/// the DTW DP; keogh_pass is the share LB_Keogh lets through.
void BM_DtwCascade(benchmark::State& state) {
  const DtwFixture& f = DtwFixture::Get(4096, 8, 12);
  const simd::KernelTable& kernels = simd::ActiveTable();
  const int64_t mode = state.range(0);
  std::vector<float> scratch(simd::LbImprovedScratchFloats(kLength));
  float checksum = 0.0f;
  size_t dp_runs = 0;
  size_t items = 0;
  for (auto _ : state) {
    if (mode == 1) {
      for (const DtwFixture::Pair& p : f.keogh_survivors) {
        const Envelope& env = f.envelopes[p.query];
        checksum += kernels.lb_improved_second_pass(
            f.queries.data(p.query), env.upper.data(), env.lower.data(),
            f.archive.data(p.candidate), kLength, f.window,
            f.thresholds[p.query] - p.keogh, scratch.data());
      }
      items += f.keogh_survivors.size();
      continue;
    }
    for (size_t q = 0; q < f.queries.size(); ++q) {
      const Envelope& env = f.envelopes[q];
      for (size_t c = 0; c < f.archive.size(); ++c) {
        checksum +=
            mode == 0
                ? kernels.lb_keogh_early_abandon(
                      env.upper.data(), env.lower.data(), f.archive.data(c),
                      kLength, f.thresholds[q])
                : SquaredDtwCascade(f.queries.data(q), env, f.archive.data(c),
                                    f.window, f.thresholds[q],
                                    &dp_runs);
      }
    }
    items += f.queries.size() * f.archive.size();
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(static_cast<int64_t>(items));
  const double pairs =
      static_cast<double>(f.queries.size() * f.archive.size());
  state.counters["keogh_pass"] =
      static_cast<double>(f.keogh_survivors.size()) / pairs;
  if (mode == 2 && state.iterations() > 0) {
    state.counters["dp_share"] = static_cast<double>(dp_runs) /
                                 (pairs * static_cast<double>(state.iterations()));
  }
  static constexpr const char* kLabels[] = {"lb_keogh", "second_pass",
                                            "cascade"};
  state.SetLabel(std::string(kLabels[mode]) + "/" +
                 simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_DtwCascade)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

/// One dtw call per pair that the cascade sends to the DP (1024-series
/// archive, 4 queries), at the tier of Arg 0 (0 = scalar, 2 = AVX2,
/// 3 = AVX-512) and the window of Arg 1: the DP's cost per call where the
/// row spacing of the wavefront kernels changes. The dp_pairs counter is
/// how many pairs reach the DP at that window.
void BM_DtwWindow(benchmark::State& state) {
  const simd::KernelTable* table = TableForArg(state.range(0));
  const size_t window = static_cast<size_t>(state.range(1));
  const DtwFixture& f = DtwFixture::Get(1024, 4, window);
  std::vector<float> scratch(simd::DtwScratchFloats(kLength));
  float checksum = 0.0f;
  for (auto _ : state) {
    for (const DtwFixture::Pair& p : f.dp_pairs) {
      checksum += table->dtw(f.archive.data(p.candidate),
                             f.queries.data(p.query), kLength, window,
                             f.thresholds[p.query], scratch.data());
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.dp_pairs.size()));
  state.counters["dp_pairs"] = static_cast<double>(f.dp_pairs.size());
  state.SetLabel(std::string(simd::IsaName(table->isa)) + "/w" +
                 std::to_string(window));
}
BENCHMARK(BM_DtwWindow)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int window : {1, 7, 8, 12, 15, 16, 26, 64, 255}) {
        b->Args({0, window});
        if (simd::Avx2Table() != nullptr) b->Args({2, window});
        if (simd::Avx512Table() != nullptr) b->Args({3, window});
      }
    })
    ->Unit(benchmark::kMicrosecond);

/// A real index for the summary-bound benches: 16k random walks of 256
/// points at 16 segments (the MESSI/Odyssey defaults), its every leaf SAX
/// row and every tree node's word, and one unrelated query's PAA.
struct MindistFixture {
  Index index;
  std::vector<const uint8_t*> sax_rows;
  std::vector<const IsaxWord*> words;
  std::vector<double> query_paa;

  static const MindistFixture& Get() {
    static const MindistFixture& fixture = *new MindistFixture();
    return fixture;
  }

 private:
  MindistFixture()
      : index(Index::Build(GenerateRandomWalk(16384, kLength, 101),
                           bench::DefaultIndexOptions(kLength))) {
    for (size_t r = 0; r < index.tree().root_count(); ++r) {
      Collect(index.tree().root(r));
    }
    const SeriesCollection query = GenerateRandomWalk(1, kLength, 103);
    query_paa = ComputePaa(query.data(0), index.config().paa);
  }

  void Collect(const TreeNode* node) {
    words.push_back(&node->word());
    if (node->is_leaf()) {
      for (size_t i = 0; i < node->ids().size(); ++i) {
        sax_rows.push_back(node->leaf_sax(i));
      }
      return;
    }
    Collect(node->left());
    Collect(node->right());
  }
};

void BM_MindistSax(benchmark::State& state) {
  const MindistFixture& f = MindistFixture::Get();
  const IsaxConfig& config = f.index.config();
  const MindistTable table = MindistTable::ForPaa(f.query_paa.data(), config);
  float checksum = 0.0f;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (const uint8_t* sax : f.sax_rows) {
        checksum +=
            testing_utils::MindistPaaToSax(f.query_paa.data(), sax, config);
      }
    } else {
      for (const uint8_t* sax : f.sax_rows) checksum += table.ToSax(sax);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.sax_rows.size()));
  state.SetLabel(state.range(0) == 0 ? "reference" : "table");
}
BENCHMARK(BM_MindistSax)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_MindistWord(benchmark::State& state) {
  const MindistFixture& f = MindistFixture::Get();
  const IsaxConfig& config = f.index.config();
  const MindistTable table = MindistTable::ForPaa(f.query_paa.data(), config);
  float checksum = 0.0f;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (const IsaxWord* word : f.words) {
        checksum +=
            testing_utils::MindistPaaToWord(f.query_paa.data(), *word, config);
      }
    } else {
      for (const IsaxWord* word : f.words) checksum += table.ToWord(*word);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.words.size()));
  state.SetLabel(state.range(0) == 0 ? "reference" : "table");
}
BENCHMARK(BM_MindistWord)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// The leaf-scan layer: 64k ids drawn at random from a 50k x 256 random
/// walk collection (51 MB, a node's chunk on the benchmark's batch
/// workload), each with its SAX lower bound, scored by full-length
/// early-abandoning ED (an infinite threshold, so every call reads the
/// whole series). The draw spans the whole collection, so a scattered
/// series is neither in L1/L2 nor behind a warm TLB entry.
struct ScatteredFixture {
  static constexpr size_t kCollection = 50000;
  static constexpr size_t kIds = 65536;
  /// Series an L1-resident block holds: 16 x 1 KB.
  static constexpr size_t kResident = 16;
  static constexpr size_t kBlock = 32;  // QueryExecution::kScanBlock

  SeriesCollection data;
  SeriesCollection query;
  std::vector<uint32_t> ids;
  std::vector<float> bounds;  // bounds[i]: SAX lower bound of ids[i]

  static const ScatteredFixture& Get() {
    static const ScatteredFixture& fixture = *new ScatteredFixture();
    return fixture;
  }

 private:
  ScatteredFixture()
      : data(GenerateRandomWalk(kCollection, kLength, 107)),
        query(GenerateRandomWalk(1, kLength, 109)) {
    const IsaxConfig config = bench::DefaultIndexOptions(kLength).config;
    const std::vector<uint8_t> sax = ComputeSaxTable(data, config, nullptr);
    const MindistTable table = MindistTable::ForPaa(
        ComputePaa(query.data(0), config.paa).data(), config);
    Rng rng(113);
    for (size_t i = 0; i < kIds; ++i) {
      const auto id = static_cast<uint32_t>(rng.NextBounded(kCollection));
      ids.push_back(id);
      const size_t row = static_cast<size_t>(id) * config.segments();
      bounds.push_back(table.ToSax(sax.data() + row));
    }
  }
};

/// Arg 0 scores each id's bound check and distance against a series of an
/// L1-resident block (the kernel's own cost); Arg 1 against the id's
/// scattered series, one at a time (the per-series scan); Arg 2 runs the
/// leaf scan's blocks: filter 32 ids by their bounds, prefetch the
/// survivors' series, then score them. Per-item time is per distance.
void BM_ScatteredScan(benchmark::State& state) {
  const ScatteredFixture& f = ScatteredFixture::Get();
  const simd::KernelTable& kernels = simd::ActiveTable();
  const float* query = f.query.data(0);
  constexpr float kThreshold = std::numeric_limits<float>::infinity();
  const int64_t mode = state.range(0);
  float checksum = 0.0f;
  for (auto _ : state) {
    if (mode == 2) {
      for (size_t begin = 0; begin < f.ids.size();
           begin += ScatteredFixture::kBlock) {
        uint32_t survivors[ScatteredFixture::kBlock];
        size_t count = 0;
        for (size_t i = begin; i < begin + ScatteredFixture::kBlock; ++i) {
          if (f.bounds[i] >= kThreshold) continue;
          f.data.Prefetch(f.ids[i]);
          survivors[count++] = f.ids[i];
        }
        for (size_t j = 0; j < count; ++j) {
          checksum += kernels.squared_euclidean_early_abandon(
              query, f.data.data(survivors[j]), kLength, kThreshold);
        }
      }
      continue;
    }
    for (size_t i = 0; i < f.ids.size(); ++i) {
      if (f.bounds[i] >= kThreshold) continue;
      const size_t series =
          mode == 0 ? f.ids[i] % ScatteredFixture::kResident : f.ids[i];
      checksum += kernels.squared_euclidean_early_abandon(
          query, f.data.data(series), kLength, kThreshold);
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.ids.size()));
  static constexpr const char* kLabels[] = {"l1_resident", "scattered",
                                            "blocked_prefetch"};
  state.SetLabel(kLabels[mode]);
}
BENCHMARK(BM_ScatteredScan)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace odyssey

ODYSSEY_BENCH_MAIN();
