#include "perfbench/src/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>

#include "perfbench/src/measure.h"
#include "perfbench/src/oracle.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/driver.h"
#include "src/core/partitioning.h"
#include "src/core/shared_chunk.h"
#include "src/dataset/file_io.h"
#include "src/dataset/generators.h"
#include "src/dataset/ingest.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/lb_keogh.h"
#include "src/index/approx_search.h"
#include "src/index/builder.h"
#include "src/index/query_engine.h"
#include "src/query/prepared_query.h"

namespace perfbench {
namespace {

using odyssey::BatchReport;
using odyssey::OdysseyCluster;
using odyssey::OdysseyOptions;
using odyssey::PartitioningScheme;
using odyssey::SeriesCollection;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

/// Everything that defines one workload. The archive and query sizes are
/// chosen so that a run (generation, oracle, set-up and measurement) stays
/// well inside the benchmark's per-run time limit on a 4-core host.
struct Spec {
  const char* name;
  bool seismic;  ///< archive generator: seismic-like, else random walk
  size_t series;
  size_t length;
  int nodes;
  int groups;
  PartitioningScheme partitioning;
  int workers;  ///< query threads per node (nodes * workers = 4)
  int k;
  Metric metric;
  bool ingest;       ///< set up with IngestAndBuild from an archive file
  size_t per_call;   ///< queries per client call
  size_t distinct;   ///< distinct oracle-checked queries the calls cycle
  double min_noise;  ///< query noise range (near-duplicates of the archive)
  double max_noise;
  size_t unrelated_per_ten;  ///< unrelated random walks per 10 queries
  double interarrival_s;     ///< > 0: AnswerStream open loop at this spacing
  size_t probe_queries;  ///< queries the traced run's layer probes replay
};

// The query pools are large enough that a seed's few hardest queries do not
// decide a run: with 96 stream queries, qps spread 13% across seeds.
const Spec kSpecs[] = {
    {"batch-mixed", false, 50000, 256, 2, 1, PartitioningScheme::kEquallySplit,
     2, 1, Metric{}, false, 400, 400, 0.1, 2.0, 1, 0.0, 16},
    {"stream-dtw", true, 16000, 256, 4, 2, PartitioningScheme::kDensityAware, 1,
     5, Metric{true, 12}, true, 32, 256, 0.1, 1.0, 0, 0.005, 8},
};

/// Set-up is short next to the run, so it is repeated and its median
/// reported.
constexpr int kSetupReps = 7;
constexpr int kOracleThreads = 4;
/// The bounded tail percentile of query latency, and the samples a run
/// needs so that ten lie beyond it. Deeper percentiles are printed: on the
/// 4-core reference host the p99 of single-query calls spread 25-35%
/// across runs (host hiccups), too wide to bound a regression.
constexpr double kTailPercentile = 90.0;
constexpr size_t kMinLatencySamples = 100;
/// Measured calls per run, at least: the traced run compares its spanned
/// and unspanned calls.
constexpr size_t kMinCalls = 2;
/// A run that cannot collect its latency samples in this long is a failure.
constexpr double kMaxMeasureSeconds = 120.0;

OdysseyOptions MakeOptions(const Spec& spec) {
  OdysseyOptions options;
  options.num_nodes = spec.nodes;
  options.num_groups = spec.groups;
  options.partitioning = spec.partitioning;
  options.index_options.config = odyssey::IsaxConfig(
      spec.length, options.index_options.config.segments());
  options.query_options.num_threads = spec.workers;
  options.query_options.k = spec.k;
  options.query_options.use_dtw = spec.metric.dtw;
  options.query_options.dtw_window = spec.metric.window;
  return options;
}

/// The query set: near-duplicates of archive series with noise drawn from
/// the spec's range, and exactly `unrelated_per_ten` unrelated random walks
/// in every ten (at fixed positions, so the mix does not vary by seed).
SeriesCollection MakeQueries(const Spec& spec, const SeriesCollection& data,
                             uint64_t seed) {
  const size_t unrelated = spec.distinct / 10 * spec.unrelated_per_ten;
  odyssey::WorkloadOptions near;
  near.count = spec.distinct - unrelated;
  near.min_noise = spec.min_noise;
  near.max_noise = spec.max_noise;
  near.seed = seed;
  const SeriesCollection near_queries = odyssey::GenerateQueries(data, near);
  if (unrelated == 0) return near_queries;
  odyssey::WorkloadOptions walks = near;
  walks.count = unrelated;
  walks.unrelated_fraction = 1.0;
  walks.seed = seed + 1;
  const SeriesCollection walk_queries = odyssey::GenerateQueries(data, walks);
  SeriesCollection out(spec.length);
  size_t next_near = 0;
  size_t next_walk = 0;
  for (size_t i = 0; i < spec.distinct; ++i) {
    const bool walk = i % 10 >= 10 - spec.unrelated_per_ten &&
                      next_walk < walk_queries.size();
    out.Append(walk ? walk_queries.data(next_walk++)
                    : near_queries.data(next_near++));
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

/// Sums over the measured calls. The loop aggregates as it goes instead of
/// keeping every BatchReport: the harness's own memory then stays flat, so
/// peak_rss_mb does not grow with the number of calls a run makes.
struct CallTotals {
  size_t calls = 0;
  double queries = 0.0;
  double wall_s = 0.0;
  double node_busy_s = 0.0;       ///< sum of every node's busy seconds
  double busiest_node_s = 0.0;    ///< sum of each call's busiest node
  double mean_node_busy_s = 0.0;  ///< sum of each call's mean node
  double node_makespan_s = 0.0;   ///< sum of nodes x makespan
  double steals = 0.0;
  double steal_requests = 0.0;
  double messages = 0.0;
  double bsf_updates = 0.0;
  int inflight_hwm = 0;

  void Add(const BatchReport& r, size_t call_queries, double call_wall_s) {
    ++calls;
    queries += static_cast<double>(call_queries);
    wall_s += call_wall_s;
    double busy = 0.0;
    double busiest = 0.0;
    for (const auto& node : r.node_stats) {
      busy += node.busy_seconds;
      busiest = std::max(busiest, node.busy_seconds);
    }
    const double nodes = static_cast<double>(r.node_stats.size());
    node_busy_s += busy;
    busiest_node_s += busiest;
    mean_node_busy_s += busy / nodes;
    node_makespan_s += nodes * r.query_seconds;
    steals += r.total_steals();
    steal_requests += static_cast<double>(r.steal_requests);
    messages += static_cast<double>(r.messages_sent);
    bsf_updates += static_cast<double>(r.bsf_updates);
    inflight_hwm = std::max(inflight_hwm, r.queries_in_flight_hwm);
  }
};

class Runner {
 public:
  Runner(const Spec& spec, uint64_t seed, double seconds, bool traced,
         std::string scratch_dir)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        options_(MakeOptions(spec)),
        data_(spec.length),
        queries_(spec.length),
        trace_(traced),
        archive_(std::move(scratch_dir) + "/archive-" + spec.name + ".odsy") {}

  ~Runner() { std::remove(archive_.c_str()); }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  bool Run(RunResult* result, std::string* error);

 private:
  bool GenerateInputs(std::string* error);
  /// Builds the deployment `reps` times (the last one is kept), timing
  /// each build.
  bool SetUp(int reps, std::string* error);
  bool Measure(std::string* error);
  bool Probe(std::string* error);
  bool ProbeSetupLayers(std::string* error);
  void ProbeKernels();
  void ProbeQueryLayers();
  void ReportEndToEnd();
  void ReportPerLayer();

  /// Checks one answer against the oracle, counting it as attempted and,
  /// unless exact, as failed.
  void Check(size_t query, const std::vector<odyssey::Neighbor>& answer);
  /// Checks every answer of one call against the oracle.
  void CheckCall(const BatchReport& report, const std::vector<size_t>& ids);
  /// Appends one printf-formatted line to the human-readable report.
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3)));
  void Put(const std::string& name, double value, const std::string& unit);
  void PutSummary(const std::string& name, const std::vector<double>& samples,
                  double scale, const std::string& unit);

  const Spec& spec_;
  const uint64_t seed_;
  const double seconds_;
  const OdysseyOptions options_;
  SeriesCollection data_;
  SeriesCollection queries_;
  std::vector<std::vector<odyssey::Neighbor>> oracle_;
  /// Call inputs: call c sends calls_[c % calls_.size()], whose slot j is
  /// distinct query call_ids_[...][j].
  std::vector<SeriesCollection> calls_;
  std::vector<std::vector<size_t>> call_ids_;
  std::vector<double> arrivals_;
  std::unique_ptr<OdysseyCluster> cluster_;
  SpanRecorder trace_;
  const std::string archive_;

  std::vector<double> setup_s_;
  /// Peak RSS of the process up to the end of the measured calls: inputs,
  /// oracle, one deployment with its build transients, query answering.
  double peak_rss_mb_ = 0.0;
  std::vector<double> latency_s_;
  std::vector<double> qps_;
  std::vector<double> traced_call_s_;
  std::vector<double> untraced_call_s_;
  CallTotals totals_;
  std::vector<double> pre_execution_s_;  ///< per measured call
  std::vector<double> stream_lag_s_;     ///< per measured call
  RunResult* result_ = nullptr;
};

bool Runner::Run(RunResult* result, std::string* error) {
  result_ = result;
  trace_.Begin(std::string("workload:") + spec_.name);
  // The first build and the measured calls run in a fresh process, so the
  // peak RSS they leave is not inflated by earlier builds' freed memory;
  // the remaining set-up repetitions follow the measurement.
  const bool ok = GenerateInputs(error) && SetUp(1, error) &&
                  Measure(error) && SetUp(kSetupReps - 1, error);
  const bool probed = ok && (!trace_.enabled() || Probe(error));
  trace_.End();
  if (!probed) return false;
  if (trace_.enabled()) {
    ReportPerLayer();
    result->trace_json = trace_.ChromeTraceJson();
  } else {
    ReportEndToEnd();
  }
  return true;
}

bool Runner::GenerateInputs(std::string* error) {
  // Inputs and the oracle are outside every timed region.
  data_ = spec_.seismic
              ? odyssey::GenerateSeismicLike(spec_.series, spec_.length, seed_)
              : odyssey::GenerateRandomWalk(spec_.series, spec_.length, seed_);
  if (spec_.ingest) {
    // The cluster indexes what the ingestor yields (z-normalized on read),
    // so the oracle must see the same bits: read the archive back.
    const odyssey::Status written = odyssey::WriteCollection(data_, archive_);
    if (!written.ok()) {
      *error = written.ToString();
      return false;
    }
    auto read = odyssey::IngestFile(archive_, odyssey::IngestOptions{});
    if (!read.ok()) {
      *error = read.status().ToString();
      return false;
    }
    data_ = std::move(*read);
  }
  queries_ = MakeQueries(spec_, data_, seed_ * 7919 + 17);
  {
    ScopedSpan span(&trace_, "oracle");
    oracle_ = BruteForceKnn(data_, queries_, spec_.k, spec_.metric,
                            kOracleThreads);
  }
  for (size_t first = 0; first < spec_.distinct; first += spec_.per_call) {
    SeriesCollection call(spec_.length);
    std::vector<size_t> ids;
    for (size_t q = first; q < first + spec_.per_call; ++q) {
      call.Append(queries_.data(q));
      ids.push_back(q);
    }
    calls_.push_back(std::move(call));
    call_ids_.push_back(std::move(ids));
  }
  for (size_t q = 0; q < spec_.per_call; ++q) {
    arrivals_.push_back(static_cast<double>(q) * spec_.interarrival_s);
  }
  return true;
}

bool Runner::SetUp(int reps, std::string* error) {
  ScopedSpan setup(&trace_, "setup");
  for (int rep = 0; rep < reps; ++rep) {
    cluster_.reset();  // one deployment alive at a time
    ScopedSpan build(&trace_, "setup.cluster");
    const Clock::time_point start = Clock::now();
    if (spec_.ingest) {
      auto source = odyssey::SeriesIngestor::Open(archive_, {});
      if (!source.ok()) {
        *error = source.status().ToString();
        return false;
      }
      auto built = OdysseyCluster::IngestAndBuild(*source, options_);
      if (!built.ok()) {
        *error = built.status().ToString();
        return false;
      }
      cluster_ = std::move(*built);
    } else {
      cluster_ = std::make_unique<OdysseyCluster>(data_, options_);
    }
    setup_s_.push_back(SecondsSince(start));
  }
  return true;
}

void Runner::Check(size_t query, const std::vector<odyssey::Neighbor>& answer) {
  const float* q = queries_.data(query);
  const bool ok =
      AnswerMatches(answer, oracle_[query], data_.size(), [&](uint32_t id) {
        return ExactDistance(q, data_.data(id), spec_.length, spec_.metric);
      });
  ++result_->attempted;
  if (!ok) ++result_->failed;
}

void Runner::CheckCall(const BatchReport& report,
                       const std::vector<size_t>& ids) {
  ScopedSpan span(&trace_, "check");
  for (size_t j = 0; j < ids.size(); ++j) {
    if (!report.status.ok() || j >= report.answers.size()) {
      ++result_->attempted;
      ++result_->failed;
      continue;
    }
    Check(ids[j], report.answers[j]);
  }
}

bool Runner::Measure(std::string* error) {
  ScopedSpan measure(&trace_, "measure");
  const bool stream = spec_.interarrival_s > 0.0;
  auto call = [&](size_t c, bool record) {
    const size_t input = c % calls_.size();
    // The traced run spans every other call, so the traced and untraced
    // halves of one run give the tracing overhead.
    const bool span = trace_.enabled() && c % 2 == 0;
    if (span) trace_.Begin(stream ? "call.AnswerStream" : "call.AnswerBatch");
    const Clock::time_point start = Clock::now();
    const BatchReport report =
        stream ? cluster_->AnswerStream(calls_[input], arrivals_)
               : cluster_->AnswerBatch(calls_[input]);
    const double wall_s = SecondsSince(start);
    if (span) trace_.End();
    CheckCall(report, call_ids_[input]);
    if (!record) return;
    (span ? traced_call_s_ : untraced_call_s_).push_back(wall_s);
    const size_t queries = call_ids_[input].size();
    for (size_t j = 0; j < queries; ++j) {
      latency_s_.push_back(wall_s - (stream ? arrivals_[j] : 0.0));
    }
    qps_.push_back(static_cast<double>(queries) / wall_s);
    totals_.Add(report, queries, wall_s);
    pre_execution_s_.push_back(report.prepare_seconds +
                               report.scheduling_seconds);
    stream_lag_s_.push_back(wall_s - (stream ? arrivals_.back() : 0.0));
  };
  // Warm-up: the first call starts the nodes' persistent executors and
  // fills caches; users pay that once per deployment, not per call.
  call(0, /*record=*/false);
  const Clock::time_point start = Clock::now();
  for (size_t c = 1;; ++c) {
    const double elapsed = SecondsSince(start);
    if (elapsed >= seconds_ && latency_s_.size() >= kMinLatencySamples &&
        totals_.calls >= kMinCalls) {
      break;
    }
    if (elapsed >= kMaxMeasureSeconds) {
      *error = "collected only " + std::to_string(latency_s_.size()) +
               " latency samples in " + std::to_string(elapsed) + " s";
      return false;
    }
    call(c, /*record=*/true);
  }
  peak_rss_mb_ = PeakRssMb();
  return true;
}

void Runner::Note(const char* format, ...) {
  char line[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  result_->report.push_back(line);
}

void Runner::Put(const std::string& name, double value,
                 const std::string& unit) {
  result_->metrics[name] = MetricValue{value, unit};
  Note("%-28s %14.6g %s", name.c_str(), value, unit.c_str());
}

void Runner::PutSummary(const std::string& name,
                        const std::vector<double>& samples, double scale,
                        const std::string& unit) {
  const Summary s = Summarize(samples);
  result_->metrics[name] = MetricValue{s.median * scale, unit};
  Note("%-28s %14.6g %s  (median; q1 %.6g, q3 %.6g, n=%zu)", name.c_str(),
       s.median * scale, unit.c_str(), s.q1 * scale, s.q3 * scale, s.count);
}

void Runner::ReportEndToEnd() {
  // Throughput over the whole measured loop: calls cycle through the
  // distinct query sets, so a per-call median would pick one set.
  Put("qps", totals_.queries / totals_.wall_s, "1/s");
  const Summary per_call = Summarize(qps_);
  Note("%-28s per call: q1 %.6g, median %.6g, q3 %.6g, n=%zu", "",
       per_call.q1, per_call.median, per_call.q3, per_call.count);
  PutSummary("p50_ms", latency_s_, 1e3, "ms");
  Put("p90_ms", Percentile(latency_s_, kTailPercentile) * 1e3, "ms");
  const Summary latency = Summarize(latency_s_);
  Note("%-28s p99 %.6g ms; p%g %.6g ms, the highest with ten samples "
       "beyond; n=%zu", "", Percentile(latency_s_, 99.0) * 1e3,
       latency.tail_percentile, latency.tail * 1e3, latency.count);
  PutSummary("setup_s", setup_s_, 1.0, "s");
  Put("peak_rss_mb", peak_rss_mb_, "MB");
}

void Runner::ReportPerLayer() {
  // Layer numbers from the measured calls' BatchReports. Busy time is
  // summed over all calls before taking ratios: a single query's call
  // leaves one node idle, so per-call ratios are degenerate.
  const CallTotals& t = totals_;
  // Preparation and scheduling are summed: AnswerStream has no scheduling
  // step, and a time that is 0 on every run measures nothing.
  PutSummary("driver.pre_execution_s", pre_execution_s_, 1.0, "s");
  Put("node.busy_share", t.node_busy_s / t.node_makespan_s, "ratio");
  Put("node.busy_imbalance", t.busiest_node_s / t.mean_node_busy_s, "ratio");
  // Successful steals are 0 on some workloads and the in-flight high-water
  // mark equals the admission depth; both are shown, not reported as
  // metrics.
  Note("%-28s %14.6g 1/query (shown only)", "node.steals",
       t.steals / t.queries);
  Note("%-28s %14d count (shown only)", "node.inflight_hwm", t.inflight_hwm);
  Put("node.steal_requests", t.steal_requests / t.queries, "1/query");
  PutSummary("node.stream_lag_s", stream_lag_s_, 1.0, "s");
  Put("net.messages_per_query", t.messages / t.queries, "1/query");
  Put("net.bsf_updates_per_query", t.bsf_updates / t.queries, "1/query");
  Put("mem.index_mb", static_cast<double>(cluster_->total_index_bytes()) / 1e6,
      "MB");
  const double traced = Percentile(traced_call_s_, 50.0);
  const double untraced = Percentile(untraced_call_s_, 50.0);
  Put("trace.overhead_share", traced / untraced - 1.0, "ratio");

  // Self time per span name, largest first.
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, us] : trace_.SelfTimes()) rows.push_back({us, name});
  std::sort(rows.rbegin(), rows.rend());
  Note("self time by span (ms):");
  for (const auto& [us, name] : rows) Note("  %-38s %12.3f", name.c_str(), us / 1e3);
}

bool Runner::Probe(std::string* error) {
  ScopedSpan probes(&trace_, "probes");
  if (!ProbeSetupLayers(error)) return false;
  ProbeKernels();
  ProbeQueryLayers();
  return true;
}

bool Runner::ProbeSetupLayers(std::string* error) {
  const odyssey::IsaxConfig& config = options_.index_options.config;
  odyssey::ThreadPool pool(
      static_cast<size_t>(std::max(1, options_.build_threads_per_node)));
  std::vector<double> partition, chunk, tree, ingest;
  std::vector<std::vector<uint32_t>> chunks;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(&trace_, "driver.PartitionSeries");
    partition.push_back(TimeSeconds([&] {
      chunks = odyssey::PartitionSeries(data_, spec_.groups,
                                        spec_.partitioning, config,
                                        options_.seed, &pool,
                                        options_.density_options);
    }));
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::shared_ptr<const odyssey::SharedChunk> bundle;
    {
      ScopedSpan span(&trace_, "chunk.SharedChunk::Build");
      chunk.push_back(TimeSeconds([&] {
        bundle = odyssey::SharedChunk::Build(data_.Subset(chunks[0]),
                                             chunks[0], config, &pool);
      }));
    }
    ScopedSpan span(&trace_, "index.BuildFromShared");
    tree.push_back(TimeSeconds([&] {
      odyssey::Index::BuildFromShared(bundle, options_.index_options, &pool);
    }));
  }
  if (!spec_.ingest) {
    // The in-memory workloads have no archive yet; writing it is input
    // generation, not part of the probe.
    const odyssey::Status written = odyssey::WriteCollection(data_, archive_);
    if (!written.ok()) {
      *error = written.ToString();
      return false;
    }
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(&trace_, "dataset.SeriesIngestor");
    size_t series = 0;
    odyssey::Status status = odyssey::Status::Ok();
    const double s = TimeSeconds([&] {
      auto source = odyssey::SeriesIngestor::Open(archive_, {});
      if (!source.ok()) {
        status = source.status();
        return;
      }
      for (;;) {
        auto chunk = source->NextChunk();
        if (!chunk.ok()) status = chunk.status();
        if (!chunk.ok() || chunk->empty()) break;
        series += chunk->size();
      }
    });
    if (!status.ok() || series != data_.size()) {
      *error = "ingest probe: " + status.ToString() + ", read " +
               std::to_string(series) + " series";
      return false;
    }
    ingest.push_back(
        static_cast<double>(series * spec_.length * sizeof(float)) / 1e6 / s);
  }
  PutSummary("driver.partition_s", partition, 1.0, "s");
  PutSummary("chunk.build_s", chunk, 1.0, "s");
  PutSummary("index.tree_build_s", tree, 1.0, "s");
  PutSummary("dataset.ingest_mb_s", ingest, 1.0, "MB/s");
  return true;
}

void Runner::ProbeKernels() {
  // (query, candidate, threshold) triples: sampled queries against random
  // archive series, abandoning at the query's exact k-th neighbor distance
  // (where a converged leaf scan abandons).
  constexpr size_t kCandidates = 256;
  constexpr int kReps = 5;
  const size_t n = spec_.length;
  const size_t window =
      spec_.metric.dtw ? spec_.metric.window
                       : odyssey::WarpingWindowFromFraction(n, 0.05);
  odyssey::Rng rng(seed_ ^ 0x5eed);
  struct Triple {
    const float* query;
    const odyssey::Envelope* envelope;
    const float* candidate;
    float threshold;
  };
  std::vector<odyssey::Envelope> envelopes;
  const size_t sample = std::min(spec_.probe_queries, queries_.size());
  for (size_t q = 0; q < sample; ++q) {
    envelopes.push_back(odyssey::BuildEnvelope(queries_.data(q), n, window));
  }
  std::vector<Triple> triples;
  for (size_t q = 0; q < sample; ++q) {
    for (size_t c = 0; c < kCandidates; ++c) {
      triples.push_back({queries_.data(q), &envelopes[q],
                         data_.data(rng.NextBounded(data_.size())),
                         oracle_[q].back().squared_distance});
    }
  }
  double sink = 0.0;
  auto time_ns = [&](const char* span_name, auto&& kernel) {
    ScopedSpan span(&trace_, span_name);
    std::vector<double> per_call;
    for (int rep = 0; rep < kReps; ++rep) {
      size_t calls = 0;
      const Clock::time_point start = Clock::now();
      do {
        for (const Triple& t : triples) sink += kernel(t);
        calls += triples.size();
      } while (SecondsSince(start) < 0.02);
      per_call.push_back(SecondsSince(start) * 1e9 /
                         static_cast<double>(calls));
    }
    return per_call;
  };
  PutSummary("distance.ed_ea_ns",
             time_ns("distance.SquaredEuclideanEarlyAbandon",
                     [&](const Triple& t) {
                       return odyssey::SquaredEuclideanEarlyAbandon(
                           t.query, t.candidate, n, t.threshold);
                     }),
             1.0, "ns");
  PutSummary("distance.lb_keogh_ns",
             time_ns("distance.SquaredLbKeoghEarlyAbandon",
                     [&](const Triple& t) {
                       return odyssey::SquaredLbKeoghEarlyAbandon(
                           *t.envelope, t.candidate, t.threshold);
                     }),
             1.0, "ns");
  PutSummary("distance.dtw_ns",
             time_ns("distance.SquaredDtwEarlyAbandon",
                     [&](const Triple& t) {
                       return odyssey::SquaredDtwEarlyAbandon(
                           t.query, t.candidate, n, window, t.threshold);
                     }),
             1.0, "ns");
  volatile double keep = sink;  // keeps the timed calls from being elided
  (void)keep;
}

void Runner::ProbeQueryLayers() {
  const odyssey::IsaxConfig& config = options_.index_options.config;
  const odyssey::QueryOptions& qopts = options_.query_options;
  const size_t sample = std::min(spec_.probe_queries, queries_.size());
  SeriesCollection probe(spec_.length);
  for (size_t q = 0; q < sample; ++q) probe.Append(queries_.data(q));

  std::vector<double> prepare_us;
  odyssey::PreparedBatch prepared;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(&trace_, "query.PreparedBatch::Prepare");
    prepare_us.push_back(TimeSeconds([&] {
      prepared = odyssey::PreparedBatch::Prepare(probe, config, qopts.use_dtw,
                                                 qopts.dtw_window);
    }) * 1e6 / static_cast<double>(sample));
  }

  std::vector<double> approx_us, search_s, overhead_s, leaves, distances;
  size_t indexed = 0;
  for (int g = 0; g < spec_.groups; ++g) indexed += cluster_->node(g).chunk_size();
  odyssey::ThreadPool workers(static_cast<size_t>(spec_.workers));
  odyssey::ThreadPool single(1);
  odyssey::QueryOptions replay = qopts;
  replay.num_threads = 1;
  for (size_t q = 0; q < sample; ++q) {
    const odyssey::PreparedQuery& pq = prepared.query(q);
    {
      ScopedSpan span(&trace_, "index.ApproximateSearch");
      approx_us.push_back(TimeSeconds([&] {
        const odyssey::Index& index = cluster_->node(0).index();
        if (qopts.use_dtw) {
          odyssey::ApproximateSearchSquaredDtw(index, pq);
        } else {
          odyssey::ApproximateSearchSquared(index, pq);
        }
      }) * 1e6);
    }
    // One QueryExecution per replication group (group g's first member is
    // node g); the slowest group bounds the query.
    double slowest = 0.0;
    double leaves_q = 0.0;
    double distances_q = 0.0;
    for (int g = 0; g < spec_.groups; ++g) {
      const odyssey::Index& index = cluster_->node(g).index();
      {
        ScopedSpan span(&trace_, "index.QueryExecution");
        slowest = std::max(slowest, TimeSeconds([&] {
                             odyssey::QueryExecution exec(&index, pq, qopts);
                             exec.SeedInitialBsf();
                             exec.Run(&workers);
                           }));
      }
      ScopedSpan span(&trace_, "index.QueryExecution.replay");
      odyssey::QueryExecution exec(&index, pq, replay);
      exec.SeedInitialBsf();
      exec.Run(&single);
      const odyssey::QueryStats stats = exec.stats();
      leaves_q += static_cast<double>(stats.leaves_processed);
      distances_q += static_cast<double>(stats.real_distances);
    }
    search_s.push_back(slowest);
    leaves.push_back(leaves_q);
    distances.push_back(distances_q);

    SeriesCollection one(spec_.length);
    one.Append(queries_.data(q));
    ScopedSpan span(&trace_, "driver.AnswerBatch");
    BatchReport report;
    const double wall =
        TimeSeconds([&] { report = cluster_->AnswerBatch(one); });
    overhead_s.push_back(wall - slowest);
    CheckCall(report, {q});
  }
  PutSummary("query.prepare_us", prepare_us, 1.0, "us");
  PutSummary("index.approx_us", approx_us, 1.0, "us");
  PutSummary("index.search_ms", search_s, 1e3, "ms");
  auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  };
  Put("index.leaves_processed", mean(leaves), "1/query");
  Put("index.real_distances", mean(distances), "1/query");
  Put("index.prune_ratio",
      1.0 - mean(distances) / static_cast<double>(indexed), "ratio");
  PutSummary("driver.overhead_ms", overhead_s, 1e3, "ms");
}

}  // namespace

bool RunWorkload(const std::string& name, uint64_t seed, double seconds,
                 bool traced, const std::string& scratch_dir,
                 RunResult* result, std::string* error) {
  for (const Spec& spec : kSpecs) {
    if (name != spec.name) continue;
    Runner runner(spec, seed, seconds, traced, scratch_dir);
    return runner.Run(result, error);
  }
  *error = "unknown workload '" + name + "'";
  return false;
}

}  // namespace perfbench
