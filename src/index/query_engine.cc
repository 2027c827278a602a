#include "src/index/query_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/common/math_utils.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"

namespace odyssey {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();
}  // namespace

bool AtomicFetchMinFloat(std::atomic<float>* cell, float value) {
  float current = cell->load(std::memory_order_relaxed);
  while (value < current) {
    if (cell->compare_exchange_weak(current, value,
                                    std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

KnnSet::KnnSet(int k)
    : k_(k), ids_(static_cast<size_t>(k)), threshold_(kInf) {
  ODYSSEY_CHECK(k >= 1);
  // All of Offer's mutations stay allocation-free after this point: the
  // heap never exceeds k entries and FixedIdSet is flat by construction.
  heap_.reserve(static_cast<size_t>(k));
}

ODYSSEY_HOT bool KnnSet::Offer(float squared_distance, uint32_t id) {
  MutexLock lock(&mu_);
  // Lexicographic (distance, id) order: exact-distance ties resolve by the
  // smaller series id instead of by arrival order, so the k-set is a pure
  // function of the offered candidates — replicas and re-executions (the
  // failure-recovery path) reach bit-identical answers regardless of
  // worker interleaving. PruneThreshold()'s one-ulp pad is the other half:
  // it keeps tying candidates from being abandoned before they get here.
  auto compare = [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_distance != b.squared_distance) {
      return a.squared_distance < b.squared_distance;
    }
    return a.id < b.id;
  };
  // The same series can be offered more than once (approximate search plus
  // leaf scan; work-stealing can even process a leaf on two nodes). A
  // duplicate id must not consume a second k-slot.
  if (ids_.Contains(id)) return false;
  if (heap_.size() < static_cast<size_t>(k_)) {
    heap_.push_back({squared_distance, id});
    std::push_heap(heap_.begin(), heap_.end(), compare);
    ids_.Add(id);
    if (heap_.size() == static_cast<size_t>(k_)) {
      threshold_.store(heap_.front().squared_distance,
                       std::memory_order_release);
    }
    return true;
  }
  const Neighbor& worst = heap_.front();
  if (squared_distance > worst.squared_distance ||
      (squared_distance == worst.squared_distance && id > worst.id)) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), compare);
  ids_.Remove(heap_.back().id);
  heap_.back() = {squared_distance, id};
  std::push_heap(heap_.begin(), heap_.end(), compare);
  ids_.Add(id);
  threshold_.store(heap_.front().squared_distance, std::memory_order_release);
  return true;
}

std::vector<Neighbor> KnnSet::SortedResults() const {
  MutexLock lock(&mu_);
  std::vector<Neighbor> out = heap_;
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_distance != b.squared_distance) {
      return a.squared_distance < b.squared_distance;
    }
    return a.id < b.id;
  });
  return out;
}

/// Builds a batch's bounded queues on behalf of one worker thread: pushes
/// seal into the batch's queue list when a queue fills up (the paper's
/// "give up this queue, initiate a new one").
struct QueryExecution::QueueBuilder {
  RsBatch* batch = nullptr;
  size_t capacity = 0;
  std::unique_ptr<BoundedPq> current;
  /// Leaves pushed so far; TraverseBatch publishes the count once, since
  /// the stats counter's cache line is shared by the query's workers.
  size_t pushed = 0;

  void Push(PqItem item) {
    ++pushed;
    if (current == nullptr) current = std::make_unique<BoundedPq>(capacity);
    if (current->Push(item)) Seal();
  }
  void Seal() {
    if (current == nullptr || current->empty()) return;
    MutexLock lock(&batch->mu);
    batch->queues.push_back(std::move(current));
  }
};

QueryExecution::QueryExecution(const Index* index, const PreparedQuery& query,
                               const QueryOptions& options,
                               std::atomic<float>* shared_bsf,
                               std::function<void(float)> on_bsf_improve)
    : index_(index),
      prepared_(&query),
      query_(query.series()),
      options_(options),
      shared_bsf_(shared_bsf),
      local_bsf_(kInf),
      on_bsf_improve_(std::move(on_bsf_improve)),
      knn_(options.k) {
  ODYSSEY_CHECK(index_ != nullptr && query_ != nullptr);
  ODYSSEY_CHECK(options_.num_threads >= 1);
  ODYSSEY_CHECK_MSG(
      query.segments() == index_->config().segments() &&
          query.length() == index_->config().series_length(),
      "query prepared against a different iSAX geometry than the index");
  if (options_.use_dtw) {
    ODYSSEY_CHECK_MSG(
        query.has_envelope() && query.dtw_window() == options_.dtw_window,
        "DTW execution needs a query prepared with the same warping window");
    envelope_ = &query.envelope();
    bounds_ = MindistTable::ForEnvelope(query.envelope_paa(), index_->config());
  } else {
    bounds_ = MindistTable::ForPaa(query.paa(), index_->config());
  }
  if (shared_bsf_ == nullptr) shared_bsf_ = &local_bsf_;
  batch_ranges_ = PartitionRsBatches(index_->tree().root_count(),
                                     options_.EffectiveBatches());
  batch_stolen_.assign(batch_ranges_.size(), false);
}

QueryExecution::~QueryExecution() = default;

float QueryExecution::SeedInitialBsf() {
  ODYSSEY_CHECK_MSG(!index_->data().empty(), "query against an empty index");
  uint32_t approx_id = 0;
  float approx_sq = kInf;
  if (options_.use_dtw) {
    approx_sq = ApproximateSearchSquaredDtw(*index_, *prepared_, &approx_id);
  } else {
    approx_sq =
        ApproximateSearchSquared(*index_, *prepared_, &approx_id, &bounds_);
  }
  OfferCandidate(approx_sq, approx_id);
  if (options_.approximate && options_.k > 1) {
    // Approximate k-NN: the whole best-matching leaf feeds the answer set
    // (the single best is already in).
    ScanLeaf(ApproximateSearchLeaf(*index_, *prepared_,
                                   options_.use_dtw ? nullptr : &bounds_));
  }
  seeded_ = true;
  stat_initial_bsf_ = std::sqrt(static_cast<double>(approx_sq));
  return static_cast<float>(stat_initial_bsf_);
}

void QueryExecution::Run(ThreadPool* pool) {
  std::vector<int> all(batch_ranges_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  RunWorkers(all, pool);
}

void QueryExecution::RunBatchSubset(const std::vector<int>& batch_ids,
                                    ThreadPool* pool) {
  RunWorkers(batch_ids, pool);
}

void QueryExecution::ArmBatches(const std::vector<int>& batch_ids) {
  // (Re)arm the traversal state for this subset. Batch objects are indexed
  // by global batch id so steal replies stay meaningful.
  MutexLock lock(&steal_mu_);
  batches_.clear();
  batches_.resize(batch_ranges_.size());
  for (int id : batch_ids) {
    ODYSSEY_CHECK(id >= 0 && static_cast<size_t>(id) < batch_ranges_.size());
    auto batch = std::make_unique<RsBatch>();
    batch->begin_root = batch_ranges_[id].first;
    batch->end_root = batch_ranges_[id].second;
    batches_[id] = std::move(batch);
  }
  active_batch_ids_ = batch_ids;
  pq_refs_.clear();
  pq_cursor_.store(0, std::memory_order_relaxed);
  batch_cursor_.store(0, std::memory_order_relaxed);
  phase_.store(static_cast<int>(Phase::kTraversal), std::memory_order_release);
}

ODYSSEY_HOT void QueryExecution::TraversalPhase() {
  // Snapshot the armed subset once per worker, into the worker's reusable
  // scratch; the batch objects are then claimed through their own atomic
  // cursors, lock-free. ArmBatches never runs concurrently with a phase
  // (RunWorkers arms before submitting workers), so the snapshot cannot go
  // stale.
  QueryScratch& scratch = QueryScratch::ForThisThread();
  scratch.armed.clear();
  {
    MutexLock lock(&steal_mu_);
    scratch.armed.reserve(active_batch_ids_.size());
    for (int id : active_batch_ids_) scratch.armed.push_back(batches_[id].get());
  }
  // --- Phase 1: tree traversal over RS-batches (Fetch&Add claims). ---
  for (;;) {
    const size_t i = batch_cursor_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= scratch.armed.size()) break;
    TraverseBatch(scratch.armed[i]);
  }
  // Helping: join batches that are still incomplete, at most
  // help_threshold helpers per batch.
  for (RsBatch* batch : scratch.armed) {
    if (!batch->complete() &&
        batch->helped.fetch_add(1, std::memory_order_acq_rel) <
            options_.help_threshold) {
      TraverseBatch(batch);
    }
  }
}

void QueryExecution::PreprocessQueues() {
  // --- Phase 2: priority-queue preprocessing (one thread only). ---
  // Held across the whole phase: it reads the armed subset, drains each
  // batch's queue list, and publishes the sorted array. StealBatches
  // blocking for its duration is correct — stealing is only legal in
  // kProcessing, which this phase ends by entering.
  MutexLock lock(&steal_mu_);
  std::vector<std::pair<float, std::pair<BoundedPq*, int>>> sortable;
  for (int id : active_batch_ids_) {
    RsBatch* batch = batches_[id].get();
    MutexLock batch_lock(&batch->mu);
    for (auto& q : batch->queues) {
      if (q->empty()) continue;
      sortable.push_back({q->MinLowerBound(), {q.get(), id}});
    }
  }
  std::sort(sortable.begin(), sortable.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  pq_refs_.clear();
  pq_refs_.reserve(sortable.size());
  stat_queue_sizes_.clear();
  for (auto& entry : sortable) {
    auto ref = std::make_unique<PqRef>();
    ref->queue = entry.second.first;
    ref->batch_id = entry.second.second;
    pq_refs_.push_back(std::move(ref));
    stat_queue_sizes_.push_back(
        static_cast<double>(entry.second.first->size()));
  }
  phase_.store(static_cast<int>(Phase::kProcessing),
               std::memory_order_release);
}

ODYSSEY_HOT void QueryExecution::ProcessingPhase() {
  // Snapshot the sorted queue array once per worker (see TraversalPhase);
  // the PqRef objects themselves are stable for the phase and carry the
  // atomic `stolen` flag the work-stealing manager flips under steal_mu_.
  QueryScratch& scratch = QueryScratch::ForThisThread();
  scratch.refs.clear();
  {
    MutexLock lock(&steal_mu_);
    scratch.refs.reserve(pq_refs_.size());
    for (const auto& r : pq_refs_) scratch.refs.push_back(r.get());
  }
  // --- Phase 3: priority-queue processing (Fetch&Add claims). ---
  // The region marker attributes this loop's heap traffic (there must be
  // none at steady state) to the hot path for the counting-allocator tests.
  hotpath::ScopedHotRegion hot_region;
  for (;;) {
    const size_t i = pq_cursor_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= scratch.refs.size()) break;
    if (scratch.refs[i]->stolen.load(std::memory_order_acquire)) continue;
    ProcessQueue(scratch.refs[i]->queue);
  }
}

void QueryExecution::RunWorkers(const std::vector<int>& batch_ids,
                                ThreadPool* pool) {
  ODYSSEY_CHECK_MSG(seeded_, "Run before SeedInitialBsf");
  if (options_.approximate) {
    // Approximate mode: the Initialize() leaf scan is the whole answer.
    phase_.store(static_cast<int>(Phase::kDone), std::memory_order_release);
    return;
  }
  ODYSSEY_CHECK_MSG(pool != nullptr || options_.num_threads <= 1,
                    "num_threads > 1 needs a ThreadPool");
  Stopwatch watch;
  ArmBatches(batch_ids);
  if (pool != nullptr) {
    // Each parallel phase is one TaskGroup epoch on the shared pool; the
    // Wait inside RunTasks is the phase barrier and the calling thread
    // helps run the phase tasks while it waits. No thread is created, and
    // several executions can share one pool concurrently (the claim loops
    // are self-contained: any number of workers, in any interleaving,
    // drain the same atomic cursors).
    TaskGroup group(pool);
    group.RunTasks(options_.num_threads, [this](int) { TraversalPhase(); });
    PreprocessQueues();
    group.RunTasks(options_.num_threads, [this](int) { ProcessingPhase(); });
  } else {
    // No pool: the calling thread drains every claim loop alone.
    TraversalPhase();
    PreprocessQueues();
    ProcessingPhase();
  }

  {
    MutexLock lock(&steal_mu_);
    phase_.store(static_cast<int>(Phase::kDone), std::memory_order_release);
  }
  stat_elapsed_seconds_ += watch.ElapsedSeconds();
}

ODYSSEY_HOT void QueryExecution::TraverseBatch(RsBatch* batch) {
  QueueBuilder builder;
  builder.batch = batch;
  builder.capacity = options_.queue_threshold;
  const size_t count = batch->root_count();
  for (;;) {
    const size_t r = batch->cursor.fetch_add(1, std::memory_order_acq_rel);
    if (r >= count) break;
    TraverseNode(index_->tree().root(batch->begin_root + r), &builder);
    batch->roots_done.fetch_add(1, std::memory_order_acq_rel);
  }
  builder.Seal();
  if (builder.pushed != 0) {
    stat_leaves_inserted_.fetch_add(builder.pushed, std::memory_order_relaxed);
  }
}

ODYSSEY_HOT void QueryExecution::TraverseNode(const TreeNode* node,
                                              QueueBuilder* builder) {
  if (node->subtree_size() == 0) return;
  const float lb = LeafLowerBound(node);
  if (lb >= PruneThreshold()) return;
  if (node->is_leaf()) {
    builder->Push({lb, node});
    return;
  }
  TraverseNode(node->left(), builder);
  TraverseNode(node->right(), builder);
}

ODYSSEY_HOT void QueryExecution::ProcessQueue(BoundedPq* queue) {
  while (!queue->empty()) {
    const PqItem item = queue->Pop();
    // The queue is ordered by lower bound: once the head cannot beat the
    // BSF, nothing behind it can either.
    if (item.lower_bound >= PruneThreshold()) break;
    ScanLeaf(item.leaf);
  }
}

ODYSSEY_HOT void QueryExecution::ScanLeaf(const TreeNode* leaf) {
  stat_leaves_processed_.fetch_add(1, std::memory_order_relaxed);
  const auto& ids = leaf->ids();
  const SeriesCollection& data = index_->data();
  size_t scored = 0;
  size_t dtw_runs = 0;
  // A candidate's raw values sit at a scattered position of the chunk, so
  // its distance call would start with a cache and TLB miss. The leaf is
  // scanned in blocks instead: filter the block by its per-series summary
  // bounds (full cardinality, the tightest summary-level bound), prefetch
  // the survivors' series, then score them while the loads are in flight.
  // Scoring re-checks each stored bound against the current threshold, and
  // thresholds only fall, so the scan scores exactly the series a
  // series-at-a-time loop would, in the same order.
  for (size_t begin = 0; begin < ids.size(); begin += kScanBlock) {
    const size_t end = std::min(ids.size(), begin + kScanBlock);
    uint32_t survivor_ids[kScanBlock];
    float survivor_bounds[kScanBlock];
    size_t survivors = 0;
    const float block_threshold = PruneThreshold();
    for (size_t i = begin; i < end; ++i) {
      const float lb = SeriesLowerBound(leaf->leaf_sax(i));
      if (lb >= block_threshold) continue;
      data.Prefetch(ids[i]);
      survivor_ids[survivors] = ids[i];
      survivor_bounds[survivors] = lb;
      ++survivors;
    }
    for (size_t j = 0; j < survivors; ++j) {
      const float threshold = PruneThreshold();
      if (survivor_bounds[j] >= threshold) continue;
      const float d =
          RealDistance(data.data(survivor_ids[j]), threshold, &dtw_runs);
      ++scored;
      if (d < threshold) OfferCandidate(d, survivor_ids[j]);
    }
  }
  // At most one update per leaf and counter: their cache line is shared by
  // every worker of the query.
  if (scored != 0) {
    stat_real_distances_.fetch_add(scored, std::memory_order_relaxed);
  }
  if (dtw_runs != 0) {
    stat_dtw_distances_.fetch_add(dtw_runs, std::memory_order_relaxed);
  }
}

ODYSSEY_HOT void QueryExecution::OfferCandidate(float squared_distance,
                                                uint32_t id) {
  if (!knn_.Offer(squared_distance, id)) return;
  const float threshold = knn_.Threshold();
  if (threshold == kInf) return;
  if (AtomicFetchMinFloat(shared_bsf_, threshold) &&
      on_bsf_improve_ != nullptr) {
    // Sanctioned impurity: the broadcast callback intentionally takes the
    // mailbox lock and enqueues a message. The allowance keeps its heap
    // traffic out of the hot-region allocation count (it fires only on BSF
    // improvements, which dry up as the scan converges).
    hotpath::ScopedAllowance allowance;
    on_bsf_improve_(threshold);
  }
}

ODYSSEY_HOT float QueryExecution::PruneThreshold() const {
  // The node's book-keeping cell already folds in every broadcast BSF; the
  // local k-NN threshold can be momentarily tighter for k > 1 before the
  // k-th best is shared.
  //
  // Padded up by one ulp so pruning (and the >= early-abandon cadence in
  // the kernels this value is passed to) only discards candidates that are
  // *strictly* worse than the k-th best. A candidate whose distance exactly
  // ties the threshold then always completes scoring and reaches
  // KnnSet::Offer, where the (distance, id) order resolves the tie — the
  // same way in every run. Without the pad, whether a tying candidate
  // completes depends on how tight the threshold happened to be when its
  // leaf was scanned, i.e. on worker timing.
  const float t = std::min(shared_bsf_->load(std::memory_order_acquire),
                           knn_.Threshold());
  return std::nextafter(t, kInf);
}

ODYSSEY_HOT float QueryExecution::LeafLowerBound(const TreeNode* node) const {
  return bounds_.ToWord(node->word());
}

ODYSSEY_HOT float QueryExecution::SeriesLowerBound(const uint8_t* sax) const {
  return bounds_.ToSax(sax);
}

ODYSSEY_HOT float QueryExecution::RealDistance(const float* series,
                                               float threshold,
                                               size_t* dtw_runs) const {
  if (options_.use_dtw) {
    return SquaredDtwCascade(query_, *envelope_, series, options_.dtw_window,
                             threshold, dtw_runs);
  }
  return kernels_->squared_euclidean_early_abandon(
      query_, series, index_->config().series_length(), threshold);
}

ODYSSEY_HOT std::vector<int> QueryExecution::StealBatches(int nsend) {
  MutexLock lock(&steal_mu_);
  std::vector<int> given;
  if (phase_.load(std::memory_order_acquire) !=
      static_cast<int>(Phase::kProcessing)) {
    return given;
  }
  // The first-unclaimed table used to be allocated afresh on every round
  // of the nsend loop, all while the running claim loops contend on
  // steal_mu_; the comms thread's scratch reuses one buffer across rounds
  // and steal requests.
  QueryScratch& scratch = QueryScratch::ForThisThread();
  std::vector<size_t>& scratch_first_unclaimed = scratch.first_unclaimed;
  for (int round = 0; round < nsend; ++round) {
    const size_t cursor = pq_cursor_.load(std::memory_order_acquire);
    // Take-Away property: among batches not yet stolen that still have
    // unclaimed queues, pick the one whose first (leftmost) unclaimed queue
    // sits at the rightmost position — the batch least likely to have been
    // processed.
    int best_batch = -1;
    size_t best_first = 0;
    scratch_first_unclaimed.assign(batch_ranges_.size(), pq_refs_.size());
    for (size_t i = cursor; i < pq_refs_.size(); ++i) {
      const int b = pq_refs_[i]->batch_id;
      if (i < scratch_first_unclaimed[b]) scratch_first_unclaimed[b] = i;
    }
    for (size_t b = 0; b < batch_ranges_.size(); ++b) {
      if (batch_stolen_[b]) continue;
      if (scratch_first_unclaimed[b] == pq_refs_.size()) continue;  // empty
      if (best_batch < 0 || scratch_first_unclaimed[b] > best_first) {
        best_batch = static_cast<int>(b);
        best_first = scratch_first_unclaimed[b];
      }
    }
    if (best_batch < 0) break;
    batch_stolen_[best_batch] = true;
    for (size_t i = cursor; i < pq_refs_.size(); ++i) {
      if (pq_refs_[i]->batch_id == best_batch) {
        pq_refs_[i]->stolen.store(true, std::memory_order_release);
      }
    }
    given.push_back(best_batch);
  }
  return given;
}

QueryScratch& QueryScratch::ForThisThread() {
  // Function-local so construction is lazy (only threads that run query
  // phases pay for it) and destruction is tied to thread exit.
  static thread_local QueryScratch scratch;
  return scratch;
}

void QueryScratch::Reserve(size_t batches, size_t queues) {
  armed.reserve(batches);
  first_unclaimed.reserve(batches);
  refs.reserve(queues);
}

PreparedQuery PrepareQuery(const float* series, const IsaxConfig& config,
                           const QueryOptions& options) {
  return PreparedQuery::Prepare(series, config, options.use_dtw,
                                options.dtw_window);
}

PreparedBatch PrepareBatch(const SeriesCollection& queries,
                           const IsaxConfig& config,
                           const QueryOptions& options, ThreadPool* pool) {
  return PreparedBatch::Prepare(queries, config, options.use_dtw,
                                options.dtw_window, pool);
}

QueryStats QueryExecution::stats() const {
  QueryStats stats;
  stats.initial_bsf = stat_initial_bsf_;
  stats.leaves_inserted = stat_leaves_inserted_.load();
  stats.leaves_processed = stat_leaves_processed_.load();
  stats.real_distances = stat_real_distances_.load();
  stats.dtw_distances = stat_dtw_distances_.load();
  {
    MutexLock lock(&steal_mu_);
    stats.queue_count = stat_queue_sizes_.size();
    stats.median_queue_size = Median(stat_queue_sizes_);
  }
  stats.elapsed_seconds = stat_elapsed_seconds_;
  return stats;
}

}  // namespace odyssey
