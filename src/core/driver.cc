#include "src/core/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>  // std::this_thread::sleep_for (arrival pacing)
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/numa.h"
#include "src/common/stopwatch.h"
#include "src/common/summary_stats.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"

namespace odyssey {
namespace {

/// Coordinator-side failure detection and group-level reassignment — the
/// "victim never answers" branch of the recovery protocol (ARCHITECTURE.md
/// "Failure model"). Single-threaded: lives on the coordinator's answer
/// loop, fed one received message at a time.
///
/// Detection: every message the coordinator receives from a node is a
/// heartbeat; a node silent past the deadline is declared dead. Terminated
/// nodes stay watched (their comms thread keeps pinging until kShutdown):
/// one killed after its kNodeTerminated would otherwise never be declared,
/// and a peer whose steal request died in its closed mailbox would wait
/// forever on that reply.
///
/// Recovery: the verdict is broadcast (kNodeDead) so steal
/// victims re-run the RS-batches they had granted to the deceased and ack
/// (kNodeDeadAck); every query dispatched to the dead node is
/// re-executed wholesale by surviving members of its replication group
/// (kRecoverQuery), round-robin. The batch quiesces when every node is
/// terminated or dead and no ack or recovery answer is outstanding; a
/// final non-blocking drain then collects any answers a delay left behind.
///
/// A false-positive verdict (slow-but-alive node) is exactness-safe as long
/// as the node is granted nothing after it: the answering loop drops its
/// query requests and steal victims refuse it RS-batches. Its transport
/// stays open, it keeps answering, and the duplicate answers deduplicate in
/// MergeAnswers — re-execution only ever *adds* candidate coverage. What is
/// unrecoverable is every replica of a chunk dying: SurvivingMembers
/// surfaces that as a FailedPrecondition status.
class CoordinatorRecovery {
 public:
  CoordinatorRecovery(const ReplicationLayout& layout, SimCluster* cluster,
                      double timeout_seconds)
      : layout_(layout),
        cluster_(cluster),
        timeout_seconds_(timeout_seconds),
        last_heard_(static_cast<size_t>(layout.num_nodes()), 0.0) {}

  bool enabled() const { return timeout_seconds_ > 0.0; }
  bool IsDead(int node) const { return dead_.count(node) != 0; }
  const std::set<int>& dead() const { return dead_; }
  const Status& status() const { return status_; }

  /// Records that `query_id` was dispatched to `node` (static assignment
  /// or a dynamic grant): if the node dies unanswered, the query is
  /// re-executed by a surviving group member.
  void OnDispatch(int node, int query_id) {
    if (enabled()) dispatched_[node].push_back(query_id);
  }

  /// Folds one coordinator-received message into the bookkeeping.
  void OnMessage(const Message& m) {
    if (!enabled()) return;
    if (m.from >= 0 && m.from < layout_.num_nodes()) {
      last_heard_[static_cast<size_t>(m.from)] = clock_.ElapsedSeconds();
    }
    switch (m.type) {
      case MessageType::kLocalAnswer:
        // Only the flagged re-execution answer retires the reassignment.
        // A survivor can send *other* partial answers for the same
        // (node, query) pair — stolen-work results, or the grant replay
        // HandleNodeDead runs before acking — and counting one of those
        // would quiesce the batch while the real recovery re-run is still
        // scoring, losing the dead node's unstolen coverage for good.
        if (m.recovery) pending_recovery_.erase({m.from, m.query_id});
        break;
      case MessageType::kNodeDeadAck:
        pending_acks_.erase({m.from, m.subject});
        break;
      case MessageType::kQueryRequest:
      case MessageType::kNodeTerminated:
      case MessageType::kHeartbeat:
        break;  // heartbeat only; termination is the caller's set
      case MessageType::kAssignQuery:
      case MessageType::kNoMoreQueries:
      case MessageType::kBsfUpdate:
      case MessageType::kDone:
      case MessageType::kStealRequest:
      case MessageType::kStealReply:
      case MessageType::kShutdown:
      case MessageType::kNodeDead:
      case MessageType::kRecoverQuery:
        break;  // node-bound vocabulary; never coordinator-received
    }
  }

  /// Checks every live node against the deadline.
  void Poll(const std::set<int>& terminated) {
    if (!enabled()) return;
    const double now = clock_.ElapsedSeconds();
    for (int n = 0; n < layout_.num_nodes(); ++n) {
      if (dead_.count(n) != 0) continue;
      if (now - last_heard_[static_cast<size_t>(n)] > timeout_seconds_) {
        DeclareDead(n, terminated.count(n) != 0);
      }
    }
  }

  /// The batch is over: every node terminated or dead, every kNodeDead
  /// acked, every reassigned query answered.
  bool Quiesced(const std::set<int>& terminated) const {
    for (int n = 0; n < layout_.num_nodes(); ++n) {
      if (terminated.count(n) == 0 && dead_.count(n) == 0) return false;
    }
    return pending_acks_.empty() && pending_recovery_.empty();
  }

 private:
  void DeclareDead(int node, bool terminated) {
    if (dead_.count(node) != 0) return;
    dead_.insert(node);
    fault_stats::CountNodeDeclaredDead();
    // A verdict is protocol progress for everyone: restart every other
    // node's silence window so survivors quietly waiting out the victim
    // (e.g. parked in steal timeouts) are not cascaded into false
    // verdicts of their own.
    const double now = clock_.ElapsedSeconds();
    for (double& heard : last_heard_) heard = now;
    // Write off acks we were owed *by* the deceased, and collect
    // recoveries it owned — they must move to another survivor.
    std::vector<int> orphaned;
    bool wrote_off_an_ack = false;
    for (auto it = pending_acks_.begin(); it != pending_acks_.end();) {
      if (it->first == node) {
        wrote_off_an_ack = true;
        it = pending_acks_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = pending_recovery_.begin();
         it != pending_recovery_.end();) {
      if (it->first == node) {
        orphaned.push_back(it->second);
        it = pending_recovery_.erase(it);
      } else {
        ++it;
      }
    }
    // Tell every remaining node; each must ack after re-running whatever
    // it had granted to the deceased.
    Message verdict;
    verdict.type = MessageType::kNodeDead;
    verdict.from = cluster_->coordinator_id();
    verdict.subject = node;
    for (int v = 0; v < layout_.num_nodes(); ++v) {
      if (dead_.count(v) != 0) continue;
      cluster_->Send(v, verdict);
      pending_acks_.insert({v, node});
    }
    auto survivors = layout_.SurvivingMembers(layout_.GroupOf(node), dead_);
    if (!survivors.ok()) {
      // Chunk coverage is gone; surface the error instead of merging a
      // silently partial answer. No reassignment target exists. A node
      // that terminated first has delivered its own answers, and with no
      // live group member left nobody can still be owed a steal reply by
      // it. But its comms thread keeps working after kNodeTerminated —
      // recovery re-runs and grant replays — and that thread is also its
      // heartbeat, so a terminated node can fall silent mid-recovery.
      // Only one that owed nothing leaves nothing missing.
      if (!terminated || !orphaned.empty() || wrote_off_an_ack) {
        status_ = survivors.status();
      }
      return;
    }
    // Re-execute *everything* dispatched to the deceased — even queries it
    // answered. Its answer for a query can be partial: it may have granted
    // the query's RS-batches to a thief and died before the batch-carrying
    // steal reply got out, in which case those batches ran nowhere and its
    // delivered answer silently lacks them. Re-running answered queries
    // only adds duplicate candidates (MergeAnswers dedups); skipping one
    // loses coverage. That holds for a node that terminated first, too:
    // its peers now write off what they are owed by it, and on a false
    // verdict a batch-carrying steal reply still held in a thief's
    // mailbox would be written off with them.
    std::set<int> to_recover(orphaned.begin(), orphaned.end());
    for (int q : dispatched_[node]) to_recover.insert(q);
    for (int q : to_recover) {
      const int target =
          (*survivors)[static_cast<size_t>(rr_++) % survivors->size()];
      Message recover;
      recover.type = MessageType::kRecoverQuery;
      recover.from = cluster_->coordinator_id();
      recover.query_id = q;
      cluster_->Send(target, std::move(recover));
      pending_recovery_.insert({target, q});
      dispatched_[target].push_back(q);  // survivable if the target dies too
      fault_stats::CountQueryReassigned();
    }
  }

  const ReplicationLayout& layout_;
  SimCluster* const cluster_;
  const double timeout_seconds_;
  Stopwatch clock_;
  std::vector<double> last_heard_;
  std::set<int> dead_;
  /// (acker, subject) pairs still owed after a kNodeDead broadcast.
  std::set<std::pair<int, int>> pending_acks_;
  /// (owner, query) reassignments whose recovery answer is still owed.
  std::set<std::pair<int, int>> pending_recovery_;
  std::map<int, std::vector<int>> dispatched_;
  Status status_ = Status::Ok();
  int rr_ = 0;  // round-robin cursor over survivors
};

/// The coordinator's answering loop (Figure 3; DQS and PREDICT-DN in
/// Section 3.1), shared by AnswerBatch and AnswerStream: a batch is a
/// stream whose queries have all arrived. It owns the per-group dispatch
/// queues, the parked dynamic requests, the assignment fence, the candidate
/// buckets and the set of terminated nodes, and it feeds every received
/// message to the recovery bookkeeping. Single-threaded, on the caller's
/// thread.
class AnswerLoop {
 public:
  AnswerLoop(const ReplicationLayout& layout, SimCluster* cluster,
             CoordinatorRecovery* recovery, int num_queries)
      : layout_(layout),
        cluster_(cluster),
        recovery_(recovery),
        num_queries_(num_queries),
        dispatch_(static_cast<size_t>(layout.num_groups())),
        parked_(static_cast<size_t>(layout.num_groups())),
        assigns_sent_(static_cast<size_t>(layout.num_nodes()), 0),
        answers_remaining_(static_cast<size_t>(num_queries),
                           layout.num_groups()),
        candidates_(static_cast<size_t>(num_queries)) {}

  /// Static scheduling: sends `query_id` to `node` up front.
  void Assign(int node, int query_id) {
    Message m;
    m.type = MessageType::kAssignQuery;
    m.from = cluster_->coordinator_id();
    m.query_id = query_id;
    cluster_->Send(node, std::move(m));
    ++assigns_sent_[static_cast<size_t>(node)];
    recovery_->OnDispatch(node, query_id);
  }

  /// Static scheduling: ends `node`'s share with a fenced kNoMoreQueries.
  void CloseShare(int node) {
    Message m;
    m.type = MessageType::kNoMoreQueries;
    m.from = cluster_->coordinator_id();
    m.assign_count = assigns_sent_[static_cast<size_t>(node)];
    cluster_->Send(node, std::move(m));
  }

  /// Dynamic scheduling of a batch: `group` hands out `order` on request.
  void Enqueue(int group, const std::vector<int>& order) {
    dispatch_[static_cast<size_t>(group)].assign(order.begin(), order.end());
  }

  /// Released queries still owed a local answer by some group (steal-split
  /// extras are capped by the per-query floor). The stream's prep thread
  /// samples it to count only preparation that overlapped execution.
  const std::atomic<int>& executing() const { return executing_; }

  /// Serves requests and collects answers until the recovery bookkeeping
  /// says the batch has quiesced, then returns every query's candidates.
  /// With `admitted` null every query was scheduled before the call (a
  /// batch); otherwise `admitted()` is how many queries have arrived, and
  /// each one is released to every group's queue as it arrives (a stream).
  std::vector<std::vector<Neighbor>> Run(
      const std::function<size_t()>& admitted) {
    if (admitted == nullptr) {
      released_ = num_queries_;
      executing_.store(num_queries_, std::memory_order_release);
    }
    Mailbox& mailbox = cluster_->mailbox(cluster_->coordinator_id());
    while (!recovery_->Quiesced(terminated_)) {
      // Release every query the prep thread has admitted (admission implies
      // its arrival time has passed). The admitted() acquire pairs with the
      // Admit fetch_add, so a released slot's summaries are visible to every
      // node the dispatch message reaches.
      while (released_ < num_queries_ &&
             static_cast<size_t>(released_) < admitted()) {
        for (std::deque<int>& queue : dispatch_) queue.push_back(released_);
        ++released_;
        executing_.fetch_add(1, std::memory_order_acq_rel);
        for (int g = 0; g < layout_.num_groups(); ++g) Serve(g);
      }
      Message m;
      bool got = false;
      if (released_ < num_queries_) {
        // Arrivals are pending: wake often enough to release them.
        got = mailbox.ReceiveFor(std::chrono::microseconds(200), &m);
      } else if (recovery_->enabled()) {
        // Poll so liveness deadlines fire even while no traffic arrives
        // (the failure mode that needs them most).
        got = mailbox.ReceiveFor(std::chrono::microseconds(2000), &m);
      } else {
        got = mailbox.Receive(&m);
        if (!got) break;  // coordinator mailbox closed: defensive, never faulted
      }
      if (got) Handle(m);
      recovery_->Poll(terminated_);
      // A death verdict may have voided parked requests.
      if (recovery_->enabled()) {
        for (int g = 0; g < layout_.num_groups(); ++g) Serve(g);
      }
    }
    return std::move(candidates_);
  }

 private:
  void Handle(const Message& m) {
    recovery_->OnMessage(m);
    switch (m.type) {
      case MessageType::kQueryRequest:
        parked_[static_cast<size_t>(layout_.GroupOf(m.from))].push_back(
            m.from);
        Serve(layout_.GroupOf(m.from));
        break;
      case MessageType::kLocalAnswer: {
        std::vector<Neighbor>& bucket =
            candidates_[static_cast<size_t>(m.query_id)];
        bucket.insert(bucket.end(), m.neighbors.begin(), m.neighbors.end());
        int& remaining = answers_remaining_[static_cast<size_t>(m.query_id)];
        if (remaining > 0 && --remaining == 0) {
          executing_.fetch_sub(1, std::memory_order_acq_rel);
        }
        break;
      }
      case MessageType::kNodeTerminated:
        terminated_.insert(m.from);
        break;
      case MessageType::kAssignQuery:
      case MessageType::kNoMoreQueries:
      case MessageType::kBsfUpdate:
      case MessageType::kDone:
      case MessageType::kStealRequest:
      case MessageType::kStealReply:
      case MessageType::kShutdown:
      case MessageType::kNodeDead:
      case MessageType::kNodeDeadAck:
      case MessageType::kRecoverQuery:
      case MessageType::kHeartbeat:
        break;  // node-bound traffic (e.g. kDone copies) is informational
    }
  }

  /// Answers `group`'s parked requests in arrival order: the next query
  /// in the group's queue, or a fenced kNoMoreQueries once every query is
  /// released and the queue is empty. A request that finds the queue empty
  /// while queries are still to arrive stays parked.
  void Serve(int group) {
    std::deque<int>& parked = parked_[static_cast<size_t>(group)];
    std::deque<int>& queue = dispatch_[static_cast<size_t>(group)];
    while (!parked.empty()) {
      const int node = parked.front();
      if (recovery_->IsDead(node)) {
        // A declared-dead node's request is void, true verdict or not:
        // its dispatched queries were already handed to survivors, so a
        // query granted now would be neither re-executed nor awaited.
        // Drop the request without consuming a queue entry.
        parked.pop_front();
        continue;
      }
      Message reply;
      reply.from = cluster_->coordinator_id();
      if (!queue.empty()) {
        reply.type = MessageType::kAssignQuery;
        reply.query_id = queue.front();
        queue.pop_front();
        ++assigns_sent_[static_cast<size_t>(node)];
        recovery_->OnDispatch(node, reply.query_id);
      } else if (released_ == num_queries_) {
        reply.type = MessageType::kNoMoreQueries;
        reply.assign_count = assigns_sent_[static_cast<size_t>(node)];
      } else {
        return;  // wait for the next admission
      }
      parked.pop_front();
      cluster_->Send(node, std::move(reply));
    }
  }

  const ReplicationLayout& layout_;
  SimCluster* const cluster_;
  CoordinatorRecovery* const recovery_;
  const int num_queries_;
  int released_ = 0;
  std::vector<std::deque<int>> dispatch_;
  std::vector<std::deque<int>> parked_;
  /// Assignment fence (Message::assign_count): per-node count of distinct
  /// kAssignQuery sends, stamped on every kNoMoreQueries so a node can tell
  /// a marker that overtook a delayed assignment from one that really is
  /// the end of its share.
  std::vector<int> assigns_sent_;
  /// Each query owes one local answer per replication group.
  std::vector<int> answers_remaining_;
  std::atomic<int> executing_{0};
  std::vector<std::vector<Neighbor>> candidates_;
  /// A duplicated kNodeTerminated (fault injection) must not double-count,
  /// so terminations are a set, not a counter.
  std::set<int> terminated_;
};

}  // namespace

QueryAnswer MergeAnswers(const std::vector<Neighbor>& candidates, int k) {
  // Deduplicate by global id, keeping each series' best distance, then take
  // the k smallest.
  std::unordered_map<uint32_t, float> best;
  best.reserve(candidates.size());
  for (const Neighbor& n : candidates) {
    auto [it, inserted] = best.emplace(n.id, n.squared_distance);
    if (!inserted && n.squared_distance < it->second) {
      it->second = n.squared_distance;
    }
  }
  QueryAnswer merged;
  merged.reserve(best.size());
  for (const auto& [id, dist] : best) merged.push_back({dist, id});
  std::sort(merged.begin(), merged.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.squared_distance != b.squared_distance) {
                return a.squared_distance < b.squared_distance;
              }
              return a.id < b.id;
            });
  if (merged.size() > static_cast<size_t>(k)) merged.resize(k);
  return merged;
}

OdysseyCluster::OdysseyCluster(const OdysseyOptions& options)
    : options_(options),
      layout_([&] {
        auto layout = ReplicationLayout::Make(options.num_nodes,
                                              options.num_groups);
        ODYSSEY_CHECK_MSG(layout.ok(), layout.status().ToString().c_str());
        return *layout;
      }()),
      driver_pool_(std::make_unique<ThreadPool>(
          static_cast<size_t>(std::max(1, options.build_threads_per_node)))) {
  nodes_.reserve(layout_.num_nodes());
  for (int n = 0; n < layout_.num_nodes(); ++n) {
    nodes_.push_back(std::make_unique<NodeRuntime>(n, layout_));
  }
}

OdysseyCluster::OdysseyCluster(const SeriesCollection& dataset,
                               const OdysseyOptions& options)
    : OdysseyCluster(options) {
  ODYSSEY_CHECK(dataset.length() == options.index_options.config.series_length());

  // Stage 1: the coordinator partitions the collection into num_groups
  // chunks.
  Stopwatch watch;
  std::vector<std::vector<uint32_t>> chunks;
  if (!options_.custom_chunks.empty()) {
    ODYSSEY_CHECK(static_cast<int>(options_.custom_chunks.size()) ==
                  layout_.num_groups());
    chunks = options_.custom_chunks;
  } else {
    chunks = PartitionSeries(dataset, layout_.num_groups(),
                             options_.partitioning,
                             options_.index_options.config, options_.seed,
                             driver_pool_.get(), options_.density_options);
  }
  partition_seconds_ = watch.ElapsedSeconds();

  // Stage 2: each group materializes and summarizes its chunk exactly once.
  BuildNodes([&](int g, ThreadPool* pool) {
    return SharedChunk::Build(dataset.Subset(chunks[g]), chunks[g],
                              options_.index_options.config, pool);
  });
}

StatusOr<std::unique_ptr<OdysseyCluster>> OdysseyCluster::IngestAndBuild(
    SeriesIngestor& source, const OdysseyOptions& options) {
  auto layout = ReplicationLayout::Make(options.num_nodes, options.num_groups);
  if (!layout.ok()) return layout.status();
  if (source.length() != options.index_options.config.series_length()) {
    return Status::InvalidArgument(
        "archive series length " + std::to_string(source.length()) +
        " does not match the index config length " +
        std::to_string(options.index_options.config.series_length()));
  }
  if (!options.custom_chunks.empty()) {
    return Status::InvalidArgument(
        "custom_chunks index into a whole collection and cannot drive a "
        "streaming build");
  }

  // Stage 0+1 interleaved: pull one bounded chunk at a time and partition
  // it on arrival, appending each group's share directly into the group's
  // storage. Peak transient heap is two ingest chunks (the one being
  // processed + the one the prefetcher has in flight); the full archive
  // only ever exists distributed across the groups (as on a real cluster).
  // Each arriving chunk is summarized exactly once — before partitioning,
  // so DENSITY-AWARE reuses the same table — and the rows are scattered
  // into per-group tables alongside the series; the group bundles are then
  // adopted at build time with zero re-summarization, while the next
  // chunk's disk read runs concurrently with all of this.
  const IsaxConfig& config = options.index_options.config;
  const size_t w = static_cast<size_t>(config.segments());
  const int num_groups = layout->num_groups();
  std::vector<SeriesCollection> group_data(num_groups,
                                           SeriesCollection(source.length()));
  std::vector<std::vector<uint32_t>> group_ids(num_groups);
  std::vector<std::vector<double>> group_paa(num_groups);
  std::vector<std::vector<uint8_t>> group_sax(num_groups);
  double partition_seconds = 0.0;
  double ingest_seconds = 0.0;
  double overlap_seconds = 0.0;
  uint64_t chunk_index = 0;
  {
    ThreadPool pool(
        static_cast<size_t>(std::max(1, options.build_threads_per_node)));
    ChunkPrefetcher prefetcher(&source);
    Stopwatch watch;
    uint32_t base = 0;  // global id of the current chunk's first series
    std::vector<double> chunk_paa;
    std::vector<uint8_t> chunk_sax;
    for (;; ++chunk_index) {
      StatusOr<SeriesCollection> chunk = prefetcher.Next();
      if (!chunk.ok()) return chunk.status();
      if (chunk->empty()) break;
      const size_t n = chunk->size();
      watch.Restart();
      chunk_paa.resize(n * w);
      chunk_sax.resize(n * w);
      pool.ParallelFor(n, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          double* paa = chunk_paa.data() + i * w;
          ComputePaa(chunk->data(i), config.paa, paa);
          ComputeSaxFromPaa(paa, config, chunk_sax.data() + i * w);
        }
      });
      // Per-chunk seed: kRandomShuffle must not deal every chunk the same
      // permutation.
      const std::vector<std::vector<uint32_t>> local = PartitionSeries(
          *chunk, num_groups, options.partitioning, config,
          options.seed + chunk_index, &pool, options.density_options,
          &chunk_sax);
      for (int g = 0; g < num_groups; ++g) {
        for (uint32_t id : local[g]) {
          group_data[g].Append(chunk->data(id));
          group_ids[g].push_back(base + id);
          group_paa[g].insert(group_paa[g].end(), chunk_paa.data() + id * w,
                              chunk_paa.data() + (id + 1) * w);
          group_sax[g].insert(group_sax[g].end(), chunk_sax.data() + id * w,
                              chunk_sax.data() + (id + 1) * w);
        }
      }
      base += static_cast<uint32_t>(n);
      partition_seconds += watch.ElapsedSeconds();
    }
    ingest_seconds = prefetcher.pull_seconds();
    overlap_seconds = prefetcher.overlap_seconds();
  }
  if (chunk_index == 0) {
    return Status::InvalidArgument("archive is empty: " + source.path());
  }
  std::unique_ptr<OdysseyCluster> cluster(new OdysseyCluster(options));
  cluster->partition_seconds_ = partition_seconds;
  cluster->ingest_seconds_ = ingest_seconds;
  cluster->overlap_seconds_ = overlap_seconds;
  // Stage 2: each group adopts its accumulated series + PAA/SAX tables
  // (computed once per ingest chunk, never recomputed here) — the only
  // per-group work left is grouping the summarization buffers.
  cluster->BuildNodes([&](int g, ThreadPool* pool) {
    return SharedChunk::Adopt(std::move(group_data[g]),
                              std::move(group_ids[g]),
                              std::move(group_paa[g]),
                              std::move(group_sax[g]), config, pool);
  });
  return cluster;
}

void OdysseyCluster::BuildNodes(
    const std::function<std::shared_ptr<const SharedChunk>(
        int group, ThreadPool* pool)>& make_bundle) {
  // Section 3.3: a group's members hold identical data, so each group
  // produces one bundle and every member builds its own — bit-identical —
  // tree from views of it. Under FULL replication this is 1 copy + 1
  // summarization instead of Nsn of each.
  std::vector<std::shared_ptr<const SharedChunk>> bundles(
      layout_.num_groups());
  {
    std::vector<CountedThread> groups;
    groups.reserve(layout_.num_groups());
    for (int g = 0; g < layout_.num_groups(); ++g) {
      groups.emplace_back([&, g] {
        // NUMA first-touch: bind the build thread to the group's socket
        // before materializing, so the bundle's pages land on the memory
        // its replicas will scan. The pool is created after the bind —
        // child threads inherit the affinity mask.
        if (numa::BindCurrentThread(numa::NodeForGroup(g))) {
          executor_stats::CountChunkPlaced();
        }
        ThreadPool pool(static_cast<size_t>(
            std::max(1, options_.build_threads_per_node)));
        bundles[g] = make_bundle(g, &pool);
      });
    }
    for (auto& t : groups) t.Join();
  }
  std::vector<CountedThread> builders;
  builders.reserve(layout_.num_nodes());
  for (int n = 0; n < layout_.num_nodes(); ++n) {
    builders.emplace_back([&, n] {
      nodes_[n]->LoadSharedChunk(bundles[layout_.GroupOf(n)]);
      nodes_[n]->BuildIndex(options_.index_options,
                            options_.build_threads_per_node);
    });
  }
  for (auto& t : builders) t.Join();
}

OdysseyCluster::~OdysseyCluster() = default;

double OdysseyCluster::max_buffer_seconds() const {
  double out = 0.0;
  for (const auto& node : nodes_) {
    out = std::max(out, node->build_timings().buffer_seconds);
  }
  return out;
}

double OdysseyCluster::max_tree_seconds() const {
  double out = 0.0;
  for (const auto& node : nodes_) {
    out = std::max(out, node->build_timings().tree_seconds);
  }
  return out;
}

size_t OdysseyCluster::total_index_bytes() const {
  size_t out = 0;
  for (const auto& node : nodes_) out += node->index().IndexMemoryBytes();
  return out;
}

size_t OdysseyCluster::total_data_bytes() const {
  size_t out = 0;
  for (const auto& node : nodes_) out += node->index().DataMemoryBytes();
  return out;
}

PreparedBatch OdysseyCluster::PrepareQueries(const SeriesCollection& queries,
                                             double* prepare_seconds) const {
  // Stage 3 pre-step: build every query's summaries (PAA, SAX, DTW
  // envelope) exactly once, on the coordinator's persistent pool.
  // Scheduling estimates, every replica, and stolen-work runs all share
  // these immutable artifacts.
  Stopwatch watch;
  PreparedBatch prepared =
      PrepareBatch(queries, options_.index_options.config,
                   options_.query_options, driver_pool_.get());
  *prepare_seconds = watch.ElapsedSeconds();
  return prepared;
}

std::vector<double> OdysseyCluster::EstimateGroupQueries(
    int group, const PreparedBatch& prepared) {
  // Stage 3a (on behalf of the group coordinator): per-query execution-time
  // estimates from the initial BSF of an approximate search on the group's
  // chunk (Figure 4). Without a fitted cost model, the initial BSF itself
  // serves as the estimate (the regression is monotone, so ordering and
  // greedy assignment behave identically). The queries' PAA/SAX come from
  // the batch-level prepared artifacts, so estimation pays only the tree
  // descent and one leaf scan per query.
  const Index& index = nodes_[layout_.GroupCoordinator(group)]->index();
  std::vector<double> estimates(prepared.size());
  // The group coordinator is itself a multi-core node: estimation uses
  // pooled workers, keeping the scheduling stage's overhead negligible
  // relative to query answering (as in the paper) — and, like every other
  // stage-3/4 step, it creates no threads.
  ThreadPool& pool = *driver_pool_;
  pool.ParallelFor(prepared.size(), [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      const PreparedQuery& query = prepared.query(q);
      const float sq = options_.query_options.use_dtw
                           ? ApproximateSearchSquaredDtw(index, query)
                           : ApproximateSearchSquared(index, query);
      const double initial_bsf = std::sqrt(static_cast<double>(sq));
      estimates[q] =
          (options_.cost_model != nullptr && options_.cost_model->fitted())
              ? options_.cost_model->PredictSeconds(initial_bsf)
              : initial_bsf;
    }
  });
  return estimates;
}

BatchReport OdysseyCluster::AnswerBatch(const SeriesCollection& queries) {
  ODYSSEY_CHECK(!queries.empty());
  const int num_queries = static_cast<int>(queries.size());

  // A fresh transport per batch: stale messages cannot leak across runs.
  // With an active fault plan the transport is adversarial — the injector
  // consults the plan's seeded RNG on every send.
  FaultInjector injector(options_.fault_plan);
  SimCluster cluster(layout_.num_nodes(),
                     options_.fault_plan.active() ? &injector : nullptr);

  // Admission depth: a pool's width of queries; stolen work charges the
  // same in-flight budget.
  const NodeBatchOptions node_options = MakeNodeOptions(
      options_.scheduling, std::max(1, options_.query_options.num_threads));

  Stopwatch batch_watch;
  double prepare_seconds = 0.0;
  const PreparedBatch prepared = PrepareQueries(queries, &prepare_seconds);

  // Constructed after preparation so its silence clock starts with the
  // nodes' epochs, not with the driver-side summarization work.
  CoordinatorRecovery recovery(layout_, &cluster,
                               options_.liveness_timeout_seconds);
  AnswerLoop loop(layout_, &cluster, &recovery, num_queries);

  for (auto& node : nodes_) {
    node->StartBatch(&cluster, &prepared, node_options);
  }

  // Stage 3: scheduling, per replication group (the driver acts for each
  // group coordinator; assignment travels as kAssignQuery messages and
  // dynamic requests as kQueryRequest round-trips). Groups with a single
  // member have nothing to schedule, so they skip estimation entirely
  // (scheduling is a no-op without replication); per-group estimation runs
  // on the coordinator's persistent pool, one group at a time (on the real
  // system each group coordinator estimates on its own node's workers).
  Stopwatch scheduling_watch;
  std::vector<std::vector<double>> group_estimates(layout_.num_groups());
  if (PolicyNeedsPredictions(options_.scheduling) &&
      layout_.replication_degree() > 1) {
    for (int g = 0; g < layout_.num_groups(); ++g) {
      group_estimates[g] = EstimateGroupQueries(g, prepared);
    }
  }
  for (int g = 0; g < layout_.num_groups(); ++g) {
    const std::vector<int> members = layout_.GroupMembers(g);
    const std::vector<double>& estimates = group_estimates[g];
    SchedulingPolicy effective = options_.scheduling;
    if (estimates.empty() && PolicyNeedsPredictions(effective)) {
      // Single-member group: degrade to the prediction-free equivalent.
      effective = PolicyIsDynamic(effective) ? SchedulingPolicy::kDynamic
                                             : SchedulingPolicy::kStatic;
    }
    switch (effective) {
      case SchedulingPolicy::kStatic:
      case SchedulingPolicy::kPredictStaticUnsorted:
      case SchedulingPolicy::kPredictStatic: {
        const int workers = static_cast<int>(members.size());
        const auto assignment =
            effective == SchedulingPolicy::kStatic
                ? StaticSplit(num_queries, workers)
                : PredictionGreedySplit(
                      estimates, workers,
                      effective == SchedulingPolicy::kPredictStatic);
        for (size_t w = 0; w < members.size(); ++w) {
          for (int q : assignment[w]) loop.Assign(members[w], q);
        }
        for (int member : members) loop.CloseShare(member);
        break;
      }
      case SchedulingPolicy::kDynamic:
      case SchedulingPolicy::kPredictDynamic:
        loop.Enqueue(g, DynamicDispatchOrder(
                            estimates, num_queries,
                            effective == SchedulingPolicy::kPredictDynamic));
        break;
    }
  }
  const double scheduling_seconds = scheduling_watch.ElapsedSeconds();

  // Stage 4-5: serve dynamic requests, collect local answers, and wait for
  // every node to finish its work-stealing phase.
  std::vector<std::vector<Neighbor>> candidates = loop.Run(nullptr);
  BatchReport report =
      FinishBatch(&cluster, recovery.status(), recovery.dead(), batch_watch,
                  std::move(candidates));
  report.prepare_seconds = prepare_seconds;
  report.scheduling_seconds = scheduling_seconds;
  return report;
}

BatchReport OdysseyCluster::AnswerStream(
    const SeriesCollection& queries,
    const std::vector<double>& arrival_seconds) {
  ODYSSEY_CHECK(!queries.empty());
  ODYSSEY_CHECK(queries.length() ==
                options_.index_options.config.series_length());
  ODYSSEY_CHECK(arrival_seconds.size() == queries.size());
  ODYSSEY_CHECK(std::is_sorted(arrival_seconds.begin(),
                               arrival_seconds.end()));
  const int num_queries = static_cast<int>(queries.size());

  FaultInjector injector(options_.fault_plan);
  SimCluster cluster(layout_.num_nodes(),
                     options_.fault_plan.active() ? &injector : nullptr);
  CoordinatorRecovery recovery(layout_, &cluster,
                               options_.liveness_timeout_seconds);
  AnswerLoop loop(layout_, &cluster, &recovery, num_queries);

  // Streaming always dispatches dynamically: a query cannot be assigned (or
  // sorted by estimate) before it exists. A node with idle workers runs
  // several admitted queries concurrently, partitioning its pool, instead
  // of strictly one at a time.
  const NodeBatchOptions node_options = MakeNodeOptions(
      SchedulingPolicy::kDynamic, std::max(1, options_.stream_max_inflight));

  // Online admission: slots are allocated up front, but each query is
  // summarized by the prep thread at its modeled arrival time — while the
  // nodes execute earlier arrivals — and released by the answering loop
  // the moment it is admitted. Preparation therefore overlaps execution
  // instead of front-loading the whole stream's summarization
  // (prep_overlap_seconds observes the win).
  PreparedBatch prepared = PreparedBatch::Allocate(queries.size());

  for (auto& node : nodes_) {
    node->StartBatch(&cluster, &prepared, node_options);
  }

  // The arrival clock starts now; the prep thread paces itself against it.
  Stopwatch batch_watch;

  const IsaxConfig& config = options_.index_options.config;
  const QueryOptions& qo = options_.query_options;
  double prepare_seconds = 0.0;
  double prep_overlap_seconds = 0.0;
  const std::atomic<int>& executing_queries = loop.executing();
  CountedThread prep([&] {
    Stopwatch prep_watch;
    for (size_t q = 0; q < queries.size(); ++q) {
      // Model the arrival: admission cannot precede the query's existence.
      for (;;) {
        const double wait = arrival_seconds[q] - batch_watch.ElapsedSeconds();
        if (wait <= 0.0) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(wait, 500e-6)));
      }
      const bool busy_before =
          executing_queries.load(std::memory_order_acquire) > 0;
      prep_watch.Restart();
      prepared.Admit(q, queries.data(q), config, qo.use_dtw, qo.dtw_window);
      const double elapsed = prep_watch.ElapsedSeconds();
      prepare_seconds += elapsed;
      // Overlapped share: this admission ran while at least one earlier
      // query was still executing (sampled around the work; a sparse
      // trickle whose queries finish before the next arrival counts zero).
      if (busy_before ||
          executing_queries.load(std::memory_order_acquire) > 0) {
        prep_overlap_seconds += elapsed;
      }
    }
  });

  std::vector<std::vector<Neighbor>> candidates =
      loop.Run([&prepared] { return prepared.admitted(); });
  // Termination of every node implies all queries were dispatched, so the
  // prep thread has already run to completion.
  prep.Join();

  // Preparation ran inside the answering window (that is the point); the
  // makespan is just the window.
  BatchReport report =
      FinishBatch(&cluster, recovery.status(), recovery.dead(), batch_watch,
                  std::move(candidates));
  report.prepare_seconds = prepare_seconds;
  report.prep_overlap_seconds = prep_overlap_seconds;
  return report;
}

NodeBatchOptions OdysseyCluster::MakeNodeOptions(SchedulingPolicy policy,
                                                 int max_inflight) const {
  NodeBatchOptions node_options;
  node_options.policy = policy;
  node_options.worksteal = options_.worksteal;
  // Work-stealing requires a peer with identical data: disable when groups
  // have a single member (EQUALLY-SPLIT), matching the paper's constraint.
  if (layout_.replication_degree() <= 1) node_options.worksteal.enabled = false;
  node_options.query_options = options_.query_options;
  node_options.threshold_model = options_.threshold_model;
  node_options.share_bsf = options_.share_bsf;
  node_options.max_inflight = max_inflight;
  // Arm unsolicited heartbeats only when the liveness deadline is: silent
  // compute must read as busy, and without a deadline pings are noise.
  node_options.liveness_heartbeat_seconds =
      options_.liveness_timeout_seconds > 0.0 ? 0.025 : 0.0;
  node_options.seed = options_.seed;
  return node_options;
}

BatchReport OdysseyCluster::FinishBatch(
    SimCluster* cluster, const Status& status,
    const std::set<int>& dead_nodes, const Stopwatch& batch_watch,
    std::vector<std::vector<Neighbor>> candidates) {
  // Drain stragglers: a delayed kLocalAnswer can still sit in the held
  // queue after the last kNodeTerminated. Sound because recovery answers
  // are fenced by their node's kNodeDeadAck (same-thread FIFO) and ordinary
  // answers by that node's kNodeTerminated, all of which the recovery
  // quiescence check has already seen; TryReceive force-flushes held
  // messages.
  Message m;
  while (cluster->mailbox(cluster->coordinator_id()).TryReceive(&m)) {
    if (m.type == MessageType::kLocalAnswer) {
      std::vector<Neighbor>& bucket = candidates[m.query_id];
      bucket.insert(bucket.end(), m.neighbors.begin(), m.neighbors.end());
    }
  }
  BatchReport report;
  report.status = status;
  report.dead_nodes.assign(dead_nodes.begin(), dead_nodes.end());

  // Merge the per-node partial answers into the final ones.
  report.answers.reserve(candidates.size());
  for (const std::vector<Neighbor>& bucket : candidates) {
    report.answers.push_back(MergeAnswers(bucket, options_.query_options.k));
  }
  report.query_seconds = batch_watch.ElapsedSeconds();

  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = cluster->coordinator_id();
  cluster->Broadcast(shutdown);
  for (auto& node : nodes_) node->JoinBatch();

  for (auto& node : nodes_) {
    report.node_stats.push_back(node->batch_stats());
    report.queries_in_flight_hwm = std::max(
        report.queries_in_flight_hwm, node->batch_stats().inflight_hwm);
  }
  report.messages_sent = cluster->messages_sent();
  report.bsf_updates = cluster->messages_sent(MessageType::kBsfUpdate);
  report.steal_requests = cluster->messages_sent(MessageType::kStealRequest);
  return report;
}

}  // namespace odyssey
