#include "src/index/approx_search.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/distance/dtw.h"
#include "src/distance/simd.h"
#include "src/isax/mindist.h"

namespace odyssey {
namespace {

/// Descends to the best-matching non-empty leaf. If the query's own root
/// key has no subtree, falls back to the root with the smallest word-level
/// lower bound (the standard iSAX approximate-search fallback), ranked
/// through `paa_bounds` or, when null, a table built here.
const TreeNode* DescendToLeaf(const Index& index, const PreparedQuery& query,
                              const MindistTable* paa_bounds) {
  const IndexTree& tree = index.tree();
  ODYSSEY_CHECK(tree.root_count() > 0);
  const IsaxConfig& config = index.config();
  const uint8_t* query_sax = query.sax();

  const uint32_t key = RootKey(query_sax, config);
  int root_idx = tree.FindRoot(key);
  if (root_idx < 0) {
    MindistTable local;
    if (paa_bounds == nullptr) {
      local = MindistTable::ForPaa(query.paa(), config);
      paa_bounds = &local;
    }
    float best = std::numeric_limits<float>::infinity();
    for (size_t i = 0; i < tree.root_count(); ++i) {
      const float lb = paa_bounds->ToWord(tree.root(i)->word());
      if (lb < best) {
        best = lb;
        root_idx = static_cast<int>(i);
      }
    }
  }

  const TreeNode* node = tree.root(static_cast<size_t>(root_idx));
  while (!node->is_leaf()) {
    const int s = node->split_segment();
    const int child_bits = node->left()->word().bits[s];
    const uint8_t bit = static_cast<uint8_t>(
                            query_sax[s] >> (config.max_bits - child_bits)) &
                        1u;
    const TreeNode* preferred = (bit == 0) ? node->left() : node->right();
    const TreeNode* other = (bit == 0) ? node->right() : node->left();
    node = (preferred->subtree_size() > 0) ? preferred : other;
  }
  ODYSSEY_CHECK(!node->ids().empty());
  return node;
}

template <typename DistanceFn>
float ScanLeaf(const Index& index, const TreeNode* leaf, const float* query,
               uint32_t* answer_id, const DistanceFn& distance) {
  // Every series of the leaf is scored, so the scan prefetches a couple of
  // series ahead: the next candidates' cache misses overlap the current
  // distance call instead of following it.
  constexpr size_t kPrefetchAhead = 2;
  const SeriesCollection& data = index.data();
  const std::vector<uint32_t>& ids = leaf->ids();
  for (size_t i = 0; i < std::min(kPrefetchAhead, ids.size()); ++i) {
    data.Prefetch(ids[i]);
  }
  float best = std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i + kPrefetchAhead < ids.size()) data.Prefetch(ids[i + kPrefetchAhead]);
    const float d = distance(query, data.data(ids[i]), best);
    if (d < best) {
      best = d;
      if (answer_id != nullptr) *answer_id = ids[i];
    }
  }
  return best;
}

}  // namespace

const TreeNode* ApproximateSearchLeaf(const Index& index,
                                      const PreparedQuery& query,
                                      const MindistTable* paa_bounds) {
  return DescendToLeaf(index, query, paa_bounds);
}

float ApproximateSearchSquared(const Index& index, const PreparedQuery& query,
                               uint32_t* answer_id,
                               const MindistTable* paa_bounds) {
  const TreeNode* leaf = DescendToLeaf(index, query, paa_bounds);
  const size_t n = index.config().series_length();
  const simd::KernelTable& kernels = simd::ActiveTable();
  return ScanLeaf(index, leaf, query.series(), answer_id,
                  [n, &kernels](const float* q, const float* s,
                                float threshold) {
                    return kernels.squared_euclidean_early_abandon(q, s, n,
                                                                   threshold);
                  });
}

float ApproximateSearchSquaredDtw(const Index& index,
                                  const PreparedQuery& query,
                                  uint32_t* answer_id) {
  ODYSSEY_CHECK_MSG(query.has_envelope(),
                    "DTW approximate search needs a DTW-prepared query");
  const TreeNode* leaf = DescendToLeaf(index, query, nullptr);
  const size_t window = query.dtw_window();
  const Envelope& envelope = query.envelope();
  // The exact scan's cascade of lower bounds, then the DP: the bounds prune
  // without changing the answer.
  return ScanLeaf(index, leaf, query.series(), answer_id,
                  [window, &envelope](const float* q, const float* s,
                                      float threshold) {
                    return SquaredDtwCascade(q, envelope, s, window,
                                             threshold);
                  });
}

}  // namespace odyssey
