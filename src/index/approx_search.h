#ifndef ODYSSEY_INDEX_APPROX_SEARCH_H_
#define ODYSSEY_INDEX_APPROX_SEARCH_H_

#include <cstdint>

#include "src/index/builder.h"
#include "src/isax/mindist.h"
#include "src/query/prepared_query.h"

namespace odyssey {

/// Approximate search: descends the index tree to the single leaf whose
/// iSAX word best matches the query and returns the minimum real distance
/// inside it. The result initializes the query's best-so-far (BSF) — the
/// quantity the paper's scheduler predicts execution time from (Figure 4).
///
/// All entry points take a PreparedQuery, so the query's PAA and SAX word
/// are computed once per batch (not once per descent): the driver's
/// scheduling estimates, every replica's BSF seeding and the baselines all
/// share the same prepared artifact.
///
/// When the query's root key has no subtree, the descent falls back to the
/// root with the smallest PAA word bound. `paa_bounds` (optional) is the
/// query's MindistTable::ForPaa table for that ranking — an ED execution
/// passes its own; without one, a local table is built on a miss.
///
/// Returns the squared Euclidean distance of the approximate answer, and
/// the matching series id via `*answer_id` (optional). The index must be
/// non-empty.
float ApproximateSearchSquared(const Index& index, const PreparedQuery& query,
                               uint32_t* answer_id = nullptr,
                               const MindistTable* paa_bounds = nullptr);

/// DTW variant: identical descent, but real distances are squared DTW with
/// the query's warping window, each candidate first screened by LB_Keogh
/// and LB_Improved at the running best (SquaredDtwCascade, as the exact
/// scan does). The query must be
/// prepared with an envelope. The root fallback still ranks by the PAA
/// bound (not the envelope), through a local table built on a miss.
float ApproximateSearchSquaredDtw(const Index& index,
                                  const PreparedQuery& query,
                                  uint32_t* answer_id = nullptr);

/// The leaf an approximate search would scan: the non-empty leaf whose iSAX
/// word best matches the query. Exposed so the approximate query mode (the
/// paper's future-work extension) can report the whole leaf's k best
/// candidates instead of a single distance.
const TreeNode* ApproximateSearchLeaf(
    const Index& index, const PreparedQuery& query,
    const MindistTable* paa_bounds = nullptr);

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_APPROX_SEARCH_H_
