#ifndef PERFBENCH_GATES_H_
#define PERFBENCH_GATES_H_

#include "ratings/rating_matrix.h"
#include "serve/recommendation_service.h"
#include "sim/incremental_peer_graph.h"
#include "sim/peer_index.h"

namespace perfbench {

// Parity gates. Every comparison is bit-exact: doubles compare by their bit
// patterns, so a last-ulp drift or a NaN in place of a number is a mismatch.
// A failed gate fails the run; it is never reported as a metric.

bool SameUserResponse(const fairrec::serve::UserRecResponse& a,
                      const fairrec::serve::UserRecResponse& b);

bool SameGroupResponse(const fairrec::serve::GroupRecResponse& a,
                       const fairrec::serve::GroupRecResponse& b);

/// operator== and identical serialized bytes.
bool SameIndexBytes(const fairrec::PeerIndex& a, const fairrec::PeerIndex& b);

/// Corpus, moment store and peer index all equal.
bool SameGraphState(const fairrec::IncrementalPeerGraph& a,
                    const fairrec::IncrementalPeerGraph& b);

}  // namespace perfbench

#endif  // PERFBENCH_GATES_H_
