// x-hoops (Definition 3) — enumeration and polynomial existence tests.
//
// An x-hoop is a path [p_a = p_0, p_1, ..., p_k = p_b] in SG between two
// distinct members of C(x) whose intermediate vertices lie outside C(x)
// and whose consecutive pairs share some variable other than x.
//
// Two complementary algorithms:
//
//  * enumerate_hoops — explicit DFS over simple paths.  Exponential in the
//    worst case; this is the cost §3.3 of the paper warns about
//    ("enumerating all the hoops can be very long"), measured by
//    bench_fig2_hoops.
//
//  * hoop_members — the set of processes lying on at least one x-hoop,
//    computed in linear time by one biconnected-component pass over the
//    graph H_x: the usable edges (label ≠ x) minus those joining two
//    members of C(x), plus a virtual terminal t joined to every member of
//    C(x).  v ∉ C(x) lies on an x-hoop iff v shares a block with t: by
//    Menger that means two internally disjoint v–t paths, and cutting each
//    at its first clique vertex gives two paths from v to *distinct*
//    members of C(x) with all intermediates outside C(x) — the two halves
//    of a hoop through v.  Combined with C(x) this yields the x-relevant
//    set of Theorem 1 without any enumeration.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "sharegraph/share_graph.h"

namespace pardsm::graph {

/// One hoop: the vertex path [p_a, ..., p_b]; endpoints in C(x),
/// intermediates outside.
using Hoop = std::vector<ProcessId>;

/// Result of an enumeration.
struct HoopEnumeration {
  std::vector<Hoop> hoops;   ///< canonical direction (front <= back)
  bool truncated = false;    ///< hit the limit
  std::uint64_t dfs_steps = 0;
};

/// Enumerate x-hoops with at least one intermediate vertex.  Paths are
/// canonicalized so that hoop.front() <= hoop.back(); enumeration stops
/// after `limit` hoops (truncated flag set).
[[nodiscard]] HoopEnumeration enumerate_hoops(const ShareGraph& sg, VarId x,
                                              std::size_t limit = 1u << 20);

/// True if at least one x-hoop (with an intermediate vertex) exists.
[[nodiscard]] bool hoop_exists(const ShareGraph& sg, VarId x);

/// All processes *outside C(x)* lying on at least one x-hoop (the hoops'
/// intermediate vertices; endpoints are C(x) members and are reported by
/// x_relevant instead).  Linear time (one block pass).
[[nodiscard]] std::set<ProcessId> hoop_members(const ShareGraph& sg, VarId x);

/// Theorem 1: the x-relevant set = C(x) ∪ hoop members.
[[nodiscard]] std::set<ProcessId> x_relevant(const ShareGraph& sg, VarId x);

/// x-relevant sets for every variable (one block pass per variable, one
/// workspace for all of them).
[[nodiscard]] std::vector<std::set<ProcessId>> all_relevant_sets(
    const ShareGraph& sg);

/// Summary statistics used by the efficiency analyzer and benches.
struct RelevanceSummary {
  std::size_t vars_with_hoops = 0;
  /// Σ_x |x-relevant| — total bookkeeping obligations under causal.
  std::size_t total_relevant = 0;
  /// Σ_x |C(x)| — total bookkeeping obligations under PRAM.
  std::size_t total_replicas = 0;
  /// total_relevant / total_replicas (1.0 = efficient partial replication).
  [[nodiscard]] double overhead_ratio() const {
    return total_replicas == 0
               ? 0.0
               : static_cast<double>(total_relevant) /
                     static_cast<double>(total_replicas);
  }
};
[[nodiscard]] RelevanceSummary summarize_relevance(const ShareGraph& sg);

}  // namespace pardsm::graph
