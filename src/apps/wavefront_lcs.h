// Wavefront dynamic programming (longest common subsequence) on PRAM
// shared memory.
//
// Dynamic programming is the third oblivious-computation family Lipton &
// Sandberg [13] name (echoed in §5 of the paper).  Process p computes row
// p+1 of the LCS table of strings s (rows) and t (columns); it reads row p
// — owned by process p-1 — gated by p-1's progress counter.
//
// The distribution is an *open chain*: process p shares variables only
// with p-1 and p+1, so the share graph has no hoops at all and even
// causal consistency would be hoop-free here (DESIGN.md E2/S1 use this as
// the hoop-free contrast topology).  PRAM again suffices by the
// single-writer flag hand-off: cells of row p are written before the
// counter c_p advances past them.
#pragma once

#include <string>

#include "mcs/driver.h"
#include "sharegraph/share_graph.h"

namespace pardsm::apps {

/// Reference LCS length (oracle).
[[nodiscard]] std::size_t lcs_reference(const std::string& s,
                                        const std::string& t);

/// Options for a distributed run.
struct LcsOptions {
  mcs::ProtocolKind protocol = mcs::ProtocolKind::kPramPartial;
  std::uint64_t sim_seed = 1;
  Duration poll = millis(1);
};

/// Result of a distributed LCS computation.
struct LcsResult {
  std::size_t length = 0;
  bool matches_reference = false;
  ProcessTraffic total_traffic;
  TimePoint finished_at{};
  /// The share graph of the run's distribution had no hoops (always true
  /// for this app; asserted by tests).
  bool hoop_free = false;
  hist::History history;  ///< recorded shared-memory operations
};

/// Compute |LCS(s, t)| with one process per row of the DP table.
[[nodiscard]] LcsResult run_wavefront_lcs(const std::string& s,
                                          const std::string& t,
                                          const LcsOptions& options = {});

}  // namespace pardsm::apps
