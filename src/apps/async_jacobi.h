// Totally asynchronous Jacobi fixed-point iteration on *slow* memory.
//
// Sinha [16] (cited in §5 of the paper) shows that totally asynchronous
// iterative fixed-point methods converge on memories even weaker than
// PRAM.  We reproduce that claim with a fixed-point solve of
//
//     x = A·x + b      (A a contraction, fixed-point arithmetic)
//
// where process i owns x_i, re-reads its neighbours' entries *without any
// synchronization* (stale values allowed) and re-writes x_i every round.
// By the classical asynchronous-iteration theorem (Bertsekas), convergence
// only needs every component to be updated infinitely often with
// eventually-fresh reads — per-variable FIFO (slow memory) is enough; no
// cross-variable ordering is ever used.
//
// A is tridiagonal (process i reads x_{i-1}, x_i, x_{i+1}), so the share
// graph is an open chain: hoop-free, fully partial replication.
#pragma once

#include <vector>

#include "mcs/driver.h"

namespace pardsm::apps {

/// Fixed-point scale (values are stored as value * kJacobiScale).
inline constexpr std::int64_t kJacobiScale = 1 << 16;

/// Problem definition: tridiagonal A (sub/diag/super coefficients in
/// fixed-point) and offset vector b.
struct JacobiProblem {
  std::vector<std::int64_t> sub;    ///< a(i, i-1), fixed-point
  std::vector<std::int64_t> diag;   ///< a(i, i), fixed-point
  std::vector<std::int64_t> super;  ///< a(i, i+1), fixed-point
  std::vector<std::int64_t> b;      ///< offsets, fixed-point

  [[nodiscard]] std::size_t size() const { return b.size(); }

  /// A well-conditioned random contraction (row sums ≈ 0.6 < 1).
  [[nodiscard]] static JacobiProblem contraction(std::size_t n,
                                                 std::uint64_t seed);
};

/// Synchronous reference iteration to numerical convergence.
[[nodiscard]] std::vector<std::int64_t> jacobi_reference(
    const JacobiProblem& p, std::size_t max_rounds = 10000);

/// Options for the distributed asynchronous run.
struct JacobiOptions {
  mcs::ProtocolKind protocol = mcs::ProtocolKind::kSlowPartial;
  std::uint64_t sim_seed = 1;
  std::size_t rounds = 80;       ///< asynchronous updates per process
  Duration round_delay = millis(2);
};

/// Result of the distributed run.
struct JacobiResult {
  std::vector<std::int64_t> solution;  ///< final x (fixed-point)
  std::int64_t max_abs_error = 0;      ///< vs reference, fixed-point
  bool converged = false;              ///< error below tolerance
  ProcessTraffic total_traffic;
  TimePoint finished_at{};
  hist::History history;  ///< recorded shared-memory operations
};

/// Run the asynchronous iteration (one process per component).
[[nodiscard]] JacobiResult run_async_jacobi(const JacobiProblem& p,
                                            const JacobiOptions& options = {});

}  // namespace pardsm::apps
