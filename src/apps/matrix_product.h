// Distributed matrix product on PRAM shared memory.
//
// Lipton & Sandberg [13] list matrix product among the oblivious
// computations PRAM memories can run (the paper repeats the claim in §5).
// Each process owns a block of rows of A and computes the matching rows of
// C = A × B:
//
//   variables: a_i (row block of A, written once by owner i),
//              b_j (row block of B, written once by owner j),
//              c_i (result block, written by owner i),
//              f_i (owner i's "inputs published" flag).
//
// Process i publishes its a/b blocks, raises f_i, spins until every f_j is
// up (same single-writer flag hand-off as Bellman-Ford — PRAM suffices),
// reads all of B and writes its rows of C.  The distribution is partial:
// A-cells and C-cells live only at their owner; B-cells and the flags are
// replicated everywhere (they are read by everyone).  One shared variable
// per matrix cell.
#pragma once

#include <cstdint>
#include <vector>

#include "mcs/driver.h"
#include "sharegraph/share_graph.h"

namespace pardsm::apps {

/// Square matrix, row-major.
using Matrix = std::vector<std::vector<std::int64_t>>;

/// Reference product (oracle).
[[nodiscard]] Matrix multiply_reference(const Matrix& a, const Matrix& b);

/// Deterministic random matrix with entries in [-bound, bound].
[[nodiscard]] Matrix random_matrix(std::size_t n, std::int64_t bound,
                                   std::uint64_t seed);

/// Options for a distributed multiply.
struct MatrixProductOptions {
  mcs::ProtocolKind protocol = mcs::ProtocolKind::kPramPartial;
  std::uint64_t sim_seed = 1;
  Duration poll = millis(2);
};

/// Result of a distributed multiply over `processes` row blocks.
struct MatrixProductResult {
  Matrix product;
  bool matches_reference = false;
  ProcessTraffic total_traffic;
  TimePoint finished_at{};
  hist::History history;  ///< recorded shared-memory operations
};

/// Multiply a × b with one process per row block.
[[nodiscard]] MatrixProductResult run_matrix_product(
    const Matrix& a, const Matrix& b, std::size_t processes,
    const MatrixProductOptions& options = {});

}  // namespace pardsm::apps
