// Binary relations over operation indices, bitset-backed.
//
// All order relations of the paper (7->i, ->li, 7->ro, 7->co, 7->lco,
// ->lwb, 7->lsc, 7->pram, slow) are represented as a Relation: a dense
// boolean adjacency matrix with fast transitive closure (bit-parallel
// Floyd–Warshall row OR-ing), acyclicity testing and subset restriction.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "simnet/check.h"

namespace pardsm::hist {

/// Dense n×n boolean matrix with 64-way bit-parallel rows.
class Relation {
 public:
  explicit Relation(std::size_t n = 0);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Add the pair (a, b): a precedes b.
  void add(std::size_t a, std::size_t b) {
    PARDSM_CHECK(a < n_ && b < n_, "Relation::add out of range");
    bits_[a * words_per_row() + b / 64] |= (1ULL << (b % 64));
  }

  /// True if (a, b) is in the relation.
  [[nodiscard]] bool has(std::size_t a, std::size_t b) const {
    PARDSM_CHECK(a < n_ && b < n_, "Relation::has out of range");
    return (bits_[a * words_per_row() + b / 64] >> (b % 64)) & 1ULL;
  }

  /// In-place union with another relation of the same size.
  void merge(const Relation& other);

  /// Replace this relation with its transitive closure.
  void close();

  /// Transitive closure as a copy.
  [[nodiscard]] Relation closure() const;

  /// True if no cycle exists (treating the relation as a digraph).
  /// A reflexive pair (a, a) counts as a cycle.
  [[nodiscard]] bool is_acyclic() const;

  /// Number of pairs in the relation.
  [[nodiscard]] std::size_t edge_count() const;

  /// All pairs (a, b), ascending.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> edges() const;

  /// Restriction to `subset` (indices into this relation).  The result has
  /// size subset.size(); result(i, j) == has(subset[i], subset[j]).
  [[nodiscard]] Relation restrict_to(
      const std::vector<std::int32_t>& subset) const;

  /// One topological order of the digraph, if acyclic.
  [[nodiscard]] std::vector<std::size_t> topological_order() const;

  /// Successors of `a` (all b with has(a,b)).
  [[nodiscard]] std::vector<std::size_t> successors(std::size_t a) const;

  /// Debug rendering: "a->b" pairs, space-separated.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Relation&, const Relation&) = default;

 private:
  [[nodiscard]] std::size_t words_per_row() const { return (n_ + 63) / 64; }
  std::size_t n_ = 0;
  std::vector<std::uint64_t> bits_;  ///< row-major, words_per_row per row
};

}  // namespace pardsm::hist
