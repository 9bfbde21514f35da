// Exact search for legal serializations (Definition 1 of the paper).
//
// Given a subset of a history's operations and a precedence relation, find
// a sequence S containing exactly those operations such that
//   (1) S respects the relation, and
//   (2) every read of x returns the value of the most recent preceding
//       write of x in S (⊥ if none) — checked via exact read-from sources.
//
// The search is a backtracking construction of S with
//   - forced-edge propagation: for a read r from write w on x and any other
//     write w' on x, "w before w'" forces "r before w'", and "w' before r"
//     forces "w' before w"; propagated to fixpoint before searching, which
//     detects most inconsistencies without any search;
//   - memoization of failed states keyed by (placed-set, last-write-per-var),
//     each key a fixed-stride run of 64-bit words in one arena, found
//     through a flat open-addressing table.
//
// The closure, the propagation and the readiness test ("every predecessor
// placed") run on bit-parallel rows of ceil(k/64) words, k = |subset|.
//
// Deciding serialization existence is NP-hard in general; the finder is
// exact but bounded by `max_states`; exceeding the budget yields verdict
// kUnknown (never a wrong answer).
#pragma once

#include <cstdint>
#include <vector>

#include "history/history.h"
#include "history/relation.h"

namespace pardsm::hist {

/// Outcome of a serialization search.
enum class SearchVerdict {
  kSerializable,    ///< witness found
  kNotSerializable, ///< exhaustively refuted
  kUnknown,         ///< state budget exceeded
};

/// Result of find_serialization.
struct SerializationResult {
  SearchVerdict verdict = SearchVerdict::kUnknown;
  /// Witness (global op indices in serialization order) when serializable.
  std::vector<OpIndex> order;
  /// Diagnostic counters.
  std::uint64_t states_explored = 0;
  bool refuted_by_propagation = false;  ///< no search was needed
};

/// Search options.
struct SearchOptions {
  std::uint64_t max_states = 4'000'000;
};

/// Find a serialization of `subset` (global indices into `h`) respecting
/// `constraint` (a Relation over all of h's ops; it is restricted to the
/// subset internally and transitively closed).
[[nodiscard]] SerializationResult find_serialization(
    const History& h, const std::vector<OpIndex>& subset,
    const Relation& constraint, const SearchOptions& options = {});

/// The same, with `read_from` = h.resolve_read_from() resolved once by a
/// caller that searches many subsets of one history.
[[nodiscard]] SerializationResult find_serialization(
    const History& h, const std::vector<OpIndex>& subset,
    const Relation& constraint, const std::vector<OpIndex>& read_from,
    const SearchOptions& options = {});

/// Verify that `order` is a legal serialization of exactly `subset` under
/// `constraint` (used to validate witnesses in tests).
[[nodiscard]] bool is_legal_serialization(const History& h,
                                          const std::vector<OpIndex>& subset,
                                          const std::vector<OpIndex>& order,
                                          const Relation& constraint);

}  // namespace pardsm::hist
