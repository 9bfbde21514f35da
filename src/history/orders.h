// Builders for the paper's order relations over a history's operations.
//
// Every builder returns a Relation over global op indices (size
// History::size()).  Names follow the paper:
//
//   program_order          7->i   total order per process (Section 2)
//   read_from_order        7->ro  write -> read that returned it
//   causality_order        7->co  closure(program ∪ read-from)   [Ahamad]
//   lazy_program_order     ->li   Definition 5
//   lazy_causality_order   7->lco Definition 6
//   lazy_writes_before     ->lwb  Definition 8
//   lazy_semi_causal_order 7->lsc Definition 9
//   pram_relation          7->pram Definition 11 (acyclic, NOT transitive)
//   slow_relation          per-variable program order ∪ read-from (Slow/[16])
//
// Every builder that uses read-from also comes with an overload taking
// `read_from` = h.resolve_read_from() already resolved, so a checker that
// resolved it once (check_history) does not resolve it again per builder;
// the one-argument forms resolve it themselves and forward.
//
// Interpretation note (documented in DESIGN.md): Definition 5 as printed
// orders (read, read-same-var), (read, any-write) and (write, same-var op)
// pairs.  The paper's own walk-throughs of Figures 4 and 6, however, use
// orderings of two writes on *different* variables with no intervening
// operation (w1(x)a ->li w1(y)b; w2(y)e ->li w2(z)c).  Those analyses are
// only derivable if a write is never permuted with a *later write*.  We
// therefore provide both readings and default to the one that makes the
// paper's figures internally consistent:
//
//   kPaperConsistent  adds (write, later write on any variable)
//   kLiteral          exactly the three clauses printed in Definition 5
#pragma once

#include <vector>

#include "history/history.h"
#include "history/relation.h"

namespace pardsm::hist {

/// Which reading of Definition 5 (lazy program order) to use.
enum class LazyMode {
  kPaperConsistent,  ///< writes stay ordered with later writes (default)
  kLiteral,          ///< exactly the clauses printed in the report
};

/// 7->i for all processes: o1 before o2 in the same h_i.
[[nodiscard]] Relation program_order(const History& h);

/// 7->ro: source write -> read, from History::resolve_read_from().
[[nodiscard]] Relation read_from_order(const History& h);
[[nodiscard]] Relation read_from_order(const History& h,
                                       const std::vector<OpIndex>& read_from);

/// 7->co: transitive closure of program ∪ read-from.
[[nodiscard]] Relation causality_order(const History& h);
[[nodiscard]] Relation causality_order(const History& h,
                                       const std::vector<OpIndex>& read_from);

/// ->li per Definition 5 (transitively closed).
[[nodiscard]] Relation lazy_program_order(
    const History& h, LazyMode mode = LazyMode::kPaperConsistent);

/// 7->lco: closure(lazy program ∪ read-from), Definition 6.
[[nodiscard]] Relation lazy_causality_order(
    const History& h, LazyMode mode = LazyMode::kPaperConsistent);
[[nodiscard]] Relation lazy_causality_order(
    const History& h, LazyMode mode, const std::vector<OpIndex>& read_from);

/// ->lwb per Definition 8: w_i(x)v ->lwb r_j(y)u when some o' = w_i(y)u
/// satisfies w_i(x)v ->li o' and r_j(y)u reads from o'.
[[nodiscard]] Relation lazy_writes_before(
    const History& h, LazyMode mode = LazyMode::kPaperConsistent);
[[nodiscard]] Relation lazy_writes_before(
    const History& h, LazyMode mode, const std::vector<OpIndex>& read_from);

/// 7->lsc: closure(lazy program ∪ lazy writes-before), Definition 9.
[[nodiscard]] Relation lazy_semi_causal_order(
    const History& h, LazyMode mode = LazyMode::kPaperConsistent);
[[nodiscard]] Relation lazy_semi_causal_order(
    const History& h, LazyMode mode, const std::vector<OpIndex>& read_from);

/// 7->pram per Definition 11: program order ∪ read-from, *not* closed.
/// (A serialization respects a relation iff it respects its closure, so
/// checkers may close it; the relation itself is returned raw.)
[[nodiscard]] Relation pram_relation(const History& h);
[[nodiscard]] Relation pram_relation(const History& h,
                                     const std::vector<OpIndex>& read_from);

/// Slow memory relation: program order restricted to same-variable pairs,
/// union read-from.  This is the classical "slow memory" [Hutto&Ahamad 90]
/// the paper cites via Sinha [16]; included as the weaker-than-PRAM rung.
[[nodiscard]] Relation slow_relation(const History& h);
[[nodiscard]] Relation slow_relation(const History& h,
                                     const std::vector<OpIndex>& read_from);

/// Concurrency test: neither (a,b) nor (b,a) in `r`.
[[nodiscard]] bool concurrent(const Relation& r, OpIndex a, OpIndex b);

}  // namespace pardsm::hist
