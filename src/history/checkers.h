// Consistency-criterion checkers.
//
// Each checker decides whether a history is admitted by a memory model:
//
//   Sequential       one serialization of ALL of O_H respecting 7->i [11]
//   Causal           per process i: serialization of H_{i+w} resp. 7->co [3]
//   LazyCausal       ... respecting 7->lco (Definition 7)
//   LazySemiCausal   ... respecting 7->lsc (Definition 10)
//   Pram             ... respecting 7->pram (Definition 12) [13]
//   Slow             ... respecting the slow relation [16]
//
// The checkers are exact up to the serialization-search budget; a verdict
// of kUnknown is reported rather than guessed (never observed in this
// repository's test corpus).
//
// The criterion lattice used by the property tests ("a history admitted by
// a stronger model is admitted by every weaker one"):
//
//     Sequential → Causal → LazyCausal → LazySemiCausal
//                        ↘ Pram → Slow
#pragma once

#include <string>
#include <vector>

#include "history/orders.h"
#include "history/serialization.h"

namespace pardsm::hist {

/// The consistency criteria treated in the paper, plus cache consistency
/// (Goodman's per-variable sequential consistency), which the repository's
/// open-question extension protocols target.  kCache is incomparable to
/// kPram and kCausal; in the lattice it only implies kSlow.
enum class Criterion {
  kSequential,
  kCausal,
  kLazyCausal,
  kLazySemiCausal,
  kPram,
  kSlow,
  kCache,
};

/// All criteria, strongest first.
[[nodiscard]] const std::vector<Criterion>& all_criteria();

/// Human-readable name ("causal", "PRAM", ...).
[[nodiscard]] const char* to_string(Criterion c);

/// True if every history admitted by `stronger` is admitted by `weaker`
/// (reflexive; transitive over the lattice above).
[[nodiscard]] bool implies(Criterion stronger, Criterion weaker);

/// Options for checking.
struct CheckOptions {
  LazyMode lazy_mode = LazyMode::kPaperConsistent;
  SearchOptions search;
};

/// Verdict for one process's required serialization.
struct ProcessVerdict {
  ProcessId proc = kNoProcess;
  SearchVerdict verdict = SearchVerdict::kUnknown;
  std::vector<OpIndex> witness;  ///< serialization when found
};

/// Verdict for a whole history under one criterion.
struct CheckResult {
  bool consistent = false;   ///< all required serializations exist
  bool definitive = true;    ///< false if any sub-search hit its budget
  std::vector<ProcessVerdict> per_process;

  /// First failing process, or kNoProcess.
  [[nodiscard]] ProcessId first_violation() const {
    for (const auto& pv : per_process) {
      if (pv.verdict == SearchVerdict::kNotSerializable) return pv.proc;
    }
    return kNoProcess;
  }
};

/// Decide whether `h` satisfies criterion `c`.
[[nodiscard]] CheckResult check_history(const History& h, Criterion c,
                                        const CheckOptions& options = {});

/// The constraint relation a criterion imposes (over all ops of h).
[[nodiscard]] Relation criterion_relation(const History& h, Criterion c,
                                          LazyMode mode);
/// The same, with `read_from` = h.resolve_read_from() already resolved.
[[nodiscard]] Relation criterion_relation(const History& h, Criterion c,
                                          LazyMode mode,
                                          const std::vector<OpIndex>& read_from);

/// Classify a history under every criterion (strongest first); handy for
/// the consistency-explorer example and the Fig 4–6 benches.
struct Classification {
  std::vector<std::pair<Criterion, bool>> admitted;
  [[nodiscard]] std::string to_string() const;
};
[[nodiscard]] Classification classify(const History& h,
                                      const CheckOptions& options = {});

}  // namespace pardsm::hist
