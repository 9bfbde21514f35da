#include "history/checkers.h"

#include <sstream>
#include <stdexcept>

#include "simnet/check.h"

namespace pardsm::hist {

const std::vector<Criterion>& all_criteria() {
  static const std::vector<Criterion> kAll = {
      Criterion::kSequential,     Criterion::kCausal,
      Criterion::kLazyCausal,     Criterion::kLazySemiCausal,
      Criterion::kPram,           Criterion::kSlow,
      Criterion::kCache,
  };
  return kAll;
}

const char* to_string(Criterion c) {
  switch (c) {
    case Criterion::kSequential:
      return "sequential";
    case Criterion::kCausal:
      return "causal";
    case Criterion::kLazyCausal:
      return "lazy-causal";
    case Criterion::kLazySemiCausal:
      return "lazy-semi-causal";
    case Criterion::kPram:
      return "PRAM";
    case Criterion::kSlow:
      return "slow";
    case Criterion::kCache:
      return "cache";
  }
  return "?";
}

bool implies(Criterion stronger, Criterion weaker) {
  if (stronger == weaker) return true;
  switch (stronger) {
    case Criterion::kSequential:
      return true;  // implies everything below
    case Criterion::kCausal:
      return weaker != Criterion::kSequential && weaker != Criterion::kCache;
    case Criterion::kLazyCausal:
      return weaker == Criterion::kLazySemiCausal;
    case Criterion::kLazySemiCausal:
      return false;
    case Criterion::kPram:
      return weaker == Criterion::kSlow;
    case Criterion::kSlow:
      return false;
    case Criterion::kCache:
      return weaker == Criterion::kSlow;
  }
  return false;
}

Relation criterion_relation(const History& h, Criterion c, LazyMode mode) {
  return criterion_relation(h, c, mode, h.resolve_read_from());
}

Relation criterion_relation(const History& h, Criterion c, LazyMode mode,
                            const std::vector<OpIndex>& read_from) {
  switch (c) {
    case Criterion::kSequential:
    case Criterion::kCache:  // per-variable: program order, restricted to
                             // each variable's ops by the subset search
      return program_order(h);
    case Criterion::kCausal:
      return causality_order(h, read_from);
    case Criterion::kLazyCausal:
      return lazy_causality_order(h, mode, read_from);
    case Criterion::kLazySemiCausal:
      return lazy_semi_causal_order(h, mode, read_from);
    case Criterion::kPram:
      return pram_relation(h, read_from);
    case Criterion::kSlow:
      return slow_relation(h, read_from);
  }
  PARDSM_CHECK(false, "unreachable criterion");
  return Relation(0);
}

CheckResult check_history(const History& h, Criterion c,
                          const CheckOptions& options) {
  CheckResult result;
  std::vector<OpIndex> read_from;
  try {
    read_from = h.resolve_read_from();
  } catch (const std::logic_error&) {
    // A read returning a value never written (other than ⊥) violates every
    // criterion here (all include the read-from constraint).
    result.consistent = false;
    result.definitive = true;
    return result;
  }

  const Relation relation =
      criterion_relation(h, c, options.lazy_mode, read_from);

  if (c == Criterion::kSequential) {
    // One serialization of all operations.
    std::vector<OpIndex> everything;
    everything.reserve(h.size());
    for (std::size_t i = 0; i < h.size(); ++i) {
      everything.push_back(static_cast<OpIndex>(i));
    }
    auto sr = find_serialization(h, everything, relation, read_from,
                                 options.search);
    ProcessVerdict pv;
    pv.proc = kNoProcess;  // global serialization, not per-process
    pv.verdict = sr.verdict;
    pv.witness = std::move(sr.order);
    result.per_process.push_back(std::move(pv));
  } else if (c == Criterion::kCache) {
    // Per *variable*: one serialization of the variable's ops respecting
    // (the restriction of) program order.  ProcessVerdict::proc carries
    // the variable id in this mode.
    for (std::size_t x = 0; x < h.var_count(); ++x) {
      std::vector<OpIndex> subset;
      for (std::size_t i = 0; i < h.size(); ++i) {
        if (h.op(static_cast<OpIndex>(i)).var == static_cast<VarId>(x)) {
          subset.push_back(static_cast<OpIndex>(i));
        }
      }
      auto sr =
          find_serialization(h, subset, relation, read_from, options.search);
      ProcessVerdict pv;
      pv.proc = static_cast<ProcessId>(x);
      pv.verdict = sr.verdict;
      pv.witness = std::move(sr.order);
      const bool failed = pv.verdict == SearchVerdict::kNotSerializable;
      result.per_process.push_back(std::move(pv));
      if (failed) break;
    }
  } else {
    // Per application process: serialization of H_{i+w}.
    for (std::size_t p = 0; p < h.process_count(); ++p) {
      auto subset = h.projection_i_plus_w(static_cast<ProcessId>(p));
      auto sr =
          find_serialization(h, subset, relation, read_from, options.search);
      ProcessVerdict pv;
      pv.proc = static_cast<ProcessId>(p);
      pv.verdict = sr.verdict;
      pv.witness = std::move(sr.order);
      const bool failed = pv.verdict == SearchVerdict::kNotSerializable;
      result.per_process.push_back(std::move(pv));
      // One refuted projection settles the verdict; stop early to bound cost.
      if (failed) break;
    }
  }

  result.consistent = true;
  for (const auto& pv : result.per_process) {
    if (pv.verdict == SearchVerdict::kUnknown) result.definitive = false;
    if (pv.verdict != SearchVerdict::kSerializable) result.consistent = false;
  }
  return result;
}

Classification classify(const History& h, const CheckOptions& options) {
  Classification out;
  for (Criterion c : all_criteria()) {
    out.admitted.emplace_back(c, check_history(h, c, options).consistent);
  }
  return out;
}

std::string Classification::to_string() const {
  std::ostringstream os;
  for (const auto& [c, ok] : admitted) {
    os << pardsm::hist::to_string(c) << '=' << (ok ? "yes" : "no") << ' ';
  }
  return os.str();
}

}  // namespace pardsm::hist
