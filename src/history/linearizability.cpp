#include "history/linearizability.h"

namespace pardsm::hist {

LinearizabilityResult check_linearizable(const History& h,
                                         const SearchOptions& options) {
  LinearizabilityResult result;
  result.linearizable = true;
  result.witnesses.assign(h.var_count(), {});
  const std::vector<OpIndex> read_from = h.resolve_read_from();

  for (std::size_t xv = 0; xv < h.var_count(); ++xv) {
    const auto x = static_cast<VarId>(xv);
    std::vector<OpIndex> subset;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h.op(static_cast<OpIndex>(i)).var == x) {
        subset.push_back(static_cast<OpIndex>(i));
      }
    }
    if (subset.empty()) continue;

    // Real-time precedence: a before b iff a responded before b was
    // invoked.  Unset intervals (0,0) never strictly precede anything of
    // positive start time; two unset intervals are mutually concurrent.
    Relation rt(h.size());
    for (OpIndex a : subset) {
      const Operation& oa = h.op(a);
      const bool a_has_interval =
          oa.responded > oa.invoked || oa.invoked.us > 0;
      if (!a_has_interval) continue;
      for (OpIndex b : subset) {
        if (a == b) continue;
        const Operation& ob = h.op(b);
        const bool b_has_interval =
            ob.responded > ob.invoked || ob.invoked.us > 0;
        if (!b_has_interval) continue;
        if (oa.responded < ob.invoked) {
          rt.add(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
        }
      }
    }

    auto sr = find_serialization(h, subset, rt, read_from, options);
    if (sr.verdict == SearchVerdict::kUnknown) result.definitive = false;
    if (sr.verdict != SearchVerdict::kSerializable) {
      result.linearizable = false;
      return result;
    }
    result.witnesses[xv] = std::move(sr.order);
  }
  return result;
}

}  // namespace pardsm::hist
