#include "history/orders.h"

namespace pardsm::hist {

Relation program_order(const History& h) {
  Relation r(h.size());
  for (std::size_t p = 0; p < h.process_count(); ++p) {
    const auto& seq = h.ops_of(static_cast<ProcessId>(p));
    for (std::size_t a = 0; a < seq.size(); ++a) {
      for (std::size_t b = a + 1; b < seq.size(); ++b) {
        r.add(static_cast<std::size_t>(seq[a]),
              static_cast<std::size_t>(seq[b]));
      }
    }
  }
  return r;
}

Relation read_from_order(const History& h) {
  return read_from_order(h, h.resolve_read_from());
}

Relation read_from_order(const History& h,
                         const std::vector<OpIndex>& read_from) {
  Relation r(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (read_from[i] != kNoOp) {
      r.add(static_cast<std::size_t>(read_from[i]), i);
    }
  }
  return r;
}

Relation causality_order(const History& h) {
  return causality_order(h, h.resolve_read_from());
}

Relation causality_order(const History& h,
                         const std::vector<OpIndex>& read_from) {
  Relation r = program_order(h);
  r.merge(read_from_order(h, read_from));
  r.close();
  return r;
}

namespace {

/// Base (non-closed) lazy program order edges per Definition 5.
Relation lazy_program_base(const History& h, LazyMode mode) {
  Relation r(h.size());
  for (std::size_t p = 0; p < h.process_count(); ++p) {
    const auto& seq = h.ops_of(static_cast<ProcessId>(p));
    for (std::size_t a = 0; a < seq.size(); ++a) {
      const Operation& o1 = h.op(seq[a]);
      for (std::size_t b = a + 1; b < seq.size(); ++b) {
        const Operation& o2 = h.op(seq[b]);
        bool ordered = false;
        if (o1.is_read()) {
          // read ->li read on the same variable; read ->li any write.
          ordered = (o2.is_read() && o1.var == o2.var) || o2.is_write();
        } else {
          // write ->li any operation on the same variable.
          ordered = (o1.var == o2.var);
          // Paper-consistent reading: a write also precedes later writes on
          // any variable (used by the paper's Figure 4/6 analyses).
          if (mode == LazyMode::kPaperConsistent && o2.is_write()) {
            ordered = true;
          }
        }
        if (ordered) {
          r.add(static_cast<std::size_t>(seq[a]),
                static_cast<std::size_t>(seq[b]));
        }
      }
    }
  }
  return r;
}

}  // namespace

Relation lazy_program_order(const History& h, LazyMode mode) {
  Relation r = lazy_program_base(h, mode);
  r.close();
  return r;
}

Relation lazy_causality_order(const History& h, LazyMode mode) {
  return lazy_causality_order(h, mode, h.resolve_read_from());
}

Relation lazy_causality_order(const History& h, LazyMode mode,
                              const std::vector<OpIndex>& read_from) {
  Relation r = lazy_program_base(h, mode);
  r.merge(read_from_order(h, read_from));
  r.close();
  return r;
}

Relation lazy_writes_before(const History& h, LazyMode mode) {
  return lazy_writes_before(h, mode, h.resolve_read_from());
}

Relation lazy_writes_before(const History& h, LazyMode mode,
                            const std::vector<OpIndex>& read_from) {
  Relation li = lazy_program_order(h, mode);

  Relation r(h.size());
  // For each read o2 = r_j(y)u with source o' = w_i(y)u, every write o1 by
  // the same process i with o1 ->li o' is lazy-writes-before o2.
  for (std::size_t o2 = 0; o2 < h.size(); ++o2) {
    if (!h.op(static_cast<OpIndex>(o2)).is_read()) continue;
    const OpIndex src = read_from[o2];
    if (src == kNoOp) continue;
    const Operation& sw = h.op(src);
    for (OpIndex o1 : h.ops_of(sw.proc)) {
      const Operation& cand = h.op(o1);
      if (!cand.is_write()) continue;
      if (li.has(static_cast<std::size_t>(o1),
                 static_cast<std::size_t>(src))) {
        r.add(static_cast<std::size_t>(o1), o2);
      }
    }
  }
  return r;
}

Relation lazy_semi_causal_order(const History& h, LazyMode mode) {
  return lazy_semi_causal_order(h, mode, h.resolve_read_from());
}

Relation lazy_semi_causal_order(const History& h, LazyMode mode,
                                const std::vector<OpIndex>& read_from) {
  Relation r = lazy_program_base(h, mode);
  r.merge(lazy_writes_before(h, mode, read_from));
  r.close();
  return r;
}

Relation pram_relation(const History& h) {
  return pram_relation(h, h.resolve_read_from());
}

Relation pram_relation(const History& h,
                       const std::vector<OpIndex>& read_from) {
  Relation r = program_order(h);
  r.merge(read_from_order(h, read_from));
  return r;  // intentionally not closed (Definition 11 lacks transitivity)
}

Relation slow_relation(const History& h) {
  return slow_relation(h, h.resolve_read_from());
}

Relation slow_relation(const History& h,
                       const std::vector<OpIndex>& read_from) {
  Relation r(h.size());
  for (std::size_t p = 0; p < h.process_count(); ++p) {
    const auto& seq = h.ops_of(static_cast<ProcessId>(p));
    for (std::size_t a = 0; a < seq.size(); ++a) {
      for (std::size_t b = a + 1; b < seq.size(); ++b) {
        if (h.op(seq[a]).var == h.op(seq[b]).var) {
          r.add(static_cast<std::size_t>(seq[a]),
                static_cast<std::size_t>(seq[b]));
        }
      }
    }
  }
  r.merge(read_from_order(h, read_from));
  return r;
}

bool concurrent(const Relation& r, OpIndex a, OpIndex b) {
  return !r.has(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) &&
         !r.has(static_cast<std::size_t>(b), static_cast<std::size_t>(a));
}

}  // namespace pardsm::hist
