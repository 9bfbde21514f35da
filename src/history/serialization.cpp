#include "history/serialization.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "simnet/check.h"

namespace pardsm::hist {

namespace {

using Word = std::uint64_t;

constexpr Word bit(std::size_t i) { return Word{1} << (i % 64); }

/// Bit rows of `stride` words each, flat: row a's bit b is the pair (a, b).
class BitRows {
 public:
  BitRows(std::size_t rows, std::size_t stride)
      : rows_(rows), stride_(stride), bits_(rows * stride, 0) {}

  [[nodiscard]] Word* row(std::size_t a) { return &bits_[a * stride_]; }
  [[nodiscard]] bool test(std::size_t a, std::size_t b) const {
    return (bits_[a * stride_ + b / 64] & bit(b)) != 0;
  }
  void set(std::size_t a, std::size_t b) {
    bits_[a * stride_ + b / 64] |= bit(b);
  }
  /// f(b) for every b in row a, ascending.
  template <typename F>
  void for_each(std::size_t a, F&& f) const {
    for (std::size_t w = 0; w < stride_; ++w) {
      for (Word m = bits_[a * stride_ + w]; m != 0; m &= m - 1) {
        f(64 * w + static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    }
  }

  /// Transitive closure, bit-parallel Floyd–Warshall: every row that
  /// reaches the pivot absorbs the pivot's row.
  void close() {
    for (std::size_t pivot = 0; pivot < rows_; ++pivot) {
      const Word* from = row(pivot);
      for (std::size_t i = 0; i < rows_; ++i) {
        if (!test(i, pivot)) continue;
        Word* to = row(i);
        for (std::size_t w = 0; w < stride_; ++w) to[w] |= from[w];
      }
    }
  }

 private:
  std::size_t rows_;
  std::size_t stride_;
  std::vector<Word> bits_;
};

std::uint64_t hash_words(const Word* key, std::size_t n) {
  std::uint64_t acc = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    acc = (acc ^ key[i]) * 0xBF58476D1CE4E5B9ULL;
    acc ^= acc >> 31;
  }
  return acc;
}

/// Membership-only set of fixed-stride keys.  Keys live back to back in
/// one arena; the open-addressing table holds entry number + 1 (0 = empty)
/// under linear probing.  Never iterated, so it cannot influence the
/// verdict or the (deterministic) witness.
class KeySet {
 public:
  explicit KeySet(std::size_t stride) : stride_(stride), slots_(64, 0) {}

  [[nodiscard]] bool contains(const Word* key, std::uint64_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask) {
      const Word* entry = &arena_[(slots_[i] - 1) * stride_];
      if (std::equal(key, key + stride_, entry)) return true;
    }
    return false;
  }

  /// Add a key known to be absent; doubles the table past half full.
  void insert(const Word* key, std::uint64_t hash) {
    arena_.insert(arena_.end(), key, key + stride_);
    const std::size_t count = arena_.size() / stride_;
    if (2 * count <= slots_.size()) return place(hash, count);
    slots_.assign(2 * slots_.size(), 0);
    for (std::size_t e = 0; e < count; ++e) {
      place(hash_words(&arena_[e * stride_], stride_), e + 1);
    }
  }

 private:
  void place(std::uint64_t hash, std::size_t entry) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(entry);
  }

  std::size_t stride_;
  std::vector<std::uint32_t> slots_;
  std::vector<Word> arena_;
};

/// Search context: everything indexed by *local* op index (position in the
/// subset).  Ops are named by local index + 1 wherever 0 means "none".
struct Search {
  std::size_t k;
  std::size_t words;                   // per bit row over the k ops
  std::vector<std::uint32_t> var;      // local -> compact var index
  std::vector<std::uint32_t> source;   // local read -> source + 1, 0 = ⊥
  std::vector<std::uint8_t> is_write;
  BitRows preds;                       // row v: ops that must precede v
  std::uint64_t max_states;
  std::uint64_t states = 0;

  std::vector<Word> placed;
  std::vector<std::uint32_t> last_write;  // compact var -> write + 1, 0 = ⊥
  std::vector<std::int32_t> placed_order; // local indices, search stack
  // Failed states, keyed by (placed set, last write per var): the placed
  // words, then the last_write entries two to a word.
  KeySet failed;
  std::vector<Word> key;

  Search(std::size_t k_, std::size_t nvars, std::uint64_t budget)
      : k(k_),
        words((k_ + 63) / 64),
        var(k_),
        source(k_, 0),
        is_write(k_, 0),
        preds(k_, words),
        max_states(budget),
        placed(words, 0),
        last_write(nvars, 0),
        failed(words + (nvars + 1) / 2),
        key(words + (nvars + 1) / 2, 0) {}

  void write_key() {
    std::copy(placed.begin(), placed.end(), key.begin());
    std::memcpy(&key[words], last_write.data(),
                last_write.size() * sizeof(std::uint32_t));
  }

  /// All predecessors placed, and (for a read) its source is the latest
  /// write of its variable.
  [[nodiscard]] bool ready(std::size_t v) {
    const Word* need = preds.row(v);
    for (std::size_t w = 0; w < words; ++w) {
      if ((need[w] & ~placed[w]) != 0) return false;
    }
    return is_write[v] != 0 || last_write[var[v]] == source[v];
  }

  bool dfs() {
    if (placed_order.size() == k) return true;
    if (++states > max_states) return false;  // caller inspects budget
    write_key();
    const std::uint64_t hash = hash_words(key.data(), key.size());
    if (failed.contains(key.data(), hash)) return false;

    for (std::size_t v = 0; v < k; ++v) {
      if ((placed[v / 64] & bit(v)) != 0 || !ready(v)) continue;

      // Place v.
      std::uint32_t& lw = last_write[var[v]];
      const std::uint32_t saved_lw = lw;
      if (is_write[v] != 0) lw = static_cast<std::uint32_t>(v + 1);
      placed[v / 64] |= bit(v);
      placed_order.push_back(static_cast<std::int32_t>(v));

      if (dfs()) return true;
      if (states > max_states) return false;

      // Undo.
      placed_order.pop_back();
      placed[v / 64] &= ~bit(v);
      lw = saved_lw;
    }

    write_key();  // the children overwrote the scratch key
    failed.insert(key.data(), hash);
    return false;
  }
};

SerializationResult refuted_by_propagation() {
  SerializationResult result;
  result.verdict = SearchVerdict::kNotSerializable;
  result.refuted_by_propagation = true;
  return result;
}

}  // namespace

SerializationResult find_serialization(const History& h,
                                       const std::vector<OpIndex>& subset,
                                       const Relation& constraint,
                                       const SearchOptions& options) {
  return find_serialization(h, subset, constraint, h.resolve_read_from(),
                            options);
}

SerializationResult find_serialization(const History& h,
                                       const std::vector<OpIndex>& subset,
                                       const Relation& constraint,
                                       const std::vector<OpIndex>& read_from,
                                       const SearchOptions& options) {
  PARDSM_CHECK(read_from.size() == h.size(),
               "find_serialization: read_from is not this history's");
  SerializationResult result;
  const std::size_t k = subset.size();
  if (k == 0) {
    result.verdict = SearchVerdict::kSerializable;
    return result;
  }

  // Flat global -> local + 1 and var -> compact var + 1 maps (0 = absent).
  std::vector<std::uint32_t> to_local(h.size(), 0);
  std::vector<std::uint32_t> compact(h.var_count(), 0);
  std::uint32_t nvars = 0;
  for (std::size_t i = 0; i < k; ++i) {
    to_local[static_cast<std::size_t>(subset[i])] =
        static_cast<std::uint32_t>(i + 1);
    auto& c = compact[static_cast<std::size_t>(h.op(subset[i]).var)];
    if (c == 0) c = ++nvars;
  }
  Search search(k, nvars, options.max_states);
  const std::size_t words = search.words;

  // Read sources (local).  A read whose source write is outside the subset
  // can never be legal (its value's writer is not in S).
  BitRows writes_of(nvars, words);  // compact var -> its writes
  for (std::size_t i = 0; i < k; ++i) {
    const Operation& op = h.op(subset[i]);
    search.var[i] = compact[static_cast<std::size_t>(op.var)] - 1;
    if (op.is_write()) {
      search.is_write[i] = 1;
      writes_of.set(search.var[i], i);
      continue;
    }
    const OpIndex src = read_from[static_cast<std::size_t>(subset[i])];
    if (src == kNoOp) continue;  // ⊥-read
    search.source[i] = to_local[static_cast<std::size_t>(src)];
    if (search.source[i] == 0) return refuted_by_propagation();
  }

  // Local constraint as successor rows, transitively closed.
  BitRows succ(k, words);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      if (constraint.has(static_cast<std::size_t>(subset[a]),
                         static_cast<std::size_t>(subset[b]))) {
        succ.set(a, b);
      }
    }
  }
  succ.close();

  // Forced-edge propagation to fixpoint.
  //   For read r from w on x, other write w' on x:
  //     w  -> w'  forces  r  -> w'   (w -> w only if cyclic: refuted anyway)
  //     w' -> r   forces  w' -> w
  //   For a ⊥-read r on x: every write w' on x is forced after r.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t r = 0; r < k; ++r) {
      if (search.is_write[r] != 0) continue;
      const std::size_t x = search.var[r];
      const Word* writes = writes_of.row(x);
      const bool bottom = search.source[r] == 0;
      const std::size_t w = bottom ? 0 : search.source[r] - 1;
      Word* row_r = succ.row(r);
      const Word* row_w = succ.row(w);
      for (std::size_t i = 0; i < words; ++i) {
        const Word add = writes[i] & (bottom ? ~Word{0} : row_w[i]) & ~row_r[i];
        row_r[i] |= add;
        changed |= add != 0;
      }
      if (bottom) continue;
      writes_of.for_each(x, [&](std::size_t w2) {
        if (w2 != w && succ.test(w2, r) && !succ.test(w2, w)) {
          succ.set(w2, w);
          changed = true;
        }
      });
    }
    if (changed) succ.close();
  }
  // Closed, so any cycle shows as a self-loop.
  for (std::size_t a = 0; a < k; ++a) {
    if (succ.test(a, a)) return refuted_by_propagation();
  }

  // Backtracking search over the transposed rows.
  for (std::size_t a = 0; a < k; ++a) {
    succ.for_each(a, [&](std::size_t b) { search.preds.set(b, a); });
  }
  const bool found = search.dfs();
  result.states_explored = search.states;
  if (found) {
    result.verdict = SearchVerdict::kSerializable;
    result.order.reserve(k);
    for (std::int32_t v : search.placed_order) {
      result.order.push_back(subset[static_cast<std::size_t>(v)]);
    }
  } else if (search.states > options.max_states) {
    result.verdict = SearchVerdict::kUnknown;
  } else {
    result.verdict = SearchVerdict::kNotSerializable;
  }
  return result;
}

bool is_legal_serialization(const History& h,
                            const std::vector<OpIndex>& subset,
                            const std::vector<OpIndex>& order,
                            const Relation& constraint) {
  if (order.size() != subset.size()) return false;
  {
    auto a = subset;
    auto b = order;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  // Precedence respected (constraint over global indices).
  std::map<OpIndex, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (OpIndex a : order) {
    for (OpIndex b : order) {
      if (a != b &&
          constraint.has(static_cast<std::size_t>(a),
                         static_cast<std::size_t>(b)) &&
          pos[a] >= pos[b]) {
        return false;
      }
    }
  }
  // Read legality.
  const auto src = h.resolve_read_from();
  std::map<VarId, OpIndex> last_write;
  for (OpIndex g : order) {
    const Operation& op = h.op(g);
    if (op.is_write()) {
      last_write[op.var] = g;
      continue;
    }
    const OpIndex expect = src[static_cast<std::size_t>(g)];
    auto it = last_write.find(op.var);
    const OpIndex got = (it == last_write.end()) ? kNoOp : it->second;
    if (got != expect) return false;
  }
  return true;
}

}  // namespace pardsm::hist
