#include "history/relation.h"

namespace pardsm::hist {

Relation::Relation(std::size_t n) : n_(n), bits_(n * ((n + 63) / 64), 0) {}

void Relation::merge(const Relation& other) {
  PARDSM_CHECK(other.n_ == n_, "Relation::merge size mismatch");
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
}

void Relation::close() {
  // Bit-parallel Floyd–Warshall: for each pivot k, every row that reaches k
  // absorbs row k.  O(n^2 * n/64).
  const std::size_t w = words_per_row();
  for (std::size_t k = 0; k < n_; ++k) {
    const std::uint64_t* row_k = &bits_[k * w];
    for (std::size_t i = 0; i < n_; ++i) {
      if (!has(i, k)) continue;
      std::uint64_t* row_i = &bits_[i * w];
      for (std::size_t j = 0; j < w; ++j) row_i[j] |= row_k[j];
    }
  }
}

Relation Relation::closure() const {
  Relation copy = *this;
  copy.close();
  return copy;
}

bool Relation::is_acyclic() const {
  // Any cycle, a reflexive pair included, closes into a self-loop.
  const Relation closed = closure();
  for (std::size_t a = 0; a < n_; ++a) {
    if (closed.has(a, a)) return false;
  }
  return true;
}

std::size_t Relation::edge_count() const {
  std::size_t count = 0;
  for (std::uint64_t word : bits_) count += static_cast<std::size_t>(__builtin_popcountll(word));
  return count;
}

std::vector<std::pair<std::size_t, std::size_t>> Relation::edges() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = 0; b < n_; ++b) {
      if (has(a, b)) out.emplace_back(a, b);
    }
  }
  return out;
}

Relation Relation::restrict_to(const std::vector<std::int32_t>& subset) const {
  Relation out(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t j = 0; j < subset.size(); ++j) {
      const auto a = static_cast<std::size_t>(subset[i]);
      const auto b = static_cast<std::size_t>(subset[j]);
      if (has(a, b)) out.add(i, j);
    }
  }
  return out;
}

std::vector<std::size_t> Relation::topological_order() const {
  std::vector<std::size_t> indegree(n_, 0);
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = 0; b < n_; ++b) {
      if (has(a, b)) ++indegree[b];
    }
  }
  std::vector<std::size_t> ready, order;
  for (std::size_t v = 0; v < n_; ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    // Take the smallest index for determinism.
    std::size_t best_pos = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (ready[i] < ready[best_pos]) best_pos = i;
    }
    const std::size_t v = ready[best_pos];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_pos));
    order.push_back(v);
    for (std::size_t b = 0; b < n_; ++b) {
      if (has(v, b) && --indegree[b] == 0) ready.push_back(b);
    }
  }
  PARDSM_CHECK(order.size() == n_,
               "topological_order called on cyclic relation");
  return order;
}

std::vector<std::size_t> Relation::successors(std::size_t a) const {
  std::vector<std::size_t> out;
  for (std::size_t b = 0; b < n_; ++b) {
    if (has(a, b)) out.push_back(b);
  }
  return out;
}

std::string Relation::to_string() const {
  // One reserved buffer, appended in place (edge lists can be O(n^2)).
  std::string out;
  out.reserve(edge_count() * 8);
  bool first = true;
  for (const auto& [a, b] : edges()) {
    if (!first) out += ' ';
    first = false;
    out += std::to_string(a);
    out += "->";
    out += std::to_string(b);
  }
  return out;
}

}  // namespace pardsm::hist
