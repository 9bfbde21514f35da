#include "sharegraph/hoops.h"

#include <algorithm>

#include "simnet/check.h"

namespace pardsm::graph {

namespace {

/// True iff the edge carries a label other than x (hoop steps must share
/// a variable different from x) — O(1) off the per-edge summary.
bool edge_usable(const ShareGraph::EdgeSummary& s, VarId x) {
  return s.shared_count >= 2 || (s.shared_count == 1 && s.only_shared != x);
}

void dfs_hoops(const ShareGraph& sg, VarId x,
               const std::vector<bool>& in_clique, std::vector<ProcessId>& path,
               std::vector<bool>& visited, HoopEnumeration& out,
               std::size_t limit) {
  if (out.hoops.size() >= limit) {
    out.truncated = true;
    return;
  }
  ++out.dfs_steps;
  const ProcessId v = path.back();
  const auto& nbrs = sg.neighbours(v);
  const auto& summaries = sg.edge_summaries(v);
  for (std::size_t wi = 0; wi < nbrs.size(); ++wi) {
    const ProcessId w = nbrs[wi];
    if (out.hoops.size() >= limit) {
      out.truncated = true;
      return;
    }
    if (!edge_usable(summaries[wi], x)) continue;
    if (in_clique[static_cast<std::size_t>(w)]) {
      // Complete a hoop if w is a clique member distinct from the start and
      // the path has at least one intermediate.
      if (w != path.front() && path.size() >= 2) {
        Hoop hoop = path;
        hoop.push_back(w);
        if (hoop.front() <= hoop.back()) {  // canonical direction only
          out.hoops.push_back(std::move(hoop));
        }
      }
      continue;
    }
    if (visited[static_cast<std::size_t>(w)]) continue;
    visited[static_cast<std::size_t>(w)] = true;
    path.push_back(w);
    dfs_hoops(sg, x, in_clique, path, visited, out, limit);
    path.pop_back();
    visited[static_cast<std::size_t>(w)] = false;
  }
}

}  // namespace

HoopEnumeration enumerate_hoops(const ShareGraph& sg, VarId x,
                                std::size_t limit) {
  HoopEnumeration out;
  const std::size_t n = sg.process_count();
  std::vector<bool> in_clique(n, false);
  for (ProcessId p : sg.clique(x)) {
    in_clique[static_cast<std::size_t>(p)] = true;
  }
  for (ProcessId a : sg.clique(x)) {
    std::vector<bool> visited(n, false);
    visited[static_cast<std::size_t>(a)] = true;
    std::vector<ProcessId> path{a};
    dfs_hoops(sg, x, in_clique, path, visited, out, limit);
    if (out.truncated) break;
  }
  // Deterministic order.
  std::sort(out.hoops.begin(), out.hoops.end());
  out.hoops.erase(std::unique(out.hoops.begin(), out.hoops.end()),
                  out.hoops.end());
  return out;
}

namespace {

/// The block pass of hoops.h, with its scratch space reused across
/// variables.  H_x's vertices are the processes plus the virtual terminal
/// t = n; the DFS starts at t, so the blocks containing t are exactly the
/// ones closed at the root.
class BlockPass {
 public:
  explicit BlockPass(const ShareGraph& sg)
      : sg_(sg),
        t_(sg.process_count()),
        in_clique_(t_, 0),
        disc_(t_ + 1, 0),
        low_(t_ + 1, 0) {}

  /// Processes outside C(x) on some x-hoop, ascending.
  const std::vector<ProcessId>& members(VarId x) {
    const auto& clique = sg_.clique(x);
    for (ProcessId p : clique) in_clique_[static_cast<std::size_t>(p)] = 1;
    members_.clear();
    // Timestamps grow across calls, so "visited in this pass" is
    // disc > base and nothing needs clearing.
    const std::uint64_t base = time_;
    disc_[t_] = low_[t_] = ++time_;
    frames_.push_back({t_, 0});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const std::size_t v = f.v;
      const std::size_t w = next_neighbour(f, x, clique);
      if (w != kNone) {
        if (disc_[w] > base) {
          // The tree edge back to v's parent lands here too; it only
          // lowers low[v] to disc[parent], which leaves the block test
          // below unchanged.
          low_[v] = std::min(low_[v], disc_[w]);
        } else {
          disc_[w] = low_[w] = ++time_;
          stack_.push_back(w);
          frames_.push_back({w, 0});
        }
        continue;
      }
      frames_.pop_back();
      if (frames_.empty()) break;
      const std::size_t u = frames_.back().v;
      low_[u] = std::min(low_[u], low_[v]);
      if (low_[v] < disc_[u]) continue;
      // u separates v's subtree: pop the block {u} ∪ (stack down to v).
      std::size_t popped;
      do {
        popped = stack_.back();
        stack_.pop_back();
        if (u == t_ && in_clique_[popped] == 0) {
          members_.push_back(static_cast<ProcessId>(popped));
        }
      } while (popped != v);
    }
    for (ProcessId p : clique) in_clique_[static_cast<std::size_t>(p)] = 0;
    std::sort(members_.begin(), members_.end());
    return members_;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct Frame {
    std::size_t v;
    std::size_t next;  ///< cursor into v's neighbour list (t's: C(x))
  };

  /// Advance f's cursor to v's next H_x neighbour; kNone when exhausted.
  /// A clique member's list is its usable edges to non-members, then t.
  std::size_t next_neighbour(Frame& f, VarId x,
                             const std::vector<ProcessId>& clique) const {
    if (f.v == t_) {
      return f.next < clique.size()
                 ? static_cast<std::size_t>(clique[f.next++])
                 : kNone;
    }
    const auto pv = static_cast<ProcessId>(f.v);
    const auto& nbrs = sg_.neighbours(pv);
    const auto& summaries = sg_.edge_summaries(pv);
    const bool v_in = in_clique_[f.v] != 0;
    while (f.next < nbrs.size()) {
      const std::size_t i = f.next++;
      const auto w = static_cast<std::size_t>(nbrs[i]);
      if (edge_usable(summaries[i], x) && !(v_in && in_clique_[w] != 0)) {
        return w;
      }
    }
    if (v_in && f.next++ == nbrs.size()) return t_;
    return kNone;
  }

  const ShareGraph& sg_;
  std::size_t t_;
  std::vector<std::uint8_t> in_clique_;
  std::vector<std::uint64_t> disc_;
  std::vector<std::uint64_t> low_;
  std::uint64_t time_ = 0;
  std::vector<Frame> frames_;        ///< the DFS path from t
  std::vector<std::size_t> stack_;   ///< visited, not yet assigned a block
  std::vector<ProcessId> members_;
};

std::set<ProcessId> relevant_set(BlockPass& pass, const ShareGraph& sg,
                                 VarId x) {
  const auto& members = pass.members(x);
  std::set<ProcessId> out(members.begin(), members.end());
  const auto& clique = sg.clique(x);
  out.insert(clique.begin(), clique.end());
  return out;
}

}  // namespace

bool hoop_exists(const ShareGraph& sg, VarId x) {
  return !BlockPass(sg).members(x).empty();
}

std::set<ProcessId> hoop_members(const ShareGraph& sg, VarId x) {
  BlockPass pass(sg);
  const auto& members = pass.members(x);
  return {members.begin(), members.end()};
}

std::set<ProcessId> x_relevant(const ShareGraph& sg, VarId x) {
  BlockPass pass(sg);
  return relevant_set(pass, sg, x);
}

std::vector<std::set<ProcessId>> all_relevant_sets(const ShareGraph& sg) {
  BlockPass pass(sg);
  std::vector<std::set<ProcessId>> out;
  out.reserve(sg.var_count());
  for (std::size_t x = 0; x < sg.var_count(); ++x) {
    out.push_back(relevant_set(pass, sg, static_cast<VarId>(x)));
  }
  return out;
}

RelevanceSummary summarize_relevance(const ShareGraph& sg) {
  RelevanceSummary s;
  const auto all = all_relevant_sets(sg);
  for (std::size_t x = 0; x < sg.var_count(); ++x) {
    const auto& relevant = all[x];
    const auto& clique = sg.clique(static_cast<VarId>(x));
    s.total_relevant += relevant.size();
    s.total_replicas += clique.size();
    if (relevant.size() > clique.size()) ++s.vars_with_hoops;
  }
  return s;
}

}  // namespace pardsm::graph
