#include "mcs/factory.h"

#include <algorithm>
#include <mutex>

#include "mcs/atomic_home.h"
#include "mcs/cache_partial.h"
#include "mcs/causal_full.h"
#include "mcs/causal_partial_adhoc.h"
#include "mcs/causal_partial_naive.h"
#include "mcs/pram_partial.h"
#include "mcs/processor_partial.h"
#include "mcs/sequencer_sc.h"
#include "mcs/slow_partial.h"

namespace pardsm::mcs {

namespace {

/// What every run of one distribution can share: the C(x) table (all
/// protocols) and the Theorem-1 analysis (ad-hoc only, filled on first
/// use).
struct SharedTables {
  std::shared_ptr<const CliqueTable> cliques;
  std::shared_ptr<const StaticRelevance> relevance;
};

struct MemoEntry {
  std::size_t var_count = 0;
  std::vector<std::vector<VarId>> per_process;
  SharedTables tables;

  [[nodiscard]] bool matches(const graph::Distribution& dist) const {
    return var_count == dist.var_count && per_process == dist.per_process;
  }
};

/// Bounded most-recently-used list: a sweep over many distributions
/// evicts the oldest entry instead of growing without bound.
constexpr std::size_t kMemoEntries = 4;

std::mutex g_memo_mu;
std::vector<MemoEntry> g_memo;  // guarded by g_memo_mu; newest last

/// Look `dist` up (under g_memo_mu) and move a hit to the newest slot.
MemoEntry* find_locked(const graph::Distribution& dist) {
  const auto it =
      std::find_if(g_memo.begin(), g_memo.end(),
                   [&](const MemoEntry& e) { return e.matches(dist); });
  if (it == g_memo.end()) return nullptr;
  std::rotate(it, it + 1, g_memo.end());
  return &g_memo.back();
}

/// The shared tables of `dist`, with the relevance filled when
/// `relevance` is set.  Misses build outside the lock, so a slow analysis
/// of one distribution never stalls runs of another; when two threads
/// race on the same miss the first to publish wins (both built equal
/// tables).
SharedTables shared_tables(const graph::Distribution& dist, bool relevance) {
  SharedTables built;
  {
    const std::lock_guard lock(g_memo_mu);
    if (const MemoEntry* e = find_locked(dist)) {
      if (!relevance || e->tables.relevance) return e->tables;
      built.cliques = e->tables.cliques;
    }
  }
  if (!built.cliques) built.cliques = std::make_shared<const CliqueTable>(dist);
  if (relevance) built.relevance = StaticRelevance::analyze(dist);

  const std::lock_guard lock(g_memo_mu);
  MemoEntry* e = find_locked(dist);
  if (e == nullptr) {
    if (g_memo.size() == kMemoEntries) g_memo.erase(g_memo.begin());
    e = &g_memo.emplace_back(
        MemoEntry{dist.var_count, dist.per_process, built});
  }
  if (!e->tables.relevance) e->tables.relevance = built.relevance;
  return e->tables;
}

}  // namespace

std::shared_ptr<const StaticRelevance> shared_relevance(
    const graph::Distribution& dist) {
  return shared_tables(dist, true).relevance;
}

std::vector<std::unique_ptr<McsProcess>> make_processes(
    ProtocolKind kind, const graph::Distribution& dist,
    HistoryRecorder& recorder) {
  const std::size_t n = dist.process_count();
  std::vector<std::unique_ptr<McsProcess>> out;
  out.reserve(n);

  const SharedTables tables =
      shared_tables(dist, kind == ProtocolKind::kCausalPartialAdHoc);

  for (std::size_t p = 0; p < n; ++p) {
    const auto self = static_cast<ProcessId>(p);
    switch (kind) {
      case ProtocolKind::kAtomicHome:
        out.push_back(
            std::make_unique<AtomicHomeProcess>(self, dist, recorder));
        break;
      case ProtocolKind::kSequencerSC:
        out.push_back(
            std::make_unique<SequencerScProcess>(self, dist, recorder));
        break;
      case ProtocolKind::kCausalFull:
        out.push_back(
            std::make_unique<CausalFullProcess>(self, dist, recorder));
        break;
      case ProtocolKind::kCausalPartialNaive:
        out.push_back(std::make_unique<CausalPartialNaiveProcess>(self, dist,
                                                                  recorder));
        break;
      case ProtocolKind::kCausalPartialAdHoc:
        out.push_back(std::make_unique<CausalPartialAdHocProcess>(
            self, dist, recorder, tables.relevance));
        break;
      case ProtocolKind::kPramPartial:
        out.push_back(
            std::make_unique<PramPartialProcess>(self, dist, recorder));
        break;
      case ProtocolKind::kSlowPartial:
        out.push_back(
            std::make_unique<SlowPartialProcess>(self, dist, recorder));
        break;
      case ProtocolKind::kCachePartial:
        out.push_back(
            std::make_unique<CachePartialProcess>(self, dist, recorder));
        break;
      case ProtocolKind::kProcessorPartial:
        out.push_back(
            std::make_unique<ProcessorPartialProcess>(self, dist, recorder));
        break;
    }
  }
  for (auto& proc : out) proc->use_clique_table(tables.cliques);
  return out;
}

}  // namespace pardsm::mcs
