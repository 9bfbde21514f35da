// Per-run fixed cost of mcs::run on small checked runs, and the shared
// Theorem-1 memo behind it.
//
// A checked-faults-shaped run (8 processes, 3 ops each, loss + partition +
// crash) simulates little, so what it costs is mostly setup, collection
// and teardown.  The gate below pins the heap allocations of one such run
// per protocol; the memo tests pin that taking R(x) from the process-wide
// memo changes no analysis and is safe under concurrent runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "mcs/causal_partial_adhoc.h"
#include "mcs/engine.h"
#include "sharegraph/topologies.h"

// Global allocation counter: counts every operator new while armed.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

namespace {
void* counted_malloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}
}  // namespace

// new is malloc-backed so the matching delete frees with std::free; GCC
// cannot see the pairing across the replaced global operators and warns.
// The nothrow form is replaced too: std::stable_sort's temporary buffer
// takes it and frees through the plain delete, which a sanitizer's own
// nothrow new would report as a mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace pardsm {
namespace {

/// The checked-faults fault timeline: 5% loss throughout, the halves
/// split from 5 to 20 ms, process 3 down from 8 to 25 ms.
Scenario checked_faults() {
  Scenario s("checked-faults");
  s.set_loss(0.05);
  s.partition({{0, 1, 2, 3}, {4, 5, 6, 7}}, after(millis(5)),
              after(millis(20)));
  s.crash(3, after(millis(8)), after(millis(25)));
  return s;
}

/// 3 ops per process arriving open-loop at 200/s, recorded.
workload::Spec checked_spec(std::uint64_t seed) {
  workload::Spec spec;
  spec.ops_per_process = 3;
  spec.read_fraction = 0.5;
  spec.keys = workload::KeyDist::kUniform;
  spec.seed = seed;
  spec.arrival_rate = 200.0;
  return spec;
}

mcs::ScenarioRunResult checked_run(mcs::ProtocolKind kind,
                                   const graph::Distribution& dist,
                                   const Scenario& faults,
                                   const workload::Spec& spec) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &dist;
  config.workload = &spec;
  config.scenario = &faults;
  config.sim_seed = spec.seed;
  return mcs::run(std::move(config));
}

/// Heap allocations made by one checked run (teardown included).
std::uint64_t counted_run(mcs::ProtocolKind kind,
                          const graph::Distribution& dist,
                          const Scenario& faults,
                          const workload::Spec& spec) {
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  { const auto r = checked_run(kind, dist, faults, spec); }
  g_count_allocs.store(false);
  return g_alloc_count.load();
}

// The gate: a checked-faults-shaped run per protocol, after one warm run
// of the same configuration (interned kinds, the relevance memo), result
// teardown included.  The run costs pram 377, adhoc 906, cache 450 and
// atomic 444 allocations with one latency histogram per run, the flat
// ARQ window and the shared C(x)/R(x) tables; the bounds leave ~10%.
// Per-client histograms, per-frame std::map nodes and per-run analysis
// cost 475, 1466, 567 and 584.
TEST(RunCost, CheckedFaultsRunAllocationsStayBounded) {
  const auto dist = graph::topo::random_replication(8, 16, 3, 7);
  const Scenario faults = checked_faults();
  const workload::Spec spec = checked_spec(1000);
  const struct {
    mcs::ProtocolKind kind;
    std::uint64_t bound;
  } gates[] = {
      {mcs::ProtocolKind::kPramPartial, 415},
      {mcs::ProtocolKind::kCausalPartialAdHoc, 1000},
      {mcs::ProtocolKind::kCachePartial, 495},
      {mcs::ProtocolKind::kAtomicHome, 490},
  };
  for (const auto& gate : gates) {
    SCOPED_TRACE(mcs::to_string(gate.kind));
    (void)checked_run(gate.kind, dist, faults, spec);  // warm
    const std::uint64_t allocs = counted_run(gate.kind, dist, faults, spec);
    EXPECT_LE(allocs, gate.bound)
        << mcs::to_string(gate.kind) << ": " << allocs
        << " heap allocations for one checked-faults run";
  }
}

// The memo's saving, measured: on a distribution nothing else in this
// binary runs, the first ad-hoc run analyzes it and the second does not.
TEST(RunCost, SecondAdHocRunSkipsTheAnalysis) {
  const auto dist = graph::topo::random_replication(8, 16, 3, 4242);
  const Scenario faults = checked_faults();
  const workload::Spec spec = checked_spec(77);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  { const auto direct = mcs::StaticRelevance::analyze(dist); }
  g_count_allocs.store(false);
  const std::uint64_t analyze_allocs = g_alloc_count.load();
  EXPECT_GE(analyze_allocs, 300u);

  const auto kind = mcs::ProtocolKind::kCausalPartialAdHoc;
  const std::uint64_t first = counted_run(kind, dist, faults, spec);
  const std::uint64_t second = counted_run(kind, dist, faults, spec);
  ASSERT_GT(first, second);
  EXPECT_GE(first - second, analyze_allocs)
      << "first run " << first << ", second " << second
      << ", analyze alone " << analyze_allocs;
}

void expect_same_analysis(const mcs::StaticRelevance& a,
                          const mcs::StaticRelevance& b) {
  EXPECT_EQ(a.relevant, b.relevant);
  EXPECT_EQ(a.tracks, b.tracks);
  EXPECT_EQ(a.tracks_mask, b.tracks_mask);
}

// The memo key is the distribution's contents, not its shape or name: a
// relabelled copy (same n, m and per-process sizes) gets its own entry,
// and each entry equals a direct analysis.
TEST(RelevanceMemo, EqualShapeDifferentContentsMatchDirectAnalysis) {
  // A chain has no hoops, so R(x) = C(x) differs from variable to
  // variable and the relabelling shows in the analysis.
  const auto a = graph::topo::open_chain(9);
  const auto m = static_cast<VarId>(a.var_count);
  graph::Distribution b = a;
  for (auto& held : b.per_process) {
    for (VarId& x : held) x = (x + 3) % m;
    std::sort(held.begin(), held.end());
  }
  ASSERT_NE(a.per_process, b.per_process);

  const auto memo_a = mcs::shared_relevance(a);
  const auto memo_b = mcs::shared_relevance(b);
  expect_same_analysis(*memo_a, *mcs::StaticRelevance::analyze(a));
  expect_same_analysis(*memo_b, *mcs::StaticRelevance::analyze(b));
  EXPECT_NE(memo_a->relevant, memo_b->relevant);
  EXPECT_NE(memo_a.get(), memo_b.get());

  // Equal contents under another name hit the same entry.
  graph::Distribution renamed = a;
  renamed.name = "renamed";
  EXPECT_EQ(mcs::shared_relevance(renamed).get(), memo_a.get());
}

/// Every observable of a run that must not depend on who else runs.
void expect_same_run(const mcs::ScenarioRunResult& a,
                     const mcs::ScenarioRunResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto op = static_cast<hist::OpIndex>(i);
    EXPECT_EQ(a.history.op(op), b.history.op(op));
  }
  EXPECT_EQ(a.observed_relevant, b.observed_relevant);
  EXPECT_EQ(a.final_replicas, b.final_replicas);
  EXPECT_EQ(a.total_traffic.msgs_sent, b.total_traffic.msgs_sent);
  EXPECT_EQ(a.total_traffic.control_bytes_sent,
            b.total_traffic.control_bytes_sent);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.op_latency, b.op_latency);
}

// Four threads run the same ad-hoc configuration at once on a distribution
// the memo has not seen, so they race on its miss; each must match the
// sequential run.  Also run under ThreadSanitizer (PARDSM_SANITIZE=tsan).
TEST(RelevanceMemo, ConcurrentRunsMatchSequential) {
  const auto dist = graph::topo::random_replication(8, 16, 3, 9191);
  const Scenario faults = checked_faults();
  const workload::Spec spec = checked_spec(5);
  const auto kind = mcs::ProtocolKind::kCausalPartialAdHoc;

  constexpr int kThreads = 4;
  std::vector<mcs::ScenarioRunResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          checked_run(kind, dist, faults, spec);
    });
  }
  for (auto& t : threads) t.join();

  const auto sequential = checked_run(kind, dist, faults, spec);
  for (const auto& r : results) expect_same_run(sequential, r);
}

}  // namespace
}  // namespace pardsm
