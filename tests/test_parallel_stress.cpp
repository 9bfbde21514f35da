// Stress points of the parallel engine where the barrier machinery is
// most likely to crack:
//
//   * Timers landing *exactly* on quantum boundaries — an event at
//     window_end belongs to the next window, never the current one; a
//     zero-delay timer armed inside a handler fires in the same window
//     after its parent.  Both orderings must be identical at every
//     thread count.
//   * Crash/recover scenario events hitting processes on *different
//     shards* — stop-the-world globals must pause and resume clients
//     with the PR 3 semantics (scripts keep their place, recovery
//     re-syncs replicas) regardless of which worker owns the victim.
//   * Coexistence with a sockets run and with other parallel runs in
//     flight — the engines share nothing but a thread_local shard-context
//     key, and a run's results must not change because another runtime
//     is executing concurrently in the same address space.

#include <gtest/gtest.h>

#include <thread>

#include "mcs/driver.h"
#include "sharegraph/sharding.h"
#include "sharegraph/topologies.h"
#include "simnet/parallel_sim.h"

namespace pardsm::mcs {
namespace {

// ---------------------------------------------------------------------------
// Quantum-boundary timers on a raw ParallelSimulator.

struct TimerFire {
  std::int64_t at_us = 0;
  TimerTag tag = 0;

  friend bool operator==(const TimerFire&, const TimerFire&) = default;
};

/// Chains a timer with delay == quantum (so every fire lands exactly on a
/// window boundary) and arms a zero-delay echo inside each handler (so
/// every window also contains a same-instant insertion).
class BoundaryChain final : public Endpoint {
 public:
  explicit BoundaryChain(ParallelSimulator& sim) : sim_(sim) {}

  void arm_first() { sim_.set_timer(id_, sim_.quantum(), kChain); }

  void on_message(const Message&) override {}
  void on_timer(TimerTag tag) override {
    trace_.push_back({sim_.now().us, tag});
    if (tag == kChain && ++fires_ < kChainLength) {
      sim_.set_timer(id_, sim_.quantum(), kChain);
    }
    if (tag == kChain) {
      sim_.set_timer(id_, Duration{}, kEcho);
    }
  }

  ProcessId id_ = kNoProcess;
  std::vector<TimerFire> trace_;

  static constexpr TimerTag kChain = 7;
  static constexpr TimerTag kEcho = 8;
  static constexpr int kChainLength = 5;

 private:
  ParallelSimulator& sim_;
  int fires_ = 0;
};

std::vector<std::vector<TimerFire>> run_boundary_chains(unsigned threads) {
  ParallelSimOptions options;
  options.seed = 3;
  options.num_threads = threads;  // default 1ms constant latency → Q = 1ms
  ParallelSimulator sim(std::move(options));

  constexpr int kProcs = 4;
  std::vector<std::unique_ptr<BoundaryChain>> chains;
  for (int p = 0; p < kProcs; ++p) {
    chains.push_back(std::make_unique<BoundaryChain>(sim));
    chains.back()->id_ = sim.add_endpoint(chains.back().get());
  }
  sim.freeze();
  EXPECT_EQ(sim.quantum(), millis(1));
  for (auto& c : chains) {
    sim.schedule_at(kTimeZero, c->id_, [&chain = *c] { chain.arm_first(); });
  }
  sim.run();

  std::vector<std::vector<TimerFire>> traces;
  for (auto& c : chains) traces.push_back(std::move(c->trace_));
  return traces;
}

TEST(QuantumBoundary, TimersFireExactlyOnWindowEdges) {
  const auto traces = run_boundary_chains(2);

  // Every process: chain fire at exactly k·Q for k = 1..5, each followed
  // by its same-instant echo — the canonical order (arm order within the
  // process) is the only admissible interleaving.
  std::vector<TimerFire> expected;
  for (int k = 1; k <= BoundaryChain::kChainLength; ++k) {
    expected.push_back({k * 1000, BoundaryChain::kChain});
    expected.push_back({k * 1000, BoundaryChain::kEcho});
  }
  for (const auto& trace : traces) {
    EXPECT_EQ(trace, expected);
  }
}

TEST(QuantumBoundary, TracesIdenticalAtEveryThreadCount) {
  const auto baseline = run_boundary_chains(1);
  for (unsigned threads : {2u, 3u, 4u}) {
    EXPECT_EQ(run_boundary_chains(threads), baseline)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Crash/recover on different shards.

TEST(CrossShardFaults, CrashAndRecoverOnDistinctShards) {
  const auto dist = graph::topo::clusters(2, 3, true);  // two 3-cells

  // The share-graph assignment must put the two victims on different
  // shards, or this test is not testing what its name says.
  const auto shard = graph::shard_assignment(dist, 2);
  ASSERT_NE(shard[1], shard[4]);

  WorkloadSpec spec;
  spec.ops_per_process = 5;
  spec.read_fraction = 0.4;
  spec.seed = 17;
  spec.think_time = millis(1);
  const auto scripts = make_single_writer_scripts(dist, spec);

  Scenario scenario("cross-shard-crashes");
  scenario.crash(1, after(millis(3)), after(millis(9)));
  scenario.crash(4, after(millis(4)), after(millis(10)));

  // Lossless sequential run = the P6 ground truth for final replicas.
  const RunResult truth = run({.protocol = ProtocolKind::kCausalPartialAdHoc,
                               .distribution = &dist,
                               .scripts = &scripts,
                               .sim_seed = 5});

  std::optional<std::string> first_history;
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    const RunResult r = run({.protocol = ProtocolKind::kCausalPartialAdHoc,
                             .distribution = &dist,
                             .scripts = &scripts,
                             .scenario = &scenario,
                             .runtime = EngineRuntime::kParallelSim,
                             .sim_seed = 5,
                             .parallel = {.num_threads = threads}});

    // PR 3 pause/resume semantics: both victims crashed, both recovered
    // and re-synced, every script ran to completion (the engine throws on
    // a stalled client), and the history still resolves every read.
    EXPECT_EQ(r.crashes, 2u);
    EXPECT_GT(r.resync_messages, 0u);
    EXPECT_TRUE(r.history.read_from_resolvable());
    EXPECT_EQ(r.final_replicas, truth.final_replicas)
        << "crash/recovery failed to converge back to the lossless state";

    if (!first_history) {
      first_history = r.history.to_string();
    } else {
      EXPECT_EQ(r.history.to_string(), *first_history);
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime coexistence.

RunResult stress_run(ProtocolKind kind, const graph::Distribution& dist,
                     const std::vector<Script>& scripts, unsigned threads) {
  return run({.protocol = kind,
              .distribution = &dist,
              .scripts = &scripts,
              .runtime = EngineRuntime::kParallelSim,
              .sim_seed = 23,
              .latency = std::make_unique<UniformLatency>(millis(1), millis(3)),
              .parallel = {.num_threads = threads}});
}

TEST(RuntimeCoexistence, ParallelRunUnchangedBesideSocketsRun) {
  const auto dist = graph::topo::clusters(2, 3, true);
  WorkloadSpec spec;
  spec.ops_per_process = 4;
  spec.seed = 31;
  spec.think_time = millis(1);
  const auto scripts = make_random_scripts(dist, spec);

  const RunResult solo =
      stress_run(ProtocolKind::kPramPartial, dist, scripts, 2);

  RunResult sockets;
  std::thread other([&] {
    sockets = run({.protocol = ProtocolKind::kPramPartial,
                   .distribution = &dist,
                   .scripts = &scripts,
                   .runtime = EngineRuntime::kSockets});
  });
  const RunResult beside =
      stress_run(ProtocolKind::kPramPartial, dist, scripts, 2);
  other.join();

  EXPECT_EQ(beside.history.to_string(), solo.history.to_string());
  EXPECT_EQ(beside.finished_at, solo.finished_at);
  EXPECT_EQ(beside.events, solo.events);
  EXPECT_TRUE(sockets.history.read_from_resolvable());
  EXPECT_EQ(sockets.unfinished_clients, 0u);
  EXPECT_EQ(sockets.history.size(), solo.history.size());
}

TEST(RuntimeCoexistence, TwoParallelRunsSideBySide) {
  const auto dist = graph::topo::sharded(3, 3, 6);
  WorkloadSpec spec;
  spec.ops_per_process = 4;
  spec.seed = 37;
  spec.think_time = millis(1);
  const auto scripts = make_random_scripts(dist, spec);

  const RunResult solo_a =
      stress_run(ProtocolKind::kAtomicHome, dist, scripts, 2);
  const RunResult solo_b =
      stress_run(ProtocolKind::kProcessorPartial, dist, scripts, 4);

  RunResult beside_b;
  std::thread other([&] {
    beside_b = stress_run(ProtocolKind::kProcessorPartial, dist, scripts, 4);
  });
  const RunResult beside_a =
      stress_run(ProtocolKind::kAtomicHome, dist, scripts, 2);
  other.join();

  // Two coordinator threads, six worker threads, one address space: each
  // run must still be a pure function of its own (config, seed).
  EXPECT_EQ(beside_a.history.to_string(), solo_a.history.to_string());
  EXPECT_EQ(beside_b.history.to_string(), solo_b.history.to_string());
  EXPECT_EQ(beside_a.finished_at, solo_a.finished_at);
  EXPECT_EQ(beside_b.finished_at, solo_b.finished_at);
}

}  // namespace
}  // namespace pardsm::mcs
