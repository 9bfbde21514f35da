// Workload drivers: the classic entry points over the unified engine.
//
// Script generation (make_random_scripts / make_single_writer_scripts)
// plus the historical run functions, all thin wrappers over mcs::run
// (engine.h) — they fill in an EngineConfig and forward, so every bench,
// test and example executes through the same code path.
// Benches that sweep transport parameters (batching windows, stacking
// order) build an EngineConfig themselves.
#pragma once

#include "mcs/engine.h"

namespace pardsm::mcs {

/// Workload generation parameters.
struct WorkloadSpec {
  std::size_t ops_per_process = 8;
  double read_fraction = 0.5;
  std::uint64_t seed = 1;
  Duration think_time{};  ///< fixed delay between a process's operations
};

/// Random scripts over the distribution: process i only touches X_i, and
/// every written value is globally unique (exact read-from resolution).
[[nodiscard]] std::vector<Script> make_random_scripts(
    const graph::Distribution& dist, const WorkloadSpec& spec);

/// Random scripts where each variable has exactly one writer: the
/// lowest-id member of C(x).  Every process still reads any of its
/// variables.  With no write-write races, the final replica contents of a
/// run are a pure function of the workload — what the differential
/// convergence test (P6) compares across fault scenarios.
[[nodiscard]] std::vector<Script> make_single_writer_scripts(
    const graph::Distribution& dist, const WorkloadSpec& spec);

/// Options for run_workload / run_scenario.
struct RunOptions {
  std::uint64_t sim_seed = 1;
  ChannelOptions channel;
  std::unique_ptr<LatencyModel> latency;  ///< null = constant 1ms
  /// ARQ configuration for scenario runs routed through ReliableTransport
  /// (ignored by run_workload; see kEngineReliableDefaults).
  ReliableOptions reliable = kEngineReliableDefaults;
};

/// Execute `scripts` against a fresh system of `kind` over `dist` on the
/// deterministic simulator; returns the recorded history and traffic.
/// Deliberately raw even when the caller's ChannelOptions drop or
/// duplicate: the fault-injection tests exercise protocol *safety* on an
/// unrepaired channel, where lost completions are expected behaviour.
[[nodiscard]] RunResult run_workload(ProtocolKind kind,
                                     const graph::Distribution& dist,
                                     const std::vector<Script>& scripts,
                                     RunOptions options = {});

/// Execute `scripts` under a scripted fault timeline.  Every protocol runs
/// every scenario unmodified: when any loss source exists — the timeline's
/// faults or lossy ChannelOptions — the system is routed through
/// ReliableTransport (ARQ restores the reliable FIFO channels the
/// protocols assume — its retransmissions and control bytes are charged to
/// the same NetworkStats ledger), crash events pause the victim's client
/// and drop its traffic, and recovery re-syncs the victim's replicas from
/// peers.  Deterministic per (scenario, seeds).
[[nodiscard]] ScenarioRunResult run_scenario(ProtocolKind kind,
                                             const graph::Distribution& dist,
                                             const std::vector<Script>& scripts,
                                             const Scenario& scenario,
                                             RunOptions options = {});

/// run_workload on the sharded parallel simulator: same raw-channel
/// semantics (ReliabilityMode::kNever), executed by `threads` worker
/// threads over share-graph-derived shards.  Deterministic per (config,
/// seed) and independent of the thread count itself; the differential
/// suite pins that.
[[nodiscard]] RunResult run_workload_parallel(
    ProtocolKind kind, const graph::Distribution& dist,
    const std::vector<Script>& scripts, unsigned threads,
    RunOptions options = {});

/// run_scenario on the sharded parallel simulator: fault timelines become
/// stop-the-world events between barrier windows, ARQ rides on top
/// unchanged.  Deterministic per (scenario, seeds) at any thread count.
[[nodiscard]] ScenarioRunResult run_scenario_parallel(
    ProtocolKind kind, const graph::Distribution& dist,
    const std::vector<Script>& scripts, const Scenario& scenario,
    unsigned threads, RunOptions options = {});

}  // namespace pardsm::mcs
