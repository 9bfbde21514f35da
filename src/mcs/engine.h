// The one engine every system run goes through.
//
// An EngineConfig names a complete experiment — protocol, distribution,
// the load (per-process scripts, or a generated streaming workload), the
// transport stack (raw / ARQ / batching, in either stacking order), an
// optional fault timeline and the runtime to execute on — and run()
// executes it.  run_workload, run_scenario and their *_parallel twins
// (driver.h) are thin wrappers that fill in a config; benches and tests
// that sweep transport parameters use run() directly.
//
// run() has one body for every root: it assembles the transport stack,
// the recorder, the processes, one Client per process, the scenario hooks
// and the result ledger.  A root contributes only its construction, how a
// client's closure is scheduled for process p at time t, how it runs to
// quiescence and its own counters.
//
// Transport stack assembled by run(), bottom-up:
//
//   Simulator | ParallelSimulator |
//   SocketTransport                      (root HostTransport)
//     └─ BatchingTransport               (placement kBelowReliable)
//         └─ ReliableTransport           (when the run needs ARQ)
//             └─ BatchingTransport       (placement kAboveReliable, default)
//                 └─ McsProcess endpoints
//
// Layers are only constructed when configured: a lossless, unbatched run
// wires processes straight to the root runtime, exactly as before.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mcs/factory.h"
#include "simnet/batching.h"
#include "simnet/latency_histogram.h"
#include "simnet/reliable.h"
#include "simnet/scenario.h"
#include "simnet/simulator.h"
#include "simnet/socket_transport.h"
#include "workload/generator.h"

namespace pardsm::mcs {

/// One scripted operation.
struct ScriptOp {
  enum class Kind : std::uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  VarId var = kNoVar;
  Value value = kBottom;  ///< written value (writes only)
  /// Delay before issuing this operation (think time).
  Duration delay{};

  static ScriptOp read(VarId x, Duration delay = {}) {
    return {Kind::kRead, x, kBottom, delay};
  }
  static ScriptOp write(VarId x, Value v, Duration delay = {}) {
    return {Kind::kWrite, x, v, delay};
  }
};

/// A per-process operation script.
using Script = std::vector<ScriptOp>;

/// Drives one McsProcess through its load, on any root.  The load is a
/// stored Script (per-op think time, read results kept) or a
/// workload::Generator stream: op(p, k) is computed on demand, so a
/// million-op stream holds no per-op state — the client is a fixed-size
/// cursor (indices, a digest of read results) and records each op's
/// latency into a histogram it borrows (one per execution lane).
///
/// Closed loop (scripts, arrival_rate == 0): op k+1 is issued when op k
/// completes, after op k+1's think time; latency is measured from the
/// issue instant.  Open loop (positive rate): op k *arrives* at
/// start + k/rate on the simulated clock regardless of system progress; at
/// most one op is outstanding, the rest queue as a backlog counter, and
/// latency is measured from the scheduled arrival, so head-of-line
/// queueing behind a slow or crashed system is charged to the op rather
/// than omitted.
///
/// Crash-aware: the application is co-located with its MCS process, so
/// while the process is down the client neither issues operations (an
/// issue attempt stalls) nor loses its place.  The scenario driver calls
/// resume() from the recovery hook; an operation that was in flight at
/// crash time simply completes late — its response is retransmitted by
/// the ARQ layer — and the load continues from there.
class Client {
 public:
  /// How the client reaches the root it runs on: run `fn` as process p's
  /// task at time t.  Every issue goes through it, so the root's event
  /// loop stays in control (and a continuation runs after the messages
  /// the completed op just sent at t).  The sockets root posts `fn` to
  /// p's mailbox and ignores t: think time is a simulated-clock notion.
  using Schedule = std::function<void(ProcessId p, TimePoint t,
                                      std::function<void()> fn)>;

  Client(McsProcess& process, Schedule schedule, Script script);
  Client(McsProcess& process, Schedule schedule,
         const workload::Generator& gen, LatencyHistogram& latency);
  /// A scripted client on the sequential simulator (hand-wired rigs).
  Client(McsProcess& process, Simulator& sim, Script script);

  /// Schedule the first arrival (open loop) or first issue (closed loop).
  /// An empty script schedules nothing.
  void start(TimePoint start);

  /// Re-enter the issue loop after the process recovered (no-op if the
  /// client was not stalled).
  void resume(TimePoint at);

  /// Every op of the load completed.
  [[nodiscard]] bool done() const { return completed_ == total(); }
  /// Ops handed to the protocol / completed so far.  At quiescence
  /// issued - completed is 0 or, with a dead channel, the censored op.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Every read result, in issue order (scripts only).
  [[nodiscard]] const std::vector<Value>& read_results() const {
    return reads_;
  }
  /// Order-sensitive digest of every read result (streams only) — the
  /// O(1)-memory stand-in for read_results().
  [[nodiscard]] std::uint64_t reads_digest() const { return reads_digest_; }

 private:
  [[nodiscard]] std::uint64_t total() const {
    return gen_ != nullptr ? gen_->ops_per_process() : script_.size();
  }
  [[nodiscard]] Duration think_time(std::uint64_t k) const {
    return gen_ != nullptr ? Duration{} : script_[k].delay;
  }
  void arrive();
  void pump();
  void issue(bool is_read, VarId x, Value v, TimePoint t0);
  void complete(TimePoint t0);

  McsProcess& process_;
  Schedule schedule_;
  Script script_;
  const workload::Generator* gen_ = nullptr;
  LatencyHistogram* latency_ = nullptr;  ///< streams only
  TimePoint start_{};
  std::uint64_t arrivals_ = 0;  ///< ops arrived (== total in closed loop)
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t reads_digest_ = 0;
  std::vector<Value> reads_;
  bool outstanding_ = false;
  bool stalled_ = false;
};

/// Final (value, provenance) copy of one replicated variable.
struct ReplicaEntry {
  VarId x = kNoVar;
  Value value = kBottom;
  WriteId source{};

  friend bool operator==(const ReplicaEntry&, const ReplicaEntry&) = default;
};

/// Result of a full system run.
struct RunResult {
  hist::History history;
  ProcessTraffic total_traffic;
  std::vector<ProcessTraffic> per_process_traffic;
  /// observed_relevant[x] = processes that received metadata about x.
  std::vector<std::set<ProcessId>> observed_relevant;
  std::vector<ProtocolStats> protocol_stats;
  /// Per-process replica contents at quiescence (sorted by VarId).
  std::vector<std::vector<ReplicaEntry>> final_replicas;
  TimePoint finished_at{};
  std::uint64_t events = 0;
  /// Channel-state footprint at quiescence (simulator runs only): directed
  /// pairs that carried at least one surviving message, and the bytes the
  /// network's sparse per-pair tables hold — the observable form of the
  /// O(active pairs) memory model (docs/SCALING.md).
  std::size_t active_channel_pairs = 0;
  std::size_t channel_state_bytes = 0;
  /// Generated-workload runs only (EngineConfig::workload): the per-op
  /// latency ledger over every client — recorded in place on the
  /// sequential root, merged from one histogram per shard (parallel root)
  /// or per client (sockets root).  ops_censored = ops that arrived per
  /// the generator's schedule but never completed — dead channel or
  /// never-recovered crash; they sit in the histogram's censored mass,
  /// above every bucket, never as ~0 latencies (docs/WORKLOADS.md).
  LatencyHistogram op_latency;
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_censored = 0;
};

/// run() / run_scenario result: the ordinary run outcome plus the fault
/// and transport-stack ledgers.
struct ScenarioRunResult : RunResult {
  /// True when the run was routed through ReliableTransport (any faulty
  /// scenario); false for fault-free timelines on the raw simulator.
  bool used_reliable_transport = false;
  /// ARQ retransmissions across all senders.
  std::uint64_t retransmissions = 0;
  /// Channel drops by cause (loss, partition, downtime, in-flight).
  DropCounters drops;
  /// Crash/re-sync ledger summed over all processes.
  std::uint64_t crashes = 0;
  std::uint64_t resync_messages = 0;  ///< requests sent + responses served
  std::uint64_t resync_bytes = 0;
  std::uint64_t resync_values_applied = 0;
  /// Slowest recover()→re-sync-complete interval of the run.
  Duration max_recovery_latency{};
  /// Batching-layer ledger (all zero without a batching layer).
  BatchingStats batching;
  /// Directed pairs the ARQ layer declared dead after exhausting
  /// max_retransmits (OnExhausted::kDeadChannel).  Empty on every default
  /// configuration — the engine default effectively never gives up.
  std::vector<std::pair<ProcessId, ProcessId>> dead_channels;
  /// Clients that could not finish their script because a channel died.
  /// Non-zero only when dead_channels is non-empty; with live channels an
  /// unfinished client is still a hard error.
  std::size_t unfinished_clients = 0;
  /// Socket-layer wire ledger (all zero off the sockets runtime): frames
  /// and bytes actually written/read, heartbeats, dials, reconnects and
  /// chaos injections.
  SocketCounters socket_counters;
};

/// The engine's ARQ default: effectively never gives up — scenario
/// liveness comes from healing timelines, not retransmit caps.  Shared by
/// EngineConfig and driver.h's RunOptions so the wrappers and direct
/// engine runs cannot drift apart.
inline constexpr ReliableOptions kEngineReliableDefaults{millis(40),
                                                         1'000'000};

/// When the run must be routed through the ARQ layer.
enum class ReliabilityMode : std::uint8_t {
  /// ReliableTransport iff the scenario is faulty or the channel can drop
  /// or duplicate — what run_scenario always did.
  kAuto,
  /// Raw channel even when lossy (fault-injection tests exercise protocol
  /// *safety* on an unrepaired channel) — what run_workload always did.
  kNever,
  /// Always wrap, pricing ARQ framing into a lossless run.
  kAlways,
};

/// Where the batching layer sits relative to the ARQ layer (only relevant
/// when both are configured).
enum class BatchPlacement : std::uint8_t {
  /// app → batching → ARQ: whole frames are acknowledged/retransmitted as
  /// one DATA frame — fewer acks.  The default.
  kAboveReliable,
  /// app → ARQ → batching: DATA and ACK frames coalesce on the wire; keep
  /// window well below the retransmit timer.
  kBelowReliable,
};

/// Which runtime executes the run.
enum class EngineRuntime : std::uint8_t {
  kSimulator,    ///< deterministic discrete-event simulator
  kParallelSim,  ///< sharded deterministic simulator (worker threads)
  /// Real TCP sockets over loopback, all endpoints in this OS process,
  /// each on its own mailbox thread (SocketTransport root; pardsm_node
  /// drives the multi-process shape).  Fault timelines replay on the wall
  /// clock — 1 simulated µs = 1 µs — with loss/duplication windows mapped
  /// onto the socket layer's deterministic chaos streams.  Message
  /// *timing* is non-deterministic; fault draws are reproducible.
  kSockets,
};

/// Parallel-simulator knobs (EngineRuntime::kParallelSim).  The shard
/// assignment itself is derived from the share graph (cells of
/// near-disjoint topologies map onto their own shards; connected
/// topologies round-robin by process id) — see graph::shard_assignment.
struct ParallelOptions {
  /// Worker thread count == shard count.  Results are independent of this
  /// value: the canonical event order and counter-based RNG streams make
  /// a run a pure function of (config, seed), not of the thread count.
  unsigned num_threads = 4;
  /// Conservative barrier window; zero derives the largest safe value
  /// from the latency model's lower bound.
  Duration quantum{};
};

/// Everything one system run needs.  Pointer members are borrowed and
/// must outlive run().
struct EngineConfig {
  ProtocolKind protocol = ProtocolKind::kPramPartial;
  const graph::Distribution* distribution = nullptr;  ///< required
  /// The load: exactly one of `scripts` (replayed verbatim) or `workload`
  /// (streamed from a generator, never materialized) must be set.
  const std::vector<Script>* scripts = nullptr;
  const workload::Spec* workload = nullptr;
  /// Record every op into RunResult::history (the consistency checkers
  /// need it).  Turn off for million-op workload runs: the recorder then
  /// only counts, memory stays O(1) in the op count, and
  /// RunResult::history comes back empty.
  bool record_history = true;
  /// Optional fault timeline (null = lossless run, no scenario events).
  const Scenario* scenario = nullptr;
  EngineRuntime runtime = EngineRuntime::kSimulator;

  // -- simulator ------------------------------------------------------------
  std::uint64_t sim_seed = 1;
  ChannelOptions channel;
  std::unique_ptr<LatencyModel> latency;  ///< null = constant 1ms

  // -- parallel simulator ---------------------------------------------------
  ParallelOptions parallel;

  // -- transport stack ------------------------------------------------------
  ReliabilityMode reliability = ReliabilityMode::kAuto;
  /// ARQ configuration (see kEngineReliableDefaults).
  ReliableOptions reliable = kEngineReliableDefaults;
  /// Batching window 0 = no batching layer at all.
  BatchingOptions batching;
  BatchPlacement batch_placement = BatchPlacement::kAboveReliable;

  // -- sockets runtime ------------------------------------------------------
  /// Bound on the wait for quiescence.
  std::chrono::milliseconds quiesce_timeout{10000};
  /// Socket-root knobs (heartbeats, backoff, chaos injection).  The engine
  /// always runs the all-local loopback shape: total_processes and
  /// local_ids are derived from the distribution and must be left alone.
  SocketOptions sockets;
};

/// Execute the configured run.  Deterministic per config on the simulator
/// runtimes; timing is non-deterministic by design on kSockets (the
/// sockets root still replays fault timelines and runs the full transport
/// stack — chaos and backoff draws are seeded, only the wall-clock
/// interleaving varies; see docs/DEPLOYMENT.md).
[[nodiscard]] ScenarioRunResult run(EngineConfig config);

}  // namespace pardsm::mcs
