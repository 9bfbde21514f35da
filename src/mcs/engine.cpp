#include "mcs/engine.h"

#include <algorithm>

#include "sharegraph/sharding.h"
#include "simnet/parallel_sim.h"
#include "simnet/rng.h"

namespace pardsm::mcs {

namespace {

Client::Schedule on_simulator(Simulator& sim) {
  return [&sim](ProcessId, TimePoint t, std::function<void()> fn) {
    sim.schedule_at(t, std::move(fn));
  };
}

}  // namespace

Client::Client(McsProcess& process, Schedule schedule, Script script)
    : process_(process),
      schedule_(std::move(schedule)),
      script_(std::move(script)) {}

Client::Client(McsProcess& process, Schedule schedule,
               const workload::Generator& gen, LatencyHistogram& latency)
    : process_(process),
      schedule_(std::move(schedule)),
      gen_(&gen),
      latency_(&latency) {}

Client::Client(McsProcess& process, Simulator& sim, Script script)
    : Client(process, on_simulator(sim), std::move(script)) {}

void Client::start(TimePoint start) {
  start_ = start;
  if (total() == 0) return;
  if (gen_ != nullptr && gen_->open_loop()) {
    schedule_(process_.id(), gen_->arrival(start_, 0), [this] { arrive(); });
  } else {
    arrivals_ = total();
    schedule_(process_.id(), start_ + think_time(0), [this] { pump(); });
  }
}

void Client::resume(TimePoint at) {
  if (!stalled_) return;
  PARDSM_CHECK(!process_.crashed(), "resume while the process is still down");
  stalled_ = false;
  schedule_(process_.id(), at, [this] { pump(); });
}

void Client::arrive() {
  ++arrivals_;
  if (arrivals_ < total()) {
    // Arrivals chain one event at a time, so the queue holds O(1) client
    // events no matter how many ops the stream has left.
    schedule_(process_.id(), gen_->arrival(start_, arrivals_),
              [this] { arrive(); });
  }
  pump();
}

void Client::pump() {
  if (outstanding_ || issued_ >= arrivals_) return;
  if (process_.crashed()) {
    // Hold this operation (and the client's place in the load) until the
    // recovery hook resumes us.  The open-loop world keeps arriving; the
    // queued ops' latencies keep their scheduled arrival clocks.
    stalled_ = true;
    return;
  }
  const std::uint64_t k = issued_++;
  outstanding_ = true;
  if (gen_ == nullptr) {
    const ScriptOp& op = script_[k];
    issue(op.kind == ScriptOp::Kind::kRead, op.var, op.value, TimePoint{});
    return;
  }
  // Latency clock: open loop from the scheduled arrival (queueing behind
  // a slow or down system is charged to the op — no coordinated
  // omission); closed loop from the issue instant.
  const TimePoint t0 =
      gen_->open_loop() ? gen_->arrival(start_, k) : process_.now();
  const workload::OpSpec op = gen_->op(process_.id(), k);
  issue(op.is_read, op.var, op.value, t0);
}

void Client::issue(bool is_read, VarId x, Value v, TimePoint t0) {
  if (!is_read) {
    process_.write(x, v, [this, t0] { complete(t0); });
    return;
  }
  process_.read(x, [this, t0](Value got) {
    if (gen_ != nullptr) {
      reads_digest_ = mix_word(reads_digest_, static_cast<std::uint64_t>(got));
    } else {
      reads_.push_back(got);
    }
    complete(t0);
  });
}

void Client::complete(TimePoint t0) {
  const TimePoint now = process_.now();
  if (latency_ != nullptr) {
    const Duration d = now - t0;
    latency_->record(d.us > 0 ? static_cast<std::uint64_t>(d.us) : 0);
  }
  ++completed_;
  outstanding_ = false;
  if (issued_ < arrivals_) {
    schedule_(process_.id(), now + think_time(issued_), [this] { pump(); });
  }
}

namespace {

/// What a root contributes to run(): its construction, how a client's
/// closure is scheduled for process p at time t, how it runs to
/// quiescence, and its own counters.  Everything else — the transport
/// stack, recorder, processes, clients, scenario hooks and the result
/// ledger — is assembled once, by run_on().
class Root {
 public:
  virtual ~Root() = default;

  /// The bottom of the transport stack and its traffic ledger.
  [[nodiscard]] virtual HostTransport& host() = 0;
  [[nodiscard]] virtual NetworkStats& stats() = 0;
  /// History global order is insertion order; a root whose arrival
  /// interleaving is thread-dependent rebuilds it canonically.
  virtual void prepare(HistoryRecorder& recorder) { (void)recorder; }
  /// Every endpoint is registered: freeze registration, start threads.
  virtual void start() = 0;
  [[nodiscard]] virtual Client::Schedule schedule() = 0;
  /// The histogram process p's client records into: one per execution
  /// lane, merged into `result` by collect().
  [[nodiscard]] virtual LatencyHistogram& latency_lane(
      ProcessId p, RunResult& result) = 0;
  /// Wire the fault timeline; events at t <= 0 take effect before any
  /// client op, so a scenario that starts lossy is lossy for the very
  /// first message.
  virtual void apply(const Scenario& scenario, ScenarioHooks hooks) = 0;
  virtual void run_to_quiescence(std::chrono::milliseconds timeout) = 0;
  virtual void collect(RunResult& result) = 0;
};

class SimulatorRoot final : public Root {
 public:
  SimulatorRoot(EngineConfig& config, const graph::Distribution& dist)
      : sim_(options(config)) {
    // Declare m before the network materializes: ensure_network's resize
    // then pre-sizes every exposure row (branch-free deliver accounting).
    sim_.stats().set_var_hint(dist.var_count);
  }

  HostTransport& host() override { return sim_; }
  NetworkStats& stats() override { return sim_.stats(); }
  void start() override { sim_.ensure_network(); }
  Client::Schedule schedule() override { return on_simulator(sim_); }
  // The clients never run concurrently, so they all record straight into
  // the result's histogram.
  LatencyHistogram& latency_lane(ProcessId,
                                 RunResult& result) override {
    return result.op_latency;
  }
  void apply(const Scenario& scenario, ScenarioHooks hooks) override {
    scenario.apply(sim_, std::move(hooks));
  }
  void run_to_quiescence(std::chrono::milliseconds) override { sim_.run(); }
  void collect(RunResult& result) override {
    result.finished_at = sim_.now();
    result.events = sim_.events_fired();
    result.drops = sim_.network().drop_counters();
    result.active_channel_pairs = sim_.network().fifo_pairs();
    result.channel_state_bytes = sim_.network().state_bytes();
  }

 private:
  static SimOptions options(EngineConfig& config) {
    SimOptions o;
    o.seed = config.sim_seed;
    o.channel = config.channel;
    o.latency = std::move(config.latency);
    return o;
  }

  Simulator sim_;
};

/// The sharded simulator: every closure is scheduled with its owning
/// process, so it lands on that process's shard with a canonical ordering
/// slot; each shard's clients record into the shard's own histogram,
/// which only that shard's worker touches.
class ParallelRoot final : public Root {
 public:
  ParallelRoot(EngineConfig& config, const graph::Distribution& dist)
      : sim_(options(config, dist)) {
    sim_.set_var_hint(dist.var_count);
  }

  HostTransport& host() override { return sim_; }
  NetworkStats& stats() override { return sim_.stats(); }
  void prepare(HistoryRecorder& recorder) override {
    recorder.use_canonical_order();
  }
  // Fixes the shard assignment the clients record under.
  void start() override { sim_.freeze(); }
  Client::Schedule schedule() override {
    return [this](ProcessId p, TimePoint t, std::function<void()> fn) {
      sim_.schedule_at(t, p, std::move(fn));
    };
  }
  LatencyHistogram& latency_lane(ProcessId p, RunResult&) override {
    if (lanes_.empty()) lanes_.resize(sim_.shard_count());
    return lanes_[static_cast<std::size_t>(sim_.shard_of(p))];
  }
  void apply(const Scenario& scenario, ScenarioHooks hooks) override {
    scenario.apply(sim_, std::move(hooks));
  }
  void run_to_quiescence(std::chrono::milliseconds) override { sim_.run(); }
  void collect(RunResult& result) override {
    // Histograms merge element-wise (associative and commutative), so the
    // shard order cannot matter.
    for (const LatencyHistogram& lane : lanes_) {
      result.op_latency.merge_from(lane);
    }
    result.finished_at = sim_.now();
    result.events = sim_.events_fired();
    result.drops = sim_.drop_counters();
    result.active_channel_pairs = sim_.fifo_pairs();
    result.channel_state_bytes = sim_.state_bytes();
  }

 private:
  static ParallelSimOptions options(EngineConfig& config,
                                    const graph::Distribution& dist) {
    ParallelSimOptions o;
    o.seed = config.sim_seed;
    o.channel = config.channel;
    o.latency = std::move(config.latency);
    o.num_threads = config.parallel.num_threads;
    o.quantum = config.parallel.quantum;
    o.shard_of = graph::shard_assignment(
        dist, static_cast<int>(config.parallel.num_threads));
    return o;
  }

  ParallelSimulator sim_;
  std::vector<LatencyHistogram> lanes_;
};

/// All-local loopback TCP: each process runs on its own mailbox thread,
/// every closure is posted there (think time ignored), each client
/// records into its own histogram, and the fault timeline replays on the
/// wall clock (SocketTransport::replay).
class SocketRoot final : public Root {
 public:
  SocketRoot(const EngineConfig& config, const graph::Distribution& dist)
      : st_(options(config, dist)) {
    st_.stats().set_var_hint(dist.var_count);
  }

  HostTransport& host() override { return st_; }
  NetworkStats& stats() override { return st_.stats(); }
  void start() override { st_.start(); }
  Client::Schedule schedule() override {
    return [this](ProcessId p, TimePoint, std::function<void()> fn) {
      st_.post(p, std::move(fn));
    };
  }
  LatencyHistogram& latency_lane(ProcessId p, RunResult&) override {
    if (lanes_.empty()) lanes_.resize(st_.process_count());
    return lanes_[static_cast<std::size_t>(p)];
  }
  void apply(const Scenario& scenario, ScenarioHooks hooks) override {
    st_.replay(scenario, std::move(hooks));
  }
  // Stopped before collection, so no mailbox thread outlives the run's
  // processes and clients.
  void run_to_quiescence(std::chrono::milliseconds timeout) override {
    const bool quiet = st_.await_quiescence(timeout);
    finished_at_ = st_.now();
    st_.stop();
    PARDSM_CHECK(quiet, "sockets runtime failed to quiesce — protocol stuck?");
  }
  void collect(RunResult& result) override {
    for (const LatencyHistogram& lane : lanes_) {
      result.op_latency.merge_from(lane);
    }
    result.finished_at = finished_at_;
    result.drops = st_.drops();
    result.socket_counters = st_.counters();
  }

 private:
  static SocketOptions options(const EngineConfig& config,
                               const graph::Distribution& dist) {
    PARDSM_CHECK(config.latency == nullptr,
                 "latency models require the simulator runtime");
    PARDSM_CHECK(config.channel.drop_probability == 0.0 &&
                     config.channel.duplicate_probability == 0.0,
                 "channel loss on the sockets runtime is modelled by "
                 "SocketOptions.chaos, not ChannelOptions");
    PARDSM_CHECK(config.sockets.local_ids.empty(),
                 "EngineRuntime::kSockets runs all-local — multi-process "
                 "deployments are driven by pardsm_node");
    // Rejected here, before start(): a throw once the mailbox threads run
    // would unwind the processes they still serve.
    const std::size_t n = dist.process_count();
    PARDSM_CHECK(config.scenario == nullptr ||
                     config.scenario->max_process() == kNoProcess ||
                     static_cast<std::size_t>(config.scenario->max_process()) <
                         n,
                 "scenario mentions a process outside the system");
    SocketOptions o = config.sockets;
    o.total_processes = n;
    return o;
  }

  SocketTransport st_;
  std::vector<LatencyHistogram> lanes_;
  TimePoint finished_at_{};
};

/// Per-process replica contents at quiescence (P6 compares them across
/// fault scenarios).
std::vector<std::vector<ReplicaEntry>> snapshot_replicas(
    const std::vector<std::unique_ptr<McsProcess>>& processes) {
  std::vector<std::vector<ReplicaEntry>> out;
  out.reserve(processes.size());
  for (const auto& proc : processes) {
    std::vector<ReplicaEntry> mine;
    mine.reserve(proc->store().vars().size());
    for (VarId x : proc->store().vars()) {
      const Stored& s = proc->store().get(x);
      mine.push_back({x, s.value, s.source});
    }
    out.push_back(std::move(mine));
  }
  return out;
}

/// Whether this config routes through the ARQ layer.
bool needs_reliable(const EngineConfig& config) {
  switch (config.reliability) {
    case ReliabilityMode::kNever:
      return false;
    case ReliabilityMode::kAlways:
      return true;
    case ReliabilityMode::kAuto:
      break;
  }
  // Socket chaos that can *lose* frames (drops, duplicates) needs ARQ just
  // like a lossy simulated channel; delays and disconnects do not — queued
  // frames survive a reconnect and arrive in order after the HELLO.
  const bool lossy_chaos =
      config.runtime == EngineRuntime::kSockets &&
      (config.sockets.chaos.drop_probability > 0.0 ||
       config.sockets.chaos.duplicate_probability > 0.0);
  return (config.scenario != nullptr && config.scenario->faulty()) ||
         config.channel.drop_probability > 0.0 ||
         config.channel.duplicate_probability > 0.0 || lossy_chaos;
}

/// Fold every workload client's op counts into the result; the root has
/// already brought every latency sample into result.op_latency.  The
/// shortfall against the generator's schedule becomes the censored mass —
/// an op that arrived but never completed is accounted above every
/// latency bucket, never dropped and never a ~0 sample.
void collect_workload(const workload::Generator& gen,
                      const std::vector<Client>& clients,
                      RunResult& result) {
  for (const auto& client : clients) {
    result.ops_issued += client.issued();
    result.ops_completed += client.completed();
  }
  const std::uint64_t target =
      gen.ops_per_process() * static_cast<std::uint64_t>(clients.size());
  PARDSM_CHECK(result.ops_completed <= target,
               "workload completed more ops than were generated");
  result.ops_censored = target - result.ops_completed;
  result.op_latency.add_censored(result.ops_censored);
}

/// Fold the ARQ layer's dead-channel ledger into the result and enforce
/// the client-completion contract: with every channel alive an unfinished
/// client is a hard error, but once the ARQ layer gave a channel up
/// (OnExhausted::kDeadChannel) some scripts legitimately cannot complete
/// — the run reports them instead of throwing.
void finish_clients(RunResult& result, const ReliableTransport* rel,
                    const std::vector<Client>& clients) {
  if (rel != nullptr) {
    result.dead_channels = rel->dead_channels();
    result.drops.dead_channel = rel->dead_channel_drops();
  }
  result.unfinished_clients = static_cast<std::size_t>(
      std::count_if(clients.begin(), clients.end(),
                    [](const Client& c) { return !c.done(); }));
  PARDSM_CHECK(
      result.unfinished_clients == 0 || !result.dead_channels.empty(),
      "run quiesced before a client finished its script — stuck "
      "protocol, unhealed fault or lost completion");
}

RunResult run_on(Root& root, const EngineConfig& config) {
  const graph::Distribution& dist = *config.distribution;
  const bool reliable = needs_reliable(config);
  const bool batching = config.batching.window.us > 0;

  // Assemble the transport stack bottom-up.  Faulty runs go through the
  // ARQ layer: the protocols assume reliable FIFO channels for liveness,
  // and recovery traffic must be charged to the same ledger as everything
  // else.  The batching layer coalesces either above it (frames ride
  // single DATA frames) or below it (DATA/ACK frames coalesce).  The
  // decorators' per-process shims only ever run on their owner's shard or
  // mailbox thread, which is what makes them safe on every root.
  std::optional<BatchingTransport> batch;
  std::optional<ReliableTransport> rel;
  HostTransport* top = &root.host();
  if (batching && config.batch_placement == BatchPlacement::kBelowReliable) {
    batch.emplace(*top, config.batching);
    top = &*batch;
  }
  if (reliable) {
    rel.emplace(*top, config.reliable);
    top = &*rel;
  }
  if (batching && config.batch_placement == BatchPlacement::kAboveReliable) {
    batch.emplace(*top, config.batching);
    top = &*batch;
  }

  std::optional<workload::Generator> gen;
  if (config.workload != nullptr) gen.emplace(dist, *config.workload);

  HistoryRecorder recorder(dist.process_count(), dist.var_count);
  root.prepare(recorder);
  if (!config.record_history) recorder.use_discard_mode();
  auto processes = make_processes(config.protocol, dist, recorder);
  for (auto& proc : processes) {
    const ProcessId assigned = top->add_endpoint(proc.get());
    PARDSM_CHECK(assigned == proc->id(), "process id mismatch");
    proc->attach(*top);
  }
  root.start();

  // Reserved up front: scheduled closures hold client addresses.
  RunResult result;
  std::vector<Client> clients;
  clients.reserve(processes.size());
  for (auto& proc : processes) {
    if (gen) {
      clients.emplace_back(*proc, root.schedule(), *gen,
                           root.latency_lane(proc->id(), result));
    } else {
      clients.emplace_back(*proc, root.schedule(),
                           (*config.scripts)[static_cast<std::size_t>(
                               proc->id())]);
    }
  }

  if (config.scenario != nullptr) {
    ScenarioHooks hooks;
    hooks.on_crash = [&processes](ProcessId p, TimePoint) {
      processes[static_cast<std::size_t>(p)]->crash();
    };
    hooks.on_recover = [&processes, &clients](ProcessId p, TimePoint at) {
      processes[static_cast<std::size_t>(p)]->recover();
      clients[static_cast<std::size_t>(p)].resume(at);
    };
    root.apply(*config.scenario, std::move(hooks));
  }

  for (auto& client : clients) client.start(kTimeZero);
  root.run_to_quiescence(config.quiesce_timeout);

  result.history = recorder.take_history();
  result.total_traffic = root.stats().total();
  result.per_process_traffic = root.stats().per_process_snapshot();
  result.protocol_stats.reserve(processes.size());
  for (const auto& proc : processes) {
    result.protocol_stats.push_back(proc->stats());
  }
  result.observed_relevant = root.stats().exposure_sets(dist.var_count);
  result.final_replicas = snapshot_replicas(processes);
  root.collect(result);
  if (gen) collect_workload(*gen, clients, result);

  result.used_reliable_transport = reliable;
  result.retransmissions = rel ? rel->retransmissions() : 0;
  finish_clients(result, rel ? &*rel : nullptr, clients);
  if (batch) result.batching = batch->stats();
  for (const auto& proc : processes) {
    const RecoveryStats& r = proc->recovery_stats();
    result.crashes += r.crashes;
    result.resync_messages +=
        r.resync_requests_sent + r.resync_responses_served;
    result.resync_bytes += r.resync_bytes;
    result.resync_values_applied += r.resync_values_applied;
    result.max_recovery_latency =
        std::max(result.max_recovery_latency, proc->max_recovery_latency());
  }
  return result;
}

}  // namespace

RunResult run(EngineConfig config) {
  PARDSM_CHECK(config.distribution != nullptr, "run: distribution required");
  PARDSM_CHECK((config.scripts != nullptr) != (config.workload != nullptr),
               "run: exactly one of scripts / workload required");
  if (config.scripts != nullptr) {
    PARDSM_CHECK(
        config.scripts->size() == config.distribution->process_count(),
        "one script per process required");
  }
  if (config.workload != nullptr && config.workload->arrival_rate > 0.0) {
    // Open-loop arrival control is a simulated-time construct; on the
    // wall-clock root the client loop is closed by design, so an
    // open-loop spec there would silently measure something else.
    PARDSM_CHECK(config.runtime != EngineRuntime::kSockets,
                 "open-loop arrival rates require a simulator runtime");
  }
  const graph::Distribution& dist = *config.distribution;
  switch (config.runtime) {
    case EngineRuntime::kParallelSim: {
      ParallelRoot root(config, dist);
      return run_on(root, config);
    }
    case EngineRuntime::kSockets: {
      SocketRoot root(config, dist);
      return run_on(root, config);
    }
    case EngineRuntime::kSimulator:
      break;
  }
  SimulatorRoot root(config, dist);
  return run_on(root, config);
}

}  // namespace pardsm::mcs
