#include "mcs/engine.h"

#include <algorithm>
#include <thread>

#include "sharegraph/sharding.h"
#include "simnet/parallel_sim.h"
#include "simnet/rng.h"
#include "simnet/thread_runtime.h"

namespace pardsm::mcs {

ScriptedClient::ScriptedClient(McsProcess& process, Simulator& sim,
                               Script script)
    : process_(process), sim_(sim), script_(std::move(script)) {}

void ScriptedClient::start(TimePoint start) {
  if (script_.empty()) return;
  sim_.schedule_at(start + script_.front().delay, [this] { issue(); });
}

void ScriptedClient::resume(TimePoint at) {
  if (!stalled_) return;
  PARDSM_CHECK(!process_.crashed(), "resume while the process is still down");
  stalled_ = false;
  sim_.schedule_at(at, [this] { issue(); });
}

void ScriptedClient::issue() {
  PARDSM_CHECK(next_ < script_.size(), "issue past end of script");
  if (process_.crashed()) {
    // The application fails with its process: hold this operation (and the
    // client's place in the script) until the recovery hook resumes us.
    stalled_ = true;
    return;
  }
  const ScriptOp& op = script_[next_];
  ++next_;

  const auto continue_after = [this] {
    if (next_ >= script_.size()) return;
    const Duration delay = script_[next_].delay;
    if (delay.us == 0) {
      // Schedule at the current instant to keep the event loop in control
      // (still after any messages the completed op just enqueued at t).
      sim_.schedule_at(sim_.now(), [this] { issue(); });
    } else {
      sim_.schedule_at(sim_.now() + delay, [this] { issue(); });
    }
  };

  if (op.kind == ScriptOp::Kind::kRead) {
    process_.read(op.var, [this, continue_after](Value v) {
      reads_.push_back(v);
      continue_after();
    });
  } else {
    process_.write(op.var, op.value, continue_after);
  }
}

WorkloadClient::WorkloadClient(McsProcess& process, Simulator& sim,
                               const workload::Generator& gen,
                               LatencyHistogram& latency)
    : process_(process), sim_(sim), gen_(gen), latency_(latency) {}

void WorkloadClient::start(TimePoint start) {
  start_ = start;
  if (gen_.open_loop()) {
    sim_.schedule_at(gen_.arrival(start_, 0), [this] { arrive(); });
  } else {
    arrivals_ = gen_.ops_per_process();
    sim_.schedule_at(start_, [this] { pump(); });
  }
}

void WorkloadClient::resume(TimePoint at) {
  if (!stalled_) return;
  PARDSM_CHECK(!process_.crashed(), "resume while the process is still down");
  stalled_ = false;
  sim_.schedule_at(at, [this] { pump(); });
}

void WorkloadClient::arrive() {
  ++arrivals_;
  if (arrivals_ < gen_.ops_per_process()) {
    // Arrivals chain one event at a time, so the queue holds O(1) client
    // events no matter how many ops the stream has left.
    sim_.schedule_at(gen_.arrival(start_, arrivals_), [this] { arrive(); });
  }
  pump();
}

void WorkloadClient::pump() {
  if (outstanding_ || issued_ >= arrivals_) return;
  if (process_.crashed()) {
    // The open-loop world keeps arriving; *issuing* waits for recovery,
    // and the queued ops' latencies keep their scheduled arrival clocks.
    stalled_ = true;
    return;
  }
  const std::uint64_t k = issued_++;
  outstanding_ = true;
  // Latency clock: open loop from the scheduled arrival (queueing behind
  // a slow or down system is charged to the op — no coordinated
  // omission); closed loop from the issue instant.
  const TimePoint t0 =
      gen_.open_loop() ? gen_.arrival(start_, k) : sim_.now();
  const workload::OpSpec op = gen_.op(process_.id(), k);
  if (op.is_read) {
    process_.read(op.var, [this, t0](Value v) {
      reads_digest_ = mix_word(reads_digest_, static_cast<std::uint64_t>(v));
      complete(t0);
    });
  } else {
    process_.write(op.var, op.value, [this, t0] { complete(t0); });
  }
}

void WorkloadClient::complete(TimePoint t0) {
  const Duration d = sim_.now() - t0;
  latency_.record(d.us > 0 ? static_cast<std::uint64_t>(d.us) : 0);
  ++completed_;
  outstanding_ = false;
  if (issued_ < arrivals_) {
    // Re-enter via the queue so the event loop stays in control (same
    // discipline as ScriptedClient's continue_after).
    sim_.schedule_at(sim_.now(), [this] { pump(); });
  }
}

namespace {

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

/// The runtime-independent share of result collection: history, traffic,
/// exposure, protocol stats and final replicas.
void collect_common(HistoryRecorder& recorder, NetworkStats& stats,
                    const std::vector<std::unique_ptr<McsProcess>>& processes,
                    std::size_t var_count, RunResult& result) {
  result.history = recorder.take_history();
  result.total_traffic = stats.total();
  result.per_process_traffic = stats.per_process_snapshot();
  result.protocol_stats.reserve(processes.size());
  for (const auto& proc : processes) {
    result.protocol_stats.push_back(proc->stats());
  }
  result.observed_relevant = stats.exposure_sets(var_count);
  result.final_replicas = snapshot_replicas(processes);
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

/// Fold the ARQ layer's dead-channel ledger into the result and enforce
/// the client-completion contract: with every channel alive an unfinished
/// client is a hard error, but once the ARQ layer gave a channel up
/// (OnExhausted::kDeadChannel) some scripts legitimately cannot complete
/// — the run reports them instead of throwing.
void finish_clients(ScenarioRunResult& result, const ReliableTransport* rel,
                    std::size_t unfinished) {
  if (rel != nullptr) {
    result.dead_channels = rel->dead_channels();
    result.drops.dead_channel = rel->dead_channel_drops();
  }
  result.unfinished_clients = unfinished;
  PARDSM_CHECK(unfinished == 0 || !result.dead_channels.empty(),
               "run quiesced before a client finished its script — stuck "
               "protocol, unhealed fault or lost completion");
}

/// Fold every workload client's op counts into the result; the caller
/// has already brought every latency sample into result.op_latency
/// (histograms merge element-wise — associative and commutative, so
/// per-shard or per-client order cannot matter).  The shortfall against
/// the generator's schedule becomes the censored mass — an op that
/// arrived but never completed is accounted above every latency bucket,
/// never dropped and never a ~0 sample.
template <typename Client>
void collect_workload(const workload::Generator& gen,
                      const std::vector<Client>& clients,
                      ScenarioRunResult& result) {
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

/// Self-driving client for the thread runtime: each completion issues the
/// next operation, always on the owning process's thread.
class ThreadedClient {
 public:
  ThreadedClient(McsProcess& process, Script script)
      : process_(process), script_(std::move(script)) {}

  /// Runs on the owner thread (via ThreadRuntime::post) and re-enters from
  /// completion callbacks, which also fire on the owner thread.
  void issue() {
    if (next_ >= script_.size()) {
      done_ = true;
      return;
    }
    const ScriptOp& op = script_[next_];
    ++next_;
    if (op.kind == ScriptOp::Kind::kRead) {
      process_.read(op.var, [this](Value v) {
        reads_.push_back(v);
        issue();
      });
    } else {
      process_.write(op.var, op.value, [this] { issue(); });
    }
  }

  [[nodiscard]] bool done() const { return done_ || script_.empty(); }

 private:
  McsProcess& process_;
  Script script_;
  std::size_t next_ = 0;
  std::vector<Value> reads_;
  bool done_ = false;
};

/// WorkloadClient's twin for the thread runtime: closed loop only (run()
/// rejects open-loop specs off the simulated clock), each completion
/// issuing the next generated op on the owning thread.  Latency is the
/// root transport's wall-microsecond clock.
class ThreadedWorkloadClient {
 public:
  ThreadedWorkloadClient(McsProcess& process, const workload::Generator& gen)
      : process_(process), gen_(gen) {}

  void issue() {
    if (next_ >= gen_.ops_per_process()) return;
    const std::uint64_t k = next_++;
    const TimePoint t0 = process_.now();
    const workload::OpSpec op = gen_.op(process_.id(), k);
    if (op.is_read) {
      process_.read(op.var, [this, t0](Value v) {
        reads_digest_ =
            mix_word(reads_digest_, static_cast<std::uint64_t>(v));
        finish(t0);
      });
    } else {
      process_.write(op.var, op.value, [this, t0] { finish(t0); });
    }
  }

  [[nodiscard]] bool done() const {
    return completed_ == gen_.ops_per_process();
  }
  [[nodiscard]] std::uint64_t issued() const { return next_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] const LatencyHistogram& latency() const { return latency_; }

 private:
  void finish(TimePoint t0) {
    const Duration d = process_.now() - t0;
    latency_.record(d.us > 0 ? static_cast<std::uint64_t>(d.us) : 0);
    ++completed_;
    issue();
  }

  McsProcess& process_;
  const workload::Generator& gen_;
  std::uint64_t next_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t reads_digest_ = 0;
  LatencyHistogram latency_;
};

ScenarioRunResult run_on_threads(const EngineConfig& config) {
  const graph::Distribution& dist = *config.distribution;
  const std::vector<Script>* scripts = config.scripts;
  PARDSM_CHECK(config.scenario == nullptr,
               "fault timelines require the simulator runtime");
  PARDSM_CHECK(!needs_reliable(config),
               "the ARQ layer requires the simulator runtime");
  // Loud rejection rather than a silently-lossless run: the thread
  // runtime takes no channel options or latency model from the engine.
  PARDSM_CHECK(config.channel.drop_probability == 0.0 &&
                   config.channel.duplicate_probability == 0.0,
               "lossy channels require the simulator runtime");
  PARDSM_CHECK(config.latency == nullptr,
               "latency models require the simulator runtime");

  ThreadRuntime rt;
  // The runtime only ever learns n; the distribution's variable count
  // pre-sizes the exposure rows (branch-free deliver accounting).
  rt.stats().set_var_hint(dist.var_count);
  // Batching is preemption-safe (per-sender state only ever touched on the
  // owning thread), so the coalescing layer stacks here too.
  std::optional<BatchingTransport> batch;
  HostTransport* top = &rt;
  if (config.force_batching_layer || config.batching.window.us > 0) {
    batch.emplace(*top, config.batching);
    top = &*batch;
  }

  std::optional<workload::Generator> gen;
  if (config.workload != nullptr) gen.emplace(dist, *config.workload);

  HistoryRecorder recorder(dist.process_count(), dist.var_count);
  if (!config.record_history) recorder.use_discard_mode();
  auto processes = make_processes(config.protocol, dist, recorder);
  for (auto& proc : processes) {
    const ProcessId assigned = top->add_endpoint(proc.get());
    PARDSM_CHECK(assigned == proc->id(), "process id mismatch");
    proc->attach(*top);
    if (config.multicast != nullptr) proc->use_multicast(*config.multicast);
  }

  // Reserved up front: completion callbacks hold client addresses.
  std::vector<ThreadedClient> clients;
  std::vector<ThreadedWorkloadClient> wclients;
  clients.reserve(gen ? 0 : processes.size());
  wclients.reserve(gen ? processes.size() : 0);
  for (std::size_t p = 0; p < processes.size(); ++p) {
    if (gen) {
      wclients.emplace_back(*processes[p], *gen);
    } else {
      clients.emplace_back(*processes[p], (*scripts)[p]);
    }
  }

  rt.start();
  for (std::size_t p = 0; p < processes.size(); ++p) {
    if (gen) {
      rt.post(static_cast<ProcessId>(p),
              [client = &wclients[p]] { client->issue(); });
    } else {
      rt.post(static_cast<ProcessId>(p),
              [client = &clients[p]] { client->issue(); });
    }
  }
  const bool quiet = rt.await_quiescence(config.quiesce_timeout);
  PARDSM_CHECK(quiet, "thread runtime failed to quiesce — protocol stuck?");
  rt.stop();

  for (const auto& client : clients) {
    PARDSM_CHECK(client.done(), "threaded client did not finish its script");
  }
  for (const auto& client : wclients) {
    PARDSM_CHECK(client.done(),
                 "threaded client did not finish its workload");
  }

  ScenarioRunResult result;
  collect_common(recorder, rt.stats(), processes, dist.var_count, result);
  if (gen) {
    // Clients run concurrently, one histogram each.
    for (const auto& client : wclients) {
      result.op_latency.merge_from(client.latency());
    }
    collect_workload(*gen, wclients, result);
  }
  if (batch) result.batching = batch->stats();
  return result;
}

/// ThreadedClient's twin for the sockets root, with ScriptedClient's
/// crash-awareness: issue() and every completion run on the owning
/// process's mailbox thread (so does crash()/recover(), posted there by
/// the timeline), which keeps the stall/resume handshake race-free
/// without locks.  Think-time delays are ignored, as under kThreads.
class SocketClient {
 public:
  SocketClient(McsProcess& process, Script script)
      : process_(process), script_(std::move(script)) {}

  void issue() {
    if (next_ >= script_.size()) {
      done_ = true;
      return;
    }
    if (process_.crashed()) {
      // Hold this operation and our place in the script until the
      // recovery hook posts resume() to this same mailbox.
      stalled_ = true;
      return;
    }
    const ScriptOp& op = script_[next_];
    ++next_;
    if (op.kind == ScriptOp::Kind::kRead) {
      process_.read(op.var, [this](Value v) {
        reads_.push_back(v);
        issue();
      });
    } else {
      process_.write(op.var, op.value, [this] { issue(); });
    }
  }

  void resume() {
    if (!stalled_) return;
    stalled_ = false;
    issue();  // next_ never advanced past the stalled operation
  }

  [[nodiscard]] bool done() const { return done_ || script_.empty(); }

 private:
  McsProcess& process_;
  Script script_;
  std::size_t next_ = 0;
  std::vector<Value> reads_;
  bool done_ = false;
  bool stalled_ = false;
};

/// WorkloadClient's twin for the sockets root: closed loop with
/// SocketClient's crash-awareness — everything runs on the owning
/// mailbox thread, a crashed issue attempt stalls until the recovery
/// hook posts resume().  Latency is the socket root's wall-µs clock.
class SocketWorkloadClient {
 public:
  SocketWorkloadClient(McsProcess& process, const workload::Generator& gen)
      : process_(process), gen_(gen) {}

  void issue() {
    if (next_ >= gen_.ops_per_process()) return;
    if (process_.crashed()) {
      stalled_ = true;
      return;
    }
    const std::uint64_t k = next_++;
    const TimePoint t0 = process_.now();
    const workload::OpSpec op = gen_.op(process_.id(), k);
    if (op.is_read) {
      process_.read(op.var, [this, t0](Value v) {
        reads_digest_ =
            mix_word(reads_digest_, static_cast<std::uint64_t>(v));
        finish(t0);
      });
    } else {
      process_.write(op.var, op.value, [this, t0] { finish(t0); });
    }
  }

  void resume() {
    if (!stalled_) return;
    stalled_ = false;
    issue();
  }

  [[nodiscard]] bool done() const {
    return completed_ == gen_.ops_per_process();
  }
  [[nodiscard]] std::uint64_t issued() const { return next_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] const LatencyHistogram& latency() const { return latency_; }

 private:
  void finish(TimePoint t0) {
    const Duration d = process_.now() - t0;
    latency_.record(d.us > 0 ? static_cast<std::uint64_t>(d.us) : 0);
    ++completed_;
    issue();
  }

  McsProcess& process_;
  const workload::Generator& gen_;
  std::uint64_t next_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t reads_digest_ = 0;
  bool stalled_ = false;
  LatencyHistogram latency_;
};

ScenarioRunResult run_on_sockets(const EngineConfig& config) {
  const graph::Distribution& dist = *config.distribution;
  const std::vector<Script>* scripts = config.scripts;
  const std::size_t n = dist.process_count();
  const bool reliable = needs_reliable(config);
  const bool batching =
      config.force_batching_layer || config.batching.window.us > 0;

  PARDSM_CHECK(config.latency == nullptr,
               "latency models require the simulator runtime");
  PARDSM_CHECK(config.channel.drop_probability == 0.0 &&
                   config.channel.duplicate_probability == 0.0,
               "channel loss on the sockets runtime is modelled by "
               "SocketOptions.chaos, not ChannelOptions");
  PARDSM_CHECK(config.sockets.local_ids.empty(),
               "EngineRuntime::kSockets runs all-local — multi-process "
               "deployments are driven by pardsm_node");
  PARDSM_CHECK(config.scenario == nullptr ||
                   config.scenario->max_process() == kNoProcess ||
                   static_cast<std::size_t>(config.scenario->max_process()) < n,
               "scenario mentions a process outside the system");

  SocketOptions socket_options = config.sockets;
  socket_options.total_processes = n;
  SocketTransport st(std::move(socket_options));
  st.stats().set_var_hint(dist.var_count);

  // The same decorator stack as every other root: the shims' per-process
  // state only ever runs on the owning mailbox thread.
  std::optional<BatchingTransport> batch;
  std::optional<ReliableTransport> rel;
  HostTransport* top = &st;
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
  if (!config.record_history) recorder.use_discard_mode();
  auto processes = make_processes(config.protocol, dist, recorder);
  for (auto& proc : processes) {
    const ProcessId assigned = top->add_endpoint(proc.get());
    PARDSM_CHECK(assigned == proc->id(), "process id mismatch");
    proc->attach(*top);
    if (config.multicast != nullptr) proc->use_multicast(*config.multicast);
  }

  // Reserved up front: completion callbacks hold client addresses.
  std::vector<SocketClient> clients;
  std::vector<SocketWorkloadClient> wclients;
  clients.reserve(gen ? 0 : processes.size());
  wclients.reserve(gen ? processes.size() : 0);
  for (std::size_t p = 0; p < processes.size(); ++p) {
    if (gen) {
      wclients.emplace_back(*processes[p], *gen);
    } else {
      clients.emplace_back(*processes[p], (*scripts)[p]);
    }
  }

  // -- scenario replay on the wall clock ------------------------------------
  // There is no Network to install a RateOverride on, so the timeline is
  // walked explicitly: 1 simulated µs = 1 wall µs from the epoch.  At each
  // window edge every pair's loss/duplication rate is re-sampled into the
  // socket layer's atomic per-pair rates (draws come from the same
  // deterministic chaos streams); structural events map onto
  // set_severed()/set_down() plus crash()/recover() posted to the owner
  // mailbox.  Partitions are counted cuts, exactly as in Network.
  std::vector<int> cut_count(n * n, 0);
  const auto apply_instant = [&](TimePoint t) {
    if (config.scenario == nullptr) return;
    for (const FaultEvent* ep : config.scenario->execution_order()) {
      const FaultEvent& e = *ep;
      if (e.at != t) continue;
      switch (e.type) {
        case FaultEvent::Type::kSever:
        case FaultEvent::Type::kHeal: {
          // Group id per process: listed processes get their group's
          // index, everyone else a unique singleton id.
          std::vector<std::size_t> gid(n);
          std::size_t next = e.groups.size();
          for (std::size_t p = 0; p < n; ++p) gid[p] = next++;
          for (std::size_t g = 0; g < e.groups.size(); ++g) {
            for (ProcessId p : e.groups[g]) {
              gid[static_cast<std::size_t>(p)] = g;
            }
          }
          const int delta = e.type == FaultEvent::Type::kSever ? 1 : -1;
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              if (i == j || gid[i] == gid[j]) continue;
              int& cuts = cut_count[i * n + j];
              cuts += delta;
              st.set_severed(static_cast<ProcessId>(i),
                             static_cast<ProcessId>(j), cuts > 0);
            }
          }
          break;
        }
        case FaultEvent::Type::kCrash:
          st.set_down(e.a, true);
          st.post(e.a, [proc = processes[static_cast<std::size_t>(e.a)].get()] {
            proc->crash();
          });
          break;
        case FaultEvent::Type::kRecover:
          st.set_down(e.a, false);
          st.post(e.a, [&, p = static_cast<std::size_t>(e.a)] {
            processes[p]->recover();
            if (!wclients.empty()) {
              wclients[p].resume();
            } else {
              clients[p].resume();
            }
          });
          break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const auto a = static_cast<ProcessId>(i);
        const auto b = static_cast<ProcessId>(j);
        st.set_loss_rate(a, b,
                         std::max(0.0, config.scenario->loss_rate(a, b, t)));
        st.set_duplicate_rate(
            a, b, std::max(0.0, config.scenario->duplicate_rate(a, b, t)));
      }
    }
  };

  std::vector<TimePoint> edges;
  if (config.scenario != nullptr) edges = config.scenario->window_edges();

  st.start();
  // Edges at t <= 0 take effect before the first message, exactly like
  // Scenario::apply(): a timeline that starts lossy is lossy from op one.
  apply_instant(kTimeZero);
  std::thread timeline([&] {
    const auto epoch = std::chrono::steady_clock::now();
    for (TimePoint t : edges) {
      if (t <= kTimeZero) continue;
      std::this_thread::sleep_until(epoch + std::chrono::microseconds(t.us));
      apply_instant(t);
    }
  });

  for (std::size_t p = 0; p < processes.size(); ++p) {
    if (gen) {
      st.post(static_cast<ProcessId>(p),
              [client = &wclients[p]] { client->issue(); });
    } else {
      st.post(static_cast<ProcessId>(p),
              [client = &clients[p]] { client->issue(); });
    }
  }

  // The timeline must run to completion before quiescence means anything:
  // a crashed process's client is stalled (zero pending work) until the
  // recovery event resumes it.
  timeline.join();
  const bool quiet = st.await_quiescence(config.quiesce_timeout);
  PARDSM_CHECK(quiet, "sockets runtime failed to quiesce — protocol stuck?");

  std::size_t unfinished = 0;
  for (const auto& client : clients) {
    if (!client.done()) ++unfinished;
  }
  for (const auto& client : wclients) {
    if (!client.done()) ++unfinished;
  }

  ScenarioRunResult result;
  collect_common(recorder, st.stats(), processes, dist.var_count, result);
  if (gen) {
    // Clients run concurrently, one histogram each.
    for (const auto& client : wclients) {
      result.op_latency.merge_from(client.latency());
    }
    collect_workload(*gen, wclients, result);
  }
  result.finished_at = st.now();
  result.used_reliable_transport = reliable;
  result.retransmissions = rel ? rel->retransmissions() : 0;
  result.drops = st.drops();
  finish_clients(result, rel ? &*rel : nullptr, unfinished);
  result.socket_counters = st.counters();
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
  st.stop();
  return result;
}

/// ScriptedClient's twin for the parallel engine: identical issue/stall
/// semantics, but every closure is scheduled with its owning process so
/// the engine can route it to the right shard and give it a canonical
/// ordering slot.
class ParallelScriptedClient {
 public:
  ParallelScriptedClient(McsProcess& process, ParallelSimulator& sim,
                         Script script)
      : process_(process), sim_(sim), script_(std::move(script)) {}

  void start(TimePoint start) {
    if (script_.empty()) return;
    sim_.schedule_at(start + script_.front().delay, process_.id(),
                     [this] { issue(); });
  }

  void resume(TimePoint at) {
    if (!stalled_) return;
    PARDSM_CHECK(!process_.crashed(),
                 "resume while the process is still down");
    stalled_ = false;
    sim_.schedule_at(at, process_.id(), [this] { issue(); });
  }

  [[nodiscard]] bool done() const { return next_ >= script_.size(); }

 private:
  void issue() {
    PARDSM_CHECK(next_ < script_.size(), "issue past end of script");
    if (process_.crashed()) {
      stalled_ = true;
      return;
    }
    const ScriptOp& op = script_[next_];
    ++next_;

    const auto continue_after = [this] {
      if (next_ >= script_.size()) return;
      const Duration delay = script_[next_].delay;
      sim_.schedule_at(sim_.now() + delay, process_.id(),
                       [this] { issue(); });
    };

    if (op.kind == ScriptOp::Kind::kRead) {
      process_.read(op.var, [this, continue_after](Value v) {
        reads_.push_back(v);
        continue_after();
      });
    } else {
      process_.write(op.var, op.value, continue_after);
    }
  }

  McsProcess& process_;
  ParallelSimulator& sim_;
  Script script_;
  std::size_t next_ = 0;
  std::vector<Value> reads_;
  bool stalled_ = false;
};

/// WorkloadClient's twin for the parallel engine: identical open/closed
/// loop and stall semantics, every closure scheduled with its owning
/// process so it lands on the right shard with a canonical ordering
/// slot.  It records into its owner shard's histogram, which only that
/// shard's worker touches; the engine merges the shards' histograms
/// after the run (order-independent).
class ParallelWorkloadClient {
 public:
  ParallelWorkloadClient(McsProcess& process, ParallelSimulator& sim,
                         const workload::Generator& gen,
                         LatencyHistogram& latency)
      : process_(process), sim_(sim), gen_(gen), latency_(latency) {}

  void start(TimePoint start) {
    start_ = start;
    if (gen_.open_loop()) {
      sim_.schedule_at(gen_.arrival(start_, 0), process_.id(),
                       [this] { arrive(); });
    } else {
      arrivals_ = gen_.ops_per_process();
      sim_.schedule_at(start_, process_.id(), [this] { pump(); });
    }
  }

  void resume(TimePoint at) {
    if (!stalled_) return;
    PARDSM_CHECK(!process_.crashed(),
                 "resume while the process is still down");
    stalled_ = false;
    sim_.schedule_at(at, process_.id(), [this] { pump(); });
  }

  [[nodiscard]] bool done() const {
    return completed_ == gen_.ops_per_process();
  }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t reads_digest() const { return reads_digest_; }

 private:
  void arrive() {
    ++arrivals_;
    if (arrivals_ < gen_.ops_per_process()) {
      sim_.schedule_at(gen_.arrival(start_, arrivals_), process_.id(),
                       [this] { arrive(); });
    }
    pump();
  }

  void pump() {
    if (outstanding_ || issued_ >= arrivals_) return;
    if (process_.crashed()) {
      stalled_ = true;
      return;
    }
    const std::uint64_t k = issued_++;
    outstanding_ = true;
    const TimePoint t0 =
        gen_.open_loop() ? gen_.arrival(start_, k) : sim_.now();
    const workload::OpSpec op = gen_.op(process_.id(), k);
    if (op.is_read) {
      process_.read(op.var, [this, t0](Value v) {
        reads_digest_ =
            mix_word(reads_digest_, static_cast<std::uint64_t>(v));
        complete(t0);
      });
    } else {
      process_.write(op.var, op.value, [this, t0] { complete(t0); });
    }
  }

  void complete(TimePoint t0) {
    const Duration d = sim_.now() - t0;
    latency_.record(d.us > 0 ? static_cast<std::uint64_t>(d.us) : 0);
    ++completed_;
    outstanding_ = false;
    if (issued_ < arrivals_) {
      sim_.schedule_at(sim_.now(), process_.id(), [this] { pump(); });
    }
  }

  McsProcess& process_;
  ParallelSimulator& sim_;
  const workload::Generator& gen_;
  TimePoint start_{};
  std::uint64_t arrivals_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t reads_digest_ = 0;
  bool outstanding_ = false;
  bool stalled_ = false;
  LatencyHistogram& latency_;
};

ScenarioRunResult run_on_parallel(EngineConfig& config) {
  const graph::Distribution& dist = *config.distribution;
  const std::vector<Script>* scripts = config.scripts;
  const bool reliable = needs_reliable(config);
  const bool batching =
      config.force_batching_layer || config.batching.window.us > 0;

  ParallelSimOptions sim_options;
  sim_options.seed = config.sim_seed;
  sim_options.channel = config.channel;
  sim_options.latency = std::move(config.latency);
  sim_options.num_threads = config.parallel.num_threads;
  sim_options.quantum = config.parallel.quantum;
  sim_options.shard_of = graph::shard_assignment(
      dist, static_cast<int>(config.parallel.num_threads));
  ParallelSimulator sim(std::move(sim_options));
  sim.set_var_hint(dist.var_count);

  // The same transport stack as the sequential path: the decorators'
  // per-process shims only ever run on their owner's shard, which is what
  // makes them preemption- and shard-safe without modification.
  std::optional<BatchingTransport> batch;
  std::optional<ReliableTransport> rel;
  HostTransport* top = &sim;
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
  // History global order is insertion order; parallel execution makes
  // arrival interleaving thread-dependent, so rebuild it canonically.
  recorder.use_canonical_order();
  if (!config.record_history) recorder.use_discard_mode();
  auto processes = make_processes(config.protocol, dist, recorder);
  for (auto& proc : processes) {
    const ProcessId assigned = top->add_endpoint(proc.get());
    PARDSM_CHECK(assigned == proc->id(), "process id mismatch");
    proc->attach(*top);
    if (config.multicast != nullptr) proc->use_multicast(*config.multicast);
  }

  sim.freeze();  // fixes the shard assignment the clients record under
  std::vector<LatencyHistogram> shard_latency(gen ? sim.shard_count() : 0);
  // Reserved up front: scheduled closures hold client addresses.
  std::vector<ParallelScriptedClient> clients;
  std::vector<ParallelWorkloadClient> wclients;
  clients.reserve(gen ? 0 : processes.size());
  wclients.reserve(gen ? processes.size() : 0);
  for (std::size_t p = 0; p < processes.size(); ++p) {
    if (gen) {
      const auto shard = static_cast<std::size_t>(
          sim.shard_of(static_cast<ProcessId>(p)));
      wclients.emplace_back(*processes[p], sim, *gen, shard_latency[shard]);
    } else {
      clients.emplace_back(*processes[p], sim, (*scripts)[p]);
    }
  }

  if (config.scenario != nullptr) {
    ScenarioHooks hooks;
    hooks.on_crash = [&processes](ProcessId p, TimePoint) {
      processes[static_cast<std::size_t>(p)]->crash();
    };
    hooks.on_recover = [&processes, &clients, &wclients](ProcessId p,
                                                         TimePoint at) {
      processes[static_cast<std::size_t>(p)]->recover();
      if (!wclients.empty()) {
        wclients[static_cast<std::size_t>(p)].resume(at);
      } else {
        clients[static_cast<std::size_t>(p)].resume(at);
      }
    };
    config.scenario->apply(sim, std::move(hooks));
  }

  for (auto& client : clients) client.start(kTimeZero);
  for (auto& client : wclients) client.start(kTimeZero);
  sim.run();

  std::size_t unfinished = 0;
  for (const auto& client : clients) {
    if (!client.done()) ++unfinished;
  }
  for (const auto& client : wclients) {
    if (!client.done()) ++unfinished;
  }

  ScenarioRunResult result;
  collect_common(recorder, sim.stats(), processes, dist.var_count, result);
  if (gen) {
    for (const LatencyHistogram& shard : shard_latency) {
      result.op_latency.merge_from(shard);
    }
    collect_workload(*gen, wclients, result);
  }
  result.finished_at = sim.now();
  result.events = sim.events_fired();

  result.used_reliable_transport = reliable;
  result.retransmissions = rel ? rel->retransmissions() : 0;
  result.drops = sim.drop_counters();
  finish_clients(result, rel ? &*rel : nullptr, unfinished);
  result.active_channel_pairs = sim.fifo_pairs();
  result.channel_state_bytes = sim.state_bytes();
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

ScenarioRunResult run_on_simulator(EngineConfig& config) {
  const graph::Distribution& dist = *config.distribution;
  const std::vector<Script>* scripts = config.scripts;
  const bool reliable = needs_reliable(config);
  const bool batching =
      config.force_batching_layer || config.batching.window.us > 0;

  SimOptions sim_options;
  sim_options.seed = config.sim_seed;
  sim_options.channel = config.channel;
  sim_options.latency = std::move(config.latency);
  Simulator sim(std::move(sim_options));
  // Declare m before the network materializes: ensure_network's resize
  // then pre-sizes every exposure row (branch-free deliver accounting).
  sim.stats().set_var_hint(dist.var_count);

  // Assemble the transport stack bottom-up.  Faulty runs go through the
  // ARQ layer: the protocols assume reliable FIFO channels for liveness,
  // and recovery traffic must be charged to the same ledger as everything
  // else.  The batching layer coalesces either above it (frames ride
  // single DATA frames) or below it (DATA/ACK frames coalesce).
  std::optional<BatchingTransport> batch;
  std::optional<ReliableTransport> rel;
  HostTransport* top = &sim;
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
  if (!config.record_history) recorder.use_discard_mode();
  auto processes = make_processes(config.protocol, dist, recorder);
  for (auto& proc : processes) {
    const ProcessId assigned = top->add_endpoint(proc.get());
    PARDSM_CHECK(assigned == proc->id(), "process id mismatch");
    proc->attach(*top);
    if (config.multicast != nullptr) proc->use_multicast(*config.multicast);
  }

  // The clients never run concurrently, so every workload client records
  // straight into the result's histogram.  Reserved up front: scheduled
  // closures hold client addresses.
  ScenarioRunResult result;
  std::vector<ScriptedClient> clients;
  std::vector<WorkloadClient> wclients;
  clients.reserve(gen ? 0 : processes.size());
  wclients.reserve(gen ? processes.size() : 0);
  for (std::size_t p = 0; p < processes.size(); ++p) {
    if (gen) {
      wclients.emplace_back(*processes[p], sim, *gen, result.op_latency);
    } else {
      clients.emplace_back(*processes[p], sim, (*scripts)[p]);
    }
  }

  // Apply the timeline before any client op is scheduled: events at t<=0
  // take effect immediately, so a scenario that starts lossy is lossy for
  // the very first message.
  sim.ensure_network();
  if (config.scenario != nullptr) {
    ScenarioHooks hooks;
    hooks.on_crash = [&processes](ProcessId p, TimePoint) {
      processes[static_cast<std::size_t>(p)]->crash();
    };
    hooks.on_recover = [&processes, &clients, &wclients](ProcessId p,
                                                         TimePoint at) {
      processes[static_cast<std::size_t>(p)]->recover();
      if (!wclients.empty()) {
        wclients[static_cast<std::size_t>(p)].resume(at);
      } else {
        clients[static_cast<std::size_t>(p)].resume(at);
      }
    };
    config.scenario->apply(sim, std::move(hooks));
  }

  for (auto& client : clients) client.start(kTimeZero);
  for (auto& client : wclients) client.start(kTimeZero);
  sim.run();

  std::size_t unfinished = 0;
  for (const auto& client : clients) {
    if (!client.done()) ++unfinished;
  }
  for (const auto& client : wclients) {
    if (!client.done()) ++unfinished;
  }

  collect_common(recorder, sim.stats(), processes, dist.var_count, result);
  if (gen) collect_workload(*gen, wclients, result);
  result.finished_at = sim.now();
  result.events = sim.events_fired();

  result.used_reliable_transport = reliable;
  result.retransmissions = rel ? rel->retransmissions() : 0;
  result.drops = sim.network().drop_counters();
  finish_clients(result, rel ? &*rel : nullptr, unfinished);
  result.active_channel_pairs = sim.network().fifo_pairs();
  result.channel_state_bytes = sim.network().state_bytes();
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

ScenarioRunResult run(EngineConfig config) {
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
    // wall-clock runtimes the client loop is closed by design, so an
    // open-loop spec there would silently measure something else.
    PARDSM_CHECK(config.runtime == EngineRuntime::kSimulator ||
                     config.runtime == EngineRuntime::kParallelSim,
                 "open-loop arrival rates require a simulator runtime");
  }
  if (config.runtime == EngineRuntime::kThreads) {
    return run_on_threads(config);
  }
  if (config.runtime == EngineRuntime::kParallelSim) {
    return run_on_parallel(config);
  }
  if (config.runtime == EngineRuntime::kSockets) {
    return run_on_sockets(config);
  }
  return run_on_simulator(config);
}

}  // namespace pardsm::mcs
