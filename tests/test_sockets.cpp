// Sockets runtime end-to-end: every protocol over real loopback TCP, the
// decorator stacks composed above the socket root, every protocol's
// consistency criterion under real mailbox threads (plus atomic-home
// linearizability and PRAM exposure confinement), chaos injection routed
// through ARQ, scenario crash/recover with RSYNC on the wall clock, the
// receiver-side heartbeat failure detector, and the multi-process
// bootstrap (pardsm_node) including a SIGKILL/respawn drill.
//
// Everything timing-sensitive here asserts *outcomes* (delivery,
// convergence, counters), never exact times: the sockets runtime's timing
// is non-deterministic.  Convergence checks use single-writer workloads,
// whose final replica contents are a pure function of the workload —
// comparable against a deterministic kSimulator reference run (the same
// trick as the P6 property).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "history/checkers.h"
#include "history/linearizability.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"
#include "simnet/socket_transport.h"

namespace pardsm {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Reference run: the deterministic simulator executing the same workload
// losslessly.  Single-writer scripts make final_replicas order-free, so
// the socket run must land on exactly these (value, WriteId) entries.
// ---------------------------------------------------------------------------

struct Workload {
  graph::Distribution dist;
  std::vector<mcs::Script> scripts;
};

Workload make_workload(std::size_t n, std::size_t ops, std::uint64_t seed) {
  Workload w;
  w.dist = graph::topo::complete(n, n);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = ops;
  spec.seed = seed;
  w.scripts = mcs::make_single_writer_scripts(w.dist, spec);
  return w;
}

mcs::ScenarioRunResult reference_run(mcs::ProtocolKind kind,
                                     const Workload& w) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &w.dist;
  config.scripts = &w.scripts;
  return mcs::run(std::move(config));
}

mcs::EngineConfig socket_config(mcs::ProtocolKind kind, const Workload& w) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &w.dist;
  config.scripts = &w.scripts;
  config.runtime = mcs::EngineRuntime::kSockets;
  return config;
}

// ---------------------------------------------------------------------------
// All nine protocols complete a loopback run on the sockets root with
// exact model-level conservation and the reference final replica state.
// ---------------------------------------------------------------------------

TEST(Sockets, EveryProtocolConvergesOverLoopback) {
  const Workload w = make_workload(4, 6, 3);
  for (const mcs::ProtocolKind kind : mcs::all_protocols()) {
    SCOPED_TRACE(mcs::to_string(kind));
    const auto ref = reference_run(kind, w);
    const auto r = mcs::run(socket_config(kind, w));

    EXPECT_FALSE(r.used_reliable_transport);  // lossless => raw socket root
    EXPECT_EQ(r.unfinished_clients, 0u);
    EXPECT_TRUE(r.dead_channels.empty());
    // Lossless wire: every modelled message sent was received.
    EXPECT_EQ(r.total_traffic.msgs_sent, r.total_traffic.msgs_received);
    EXPECT_EQ(r.total_traffic.msgs_sent, ref.total_traffic.msgs_sent);
    // Real frames actually crossed the loopback sockets.
    EXPECT_GT(r.socket_counters.frames_sent, 0u);
    EXPECT_EQ(r.socket_counters.frames_sent, r.socket_counters.frames_received);
    EXPECT_GT(r.socket_counters.bytes_sent, 0u);
    // Wall-clock timing differs; final replica contents must not.
    EXPECT_EQ(r.final_replicas, ref.final_replicas);
  }
}

// ---------------------------------------------------------------------------
// The decorator stacks (ARQ, batching, both stacking orders) compose
// above the socket root exactly as above the simulator.
// ---------------------------------------------------------------------------

TEST(Sockets, TransportStacksComposeAboveSocketRoot) {
  const Workload w = make_workload(3, 6, 7);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kPramPartial;
  const auto ref = reference_run(kind, w);

  struct Case {
    const char* name;
    mcs::ReliabilityMode reliability;
    Duration window;
    mcs::BatchPlacement placement;
  };
  const Case cases[] = {
      {"arq-only", mcs::ReliabilityMode::kAlways, Duration{},
       mcs::BatchPlacement::kAboveReliable},
      {"batching-only", mcs::ReliabilityMode::kAuto, millis(1),
       mcs::BatchPlacement::kAboveReliable},
      {"batching-over-arq", mcs::ReliabilityMode::kAlways, millis(1),
       mcs::BatchPlacement::kAboveReliable},
      {"arq-over-batching", mcs::ReliabilityMode::kAlways, millis(1),
       mcs::BatchPlacement::kBelowReliable},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    mcs::EngineConfig config = socket_config(kind, w);
    config.reliability = c.reliability;
    config.batching.window = c.window;
    config.batch_placement = c.placement;
    const auto r = mcs::run(std::move(config));

    EXPECT_EQ(r.used_reliable_transport,
              c.reliability == mcs::ReliabilityMode::kAlways);
    if (c.window.us > 0) {
      EXPECT_GT(r.batching.frames_sent, 0u);
    }
    EXPECT_EQ(r.unfinished_clients, 0u);
    EXPECT_EQ(r.final_replicas, ref.final_replicas);
  }
}

// ---------------------------------------------------------------------------
// Consistency under genuine preemptive parallelism: every process runs on
// its own mailbox thread, so executions are nondeterministic.  The
// assertions are the same consistency properties as the simulator suite —
// they must hold for *every* interleaving the OS produces.
// ---------------------------------------------------------------------------

mcs::ScenarioRunResult run_on_sockets(mcs::ProtocolKind kind,
                                      const graph::Distribution& dist,
                                      const std::vector<mcs::Script>& scripts) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &dist;
  config.scripts = &scripts;
  config.runtime = mcs::EngineRuntime::kSockets;
  config.reliability = mcs::ReliabilityMode::kNever;
  auto result = mcs::run(std::move(config));
  // The history holds completed ops only: a scripted op whose completion
  // never came would vanish from it and leave every check vacuous there.
  EXPECT_EQ(result.unfinished_clients, 0u);
  for (std::size_t p = 0; p < scripts.size(); ++p) {
    EXPECT_EQ(result.history.ops_of(static_cast<ProcessId>(p)).size(),
              scripts[p].size())
        << "p" << p << " has unrecorded scripted ops";
  }
  return result;
}

class ThreadedProtocol : public ::testing::TestWithParam<mcs::ProtocolKind> {
};

TEST_P(ThreadedProtocol, ConsistencyHoldsUnderRealThreads) {
  using hist::Criterion;
  const mcs::ProtocolKind kind = GetParam();
  const auto dist = graph::topo::random_replication(4, 3, 2, 17);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.read_fraction = 0.5;
  spec.seed = 23;
  const auto scripts = mcs::make_random_scripts(dist, spec);

  const auto result = run_on_sockets(kind, dist, scripts);

  std::vector<Criterion> required;
  switch (mcs::guarantee_of(kind)) {
    case mcs::GuaranteeLevel::kAtomic:
    case mcs::GuaranteeLevel::kSequential:
      required = {Criterion::kSequential};
      break;
    case mcs::GuaranteeLevel::kCausal:
      required = {Criterion::kCausal};
      break;
    case mcs::GuaranteeLevel::kProcessor:
      required = {Criterion::kPram, Criterion::kCache};
      break;
    case mcs::GuaranteeLevel::kPram:
      required = {Criterion::kPram};
      break;
    case mcs::GuaranteeLevel::kCache:
      required = {Criterion::kCache};
      break;
    case mcs::GuaranteeLevel::kSlow:
      required = {Criterion::kSlow};
      break;
  }
  for (Criterion c : required) {
    const auto check = hist::check_history(result.history, c);
    EXPECT_TRUE(check.definitive);
    EXPECT_TRUE(check.consistent)
        << mcs::to_string(kind) << " violated " << hist::to_string(c)
        << " over sockets:\n"
        << result.history.to_string();
  }
}

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(All, ThreadedProtocol,
                         ::testing::ValuesIn(mcs::all_protocols()),
                         [](const auto& info) {
                           return sanitize(mcs::to_string(info.param));
                         });

TEST(Sockets, AtomicHomeLinearizableUnderRealThreads) {
  const auto dist = graph::topo::random_replication(4, 3, 2, 29);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 10;
  spec.read_fraction = 0.6;
  spec.seed = 31;
  const auto scripts = mcs::make_random_scripts(dist, spec);
  const auto result =
      run_on_sockets(mcs::ProtocolKind::kAtomicHome, dist, scripts);
  const auto lin = hist::check_linearizable(result.history);
  EXPECT_TRUE(lin.definitive);
  EXPECT_TRUE(lin.linearizable) << result.history.to_string();
}

TEST(Sockets, PramExposureConfinedToCliqueUnderRealThreads) {
  const auto dist = graph::topo::chain_with_hoop(5);
  std::vector<mcs::Script> scripts(dist.process_count());
  Value v = 1;
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    for (VarId x : dist.per_process[p]) {
      scripts[p].push_back(mcs::ScriptOp::write(x, v++));
      scripts[p].push_back(mcs::ScriptOp::read(x));
    }
  }
  const auto result =
      run_on_sockets(mcs::ProtocolKind::kPramPartial, dist, scripts);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto clique = dist.replicas_of(static_cast<VarId>(x));
    const std::set<ProcessId> cset(clique.begin(), clique.end());
    for (ProcessId p : result.observed_relevant[x]) {
      EXPECT_TRUE(cset.count(p)) << "x" << x << " leaked to p" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos injection: frame drops/duplicates at the socket layer force the
// run through ARQ (ReliabilityMode::kAuto), which repairs them — same
// liveness story as simulated channel loss, now on a real wire.
// ---------------------------------------------------------------------------

TEST(Sockets, ChaosLossAutoRoutesThroughArqAndConverges) {
  const Workload w = make_workload(3, 10, 11);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kPramPartial;
  const auto ref = reference_run(kind, w);

  mcs::EngineConfig config = socket_config(kind, w);
  config.sockets.chaos.drop_probability = 0.15;
  config.sockets.chaos.duplicate_probability = 0.05;
  const auto r = mcs::run(std::move(config));

  EXPECT_TRUE(r.used_reliable_transport);
  EXPECT_GT(r.socket_counters.chaos_drops, 0u);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_EQ(r.unfinished_clients, 0u);
  EXPECT_TRUE(r.dead_channels.empty());
  EXPECT_EQ(r.final_replicas, ref.final_replicas);
}

// Deliberate mid-stream disconnects exercise reconnection with backoff.
// The frame that triggers the close still arrives and queued frames are
// retained across the reconnect, so a disconnect-only chaos run loses
// nothing and needs no ARQ.
TEST(Sockets, MidStreamDisconnectsReconnectWithoutLoss) {
  const Workload w = make_workload(3, 8, 13);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kCausalPartialNaive;
  const auto ref = reference_run(kind, w);

  mcs::EngineConfig config = socket_config(kind, w);
  config.sockets.chaos.disconnect_probability = 0.2;
  const auto r = mcs::run(std::move(config));

  EXPECT_FALSE(r.used_reliable_transport);
  EXPECT_GT(r.socket_counters.chaos_disconnects, 0u);
  EXPECT_GT(r.socket_counters.reconnects, 0u);
  EXPECT_EQ(r.total_traffic.msgs_sent, r.total_traffic.msgs_received);
  EXPECT_EQ(r.unfinished_clients, 0u);
  EXPECT_EQ(r.final_replicas, ref.final_replicas);
}

// ---------------------------------------------------------------------------
// Scenario replay on the wall clock: a crash/recover window maps onto
// set_down() + the McsProcess crash()/recover() + RSYNC machinery.
// Chaos delays keep updates in flight across the crash window, so the
// downed process genuinely misses traffic.  The contract pinned here:
//
//   * the socket layer suppresses those deliveries *below* the ARQ shims
//     (drops.down) — never above them, where the ack would already have
//     been sent and the message lost for good;
//   * the ARQ backlog repairs every missed message after recovery
//     (retransmissions), so the run converges and the victim's in-flight
//     operation completes late instead of stranding its client;
//   * the RSYNC handshake runs (resync_messages, recovery latency) but
//     adopts nothing: its response from the home rides the same ARQ FIFO
//     pair as the dropped commits, so the repaired backlog always lands
//     first and the never-regress rule refuses the then-stale-equal
//     copies.  Fail-pause crashes keep replica state; RSYNC *adoption* is
//     for real state loss — the multi-process SIGKILL drill below, where
//     pardsm_node requires resync_applied > 0.
// ---------------------------------------------------------------------------

TEST(Sockets, ScenarioCrashRecoverRepairsBelowArqOverSockets) {
  const Workload w = make_workload(3, 6, 5);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kCachePartial;
  const auto ref = reference_run(kind, w);

  Scenario scenario("socket-crash");
  scenario.crash(2, after(millis(15)), after(millis(200)));

  mcs::EngineConfig config = socket_config(kind, w);
  config.scenario = &scenario;
  // Every frame rides a 20-60ms head-of-line delay: traffic issued before
  // the crash at 15ms arrives inside the window and is dropped as "down".
  config.sockets.chaos.delay_min = millis(20);
  config.sockets.chaos.delay_max = millis(60);
  const auto r = mcs::run(std::move(config));

  EXPECT_TRUE(r.used_reliable_transport);  // faulty scenario => ARQ
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_GT(r.drops.down, 0u);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_GT(r.resync_messages, 0u);
  EXPECT_GT(r.max_recovery_latency.us, 0);
  EXPECT_EQ(r.resync_values_applied, 0u);
  EXPECT_EQ(r.unfinished_clients, 0u);
  EXPECT_EQ(r.final_replicas, ref.final_replicas);
}

// A timeline naming a process outside the system is rejected before any
// socket opens or mailbox thread starts.
TEST(Sockets, ScenarioOutsideTheSystemIsRejected) {
  const Workload w = make_workload(3, 6, 5);
  Scenario scenario("outside");
  scenario.crash(3, after(millis(1)), after(millis(2)));

  mcs::EngineConfig config = socket_config(mcs::ProtocolKind::kPramPartial, w);
  config.scenario = &scenario;
  EXPECT_THROW((void)mcs::run(std::move(config)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Heartbeat failure detector, observed directly on two multi-process-
// shaped transports in one test process: peer up on first HELLO, down
// after silence past heartbeat_timeout, up again with a bumped
// incarnation when a "respawned" transport rebinds the same listener.
// ---------------------------------------------------------------------------

int bind_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 16), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

bool wait_for(const std::function<bool()>& pred,
              std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

struct Sink final : Endpoint {
  void on_message(const Message&) override {}
};

TEST(Sockets, HeartbeatDetectorTracksPeerLifecycle) {
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  const int fd_a = bind_listener(&port_a);
  const int fd_b = bind_listener(&port_b);

  const auto options = [&](ProcessId me, int fd, std::uint64_t incarnation) {
    SocketOptions o;
    o.total_processes = 2;
    o.local_ids = {me};
    o.addrs = {"127.0.0.1:" + std::to_string(port_a),
               "127.0.0.1:" + std::to_string(port_b)};
    o.listen_fd = ::dup(fd);  // the test keeps the original, like pardsm_node
    o.incarnation = incarnation;
    o.heartbeat_period = millis(10);
    o.heartbeat_timeout = millis(80);
    return o;
  };

  Sink ea;
  SocketTransport a(options(0, fd_a, 1));
  a.add_endpoint(&ea);
  std::atomic<int> downs{0};
  std::atomic<int> ups{0};
  a.set_peer_callback([&](ProcessId peer, bool up, std::uint64_t) {
    if (peer != 1) return;
    if (up) {
      ++ups;
    } else {
      ++downs;
    }
  });
  a.start();

  // First incarnation of the peer comes up.
  Sink eb1;
  auto b1 = std::make_unique<SocketTransport>(options(1, fd_b, 1));
  b1->add_endpoint(&eb1);
  b1->start();
  EXPECT_TRUE(wait_for([&] { return a.peer_incarnation(1) == 1; }));
  EXPECT_TRUE(a.peer_up(1));

  // Silence (stopped peer) is declared down after heartbeat_timeout.
  b1->stop();
  b1.reset();
  EXPECT_TRUE(wait_for([&] { return !a.peer_up(1); }));
  EXPECT_GE(downs.load(), 1);

  // A respawned incarnation on the same listener is detected as up again,
  // with the bumped incarnation from its HELLO.
  Sink eb2;
  SocketTransport b2(options(1, fd_b, 2));
  b2.add_endpoint(&eb2);
  b2.start();
  EXPECT_TRUE(
      wait_for([&] { return a.peer_up(1) && a.peer_incarnation(1) == 2; }));
  EXPECT_GE(ups.load(), 1);
  EXPECT_GT(a.counters().heartbeats_received, 0u);

  b2.stop();
  a.stop();
  ::close(fd_a);
  ::close(fd_b);
}

// ---------------------------------------------------------------------------
// Multi-process deployment via the pardsm_node bootstrap: real fork/exec
// node processes over loopback.  The binary itself asserts conservation
// (lossless runs) and convergence against the simulator reference, and
// exits non-zero on any violation — the test just drives it.
// ---------------------------------------------------------------------------

#ifdef PARDSM_NODE_BINARY

int run_bootstrap(const std::string& args) {
  const std::string cmd = std::string(PARDSM_NODE_BINARY) + " --spawn " + args;
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(Sockets, MultiProcessLosslessRunsConserve) {
  for (const char* protocol : {"pram-partial", "sequencer-sc"}) {
    SCOPED_TRACE(protocol);
    EXPECT_EQ(run_bootstrap("--protocol " + std::string(protocol) +
                            " --nodes 3 --writes 4 --delay-us 1000"),
              0);
  }
}

// SIGKILL drill: node 2 is killed mid-run and respawned with a bumped
// incarnation on the parent-held listener; the binary requires heartbeat
// down/up detection, reconnection, applied RSYNC entries and final
// replica convergence before exiting 0.  cache-partial because its
// resync adopts home-served entries (docs/DEPLOYMENT.md — pram's
// writer-only adoption cannot fully restore a killed node without ARQ).
TEST(Sockets, MultiProcessKillDrillRecoversAndConverges) {
  EXPECT_EQ(run_bootstrap("--protocol cache-partial --nodes 3 --writes 5 "
                          "--delay-us 2000 --kill 2 --kill-after-ms 120 "
                          "--respawn-after-ms 350"),
            0);
}

#endif  // PARDSM_NODE_BINARY

}  // namespace
}  // namespace pardsm
