// Determinism regression for the parallel engine: five runs of the same
// (config, seed) must produce byte-identical result ledgers — history,
// traffic, exposure, replica contents, event count, finish time, and for
// scenario runs the drop counters and ARQ ledger too.  The parallel
// engine's entire claim is that physical scheduling (thread wakeup order,
// OS jitter) never reaches logical results; this suite is the regression
// tripwire for that claim, run both lossless and under a lossy healing
// scenario where drop bookkeeping is racy if anything at all is racy.

#include <gtest/gtest.h>

#include <sstream>

#include "mcs/driver.h"
#include "scenario_families.h"
#include "sharegraph/topologies.h"

namespace pardsm::mcs {
namespace {

constexpr int kRuns = 5;

/// Serialize everything observable about a run into one comparable blob.
std::string ledger(const RunResult& r) {
  std::ostringstream out;
  out << r.history.to_string() << '\n';
  const auto traffic = [&out](const ProcessTraffic& t) {
    out << t.msgs_sent << ' ' << t.msgs_received << ' '
        << t.control_bytes_sent << ' ' << t.control_bytes_received << ' '
        << t.payload_bytes_sent << ' ' << t.payload_bytes_received << '\n';
  };
  traffic(r.total_traffic);
  for (const auto& t : r.per_process_traffic) traffic(t);
  for (const auto& observers : r.observed_relevant) {
    for (ProcessId p : observers) out << p << ' ';
    out << '\n';
  }
  for (const auto& replica : r.final_replicas) {
    for (const auto& e : replica) {
      out << e.x << '=' << e.value << '@' << e.source.writer << ':'
          << e.source.seq << ' ';
    }
    out << '\n';
  }
  out << r.events << ' ' << r.finished_at.us << ' '
      << r.active_channel_pairs << ' ' << r.channel_state_bytes << '\n';
  out << r.used_reliable_transport << ' ' << r.retransmissions << '\n';
  out << r.drops.loss << ' ' << r.drops.severed << ' ' << r.drops.down
      << ' ' << r.drops.in_flight << '\n';
  out << r.crashes << ' ' << r.resync_messages << ' ' << r.resync_bytes
      << ' ' << r.resync_values_applied << ' '
      << r.max_recovery_latency.us << '\n';
  return out.str();
}

class ParallelDeterminism : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ParallelDeterminism, FiveLosslessRunsAreByteIdentical) {
  const ProtocolKind kind = GetParam();
  const auto dist = graph::topo::sharded(3, 3, 6);

  WorkloadSpec spec;
  spec.ops_per_process = 4;
  spec.read_fraction = 0.4;
  spec.seed = 42;
  spec.think_time = millis(1);
  const auto scripts = make_random_scripts(dist, spec);

  std::string first;
  for (int i = 0; i < kRuns; ++i) {
    const std::string got = ledger(run(
        {.protocol = kind,
         .distribution = &dist,
         .scripts = &scripts,
         .runtime = EngineRuntime::kParallelSim,
         .sim_seed = 7,
         .latency = std::make_unique<UniformLatency>(millis(1), millis(4)),
         .parallel = {.num_threads = 4}}));
    if (i == 0) {
      first = got;
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(got, first) << "run " << i << " diverged";
    }
  }
}

TEST_P(ParallelDeterminism, FiveLossyScenarioRunsAreByteIdentical) {
  const ProtocolKind kind = GetParam();
  const auto dist = graph::topo::clusters(2, 3, true);

  WorkloadSpec spec;
  spec.ops_per_process = 4;
  spec.read_fraction = 0.4;
  spec.seed = 99;
  spec.think_time = millis(1);
  const auto scripts = make_single_writer_scripts(dist, spec);

  const Scenario scenario =
      golden::make_fault_scenario(golden::FaultFamily::kLoss, 0.15);

  std::string first;
  std::uint64_t dropped = 0;
  for (int i = 0; i < kRuns; ++i) {
    const RunResult r = run({.protocol = kind,
                             .distribution = &dist,
                             .scripts = &scripts,
                             .scenario = &scenario,
                             .runtime = EngineRuntime::kParallelSim,
                             .sim_seed = 13,
                             .parallel = {.num_threads = 4}});
    const std::string got = ledger(r);
    if (i == 0) {
      first = got;
      dropped = r.drops.total();
      EXPECT_TRUE(r.used_reliable_transport);
    } else {
      EXPECT_EQ(got, first) << "run " << i << " diverged";
    }
  }
  // The scenario must actually exercise the drop bookkeeping, or the
  // "including drop counters" half of this regression is vacuous.
  EXPECT_GT(dropped, 0u);
}

std::string determinism_name(
    const ::testing::TestParamInfo<ProtocolKind>& info) {
  std::string s = to_string(info.param);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ParallelDeterminism,
                         ::testing::ValuesIn(all_protocols()),
                         determinism_name);

}  // namespace
}  // namespace pardsm::mcs
