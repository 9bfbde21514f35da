// P6 — differential convergence: after quiescence and ARQ drain, a faulty
// run ends in exactly the replica state of the lossless run of the same
// workload.
//
// The workload is single-writer (each variable is written only by the
// lowest-id member of its clique), so the final content of every replica
// is a pure function of the scripts: the last write of each variable's
// unique writer, delivered in that writer's FIFO order.  Any update a
// fault destroyed and the recovery machinery (ARQ retransmission +
// crash re-sync) failed to repair shows up as a (value, provenance)
// mismatch against the lossless baseline — per protocol, per seed, per
// scenario family.

#include <gtest/gtest.h>

#include "mcs/driver.h"
#include "scenario_families.h"
#include "sharegraph/topologies.h"
#include "simnet/scenario.h"

namespace pardsm::mcs {
namespace {

using golden::FaultFamily;
using golden::family_name;

/// The canonical family timelines with convergence's loss pairing: a high
/// pure-loss rate, milder background loss for the structural families.
Scenario make_scenario(FaultFamily f) {
  return golden::make_fault_scenario(f,
                                     f == FaultFamily::kLoss ? 0.1 : 0.02);
}

class Convergence
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, FaultFamily, int>> {
};

TEST_P(Convergence, FaultyRunEndsInLosslessReplicaState) {
  const auto [kind, family, seed] = GetParam();
  const auto dist = graph::topo::clusters(2, 3, true);  // 6 processes

  WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.read_fraction = 0.4;
  spec.seed = static_cast<std::uint64_t>(seed) * 977 + 11;
  spec.think_time = millis(1);  // ops overlap the fault windows
  const auto scripts = make_single_writer_scripts(dist, spec);

  const auto baseline = run({.protocol = kind,
                             .distribution = &dist,
                             .scripts = &scripts,
                             .sim_seed = static_cast<std::uint64_t>(seed)});

  const Scenario scenario = make_scenario(family);
  const auto faulty = run({.protocol = kind,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .scenario = &scenario,
                           .sim_seed = static_cast<std::uint64_t>(seed)});

  EXPECT_TRUE(faulty.used_reliable_transport);
  ASSERT_EQ(faulty.final_replicas.size(), baseline.final_replicas.size());
  for (std::size_t p = 0; p < baseline.final_replicas.size(); ++p) {
    const auto& want = baseline.final_replicas[p];
    const auto& got = faulty.final_replicas[p];
    ASSERT_EQ(got.size(), want.size()) << "process " << p;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].x, want[i].x) << "process " << p;
      EXPECT_EQ(got[i].value, want[i].value)
          << to_string(kind) << "/" << family_name(family) << " seed "
          << seed << ": process " << p << " x" << want[i].x
          << " diverged (fault not repaired)";
      EXPECT_EQ(got[i].source, want[i].source)
          << to_string(kind) << "/" << family_name(family) << " seed "
          << seed << ": process " << p << " x" << want[i].x
          << " provenance diverged";
    }
  }
}

std::string convergence_name(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, FaultFamily, int>>&
        info) {
  std::string s = to_string(std::get<0>(info.param));
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_" + family_name(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, Convergence,
    ::testing::Combine(::testing::ValuesIn(all_protocols()),
                       ::testing::Values(FaultFamily::kLoss,
                                         FaultFamily::kPartition,
                                         FaultFamily::kCrash),
                       ::testing::Values(1, 2, 3)),
    convergence_name);

}  // namespace
}  // namespace pardsm::mcs
