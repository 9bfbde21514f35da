// Parameterized property sweeps across the whole protocol × topology ×
// seed space — the repository's broadest correctness net.
//
// Invariants checked on every combination:
//   P1  recorded history satisfies the protocol's weakest criterion;
//   P2  metadata exposure never exceeds the protocol's predicted reach
//       (C(x) for pram/slow/cache/processor/atomic, R(x) for ad-hoc);
//   P3  traffic accounting balances (received <= sent; no phantom bytes);
//   P4  read provenance resolves exactly;
//   P5  simulator runs are reproducible bit-for-bit per seed.
//
// The FaultySweep suite re-checks P1–P5 with a scenario axis — channel
// loss, a partition/heal cycle, a crash/recover cycle — with the system
// routed through ReliableTransport: faults must cost retransmissions and
// recovery traffic, never consistency, provenance or determinism.

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/hoops.h"
#include "sharegraph/topologies.h"
#include "simnet/scenario.h"

#include "scenario_families.h"

namespace pardsm::mcs {
namespace {

using graph::Distribution;
using hist::Criterion;

enum class Topo {
  kChainHoop,
  kStar,
  kRing,
  kClusters,
  kRandom,
  kHypercube,
  kTorus,
  kPrefAttach,
};

Distribution make_topo(Topo t, std::uint64_t seed) {
  switch (t) {
    case Topo::kChainHoop:
      return graph::topo::chain_with_hoop(5);
    case Topo::kStar:
      return graph::topo::star(4);
    case Topo::kRing:
      return graph::topo::ring(5);
    case Topo::kClusters:
      return graph::topo::clusters(2, 3, true);
    case Topo::kRandom:
      return graph::topo::random_replication(6, 5, 2, seed);
    case Topo::kHypercube:
      return graph::topo::hypercube(3);
    case Topo::kTorus:
      return graph::topo::torus(3, 3);
    case Topo::kPrefAttach:
      return graph::topo::preferential_attachment(7, 2, seed);
  }
  return graph::topo::complete(3, 2);
}

const char* topo_name(Topo t) {
  switch (t) {
    case Topo::kChainHoop:
      return "chain";
    case Topo::kStar:
      return "star";
    case Topo::kRing:
      return "ring";
    case Topo::kClusters:
      return "clusters";
    case Topo::kRandom:
      return "random";
    case Topo::kHypercube:
      return "hypercube";
    case Topo::kTorus:
      return "torus";
    case Topo::kPrefAttach:
      return "prefattach";
  }
  return "?";
}

Criterion weakest_criterion(ProtocolKind kind) {
  switch (guarantee_of(kind)) {
    case GuaranteeLevel::kAtomic:
    case GuaranteeLevel::kSequential:
      return Criterion::kSequential;
    case GuaranteeLevel::kCausal:
      return Criterion::kCausal;
    case GuaranteeLevel::kProcessor:
    case GuaranteeLevel::kPram:
      return Criterion::kPram;
    case GuaranteeLevel::kCache:
      return Criterion::kCache;
    case GuaranteeLevel::kSlow:
      return Criterion::kSlow;
  }
  return Criterion::kSlow;
}

/// Protocols whose metadata must stay inside C(x).
bool clique_confined(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kPramPartial:
    case ProtocolKind::kSlowPartial:
    case ProtocolKind::kCachePartial:
    case ProtocolKind::kProcessorPartial:
    case ProtocolKind::kAtomicHome:
      return true;
    default:
      return false;
  }
}

class PropertySweep
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, Topo, int>> {};

TEST_P(PropertySweep, InvariantsHold) {
  const auto [kind, topo, seed] = GetParam();
  const auto dist = make_topo(topo, static_cast<std::uint64_t>(seed));

  WorkloadSpec spec;
  spec.ops_per_process = 4;
  spec.read_fraction = 0.5;
  spec.seed = static_cast<std::uint64_t>(seed) * 131 + 7;
  const auto scripts = make_random_scripts(dist, spec);

  const auto run = [&] {
    return mcs::run(
        {.protocol = kind,
         .distribution = &dist,
         .scripts = &scripts,
         .sim_seed = static_cast<std::uint64_t>(seed),
         .latency = std::make_unique<UniformLatency>(millis(1), millis(9))});
  };
  const auto result = run();

  // P1: weakest-criterion consistency.
  const auto check = hist::check_history(result.history,
                                         weakest_criterion(kind));
  EXPECT_TRUE(check.definitive);
  EXPECT_TRUE(check.consistent)
      << to_string(kind) << " on " << topo_name(topo) << " seed " << seed
      << "\n" << result.history.to_string();

  // P2: exposure bounds.
  const graph::ShareGraph sg(dist);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto xv = static_cast<VarId>(x);
    std::set<ProcessId> bound;
    if (clique_confined(kind)) {
      const auto clique = sg.clique(xv);
      bound.insert(clique.begin(), clique.end());
    } else if (kind == ProtocolKind::kCausalPartialAdHoc) {
      bound = graph::x_relevant(sg, xv);
    } else {
      continue;  // gossip/centralised protocols may reach anyone
    }
    for (ProcessId p : result.observed_relevant[x]) {
      EXPECT_TRUE(bound.count(p))
          << to_string(kind) << " on " << topo_name(topo) << ": x" << x
          << " metadata reached p" << p;
    }
  }

  // P3: accounting sanity.
  EXPECT_LE(result.total_traffic.msgs_received,
            result.total_traffic.msgs_sent);
  EXPECT_LE(result.total_traffic.control_bytes_received,
            result.total_traffic.control_bytes_sent);

  // P4: provenance.
  EXPECT_TRUE(result.history.read_from_resolvable());

  // P5: determinism.
  const auto again = run();
  EXPECT_EQ(result.history.to_string(), again.history.to_string());
  EXPECT_EQ(result.total_traffic.msgs_sent, again.total_traffic.msgs_sent);
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, Topo, int>>&
        info) {
  std::string s = to_string(std::get<0>(info.param));
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_" + topo_name(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Everything, PropertySweep,
    ::testing::Combine(::testing::ValuesIn(all_protocols()),
                       ::testing::Values(Topo::kChainHoop, Topo::kStar,
                                         Topo::kRing, Topo::kClusters,
                                         Topo::kRandom, Topo::kHypercube,
                                         Topo::kTorus, Topo::kPrefAttach),
                       ::testing::Values(1, 2)),
    sweep_name);

// ------------------------------------------------ fault-aware sweep
//
// Same invariants, now with the channel actively hostile.  One topology
// (two bridged clusters, 6 processes) keeps the suite fast; the scenario
// axis is where the diversity lives.

using golden::FaultFamily;
using golden::family_name;

class FaultySweep
    : public ::testing::TestWithParam<
          std::tuple<ProtocolKind, FaultFamily, int>> {};

TEST_P(FaultySweep, InvariantsHoldUnderFaults) {
  const auto [kind, fault, seed] = GetParam();
  const auto dist = graph::topo::clusters(2, 3, true);

  WorkloadSpec spec;
  spec.ops_per_process = 5;
  spec.read_fraction = 0.5;
  spec.seed = static_cast<std::uint64_t>(seed) * 389 + 3;
  spec.think_time = millis(1);  // ops overlap the fault windows
  const auto scripts = make_random_scripts(dist, spec);

  const Scenario scenario = golden::make_fault_scenario(fault, 0.05);
  const auto run = [&, kind = kind, seed = seed] {
    return mcs::run(
        {.protocol = kind,
         .distribution = &dist,
         .scripts = &scripts,
         .scenario = &scenario,
         .sim_seed = static_cast<std::uint64_t>(seed),
         .latency = std::make_unique<UniformLatency>(millis(1), millis(4))});
  };
  const auto result = run();
  EXPECT_TRUE(result.used_reliable_transport);

  // P1: weakest-criterion consistency survives the faults.
  const auto check =
      hist::check_history(result.history, weakest_criterion(kind));
  EXPECT_TRUE(check.definitive);
  EXPECT_TRUE(check.consistent)
      << to_string(kind) << " under " << family_name(fault) << " seed "
      << seed << "\n"
      << result.history.to_string();

  // P2: exposure bounds hold for protocol, ARQ and re-sync traffic alike.
  const graph::ShareGraph sg(dist);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto xv = static_cast<VarId>(x);
    std::set<ProcessId> bound;
    if (clique_confined(kind)) {
      const auto clique = sg.clique(xv);
      bound.insert(clique.begin(), clique.end());
    } else if (kind == ProtocolKind::kCausalPartialAdHoc) {
      bound = graph::x_relevant(sg, xv);
    } else {
      continue;
    }
    for (ProcessId p : result.observed_relevant[x]) {
      EXPECT_TRUE(bound.count(p))
          << to_string(kind) << " under " << family_name(fault) << ": x" << x
          << " metadata reached p" << p;
    }
  }

  // P3: accounting sanity (drops mean received <= sent, never the reverse).
  EXPECT_LE(result.total_traffic.msgs_received,
            result.total_traffic.msgs_sent);
  EXPECT_LE(result.total_traffic.control_bytes_received,
            result.total_traffic.control_bytes_sent);

  // P4: provenance still exact.
  EXPECT_TRUE(result.history.read_from_resolvable());

  // Fault machinery actually engaged.
  EXPECT_GT(result.drops.total(), 0u) << family_name(fault);
  if (fault == FaultFamily::kCrash) {
    EXPECT_EQ(result.crashes, 1u);
    EXPECT_GT(result.resync_messages, 0u);
  }

  // P5: bit-for-bit determinism.
  const auto again = run();
  EXPECT_EQ(result.history.to_string(), again.history.to_string());
  EXPECT_EQ(result.total_traffic.msgs_sent, again.total_traffic.msgs_sent);
  EXPECT_EQ(result.retransmissions, again.retransmissions);
}

std::string faulty_name(
    const ::testing::TestParamInfo<
        std::tuple<ProtocolKind, FaultFamily, int>>& info) {
  std::string s = to_string(std::get<0>(info.param));
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_" + family_name(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Everything, FaultySweep,
    ::testing::Combine(::testing::ValuesIn(all_protocols()),
                       ::testing::Values(FaultFamily::kLoss,
                                         FaultFamily::kPartition,
                                         FaultFamily::kCrash),
                       ::testing::Values(1, 2)),
    faulty_name);

// New topology generators: structural sanity.
TEST(NewTopologies, HypercubeStructure) {
  const auto d = graph::topo::hypercube(3);
  EXPECT_EQ(d.process_count(), 8u);
  EXPECT_EQ(d.var_count, 12u);  // d * 2^d / 2 edges
  const graph::ShareGraph sg(d);
  EXPECT_EQ(sg.edge_count(), 12u);
  for (ProcessId p = 0; p < 8; ++p) {
    EXPECT_EQ(sg.neighbours(p).size(), 3u);
  }
  // Every edge variable has a hoop (the cube is 3-connected).
  EXPECT_TRUE(graph::hoop_exists(sg, 0));
}

TEST(NewTopologies, TorusStructure) {
  const auto d = graph::topo::torus(3, 4);
  EXPECT_EQ(d.process_count(), 12u);
  EXPECT_EQ(d.var_count, 24u);  // 2 edges per vertex
  const graph::ShareGraph sg(d);
  for (ProcessId p = 0; p < 12; ++p) {
    EXPECT_EQ(sg.neighbours(p).size(), 4u);
  }
}

TEST(NewTopologies, PreferentialAttachmentConnectedAndDeterministic) {
  const auto a = graph::topo::preferential_attachment(12, 2, 5);
  const auto b = graph::topo::preferential_attachment(12, 2, 5);
  EXPECT_EQ(a.per_process, b.per_process);
  const graph::ShareGraph sg(a);
  EXPECT_EQ(sg.components().size(), 1u);
}

}  // namespace
}  // namespace pardsm::mcs
