// Theorems 1 and 2, measured: which processes *observably* handle
// information about each variable under each protocol.
//
// The paper's x-relevant notion is empirically the set of processes that
// receive messages whose metadata mentions x (NetworkStats exposure).
// Predictions:
//   causal-full           : every process, for every written variable
//   causal-partial-naive  : every process, for every written variable
//   causal-partial-adhoc  : exactly within R(x) = C(x) ∪ hoop members
//   pram-partial / slow   : within C(x) only            (Theorem 2)
//   sequencer-sc          : C(x) plus the sequencer     (centralisation)
//   atomic-home           : within C(x) only, but reads are not wait-free

#include <gtest/gtest.h>

#include "mcs/driver.h"
#include "sharegraph/hoops.h"
#include "sharegraph/topologies.h"

namespace pardsm::mcs {
namespace {

using graph::Distribution;

/// Scripts where every process writes each of its variables once then
/// reads them once — guarantees every variable is exercised.
std::vector<Script> exhaustive_scripts(const Distribution& dist) {
  std::vector<Script> scripts(dist.process_count());
  Value v = 1;
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    for (VarId x : dist.per_process[p]) {
      scripts[p].push_back(ScriptOp::write(x, v++));
    }
    for (VarId x : dist.per_process[p]) {
      scripts[p].push_back(ScriptOp::read(x));
    }
  }
  return scripts;
}

RunResult run(ProtocolKind kind, const Distribution& dist) {
  const auto scripts = exhaustive_scripts(dist);
  return mcs::run(
      {.protocol = kind,
       .distribution = &dist,
       .scripts = &scripts,
       .sim_seed = 7,
       .latency = std::make_unique<UniformLatency>(millis(1), millis(10))});
}

std::vector<Distribution> corpus() {
  return {
      graph::topo::chain_with_hoop(5),
      graph::topo::star(4),
      graph::topo::ring(5),
      graph::topo::clusters(3, 2, /*cyclic=*/true),
      graph::topo::random_replication(6, 5, 2, 31),
  };
}

TEST(Theorem2, PramExposureConfinedToClique) {
  for (const auto& dist : corpus()) {
    const auto result = run(ProtocolKind::kPramPartial, dist);
    for (std::size_t x = 0; x < dist.var_count; ++x) {
      const auto clique = dist.replicas_of(static_cast<VarId>(x));
      const std::set<ProcessId> cset(clique.begin(), clique.end());
      for (ProcessId p : result.observed_relevant[x]) {
        EXPECT_TRUE(cset.count(p))
            << dist.name << ": PRAM leaked x" << x << " metadata to p" << p;
      }
    }
  }
}

TEST(Theorem2, SlowExposureConfinedToClique) {
  for (const auto& dist : corpus()) {
    const auto result = run(ProtocolKind::kSlowPartial, dist);
    for (std::size_t x = 0; x < dist.var_count; ++x) {
      const auto clique = dist.replicas_of(static_cast<VarId>(x));
      const std::set<ProcessId> cset(clique.begin(), clique.end());
      for (ProcessId p : result.observed_relevant[x]) {
        EXPECT_TRUE(cset.count(p)) << dist.name << " x" << x << " p" << p;
      }
    }
  }
}

TEST(Theorem1, NaiveCausalExposesEveryoneToEverything) {
  const auto dist = graph::topo::chain_with_hoop(5);
  const auto result = run(ProtocolKind::kCausalPartialNaive, dist);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    // Every process except (possibly) the writer itself receives metadata;
    // together with C(x) membership the exposure set is all processes.
    std::set<ProcessId> exposed = result.observed_relevant[x];
    for (ProcessId p : dist.replicas_of(static_cast<VarId>(x))) {
      exposed.insert(p);
    }
    EXPECT_EQ(exposed.size(), dist.process_count())
        << dist.name << " x" << x;
  }
}

TEST(Theorem1, FullReplicationExposesEveryoneToEverything) {
  const auto dist = graph::topo::star(4);
  const auto result = run(ProtocolKind::kCausalFull, dist);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    std::set<ProcessId> exposed = result.observed_relevant[x];
    for (ProcessId p : dist.replicas_of(static_cast<VarId>(x))) {
      exposed.insert(p);
    }
    EXPECT_EQ(exposed.size(), dist.process_count());
  }
}

TEST(Theorem1, AdHocExposureMatchesRelevantSets) {
  for (const auto& dist : corpus()) {
    const graph::ShareGraph sg(dist);
    const auto result = run(ProtocolKind::kCausalPartialAdHoc, dist);
    for (std::size_t x = 0; x < dist.var_count; ++x) {
      const auto xv = static_cast<VarId>(x);
      const auto relevant = graph::x_relevant(sg, xv);
      // Exposure must stay inside R(x) (Theorem 1 upper bound) ...
      for (ProcessId p : result.observed_relevant[x]) {
        EXPECT_TRUE(relevant.count(p))
            << dist.name << ": adhoc leaked x" << x << " to p" << p;
      }
      // ... and since every process wrote every variable it holds, every
      // non-writer member of R(x) was in fact told about x.
      for (ProcessId p : relevant) {
        const auto clique = dist.replicas_of(xv);
        const bool is_sole_writer = clique.size() == 1 && clique[0] == p;
        if (!is_sole_writer) {
          EXPECT_TRUE(result.observed_relevant[x].count(p) ||
                      std::find(clique.begin(), clique.end(), p) ==
                          clique.end())
              << dist.name << ": R(x" << x << ") member p" << p
              << " never heard about x";
        }
      }
    }
  }
}

TEST(Theorem1, AdHocStrictlyCheaperThanNaiveWhenHoopsAreRare) {
  // Open-star spokes have no hoops except through the leaf-leaf variable;
  // the ad-hoc protocol should send strictly fewer messages & bytes.
  const auto dist = graph::topo::star(6);
  const auto naive = run(ProtocolKind::kCausalPartialNaive, dist);
  const auto adhoc = run(ProtocolKind::kCausalPartialAdHoc, dist);
  EXPECT_LT(adhoc.total_traffic.msgs_sent, naive.total_traffic.msgs_sent);
  EXPECT_LT(adhoc.total_traffic.control_bytes_sent,
            naive.total_traffic.control_bytes_sent);
}

TEST(Theorem1, SequencerIsUniversallyRelevant) {
  const auto dist = graph::topo::clusters(3, 2, /*cyclic=*/false);
  const auto result = run(ProtocolKind::kSequencerSC, dist);
  // Every variable written by a non-sequencer process exposes the
  // sequencer (process 0).
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto writers = dist.replicas_of(static_cast<VarId>(x));
    const bool some_nonzero_writer =
        std::any_of(writers.begin(), writers.end(),
                    [](ProcessId p) { return p != 0; });
    if (some_nonzero_writer) {
      EXPECT_TRUE(result.observed_relevant[x].count(0))
          << "sequencer not exposed to x" << x;
    }
  }
}

TEST(Theorem2, PramControlBytesPerUpdateAreConstant) {
  // PRAM control bytes per update must not grow with the system size.
  std::vector<double> per_update;
  for (std::size_t n : {4u, 8u, 16u}) {
    const auto dist = graph::topo::ring(n);
    const auto result = run(ProtocolKind::kPramPartial, dist);
    per_update.push_back(
        static_cast<double>(result.total_traffic.control_bytes_sent) /
        static_cast<double>(result.total_traffic.msgs_sent));
  }
  EXPECT_DOUBLE_EQ(per_update[0], per_update[1]);
  EXPECT_DOUBLE_EQ(per_update[1], per_update[2]);
}

TEST(Theorem1, CausalControlBytesGrowWithSystemSize) {
  // Vector clocks scale with n: control bytes per message strictly grow.
  std::vector<double> per_msg;
  for (std::size_t n : {4u, 8u, 16u}) {
    const auto dist = graph::topo::ring(n);
    const auto result = run(ProtocolKind::kCausalPartialNaive, dist);
    per_msg.push_back(
        static_cast<double>(result.total_traffic.control_bytes_sent) /
        static_cast<double>(result.total_traffic.msgs_sent));
  }
  EXPECT_LT(per_msg[0], per_msg[1]);
  EXPECT_LT(per_msg[1], per_msg[2]);
}

}  // namespace
}  // namespace pardsm::mcs
