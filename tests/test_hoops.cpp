// Hoops (Definition 3), hoop existence / enumeration, and the Theorem 1
// x-relevant characterization.

#include <gtest/gtest.h>

#include <string>

#include "sharegraph/hoops.h"
#include "sharegraph/topologies.h"

namespace pardsm::graph {
namespace {

TEST(Hoops, Fig1HasNoHoops) {
  const ShareGraph sg(topo::fig1());
  EXPECT_FALSE(hoop_exists(sg, 0));
  EXPECT_FALSE(hoop_exists(sg, 1));
  EXPECT_TRUE(enumerate_hoops(sg, 0).hoops.empty());
  EXPECT_TRUE(hoop_members(sg, 0).empty());
}

TEST(Hoops, ChainIsOneHoop) {
  const std::size_t n = 6;
  const ShareGraph sg(topo::chain_with_hoop(n));
  ASSERT_TRUE(hoop_exists(sg, 0));
  const auto e = enumerate_hoops(sg, 0);
  ASSERT_EQ(e.hoops.size(), 1u);
  // The unique x-hoop is the whole chain [0, 1, ..., n-1].
  Hoop expected;
  for (std::size_t i = 0; i < n; ++i) {
    expected.push_back(static_cast<ProcessId>(i));
  }
  EXPECT_EQ(e.hoops.front(), expected);
  // Every interior process is a hoop member.
  const auto members = hoop_members(sg, 0);
  EXPECT_EQ(members.size(), n - 2);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    EXPECT_TRUE(members.count(static_cast<ProcessId>(i))) << i;
  }
}

TEST(Hoops, ChainRelevantSetIsEveryone) {
  const ShareGraph sg(topo::chain_with_hoop(5));
  const auto rel = x_relevant(sg, 0);
  EXPECT_EQ(rel.size(), 5u);  // C(x) = {0,4} plus the interior
}

TEST(Hoops, OpenChainHasNoHoopsAtAll) {
  // In the open chain, C(l_i) = {i, i+1}; removing them disconnects the
  // two sides, so no alternative path exists.
  const ShareGraph sg(topo::open_chain(6));
  for (VarId link = 0; link < 5; ++link) {
    EXPECT_FALSE(hoop_exists(sg, link)) << "link " << link;
    EXPECT_TRUE(hoop_members(sg, link).empty());
  }
}

TEST(Hoops, ClosedChainLinkVariablesHoopAroundTheCycle) {
  // The closing variable x turns the chain into a cycle: every link
  // variable now has a hoop through the far side.
  const ShareGraph sg(topo::chain_with_hoop(6));
  for (VarId link = 1; link < 6; ++link) {
    EXPECT_TRUE(hoop_exists(sg, link)) << "link " << link;
    EXPECT_EQ(hoop_members(sg, link).size(), 4u) << "link " << link;
  }
}

TEST(Hoops, RingEveryVariableHasAHoop) {
  const std::size_t n = 7;
  const ShareGraph sg(topo::ring(n));
  for (VarId x = 0; x < static_cast<VarId>(n); ++x) {
    EXPECT_TRUE(hoop_exists(sg, x)) << "x" << x;
    // The hoop is the rest of the ring: all n-2 other processes.
    EXPECT_EQ(hoop_members(sg, x).size(), n - 2) << "x" << x;
    EXPECT_EQ(x_relevant(sg, x).size(), n) << "x" << x;
  }
}

TEST(Hoops, StarLeafVariableHoopThroughHub) {
  const ShareGraph sg(topo::star(4));
  // The leaf-leaf variable is the last id; C = {p1, p2}; hoop through hub.
  const auto x = static_cast<VarId>(sg.var_count() - 1);
  ASSERT_TRUE(hoop_exists(sg, x));
  const auto members = hoop_members(sg, x);
  EXPECT_EQ(members, (std::set<ProcessId>{0}));  // only the hub
  const auto e = enumerate_hoops(sg, x);
  ASSERT_EQ(e.hoops.size(), 1u);
  EXPECT_EQ(e.hoops.front(), (Hoop{1, 0, 2}));
}

TEST(Hoops, HubSpokeVariablesHaveNoHoops) {
  const ShareGraph sg(topo::star(4));
  // Spoke variable s_3 (hub-leaf3): C = {0, 3}.  Any alternative path from
  // p3 leads only through the hub — but the hub is in C, so no hoop.
  EXPECT_FALSE(hoop_exists(sg, 2));
  EXPECT_TRUE(hoop_members(sg, 2).empty());
}

TEST(Hoops, CompleteReplicationHasNoHoops) {
  const ShareGraph sg(topo::complete(6, 4));
  for (VarId x = 0; x < 4; ++x) {
    EXPECT_FALSE(hoop_exists(sg, x));
    EXPECT_EQ(x_relevant(sg, x).size(), 6u);  // C(x) is everyone already
  }
}

TEST(Hoops, CyclicClustersBridgeVariablesHaveHoops) {
  const ShareGraph sg(topo::clusters(3, 3, /*cyclic=*/true));
  const auto summary = summarize_relevance(sg);
  EXPECT_GT(summary.vars_with_hoops, 0u);
  EXPECT_GT(summary.overhead_ratio(), 1.0);
}

TEST(Hoops, AcyclicClustersBridgesHaveNoHoops) {
  const ShareGraph sg(topo::clusters(3, 3, /*cyclic=*/false));
  // Bridge variables: ids 3, 4.  Cutting C(bridge) separates the clusters.
  EXPECT_FALSE(hoop_exists(sg, 3));
  EXPECT_FALSE(hoop_exists(sg, 4));
}

/// Union of the enumerated hoops' intermediate vertices must equal
/// hoop_members for every variable, and hoop_exists must agree.
void expect_enumeration_agrees(const Distribution& dist,
                               const std::string& label) {
  const ShareGraph sg(dist);
  for (VarId x = 0; x < static_cast<VarId>(sg.var_count()); ++x) {
    const auto e = enumerate_hoops(sg, x, /*limit=*/1u << 18);
    ASSERT_FALSE(e.truncated) << label << " x" << x;
    std::set<ProcessId> from_enum;
    for (const auto& hoop : e.hoops) {
      for (std::size_t i = 1; i + 1 < hoop.size(); ++i) {
        from_enum.insert(hoop[i]);
      }
    }
    EXPECT_EQ(from_enum, hoop_members(sg, x)) << label << " x" << x;
    EXPECT_EQ(!e.hoops.empty(), hoop_exists(sg, x)) << label << " x" << x;
  }
}

/// C(x) = {0, 4}.  Process 0 is a cut vertex: the triangle 0-1-2 hangs off
/// it, so 1 and 2 reach C(x) twice but only through 0.  Process 4 is a cut
/// vertex for the triangle 4-5-6 likewise.  The only hoop is [0, 3, 4].
Distribution clique_member_cut_vertex() {
  Distribution d;
  d.name = "clique-cut-vertex";
  d.var_count = 9;
  d.per_process = {
      {0, 1, 3, 4},  // p0: x, the triangle 0-1-2, the hoop edge 0-3
      {1, 2},        // p1
      {2, 3},        // p2
      {4, 5},        // p3: the hoop's intermediate
      {0, 5, 6, 8},  // p4: x, the hoop edge 3-4, the triangle 4-5-6
      {6, 7},        // p5
      {7, 8},        // p6
  };
  return d;
}

TEST(Hoops, EnumerationAgreesWithFlowMembership) {
  // Property: union of intermediate vertices over all enumerated hoops ==
  // hoop_members (on graphs small enough to enumerate exhaustively).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_enumeration_agrees(topo::random_replication(8, 6, 2, seed),
                              "random(8,6,2) seed " + std::to_string(seed));
  }
  for (std::size_t r = 2; r <= 4; ++r) {
    for (const std::size_t n : {6u, 9u, 12u}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        expect_enumeration_agrees(
            topo::random_replication(n, n, r, seed),
            "random(" + std::to_string(n) + ", r=" + std::to_string(r) +
                ") seed " + std::to_string(seed));
      }
    }
  }
  expect_enumeration_agrees(topo::ring(7), "ring(7)");
  expect_enumeration_agrees(topo::chain_with_hoop(6), "chain_with_hoop(6)");
  expect_enumeration_agrees(topo::open_chain(6), "open_chain(6)");
  expect_enumeration_agrees(topo::grid(3, 3), "grid(3,3)");
  expect_enumeration_agrees(topo::torus(3, 3), "torus(3,3)");
  expect_enumeration_agrees(topo::hypercube(3), "hypercube(3)");
  expect_enumeration_agrees(topo::hypercube(4), "hypercube(4)");
  expect_enumeration_agrees(topo::star(5), "star(5)");
  expect_enumeration_agrees(topo::clusters(3, 3, /*cyclic=*/true),
                            "clusters cyclic");
  expect_enumeration_agrees(topo::clusters(3, 3, /*cyclic=*/false),
                            "clusters acyclic");
  expect_enumeration_agrees(topo::fig1(), "fig1");
  expect_enumeration_agrees(topo::bellman_ford_fig8(), "bellman_ford_fig8");
  expect_enumeration_agrees(clique_member_cut_vertex(), "clique cut vertex");
}

TEST(Hoops, CliqueMemberCutVertexBlocksTheHangingTriangles) {
  const ShareGraph sg(clique_member_cut_vertex());
  EXPECT_EQ(hoop_members(sg, 0), (std::set<ProcessId>{3}));
  EXPECT_EQ(x_relevant(sg, 0), (std::set<ProcessId>{0, 3, 4}));
  const auto e = enumerate_hoops(sg, 0);
  ASSERT_EQ(e.hoops.size(), 1u);
  EXPECT_EQ(e.hoops.front(), (Hoop{0, 3, 4}));
}

TEST(Hoops, HoopEndpointsAreCliqueMembersAndInteriorIsNot) {
  const ShareGraph sg(topo::random_replication(9, 7, 3, 11));
  for (VarId x = 0; x < 7; ++x) {
    const auto& clique = sg.clique(x);
    const std::set<ProcessId> cset(clique.begin(), clique.end());
    for (const auto& hoop : enumerate_hoops(sg, x, 1u << 16).hoops) {
      ASSERT_GE(hoop.size(), 3u);
      EXPECT_TRUE(cset.count(hoop.front()));
      EXPECT_TRUE(cset.count(hoop.back()));
      EXPECT_NE(hoop.front(), hoop.back());
      for (std::size_t i = 1; i + 1 < hoop.size(); ++i) {
        EXPECT_FALSE(cset.count(hoop[i]));
      }
      // Consecutive pairs share a variable other than x.
      for (std::size_t i = 0; i + 1 < hoop.size(); ++i) {
        const auto label = sg.label(hoop[i], hoop[i + 1]);
        EXPECT_TRUE(std::any_of(label.begin(), label.end(),
                                [&](VarId v) { return v != x; }));
      }
    }
  }
}

TEST(Hoops, EnumerationTruncates) {
  // A dense random graph has combinatorially many hoops; the limit must
  // engage rather than hang.
  const ShareGraph sg(topo::random_replication(12, 24, 3, 5));
  const auto e = enumerate_hoops(sg, 0, /*limit=*/16);
  EXPECT_TRUE(e.truncated);
  EXPECT_LE(e.hoops.size(), 16u);
}

TEST(Hoops, RelevanceSummaryCountsPramObligations) {
  // Closed chain of 5 processes: the share graph is a 5-cycle, every
  // variable (x and the 4 links) has a hoop around the far side, so every
  // process is relevant to every variable under causal consistency.
  const ShareGraph sg(topo::chain_with_hoop(5));
  const auto s = summarize_relevance(sg);
  // PRAM obligations: Σ|C(x)| = 2 per variable × 5 variables.
  EXPECT_EQ(s.total_replicas, 10u);
  // Causal obligations: all 5 processes for each of the 5 variables.
  EXPECT_EQ(s.total_relevant, 25u);
  EXPECT_EQ(s.vars_with_hoops, 5u);
  EXPECT_DOUBLE_EQ(s.overhead_ratio(), 2.5);

  // Open chain: no hoops anywhere — causal needs nothing beyond C(x).
  const ShareGraph open(topo::open_chain(5));
  const auto so = summarize_relevance(open);
  EXPECT_EQ(so.total_relevant, so.total_replicas);
  EXPECT_EQ(so.vars_with_hoops, 0u);
  EXPECT_DOUBLE_EQ(so.overhead_ratio(), 1.0);
}

}  // namespace
}  // namespace pardsm::graph
