// Serialization finder (Definition 1 search) unit tests.

#include <gtest/gtest.h>

#include "history/canned.h"
#include "history/checkers.h"
#include "history/orders.h"
#include "history/serialization.h"
#include "mcs/engine.h"
#include "sharegraph/topologies.h"
#include "simnet/scenario.h"
#include "workload/generator.h"

namespace pardsm::hist {
namespace {

std::vector<OpIndex> all_ops(const History& h) {
  std::vector<OpIndex> out;
  for (std::size_t i = 0; i < h.size(); ++i) {
    out.push_back(static_cast<OpIndex>(i));
  }
  return out;
}

TEST(Serialization, TrivialSingleWrite) {
  History h(1, 1);
  h.push_write(0, 0, 1);
  const auto r = find_serialization(h, all_ops(h), program_order(h));
  EXPECT_EQ(r.verdict, SearchVerdict::kSerializable);
  EXPECT_TRUE(is_legal_serialization(h, all_ops(h), r.order,
                                     program_order(h)));
}

TEST(Serialization, ReadMustFollowItsWrite) {
  History h(2, 1);
  h.push_write(0, 0, 1);
  h.push_read(1, 0, 1);
  const auto r = find_serialization(h, all_ops(h), program_order(h));
  ASSERT_EQ(r.verdict, SearchVerdict::kSerializable);
  EXPECT_EQ(r.order, (std::vector<OpIndex>{0, 1}));
}

TEST(Serialization, BottomReadMustComeFirst) {
  History h(2, 1);
  h.push_write(0, 0, 1);
  h.push_read(1, 0, kBottom);
  const auto r = find_serialization(h, all_ops(h), Relation(h.size()));
  ASSERT_EQ(r.verdict, SearchVerdict::kSerializable);
  EXPECT_EQ(r.order, (std::vector<OpIndex>{1, 0}));
}

TEST(Serialization, BottomReadAfterForcedWriteIsRefuted) {
  // Constraint forces the write before the ⊥-read: impossible.
  History h(2, 1);
  h.push_write(0, 0, 1);
  h.push_read(1, 0, kBottom);
  Relation c(h.size());
  c.add(0, 1);
  const auto r = find_serialization(h, all_ops(h), c);
  EXPECT_EQ(r.verdict, SearchVerdict::kNotSerializable);
  EXPECT_TRUE(r.refuted_by_propagation);  // forced-edge cycle, no search
}

TEST(Serialization, InterveningWriteIsRefuted) {
  // w(x)1 ; w(x)2 ordered, and a read of 1 forced after w(x)2.
  History h(2, 1);
  h.push_write(0, 0, 1);   // op 0
  h.push_write(0, 0, 2);   // op 1 (program order after op 0)
  h.push_read(1, 0, 1);    // op 2 reads the OLD value
  Relation c = program_order(h);
  c.add(1, 2);  // read forced after the overwrite
  const auto r = find_serialization(h, all_ops(h), c);
  EXPECT_EQ(r.verdict, SearchVerdict::kNotSerializable);
}

TEST(Serialization, InterleavingFound) {
  // Classic: two writers, one reader sees old-then-new of different vars.
  History h(3, 2);
  h.push_write(0, 0, 1);      // w0(x)1
  h.push_write(1, 1, 2);      // w1(y)2
  h.push_read(2, 0, 1);       // r2(x)1
  h.push_read(2, 1, kBottom); // r2(y)⊥ : y's write must come after
  const auto r = find_serialization(h, all_ops(h), program_order(h));
  ASSERT_EQ(r.verdict, SearchVerdict::kSerializable);
  EXPECT_TRUE(
      is_legal_serialization(h, all_ops(h), r.order, program_order(h)));
}

TEST(Serialization, FreshReadOrderingConflictRefuted) {
  // p2 reads x=2 then x=1 while the constraint orders w(x)1 before w(x)2:
  // after w2 is placed, w1's value can never be the latest again.
  History h(3, 1);
  h.push_write(0, 0, 1);  // op 0
  h.push_write(0, 0, 2);  // op 1, program order 0 -> 1
  h.push_read(2, 0, 2);   // op 2
  h.push_read(2, 0, 1);   // op 3, program order 2 -> 3
  const auto r = find_serialization(h, all_ops(h), program_order(h));
  EXPECT_EQ(r.verdict, SearchVerdict::kNotSerializable);
}

TEST(Serialization, ConcurrentWritesBothOrdersWork) {
  // No constraint: both (1,2) placements possible; reader of 1 decides.
  History h(3, 1);
  h.push_write(0, 0, 1);
  h.push_write(1, 0, 2);
  h.push_read(2, 0, 2);
  const auto r = find_serialization(h, all_ops(h), Relation(h.size()));
  ASSERT_EQ(r.verdict, SearchVerdict::kSerializable);
  // The last write before the read must be value 2 (op 1).
  const auto pos = [&](OpIndex op) {
    return std::find(r.order.begin(), r.order.end(), op) - r.order.begin();
  };
  EXPECT_LT(pos(1), pos(2));
}

TEST(Serialization, SubsetSerializationIgnoresOutsideOps) {
  History h(2, 1);
  h.push_write(0, 0, 1);  // op 0
  h.push_write(1, 0, 2);  // op 1
  h.push_read(0, 0, 1);   // op 2
  // Serialize only p0's projection {0, 2}: trivially fine.
  const std::vector<OpIndex> subset{0, 2};
  const auto r = find_serialization(h, subset, program_order(h));
  EXPECT_EQ(r.verdict, SearchVerdict::kSerializable);
}

TEST(Serialization, ReadWhoseSourceIsOutsideSubsetIsRefuted) {
  History h(2, 1);
  h.push_write(0, 0, 1);  // op 0
  h.push_read(1, 0, 1);   // op 1 reads from op 0
  const std::vector<OpIndex> subset{1};  // source excluded
  const auto r = find_serialization(h, subset, Relation(h.size()));
  EXPECT_EQ(r.verdict, SearchVerdict::kNotSerializable);
}

TEST(Serialization, BudgetExhaustionReportsUnknown) {
  // A large, heavily concurrent instance with a 1-state budget.
  History h(6, 3);
  for (ProcessId p = 0; p < 6; ++p) {
    for (int i = 0; i < 3; ++i) {
      h.push_write(p, static_cast<VarId>(i), p * 10 + i + 1);
    }
  }
  SearchOptions options;
  options.max_states = 1;
  const auto r =
      find_serialization(h, all_ops(h), Relation(h.size()), options);
  EXPECT_EQ(r.verdict, SearchVerdict::kUnknown);
}

TEST(Serialization, WitnessValidatorRejectsBadOrders) {
  History h(2, 1);
  h.push_write(0, 0, 1);
  h.push_read(1, 0, 1);
  const Relation po = program_order(h);
  EXPECT_FALSE(is_legal_serialization(h, all_ops(h), {1, 0}, po));
  EXPECT_FALSE(is_legal_serialization(h, all_ops(h), {0}, po));
  EXPECT_TRUE(is_legal_serialization(h, all_ops(h), {0, 1}, po));
}

TEST(Serialization, LargerHistoryStillExact) {
  // 4 processes × 5 ops with real conflicts still decide quickly.
  History h(4, 2);
  h.push_write(0, 0, 1);
  h.push_write(0, 1, 2);
  h.push_write(1, 0, 3);
  h.push_read(1, 1, 2);
  h.push_write(2, 1, 4);
  h.push_read(2, 0, 3);
  h.push_read(3, 0, 3);
  h.push_read(3, 1, 4);
  h.push_write(3, 0, 5);
  h.push_read(0, 0, 1);
  const auto r = find_serialization(h, all_ops(h), program_order(h));
  EXPECT_NE(r.verdict, SearchVerdict::kUnknown);
}

// -- Search pin ---------------------------------------------------------------
//
// Digests of find_serialization over a fixed corpus: verdict, witness,
// states_explored and refuted_by_propagation of every search.  The digests
// predate the search's flat-array rewrite and must survive any rewrite
// unchanged: the same states, explored in the same order.

/// FNV-1a over 64-bit words.
struct SearchDigest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  std::uint64_t searches = 0;
  std::uint64_t states = 0;

  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      value ^= (w >> (8 * i)) & 0xFF;
      value *= 0x100000001b3ULL;
    }
  }
  void add(const SerializationResult& r) {
    ++searches;
    states += r.states_explored;
    word(static_cast<std::uint64_t>(r.verdict));
    word(r.states_explored);
    word(r.refuted_by_propagation ? 1 : 0);
    word(r.order.size());
    for (OpIndex op : r.order) word(static_cast<std::uint64_t>(op));
  }
  /// Every search check_history would make for `c`, without its early exit.
  void add_criterion(const History& h, Criterion c, LazyMode mode) {
    const Relation rel = criterion_relation(h, c, mode);
    std::vector<std::vector<OpIndex>> subsets;
    if (c == Criterion::kSequential) {
      subsets.push_back(all_ops(h));
    } else if (c == Criterion::kCache) {
      subsets.resize(h.var_count());
      for (std::size_t i = 0; i < h.size(); ++i) {
        const auto op = static_cast<OpIndex>(i);
        subsets[static_cast<std::size_t>(h.op(op).var)].push_back(op);
      }
    } else {
      for (std::size_t p = 0; p < h.process_count(); ++p) {
        subsets.push_back(h.projection_i_plus_w(static_cast<ProcessId>(p)));
      }
    }
    for (const auto& subset : subsets) {
      add(find_serialization(h, subset, rel));
    }
  }
};

/// One recorded run of checked-faults' shape: random_replication(8, 16, 3,
/// seed 7), open-loop arrivals every 5 ms, 5% loss, the halves partitioned
/// 5-20 ms, process 3 down 8-25 ms.
History record_faulty(mcs::ProtocolKind kind, std::uint64_t seed,
                      std::uint64_t ops_per_process) {
  static const graph::Distribution dist =
      graph::topo::random_replication(8, 16, 3, 7);
  Scenario faults("checked-faults");
  faults.set_loss(0.05);
  faults.partition({{0, 1, 2, 3}, {4, 5, 6, 7}}, after(millis(5)),
                   after(millis(20)));
  faults.crash(3, after(millis(8)), after(millis(25)));
  workload::Spec spec;
  spec.ops_per_process = ops_per_process;
  spec.read_fraction = 0.5;
  spec.keys = workload::KeyDist::kUniform;
  spec.seed = seed;
  spec.arrival_rate = 200.0;
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &dist;
  config.workload = &spec;
  config.scenario = &faults;
  config.sim_seed = seed;
  return mcs::run(std::move(config)).history;
}

TEST(SerializationPin, CannedHistoriesUnderEveryCriterion) {
  std::vector<paper::Example> examples = paper::all_examples();
  for (std::size_t k = 2; k <= 5; ++k) {
    for (auto end : {paper::ChainEnd::kRead, paper::ChainEnd::kWrite,
                     paper::ChainEnd::kStaleRead}) {
      examples.push_back(paper::fig3_dependency_chain(k, end));
    }
  }
  SearchDigest d;
  for (const auto& ex : examples) {
    ASSERT_TRUE(ex.history.read_from_resolvable()) << ex.name;
    for (LazyMode mode : {LazyMode::kPaperConsistent, LazyMode::kLiteral}) {
      for (Criterion c : all_criteria()) {
        d.add_criterion(ex.history, c, mode);
      }
    }
  }
  EXPECT_EQ(d.searches, 840u);
  EXPECT_EQ(d.value, 0x75a0f8f0ebb3e35dULL)
      << std::hex << d.value << std::dec << " over " << d.states << " states";
}

TEST(SerializationPin, CheckedFaultsHistories) {
  const std::pair<mcs::ProtocolKind, Criterion> kProtocols[] = {
      {mcs::ProtocolKind::kPramPartial, Criterion::kPram},
      {mcs::ProtocolKind::kCausalPartialAdHoc, Criterion::kCausal},
      {mcs::ProtocolKind::kCachePartial, Criterion::kCache},
      {mcs::ProtocolKind::kAtomicHome, Criterion::kSequential},
  };
  SearchDigest d;
  for (const auto& [kind, criterion] : kProtocols) {
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      const History h = record_faulty(kind, seed, 3 + seed % 3);
      ASSERT_TRUE(h.read_from_resolvable());
      for (Criterion c : all_criteria()) {
        d.add_criterion(h, c, LazyMode::kPaperConsistent);
      }
    }
  }
  EXPECT_EQ(d.searches, 7296u);
  EXPECT_EQ(d.value, 0xf2079d3319dd6b30ULL)
      << std::hex << d.value << std::dec << " over " << d.states << " states";
}

TEST(SerializationPin, SubsetWiderThanOneWord) {
  // A Figure 3 chain over 40 processes: 81 ops, searched whole, so the
  // placed set and every predecessor row span two 64-bit words.
  SearchDigest d;
  for (auto end : {paper::ChainEnd::kRead, paper::ChainEnd::kStaleRead}) {
    const auto ex = paper::fig3_dependency_chain(40, end);
    ASSERT_GT(ex.history.size(), 64u);
    d.add_criterion(ex.history, Criterion::kSequential,
                    LazyMode::kPaperConsistent);
    d.add_criterion(ex.history, Criterion::kCausal,
                    LazyMode::kPaperConsistent);
  }
  const History h = record_faulty(mcs::ProtocolKind::kAtomicHome, 5, 9);
  ASSERT_GT(h.size(), 64u);
  d.add_criterion(h, Criterion::kSequential, LazyMode::kPaperConsistent);
  EXPECT_EQ(d.searches, 85u);
  EXPECT_EQ(d.value, 0x54937001481a1ce5ULL)
      << std::hex << d.value << std::dec << " over " << d.states << " states";
}

}  // namespace
}  // namespace pardsm::hist
