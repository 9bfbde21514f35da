// Large-n regime tests.
//
// Three concerns, all beyond the paper's 3–10-process figures:
//
//  1. The scale topology generators (sharded / hierarchical /
//     zipf_replication) produce the shapes they promise.
//  2. All nine protocols complete 512-process workloads within a time
//     budget with conserved message/exposure invariants — and on disjoint
//     shards the efficient protocols keep both their metadata and their
//     channel state inside the shards (the O(active pairs) claim).
//  3. The sparse Network (default + PairMap overrides, lazily allocated
//     FIFO clamp) is decision-for-decision identical to the dense n×n
//     tables it replaced: a reference model reimplementing the dense
//     representation with the same RNG stream discipline must agree on
//     every DeliveryPlan and drop counter under a randomized storm of
//     setter/scenario-style mutations.

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "mcs/driver.h"
#include "sharegraph/share_graph.h"
#include "sharegraph/topologies.h"
#include "simnet/network.h"

namespace pardsm {
namespace {

using mcs::ProtocolKind;

// ------------------------------------------------------- scale topologies

TEST(ScaleTopologies, ShardedIsDisjointReplicaGroups) {
  const auto dist = graph::topo::sharded(8, 4, 32);
  EXPECT_EQ(dist.process_count(), 32u);
  EXPECT_EQ(dist.var_count, 32u);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto replicas = dist.replicas_of(static_cast<VarId>(x));
    ASSERT_EQ(replicas.size(), 4u);
    const std::size_t shard = x % 8;
    for (ProcessId p : replicas) {
      EXPECT_EQ(static_cast<std::size_t>(p) / 4, shard)
          << "var " << x << " leaked outside its shard";
    }
  }
  // Disjoint shards ⇒ the share graph splits into exactly `shards`
  // components.
  const graph::ShareGraph sg(dist);
  EXPECT_EQ(sg.components().size(), 8u);
}

TEST(ScaleTopologies, HierarchicalIsATreeOfCells) {
  const auto dist = graph::topo::hierarchical(2, 3);
  EXPECT_EQ(dist.process_count(), 7u);  // 1 + 2 + 4
  EXPECT_EQ(dist.var_count, 3u);        // one cell per internal node
  EXPECT_EQ(dist.replicas_of(0), (std::vector<ProcessId>{0, 1, 2}));
  EXPECT_EQ(dist.replicas_of(1), (std::vector<ProcessId>{1, 3, 4}));
  EXPECT_EQ(dist.replicas_of(2), (std::vector<ProcessId>{2, 5, 6}));
  // One connected system (cells bridge through their parent process).
  EXPECT_EQ(graph::ShareGraph(dist).components().size(), 1u);

  const auto big = graph::topo::hierarchical(4, 5);
  EXPECT_EQ(big.process_count(), 341u);  // 1+4+16+64+256
  EXPECT_EQ(big.var_count, 85u);
  for (std::size_t x = 0; x < big.var_count; ++x) {
    EXPECT_EQ(big.replicas_of(static_cast<VarId>(x)).size(), 5u);
  }
}

TEST(ScaleTopologies, ZipfReplicationIsSkewedAndDeterministic) {
  const auto a = graph::topo::zipf_replication(64, 200, 3, 1.2, 5);
  const auto b = graph::topo::zipf_replication(64, 200, 3, 1.2, 5);
  const auto c = graph::topo::zipf_replication(64, 200, 3, 1.2, 6);
  EXPECT_EQ(a.per_process, b.per_process);
  EXPECT_NE(a.per_process, c.per_process);
  EXPECT_EQ(a.process_count(), 64u);
  EXPECT_EQ(a.var_count, 200u);
  for (std::size_t x = 0; x < a.var_count; ++x) {
    const auto replicas = a.replicas_of(static_cast<VarId>(x));
    EXPECT_EQ(replicas.size(), 3u);  // r distinct processes
    EXPECT_EQ(std::set<ProcessId>(replicas.begin(), replicas.end()).size(),
              3u);
  }
  // Zipf skew: the hottest process joins far more cliques than the tail.
  EXPECT_GT(a.per_process[0].size(), 4 * a.per_process[63].size());
}

// --------------------------------------------------------- large-n smoke

/// Expected intra-clique directed pairs of a distribution: an upper bound
/// on active channel pairs for protocols whose traffic stays in C(x).
std::size_t intra_clique_pairs(const graph::Distribution& dist) {
  std::set<std::pair<ProcessId, ProcessId>> pairs;
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto replicas = dist.replicas_of(static_cast<VarId>(x));
    for (ProcessId i : replicas) {
      for (ProcessId j : replicas) {
        if (i != j) pairs.insert({i, j});
      }
    }
  }
  return pairs.size();
}

class ScaleSmoke : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ScaleSmoke, FiveHundredTwelveProcessesConserveInvariants) {
  const auto kind = GetParam();
  const auto start = std::chrono::steady_clock::now();

  const std::vector<graph::Distribution> dists = {
      graph::topo::sharded(/*shards=*/64, /*replicas_per_var=*/8,
                           /*vars=*/512),
      graph::topo::hierarchical(/*branching=*/2, /*depth=*/9),  // n = 511
  };
  for (const auto& dist : dists) {
    mcs::WorkloadSpec spec;
    spec.ops_per_process = 2;
    spec.read_fraction = 0.5;
    spec.seed = 1234;
    const auto scripts = mcs::make_random_scripts(dist, spec);
    const auto r = mcs::run(
        {.protocol = kind, .distribution = &dist, .scripts = &scripts});

    // Conservation: a lossless run delivers every sent message, and the
    // recorded history holds exactly the scripted operations.
    EXPECT_EQ(r.total_traffic.msgs_sent, r.total_traffic.msgs_received)
        << dist.name;
    EXPECT_EQ(r.history.size(), dist.process_count() * spec.ops_per_process)
        << dist.name;

    // Exposure conservation: observed-relevant sets only name real
    // processes, and every variable's writers/readers saw it.
    ASSERT_EQ(r.observed_relevant.size(), dist.var_count);
    for (const auto& procs : r.observed_relevant) {
      for (ProcessId p : procs) {
        EXPECT_GE(p, 0);
        EXPECT_LT(static_cast<std::size_t>(p), dist.process_count());
      }
    }

    // Channel state is O(active pairs).  The broadcast protocols
    // (causal-full, causal-partial-naive) genuinely activate O(n²) pairs
    // — that is their blow-up, and exactly why they are capped in
    // bench_scale; for everything else active pairs stay far below n²,
    // and for protocols whose traffic stays inside C(x) they are bounded
    // by the distribution's intra-clique pairs.
    const std::size_t n = dist.process_count();
    const bool broadcast = kind == ProtocolKind::kCausalFull ||
                           kind == ProtocolKind::kCausalPartialNaive;
    EXPECT_LE(r.active_channel_pairs, n * (n - 1)) << dist.name;
    if (!broadcast) {
      EXPECT_LT(r.active_channel_pairs, n * n / 4) << dist.name;
    }
    if (!broadcast && kind != ProtocolKind::kSequencerSC &&
        kind != ProtocolKind::kCausalPartialAdHoc) {
      EXPECT_LE(r.active_channel_pairs, intra_clique_pairs(dist))
          << dist.name;
    }
  }

  // Time budget: generous (shared CI boxes are noisy) but finite — a
  // protocol that degenerates to quadratic work at n=512 blows well past
  // it.  Sanitizer builds run the same code ~10× slower (TSan especially),
  // so they get a proportionally wider budget: the quadratic-degeneration
  // tripwire still fires, just at sanitizer scale.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr long kBudgetSeconds = 600;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  constexpr long kBudgetSeconds = 600;
#else
  constexpr long kBudgetSeconds = 60;
#endif
#else
  constexpr long kBudgetSeconds = 60;
#endif
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), kBudgetSeconds)
      << "n=512 smoke exceeded its time budget";
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ScaleSmoke,
                         ::testing::ValuesIn(mcs::all_protocols()),
                         [](const auto& info) {
                           std::string name = mcs::to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ------------------------------------- sparse vs dense equivalence storm

/// The dense per-pair representation the sparse Network replaced,
/// reimplemented verbatim (n×n tables, same constructor stream split,
/// same draw order) as a reference model.
class DenseReference {
 public:
  DenseReference(std::size_t n, ChannelOptions options,
                 std::unique_ptr<LatencyModel> latency, Rng rng)
      : n_(n),
        options_(options),
        latency_(std::move(latency)),
        latency_rng_(rng),
        fault_rng_(rng.fork(/*tag=*/0x4641554CULL)),
        last_delivery_(n * n, TimePoint{}),
        severed_(n * n, 0),
        loss_(n * n, options.drop_probability),
        duplicate_(n * n, options.duplicate_probability),
        down_(n, 0) {}

  DeliveryPlan plan_delivery(ProcessId from, ProcessId to,
                             TimePoint send_time) {
    const Duration lat = latency_->sample(from, to, latency_rng_);
    const std::size_t ij = pair(from, to);
    if (severed_[ij] != 0) {
      ++drops_.severed;
      return {};
    }
    if (down_[static_cast<std::size_t>(from)] != 0 ||
        down_[static_cast<std::size_t>(to)] != 0) {
      ++drops_.down;
      return {};
    }
    if (fault_rng_.chance(loss_[ij])) {
      ++drops_.loss;
      return {};
    }
    DeliveryPlan deliveries;
    const auto clamp_push = [&](TimePoint at) {
      if (options_.fifo) {
        TimePoint& last = last_delivery_[ij];
        if (at <= last) at = last + micros(1);
        last = at;
      }
      deliveries.push(at);
    };
    clamp_push(send_time + lat);
    if (fault_rng_.chance(duplicate_[ij])) {
      clamp_push(send_time + latency_->sample(from, to, fault_rng_));
    }
    return deliveries;
  }

  void sever(ProcessId a, ProcessId b) { ++severed_[pair(a, b)]; }
  void heal(ProcessId a, ProcessId b) {
    auto& cuts = severed_[pair(a, b)];
    if (cuts > 0) --cuts;
  }
  void set_loss(ProcessId a, ProcessId b, double p) { loss_[pair(a, b)] = p; }
  void set_loss_all(double p) {
    for (double& v : loss_) v = p;
  }
  void set_duplicate(ProcessId a, ProcessId b, double p) {
    duplicate_[pair(a, b)] = p;
  }
  void set_duplicate_all(double p) {
    for (double& v : duplicate_) v = p;
  }
  void set_down(ProcessId p, bool down) {
    down_[static_cast<std::size_t>(p)] = down ? 1 : 0;
  }
  [[nodiscard]] double loss(ProcessId a, ProcessId b) const {
    return loss_[pair(a, b)];
  }
  [[nodiscard]] double duplicate(ProcessId a, ProcessId b) const {
    return duplicate_[pair(a, b)];
  }
  [[nodiscard]] bool severed(ProcessId a, ProcessId b) const {
    return severed_[pair(a, b)] != 0;
  }
  [[nodiscard]] const DropCounters& drop_counters() const { return drops_; }

 private:
  [[nodiscard]] std::size_t pair(ProcessId from, ProcessId to) const {
    return static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to);
  }

  std::size_t n_;
  ChannelOptions options_;
  std::unique_ptr<LatencyModel> latency_;
  Rng latency_rng_;
  Rng fault_rng_;
  std::vector<TimePoint> last_delivery_;
  std::vector<std::uint32_t> severed_;
  std::vector<double> loss_;
  std::vector<double> duplicate_;
  std::vector<std::uint8_t> down_;
  DropCounters drops_;
};

void equivalence_storm(ChannelOptions options, std::uint64_t net_seed,
                       std::uint64_t op_seed) {
  const std::size_t n = 32;
  Network net(n, options,
              std::make_unique<UniformLatency>(millis(1), millis(10)),
              Rng(net_seed));
  DenseReference ref(n, options,
                     std::make_unique<UniformLatency>(millis(1), millis(10)),
                     Rng(net_seed));

  Rng ops(op_seed);
  const double probs[] = {0.0, 0.05, 0.3, 0.9};
  std::int64_t t = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto a = static_cast<ProcessId>(ops.below(n));
    const auto b = static_cast<ProcessId>(ops.below(n));
    t += static_cast<std::int64_t>(ops.below(50));
    switch (ops.below(12)) {
      case 0:
        net.set_loss(a, b, probs[ops.below(4)]);
        ref.set_loss(a, b, net.loss(a, b));
        break;
      case 1:
        net.set_duplicate(a, b, probs[ops.below(4)]);
        ref.set_duplicate(a, b, net.duplicate(a, b));
        break;
      case 2:
        net.sever(a, b);
        ref.sever(a, b);
        break;
      case 3:
        net.heal(a, b);
        ref.heal(a, b);
        break;
      case 4: {
        const bool down = ops.below(2) == 0;
        net.set_down(a, down);
        ref.set_down(a, down);
        break;
      }
      case 5: {
        const double p = probs[ops.below(4)];
        if (ops.below(2) == 0) {
          net.set_loss_all(p);
          ref.set_loss_all(p);
        } else {
          net.set_duplicate_all(p);
          ref.set_duplicate_all(p);
        }
        break;
      }
      default: {  // the common case: plan a message
        const DeliveryPlan got = net.plan_delivery(a, b, TimePoint{t});
        const DeliveryPlan want = ref.plan_delivery(a, b, TimePoint{t});
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "step " << step;
        }
        break;
      }
    }
    // Table reads agree at every step.
    ASSERT_EQ(net.loss(a, b), ref.loss(a, b));
    ASSERT_EQ(net.duplicate(a, b), ref.duplicate(a, b));
    ASSERT_EQ(net.severed(a, b), ref.severed(a, b));
  }
  EXPECT_EQ(net.drop_counters().loss, ref.drop_counters().loss);
  EXPECT_EQ(net.drop_counters().severed, ref.drop_counters().severed);
  EXPECT_EQ(net.drop_counters().down, ref.drop_counters().down);
  EXPECT_EQ(net.dropped_count(), ref.drop_counters().total());
}

TEST(SparseDenseEquivalence, RandomStormMatchesDenseReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ChannelOptions plain;
    equivalence_storm(plain, seed, seed * 101);

    ChannelOptions lossy;
    lossy.drop_probability = 0.1;
    lossy.duplicate_probability = 0.05;
    equivalence_storm(lossy, seed, seed * 101);

    ChannelOptions unordered;
    unordered.fifo = false;
    unordered.duplicate_probability = 0.2;
    equivalence_storm(unordered, seed, seed * 101);
  }
}

}  // namespace
}  // namespace pardsm
