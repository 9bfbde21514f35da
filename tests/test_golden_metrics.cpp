// Golden-metrics determinism gate.
//
// Every tuple below — total messages, wire bytes, the full per-(process,
// variable) exposure matrix (sum + FNV-1a fingerprint), events fired and
// simulated quiescence time — was captured from the engine BEFORE the
// allocation-free hot-path refactor (pooled events, interned message
// metadata, dense replica stores).  The paper's results are statements
// about these exact quantities, so engine/performance work must reproduce
// them bit-for-bit: any drift here means the refactor changed observable
// behaviour, not just speed.
//
// Regenerate with ./tests/golden_metrics_gen ONLY when a protocol's
// message complexity legitimately changes.

#include <gtest/gtest.h>

#include <map>

#include "golden_metrics_common.h"

namespace pardsm {
namespace {

struct GoldenRow {
  const char* protocol;
  const char* topology;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t exposure_sum;
  std::uint64_t exposure_hash;
  std::uint64_t events;
  std::int64_t finished_us;
};

constexpr GoldenRow kGolden[] = {
    // generated by golden_metrics_gen — do not hand-edit
    {"atomic-home", "ring-6", 65ull, 2920ull, 65ull, 16227735140426255558ull, 113ull, 16000},
    {"sequencer-sc", "ring-6", 79ull, 4640ull, 79ull, 9331455010116791436ull, 127ull, 12002},
    {"causal-full", "ring-6", 155ull, 14880ull, 155ull, 15314204951945354565ull, 203ull, 1005},
    {"causal-partial-naive", "ring-6", 155ull, 13888ull, 155ull, 15314204951945354565ull, 203ull, 1005},
    {"causal-partial-adhoc", "ring-6", 155ull, 59768ull, 155ull, 15314204951945354565ull, 203ull, 1005},
    {"pram-partial", "ring-6", 31ull, 1488ull, 31ull, 10483959652504495909ull, 79ull, 1003},
    {"slow-partial", "ring-6", 31ull, 1736ull, 31ull, 10483959652504495909ull, 110ull, 1300},
    {"cache-partial", "ring-6", 47ull, 3128ull, 47ull, 12703365952814952494ull, 95ull, 12000},
    {"processor-partial", "ring-6", 47ull, 4632ull, 47ull, 12703365952814952494ull, 95ull, 12000},
    {"atomic-home", "open-chain-5", 51ull, 2304ull, 51ull, 13965656317439996962ull, 91ull, 16000},
    {"sequencer-sc", "open-chain-5", 64ull, 3776ull, 64ull, 15072611533784925675ull, 104ull, 12002},
    {"causal-full", "open-chain-5", 100ull, 8800ull, 100ull, 15035716856385438925ull, 140ull, 1005},
    {"causal-partial-naive", "open-chain-5", 100ull, 8200ull, 100ull, 15035716856385438925ull, 140ull, 1005},
    {"causal-partial-adhoc", "open-chain-5", 25ull, 2600ull, 25ull, 8609637033548555748ull, 65ull, 1004},
    {"pram-partial", "open-chain-5", 25ull, 1200ull, 25ull, 8609637033548555748ull, 65ull, 1004},
    {"slow-partial", "open-chain-5", 25ull, 1400ull, 25ull, 8609637033548555748ull, 90ull, 1300},
    {"cache-partial", "open-chain-5", 35ull, 2360ull, 35ull, 11919175246014146478ull, 75ull, 8000},
    {"processor-partial", "open-chain-5", 35ull, 3480ull, 35ull, 11919175246014146478ull, 75ull, 8000},
    {"atomic-home", "random-8p12v-r3", 122ull, 5592ull, 122ull, 5069152131303794510ull, 186ull, 16001},
    {"sequencer-sc", "random-8p12v-r3", 140ull, 8432ull, 140ull, 17727836339076882593ull, 204ull, 12005},
    {"causal-full", "random-8p12v-r3", 266ull, 29792ull, 266ull, 13853321093889372039ull, 330ull, 1005},
    {"causal-partial-naive", "random-8p12v-r3", 266ull, 28272ull, 266ull, 13853321093889372039ull, 330ull, 1005},
    {"causal-partial-adhoc", "random-8p12v-r3", 266ull, 243200ull, 266ull, 13853321093889372039ull, 330ull, 1005},
    {"pram-partial", "random-8p12v-r3", 76ull, 3648ull, 76ull, 10796424339989580450ull, 140ull, 1004},
    {"slow-partial", "random-8p12v-r3", 76ull, 4256ull, 76ull, 10796424339989580450ull, 216ull, 1296},
    {"cache-partial", "random-8p12v-r3", 96ull, 6592ull, 96ull, 10711403704131691044ull, 160ull, 12000},
    {"processor-partial", "random-8p12v-r3", 96ull, 11200ull, 96ull, 10711403704131691044ull, 160ull, 12000},
};

struct GoldenScenarioRow {
  const char* protocol;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t retransmissions;
  std::uint64_t dropped;
  std::int64_t finished_us;
};

/// One canonical lossy+partition scenario per protocol (ring-6, 1% loss,
/// 3|3 split healed at 6ms — see golden::measure_scenario).  Messages and
/// bytes include ARQ frames, acks, retransmissions and re-sync traffic:
/// this pins the *recovery* cost the same way kGolden pins the lossless
/// message complexity.
constexpr GoldenScenarioRow kGoldenScenario[] = {
    // generated by golden_metrics_gen — do not hand-edit
    {"atomic-home", 136ull, 5816ull, 4ull, 2ull, 85000},
    {"sequencer-sc", 171ull, 8568ull, 9ull, 6ull, 82000},
    {"causal-full", 438ull, 32072ull, 90ull, 67ull, 122000},
    {"causal-partial-naive", 438ull, 30432ull, 90ull, 67ull, 122000},
    {"causal-partial-adhoc", 438ull, 102952ull, 90ull, 67ull, 122000},
    {"pram-partial", 75ull, 3400ull, 9ull, 5ull, 82000},
    {"slow-partial", 75ull, 3720ull, 9ull, 5ull, 82000},
    {"cache-partial", 99ull, 5352ull, 4ull, 3ull, 86000},
    {"processor-partial", 99ull, 6984ull, 4ull, 3ull, 86000},
};

struct GoldenWorkloadRow {
  const char* protocol;
  const char* load;
  unsigned threads;  ///< 0 = sequential root, else parallel root workers
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t events;
  std::int64_t finished_us;
  std::uint64_t ops_completed;
  std::uint64_t ops_censored;
  std::uint64_t latency_samples;
  std::int64_t p50_us;
  std::int64_t p99_us;
  std::int64_t p999_us;
  std::uint64_t history_hash;
};

/// Generated-workload runs (golden::measure_workload): the streaming
/// client both repository benchmark workloads drive, closed loop on a
/// lossless channel and open loop at 200/s under the checked-faults
/// timeline, on the sequential root and on the parallel root at 2
/// threads.  This pins the client's issue order, latency capture and
/// stall/resume handshake, not only the protocols' message complexity.
constexpr GoldenWorkloadRow kGoldenWorkload[] = {
    // generated by golden_metrics_gen — do not hand-edit
    {"pram-partial", "closed-lossless", 0u, 196ull, 9408ull, 388ull, 1013, 192ull, 0ull, 192ull, 0, 0, 0, 11634636397976324918ull},
    {"causal-partial-adhoc", "closed-lossless", 0u, 686ull, 824768ull, 878ull, 1015, 192ull, 0ull, 192ull, 0, 0, 0, 11634636397976324918ull},
    {"cache-partial", "closed-lossless", 0u, 255ull, 17416ull, 447ull, 28000, 192ull, 0ull, 192ull, 0, 2002, 2002, 14345895329196235712ull},
    {"atomic-home", "closed-lossless", 0u, 379ull, 17224ull, 571ull, 48001, 192ull, 0ull, 192ull, 2001, 2001, 2001, 12531219712046928703ull},
    {"pram-partial", "closed-lossless", 2u, 196ull, 9408ull, 388ull, 1013, 192ull, 0ull, 192ull, 0, 0, 0, 15236054059449048250ull},
    {"causal-partial-adhoc", "closed-lossless", 2u, 686ull, 824768ull, 878ull, 1015, 192ull, 0ull, 192ull, 0, 0, 0, 15236054059449048250ull},
    {"cache-partial", "closed-lossless", 2u, 255ull, 17416ull, 447ull, 28000, 192ull, 0ull, 192ull, 0, 2002, 2002, 3589262629475767017ull},
    {"atomic-home", "closed-lossless", 2u, 379ull, 17224ull, 571ull, 48002, 192ull, 0ull, 192ull, 2001, 2001, 2001, 17909828139148143264ull},
    {"pram-partial", "open-checked-faults", 0u, 147ull, 7144ull, 200ull, 125000, 48ull, 0ull, 48ull, 0, 15000, 15000, 1910454803683830397ull},
    {"causal-partial-adhoc", "open-checked-faults", 0u, 491ull, 322192ull, 493ull, 160000, 48ull, 0ull, 48ull, 0, 15000, 15000, 8955012179770351300ull},
    {"cache-partial", "open-checked-faults", 0u, 168ull, 9520ull, 242ull, 122000, 48ull, 0ull, 48ull, 2015, 42000, 42000, 18317720527360805281ull},
    {"atomic-home", "open-checked-faults", 0u, 236ull, 10752ull, 312ull, 165001, 48ull, 0ull, 48ull, 2015, 109001, 109001, 4829025690543674521ull},
    {"pram-partial", "open-checked-faults", 2u, 145ull, 7168ull, 197ull, 165000, 48ull, 0ull, 48ull, 0, 15000, 15000, 4063416960595047549ull},
    {"causal-partial-adhoc", "open-checked-faults", 2u, 500ull, 326008ull, 504ull, 135000, 48ull, 0ull, 48ull, 0, 15000, 15000, 8098412141501264705ull},
    {"cache-partial", "open-checked-faults", 2u, 169ull, 9512ull, 242ull, 165000, 48ull, 0ull, 48ull, 2015, 82000, 82000, 6673811411253490664ull},
    {"atomic-home", "open-checked-faults", 2u, 248ull, 11208ull, 320ull, 165000, 48ull, 0ull, 48ull, 21503, 101000, 101000, 3830051355426510050ull},
};

TEST(GoldenMetrics, EveryProtocolEveryTopologyBitIdentical) {
  std::map<std::string, mcs::ProtocolKind> kinds;
  for (auto kind : mcs::all_protocols()) {
    kinds[mcs::to_string(kind)] = kind;
  }
  auto topologies = golden::golden_topologies();

  std::size_t checked = 0;
  for (const auto& topo : topologies) {
    for (const auto& row : kGolden) {
      if (std::string(row.topology) != topo.name) continue;
      ASSERT_TRUE(kinds.count(row.protocol)) << row.protocol;
      const auto m = golden::measure(kinds.at(row.protocol), topo.dist);
      SCOPED_TRACE(std::string(row.protocol) + " on " + row.topology);
      EXPECT_EQ(m.messages, row.messages);
      EXPECT_EQ(m.bytes, row.bytes);
      EXPECT_EQ(m.exposure_sum, row.exposure_sum);
      EXPECT_EQ(m.exposure_hash, row.exposure_hash);
      EXPECT_EQ(m.events, row.events);
      EXPECT_EQ(m.finished_us, row.finished_us);
      ++checked;
    }
  }
  // Every protocol appears on every topology of the corpus.
  EXPECT_EQ(checked, topologies.size() * mcs::all_protocols().size());
}

TEST(GoldenMetrics, CanonicalLossyPartitionScenarioBitIdentical) {
  std::map<std::string, mcs::ProtocolKind> kinds;
  for (auto kind : mcs::all_protocols()) {
    kinds[mcs::to_string(kind)] = kind;
  }
  std::size_t checked = 0;
  for (const auto& row : kGoldenScenario) {
    ASSERT_TRUE(kinds.count(row.protocol)) << row.protocol;
    const auto m = golden::measure_scenario(kinds.at(row.protocol));
    SCOPED_TRACE(row.protocol);
    EXPECT_EQ(m.messages, row.messages);
    EXPECT_EQ(m.bytes, row.bytes);
    EXPECT_EQ(m.retransmissions, row.retransmissions);
    EXPECT_EQ(m.dropped, row.dropped);
    EXPECT_EQ(m.finished_us, row.finished_us);
    ++checked;
  }
  EXPECT_EQ(checked, mcs::all_protocols().size());
}

TEST(GoldenMetrics, GeneratedWorkloadRunsBitIdentical) {
  std::map<std::string, mcs::ProtocolKind> kinds;
  for (auto kind : mcs::all_protocols()) {
    kinds[mcs::to_string(kind)] = kind;
  }
  std::map<std::string, golden::GoldenLoad> loads;
  for (auto load : {golden::GoldenLoad::kClosedLossless,
                    golden::GoldenLoad::kOpenCheckedFaults}) {
    loads[golden::to_string(load)] = load;
  }
  std::size_t checked = 0;
  for (const auto& row : kGoldenWorkload) {
    ASSERT_TRUE(kinds.count(row.protocol)) << row.protocol;
    ASSERT_TRUE(loads.count(row.load)) << row.load;
    const auto m = golden::measure_workload(kinds.at(row.protocol),
                                            loads.at(row.load), row.threads);
    SCOPED_TRACE(std::string(row.protocol) + " " + row.load + " threads=" +
                 std::to_string(row.threads));
    EXPECT_EQ(m.messages, row.messages);
    EXPECT_EQ(m.bytes, row.bytes);
    EXPECT_EQ(m.events, row.events);
    EXPECT_EQ(m.finished_us, row.finished_us);
    EXPECT_EQ(m.ops_completed, row.ops_completed);
    EXPECT_EQ(m.ops_censored, row.ops_censored);
    EXPECT_EQ(m.latency_samples, row.latency_samples);
    EXPECT_EQ(m.p50_us, row.p50_us);
    EXPECT_EQ(m.p99_us, row.p99_us);
    EXPECT_EQ(m.p999_us, row.p999_us);
    EXPECT_EQ(m.history_hash, row.history_hash);
    ++checked;
  }
  // Four protocols x two loads x two roots.
  EXPECT_EQ(checked, golden::golden_workload_protocols().size() * 2 * 2);
}

}  // namespace
}  // namespace pardsm
