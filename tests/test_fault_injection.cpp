// Fault injection: duplicate delivery and message loss.
//
// The protocols assume reliable channels for *liveness* (no retransmit
// layer), but their *safety* must survive duplicates and, for the
// wait-free protocols, losses: a recorded history must stay consistent no
// matter which updates never arrived.

#include <gtest/gtest.h>

#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace pardsm::mcs {
namespace {

using hist::Criterion;

RunResult run_faulty(ProtocolKind kind, double dup, double drop,
                     std::uint64_t seed) {
  const auto dist = graph::topo::random_replication(4, 3, 2, seed);
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.read_fraction = 0.5;
  spec.seed = seed;
  const auto scripts = make_random_scripts(dist, spec);
  RunOptions options;
  options.sim_seed = seed;
  options.channel.duplicate_probability = dup;
  options.channel.drop_probability = drop;
  options.latency = std::make_unique<UniformLatency>(millis(1), millis(15));
  return run_workload(kind, dist, scripts, std::move(options));
}

class DuplicateTolerance : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DuplicateTolerance, SafetyHoldsUnderDuplication) {
  const ProtocolKind kind = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto result = run_faulty(kind, /*dup=*/0.3, /*drop=*/0.0, seed);
    Criterion c;
    switch (guarantee_of(kind)) {
      case GuaranteeLevel::kCausal:
        c = Criterion::kCausal;
        break;
      case GuaranteeLevel::kPram:
        c = Criterion::kPram;
        break;
      default:
        c = Criterion::kSlow;
        break;
    }
    const auto check = hist::check_history(result.history, c);
    EXPECT_TRUE(check.consistent)
        << to_string(kind) << " seed " << seed << "\n"
        << result.history.to_string();
  }
}

std::string sanitize(std::string s) {
  for (char& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(WaitFree, DuplicateTolerance,
                         ::testing::Values(ProtocolKind::kPramPartial,
                                           ProtocolKind::kSlowPartial,
                                           ProtocolKind::kCausalFull,
                                           ProtocolKind::kCausalPartialNaive),
                         [](const auto& info) {
                           return sanitize(to_string(info.param));
                         });

// Loss: wait-free protocols complete their clients regardless of delivery;
// the history must remain consistent — missing updates just look like
// very slow propagation (safety, not liveness).
class LossTolerance : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(LossTolerance, SafetyHoldsUnderLoss) {
  const ProtocolKind kind = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto result = run_faulty(kind, /*dup=*/0.0, /*drop=*/0.25, seed);
    Criterion c = guarantee_of(kind) == GuaranteeLevel::kCausal
                      ? Criterion::kCausal
                      : (guarantee_of(kind) == GuaranteeLevel::kPram
                             ? Criterion::kPram
                             : Criterion::kSlow);
    const auto check = hist::check_history(result.history, c);
    EXPECT_TRUE(check.consistent)
        << to_string(kind) << " seed " << seed << "\n"
        << result.history.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(WaitFree, LossTolerance,
                         ::testing::Values(ProtocolKind::kPramPartial,
                                           ProtocolKind::kSlowPartial,
                                           ProtocolKind::kCausalFull,
                                           ProtocolKind::kCausalPartialNaive),
                         [](const auto& info) {
                           return sanitize(to_string(info.param));
                         });

// A severed link: PRAM updates to the victim never arrive; everyone else
// keeps functioning and safety holds.
TEST(Partition, PramSafeUnderOneWayPartition) {
  const auto dist = graph::topo::complete(3, 2);
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.seed = 5;
  const auto scripts = make_random_scripts(dist, spec);

  SimOptions sim_options;
  sim_options.seed = 5;
  Simulator sim(std::move(sim_options));
  HistoryRecorder recorder(3, 2);
  auto procs = make_processes(ProtocolKind::kPramPartial, dist, recorder);
  for (auto& p : procs) {
    sim.add_endpoint(p.get());
    p->attach(sim);
  }
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t p = 0; p < 3; ++p) {
    clients.push_back(
        std::make_unique<Client>(*procs[p], sim, scripts[p]));
    clients.back()->start(kTimeZero + micros(1));
  }
  // network() is created lazily at first send; sever just after start.
  sim.schedule_at(kTimeZero + micros(2), [&] { sim.network().sever(0, 2); });
  sim.run();

  const auto h = recorder.history();
  EXPECT_TRUE(hist::check_history(h, Criterion::kPram).consistent)
      << h.to_string();
}

}  // namespace
}  // namespace pardsm::mcs
