// S2 — the price of faults: recovery overhead across loss rates, fault
// schedules and all nine protocols.
//
// The paper's efficiency results assume reliable FIFO channels.  This
// bench charges recovery traffic to the same ledger: every (protocol,
// schedule, loss-rate) cell runs the identical workload through
// mcs::run — ARQ framing, retransmissions, partition backlogs and
// crash re-syncs included — and reports the overhead relative to the
// lossless run of the same scripts.  Expected shape:
//
//   loss 0          : ARQ framing only (acks + 16B/frame) — the fixed
//                     price of not trusting the channel
//   loss 0.01/0.1   : retransmission cost grows with both the loss rate
//                     and the protocol's message count, so chatty
//                     protocols (causal-full/naive) pay the most wire
//                     bytes while wait-free protocols hide the latency
//   partition/crash : bounded backlog + re-sync cost, dominated by the
//                     retransmit timer, not by protocol complexity

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"
#include "simnet/scenario.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

constexpr double kLossRates[] = {0.0, 0.01, 0.1};

enum class Schedule { kSteady, kPartition, kCrash };

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kSteady:
      return "steady";
    case Schedule::kPartition:
      return "partition";
    case Schedule::kCrash:
      return "crash";
  }
  return "?";
}

Scenario make_scenario(Schedule schedule, double loss) {
  Scenario s(std::string(schedule_name(schedule)) + "-loss" +
             bu::num(loss, 2));
  // Every cell of the sweep runs over the ARQ layer — including
  // steady/loss-0, whose overhead vs the raw lossless run is then exactly
  // the ARQ framing price (frames + acks).
  s.force_reliable();
  if (loss > 0.0) s.set_loss(loss);
  switch (schedule) {
    case Schedule::kSteady:
      break;
    case Schedule::kPartition:
      s.partition({{0, 1, 2}, {3, 4, 5}}, after(millis(2)),
                  after(millis(7)));
      break;
    case Schedule::kCrash:
      s.crash(1, after(millis(2)), after(millis(6)));
      break;
  }
  return s;
}

std::vector<Script> scenario_scripts(const graph::Distribution& dist) {
  WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.read_fraction = 0.5;
  spec.seed = 42;
  spec.think_time = millis(1);  // operations overlap the fault windows
  return make_random_scripts(dist, spec);
}

void sweep(bu::Harness& h) {
  const auto dist = graph::topo::ring(6);
  const auto scripts = scenario_scripts(dist);

  bu::banner("S2 fault-recovery overhead (ring-6, 8 ops/proc)");
  bu::row({"protocol", "schedule", "loss", "msgs", "bytes", "retrans",
           "resyncB", "recov-ms", "overhead"});

  for (auto kind : all_protocols()) {
    // The lossless, ARQ-free run of the same scripts: the denominator of
    // every overhead ratio in this protocol's rows.
    const auto lossless = mcs::run(
        {.protocol = kind, .distribution = &dist, .scripts = &scripts});
    const auto lossless_bytes =
        static_cast<double>(lossless.total_traffic.wire_bytes_sent());

    for (auto schedule :
         {Schedule::kSteady, Schedule::kPartition, Schedule::kCrash}) {
      for (double loss : kLossRates) {
        const auto scenario = make_scenario(schedule, loss);
        const auto run = [&] {
          return mcs::run({.protocol = kind,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .scenario = &scenario,
                           .sim_seed = 7});
        };
        const auto r = run();
        // wall_ns times a second, warm run of the identical deterministic
        // scenario so the row measures the engine, not cold-start noise.
        const std::uint64_t wall_ns = bu::time_ns([&] { (void)run(); });

        const double overhead =
            lossless_bytes > 0.0
                ? static_cast<double>(r.total_traffic.wire_bytes_sent()) /
                      lossless_bytes
                : 0.0;
        const double recovery_ms =
            static_cast<double>(r.max_recovery_latency.us) / 1000.0;

        bu::row({to_string(kind), schedule_name(schedule), bu::num(loss, 2),
                 bu::num(r.total_traffic.msgs_sent),
                 bu::num(r.total_traffic.wire_bytes_sent()),
                 bu::num(r.retransmissions), bu::num(r.resync_bytes),
                 bu::num(recovery_ms, 2), bu::num(overhead, 2)});
        h.record(
            {.label = std::string(schedule_name(schedule)) + "-loss" +
                      bu::num(loss, 2),
             .protocol = to_string(kind),
             .distribution = "ring-6",
             .ops = r.history.size(),
             .messages = r.total_traffic.msgs_sent,
             .bytes = r.total_traffic.wire_bytes_sent(),
             .sim_time_ms = static_cast<double>(r.finished_at.us) / 1000.0,
             .wall_ns = wall_ns,
             .extra = {
                 {"loss", loss},
                 {"retransmissions", static_cast<double>(r.retransmissions)},
                 {"dropped", static_cast<double>(r.drops.total())},
                 {"resync_bytes", static_cast<double>(r.resync_bytes)},
                 {"resync_messages",
                  static_cast<double>(r.resync_messages)},
                 {"recovery_latency_ms", recovery_ms},
                 {"overhead_vs_lossless", overhead},
             }});
      }
    }
  }
  std::cout << "(overhead = wire bytes vs the lossless ARQ-free run of the "
               "same scripts; loss 0 rows price the ARQ framing itself)\n";
}

void BM_Scenario(benchmark::State& state, Schedule schedule, double loss) {
  const auto dist = graph::topo::ring(6);
  const auto scripts = scenario_scripts(dist);
  const auto scenario = make_scenario(schedule, loss);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run({.protocol = ProtocolKind::kPramPartial,
                                  .distribution = &dist,
                                  .scripts = &scripts,
                                  .scenario = &scenario,
                                  .sim_seed = 7}));
  }
}
BENCHMARK_CAPTURE(BM_Scenario, steady_loss10, Schedule::kSteady, 0.1);
BENCHMARK_CAPTURE(BM_Scenario, partition_loss1, Schedule::kPartition, 0.01);
BENCHMARK_CAPTURE(BM_Scenario, crash_loss1, Schedule::kCrash, 0.01);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "scenarios");
  sweep(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
