// S2 — the §3.3 low-latency requirement: operation latencies per
// protocol, from the real-time intervals of recorded histories.
//
// Expected shape: wait-free protocols (causal*, pram, slow) serve reads
// and writes in zero simulated time; atomic-home pays a full round trip
// per read and write; sequencer-sc pays a round trip per write but reads
// free.  This is the price axis that complements the control-information
// axis (S1): strong criteria either spread metadata or give up wait-free
// local access.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

struct Latencies {
  double mean_read_ms = 0;
  double mean_write_ms = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

Latencies measure(ProtocolKind kind, Duration lo, Duration hi) {
  const auto dist = graph::topo::random_replication(6, 5, 3, 5);
  WorkloadSpec spec;
  spec.ops_per_process = 10;
  spec.read_fraction = 0.5;
  spec.seed = 9;
  const auto scripts = make_random_scripts(dist, spec);
  const auto run =
      mcs::run({.protocol = kind,
                .distribution = &dist,
                .scripts = &scripts,
                .latency = std::make_unique<UniformLatency>(lo, hi)});

  Latencies out;
  double read_total = 0, write_total = 0;
  for (const auto& op : run.history.ops()) {
    const double ms =
        static_cast<double>((op.responded - op.invoked).us) / 1000.0;
    if (op.is_read()) {
      read_total += ms;
      ++out.reads;
    } else {
      write_total += ms;
      ++out.writes;
    }
  }
  if (out.reads) out.mean_read_ms = read_total / static_cast<double>(out.reads);
  if (out.writes) {
    out.mean_write_ms = write_total / static_cast<double>(out.writes);
  }
  return out;
}

void print_table(bu::Harness& h) {
  bu::banner("S2: operation latency per protocol (network: uniform 2-10ms)");
  bu::row({"protocol", "read-ms", "write-ms", "wait-free?"});
  for (auto kind : all_protocols()) {
    const bu::WallTimer timer;
    const auto lat = measure(kind, millis(2), millis(10));
    const std::uint64_t wall_ns = timer.ns();
    const bool wait_free = kind != ProtocolKind::kAtomicHome &&
                           kind != ProtocolKind::kSequencerSC &&
                           kind != ProtocolKind::kCachePartial &&
                           kind != ProtocolKind::kProcessorPartial;
    bu::row({to_string(kind), bu::num(lat.mean_read_ms, 2),
             bu::num(lat.mean_write_ms, 2), wait_free ? "yes" : "no"});
    h.record({.label = "uniform-2-10ms",
              .protocol = to_string(kind),
              .distribution = "random-r3-6p5v",
              .ops = lat.reads + lat.writes,
              .wall_ns = wall_ns,
              .extra = {{"mean_read_ms", lat.mean_read_ms},
                        {"mean_write_ms", lat.mean_write_ms},
                        {"wait_free", wait_free ? 1.0 : 0.0}}});
  }
  std::cout << "(expected: 0.00 for wait-free protocols; ~1 RTT for "
               "atomic reads/writes and sequencer writes)\n";

  bu::banner("S2b: atomic-home read latency vs network latency");
  bu::row({"net lo-hi (ms)", "read-ms"});
  for (auto [lo, hi] : std::vector<std::pair<int, int>>{
           {1, 2}, {2, 10}, {10, 30}, {30, 80}}) {
    const bu::WallTimer timer;
    const auto lat = measure(ProtocolKind::kAtomicHome, millis(lo),
                             millis(hi));
    const std::uint64_t wall_ns = timer.ns();
    bu::row({std::to_string(lo) + "-" + std::to_string(hi),
             bu::num(lat.mean_read_ms, 2)});
    h.record({.label = "atomic-home-net-" + std::to_string(lo) + "-" +
                       std::to_string(hi) + "ms",
              .protocol = to_string(ProtocolKind::kAtomicHome),
              .distribution = "random-r3-6p5v",
              .ops = lat.reads + lat.writes,
              .wall_ns = wall_ns,
              .extra = {{"mean_read_ms", lat.mean_read_ms},
                        {"mean_write_ms", lat.mean_write_ms}}});
  }
  std::cout << "(expected: read latency tracks the RTT — no locality)\n";
}

void BM_WaitFreeWriteCpu(benchmark::State& state) {
  // CPU cost of issuing one wait-free write (no simulation time).
  const auto dist = graph::topo::complete(4, 2);
  HistoryRecorder recorder(4, 2);
  auto procs = make_processes(ProtocolKind::kPramPartial, dist, recorder);
  Simulator sim;
  for (auto& p : procs) {
    sim.add_endpoint(p.get());
    p->attach(sim);
  }
  Value v = 1;
  for (auto _ : state) {
    procs[0]->write(0, v++, [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WaitFreeWriteCpu);

void BM_LatencyRun(benchmark::State& state, ProtocolKind kind) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure(kind, millis(2), millis(10)));
  }
}
BENCHMARK_CAPTURE(BM_LatencyRun, pram, ProtocolKind::kPramPartial);
BENCHMARK_CAPTURE(BM_LatencyRun, atomic, ProtocolKind::kAtomicHome);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "latency");
  print_table(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
