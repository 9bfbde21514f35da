// W1 — open-loop load at millions of ops: the streaming workload sweep.
//
// Every other bench replays a materialized Script; this one streams a
// YCSB-style generated workload (src/workload/) through the engine and
// prices what the paper's protocols *feel like under load*: per-op
// latency percentiles (p50/p99/p999) captured allocation-free into a
// fixed-bucket log histogram, at op counts no Script could hold.
//
// Three sections, all on random_replication(8, 32, r=3):
//
//   mix      closed-loop, uniform keys: protocols × read fraction
//            {95%, 50%} — how much a write-heavy mix costs each
//            consistency criterion.
//   skew     closed-loop, read-95: protocols × key popularity
//            {uniform, zipf θ=0.99, zipf θ=0.60} — whether a hot key
//            set concentrates traffic on its replica set (it should:
//            the paper's efficiency claim is per-variable).
//   arrival  OPEN loop on the simulator: ops arrive at a fixed rate per
//            process regardless of completion, ≤1 outstanding, latency
//            measured from scheduled arrival (no coordinated omission).
//            Rates straddle atomic-home's ~500 ops/s/proc capacity
//            (1 ms hops ⇒ 2 ms RPC), so the sweep shows both a stable
//            queue and the honest open-loop overload tail.  pram stays
//            flat at every rate — wait-free local issue is the point.
//
// Plus one row on the sharded parallel root (2 workers) pinning that
// per-shard histograms merge to the same percentiles.
//
// Row columns: ops = completed ops, censored_ops = issued-but-never-
// completed (0 on every lossless row here), p50/p99/p999 in µs.
// Non-quick rows stream 1,000,000 ops each (8 procs × 125k); --quick
// drops to 4k ops/row for CI.  History recording is OFF (recorder
// discard mode): peak RSS is independent of the op count —
// tests/test_workload.cpp asserts that, this bench just relies on it.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "bench_util.h"
#include "mcs/engine.h"
#include "sharegraph/topologies.h"
#include "workload/generator.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

constexpr std::size_t kProcs = 8;
constexpr std::size_t kVars = 32;
constexpr std::size_t kReplication = 3;
constexpr std::uint64_t kTopoSeed = 7;

/// Protocols priced in the mix/skew sections: the paper's efficient
/// partial-replication family plus the strong (expensive) baseline.
constexpr std::array kMixProtocols = {
    ProtocolKind::kPramPartial,
    ProtocolKind::kCachePartial,
    ProtocolKind::kCausalPartialAdHoc,
    ProtocolKind::kAtomicHome,
};

struct Cell {
  std::string label;
  workload::Spec spec;
  EngineRuntime runtime = EngineRuntime::kSimulator;
  unsigned threads = 0;  ///< parallel root only
};

std::string dist_name() {
  return "random-r" + std::to_string(kReplication) + "-" +
         std::to_string(kProcs) + "p" + std::to_string(kVars) + "v";
}

/// Run one cell and record its row.  Latency percentiles come straight
/// out of the run's merged histogram; a censored quantile (possible only
/// on faulty timelines, never here) reports as 0 with the mass visible
/// in censored_ops.
void run_cell(bu::Harness& h, ProtocolKind kind,
              const graph::Distribution& dist, const Cell& cell) {
  EngineConfig config;
  config.protocol = kind;
  config.distribution = &dist;
  config.workload = &cell.spec;
  config.record_history = false;
  config.runtime = cell.runtime;
  if (cell.threads != 0) config.parallel.num_threads = cell.threads;

  RunResult run;
  const std::uint64_t allocs_before = bu::allocs_so_far();
  const std::uint64_t wall_ns = bu::time_ns([&] { run = mcs::run(std::move(config)); });
  const std::uint64_t allocs = bu::allocs_so_far() - allocs_before;

  const auto pct = [&](double q) {
    const auto ans = run.op_latency.quantile(q);
    return ans.censored ? 0.0 : ans.us;
  };
  const double p50 = pct(0.50), p99 = pct(0.99), p999 = pct(0.999);

  bu::row({cell.label, to_string(kind), bu::num(run.ops_completed),
           bu::num(p50, 0), bu::num(p99, 0), bu::num(p999, 0),
           bu::num(run.ops_censored)});
  h.record({.label = cell.label,
            .protocol = to_string(kind),
            .distribution = dist_name(),
            .ops = run.ops_completed,
            .messages = run.total_traffic.msgs_sent,
            .bytes = run.total_traffic.wire_bytes_sent(),
            .sim_time_ms = static_cast<double>(run.finished_at.us) / 1000.0,
            .wall_ns = wall_ns,
            .max_rss_kb = bu::max_rss_kb(),
            .p50_us = p50,
            .p99_us = p99,
            .p999_us = p999,
            .censored_ops = run.ops_censored,
            .extra = {{"ops_issued", static_cast<double>(run.ops_issued)},
                      // Whole-run heap allocations per completed op (the
                      // run includes system construction, so warm
                      // steady-state is strictly better than this).
                      {"allocs_per_op",
                       run.ops_completed == 0
                           ? 0.0
                           : static_cast<double>(allocs) /
                                 static_cast<double>(run.ops_completed)}}});
}

void header() {
  bu::row({"cell", "protocol", "ops", "p50us", "p99us", "p999us",
           "censored"});
}

void sweep(bu::Harness& h) {
  const auto dist =
      graph::topo::random_replication(kProcs, kVars, kReplication, kTopoSeed);
  // 8 × 125k = exactly 1M streamed ops per non-quick row.
  const std::uint64_t ops = h.quick() ? 500 : 125'000;

  bu::banner("workload mix — closed loop, uniform keys (" +
             std::to_string(ops * kProcs) + " ops/row)");
  header();
  for (const double read_fraction : {0.95, 0.50}) {
    Cell cell;
    cell.label = "mix-read" + std::to_string(static_cast<int>(
                                  read_fraction * 100));
    cell.spec.ops_per_process = ops;
    cell.spec.read_fraction = read_fraction;
    cell.spec.seed = 11;
    for (const ProtocolKind kind : kMixProtocols) {
      run_cell(h, kind, dist, cell);
    }
  }

  bu::banner("workload skew — closed loop, read-95 key popularity");
  header();
  struct Skew {
    const char* tag;
    workload::KeyDist keys;
    double theta;
  };
  for (const Skew& skew : {Skew{"zipf99", workload::KeyDist::kZipf, 0.99},
                           Skew{"zipf60", workload::KeyDist::kZipf, 0.60}}) {
    Cell cell;
    cell.label = std::string("skew-") + skew.tag;
    cell.spec.ops_per_process = ops;
    cell.spec.keys = skew.keys;
    cell.spec.zipf_theta = skew.theta;
    cell.spec.seed = 11;
    for (const ProtocolKind kind : kMixProtocols) {
      run_cell(h, kind, dist, cell);
    }
  }

  bu::banner(
      "workload arrival — OPEN loop (latency from scheduled arrival; "
      "atomic-home capacity ~500 ops/s/proc)");
  header();
  // Rates per process: comfortably under, at, and far over the strong
  // protocol's service capacity.  Open loop needs the virtual-time roots.
  for (const double rate : {200.0, 450.0, 2000.0}) {
    Cell cell;
    cell.label = "open-" + std::to_string(static_cast<int>(rate)) + "ps";
    cell.spec.ops_per_process = ops;
    cell.spec.arrival_rate = rate;
    cell.spec.seed = 11;
    for (const ProtocolKind kind :
         {ProtocolKind::kPramPartial, ProtocolKind::kAtomicHome}) {
      run_cell(h, kind, dist, cell);
    }
  }

  bu::banner("workload parallel root — per-shard histograms merged");
  header();
  {
    Cell cell;
    cell.label = "parallel-2t";
    cell.spec.ops_per_process = ops;
    cell.spec.keys = workload::KeyDist::kZipf;
    cell.spec.seed = 11;
    cell.runtime = EngineRuntime::kParallelSim;
    cell.threads = 2;
    run_cell(h, ProtocolKind::kPramPartial, dist, cell);
  }
}

/// google-benchmark timing of the hot path: one closed-loop streamed row,
/// wall time per op.
void BM_StreamedWorkload(benchmark::State& state, ProtocolKind kind) {
  const auto dist =
      graph::topo::random_replication(kProcs, kVars, kReplication, kTopoSeed);
  workload::Spec spec;
  spec.ops_per_process = static_cast<std::uint64_t>(state.range(0));
  spec.seed = 11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run({.protocol = kind,
                                  .distribution = &dist,
                                  .workload = &spec,
                                  .record_history = false}));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(spec.ops_per_process * kProcs));
}
BENCHMARK_CAPTURE(BM_StreamedWorkload, pram, ProtocolKind::kPramPartial)
    ->Arg(1000)
    ->Arg(10000);
BENCHMARK_CAPTURE(BM_StreamedWorkload, atomic_home, ProtocolKind::kAtomicHome)
    ->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "workload");
  sweep(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
