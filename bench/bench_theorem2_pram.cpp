// T2 — Theorem 2 measured: PRAM partial replication is efficient.
//
// Sweep the system size; expected shape: PRAM control bytes per update
// stay constant (one 24-byte header), exposure never leaves C(x), and no
// dependency chain exists along any hoop of the recorded histories.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/analysis.h"
#include "mcs/driver.h"
#include "sharegraph/dependency_chain.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

void print_table(bu::Harness& h) {
  bu::banner("T2: PRAM on rings of growing size (every var has a hoop)");
  bu::row({"n", "ctrl-bytes/msg", "leak>C(x)", "pram-chain?", "efficient?"});
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const auto dist = graph::topo::ring(n);
    WorkloadSpec spec;
    spec.ops_per_process = 6;
    spec.seed = n;
    const auto scripts = make_random_scripts(dist, spec);
    const auto once = [&] {
      return mcs::run({.protocol = ProtocolKind::kPramPartial,
                       .distribution = &dist,
                       .scripts = &scripts});
    };
    const auto run = once();
    // wall_ns times a second, warm run of the identical (deterministic)
    // workload so the row measures the engine, not cold-start noise.
    const std::uint64_t wall_ns = bu::time_ns([&] { (void)once(); });
    const auto report =
        core::analyze_run(dist, run.observed_relevant, run.total_traffic);

    // Dependency-chain scan of the recorded history under the PRAM
    // relation (Theorem 2: none can exist).
    const graph::ShareGraph sg(dist);
    bool chain = false;
    for (std::size_t x = 0; x < dist.var_count && !chain; ++x) {
      chain = graph::find_chain(run.history, sg, static_cast<VarId>(x),
                                graph::ChainRelation::kPram)
                  .found;
    }

    const double per_msg =
        run.total_traffic.msgs_sent == 0
            ? 0.0
            : static_cast<double>(run.total_traffic.control_bytes_sent) /
                  static_cast<double>(run.total_traffic.msgs_sent);
    bu::row({bu::num(static_cast<std::uint64_t>(n)), bu::num(per_msg, 1),
             bu::num(static_cast<std::uint64_t>(
                 report.vars_leaking_past_clique)),
             chain ? "YES(!)" : "no",
             bu::yesno(report.efficient())});
    h.record(
        {.label = "ring-" + std::to_string(n),
         .protocol = to_string(ProtocolKind::kPramPartial),
         .distribution = dist.name,
         .ops = run.history.size(),
         .messages = run.total_traffic.msgs_sent,
         .bytes = run.total_traffic.wire_bytes_sent(),
         .sim_time_ms = static_cast<double>(run.finished_at.us) / 1000.0,
         .wall_ns = wall_ns,
         .extra = {{"ctrl_bytes_per_msg", per_msg},
                   {"leak_past_clique",
                    static_cast<double>(report.vars_leaking_past_clique)},
                   {"pram_chain", chain ? 1.0 : 0.0},
                   {"efficient", report.efficient() ? 1.0 : 0.0}}});
  }
  std::cout << "(expected: ctrl-bytes/msg constant at 24; zero leaks; no "
               "chains — Theorem 2)\n";

  bu::banner("contrast: causal-partial-naive on the same rings");
  bu::row({"n", "ctrl-bytes/msg", "leak>C(x)", "efficient?"});
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const auto dist = graph::topo::ring(n);
    WorkloadSpec spec;
    spec.ops_per_process = 6;
    spec.seed = n;
    const auto scripts = make_random_scripts(dist, spec);
    const auto once = [&] {
      return mcs::run({.protocol = ProtocolKind::kCausalPartialNaive,
                       .distribution = &dist,
                       .scripts = &scripts});
    };
    const auto run = once();
    const std::uint64_t wall_ns = bu::time_ns([&] { (void)once(); });
    const auto report =
        core::analyze_run(dist, run.observed_relevant, run.total_traffic);
    const double per_msg =
        static_cast<double>(run.total_traffic.control_bytes_sent) /
        static_cast<double>(run.total_traffic.msgs_sent);
    bu::row({bu::num(static_cast<std::uint64_t>(n)), bu::num(per_msg, 1),
             bu::num(static_cast<std::uint64_t>(
                 report.vars_leaking_past_clique)),
             bu::yesno(report.efficient())});
    h.record(
        {.label = "ring-" + std::to_string(n),
         .protocol = to_string(ProtocolKind::kCausalPartialNaive),
         .distribution = dist.name,
         .ops = run.history.size(),
         .messages = run.total_traffic.msgs_sent,
         .bytes = run.total_traffic.wire_bytes_sent(),
         .sim_time_ms = static_cast<double>(run.finished_at.us) / 1000.0,
         .wall_ns = wall_ns,
         .extra = {{"ctrl_bytes_per_msg", per_msg},
                   {"leak_past_clique",
                    static_cast<double>(report.vars_leaking_past_clique)},
                   {"efficient", report.efficient() ? 1.0 : 0.0}}});
  }
  std::cout << "(expected: ctrl-bytes/msg grows ~8n; every variable "
               "leaks)\n";
}

void BM_PramRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dist = graph::topo::ring(n);
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  const auto scripts = make_random_scripts(dist, spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run({.protocol = ProtocolKind::kPramPartial,
                                  .distribution = &dist,
                                  .scripts = &scripts}));
  }
}
BENCHMARK(BM_PramRun)->Range(4, 64);

void BM_NaiveCausalRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dist = graph::topo::ring(n);
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  const auto scripts = make_random_scripts(dist, spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run({.protocol = ProtocolKind::kCausalPartialNaive,
             .distribution = &dist,
             .scripts = &scripts}));
  }
}
BENCHMARK(BM_NaiveCausalRun)->Range(4, 64);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "theorem2_pram");
  print_table(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
