// T1 — Theorem 1 measured: who observably handles x-information under
// each protocol, against the predicted x-relevant sets.
//
// Columns: Σ_x |C(x)| (the efficient ideal), Σ_x |R(x)| (Theorem 1),
// Σ_x |observed(x)|, and leak counts.  Expected shape:
//   pram/slow:   observed ⊆ C(x)               (efficient)
//   adhoc:       C(x) ⊆ observed ⊆ R(x)        (Theorem 1 exactly)
//   naive/full:  observed ≈ everyone           (the impossibility price)
//   sequencer:   C(x) ∪ {sequencer}            (centralisation)

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/analysis.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

std::vector<Script> exhaustive_scripts(const graph::Distribution& dist) {
  std::vector<Script> scripts(dist.process_count());
  Value v = 1;
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    for (VarId x : dist.per_process[p]) {
      scripts[p].push_back(ScriptOp::write(x, v++));
      scripts[p].push_back(ScriptOp::read(x));
    }
  }
  return scripts;
}

void print_table(bu::Harness& h) {
  const std::vector<graph::Distribution> corpus = {
      graph::topo::chain_with_hoop(6),
      graph::topo::star(5),
      graph::topo::clusters(3, 2, true),
      graph::topo::random_replication(8, 6, 2, 3),
  };
  for (const auto& dist : corpus) {
    const graph::ShareGraph sg(dist);
    std::size_t sum_c = 0, sum_r = 0;
    for (std::size_t x = 0; x < dist.var_count; ++x) {
      sum_c += sg.clique(static_cast<VarId>(x)).size();
      sum_r += graph::x_relevant(sg, static_cast<VarId>(x)).size();
    }
    bu::banner("T1 on " + dist.name + "  (Σ|C|=" + std::to_string(sum_c) +
               ", Σ|R|=" + std::to_string(sum_r) + ", n*m=" +
               std::to_string(dist.process_count() * dist.var_count) + ")");
    bu::row({"protocol", "Σ|observed|", "leak>C(x)", "leak>R(x)",
             "efficient?"});
    for (auto kind : all_protocols()) {
      const auto scripts = exhaustive_scripts(dist);
      const auto once = [&] {
        return mcs::run({.protocol = kind,
                         .distribution = &dist,
                         .scripts = &scripts,
                         .latency = std::make_unique<UniformLatency>(
                             millis(1), millis(8))});
      };
      const auto run = once();
      // wall_ns times a second, warm run of the identical (deterministic)
      // workload so the row measures the engine, not cold-start noise.
      const std::uint64_t wall_ns = bu::time_ns([&] { (void)once(); });
      const auto report = core::analyze_run(dist, run.observed_relevant,
                                            run.total_traffic);
      std::size_t observed = 0;
      for (const auto& vr : report.per_var) observed += vr.observed.size();
      bu::row({to_string(kind), bu::num(static_cast<std::uint64_t>(observed)),
               bu::num(static_cast<std::uint64_t>(
                   report.vars_leaking_past_clique)),
               bu::num(static_cast<std::uint64_t>(
                   report.vars_leaking_past_relevant)),
               bu::yesno(report.efficient())});
      h.record(
          {.label = dist.name,
           .protocol = to_string(kind),
           .distribution = dist.name,
           .ops = run.history.size(),
           .messages = run.total_traffic.msgs_sent,
           .bytes = run.total_traffic.wire_bytes_sent(),
           .sim_time_ms = static_cast<double>(run.finished_at.us) / 1000.0,
           .wall_ns = wall_ns,
           .extra = {{"sum_clique", static_cast<double>(sum_c)},
                     {"sum_relevant", static_cast<double>(sum_r)},
                     {"sum_observed", static_cast<double>(observed)},
                     {"leak_past_clique",
                      static_cast<double>(report.vars_leaking_past_clique)},
                     {"leak_past_relevant",
                      static_cast<double>(report.vars_leaking_past_relevant)},
                     {"efficient", report.efficient() ? 1.0 : 0.0}}});
    }
  }
}

void BM_RelevanceAnalysis(benchmark::State& state) {
  const auto dist = graph::topo::random_replication(
      static_cast<std::size_t>(state.range(0)),
      2 * static_cast<std::size_t>(state.range(0)), 3, 3);
  const graph::ShareGraph sg(dist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::all_relevant_sets(sg));
  }
}
BENCHMARK(BM_RelevanceAnalysis)
    ->Arg(32)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_WorkloadAdhocVsNaive(benchmark::State& state, ProtocolKind kind) {
  const auto dist = graph::topo::clusters(3, 2, true);
  const auto scripts = exhaustive_scripts(dist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run({.protocol = kind, .distribution = &dist, .scripts = &scripts}));
  }
}
BENCHMARK_CAPTURE(BM_WorkloadAdhocVsNaive, naive,
                  ProtocolKind::kCausalPartialNaive);
BENCHMARK_CAPTURE(BM_WorkloadAdhocVsNaive, adhoc,
                  ProtocolKind::kCausalPartialAdHoc);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "theorem1_relevance");
  print_table(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
