// E2 — Figure 2 and the §3.3 cost argument: hoop enumeration vs hoop
// existence.
//
// The paper: "enumerating all the hoops can be very long because it
// amounts to enumerate a set of paths in a graph that can be very big".
// The table shows enumeration blowing up combinatorially on dense random
// share graphs while the linear-time membership test (Theorem 1 sets
// without enumeration: one biconnected-component pass per variable, see
// sharegraph/hoops.h) stays flat.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sharegraph/hoops.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::graph;
namespace bu = pardsm::benchutil;

void print_table(bu::Harness& h) {
  bu::banner("E2: x-hoop enumeration vs polynomial membership (x = var 0)");
  bu::row({"topology", "n", "hoops", "truncated", "enum-ms", "member-ms",
           "|R(x)|"});
  struct CaseDef {
    std::string name;
    Distribution dist;
  };
  std::vector<CaseDef> cases;
  for (std::size_t n : {8u, 16u, 32u}) {
    cases.push_back({"ring-" + std::to_string(n), topo::ring(n)});
  }
  for (std::size_t n : {8u, 10u, 12u}) {
    cases.push_back({"random-r3-" + std::to_string(n),
                     topo::random_replication(n, 2 * n, 3, 5)});
  }
  cases.push_back({"grid-4x4", topo::grid(4, 4)});
  cases.push_back({"clusters-4x3", topo::clusters(4, 3, true)});

  for (const auto& c : cases) {
    const ShareGraph sg(c.dist);
    HoopEnumeration e;
    const double enum_ms = bu::time_ms(
        [&] { e = enumerate_hoops(sg, 0, /*limit=*/200000); });
    std::set<ProcessId> rel;
    const double member_ms = bu::time_ms([&] { rel = x_relevant(sg, 0); });
    bu::row({c.name, bu::num(static_cast<std::uint64_t>(sg.process_count())),
             bu::num(static_cast<std::uint64_t>(e.hoops.size())),
             e.truncated ? "YES" : "no", bu::num(enum_ms, 3),
             bu::num(member_ms, 3),
             bu::num(static_cast<std::uint64_t>(rel.size()))});
    h.record({.label = c.name,
              .distribution = c.dist.name,
              .wall_ns =
                  static_cast<std::uint64_t>((enum_ms + member_ms) * 1e6),
              .extra = {{"hoops", static_cast<double>(e.hoops.size())},
                        {"truncated", e.truncated ? 1.0 : 0.0},
                        {"enum_ms", enum_ms},
                        {"member_ms", member_ms},
                        {"relevant", static_cast<double>(rel.size())}}});
  }
  std::cout << "(expected shape: enumeration cost explodes on dense random "
               "graphs;\n block-based membership stays linear — §3.3)\n";
}

void BM_EnumerateHoopsRing(benchmark::State& state) {
  const ShareGraph sg(topo::ring(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_hoops(sg, 0, 1u << 18));
  }
}
BENCHMARK(BM_EnumerateHoopsRing)->Range(8, 64);

void BM_EnumerateHoopsRandom(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ShareGraph sg(topo::random_replication(n, 2 * n, 3, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_hoops(sg, 0, 1u << 16));
  }
}
BENCHMARK(BM_EnumerateHoopsRandom)->DenseRange(6, 12, 2);

// n = 32 / 256 / 1024 over 2n variables: one block pass for x = 0.
void BM_HoopMembership(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ShareGraph sg(topo::random_replication(n, 2 * n, 3, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hoop_members(sg, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HoopMembership)
    ->Arg(32)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_HoopExists(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ShareGraph sg(topo::ring(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hoop_exists(sg, 0));
  }
}
BENCHMARK(BM_HoopExists)->Range(8, 64);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "fig2_hoops");
  print_table(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
