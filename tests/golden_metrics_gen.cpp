// Regenerates the golden table of test_golden_metrics.cpp.
//
//   $ ./tests/golden_metrics_gen
//
// Paste the output over the kGolden, kGoldenScenario and kGoldenWorkload
// arrays.  Only do this when a protocol's message complexity
// *legitimately* changes (new protocol feature, new accounting); for pure engine/performance work the table must stay
// byte-identical — that is the point of the gate.

#include <cstdio>

#include "golden_metrics_common.h"

int main() {
  using namespace pardsm;
  std::printf("// generated by golden_metrics_gen — do not hand-edit\n");
  for (const auto& topo : golden::golden_topologies()) {
    for (auto kind : mcs::all_protocols()) {
      const auto m = golden::measure(kind, topo.dist);
      std::printf(
          "    {\"%s\", \"%s\", %lluull, %lluull, %lluull, %lluull, "
          "%lluull, %lld},\n",
          mcs::to_string(kind), topo.name,
          static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.bytes),
          static_cast<unsigned long long>(m.exposure_sum),
          static_cast<unsigned long long>(m.exposure_hash),
          static_cast<unsigned long long>(m.events),
          static_cast<long long>(m.finished_us));
    }
  }
  std::printf(
      "\n// scenario gate (paste over kGoldenScenario)\n"
      "// generated by golden_metrics_gen — do not hand-edit\n");
  for (auto kind : mcs::all_protocols()) {
    const auto m = golden::measure_scenario(kind);
    std::printf("    {\"%s\", %lluull, %lluull, %lluull, %lluull, %lld},\n",
                mcs::to_string(kind),
                static_cast<unsigned long long>(m.messages),
                static_cast<unsigned long long>(m.bytes),
                static_cast<unsigned long long>(m.retransmissions),
                static_cast<unsigned long long>(m.dropped),
                static_cast<long long>(m.finished_us));
  }
  std::printf(
      "\n// workload gate (paste over kGoldenWorkload)\n"
      "// generated by golden_metrics_gen — do not hand-edit\n");
  for (auto load : {golden::GoldenLoad::kClosedLossless,
                    golden::GoldenLoad::kOpenCheckedFaults}) {
    for (unsigned threads : {0u, 2u}) {
      for (auto kind : golden::golden_workload_protocols()) {
        const auto m = golden::measure_workload(kind, load, threads);
        std::printf(
            "    {\"%s\", \"%s\", %uu, %lluull, %lluull, %lluull, %lld, "
            "%lluull, %lluull, %lluull, %lld, %lld, %lld, %lluull},\n",
            mcs::to_string(kind), golden::to_string(load), threads,
            static_cast<unsigned long long>(m.messages),
            static_cast<unsigned long long>(m.bytes),
            static_cast<unsigned long long>(m.events),
            static_cast<long long>(m.finished_us),
            static_cast<unsigned long long>(m.ops_completed),
            static_cast<unsigned long long>(m.ops_censored),
            static_cast<unsigned long long>(m.latency_samples),
            static_cast<long long>(m.p50_us),
            static_cast<long long>(m.p99_us),
            static_cast<long long>(m.p999_us),
            static_cast<unsigned long long>(m.history_hash));
      }
    }
  }
  return 0;
}
