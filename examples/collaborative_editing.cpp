// Collaborative editing — the large-scale scenario motivating §3.3.
//
// "Shared memory is a powerful abstraction in large-scale systems spanning
// geographically distant sites; these environments are naturally
// appropriate for distributed applications supporting collaboration."
//
// A document of S sections is edited by S authors; author i owns section
// i and also reads/annotates the two adjacent sections (an open-chain
// share graph — hoop-free).  A handful of "reviewers" additionally watch
// disjoint section ranges.  Each author repeatedly: reads its
// neighbourhood, then commits a new revision of its own section.
//
// The example runs the same edit workload under a causal protocol that is
// sound for unknown distributions (metadata goes everywhere) and under
// the hoop-aware causal and PRAM protocols, and prints the §3.3 ledger:
// who had to know about what, and at what byte cost.
//
//   $ ./examples/collaborative_editing

#include <iostream>

#include "core/analysis.h"
#include "mcs/driver.h"
#include "sharegraph/hoops.h"

namespace {

using namespace pardsm;

/// Authors 0..S-1 own sections 0..S-1; reviewer processes watch ranges.
graph::Distribution document(std::size_t sections, std::size_t reviewers) {
  graph::Distribution d;
  d.name = "document-s" + std::to_string(sections) + "-r" +
           std::to_string(reviewers);
  d.var_count = sections;
  d.per_process.resize(sections + reviewers);
  for (std::size_t a = 0; a < sections; ++a) {
    if (a > 0) d.per_process[a].push_back(static_cast<VarId>(a - 1));
    d.per_process[a].push_back(static_cast<VarId>(a));
    if (a + 1 < sections) d.per_process[a].push_back(static_cast<VarId>(a + 1));
  }
  // Reviewers watch disjoint ranges.
  for (std::size_t r = 0; r < reviewers; ++r) {
    const std::size_t lo = r * sections / reviewers;
    const std::size_t hi = (r + 1) * sections / reviewers;
    for (std::size_t s = lo; s < hi; ++s) {
      d.per_process[sections + r].push_back(static_cast<VarId>(s));
    }
  }
  return d;
}

/// Edit workload: authors alternate "read neighbourhood, write own
/// section (new revision id)"; reviewers only read.
std::vector<mcs::Script> edit_workload(const graph::Distribution& d,
                                       std::size_t sections,
                                       std::size_t rounds) {
  std::vector<mcs::Script> scripts(d.process_count());
  Value revision = 1;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t p = 0; p < d.process_count(); ++p) {
      for (VarId x : d.per_process[p]) {
        scripts[p].push_back(mcs::ScriptOp::read(x, millis(2)));
      }
      if (p < sections) {
        scripts[p].push_back(
            mcs::ScriptOp::write(static_cast<VarId>(p), revision++));
      }
    }
  }
  return scripts;
}

}  // namespace

int main() {
  const std::size_t sections = 8, reviewers = 2;
  const auto dist = document(sections, reviewers);
  const auto scripts = edit_workload(dist, sections, 3);

  const graph::ShareGraph sg(dist);
  const auto summary = graph::summarize_relevance(sg);
  std::cout << "document: " << sections << " sections, "
            << sections + reviewers << " participants; Σ|C(x)|="
            << summary.total_replicas << ", Σ|R(x)|="
            << summary.total_relevant << " (vars with hoops: "
            << summary.vars_with_hoops << ")\n\n";

  for (auto kind : {mcs::ProtocolKind::kCausalPartialNaive,
                    mcs::ProtocolKind::kCausalPartialAdHoc,
                    mcs::ProtocolKind::kPramPartial}) {
    const auto run = mcs::run(
        {.protocol = kind,
         .distribution = &dist,
         .scripts = &scripts,
         .latency = std::make_unique<UniformLatency>(millis(5), millis(40))});
    const auto report =
        core::analyze_run(dist, run.observed_relevant, run.total_traffic);
    std::size_t exposure = 0;
    for (const auto& vr : report.per_var) exposure += vr.observed.size();
    std::cout << mcs::to_string(kind) << ":\n  msgs="
              << run.total_traffic.msgs_sent
              << "  control-bytes=" << run.total_traffic.control_bytes_sent
              << "  Σ|exposed|=" << exposure
              << "  efficient=" << (report.efficient() ? "yes" : "no")
              << '\n';
  }
  std::cout << "\n(expected: reviewers make the share graph hoop-rich, so "
               "the ad-hoc causal\n protocol still informs bystanders; "
               "PRAM keeps each section's updates between\n its author, "
               "the neighbours and the watching reviewer)\n";
  return 0;
}
