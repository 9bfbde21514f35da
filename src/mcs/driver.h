// Script generation for scripted runs.
//
// make_random_scripts / make_single_writer_scripts turn a WorkloadSpec
// into per-process Scripts; run them with mcs::run (engine.h), which is
// the one way to start a run.
#pragma once

#include "mcs/engine.h"

namespace pardsm::mcs {

/// Workload generation parameters.
struct WorkloadSpec {
  std::size_t ops_per_process = 8;
  double read_fraction = 0.5;
  std::uint64_t seed = 1;
  Duration think_time{};  ///< fixed delay between a process's operations
};

/// Random scripts over the distribution: process i only touches X_i, and
/// every written value is globally unique (exact read-from resolution).
[[nodiscard]] std::vector<Script> make_random_scripts(
    const graph::Distribution& dist, const WorkloadSpec& spec);

/// Random scripts where each variable has exactly one writer: the
/// lowest-id member of C(x).  Every process still reads any of its
/// variables.  With no write-write races, the final replica contents of a
/// run are a pure function of the workload — what the differential
/// convergence test (P6) compares across fault scenarios.
[[nodiscard]] std::vector<Script> make_single_writer_scripts(
    const graph::Distribution& dist, const WorkloadSpec& spec);

}  // namespace pardsm::mcs
