// Protocol instantiation.
#pragma once

#include <memory>
#include <vector>

#include "mcs/protocol.h"

namespace pardsm::mcs {

struct StaticRelevance;

/// Create one McsProcess per process of the distribution, for the given
/// protocol.  The recorder must outlive the processes.  After creation the
/// caller registers each process with a runtime and calls attach().
[[nodiscard]] std::vector<std::unique_ptr<McsProcess>> make_processes(
    ProtocolKind kind, const graph::Distribution& dist,
    HistoryRecorder& recorder);

/// The Theorem-1 analysis of `dist`, shared across runs.  R(x) depends on
/// the distribution alone, so make_processes takes it from a small
/// process-wide memo (a few entries, mutex-guarded) keyed on the
/// distribution's contents — var_count and per_process, compared exactly;
/// the name is not part of the key.  A miss runs StaticRelevance::analyze,
/// which itself stays uncached.
[[nodiscard]] std::shared_ptr<const StaticRelevance> shared_relevance(
    const graph::Distribution& dist);

}  // namespace pardsm::mcs
