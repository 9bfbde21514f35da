#include "mcs/driver.h"

#include "simnet/rng.h"

namespace pardsm::mcs {

std::vector<Script> make_random_scripts(const graph::Distribution& dist,
                                        const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  std::vector<Script> scripts(dist.process_count());
  Value next_value = 1;
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    const auto& mine = dist.per_process[p];
    if (mine.empty()) continue;
    Script& script = scripts[p];
    for (std::size_t i = 0; i < spec.ops_per_process; ++i) {
      const VarId x = mine[static_cast<std::size_t>(rng.below(mine.size()))];
      if (rng.chance(spec.read_fraction)) {
        script.push_back(ScriptOp::read(x, spec.think_time));
      } else {
        script.push_back(ScriptOp::write(x, next_value++, spec.think_time));
      }
    }
  }
  return scripts;
}

std::vector<Script> make_single_writer_scripts(const graph::Distribution& dist,
                                               const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  const CliqueTable cliques(dist);
  std::vector<Script> scripts(dist.process_count());
  Value next_value = 1;
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    const auto& mine = dist.per_process[p];
    if (mine.empty()) continue;
    std::vector<VarId> writable;
    for (VarId x : mine) {
      if (cliques.clique(x).front() == static_cast<ProcessId>(p)) {
        writable.push_back(x);
      }
    }
    Script& script = scripts[p];
    for (std::size_t i = 0; i < spec.ops_per_process; ++i) {
      if (writable.empty() || rng.chance(spec.read_fraction)) {
        const VarId x =
            mine[static_cast<std::size_t>(rng.below(mine.size()))];
        script.push_back(ScriptOp::read(x, spec.think_time));
      } else {
        const VarId x = writable[static_cast<std::size_t>(
            rng.below(writable.size()))];
        script.push_back(ScriptOp::write(x, next_value++, spec.think_time));
      }
    }
  }
  return scripts;
}

namespace {

/// The shared slice of all three wrappers.
EngineConfig base_config(ProtocolKind kind, const graph::Distribution& dist,
                         const std::vector<Script>& scripts,
                         RunOptions&& options) {
  EngineConfig config;
  config.protocol = kind;
  config.distribution = &dist;
  config.scripts = &scripts;
  config.sim_seed = options.sim_seed;
  config.channel = options.channel;
  config.latency = std::move(options.latency);
  config.reliable = options.reliable;
  return config;
}

}  // namespace

RunResult run_workload(ProtocolKind kind, const graph::Distribution& dist,
                       const std::vector<Script>& scripts,
                       RunOptions options) {
  EngineConfig config = base_config(kind, dist, scripts, std::move(options));
  config.reliability = ReliabilityMode::kNever;
  ScenarioRunResult r = run(std::move(config));
  return static_cast<RunResult&&>(std::move(r));  // move-slice, no copy
}

ScenarioRunResult run_scenario(ProtocolKind kind,
                               const graph::Distribution& dist,
                               const std::vector<Script>& scripts,
                               const Scenario& scenario, RunOptions options) {
  EngineConfig config = base_config(kind, dist, scripts, std::move(options));
  // Any loss source — the timeline's or the ChannelOptions the caller
  // seeded the channel with — needs the ARQ layer for liveness.
  config.reliability = ReliabilityMode::kAuto;
  config.scenario = &scenario;
  return run(std::move(config));
}

RunResult run_workload_parallel(ProtocolKind kind,
                                const graph::Distribution& dist,
                                const std::vector<Script>& scripts,
                                unsigned threads, RunOptions options) {
  EngineConfig config = base_config(kind, dist, scripts, std::move(options));
  config.reliability = ReliabilityMode::kNever;
  config.runtime = EngineRuntime::kParallelSim;
  config.parallel.num_threads = threads;
  ScenarioRunResult r = run(std::move(config));
  return static_cast<RunResult&&>(std::move(r));
}

ScenarioRunResult run_scenario_parallel(ProtocolKind kind,
                                        const graph::Distribution& dist,
                                        const std::vector<Script>& scripts,
                                        const Scenario& scenario,
                                        unsigned threads, RunOptions options) {
  EngineConfig config = base_config(kind, dist, scripts, std::move(options));
  config.reliability = ReliabilityMode::kAuto;
  config.scenario = &scenario;
  config.runtime = EngineRuntime::kParallelSim;
  config.parallel.num_threads = threads;
  return run(std::move(config));
}

}  // namespace pardsm::mcs
