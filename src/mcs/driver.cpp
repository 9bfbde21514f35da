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

}  // namespace pardsm::mcs
