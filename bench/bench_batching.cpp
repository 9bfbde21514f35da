// S3 — protocol × replication × batching: what a coalescing window buys.
//
// The paper's efficiency results are statements about control-message and
// byte counts; batching/piggybacking is the classic orthogonal axis that
// amortizes exactly the per-message overhead those counts price.  This
// sweep runs every protocol on the three golden topologies with the
// batching layer at window {0, 1ms, 5ms} and reports, per cell, the
// message/byte reduction against the window-0 run of the identical
// workload plus the completion-latency price paid for it.  Expected
// shape:
//
//   chatty multicast protocols   : causal-full/naive/adhoc, pram, slow —
//     every write fans update frames out; successive writes inside a
//     window coalesce per destination, so messages drop steeply (well
//     past 20% at 5ms) at zero completion-latency cost (their ops are
//     wait-free: they complete locally).
//   RPC protocols                : atomic-home, sequencer, cache,
//     processor — requests/replies/commits are completion-blocking and
//     therefore urgent (never delayed); only background refresh traffic
//     batches, so the reduction is smaller and latency stays flat.
//   quiescence time              : grows by O(window) — the last updates
//     wait out their flush timer; the bench reports the delta.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"

namespace {

using namespace pardsm;
using namespace pardsm::mcs;
namespace bu = pardsm::benchutil;

constexpr std::int64_t kWindowsUs[] = {0, 1000, 5000};

std::vector<Script> batching_scripts(const graph::Distribution& dist) {
  WorkloadSpec spec;
  spec.ops_per_process = 16;
  spec.read_fraction = 0.5;
  spec.seed = 42;
  spec.think_time = micros(500);  // writes spread across the windows
  return make_random_scripts(dist, spec);
}

RunResult run_cell(ProtocolKind kind,
                   const graph::Distribution& dist,
                   const std::vector<Script>& scripts,
                   std::int64_t window_us) {
  return run({.protocol = kind,
              .distribution = &dist,
              .scripts = &scripts,
              .reliability = ReliabilityMode::kNever,
              .batching = {.window = micros(window_us)}});
}

/// Mean application-operation completion latency (ms) of a run.
double mean_op_latency_ms(const hist::History& h) {
  if (h.size() == 0) return 0.0;
  std::int64_t sum_us = 0;
  for (const auto& op : h.ops()) sum_us += (op.responded - op.invoked).us;
  return static_cast<double>(sum_us) / static_cast<double>(h.size()) / 1000.0;
}

struct NamedDist {
  const char* name;
  graph::Distribution dist;
};

std::vector<NamedDist> distributions() {
  std::vector<NamedDist> out;
  out.push_back({"ring-6", graph::topo::ring(6)});
  out.push_back({"open-chain-5", graph::topo::open_chain(5)});
  out.push_back({"rand-8p12v-r3",  // <= 13 chars: fits the table column
                 graph::topo::random_replication(8, 12, 3, 7)});
  return out;
}

void sweep(bu::Harness& h) {
  bu::banner("S3 batching sweep (16 ops/proc, 500us think, windows 0/1/5ms)");
  bu::row({"protocol", "distribution", "window", "msgs", "msg-red%",
           "bytes", "byte-red%", "finish-ms", "op-lat-ms"});

  for (const auto& [dist_name, dist] : distributions()) {
    const auto scripts = batching_scripts(dist);
    for (auto kind : all_protocols()) {
      double base_msgs = 0;
      double base_bytes = 0;
      double base_latency = 0;
      for (const std::int64_t window_us : kWindowsUs) {
        const auto r = run_cell(kind, dist, scripts, window_us);
        // wall_ns times a second, warm run of the identical deterministic
        // cell so the row measures the engine, not cold-start noise.
        const std::uint64_t wall_ns =
            bu::time_ns([&] { (void)run_cell(kind, dist, scripts,
                                             window_us); });

        const auto msgs = static_cast<double>(r.total_traffic.msgs_sent);
        const auto bytes =
            static_cast<double>(r.total_traffic.wire_bytes_sent());
        const double op_latency = mean_op_latency_ms(r.history);
        if (window_us == 0) {
          base_msgs = msgs;
          base_bytes = bytes;
          base_latency = op_latency;
        }
        const double msg_red =
            base_msgs > 0 ? 100.0 * (1.0 - msgs / base_msgs) : 0.0;
        const double byte_red =
            base_bytes > 0 ? 100.0 * (1.0 - bytes / base_bytes) : 0.0;

        std::string label = "w";
        label += bu::num(static_cast<std::uint64_t>(window_us / 1000));
        label += "ms";
        bu::row({to_string(kind), dist_name, label,
                 bu::num(r.total_traffic.msgs_sent), bu::num(msg_red, 1),
                 bu::num(r.total_traffic.wire_bytes_sent()),
                 bu::num(byte_red, 1),
                 bu::num(static_cast<double>(r.finished_at.us) / 1000.0, 1),
                 bu::num(op_latency, 2)});
        h.record(
            {.label = label,
             .protocol = to_string(kind),
             .distribution = dist_name,
             .ops = r.history.size(),
             .messages = r.total_traffic.msgs_sent,
             .bytes = r.total_traffic.wire_bytes_sent(),
             .sim_time_ms = static_cast<double>(r.finished_at.us) / 1000.0,
             .wall_ns = wall_ns,
             .extra = {
                 {"window_ms", static_cast<double>(window_us) / 1000.0},
                 {"msg_reduction_pct", msg_red},
                 {"byte_reduction_pct", byte_red},
                 {"mean_op_latency_ms", op_latency},
                 {"op_latency_delta_ms", op_latency - base_latency},
                 {"batch_frames",
                  static_cast<double>(r.batching.frames_sent)},
                 {"batched_messages",
                  static_cast<double>(r.batching.messages_batched)},
             }});
      }
    }
  }
  std::cout << "(reductions vs the window-0 run of the identical workload; "
               "urgent RPC/commit traffic is never delayed, so op latency "
               "moves only where protocols are not wait-free)\n";
}

void BM_BatchedRun(benchmark::State& state, std::int64_t window_us) {
  const auto dist = graph::topo::ring(6);
  const auto scripts = batching_scripts(dist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_cell(ProtocolKind::kCausalPartialAdHoc, dist,
                                      scripts, window_us));
  }
}
BENCHMARK_CAPTURE(BM_BatchedRun, window0, 0);
BENCHMARK_CAPTURE(BM_BatchedRun, window5ms, 5000);

}  // namespace

int main(int argc, char** argv) {
  bu::Harness h(&argc, argv, "batching");
  sweep(h);
  if (!h.quick()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return h.write_json();
}
