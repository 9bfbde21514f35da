// pardsm benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--slowdown-ns NS]
//   perfbench --list
//
// Runs one workload through the library's public API only: topology
// generators, ShareGraph, summarize_relevance, StaticRelevance::analyze,
// workload::Generator, mcs::run, EventQueue and hist::check_history.  A
// run has three phases:
//
//   timed   for --seconds, setups interleaved with reps of the workload.  A
//           setup (topology, share graph, relevance analysis where the
//           protocol needs it, generators, one warm-up rep) runs whenever
//           setups have had less than kSetupShare of the time so far, and
//           at least kMinSetups times; setup_s is the median.  ops_per_ref_s
//           is the median over reps.  A HostProbe runs after every setup
//           and rep, and both metrics are in reference seconds (see
//           HostProbe).  Spreading the setups over the run makes both
//           medians sample the same stretch of host time.  With --trace 1
//           every other rep records spans, and the two medians give the
//           tracing overhead.
//   checks  every rep must complete every op and reproduce the warm-up's
//           deterministic outcome bit for bit.  Then the counted run,
//           which the deterministic metrics come from, runs twice and must
//           reproduce itself bit for bit.  Streamed workloads: a recorded
//           prefix of the op stream must pass hist::check_history under the
//           protocol's criterion, the counted run is a longer run of the
//           same op stream, and it runs once more on the parallel root,
//           which must give the same deterministic metrics.  Checked
//           workloads: the counted run is five times a rep's histories,
//           each of which must pass its check.
//   layers  (--trace 1 only) traced calls that isolate a layer: relevance
//           analysis, Generator::op replay, an EventQueue replay, and three
//           samples each of recording on vs off and of the sequential /
//           parallel roots.
//
// Every metric is printed by name with unit and direction; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// A failed check prints correct=false and exits 1.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "history/checkers.h"
#include "mcs/causal_partial_adhoc.h"
#include "mcs/engine.h"
#include "sharegraph/hoops.h"
#include "sharegraph/topologies.h"
#include "simnet/event_queue.h"
#include "simnet/latency.h"
#include "spans.h"
#include "workload/generator.h"

namespace {

using namespace pardsm;
using perfbench::Tracer;

// ---------------------------------------------------------------------------
// Metric catalogue — the names, units and directions BENCHMARK.json lists.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* layer;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_ref_s", "1/s", "higher", "end-to-end"},
    {"setup_s", "s", "lower", "end-to-end"},
    {"peak_rss_mb", "MB", "lower", "end-to-end"},
    {"msgs_per_op", "msgs/op", "lower", "end-to-end"},
    {"wire_bytes_per_op", "B/op", "lower", "end-to-end"},
    {"exposure_ratio", "ratio", "lower", "end-to-end"},
};

constexpr MetricDef kPerLayer[] = {
    {"sharegraph.build_s", "s", "lower", "sharegraph"},
    {"sharegraph.relevance_ratio", "ratio", "lower", "sharegraph"},
    {"workload.op_ns", "ns", "lower", "workload"},
    {"mcs.adhoc_analyze_s", "s", "lower", "mcs"},
    {"mcs.run_s", "s", "lower", "mcs"},
    {"mcs.events_per_op", "events/op", "lower", "mcs"},
    {"mcs.msgs_per_write", "msgs/write", "lower", "mcs"},
    {"mcs.ctrl_bytes_per_msg", "B/msg", "lower", "mcs"},
    {"mcs.buffered_share", "ratio", "lower", "mcs"},
    {"mcs.max_buffer_depth", "count", "lower", "mcs"},
    {"mcs.remote_read_share", "ratio", "lower", "mcs"},
    {"mcs.record_s", "s", "lower", "mcs"},
    {"simnet.ns_per_event", "ns", "lower", "simnet"},
    {"simnet.event_queue_ns", "ns", "lower", "simnet"},
    {"simnet.active_pairs", "count", "lower", "simnet"},
    {"simnet.channel_state_kb", "kB", "lower", "simnet"},
    {"simnet.parallel_speedup", "x", "higher", "simnet"},
    {"simnet.parallel_1w_slowdown", "x", "lower", "simnet"},
    {"simnet.retransmits_per_msg", "ratio", "lower", "simnet"},
    {"simnet.drops", "count", "lower", "simnet"},
    {"simnet.resync_bytes", "B", "lower", "simnet"},
    {"history.check_s", "s", "lower", "history"},
    {"history.check_ns_per_op", "ns", "lower", "history"},
    {"history.definitive_share", "ratio", "higher", "history"},
    {"trace.untraced_ops_per_ref_s", "1/s", "higher", "trace"},
    {"trace.traced_ops_per_ref_s", "1/s", "higher", "trace"},
    {"host.ops_per_s", "1/s", "higher", "host"},
    {"host.setup_s", "s", "lower", "host"},
    {"host.speed", "x", "higher", "host"},
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Shape : std::uint8_t {
  kStream,   ///< one long closed-loop streamed run per rep, recording off
  kChecked,  ///< many small recorded faulty runs per rep, each checked
};

struct WorkloadDef {
  const char* name;
  const char* why;
  Shape shape;
  mcs::ProtocolKind protocol;  ///< kStream only
  /// Ops per process of one streamed rep (kStream) or of one history
  /// (kChecked).
  std::uint64_t ops_per_process;
  /// The size of the counted run, which the deterministic metrics come
  /// from: ops per process of one longer run of the same op stream
  /// (kStream), or histories per protocol (kChecked), so their seed-to-seed
  /// spread stays small while timed reps stay short.
  std::uint64_t counted_ops;
  std::uint64_t prefix_ops;  ///< kStream: per process, recorded and checked
  std::uint64_t histories;   ///< kChecked: histories per protocol in a rep
};

// Sizes.  Timed reps are short so a run holds many: about 40 ms
// (pram-stream) and 0.3 s (checked-faults) on a 4-core x86 VM.  All timed
// work runs on the sequential simulator: on such a host the parallel
// root's barrier-synchronised workers swing 3x from run to run, so it is
// measured in the traced run's layers phase instead.  Checked
// histories stay at 3 ops per process: at 4 the slowest 1% of PRAM/causal
// checks take 17% of all check time, at 6 there are multi-second outliers.
// Streamed prefixes stay at 1 op per process: at 2 (64 ops on 32
// processes) some seeds exhaust the checker's search budget.  A workload
// of causal-partial-adhoc on pram-stream's topology was dropped: its reps
// are bound by memory bandwidth, which the shared host's other tenants
// swing too far for its throughput to hold a bound.  See perfbench/README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"pram-stream",
     "PRAM on the sequential simulator: writes fan out to C(x) only, so host "
     "time is simnet + mcs dispatch + workload; bypasses relevance, parallel "
     "root and checkers",
     Shape::kStream, mcs::ProtocolKind::kPramPartial, 1'000, 10'000, 1, 0},
    {"checked-faults",
     "small recorded runs under loss, partition and crash, four protocols, "
     "each history checked: the only workload where history, ARQ and re-sync "
     "work",
     Shape::kChecked, mcs::ProtocolKind::kPramPartial, 3, 1'280, 0, 256},
};

constexpr mcs::ProtocolKind kCheckedProtocols[] = {
    mcs::ProtocolKind::kPramPartial,
    mcs::ProtocolKind::kCausalPartialAdHoc,
    mcs::ProtocolKind::kCachePartial,
    mcs::ProtocolKind::kAtomicHome,
};

/// The criterion each protocol's histories are checked under.
hist::Criterion criterion_of(mcs::ProtocolKind kind) {
  switch (kind) {
    case mcs::ProtocolKind::kPramPartial:
      return hist::Criterion::kPram;
    case mcs::ProtocolKind::kCausalPartialAdHoc:
      return hist::Criterion::kCausal;
    case mcs::ProtocolKind::kCachePartial:
      return hist::Criterion::kCache;
    default:
      return hist::Criterion::kSequential;
  }
}

graph::Distribution make_topology(const WorkloadDef& wl) {
  if (wl.shape == Shape::kChecked) {
    return graph::topo::random_replication(8, 16, 3, 7);
  }
  return graph::topo::random_replication(32, 128, 3, 7);
}

/// The fault timeline of checked-faults: 5% loss throughout, the halves
/// partitioned from 5 to 20 ms, process 3 down from 8 to 25 ms.  Ops
/// arrive open-loop every 5 ms, so the faults overlap the traffic.
Scenario make_faults() {
  Scenario s("checked-faults");
  s.set_loss(0.05);
  s.partition({{0, 1, 2, 3}, {4, 5, 6, 7}}, after(millis(5)), after(millis(20)));
  s.crash(3, after(millis(8)), after(millis(25)));
  return s;
}
constexpr double kCheckedArrivalRate = 200.0;  ///< ops per simulated s
/// Setups per run: at least kMinSetups, and one whenever setups have had
/// less than kSetupShare of the run's time so far.  setup_s is their median.
constexpr std::size_t kMinSetups = 7;
constexpr double kSetupShare = 0.1;
constexpr int kMinReps = 4;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Host-side helpers.

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process image, from VmHWM.  getrusage's
/// ru_maxrss would do, except that Linux carries it across execve, so a
/// parent larger than the benchmark (the Python launcher) sets its floor.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Timed loops store their result here so the compiler keeps the work.
volatile std::uint64_t g_sink = 0;

/// A fixed piece of host work that shares no code with the library: a map
/// of small vectors, grown, resized and erased in a fixed pattern, with
/// every allocation served by a pool over a preallocated buffer (not by
/// malloc, which the library also uses).  It takes about 6 ms on the
/// reference host below.  Run next to every timed rep and setup, it tells
/// how fast the host is running at that moment: on a shared host the same
/// rep runs up to 2x faster or slower for seconds to minutes at a time, and
/// this probe's time moves with it (see perfbench/README.md, limit 4).
class HostProbe {
 public:
  HostProbe() : buffer_(16U << 20U) { (void)run(); }

  /// Host seconds of one probe.
  double run() {
    const auto t0 = std::chrono::steady_clock::now();
    std::pmr::monotonic_buffer_resource arena(buffer_.data(), buffer_.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::map<std::uint64_t, std::pmr::vector<std::uint64_t>> m(&pool);
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < 20'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      m[(x >> 33) % 4096].resize(((x >> 20) & 63) + 1, i);
      if (i % 3 == 0) m.erase((x >> 13) % 4096);
    }
    g_sink = m.size();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

 private:
  std::vector<std::byte> buffer_;
};

/// HostProbe::run's median on the reference host, a 4-vCPU 2.0 GHz x86 VM.
/// Host-timed end-to-end metrics are reported in reference seconds: a host
/// duration d measured next to a probe that took q counts as
/// d * kProbeRefSeconds / q.
constexpr double kProbeRefSeconds = 0.0059;

/// The default 1 ms constant latency, plus a host-side busy wait on every
/// sample.  Simulated outputs are unchanged; only host time grows.  The
/// benchmark's self-test uses it as a seeded slowdown.
class SpinLatency final : public LatencyModel {
 public:
  explicit SpinLatency(std::int64_t spin_ns) : spin_ns_(spin_ns) {}
  Duration sample(ProcessId, ProcessId, Rng&) override {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(spin_ns_);
    while (std::chrono::steady_clock::now() < until) {
    }
    return millis(1);
  }
  [[nodiscard]] Duration lower_bound() const override { return millis(1); }
  [[nodiscard]] std::unique_ptr<LatencyModel> clone() const override {
    return std::make_unique<SpinLatency>(spin_ns_);
  }

 private:
  std::int64_t spin_ns_;
};

// ---------------------------------------------------------------------------
// The deterministic outcome of a set of runs.  Every field except the host
// times is a pure function of (workload, seed); two reps of one seed must
// compare equal.

struct Outcome {
  std::uint64_t runs = 0;
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_censored = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t msgs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t writes = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_buffered = 0;
  std::uint64_t max_buffer_depth = 0;
  std::uint64_t exposure_num = 0;  ///< Σx |observed_relevant[x] ∪ C(x)|
  std::uint64_t exposure_den = 0;  ///< Σx |C(x)|
  std::uint64_t active_pairs = 0;  ///< max over runs
  std::uint64_t channel_state_bytes = 0;  ///< max over runs
  std::uint64_t retransmits = 0;
  std::uint64_t drops = 0;
  std::uint64_t resync_bytes = 0;
  std::uint64_t histories = 0;
  std::uint64_t definitive = 0;
  std::uint64_t history_ops = 0;
  std::uint64_t finished_us = 0;  ///< Σ simulated finish instants
  std::uint64_t replica_digest = 0;
  LatencyHistogram latency;
  // Host times, excluded from comparisons.
  double run_s = 0.0;
  double check_s = 0.0;

  /// The fields behind the end-to-end deterministic metrics; what the
  /// sequential and parallel roots must agree on.
  [[nodiscard]] bool same_metrics(const Outcome& o) const {
    if (ops_attempted != o.ops_attempted || ops_completed != o.ops_completed ||
        ops_censored != o.ops_censored || failed_ops != o.failed_ops ||
        msgs != o.msgs || wire_bytes != o.wire_bytes ||
        control_bytes != o.control_bytes || writes != o.writes ||
        local_reads != o.local_reads || remote_reads != o.remote_reads ||
        exposure_num != o.exposure_num || exposure_den != o.exposure_den ||
        latency.samples() != o.latency.samples() ||
        latency.censored() != o.latency.censored() ||
        latency.sum_us() != o.latency.sum_us() ||
        latency.max_us() != o.latency.max_us()) {
      return false;
    }
    for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      if (latency.bucket(i) != o.latency.bucket(i)) return false;
    }
    return true;
  }

  /// Every deterministic field: what two reps on one root must agree on.
  [[nodiscard]] bool same_run(const Outcome& o) const {
    return same_metrics(o) && runs == o.runs && events == o.events &&
           updates_applied == o.updates_applied &&
           updates_buffered == o.updates_buffered &&
           max_buffer_depth == o.max_buffer_depth &&
           active_pairs == o.active_pairs &&
           channel_state_bytes == o.channel_state_bytes &&
           retransmits == o.retransmits && drops == o.drops &&
           resync_bytes == o.resync_bytes && histories == o.histories &&
           definitive == o.definitive && history_ops == o.history_ops &&
           finished_us == o.finished_us && replica_digest == o.replica_digest;
  }

  void add_run(const mcs::ScenarioRunResult& r, const graph::ShareGraph& sg,
               std::uint64_t expected_ops) {
    ++runs;
    ops_attempted += expected_ops;
    ops_completed += r.ops_completed;
    ops_censored += r.ops_censored;
    // An op that neither completed nor was censored vanished: a failure.
    const std::uint64_t accounted = r.ops_completed + r.ops_censored;
    failed_ops += r.ops_censored +
                  (expected_ops > accounted ? expected_ops - accounted : 0);
    msgs += r.total_traffic.msgs_sent;
    wire_bytes += r.total_traffic.wire_bytes_sent();
    control_bytes += r.total_traffic.control_bytes_sent;
    events += r.events;
    for (const mcs::ProtocolStats& s : r.protocol_stats) {
      writes += s.writes;
      local_reads += s.local_reads;
      remote_reads += s.remote_reads;
      updates_applied += s.updates_applied;
      updates_buffered += s.updates_buffered;
      max_buffer_depth = std::max(max_buffer_depth, s.max_buffer_depth);
    }
    for (std::size_t x = 0; x < sg.var_count(); ++x) {
      const auto& clique = sg.clique(static_cast<VarId>(x));
      std::size_t outside = 0;
      if (x < r.observed_relevant.size()) {
        for (const ProcessId p : r.observed_relevant[x]) {
          if (!std::binary_search(clique.begin(), clique.end(), p)) ++outside;
        }
      }
      exposure_num += clique.size() + outside;
      exposure_den += clique.size();
    }
    active_pairs = std::max<std::uint64_t>(active_pairs, r.active_channel_pairs);
    channel_state_bytes =
        std::max<std::uint64_t>(channel_state_bytes, r.channel_state_bytes);
    retransmits += r.retransmissions;
    drops += r.drops.loss + r.drops.severed + r.drops.down + r.drops.in_flight +
             r.drops.dead_channel;
    resync_bytes += r.resync_bytes;
    finished_us += static_cast<std::uint64_t>(r.finished_at.us);
    for (const auto& replicas : r.final_replicas) {
      for (const mcs::ReplicaEntry& e : replicas) {
        replica_digest = splitmix64(
            replica_digest ^ (static_cast<std::uint64_t>(e.x) << 40) ^
            static_cast<std::uint64_t>(e.value));
      }
    }
    latency.merge_from(r.op_latency);
  }

  void add_check(const hist::CheckResult& c, std::size_t ops) {
    ++histories;
    history_ops += ops;
    if (c.definitive) ++definitive;
    if (!c.definitive || !c.consistent) failed_ops += ops;
  }
};

// ---------------------------------------------------------------------------
// One workload's state.

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::int64_t slowdown_ns = 0;
};

/// What one setup builds.  Held by pointer: the generators borrow `dist`.
struct Setup {
  graph::Distribution dist;
  std::unique_ptr<graph::ShareGraph> sg;
  std::shared_ptr<const mcs::StaticRelevance> relevance;
  /// One spec per streamed rep (kStream) or per protocol cycle (kChecked).
  std::vector<workload::Spec> specs;
  std::vector<workload::Generator> gens;
  Scenario faults{"none"};
};

/// Where and how a rep executes.
struct RepPlan {
  mcs::EngineRuntime runtime = mcs::EngineRuntime::kSimulator;
  unsigned threads = 1;
  bool record = false;
  bool check = false;
};

class Bench {
 public:
  explicit Bench(Options opt)
      : opt_(std::move(opt)),
        wl_(*opt_.workload),
        threads_(std::clamp(std::thread::hardware_concurrency(), 1U, 4U)) {}

  int run();

 private:
  [[nodiscard]] RepPlan default_plan() const {
    const bool checked = wl_.shape == Shape::kChecked;
    return {mcs::EngineRuntime::kSimulator, 1, checked, checked};
  }

  /// `histories`: per protocol, kChecked only.
  std::unique_ptr<Setup> build_setup(std::size_t histories);
  Outcome run_rep(const Setup& s, const RepPlan& plan);
  Outcome run_stream(const Setup& s, const workload::Spec& spec,
                     const RepPlan& plan);
  mcs::ScenarioRunResult run_once(const Setup& s, mcs::ProtocolKind kind,
                                  const workload::Spec& spec,
                                  const RepPlan& plan, bool faulty,
                                  std::uint64_t sim_seed);
  void check(bool ok, const std::string& what);
  void tally(const Outcome& o) {
    attempted_ += o.ops_attempted;
    failed_ += o.failed_ops;
  }
  void measure_layers(const Setup& s, const Outcome& rep);
  double time_generator(const Setup& s);
  double time_event_queue(std::uint64_t events, std::size_t depth);

  Options opt_;
  const WorkloadDef& wl_;
  unsigned threads_;
  Tracer tracer_;
  std::map<std::string, double> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void Bench::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

std::unique_ptr<Setup> Bench::build_setup(std::size_t histories) {
  auto s = std::make_unique<Setup>();
  {
    auto span = tracer_.span("graph::topo");
    s->dist = make_topology(wl_);
  }
  {
    auto span = tracer_.span("graph::ShareGraph");
    s->sg = std::make_unique<graph::ShareGraph>(s->dist);
  }
  const bool adhoc = wl_.shape == Shape::kChecked ||
                     wl_.protocol == mcs::ProtocolKind::kCausalPartialAdHoc;
  if (adhoc) {
    auto span = tracer_.span("mcs::StaticRelevance::analyze");
    s->relevance = mcs::StaticRelevance::analyze(s->dist);
  }
  const std::size_t count = wl_.shape == Shape::kChecked ? histories : 1;
  for (std::size_t i = 0; i < count; ++i) {
    workload::Spec spec;
    spec.ops_per_process = wl_.ops_per_process;
    spec.read_fraction = 0.5;
    spec.keys = workload::KeyDist::kUniform;
    spec.seed = wl_.shape == Shape::kChecked ? splitmix64(opt_.seed * 1'000'003 + i)
                                             : opt_.seed;
    if (wl_.shape == Shape::kChecked) spec.arrival_rate = kCheckedArrivalRate;
    s->specs.push_back(spec);
  }
  {
    auto span = tracer_.span("workload::Generator");
    s->gens.reserve(s->specs.size());
    for (const workload::Spec& spec : s->specs) s->gens.emplace_back(s->dist, spec);
  }
  if (wl_.shape == Shape::kChecked) s->faults = make_faults();
  return s;
}

mcs::ScenarioRunResult Bench::run_once(const Setup& s, mcs::ProtocolKind kind,
                                       const workload::Spec& spec,
                                       const RepPlan& plan, bool faulty,
                                       std::uint64_t sim_seed) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &s.dist;
  config.workload = &spec;
  config.record_history = plan.record;
  config.runtime = plan.runtime;
  config.parallel.num_threads = plan.threads;
  config.sim_seed = sim_seed;
  if (faulty) config.scenario = &s.faults;
  if (opt_.slowdown_ns > 0) {
    config.latency = std::make_unique<SpinLatency>(opt_.slowdown_ns);
  }
  auto span = tracer_.span("mcs::run");
  return mcs::run(std::move(config));
}

Outcome Bench::run_stream(const Setup& s, const workload::Spec& spec,
                          const RepPlan& plan) {
  Outcome o;
  const double t0 = now_s();
  const auto r = run_once(s, wl_.protocol, spec, plan, false, 1);
  const double t1 = now_s();
  o.run_s = t1 - t0;
  o.add_run(r, *s.sg, s.dist.process_count() * spec.ops_per_process);
  if (plan.check) {
    auto span = tracer_.span("hist::check_history");
    o.add_check(hist::check_history(r.history, criterion_of(wl_.protocol)),
                r.history.size());
    o.check_s = now_s() - t1;
  }
  return o;
}

Outcome Bench::run_rep(const Setup& s, const RepPlan& plan) {
  if (wl_.shape == Shape::kStream) return run_stream(s, s.specs[0], plan);
  Outcome o;
  const std::uint64_t n = s.dist.process_count();
  for (const workload::Spec& spec : s.specs) {
    for (const mcs::ProtocolKind kind : kCheckedProtocols) {
      const double t0 = now_s();
      const auto r = run_once(s, kind, spec, plan, true, spec.seed);
      const double t1 = now_s();
      o.run_s += t1 - t0;
      o.add_run(r, *s.sg, n * spec.ops_per_process);
      if (!plan.check) continue;
      auto span = tracer_.span("hist::check_history");
      const auto verdict = hist::check_history(r.history, criterion_of(kind));
      o.check_s += now_s() - t1;
      o.add_check(verdict, r.history.size());
    }
  }
  return o;
}

/// ns per Generator::op over every (p, k) of one rep.
double Bench::time_generator(const Setup& s) {
  auto span = tracer_.span("workload::Generator::op");
  const std::size_t n = s.dist.process_count();
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  const double t0 = now_s();
  for (const workload::Generator& gen : s.gens) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::uint64_t k = 0; k < gen.ops_per_process(); ++k) {
        const workload::OpSpec op = gen.op(static_cast<ProcessId>(p), k);
        sink += static_cast<std::uint64_t>(op.var) + (op.is_read ? 1 : 0);
        ++ops;
      }
    }
  }
  const double dt = now_s() - t0;
  g_sink = sink;
  return dt * 1e9 / static_cast<double>(ops == 0 ? 1 : ops);
}

/// ns per schedule_timer + pop_ref + release on a public EventQueue held
/// at `depth` pending timers, repeated `events` times.
double Bench::time_event_queue(std::uint64_t events, std::size_t depth) {
  auto span = tracer_.span("EventQueue");
  EventQueue q;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule_timer(after(micros(static_cast<std::int64_t>(i % 1000))),
                     static_cast<ProcessId>(i % 1024), i);
  }
  std::uint64_t sink = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < events; ++i) {
    Event& e = q.pop_ref();
    const TimePoint when = e.when;
    sink += e.timer_tag;
    q.release(e);
    q.schedule_timer(when + micros(1000 + static_cast<std::int64_t>(i % 7)),
                     static_cast<ProcessId>(i % 1024), i);
  }
  const double dt = now_s() - t0;
  g_sink = sink;
  return dt * 1e9 / static_cast<double>(events == 0 ? 1 : events);
}

void Bench::measure_layers(const Setup& s, const Outcome& rep) {
  auto layers = tracer_.span("layers");
  {
    auto span = tracer_.span("graph::summarize_relevance");
    metrics_["sharegraph.relevance_ratio"] =
        graph::summarize_relevance(*s.sg).overhead_ratio();
  }
  if (!s.relevance) {
    auto span = tracer_.span("mcs::StaticRelevance::analyze");
    (void)mcs::StaticRelevance::analyze(s.dist);
  }
  metrics_["mcs.adhoc_analyze_s"] =
      median(tracer_.durations("mcs::StaticRelevance::analyze"));
  metrics_["sharegraph.build_s"] = median(tracer_.durations("graph::ShareGraph"));
  metrics_["workload.op_ns"] = time_generator(s);
  metrics_["simnet.event_queue_ns"] =
      time_event_queue(rep.events, s.dist.process_count());

  // The same rep with recording flipped, and on each root: three
  // interleaved samples of each, medians reported.
  const RepPlan plan = default_plan();
  RepPlan unchecked = plan;
  unchecked.check = false;
  RepPlan flipped = unchecked;
  flipped.record = !plan.record;
  RepPlan seq = unchecked;
  seq.runtime = mcs::EngineRuntime::kSimulator;
  RepPlan par = unchecked;
  par.runtime = mcs::EngineRuntime::kParallelSim;
  par.threads = threads_;
  RepPlan par1 = par;
  par1.threads = 1;
  std::vector<double> on_s;
  std::vector<double> off_s;
  std::vector<double> seq_s;
  std::vector<double> par_s;
  std::vector<double> par1_s;
  for (int i = 0; i < 3; ++i) {
    auto span = tracer_.span("record-on-vs-off");
    for (const RepPlan* p : {&unchecked, &flipped}) {
      const Outcome o = run_rep(s, *p);
      (p->record ? on_s : off_s).push_back(o.run_s);
      tally(o);
    }
  }
  for (int i = 0; i < 3; ++i) {
    auto span = tracer_.span("roots");
    for (auto [p, out] : {std::pair{&seq, &seq_s}, std::pair{&par, &par_s},
                          std::pair{&par1, &par1_s}}) {
      const Outcome o = run_rep(s, *p);
      out->push_back(o.run_s);
      tally(o);
    }
  }
  metrics_["mcs.record_s"] = median(on_s) - median(off_s);
  metrics_["simnet.parallel_speedup"] = ratio(median(seq_s), median(par_s));
  metrics_["simnet.parallel_1w_slowdown"] = ratio(median(par1_s), median(seq_s));
}

int Bench::run() {
  // -- timed: setups interleaved with reps ---------------------------------
  // Every setup and rep is followed by a HostProbe run; the *_ref vectors
  // hold its figures in reference seconds, the others in host seconds.
  HostProbe probe;
  std::unique_ptr<Setup> setup;
  Outcome reference;
  std::vector<double> setup_times;
  std::vector<double> setup_ref;
  std::vector<double> untraced_tput;
  std::vector<double> untraced_ref;
  std::vector<double> traced_ref;
  std::vector<double> host_speed;
  std::vector<double> traced_run_s;
  std::vector<double> traced_check_s;
  const double start = now_s();
  const double deadline = start + opt_.seconds;
  double setup_total = 0.0;
  for (int rep = 0;;) {
    const double t = now_s();
    const bool need_setup = setup_times.size() < kMinSetups;
    if (t >= deadline && !need_setup && rep >= kMinReps) break;
    const bool setup_next = setup_times.empty() ||
                            (t >= deadline ? need_setup
                                           : setup_total < kSetupShare * (t - start));
    if (setup_next) {
      tracer_.set_enabled(opt_.trace);
      const std::size_t i = setup_times.size();
      auto span = tracer_.span("setup");
      const double t0 = now_s();
      setup = build_setup(wl_.histories);
      Outcome warm;
      {
        auto w = tracer_.span("warm-up");
        warm = run_rep(*setup, default_plan());
      }
      const double dt = now_s() - t0;
      const double q = probe.run();
      setup_times.push_back(dt);
      setup_ref.push_back(dt * kProbeRefSeconds / q);
      host_speed.push_back(kProbeRefSeconds / q);
      setup_total += dt;
      tally(warm);
      if (i == 0) reference = warm;
      check(warm.same_run(reference), "setup " + std::to_string(i) +
                                          ": warm-up rep differs from the first");
      continue;
    }
    const bool traced = opt_.trace && rep % 2 == 1;
    tracer_.set_enabled(traced);
    const double t0 = now_s();
    Outcome o;
    {
      auto span = tracer_.span("rep");
      o = run_rep(*setup, default_plan());
    }
    const double dt = now_s() - t0;
    const double q = probe.run();
    tally(o);
    check(o.same_run(reference),
          "rep " + std::to_string(rep) + ": deterministic outcome differs");
    const double tput = static_cast<double>(o.ops_completed) / dt;
    (traced ? traced_ref : untraced_ref).push_back(tput * q / kProbeRefSeconds);
    host_speed.push_back(kProbeRefSeconds / q);
    if (!traced) untraced_tput.push_back(tput);
    if (traced) {
      traced_run_s.push_back(o.run_s);
      traced_check_s.push_back(o.check_s);
    }
    ++rep;
  }
  tracer_.set_enabled(opt_.trace);
  const Setup& s = *setup;

  // -- checks ---------------------------------------------------------------
  check(reference.ops_completed == reference.ops_attempted &&
            reference.ops_censored == 0,
        "a rep left ops incomplete or censored");
  Outcome history;
  Outcome counted;
  // Read before the parallel root runs, so the figure is the sequential
  // workload's own footprint.
  double rss_mb = 0.0;
  if (wl_.shape == Shape::kChecked) {
    // The counted run: more histories of the same kind, each checked; the
    // first wl_.histories of them are the reps' own.  It runs twice and
    // must reproduce itself bit for bit.
    const std::unique_ptr<Setup> more = build_setup(wl_.counted_ops);
    {
      auto span = tracer_.span("counted");
      counted = run_rep(*more, default_plan());
      tally(counted);
    }
    check(counted.ops_completed == counted.ops_attempted &&
              counted.ops_censored == 0,
          "the counted run left ops incomplete or censored");
    {
      auto span = tracer_.span("check:counted-repeat");
      const Outcome again = run_rep(*more, default_plan());
      tally(again);
      check(again.same_run(counted), "the counted run differs on repeat");
    }
    history = counted;
    rss_mb = peak_rss_mb();
  } else {
    {
      auto span = tracer_.span("check:prefix");
      workload::Spec prefix = s.specs[0];
      prefix.ops_per_process = wl_.prefix_ops;
      history = run_stream(s, prefix, {mcs::EngineRuntime::kSimulator, 1, true, true});
      tally(history);
    }
    // The counted run: twice on the sequential root, once on the parallel
    // root, so the run the deterministic metrics come from is the one the
    // repeat and cross-root checks cover.
    workload::Spec longer = s.specs[0];
    longer.ops_per_process = wl_.counted_ops;
    {
      auto span = tracer_.span("counted");
      counted = run_stream(s, longer, default_plan());
      tally(counted);
    }
    check(counted.ops_completed == counted.ops_attempted &&
              counted.ops_censored == 0,
          "the counted run left ops incomplete or censored");
    {
      auto span = tracer_.span("check:counted-repeat");
      const Outcome again = run_stream(s, longer, default_plan());
      tally(again);
      check(again.same_run(counted), "the counted run differs on repeat");
    }
    rss_mb = peak_rss_mb();
    {
      auto span = tracer_.span("check:parallel-root");
      RepPlan par = default_plan();
      par.runtime = mcs::EngineRuntime::kParallelSim;
      par.threads = threads_;
      const Outcome o = run_stream(s, longer, par);
      tally(o);
      check(o.same_metrics(counted),
            "parallel root disagrees with the sequential root");
    }
  }
  check(history.histories > 0 && history.failed_ops == 0 &&
            history.definitive == history.histories,
        "a recorded history failed its check or had no verdict");

  // -- metrics --------------------------------------------------------------
  // Deterministic ratios come from the counted run, host times and the
  // per-rep footprint from the reps.
  const Outcome& c = counted;
  const Outcome& r = reference;
  const double ops = static_cast<double>(c.ops_completed);
  // Host-second figures, reported with --trace 1 and as info lines.
  metrics_["host.ops_per_s"] = median(untraced_tput);
  metrics_["host.setup_s"] = median(setup_times);
  metrics_["host.speed"] = median(host_speed);
  if (!opt_.trace) {
    metrics_["ops_per_ref_s"] = median(untraced_ref);
    metrics_["setup_s"] = median(setup_ref);
    metrics_["peak_rss_mb"] = rss_mb;
    metrics_["msgs_per_op"] = ratio(static_cast<double>(c.msgs), ops);
    metrics_["wire_bytes_per_op"] = ratio(static_cast<double>(c.wire_bytes), ops);
    metrics_["exposure_ratio"] = ratio(static_cast<double>(c.exposure_num),
                                       static_cast<double>(c.exposure_den));
  } else {
    measure_layers(s, r);
    const double run_s = median(traced_run_s);
    metrics_["mcs.run_s"] = run_s;
    metrics_["mcs.events_per_op"] = ratio(static_cast<double>(c.events), ops);
    metrics_["mcs.msgs_per_write"] =
        ratio(static_cast<double>(c.msgs), static_cast<double>(c.writes));
    metrics_["mcs.ctrl_bytes_per_msg"] =
        ratio(static_cast<double>(c.control_bytes), static_cast<double>(c.msgs));
    metrics_["mcs.buffered_share"] = ratio(static_cast<double>(c.updates_buffered),
                                           static_cast<double>(c.updates_applied));
    metrics_["mcs.max_buffer_depth"] = static_cast<double>(c.max_buffer_depth);
    metrics_["mcs.remote_read_share"] =
        ratio(static_cast<double>(c.remote_reads),
              static_cast<double>(c.remote_reads + c.local_reads));
    metrics_["simnet.ns_per_event"] =
        ratio(run_s * 1e9, static_cast<double>(r.events));
    metrics_["simnet.active_pairs"] = static_cast<double>(r.active_pairs);
    metrics_["simnet.channel_state_kb"] =
        static_cast<double>(r.channel_state_bytes) / 1024.0;
    metrics_["simnet.retransmits_per_msg"] =
        ratio(static_cast<double>(c.retransmits), static_cast<double>(c.msgs));
    metrics_["simnet.drops"] = static_cast<double>(c.drops);
    metrics_["simnet.resync_bytes"] = static_cast<double>(c.resync_bytes);
    // Check time of one traced rep's histories (kChecked) or of the
    // streamed prefix (kStream).
    const bool per_rep = wl_.shape == Shape::kChecked;
    const double check_s = per_rep ? median(traced_check_s) : history.check_s;
    metrics_["history.check_s"] = check_s;
    metrics_["history.check_ns_per_op"] =
        ratio(check_s * 1e9,
              static_cast<double>((per_rep ? r : history).history_ops));
    metrics_["history.definitive_share"] =
        ratio(static_cast<double>(history.definitive),
              static_cast<double>(history.histories));
    metrics_["trace.untraced_ops_per_ref_s"] = median(untraced_ref);
    metrics_["trace.traced_ops_per_ref_s"] = median(traced_ref);
  }

  // -- report ---------------------------------------------------------------
  const double error_rate =
      ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
  std::printf("workload %s seed %llu threads %u setups %zu reps %zu\n",
              wl_.name, static_cast<unsigned long long>(opt_.seed), threads_,
              setup_times.size(), untraced_ref.size() + traced_ref.size());
  for (const double q : {0.50, 0.99, 0.999}) {
    const auto ans = c.latency.quantile(q);
    std::printf("info sim_p%g_us = %.0f us%s (samples %llu)\n", q * 100.0,
                ans.us, ans.censored ? " censored" : "",
                static_cast<unsigned long long>(c.latency.total()));
  }
  std::printf("info error_rate = %.6f (failed %llu of %llu ops)\n", error_rate,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  if (opt_.trace) {
    std::printf("info tracing overhead = %.2f%% of untraced ops_per_ref_s\n",
                100.0 * (1.0 - ratio(metrics_["trace.traced_ops_per_ref_s"],
                                     metrics_["trace.untraced_ops_per_ref_s"])));
  }
  std::printf("info host ops_per_s = %.9g, setup_s = %.9g s, speed = %.4f x "
              "the reference host\n",
              metrics_["host.ops_per_s"], metrics_["host.setup_s"],
              metrics_["host.speed"]);
  std::printf("info rep ops_per_ref_s:");
  for (const double t : untraced_ref) std::printf(" %.6g", t);
  std::printf("\ninfo setup_s:");
  for (const double t : setup_ref) std::printf(" %.6g", t);
  std::printf("\n");
  for (const std::string& f : failures_) std::printf("FAILED %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += failures_.empty() && failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    const double v = metrics_.at(m.name);
    std::printf("metric %s = %.9g %s (%s is better, layer %s)\n", m.name, v,
                m.unit, m.better, m.layer);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (opt_.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";

  if (opt_.trace && !opt_.trace_out.empty()) {
    const int tid = static_cast<int>(&wl_ - kWorkloads) + 1;
    if (!tracer_.write_chrome_trace(opt_.trace_out, tid, wl_.name)) {
      std::fprintf(stderr, "cannot write %s\n", opt_.trace_out.c_str());
      return 2;
    }
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures_.empty() && failed_ == 0 ? 0 : 1;
}

void list_catalogue() {
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    std::printf("%s{\"name\": \"%s\", \"why\": \"%s\"}", i ? ", " : "",
                kWorkloads[i].name, kWorkloads[i].why);
  }
  const auto list = [](const char* key, const auto& defs) {
    std::printf("], \"%s\": [", key);
    bool first = true;
    for (const MetricDef& m : defs) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                  "\"layer\": \"%s\"}",
                  first ? "" : ", ", m.name, m.unit, m.better, m.layer);
      first = false;
    }
  };
  list("end_to_end", kEndToEnd);
  list("per_layer", kPerLayer);
  std::printf("]}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--slowdown-ns NS]\n"
               "       perfbench --list\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list") {
      list_catalogue();
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const WorkloadDef& wl : kWorkloads) {
        if (value == wl.name) opt.workload = &wl;
      }
      if (opt.workload == nullptr) return usage("unknown workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--slowdown-ns") {
      opt.slowdown_ns = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || opt.slowdown_ns < 0) return usage("bad --slowdown-ns");
    } else {
      return usage("unknown argument");
    }
  }
  if (opt.workload == nullptr) return usage("--workload is required");
  return Bench(std::move(opt)).run();
}
