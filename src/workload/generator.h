// Open-loop YCSB-style workload generation.
//
// A Spec names a synthetic load — read/write mix, key popularity
// (uniform or zipf over each process's own replica set), per-process op
// count, and an optional open-loop arrival rate — and a Generator turns
// it into an operation stream *lazily*: op(p, k) is a pure function of
// (spec.seed, p, k) via a counter-based RNG stream, so the k-th operation
// of process p is the same no matter when, where, or in what order it is
// asked for.  Nothing is ever materialized: a million-op stream costs the
// same memory as a ten-op stream, which is what lets the engine's
// Client (mcs/engine.h) stream millions of ops per run with peak
// RSS independent of the op count — the property a Script (one stored
// ScriptOp per op) cannot have.
//
// Key popularity follows the YCSB zipfian construction: rank r of a
// process's |X_i| local variables is drawn with probability ∝ 1/(r+1)^θ,
// rank 0 (the process's first variable) hottest.  θ ∈ (0, 1); the YCSB
// default is 0.99.  Zeta normalization tables are precomputed per
// distinct replica-set size at construction, so the per-op draw is
// allocation-free.
//
// Open- vs closed-loop: arrival_rate == 0 is the classic closed loop —
// each client issues its next op when the previous one completes.  A
// positive rate is an open loop: op k of every process *arrives* at
// start + k/rate regardless of how the system is doing, and latency is
// measured from that scheduled arrival (so queueing delay behind a slow
// or crashed system is charged to the op — no coordinated omission).
// Open loop needs simulated time and is therefore restricted to the
// simulator runtimes; see docs/WORKLOADS.md.
#pragma once

#include <cstdint>
#include <vector>

#include "sharegraph/share_graph.h"
#include "simnet/sim_time.h"

namespace pardsm::workload {

enum class KeyDist : std::uint8_t {
  kUniform,  ///< every local variable equally likely
  kZipf,     ///< zipfian by local rank (rank 0 hottest), skew = zipf_theta
};

/// A complete synthetic-load description.  Value semantics, trivially
/// copyable; EngineConfig borrows a pointer to one.
struct Spec {
  std::uint64_t ops_per_process = 1'000;
  /// Probability that an op is a read (the rest are writes).
  double read_fraction = 0.95;
  KeyDist keys = KeyDist::kUniform;
  /// Zipf skew θ ∈ (0, 1); only read under KeyDist::kZipf.
  double zipf_theta = 0.99;
  /// Open-loop arrivals per simulated second per process; 0 = closed loop.
  double arrival_rate = 0.0;
  std::uint64_t seed = 1;
};

/// One generated operation.
struct OpSpec {
  bool is_read = true;
  VarId var = kNoVar;
  Value value = kBottom;  ///< written value (writes only), globally unique
};

class Generator {
 public:
  /// Precomputes the zipf tables; `dist` is borrowed and must outlive the
  /// generator.  Every process must replicate at least one variable.
  Generator(const graph::Distribution& dist, const Spec& spec);

  /// The k-th operation of process p — a pure function of
  /// (spec.seed, p, k), independent of call order, thread count and
  /// schedule (the determinism tests pin this).
  [[nodiscard]] OpSpec op(ProcessId p, std::uint64_t k) const;

  /// Scheduled open-loop arrival instant of op k (closed loop: `start`).
  [[nodiscard]] TimePoint arrival(TimePoint start, std::uint64_t k) const {
    return open_loop()
               ? start + Duration{static_cast<std::int64_t>(
                             arrival_offset_us(spec_.arrival_rate, k))}
               : start;
  }

  [[nodiscard]] bool open_loop() const { return spec_.arrival_rate > 0.0; }
  [[nodiscard]] std::uint64_t ops_per_process() const {
    return spec_.ops_per_process;
  }
  [[nodiscard]] const Spec& spec() const { return spec_; }

  /// The globally unique value written by process p's op k, packed as
  /// (k << kProcessBits) | p.  Guarded against the wrap that packing
  /// invites at scale: p must fit kProcessBits and k the remaining 43
  /// value bits — ~8.8e12 writes per process before the guard trips,
  /// loudly, instead of two writes silently colliding.  Public static so
  /// the wrap regression test can probe the boundary without issuing
  /// 2^43 real ops.
  [[nodiscard]] static Value packed_value(ProcessId p, std::uint64_t k);
  static constexpr unsigned kProcessBits = 20;  ///< up to ~1M processes

  /// Open-loop arrival offset of op k in microseconds: round(k * 1e6 /
  /// rate), computed in double (exact for any feasible k: k * 1e6 stays
  /// under 2^53 until k ~ 9e9 ops even at rate 1).  Guarded against
  /// overflowing the int64 microsecond clock.  Public static for the wrap
  /// harness.
  [[nodiscard]] static std::uint64_t arrival_offset_us(double rate,
                                                       std::uint64_t k);

 private:
  /// YCSB zipfian constants for a universe of n ranks.
  struct ZipfParams {
    std::uint64_t n = 0;
    double zetan = 0.0;
    double theta = 0.0;
    double alpha = 0.0;
    double eta = 0.0;
  };

  [[nodiscard]] static std::uint64_t zipf_rank(const ZipfParams& z, double u);

  const graph::Distribution* dist_;
  Spec spec_;
  /// Per-process zipf constants (empty unless keys == kZipf); processes
  /// with the same |X_i| share the same values but the table is indexed by
  /// process for an O(1) branch-free lookup on the per-op path.
  std::vector<ZipfParams> zipf_;
};

}  // namespace pardsm::workload
