// Reliable exactly-once FIFO delivery over a lossy transport (ARQ).
//
// The consistency protocols assume reliable FIFO channels for liveness.
// ReliableTransport restores that assumption on top of a lossy/duplicating
// Network: every payload is wrapped in a DATA frame with a per-directed-
// pair sequence number; the receiver acknowledges, delivers in sequence
// exactly once, and the sender retransmits unacknowledged frames on a
// timer.  A stop-and-repeat sliding window (go-back-none: selective
// retransmit of every pending frame) keeps the implementation compact.
//
// Usage mirrors a plain Transport:
//
//   Simulator sim(...);                        // lossy channel options
//   ReliableTransport rel(sim, {});            // wraps it
//   ProcessId id = rel.add_endpoint(&proc);    // instead of sim.add_...
//   proc.attach(rel);
//
// Overhead accounting: DATA frames add 16 control bytes (a sequence
// number and an ack field that is never filled in), and every DATA frame
// is still answered by its own ACK frame of 24 bytes total; both are
// charged to the real NetworkStats, so loss-recovery traffic shows up in
// every efficiency measurement.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simnet/transport.h"

namespace pardsm {

/// Options for the ARQ layer.
///
/// Byte-accounting contract (everything lands in the run's NetworkStats —
/// there is no side ledger, so loss-recovery cost is visible in every
/// efficiency measurement):
///
///   * DATA frame: the wrapped message's own meta plus 16 control bytes
///     (sequence number + an ack field the layer never fills: acks do
///     not piggyback on DATA frames); `vars_mentioned` passes through
///     unchanged, so exposure accounting (the paper's x-relevance) covers
///     ARQ traffic too.
///   * ACK frame: 24 wire bytes (8 control + 16 header), no variables.
///     One is sent for every DATA frame received, duplicates included.
///   * Retransmission: the full DATA frame is re-charged on every attempt
///     (on_send fires again), and a duplicated delivery is re-counted by
///     on_deliver — received <= sent stays invariant under loss only.
///
/// Scenario timelines must heal partitions and recover crashes; liveness
/// then follows because every frame is eventually acknowledged.  The
/// retransmit timer, not protocol complexity, dominates recovery latency:
/// a frame lost to a fault window is repaired at the first timer fire
/// after the window closes (bench_scenarios measures this).
///
/// Reaction when one frame exhausts `max_retransmits`.
enum class OnExhausted : std::uint8_t {
  /// Declare the directed channel dead: drop its pending frames (counted
  /// in dead_channel_drops()), silently discard later sends on it, and
  /// let the run continue degraded.  RunResult surfaces the dead pairs.
  kDeadChannel,
  /// Abort the run (the pre-dead-channel behavior; opt-in for tests that
  /// want a hard liveness guarantee).
  kThrow,
};

struct ReliableOptions {
  /// Retransmit timer: base period between retransmission rounds.
  Duration retransmit_after = millis(40);
  /// Give up on a directed channel after this many retransmissions of one
  /// frame (see on_exhausted for what "give up" means).
  std::uint32_t max_retransmits = 100;

  // Members below are appended so existing two-field aggregate inits keep
  // their meaning; the defaults preserve the fixed-period schedule and its
  // golden traffic tables bit-for-bit.

  /// Per-round interval multiplier for a destination with pending frames.
  /// <= 1.0 selects the legacy fixed-period scheduler (one shared timer
  /// per process, every destination retransmitted each round); > 1.0
  /// selects per-destination capped exponential backoff.
  double backoff_factor = 1.0;
  /// Interval cap for the backoff scheduler.  Zero means 32x
  /// retransmit_after.  Ignored by the legacy scheduler.
  Duration retransmit_max{};
  /// Jitter amplitude: each scheduled interval is scaled by a factor
  /// uniform in [1 - jitter, 1 + jitter].  Draws come from a counter-based
  /// stream keyed on (jitter_seed, sender, destination, draw index), so
  /// they are independent of timer interleaving.  Zero disables jitter
  /// (and keeps the legacy scheduler when backoff_factor <= 1).
  double jitter = 0.0;
  /// Seed of the jitter stream.
  std::uint64_t jitter_seed = 0x51C0'0C15ULL;
  /// What to do when a frame exhausts max_retransmits.
  OnExhausted on_exhausted = OnExhausted::kDeadChannel;

  /// True if the per-destination backoff scheduler is selected.
  [[nodiscard]] bool adaptive() const {
    return backoff_factor > 1.0 || jitter > 0.0;
  }
};

/// Exactly-once, per-pair-FIFO transport decorator.
class ReliableTransport final : public HostTransport {
 public:
  /// Wraps `lower` — the raw simulator, or another decorator (e.g. a
  /// BatchingTransport) in a deeper stack.  The underlying channel may
  /// drop and duplicate; FIFO ordering of it is NOT required.
  ReliableTransport(HostTransport& lower, ReliableOptions options);
  ~ReliableTransport() override;

  /// Register an application endpoint (do not register it with the layer
  /// below yourself — the decorator interposes a shim).
  ProcessId add_endpoint(Endpoint* ep) override;

  // -- Transport ------------------------------------------------------------
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] TimePoint now() const override { return lower_.now(); }
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override;
  [[nodiscard]] std::size_t process_count() const override;
  /// Decorators allocate from the root runtime's pools.
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    return lower_.arena(owner);
  }

  /// Retransmissions performed so far (all senders).
  [[nodiscard]] std::uint64_t retransmissions() const;

  /// Directed (from, to) channels declared dead under
  /// OnExhausted::kDeadChannel, in the order they died.
  [[nodiscard]] std::vector<std::pair<ProcessId, ProcessId>> dead_channels()
      const;

  /// Frames discarded because their channel was (or became) dead: the
  /// pending frames dropped at the moment of death plus every later send
  /// attempted on a dead channel.
  [[nodiscard]] std::uint64_t dead_channel_drops() const;

 private:
  class Shim;

  HostTransport& lower_;
  ReliableOptions options_;
  bool adaptive_ = false;  ///< options_.adaptive(), resolved once
  std::vector<std::unique_ptr<Shim>> shims_;
};

}  // namespace pardsm
