// History recording.
//
// Protocols report every application-level operation here; the recorder
// assembles a hist::History with exact read-from provenance and real-time
// intervals, which the test suite feeds to the exact consistency checkers.
// Thread-safe (the sockets root records from many mailbox threads).
//
// Two assembly modes:
//
//   * Direct (default): operations are pushed into the History as they
//     arrive, so the History's global order is arrival order.  This is
//     what the sequential simulator has always produced and what the
//     golden histories pin.
//   * Canonical: operations are buffered per process and the History is
//     rebuilt at take_history() in (process, program-order) — a pure
//     function of each process's own execution, independent of how
//     processes interleave.  The parallel engine uses this so the same
//     run yields a byte-identical History at any thread count.
#pragma once

#include <mutex>
#include <vector>

#include "history/history.h"
#include "simnet/sim_time.h"

namespace pardsm::mcs {

/// Thread-safe builder of a hist::History from live protocol runs.
class HistoryRecorder {
 public:
  HistoryRecorder(std::size_t process_count, std::size_t var_count)
      : history_(process_count, var_count),
        process_count_(process_count),
        var_count_(var_count) {}

  /// Switch to canonical assembly (see file comment).  Must be called
  /// before any operation is recorded.
  void use_canonical_order();

  /// Count-only mode: record_* keep per-op counters but store nothing, so
  /// memory stays O(1) no matter how many operations stream through —
  /// what lets a generated-workload run push millions of ops with peak
  /// RSS independent of the op count.  take_history()/history() return an
  /// empty (correctly-shaped) History.  Must be called before any
  /// operation is recorded; overrides canonical buffering.
  void use_discard_mode();

  /// Operations seen while in discard mode (0 otherwise).
  [[nodiscard]] std::uint64_t discarded_ops() const;

  /// Record a completed write (its WriteId must be the one the protocol
  /// attached to the stored value).
  void record_write(ProcessId p, VarId x, Value v, WriteId id,
                    TimePoint invoked, TimePoint responded);

  /// Record a completed read returning `got` (value + provenance).
  void record_read(ProcessId p, VarId x, Value value, WriteId source,
                   TimePoint invoked, TimePoint responded);

  /// Snapshot of the history so far (copy; safe after the run finished).
  [[nodiscard]] hist::History history() const;

  /// Move the history out (no copy).  The recorder is empty afterwards —
  /// only for drivers that are done with it.  Canonical mode builds the
  /// History here, in (process, program order).
  [[nodiscard]] hist::History take_history();

  /// Number of recorded operations.
  [[nodiscard]] std::size_t size() const;

 private:
  /// One buffered operation of canonical mode.
  struct PendingOp {
    bool is_write = false;
    VarId x = kNoVar;
    Value value = kBottom;
    WriteId id{};  ///< the write's own id, or a read's source
    TimePoint invoked{};
    TimePoint responded{};
  };

  [[nodiscard]] hist::History build_canonical() const;

  mutable std::mutex mu_;
  hist::History history_;
  std::size_t process_count_;
  std::size_t var_count_;
  bool canonical_ = false;
  bool discard_ = false;
  std::uint64_t discarded_ = 0;  ///< ops seen in discard mode
  /// Canonical mode only: per-process program-order operation buffers.
  std::vector<std::vector<PendingOp>> pending_;
};

}  // namespace pardsm::mcs
