// Per-process variable store with write provenance.
//
// Each MCS process keeps local copies of exactly the variables in X_i
// (partial replication) or of every variable (full replication).  Stored
// values carry the WriteId of the write that produced them, so that reads
// recorded into histories have an exact read-from source.
//
// Storage is dense: values live in a flat slot array and a VarId → slot
// table (built once from the distribution) turns every get/put into two
// indexed loads — no tree walk per protocol read/write.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/ids.h"

namespace pardsm::mcs {

/// A stored value plus its provenance.
struct Stored {
  Value value = kBottom;
  WriteId source{};  ///< kInitialWrite for the initial ⊥
};

/// The local replica set of one MCS process.
class ReplicaStore {
 public:
  /// Construct holding exactly `vars` (every entry initialized to ⊥).
  explicit ReplicaStore(const std::vector<VarId>& vars = {});

  /// True if x is locally replicated.
  [[nodiscard]] bool holds(VarId x) const { return slot_of(x) >= 0; }

  /// Current content of x.  Requires holds(x).
  [[nodiscard]] const Stored& get(VarId x) const;

  /// Overwrite x with (value, source).  Requires holds(x).
  void put(VarId x, Value value, WriteId source);

  /// Locally replicated variables (sorted).
  [[nodiscard]] const std::vector<VarId>& vars() const { return vars_; }

  /// Number of applied puts (diagnostics).
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  /// Slot of x, or -1 when x is not replicated here.
  [[nodiscard]] std::int32_t slot_of(VarId x) const {
    const auto xi = static_cast<std::size_t>(x);
    return x >= 0 && xi < slot_of_.size() ? slot_of_[xi] : -1;
  }

  std::vector<Stored> data_;          ///< one slot per replicated variable
  std::vector<std::int32_t> slot_of_; ///< VarId → slot, -1 = not held
  std::vector<VarId> vars_;           ///< sorted replicated variables
  std::uint64_t version_ = 0;
};

}  // namespace pardsm::mcs
