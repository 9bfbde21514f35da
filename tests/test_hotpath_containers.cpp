// Unit tests for the allocation-free hot-path containers introduced by
// the pooled-event refactor: the event pool (slot reuse, (time, seq) tie
// ordering), the kind interner (stable ids, round-trip names, ARQ
// wrapping) and the small-buffer variable list (inline → heap spill).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "mcs/driver.h"
#include "mcs/factory.h"
#include "sharegraph/topologies.h"
#include "simnet/event_queue.h"
#include "simnet/kind_table.h"
#include "simnet/pair_map.h"
#include "simnet/simulator.h"
#include "simnet/small_vec.h"

// ---------------------------------------------------------------------------
// Global allocation counter: counts every operator new while armed.  Used
// by the steady-state gate at the bottom of this file.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// new is malloc-backed so the matching delete frees with std::free; GCC
// cannot see the pairing across the replaced global operators and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace pardsm {
namespace {

// ------------------------------------------------------------- EventQueue
TEST(EventPool, SlotsAreReusedAcrossPops) {
  EventQueue q;
  // Fill to depth 4, drain, refill: the pool must not grow past the peak.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) {
      q.schedule_timer(TimePoint{10 * round + i}, 0, static_cast<unsigned>(i));
    }
    while (!q.empty()) (void)q.pop();
  }
  EXPECT_EQ(q.pool_slots(), 4u);
  EXPECT_EQ(q.scheduled_total(), 200u);
}

TEST(EventPool, OrderingBreaksTiesBySequence) {
  EventQueue q;
  q.schedule_timer(TimePoint{5}, 0, 100);
  q.schedule_timer(TimePoint{1}, 0, 101);
  q.schedule_timer(TimePoint{5}, 0, 102);  // same time as 100: FIFO
  q.schedule_timer(TimePoint{1}, 0, 103);  // same time as 101: FIFO
  std::vector<std::uint64_t> tags;
  while (!q.empty()) tags.push_back(q.pop().timer_tag);
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{101, 103, 100, 102}));
}

TEST(EventPool, MixedTypedEventsCarryTheirPayloads) {
  EventQueue q;
  int fired = 0;
  q.schedule(TimePoint{3}, [&] { ++fired; });
  Message m;
  m.from = 1;
  m.to = 2;
  m.meta.kind = "MIX";
  q.schedule_deliver(TimePoint{1}, std::move(m));
  q.schedule_timer(TimePoint{2}, 7, 42);

  Event first = q.pop();
  ASSERT_EQ(first.type, Event::Type::kDeliver);
  EXPECT_EQ(first.msg.to, 2);
  EXPECT_EQ(first.msg.meta.kind.name(), "MIX");

  Event second = q.pop();
  ASSERT_EQ(second.type, Event::Type::kTimer);
  EXPECT_EQ(second.timer_who, 7);
  EXPECT_EQ(second.timer_tag, 42u);

  Event third = q.pop();
  ASSERT_EQ(third.type, Event::Type::kClosure);
  third.fire();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventPool, InPlacePopReferencesStayValidAcrossScheduling) {
  EventQueue q;
  q.schedule_timer(TimePoint{1}, 3, 30);
  Event& e = q.pop_ref();
  // Scheduling more events (forcing pool growth) must not invalidate `e`.
  for (int i = 0; i < 100; ++i) q.schedule_timer(TimePoint{2 + i}, 0, 0);
  EXPECT_EQ(e.timer_who, 3);
  EXPECT_EQ(e.timer_tag, 30u);
  q.release(e);
  while (!q.empty()) (void)q.pop();
}

// ------------------------------------------------------------ KindId
TEST(KindTable, StableIdsAndRoundTripNames) {
  const KindId a("HOTPATH-A");
  const KindId b("HOTPATH-B");
  const KindId a2("HOTPATH-A");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.name(), "HOTPATH-A");
  EXPECT_EQ(b.name(), "HOTPATH-B");
}

TEST(KindTable, DefaultIsEmptyKind) {
  const KindId none;
  EXPECT_EQ(none.value(), 0);
  EXPECT_EQ(none.name(), "");
  EXPECT_EQ(none, KindId(""));
}

TEST(KindTable, ArqWrappingIsCachedAndPrefixed) {
  const KindId base("HOTPATH-C");
  const KindId wrapped = arq_wrapped(base);
  EXPECT_EQ(wrapped.name(), "ARQ:HOTPATH-C");
  const std::size_t before = kind_table_size();
  EXPECT_EQ(arq_wrapped(base), wrapped);  // second wrap: cached
  EXPECT_EQ(kind_table_size(), before);
}

// ------------------------------------------------------------ SmallVec
TEST(SmallVecTest, StaysInlineUpToCapacity) {
  SmallVec<VarId, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(10);
  v.push_back(20);
  EXPECT_TRUE(v.inline_storage());
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
}

TEST(SmallVecTest, SpillsToHeapPastCapacityAndKeepsContents) {
  SmallVec<VarId, 2> v{1, 2};
  v.push_back(3);
  EXPECT_FALSE(v.inline_storage());
  EXPECT_EQ(v.size(), 3u);
  for (VarId i = 0; i < 3; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i + 1);
  // And keeps growing.
  for (VarId i = 4; i <= 40; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 40u);
  EXPECT_EQ(v[39], 40);
}

TEST(SmallVecTest, CopyAndMoveBothStorageModes) {
  SmallVec<VarId, 2> small{7};
  SmallVec<VarId, 2> big{1, 2, 3, 4};

  SmallVec<VarId, 2> small_copy = small;
  EXPECT_EQ(small_copy, small);
  EXPECT_TRUE(small_copy.inline_storage());

  SmallVec<VarId, 2> big_copy = big;
  EXPECT_EQ(big_copy, big);

  SmallVec<VarId, 2> moved = std::move(big_copy);
  EXPECT_EQ(moved, big);
  EXPECT_TRUE(big_copy.empty());  // NOLINT(bugprone-use-after-move)

  moved = {9};  // initializer-list assignment resets
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], 9);
}

TEST(SmallVecTest, AssignmentReleasesAndCopies) {
  SmallVec<VarId, 2> a{1, 2, 3};
  SmallVec<VarId, 2> b{5};
  a = b;
  EXPECT_EQ(a, b);
  b = SmallVec<VarId, 2>{1, 2, 3, 4};
  EXPECT_EQ(b.size(), 4u);
}

// capacity * 2 in 32 bits wraps at 2^31: the doubling must refuse loudly
// instead of allocating a zero-sized buffer and writing past it.  The
// computation is a public static exactly so this is testable without
// materializing 2^31 elements.
TEST(SmallVecTest, GrowRefusesCapacityOverflow) {
  using V = SmallVec<VarId, 2>;
  EXPECT_EQ(V::next_capacity(2), 4u);
  EXPECT_EQ(V::next_capacity(1u << 30), 1u << 31);
  EXPECT_THROW((void)V::next_capacity((1u << 31) + 1), std::logic_error);
  EXPECT_THROW((void)V::next_capacity(~std::uint32_t{0}), std::logic_error);
}

// --------------------------------------------------------------- PairMap
TEST(PairMapTest, FindMissesUntilInserted) {
  PairMap<double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  map.get_or_insert(42, 0.5) = 0.7;
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 0.7);
  EXPECT_EQ(map.find(43), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(PairMapTest, GetOrInsertKeepsExistingValue) {
  PairMap<std::uint32_t> map;
  ++map.get_or_insert(7, 0);
  ++map.get_or_insert(7, 0);
  EXPECT_EQ(*map.find(7), 2u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(PairMapTest, SurvivesGrowthWithRegularPairKeys) {
  // Packed pair indices are stripes of consecutive integers — the worst
  // case for a weak hash.  Insert a large n×n-ish sample and verify every
  // key still resolves after many rehashes.
  PairMap<std::uint64_t> map;
  const std::uint64_t n = 97;
  for (std::uint64_t from = 0; from < n; ++from) {
    for (std::uint64_t to = 0; to < n; to += 3) {
      map.get_or_insert(from * n + to, 0) = from * 1000 + to;
    }
  }
  for (std::uint64_t from = 0; from < n; ++from) {
    for (std::uint64_t to = 0; to < n; ++to) {
      const auto* v = map.find(from * n + to);
      if (to % 3 == 0) {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, from * 1000 + to);
      } else {
        EXPECT_EQ(v, nullptr);
      }
    }
  }
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.memory_bytes(), 0u);
}

// ------------------------------------------------- steady-state allocation
// The tentpole's hard gate: once the pools are warm, delivering messages
// must not allocate per message.  A PRAM workload on a clique-rich ring
// multiplies messages per write, so an allocation-per-message regression
// shows up as counts scaling with messages; the budget below only allows
// the per-write costs (one body make_shared, history append amortization,
// client callbacks).
TEST(SteadyStateAllocations, DeliverPathIsAllocationFree) {
  const auto dist = graph::topo::complete(12, 4);  // C(x) = all 12
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 20;
  spec.read_fraction = 0.0;  // writes only: maximum deliveries
  spec.seed = 99;
  const auto scripts = mcs::make_random_scripts(dist, spec);

  // Warm run: grows pools, interner, history vectors, etc.
  const auto warm = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                              .distribution = &dist,
                              .scripts = &scripts});
  const std::uint64_t messages = warm.total_traffic.msgs_sent;
  const std::uint64_t writes = 12 * 20;
  ASSERT_EQ(messages, writes * 11);  // every write updates 11 replicas

  // Counted run: identical workload, fresh system (pools start cold again
  // inside mcs::run, so the budget must cover pool growth too — what
  // it must NOT cover is an allocation per delivered message).
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto counted = mcs::run({.protocol = mcs::ProtocolKind::kPramPartial,
                                 .distribution = &dist,
                                 .scripts = &scripts});
  g_count_allocs.store(false);
  ASSERT_EQ(counted.total_traffic.msgs_sent, messages);

  const std::uint64_t allocs = g_alloc_count.load();
  // 2640 deliveries vs 240 writes: before the refactor this took > 4
  // allocations per delivered message (closure + meta strings/vectors +
  // heap churn), i.e. > 10000.  Now the whole run — setup, pool growth,
  // bodies, history, result collection included — must fit well under
  // one allocation per delivered message.
  EXPECT_LT(allocs, messages)
      << "deliver path allocates per message again: " << allocs
      << " allocations for " << messages << " deliveries";
}

// The pooled-body plane's hard gate, per protocol: once every pool,
// freelist and container is warm, a full operation lifecycle — issue,
// body creation, fanout, delivery, apply, completion — performs ZERO heap
// allocations on the simulator root.  Unlike the budgeted mcs::run
// gate above, this drives processes directly inside ONE system so the
// measured rounds really are steady state (mcs::run rebuilds the
// system, whose cold pools would dominate the count).
TEST(SteadyStateAllocations, EveryProtocolSteadyStateOpIsAllocationFree) {
  for (const mcs::ProtocolKind kind : mcs::all_protocols()) {
    SCOPED_TRACE(mcs::to_string(kind));
    // Full replication on 6 processes: C(x) = everyone (maximum fanout),
    // n ≤ 8 keeps vector clocks and prior-count vectors inline.
    const auto dist = graph::topo::complete(6, 4);
    Simulator sim;
    mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
    recorder.use_discard_mode();  // O(1) memory: no per-op history append
    auto processes = mcs::make_processes(kind, dist, recorder);
    for (auto& proc : processes) {
      const ProcessId assigned = sim.add_endpoint(proc.get());
      ASSERT_EQ(assigned, proc->id());
      proc->attach(sim);
    }

    std::uint64_t completed = 0;
    Value next_value = 1;
    // One write + one read of every variable by every process, each op
    // drained to completion before the next is issued (blocking protocols
    // allow one operation in flight per process).
    const auto round = [&] {
      for (auto& proc : processes) {
        for (VarId x = 0; x < static_cast<VarId>(dist.var_count); ++x) {
          proc->write(x, next_value++, [&completed] { ++completed; });
          sim.run();
          proc->read(x, [&completed](Value) { ++completed; });
          sim.run();
        }
      }
    };
    // Warm rounds: grow the body pools, event pool, recycling-map
    // freelists and every per-key container entry the workload touches.
    for (int warm = 0; warm < 3; ++warm) round();

    const std::uint64_t before = completed;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    round();
    g_count_allocs.store(false);

    const std::uint64_t ops = completed - before;
    EXPECT_EQ(ops, 2u * dist.process_count() * dist.var_count);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << mcs::to_string(kind) << ": " << g_alloc_count.load()
        << " heap allocations across " << ops << " steady-state operations";
  }
}

}  // namespace
}  // namespace pardsm
