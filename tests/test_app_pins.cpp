// Exact-traffic pins for the four distribution-oblivious paper apps.
//
// The app tests elsewhere check results (distances, products, LCS length,
// convergence) and determinism (a == b), which a change to the apps'
// simulated-instance wiring could pass while moving every message.  These
// pins fix one run of each app at its default options (sim seed 1) to the
// exact messages sent, wire bytes, simulated finish time and an FNV-1a
// fingerprint of the recorded history.  Bellman-Ford runs on the paper's
// Fig. 8 graph.  The values were captured from the apps as they were
// before they moved onto pardsm::System; refreshing them is only right
// when an app's protocol traffic is meant to change.

#include <gtest/gtest.h>

#include <string>

#include "apps/async_jacobi.h"
#include "apps/bellman_ford.h"
#include "apps/matrix_product.h"
#include "apps/wavefront_lcs.h"
#include "golden_metrics_common.h"

namespace pardsm::apps {
namespace {

struct AppPin {
  std::uint64_t messages;
  std::uint64_t bytes;
  std::int64_t finished_us;
  std::uint64_t history_hash;
};

void expect_pinned(const ProcessTraffic& traffic, TimePoint finished_at,
                   const hist::History& history, const AppPin& pin) {
  const AppPin got{traffic.msgs_sent, traffic.wire_bytes_sent(),
                   finished_at.us, golden::history_hash(history)};
  const std::string row = "{" + std::to_string(got.messages) + "ull, " +
                          std::to_string(got.bytes) + "ull, " +
                          std::to_string(got.finished_us) + ", " +
                          std::to_string(got.history_hash) + "ull}";
  EXPECT_EQ(got.messages, pin.messages) << "got " << row;
  EXPECT_EQ(got.bytes, pin.bytes) << "got " << row;
  EXPECT_EQ(got.finished_us, pin.finished_us) << "got " << row;
  EXPECT_EQ(got.history_hash, pin.history_hash) << "got " << row;
}

TEST(AppPins, BellmanFordFig8) {
  const auto r = run_bellman_ford(WeightedGraph::fig8());
  ASSERT_TRUE(r.matches_reference);
  expect_pinned(r.total_traffic, r.finished_at, r.history,
                {96ull, 4608ull, 30805, 9864644528430864419ull});
}

TEST(AppPins, MatrixProduct) {
  const auto r = run_matrix_product(random_matrix(6, 9, 1),
                                    random_matrix(6, 9, 2), /*processes=*/3);
  ASSERT_TRUE(r.matches_reference);
  expect_pinned(r.total_traffic, r.finished_at, r.history,
                {78ull, 3744ull, 4000, 15877804957137546032ull});
}

TEST(AppPins, WavefrontLcs) {
  const auto r = run_wavefront_lcs("ABCBDAB", "BDCABA");
  ASSERT_TRUE(r.matches_reference);
  expect_pinned(r.total_traffic, r.finished_at, r.history,
                {84ull, 4032ull, 18000, 10005312326604115712ull});
}

TEST(AppPins, AsyncJacobi) {
  const auto r = run_async_jacobi(JacobiProblem::contraction(6, 7));
  ASSERT_TRUE(r.converged);
  expect_pinned(r.total_traffic, r.finished_at, r.history,
                {810ull, 45360ull, 163740, 15731759737781008514ull});
}

}  // namespace
}  // namespace pardsm::apps
