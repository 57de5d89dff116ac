// The log-star protocol's own suite: tower arithmetic, round counts,
// completeness across the size range (including the trivial fallback),
// deterministic near-no rejection, the proof-size separation against
// LR-sorting on the SAME instance, and the near-no generator's cost contract
// (the PR 5 witness-caching audit: building the attackable instance must not
// smuggle in a centralized search).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "gen/generators.hpp"
#include "protocols/log_star_planarity.hpp"
#include "protocols/registry.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

TEST(LogStarTower, MatchesTheRecurrenceByHand) {
  // B_1 = ceil(log2 n); B_{k+1} = ceil(log2 (2 B_k)) while B_k > 4.
  EXPECT_EQ(log_star_tower(64), (std::vector<int>{6, 4}));
  EXPECT_EQ(log_star_tower(96), (std::vector<int>{7, 4}));
  EXPECT_EQ(log_star_tower(256), (std::vector<int>{8, 4}));
  EXPECT_EQ(log_star_tower(1 << 12), (std::vector<int>{12, 5, 4}));
  EXPECT_EQ(log_star_tower(1 << 16), (std::vector<int>{16, 5, 4}));
  // B_1 <= 4 stops immediately: a one-level hierarchy.
  EXPECT_EQ(log_star_tower(16), (std::vector<int>{4}));
  // Trivial-fallback sizes have no tower at all.
  EXPECT_TRUE(log_star_tower(2).empty());
  EXPECT_TRUE(log_star_tower(4).empty());
}

TEST(LogStarTower, InvariantsHoldAcrossTheRange) {
  for (int n = 2; n <= (1 << 17); n = n * 3 / 2 + 1) {
    const std::vector<int> bs = log_star_tower(n);
    const int b1 = ceil_log2(static_cast<std::uint64_t>(n));
    if (b1 < 3 || n < 2 * b1) {
      EXPECT_TRUE(bs.empty()) << n;
      EXPECT_EQ(log_star_levels(n), 0) << n;
      EXPECT_EQ(log_star_rounds(n), 1) << n;
      continue;
    }
    ASSERT_FALSE(bs.empty()) << n;
    EXPECT_EQ(bs.front(), b1) << n;
    for (std::size_t k = 0; k + 1 < bs.size(); ++k) {
      EXPECT_GT(bs[k], 4) << n;  // only oversized levels recurse
      EXPECT_EQ(bs[k + 1], ceil_log2(static_cast<std::uint64_t>(2 * bs[k]))) << n;
    }
    EXPECT_LE(bs.back(), 4) << n;  // the recursion bottoms out at <= 4
    EXPECT_EQ(log_star_levels(n), static_cast<int>(bs.size())) << n;
    EXPECT_EQ(log_star_rounds(n), 2 * static_cast<int>(bs.size()) + 1) << n;
    // The depth is genuinely log-star flat: three levels carry us to 2^17.
    EXPECT_LE(bs.size(), 3u) << n;
  }
}

TEST(LogStarPlanarity, PerfectCompletenessAcrossSizes) {
  Rng rng(7);
  for (const int n : {2, 3, 4, 8, 16, 24, 64, 96, 256, 1000, 1 << 12}) {
    const LrInstance gi = random_lr_yes(n, 1.0, rng);
    LogStarPlanarityInstance inst{&gi.graph, gi.order, lr_claimed_tails(gi), {}};
    const Outcome o = run_log_star_planarity(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << "n=" << n << ": " << reject_reason_name(o.reject_reason);
    EXPECT_EQ(o.rounds, log_star_rounds(gi.graph.n())) << n;
  }
}

TEST(LogStarPlanarity, ProofSizeBeatsLrSortingOnTheSameInstance) {
  // The tentpole claim at unit-test scale: identical instance, identical
  // coins, and the log-star labels are strictly narrower than LR-sorting's
  // already-doubly-logarithmic ones (the full sweep is E-LOGSTAR).
  Rng gen(11);
  const LrInstance gi = random_lr_yes(1 << 12, 1.0, gen);
  const LogStarPlanarityInstance ls{&gi.graph, gi.order, lr_claimed_tails(gi), {}};
  const LrSortingInstance lr = as_lr_sorting(ls);
  Rng r1(13), r2(13);
  const Outcome a = run_log_star_planarity(ls, {3}, r1);
  const Outcome b = run_lr_sorting(lr, {3}, r2);
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  EXPECT_LT(a.proof_size_bits, b.proof_size_bits);
  // The one-round baseline stays available as the E-SEP comparison point
  // (its Theta(log n) bare position label is still cheap at this size; the
  // asymptotic crossover against the framed interactive protocols is the
  // sweep's story, not a unit test's).
  const Outcome pls = run_protocol_baseline_pls(make_instance(ls));
  ASSERT_TRUE(pls.accepted);
  EXPECT_EQ(pls.rounds, 1);
}

TEST(LogStarPlanarity, NearNoRejectsDeterministically) {
  // The near-no lie is one flipped orientation claim — instance data, not
  // prover strategy — so rejection must not depend on the verifier's coins.
  const BoundInstance bi = fixtures::near_no_instance(Task::log_star_planarity, 256, 0xabc);
  for (std::uint64_t coin = 0; coin < 16; ++coin) {
    const Outcome o = fixtures::run_task(bi, 0x1000 + coin);
    EXPECT_FALSE(o.accepted) << "coin seed " << coin;
    EXPECT_GT(o.rejected_nodes, 0);
  }
}

TEST(LogStarPlanarity, NearNoShipsTheFlippedEdgeWitness) {
  // The obstruction rides along as adversary-side knowledge (BoundInstance
  // witness), read straight off the generator's forward[] — this is what the
  // greedy prover focuses on without re-deriving the lie.
  const BoundInstance bi = fixtures::near_no_instance(Task::log_star_planarity, 256, 0xabc);
  ASSERT_FALSE(bi.witness().empty());
  for (const EdgeId e : bi.witness()) {
    EXPECT_GE(e, 0);
    EXPECT_LT(e, bi.graph().m());
  }
}

TEST(LogStarPlanarity, NearNoGenerationCostStaysNearYes) {
  // The PR 5 audit, as a regression test: make_near_no must replay make_yes
  // plus O(flips) bookkeeping, never a centralized search for an obstruction
  // (the ~80x trap series_parallel once had). Median-of-3 wall-clock ratio
  // with a generous ceiling — the point is to catch an accidental O(n m)
  // recognizer sneaking into the generator, not to benchmark.
  const auto median_gen_ns = [](auto&& gen) {
    std::vector<long long> ns;
    for (std::uint64_t s = 1; s <= 3; ++s) {
      const auto t0 = std::chrono::steady_clock::now();
      Rng rng(s);
      const BoundInstance bi = gen(rng);
      const auto t1 = std::chrono::steady_clock::now();
      EXPECT_GT(bi.graph().n(), 0);
      ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    }
    std::sort(ns.begin(), ns.end());
    return ns[1];
  };
  constexpr int kN = 4096;
  const ProtocolSpec& spec = protocol_spec(Task::log_star_planarity);
  const long long yes_ns = median_gen_ns([&](Rng& rng) { return spec.make_yes(kN, rng); });
  const long long no_ns = median_gen_ns([&](Rng& rng) { return spec.make_near_no(kN, rng); });
  EXPECT_LT(no_ns, 50 * std::max(yes_ns, 1LL))
      << "make_near_no " << no_ns << "ns vs make_yes " << yes_ns << "ns";
}

TEST(LogStarPlanarity, FallbackMatchesTheTrivialStage) {
  // Below 2 ceil(log2 n) the task degenerates to the shared one-round
  // position-labeling stage — same outcome shape as the PLS baseline.
  Rng rng(17);
  const LrInstance gi = random_lr_yes(4, 1.0, rng);
  LogStarPlanarityInstance inst{&gi.graph, gi.order, lr_claimed_tails(gi), {}};
  const Outcome o = run_log_star_planarity(inst, {3}, rng);
  EXPECT_TRUE(o.accepted);
  EXPECT_EQ(o.rounds, 1);
}

}  // namespace
}  // namespace lrdip
