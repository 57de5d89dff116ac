// Tests for the executable one-round PLS baselines and the extra protocol
// surface (Theorem 6.1 wrapper).
#include <gtest/gtest.h>

#include "dip/faults.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "protocols/baseline_pls.hpp"
#include "protocols/outerplanarity.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(SpanningTreePls, AcceptsHonestTrees) {
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const auto gi = random_planar(80, 0.3, rng);
    const RootedForest tree = bfs_tree(gi.graph, 0);
    const Outcome o = run_spanning_tree_baseline_pls(gi.graph, tree.parent);
    EXPECT_TRUE(o.accepted);
    EXPECT_EQ(o.rounds, 1);
    EXPECT_EQ(o.proof_size_bits, 2 * bits_for_values(80));
    EXPECT_EQ(o.max_coin_bits, 0);  // deterministic
  }
}

TEST(SpanningTreePls, RejectsCyclesDeterministically) {
  // Contrast with Lemma 2.5: no randomness needed, but Theta(log n) bits.
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = cycle_graph(12);
    std::vector<NodeId> parent(12);
    for (int v = 0; v < 12; ++v) parent[v] = (v + 1) % 12;
    EXPECT_FALSE(run_spanning_tree_baseline_pls(g, parent).accepted);
  }
}

TEST(SpanningTreePls, RejectsTwoComponents) {
  Rng rng(2);
  const auto gi = random_planar(60, 0.3, rng);
  RootedForest tree = bfs_tree(gi.graph, 0);
  for (NodeId v = 0; v < gi.graph.n(); ++v) {
    if (tree.depth[v] == 1) {
      tree.parent[v] = -1;
      break;
    }
  }
  EXPECT_FALSE(run_spanning_tree_baseline_pls(gi.graph, tree.parent).accepted);
}

TEST(PathOuterplanarityPls, DeterministicDecisions) {
  Rng rng(3);
  // Yes-instances: always accepted, zero coins.
  for (int t = 0; t < 10; ++t) {
    const auto gi = random_path_outerplanar(120, 1.0, rng);
    const Outcome o = run_path_outerplanarity_pls(gi.graph, gi.order);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 1);
    EXPECT_EQ(o.max_coin_bits, 0);
  }
  // Crossing chords: rejected with probability 1 (positions are exact).
  for (int t = 0; t < 10; ++t) {
    const Graph bad = crossing_chords_no_instance(40, rng);
    std::vector<NodeId> order(bad.n());
    for (int i = 0; i < bad.n(); ++i) order[i] = i;
    EXPECT_FALSE(run_path_outerplanarity_pls(bad, order).accepted);
  }
  // No Hamiltonian path: rejected.
  EXPECT_FALSE(run_path_outerplanarity_pls(spider_no_instance(5), std::nullopt).accepted);
}

TEST(PathOuterplanarityPls, LabelsAreThetaLogN) {
  Rng rng(4);
  const auto small = random_path_outerplanar(1 << 8, 1.0, rng);
  const auto large = random_path_outerplanar(1 << 16, 1.0, rng);
  const Outcome os = run_path_outerplanarity_pls(small.graph, small.order);
  const Outcome ol = run_path_outerplanarity_pls(large.graph, large.order);
  ASSERT_TRUE(os.accepted);
  ASSERT_TRUE(ol.accepted);
  // Doubling log n roughly doubles the label width (all fields are positions).
  EXPECT_GT(ol.proof_size_bits, os.proof_size_bits * 3 / 2);
}

TEST(BiconnectedOuterplanarity, Theorem61) {
  Rng rng(5);
  // Yes: a maximal outerplanar polygon with its cycle certificate.
  const Graph g = random_maximal_outerplanar(64, rng);
  std::vector<NodeId> cycle(64);
  for (int i = 0; i < 64; ++i) cycle[i] = i;
  EXPECT_TRUE(run_biconnected_outerplanarity(g, cycle, {3}, rng).accepted);
  // No certificate: recomputed centrally.
  EXPECT_TRUE(run_biconnected_outerplanarity(g, std::nullopt, {3}, rng).accepted);
  // Path-outerplanar but NOT closing a cycle: a bare path fails Theorem 6.1.
  const Graph path = path_graph(16);
  EXPECT_FALSE(run_biconnected_outerplanarity(path, std::nullopt, {3}, rng).accepted);
  // Non-outerplanar: rejected.
  const Graph bad = crossing_chords_no_instance(20, rng);
  std::vector<NodeId> bad_cycle(bad.n());
  for (int i = 0; i < bad.n(); ++i) bad_cycle[i] = i;
  EXPECT_FALSE(run_biconnected_outerplanarity(bad, bad_cycle, {3}, rng).accepted);
}

// The Theorem 6.1 wrapper hands its FaultInjector to the path-outerplanarity
// run it delegates to: an attached injector that drops every label must fire
// and turn the yes-instance into a rejection.
TEST(BiconnectedOuterplanarity, AttachedFaultInjectorFires) {
  Rng rng(5);
  const Graph g = random_maximal_outerplanar(64, rng);
  std::vector<NodeId> cycle(64);
  for (int i = 0; i < 64; ++i) cycle[i] = i;
  FaultInjector inj({1, 1.0, fault_bit(FaultModel::label_drop)});
  const Outcome o = run_biconnected_outerplanarity(g, cycle, {3}, rng, &inj);
  EXPECT_GT(inj.total_faults(), 0);
  EXPECT_EQ(inj.total_faults(), inj.count(FaultModel::label_drop));
  EXPECT_FALSE(o.accepted);
}

}  // namespace
}  // namespace lrdip
