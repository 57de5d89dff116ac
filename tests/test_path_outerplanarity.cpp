#include <gtest/gtest.h>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/outerplanar.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(PathOuterplanarityProtocol, PerfectCompleteness) {
  Rng rng(1);
  for (int t = 0; t < 25; ++t) {
    const int n = 24 + static_cast<int>(rng.uniform(300));
    const auto gi = random_path_outerplanar(n, 1.0, rng);
    const PathOuterplanarityInstance inst{&gi.graph, gi.order};
    const Outcome o = run_path_outerplanarity(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << "n=" << n << " t=" << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(PathOuterplanarityProtocol, CompletenessLargeScale) {
  Rng rng(2);
  const auto gi = random_path_outerplanar(1 << 14, 1.0, rng);
  const PathOuterplanarityInstance inst{&gi.graph, gi.order};
  EXPECT_TRUE(run_path_outerplanarity(inst, {3}, rng).accepted);
}

TEST(PathOuterplanarityProtocol, RejectsCrossingChords) {
  Rng rng(3);
  int rejects = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const Graph g = crossing_chords_no_instance(60, rng);
    // The prover's best-effort Hamiltonian path: the polygon order.
    std::vector<NodeId> order(g.n());
    for (int i = 0; i < g.n(); ++i) order[i] = i;
    const PathOuterplanarityInstance inst{&g, order};
    rejects += !run_path_outerplanarity(inst, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(PathOuterplanarityProtocol, RejectsNoHamiltonianPath) {
  Rng rng(4);
  int rejects = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const Graph g = spider_no_instance(10);
    const PathOuterplanarityInstance inst{&g, std::nullopt};
    rejects += !run_path_outerplanarity(inst, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);  // spanning-tree stage: multiple path components
}

TEST(PathOuterplanarityProtocol, RejectsForgedPathOnYesGraph) {
  // Even on a path-outerplanar graph, committing to a NON-nesting Hamiltonian
  // path must fail (the task is relative to the committed path's existence —
  // the prover would simply pick a good one; this exercises the nesting
  // stage in isolation).
  Rng rng(5);
  Graph g = path_graph(8);
  g.add_edge(0, 3);
  g.add_edge(2, 6);  // crosses (0,3) w.r.t. the identity order
  std::vector<NodeId> order(8);
  for (int i = 0; i < 8; ++i) order[i] = i;
  ASSERT_FALSE(is_properly_nested(g, order));
  const PathOuterplanarityInstance inst{&g, order};
  int rejects = 0;
  for (int t = 0; t < 20; ++t) rejects += !run_path_outerplanarity(inst, {3}, rng).accepted;
  EXPECT_EQ(rejects, 20);
}

TEST(PathOuterplanarityProtocol, ProofSizeDoublyLogarithmic) {
  Rng rng(6);
  const auto g1 = random_path_outerplanar(1 << 10, 1.0, rng);
  const auto g2 = random_path_outerplanar(1 << 18, 1.0, rng);
  const Outcome o1 = run_path_outerplanarity({&g1.graph, g1.order}, {3}, rng);
  const Outcome o2 = run_path_outerplanarity({&g2.graph, g2.order}, {3}, rng);
  ASSERT_TRUE(o1.accepted);
  ASSERT_TRUE(o2.accepted);
  // 2^10 -> 2^18: a log-n scheme grows 1.8x; log log growth stays below ~1.5x.
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 3 / 2);
}

TEST(PathOuterplanarityProtocol, BaselineAgrees) {
  Rng rng(7);
  const auto gi = random_path_outerplanar(200, 1.0, rng);
  const PathOuterplanarityInstance yes{&gi.graph, gi.order};
  const Outcome yes_pls = run_protocol_baseline_pls(make_instance(yes));
  EXPECT_TRUE(yes_pls.accepted);
  EXPECT_EQ(yes_pls.rounds, 1);

  const Graph bad = crossing_chords_no_instance(50, rng);
  std::vector<NodeId> order(bad.n());
  for (int i = 0; i < bad.n(); ++i) order[i] = i;
  const PathOuterplanarityInstance no{&bad, order};
  EXPECT_FALSE(run_protocol_baseline_pls(make_instance(no)).accepted);
}

TEST(PathOuterplanarityProtocol, SparseAndDenseInstances) {
  Rng rng(8);
  for (double f : {0.0, 0.3, 2.5}) {
    const auto gi = random_path_outerplanar(500, f, rng);
    const PathOuterplanarityInstance inst{&gi.graph, gi.order};
    EXPECT_TRUE(run_path_outerplanarity(inst, {3}, rng).accepted) << f;
  }
}

TEST(PathOuterplanarityProtocol, PurePathGraph) {
  Rng rng(9);
  const Graph g = path_graph(64);
  std::vector<NodeId> order(64);
  for (int i = 0; i < 64; ++i) order[i] = i;
  const PathOuterplanarityInstance inst{&g, order};
  EXPECT_TRUE(run_path_outerplanarity(inst, {3}, rng).accepted);
}

}  // namespace
}  // namespace lrdip
