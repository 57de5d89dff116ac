#include <gtest/gtest.h>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/outerplanar.hpp"
#include "graph/planarity.hpp"
#include "protocols/planar_embedding.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(EulerExpansion, LemmaSevenThree) {
  // rho planar  <=>  h(G, T, rho) path-outerplanar w.r.t. the Euler path.
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const auto inst = random_planar(40, 0.3, rng);
    const RootedForest tree = bfs_tree(inst.graph, 0);
    const EulerExpansion exp =
        build_euler_expansion(inst.graph, inst.rotation, tree.parent, tree.parent_edge, 0);
    EXPECT_EQ(exp.h.n(), 2 * inst.graph.n() - 1);
    EXPECT_TRUE(is_hamiltonian_path(exp.h, exp.path));
    EXPECT_TRUE(is_properly_nested(exp.h, exp.path)) << "planar rotation must nest";
  }
}

TEST(EulerExpansion, CorruptedRotationBreaksNestingOrCornerOrder) {
  // The full characterization: genus 0 <=> (h nests properly AND every
  // corner's arcs follow the rotation's circular order).
  Rng rng(2);
  int tried = 0;
  while (tried < 20) {
    auto inst = corrupt_rotation(random_apollonian(40, rng), 2, rng);
    if (is_planar_embedding(inst.graph, inst.rotation)) continue;  // unlucky corruption
    ++tried;
    const RootedForest tree = bfs_tree(inst.graph, 0);
    const EulerExpansion exp =
        build_euler_expansion(inst.graph, inst.rotation, tree.parent, tree.parent_edge, 0);
    const auto corner_ok =
        corner_order_checks(inst.graph, inst.rotation, tree.parent, tree.parent_edge, exp);
    bool all_corners = true;
    for (char c : corner_ok) all_corners = all_corners && c;
    EXPECT_FALSE(is_properly_nested(exp.h, exp.path) && all_corners);
  }
}

TEST(EulerExpansion, CharacterizesGenusOnAllK4Rotations) {
  // Exhaustive: all 16 rotation systems of K4 (two cyclic orders per node).
  const Graph g = complete_graph(4);
  std::vector<std::vector<EdgeId>> inc(4);
  for (NodeId v = 0; v < 4; ++v) {
    for (const Half& h : g.neighbors(v)) inc[v].push_back(h.edge);
  }
  for (int mask = 0; mask < 16; ++mask) {
    std::vector<std::vector<EdgeId>> order(4);
    for (int v = 0; v < 4; ++v) {
      order[v] = inc[v];
      if (mask & (1 << v)) std::swap(order[v][1], order[v][2]);
    }
    const RotationSystem rot(g, order);
    const RootedForest tree = bfs_tree(g, 0);
    const EulerExpansion exp =
        build_euler_expansion(g, rot, tree.parent, tree.parent_edge, 0);
    const auto corner_ok = corner_order_checks(g, rot, tree.parent, tree.parent_edge, exp);
    bool all_corners = true;
    for (char c : corner_ok) all_corners = all_corners && c;
    const bool verdict = is_properly_nested(exp.h, exp.path) && all_corners;
    EXPECT_EQ(euler_genus(g, rot) == 0, verdict) << "mask=" << mask;
  }
}

TEST(PlanarEmbeddingProtocol, Completeness) {
  Rng rng(3);
  for (int t = 0; t < 10; ++t) {
    const auto gi = random_planar(100 + 30 * t, 0.4, rng);
    const PlanarEmbeddingInstance inst{&gi.graph, &gi.rotation};
    const Outcome o = run_planar_embedding(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(PlanarEmbeddingProtocol, CompletenessGridAndApollonian) {
  Rng rng(4);
  const auto grid = grid_graph(12, 9);
  EXPECT_TRUE(run_planar_embedding({&grid.graph, &grid.rotation}, {3}, rng).accepted);
  const auto apo = random_apollonian(200, rng);
  EXPECT_TRUE(run_planar_embedding({&apo.graph, &apo.rotation}, {3}, rng).accepted);
}

TEST(PlanarEmbeddingProtocol, RejectsCorruptedRotation) {
  Rng rng(5);
  int tried = 0, rejects = 0;
  while (tried < 25) {
    auto inst = corrupt_rotation(random_apollonian(80, rng), 2, rng);
    if (is_planar_embedding(inst.graph, inst.rotation)) continue;  // not a no-instance
    ++tried;
    const PlanarEmbeddingInstance pe{&inst.graph, &inst.rotation};
    rejects += !run_planar_embedding(pe, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, tried);
}

TEST(PlanarEmbeddingProtocol, ProofSizeDoublyLogarithmic) {
  Rng rng(6);
  const auto g1 = random_planar(1 << 10, 0.4, rng);
  const auto g2 = random_planar(1 << 16, 0.4, rng);
  const Outcome o1 = run_planar_embedding({&g1.graph, &g1.rotation}, {3}, rng);
  const Outcome o2 = run_planar_embedding({&g2.graph, &g2.rotation}, {3}, rng);
  ASSERT_TRUE(o1.accepted);
  ASSERT_TRUE(o2.accepted);
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 3 / 2);
}

TEST(PlanarityProtocol, CompletenessWithCertificate) {
  Rng rng(7);
  for (int t = 0; t < 5; ++t) {
    const auto gi = random_planar(150, 0.4, rng);
    const PlanarityInstance inst{&gi.graph, &gi.rotation};
    EXPECT_TRUE(run_planarity(inst, {3}, rng).accepted);
  }
}

TEST(PlanarityProtocol, CompletenessWithoutCertificate) {
  Rng rng(8);
  const auto gi = random_planar(80, 0.4, rng);
  const PlanarityInstance inst{&gi.graph, nullptr};
  EXPECT_TRUE(run_planarity(inst, {3}, rng).accepted);
}

TEST(PlanarityProtocol, RejectsPlantedKernels) {
  Rng rng(9);
  int rejects = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto host = random_planar(40, 0.5, rng);
    const Graph g = plant_subdivision(host.graph, t % 2 == 0 ? complete_graph(5)
                                                             : complete_bipartite(3, 3),
                                      3, rng);
    const PlanarityInstance inst{&g, nullptr};
    rejects += !run_planarity(inst, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(PlanarityProtocol, DegreeTermInProofSize) {
  // Same n, different Delta: the rotation-shipping labels cost
  // 2 ceil(log2 Delta) bits per edge, so the high-degree tree pays more.
  Rng rng(10);
  auto host = [&](int delta) {
    Graph g = star_graph(delta);
    NodeId tail = 1;
    while (g.n() < (1 << 10) + 1) {
      const NodeId v = g.add_node();
      g.add_edge(tail, v);
      tail = v;
    }
    return g;
  };
  const Graph wide = host(1 << 9);
  const Graph narrow = host(1 << 3);
  // Trees are genus 0 under any rotation.
  const RotationSystem wide_rot = RotationSystem::from_adjacency(wide);
  const RotationSystem narrow_rot = RotationSystem::from_adjacency(narrow);
  const Outcome ow = run_planarity({&wide, &wide_rot}, {3}, rng);
  const Outcome on = run_planarity({&narrow, &narrow_rot}, {3}, rng);
  EXPECT_TRUE(ow.accepted);
  EXPECT_TRUE(on.accepted);
  EXPECT_GT(ow.proof_size_bits, on.proof_size_bits);
  // The delta gap is 2 * (9 - 3) = 12 bits of rotation labels per charged
  // edge; allow slack for block-structure differences.
  EXPECT_GE(ow.proof_size_bits - on.proof_size_bits, 6);
}

}  // namespace
}  // namespace lrdip
