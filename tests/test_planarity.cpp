#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "graph/planarity.hpp"
#include "graph/rotation.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(Rotation, FaceCountOfTriangle) {
  const Graph g = cycle_graph(3);
  const RotationSystem rot = RotationSystem::from_adjacency(g);
  EXPECT_EQ(count_faces(g, rot), 2);
  EXPECT_TRUE(is_planar_embedding(g, rot));
}

TEST(Rotation, NextClockwiseCycles) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(0, 2);
  const EdgeId c = g.add_edge(0, 3);
  RotationSystem rot(g, {{a, b, c}, {a}, {b}, {c}});
  EXPECT_EQ(rot.next_clockwise(0, a), b);
  EXPECT_EQ(rot.next_clockwise(0, c), a);
  EXPECT_EQ(rot.next_counterclockwise(0, a), c);
  EXPECT_EQ(rot.position(0, b), 1);
}

TEST(Rotation, RejectsNonPermutation) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_THROW(RotationSystem(g, {{e, e}, {e}}), InvariantError);
  EXPECT_THROW(RotationSystem(g, {{}, {e}}), InvariantError);
}

TEST(Rotation, K4HasPlanarAndNonplanarRotations) {
  const Graph g = complete_graph(4);
  const auto rot = planar_embedding(g);
  ASSERT_TRUE(rot.has_value());
  EXPECT_TRUE(is_planar_embedding(g, *rot));
  EXPECT_EQ(count_faces(g, *rot), 4);  // tetrahedron
}

TEST(Embedder, K5IsNonplanar) { EXPECT_FALSE(is_planar(complete_graph(5))); }

TEST(Embedder, K33IsNonplanar) { EXPECT_FALSE(is_planar(complete_bipartite(3, 3))); }

TEST(Embedder, SubdividedK5IsNonplanar) {
  Rng rng(1);
  const Graph g = plant_subdivision(path_graph(10), complete_graph(5), 4, rng);
  EXPECT_FALSE(is_planar(g));
}

TEST(Embedder, SubdividedK33IsNonplanar) {
  Rng rng(2);
  const Graph g = plant_subdivision(path_graph(10), complete_bipartite(3, 3), 7, rng);
  EXPECT_FALSE(is_planar(g));
}

TEST(Embedder, PlanarFamiliesAreRecognized) {
  Rng rng(3);
  EXPECT_TRUE(is_planar(path_graph(30)));
  EXPECT_TRUE(is_planar(cycle_graph(30)));
  EXPECT_TRUE(is_planar(complete_graph(4)));
  EXPECT_TRUE(is_planar(grid_graph(6, 7).graph));
  EXPECT_TRUE(is_planar(random_apollonian(120, rng).graph));
  EXPECT_TRUE(is_planar(random_maximal_outerplanar(60, rng)));
}

TEST(Embedder, EmbeddingHasGenusZero) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = random_planar(80, 0.3, rng);
    const auto rot = planar_embedding(inst.graph);
    ASSERT_TRUE(rot.has_value());
    EXPECT_EQ(euler_genus(inst.graph, *rot), 0);
  }
}

TEST(Embedder, MaximalPlanarFaceCount) {
  Rng rng(5);
  const auto inst = random_apollonian(100, rng);
  const auto rot = planar_embedding(inst.graph);
  ASSERT_TRUE(rot.has_value());
  // Triangulation: f = 2m/3, and Euler n - m + f = 2.
  EXPECT_EQ(count_faces(inst.graph, *rot), 2 * inst.graph.m() / 3);
}

TEST(Embedder, GeneratorRotationsAreValid) {
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const auto apo = random_apollonian(200, rng);
    EXPECT_TRUE(is_planar_embedding(apo.graph, apo.rotation));
    const auto sparse = random_planar(200, 0.4, rng);
    EXPECT_TRUE(is_planar_embedding(sparse.graph, sparse.rotation));
  }
  { const auto gi = grid_graph(9, 5); EXPECT_TRUE(is_planar_embedding(gi.graph, gi.rotation)); }
}

TEST(Embedder, RandomPlanarPlusCrossEdgesEventuallyNonplanar) {
  // Densify an Apollonian network with extra random edges: m > 3n - 6 must be
  // rejected via the Euler bound; planted K5 rejected via embedding.
  Rng rng(7);
  const auto inst = random_apollonian(40, rng);
  Graph g = inst.graph;  // already maximal planar: any extra edge kills planarity
  for (NodeId u = 0; u < g.n() && g.m() <= 3 * g.n() - 6; ++u) {
    for (NodeId v = u + 1; v < g.n(); ++v) {
      if (!g.has_edge(u, v)) {
        g.add_edge(u, v);
        break;
      }
    }
  }
  EXPECT_FALSE(is_planar(g));
}

TEST(Embedder, DisconnectedGraphsSupported) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  EXPECT_TRUE(is_planar(g));
  // Node 5 is isolated: Euler sums 2 per component with an edge, 1 for it.
  const auto rot = planar_embedding(g);
  ASSERT_TRUE(rot.has_value());
  EXPECT_TRUE(is_planar_embedding(g, *rot));
}

TEST(Embedder, CorruptRotationRaisesGenus) {
  Rng rng(8);
  int corrupted = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto inst = corrupt_rotation(random_apollonian(60, rng), 3, rng);
    if (!is_planar_embedding(inst.graph, inst.rotation)) ++corrupted;
  }
  // Random transpositions in a triangulation's rotation almost always break
  // genus 0.
  EXPECT_GE(corrupted, 15);
}

}  // namespace
}  // namespace lrdip
