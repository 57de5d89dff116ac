// Tests for the Section 3 locality barrier.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "graph/planarity.hpp"
#include "protocols/locality.hpp"
#include "protocols/planar_embedding.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(Locality, StretchedK5FoolsLocalChecks) {
  // The paper's Section 3 instance: a K5 whose edges are subdivided so branch
  // nodes sit far apart. Every small ball is planar; the graph is not; the
  // 5-round protocol still rejects.
  Rng rng(1);
  const int stretch = 24;
  const Graph g = plant_subdivision(path_graph(8), complete_graph(5), stretch, rng);
  ASSERT_FALSE(is_planar(g));
  // Balls of radius < stretch/2 cannot contain a full K5 subdivision.
  EXPECT_TRUE(all_balls_planar(g, stretch / 2 - 1));
  // ... so any cluster-local scheme with polylog-radius views accepts; the
  // interactive protocol does not:
  const PlanarityInstance inst{&g, nullptr};
  for (int t = 0; t < 5; ++t) {
    EXPECT_FALSE(run_planarity(inst, {3}, rng).accepted);
  }
}

TEST(Locality, BallRadiusScalesWithStretch) {
  Rng rng(2);
  int last = 0;
  for (int stretch : {6, 12, 24}) {
    const Graph g = plant_subdivision(Graph(0), complete_graph(5), stretch, rng);
    const int r = planar_ball_radius(g, 0, 4 * stretch);
    EXPECT_GT(r, last);
    EXPECT_LT(r, 4 * stretch);  // the ball eventually swallows the K5
    last = r;
  }
}

TEST(Locality, PlanarGraphsHavePlanarBallsEverywhere) {
  Rng rng(3);
  const auto gi = random_planar(120, 0.4, rng);
  EXPECT_TRUE(all_balls_planar(gi.graph, 4));
}

}  // namespace
}  // namespace lrdip
