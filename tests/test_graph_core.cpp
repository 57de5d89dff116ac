#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "graph/degeneracy.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(Graph, AddEdgeAndAdjacency) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2);
  EXPECT_EQ(g.n(), 3);
  EXPECT_EQ(g.m(), 1);
  EXPECT_EQ(g.endpoints(e), std::make_pair(0, 2));
  EXPECT_EQ(g.other_end(e, 0), 2);
  EXPECT_EQ(g.other_end(e, 2), 0);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 0);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), InvariantError);
}

TEST(Graph, SimplicityDetection) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.is_simple());
  g.add_edge(1, 0);
  EXPECT_FALSE(g.is_simple());
}

TEST(Algorithms, BfsTreeDepths) {
  const Graph g = path_graph(5);
  const RootedForest f = bfs_tree(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(f.depth[i], i);
  EXPECT_EQ(f.parent[0], -1);
  EXPECT_EQ(f.parent[4], 3);
}

TEST(Algorithms, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_connected(g));
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Algorithms, Components) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  const auto [comp, k] = components(g);
  EXPECT_EQ(k, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Algorithms, SpanningTreeCheck) {
  const Graph g = cycle_graph(4);
  std::vector<char> in_tree(g.m(), 1);
  EXPECT_FALSE(is_spanning_tree(g, in_tree));  // cycle, n edges
  in_tree[0] = 0;
  EXPECT_TRUE(is_spanning_tree(g, in_tree));
  in_tree[1] = 0;
  EXPECT_FALSE(is_spanning_tree(g, in_tree));
}

TEST(Algorithms, HamiltonianPathCheck) {
  const Graph g = path_graph(4);
  EXPECT_TRUE(is_hamiltonian_path(g, {0, 1, 2, 3}));
  EXPECT_FALSE(is_hamiltonian_path(g, {0, 2, 1, 3}));
  EXPECT_FALSE(is_hamiltonian_path(g, {0, 1, 2}));
  EXPECT_FALSE(is_hamiltonian_path(g, {0, 1, 2, 2}));
}

TEST(Algorithms, SubgraphMapsIds) {
  Graph g(5);
  const EdgeId e01 = g.add_edge(0, 1);
  g.add_edge(1, 2);
  const EdgeId e34 = g.add_edge(3, 4);
  const Subgraph s = make_subgraph(g, {0, 1, 3, 4}, {e01, e34});
  EXPECT_EQ(s.graph.n(), 4);
  EXPECT_EQ(s.graph.m(), 2);
  EXPECT_EQ(s.node_to_orig[s.local(3)], 3);
  EXPECT_EQ(s.local(2), -1);
  EXPECT_EQ(s.edge_to_orig[0], e01);
  EXPECT_TRUE(s.graph.has_edge(s.local(0), s.local(1)));
}

TEST(Biconnected, TwoTrianglesSharedNode) {
  // Triangles 0-1-2 and 2-3-4 share node 2.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  const auto d = biconnected_components(g);
  EXPECT_EQ(d.num_components(), 2);
  EXPECT_TRUE(d.is_cut[2]);
  for (NodeId v : {0, 1, 3, 4}) EXPECT_FALSE(d.is_cut[v]);
  EXPECT_EQ(d.edge_component[0], d.edge_component[1]);
  EXPECT_EQ(d.edge_component[3], d.edge_component[5]);
  EXPECT_NE(d.edge_component[0], d.edge_component[3]);
}

TEST(Biconnected, PathGraphAllBridges) {
  const Graph g = path_graph(6);
  const auto d = biconnected_components(g);
  EXPECT_EQ(d.num_components(), 5);
  for (NodeId v = 1; v <= 4; ++v) EXPECT_TRUE(d.is_cut[v]);
  EXPECT_FALSE(d.is_cut[0]);
  EXPECT_FALSE(d.is_cut[5]);
}

TEST(Biconnected, CycleIsBiconnected) {
  EXPECT_TRUE(is_biconnected(cycle_graph(7)));
  EXPECT_FALSE(is_biconnected(path_graph(7)));
  EXPECT_TRUE(is_biconnected(complete_graph(4)));
}

TEST(Biconnected, BlockCutTreeDepths) {
  // Chain of three triangles glued at nodes.
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(6, 4);
  const BlockCutTree t = block_cut_tree(g, 0);
  ASSERT_EQ(t.decomp.num_components(), 3);
  EXPECT_EQ(t.block_depth[t.root_block], 0);
  int max_depth = 0;
  for (int d : t.block_depth) max_depth = std::max(max_depth, d);
  EXPECT_EQ(max_depth, 2);
  // Every non-root block has a separating node that is a cut vertex.
  for (int b = 0; b < 3; ++b) {
    if (b == t.root_block) {
      EXPECT_EQ(t.separating_node[b], -1);
    } else {
      ASSERT_NE(t.separating_node[b], -1);
      EXPECT_TRUE(t.decomp.is_cut[t.separating_node[b]]);
    }
  }
}

TEST(Degeneracy, TreeHasDegeneracyOne) {
  const auto [order, d] = degeneracy_order(path_graph(20));
  EXPECT_EQ(d, 1);
  EXPECT_EQ(order.size(), 20u);
}

TEST(Degeneracy, CompleteGraph) {
  const auto [order, d] = degeneracy_order(complete_graph(6));
  EXPECT_EQ(d, 5);
}

TEST(Degeneracy, PlanarAtMostFive) {
  Rng rng(3);
  const auto inst = random_apollonian(300, rng);
  const auto [order, d] = degeneracy_order(inst.graph);
  EXPECT_LE(d, 5);
  EXPECT_GE(d, 3);
}

TEST(Degeneracy, GreedyColoringIsProper) {
  Rng rng(4);
  const auto inst = random_apollonian(200, rng);
  const auto color = greedy_coloring(inst.graph);
  int max_color = 0;
  for (EdgeId e = 0; e < inst.graph.m(); ++e) {
    const auto [u, v] = inst.graph.endpoints(e);
    EXPECT_NE(color[u], color[v]);
  }
  for (int c : color) max_color = std::max(max_color, c);
  EXPECT_LE(max_color, 5);  // <= 6 colors on planar graphs
}

TEST(Degeneracy, ForestDecompositionIsForests) {
  Rng rng(5);
  const auto inst = random_apollonian(150, rng);
  const Graph& g = inst.graph;
  const ForestDecomposition fd = forest_decomposition(g);
  EXPECT_LE(fd.num_forests, 5);
  // Every edge in exactly one forest; per forest, parent pointers are acyclic
  // (they follow the degeneracy order) and unique per node.
  std::vector<int> count(g.m(), 0);
  for (int f = 0; f < fd.num_forests; ++f) {
    for (NodeId v = 0; v < g.n(); ++v) {
      const EdgeId pe = fd.parent_edge[f][v];
      if (pe != -1) {
        EXPECT_EQ(fd.edge_forest[pe], f);
        ++count[pe];
      }
    }
  }
  for (EdgeId e = 0; e < g.m(); ++e) EXPECT_EQ(count[e], 1) << "edge " << e;
  // Acyclicity per forest: build each forest subgraph and check no cycles.
  for (int f = 0; f < fd.num_forests; ++f) {
    Graph forest(g.n());
    for (EdgeId e = 0; e < g.m(); ++e) {
      if (fd.edge_forest[e] == f) {
        const auto [u, v] = g.endpoints(e);
        forest.add_edge(u, v);
      }
    }
    const auto [comp, k] = components(forest);
    (void)comp;
    // forest: m = n - #components
    EXPECT_EQ(forest.m(), forest.n() - k);
  }
}

TEST(Algorithms, DfsPostorderVisitsAll) {
  Rng rng(6);
  const auto inst = random_apollonian(50, rng);
  const auto post = dfs_postorder(inst.graph, 0);
  EXPECT_EQ(post.size(), 50u);
  std::set<NodeId> s(post.begin(), post.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(post.back(), 0);  // root finishes last
}

}  // namespace
}  // namespace lrdip
