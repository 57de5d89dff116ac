// Failure injection and brute-force cross-validation.
//
// * Label tampering: flipping any prover label bit in the spanning-tree
//   protocol must flip some local check (the checks are exact, not
//   heuristic).
// * Biconnectivity: the Hopcroft-Tarjan decomposition agrees with the
//   O(n(n+m)) remove-a-node oracle on random graphs.
// * Planarity: the planar_embedding rotation has Euler genus 0, and
//   non-planar verdicts only come with enough nodes and edges for a K5/K3,3
//   obstruction, on randomized instances.
#include <gtest/gtest.h>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "graph/outerplanar.hpp"
#include "graph/planarity.hpp"
#include "protocols/spanning_tree.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

// ------------------------------------------------------ label tampering

TEST(FailureInjection, TamperedXValueIsDetected) {
  Rng rng(1);
  const auto gi = fixtures::planar_host(40, rng);
  const Graph& g = gi.graph;
  const RootedForest tree = bfs_tree(g, 0);
  std::vector<std::vector<NodeId>> children = children_of(tree);
  const int k = 12;

  // Build an honest execution by hand, then flip one X value.
  LabelStore labels(g, 3);
  CoinStore coins(g, 3);
  std::vector<std::uint64_t> rho(g.n());
  std::uint64_t root_nonce = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    Label s;
    s.put_flag(tree.parent[v] == -1);
    labels.assign_node(0, v, std::move(s));
    const auto drawn = coins.draw(1, v, tree.parent[v] == -1 ? 2 : 1, 1 << k, k, rng);
    rho[v] = drawn[0];
    if (tree.parent[v] == -1) root_nonce = drawn[1];
  }
  std::vector<std::uint64_t> x(g.n(), 0);
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    const NodeId v = *it;
    x[v] = rho[v];
    for (NodeId c : children[v]) x[v] ^= x[c];
  }
  const NodeId victim = tree.order[g.n() / 2];
  x[victim] ^= 1;  // the injected fault
  for (NodeId v = 0; v < g.n(); ++v) {
    Label r;
    r.put(x[v], k).put(root_nonce, k);
    labels.assign_node(2, v, std::move(r));
  }
  int failures = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const NodeView view(labels, coins, v);
    failures += spanning_tree_node_verdict(view, tree.parent[v], children[v]) !=
                RejectReason::none;
  }
  // The victim's own equation breaks, or its parent's (or both).
  EXPECT_GE(failures, 1);
  EXPECT_LE(failures, 2);
}

TEST(FailureInjection, TamperedNonceEchoIsDetected) {
  Rng rng(2);
  const auto gi = fixtures::planar_host(30, rng);
  const Graph& g = gi.graph;
  const RootedForest tree = bfs_tree(g, 0);
  const auto children = children_of(tree);
  const int k = 10;
  LabelStore labels(g, 3);
  CoinStore coins(g, 3);
  std::vector<std::uint64_t> rho(g.n());
  std::uint64_t nonce = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    Label s;
    s.put_flag(tree.parent[v] == -1);
    labels.assign_node(0, v, std::move(s));
    const auto d = coins.draw(1, v, tree.parent[v] == -1 ? 2 : 1, 1 << k, k, rng);
    rho[v] = d[0];
    if (tree.parent[v] == -1) nonce = d[1];
  }
  std::vector<std::uint64_t> x(g.n(), 0);
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    x[*it] = rho[*it];
    for (NodeId c : children[*it]) x[*it] ^= x[c];
  }
  const NodeId victim = tree.order[g.n() / 3];
  for (NodeId v = 0; v < g.n(); ++v) {
    Label r;
    r.put(x[v], k).put(v == victim ? (nonce ^ 3) : nonce, k);
    labels.assign_node(2, v, std::move(r));
  }
  bool any_failure = false;
  for (NodeId v = 0; v < g.n(); ++v) {
    const NodeView view(labels, coins, v);
    if (spanning_tree_node_verdict(view, tree.parent[v], children[v]) != RejectReason::none) {
      any_failure = true;
    }
  }
  EXPECT_TRUE(any_failure);  // a neighbor of the victim sees the mismatch
}

// ---------------------------------------------- brute-force cross-checks

bool brute_force_is_cut(const Graph& g, NodeId v) {
  // Remove v; connected components among the rest must stay 1.
  std::vector<NodeId> keep;
  std::vector<EdgeId> edges;
  for (NodeId u = 0; u < g.n(); ++u) {
    if (u != v) keep.push_back(u);
  }
  for (EdgeId e = 0; e < g.m(); ++e) {
    const auto [a, b] = g.endpoints(e);
    if (a != v && b != v) edges.push_back(e);
  }
  const Subgraph sub = make_subgraph(g, keep, edges);
  const auto [comp, k] = components(sub.graph);
  (void)comp;
  return k > 1;
}

TEST(CrossValidation, CutVerticesAgainstRemovalOracle) {
  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    const int n = 6 + static_cast<int>(rng.uniform(20));
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.chance(25, 100)) g.add_edge(u, v);
      }
    }
    if (!is_connected(g) || g.n() < 3) continue;
    const auto d = biconnected_components(g);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(static_cast<bool>(d.is_cut[v]), brute_force_is_cut(g, v))
          << "node " << v << " n=" << n << " m=" << g.m();
    }
  }
}

TEST(CrossValidation, EdgePartitionIntoBlocks) {
  Rng rng(4);
  for (int t = 0; t < 10; ++t) {
    const Graph g = random_outerplanar(60, 5, rng);
    const auto d = biconnected_components(g);
    // Two edges sharing a non-cut endpoint are in the same block.
    for (NodeId v = 0; v < g.n(); ++v) {
      if (d.is_cut[v] || g.degree(v) < 2) continue;
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 1; i < nbrs.size(); ++i) {
        EXPECT_EQ(d.edge_component[nbrs[0].edge], d.edge_component[nbrs[i].edge]);
      }
    }
  }
}

TEST(CrossValidation, PlanarEmbeddingSelfConsistent) {
  Rng rng(5);
  int planar_count = 0, nonplanar_count = 0;
  for (int t = 0; t < 40; ++t) {
    const int n = 8 + static_cast<int>(rng.uniform(12));
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.chance(30, 100)) g.add_edge(u, v);
      }
    }
    const auto rot = planar_embedding(g);
    if (rot) {
      ++planar_count;
      if (is_connected(g)) {
        EXPECT_EQ(euler_genus(g, *rot), 0);
      }
    } else {
      ++nonplanar_count;
      // A non-planar verdict implies enough edges for an obstruction.
      EXPECT_GE(g.m(), 9);
      EXPECT_GE(g.n(), 5);
    }
  }
  EXPECT_GT(planar_count, 0);
  EXPECT_GT(nonplanar_count, 0);
}

TEST(CrossValidation, OuterplanarityAgainstTinyBruteForce) {
  // On graphs small enough to brute-force: is_outerplanar (apex + planarity)
  // vs exhaustive search for a Hamiltonian-cycle-with-nested-chords witness
  // for biconnected inputs.
  Rng rng(6);
  for (int t = 0; t < 15; ++t) {
    const int n = 5 + static_cast<int>(rng.uniform(3));
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.chance(50, 100)) g.add_edge(u, v);
      }
    }
    if (!is_biconnected(g)) continue;
    // Biconnected outerplanar <=> some Hamiltonian path order with an edge
    // closing the cycle nests properly.
    const bool witness = brute_force_path_outerplanar_order(g).has_value();
    if (is_outerplanar(g)) {
      EXPECT_TRUE(witness);  // ...but it IS necessary, so it must exist here
    }
  }
}

}  // namespace
}  // namespace lrdip
