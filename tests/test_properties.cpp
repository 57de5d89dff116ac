// Property-based parameterized sweeps (TEST_P) over instance families:
// completeness grids for every protocol, structural invariants of the
// nesting machinery, cross-validation of the centralized recognizers, and
// soundness floors for the adversaries.
#include <gtest/gtest.h>

#include <tuple>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "graph/outerplanar.hpp"
#include "graph/planarity.hpp"
#include "graph/series_parallel.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/outerplanarity.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

using fixtures::make_lr;

// ------------------------------------------------ completeness sweeps

using GridParam = std::tuple<int /*n*/, int /*density x10*/, int /*seed*/>;

class LrCompleteness : public ::testing::TestWithParam<GridParam> {};

TEST_P(LrCompleteness, AlwaysAccepts) {
  const auto [n, density10, seed] = GetParam();
  Rng rng(seed);
  const LrInstance gi = random_lr_yes(n, density10 / 10.0, rng);
  EXPECT_TRUE(run_lr_sorting(make_lr(gi), {3}, rng).accepted);
}

INSTANTIATE_TEST_SUITE_P(Grid, LrCompleteness,
                         ::testing::Combine(::testing::Values(16, 65, 257, 2048),
                                            ::testing::Values(0, 5, 10, 25),
                                            ::testing::Values(1, 2, 3)));

class PoCompleteness : public ::testing::TestWithParam<GridParam> {};

TEST_P(PoCompleteness, AlwaysAccepts) {
  const auto [n, density10, seed] = GetParam();
  Rng rng(seed * 31 + 7);
  const auto gi = random_path_outerplanar(n, density10 / 10.0, rng);
  EXPECT_TRUE(run_path_outerplanarity({&gi.graph, gi.order}, {3}, rng).accepted);
}

INSTANTIATE_TEST_SUITE_P(Grid, PoCompleteness,
                         ::testing::Combine(::testing::Values(12, 100, 1025),
                                            ::testing::Values(0, 8, 20),
                                            ::testing::Values(4, 5, 6)));

class EmbeddingCompleteness : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EmbeddingCompleteness, AlwaysAccepts) {
  const auto [n, seed] = GetParam();
  Rng rng(seed * 17 + 3);
  const auto gi = fixtures::planar_host(n, rng);
  EXPECT_TRUE(run_planar_embedding({&gi.graph, &gi.rotation}, {3}, rng).accepted);
}

INSTANTIATE_TEST_SUITE_P(Grid, EmbeddingCompleteness,
                         ::testing::Combine(::testing::Values(24, 150, 900),
                                            ::testing::Values(7, 8, 9, 10)));

class SpCompleteness : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpCompleteness, AlwaysAccepts) {
  const auto [n, seed] = GetParam();
  Rng rng(seed * 13 + 11);
  const SpInstance gi = random_series_parallel(n, rng);
  EXPECT_TRUE(run_series_parallel({&gi.graph, gi.ears}, {3}, rng).accepted);
}

INSTANTIATE_TEST_SUITE_P(Grid, SpCompleteness,
                         ::testing::Combine(::testing::Values(16, 120, 800),
                                            ::testing::Values(12, 13, 14, 15)));

class OuterplanarityCompleteness
    : public ::testing::TestWithParam<std::tuple<int /*n*/, int /*blocks*/, int /*seed*/>> {};

TEST_P(OuterplanarityCompleteness, AlwaysAccepts) {
  const auto [n, blocks, seed] = GetParam();
  Rng rng(seed * 101 + 5);
  const auto gi = random_outerplanar_with_cert(n, blocks, rng);
  EXPECT_TRUE(run_outerplanarity({&gi.graph, gi.block_cycles}, {3}, rng).accepted);
}

INSTANTIATE_TEST_SUITE_P(Grid, OuterplanarityCompleteness,
                         ::testing::Combine(::testing::Values(48, 300, 1200),
                                            ::testing::Values(1, 3, 7),
                                            ::testing::Values(21, 22)));

// ------------------------------------------------ nesting invariants

class NestingInvariants : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NestingInvariants, ObservationsHold) {
  const auto [n, seed] = GetParam();
  Rng rng(seed * 7 + 1);
  const auto gi = random_path_outerplanar(n, 1.2, rng);
  const Graph& g = gi.graph;
  const NestingStructure ns = compute_nesting(g, gi.order);
  std::vector<int> pos(g.n());
  for (int i = 0; i < g.n(); ++i) pos[gi.order[i]] = i;

  auto span = [&](EdgeId e) {
    auto [u, v] = g.endpoints(e);
    int a = pos[u], b = pos[v];
    if (a > b) std::swap(a, b);
    return std::pair<int, int>(a, b);
  };

  for (EdgeId e = 0; e < g.m(); ++e) {
    if (ns.is_path_edge[e]) continue;
    // Observation 2.1.
    EXPECT_TRUE(ns.longest_right[e] || ns.longest_left[e]);
    // Successor covers its predecessor (condition (1) of the definition).
    if (ns.successor[e] != -1) {
      const auto [a, b] = span(e);
      const auto [sa, sb] = span(ns.successor[e]);
      EXPECT_LE(sa, a);
      EXPECT_GE(sb, b);
      EXPECT_NE(std::make_pair(sa, sb), std::make_pair(a, b));
      // ... and is the minimal cover: no third edge strictly between.
      for (EdgeId f = 0; f < g.m(); ++f) {
        if (ns.is_path_edge[f] || f == e || f == ns.successor[e]) continue;
        const auto [fa, fb] = span(f);
        const bool covers_e = fa <= a && b <= fb;
        const bool inside_succ = sa <= fa && fb <= sb;
        EXPECT_FALSE(covers_e && inside_succ && (fa != sa || fb != sb) &&
                     (fa != a || fb != b))
            << "edge " << f << " sits between " << e << " and its successor";
      }
    }
  }
  // Observation 2.2: the predecessors of each edge tile disjoint gaps.
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (ns.is_path_edge[e]) continue;
    std::vector<std::pair<int, int>> preds;
    for (EdgeId f = 0; f < g.m(); ++f) {
      if (!ns.is_path_edge[f] && ns.successor[f] == e) preds.push_back(span(f));
    }
    std::sort(preds.begin(), preds.end());
    for (std::size_t i = 1; i < preds.size(); ++i) {
      EXPECT_LE(preds[i - 1].second, preds[i].first);
    }
  }
  // above(v) strictly covers v and nothing smaller does.
  for (NodeId v = 0; v < g.n(); ++v) {
    if (ns.above[v] == -1) continue;
    const auto [a, b] = span(ns.above[v]);
    EXPECT_LT(a, pos[v]);
    EXPECT_GT(b, pos[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, NestingInvariants,
                         ::testing::Combine(::testing::Values(10, 40, 120),
                                            ::testing::Values(1, 2, 3, 4, 5)));

// ------------------------------------------- recognizer cross-validation

class RecognizerAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RecognizerAgreement, TinyGraphOracles) {
  // On random tiny graphs: outerplanarity via apex-planarity agrees with a
  // brute-force nesting search over Hamiltonian cycles; treewidth-2 agrees
  // with blockwise SP (Lemma 8.2).
  Rng rng(GetParam());
  for (int t = 0; t < 30; ++t) {
    const int n = 4 + static_cast<int>(rng.uniform(4));
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.chance(45, 100)) g.add_edge(u, v);
      }
    }
    if (!is_connected(g)) continue;
    // Lemma 8.2 cross-check.
    const auto bct = biconnected_components(g);
    bool blocks_sp = true;
    for (int b = 0; b < bct.num_components(); ++b) {
      const Subgraph sub = make_subgraph(g, bct.component_nodes[b], bct.component_edges[b]);
      blocks_sp = blocks_sp && is_series_parallel(sub.graph);
    }
    EXPECT_EQ(is_treewidth_at_most_2(g), blocks_sp) << "n=" << n << " m=" << g.m();
    // Planarity: the embedding's genus vs the Euler bound necessary condition.
    if (is_planar(g)) {
      const auto rot = planar_embedding(g);
      ASSERT_TRUE(rot.has_value());
      if (is_connected(g)) {
        EXPECT_EQ(euler_genus(g, *rot), 0);
      }
    } else {
      EXPECT_GE(g.n(), 5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecognizerAgreement, ::testing::Range(100, 110));

// ------------------------------------------------- soundness floors

class LrSoundnessFloor : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LrSoundnessFloor, FlippedEdgesRejected) {
  const auto [n, flips] = GetParam();
  Rng rng(n * 1000 + flips);
  int rejects = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_no(n, 1.0, flips, rng);
    rejects += !run_lr_sorting(make_lr(gi), {3}, rng).accepted;
  }
  EXPECT_GE(rejects, trials - 1);
}

INSTANTIATE_TEST_SUITE_P(Grid, LrSoundnessFloor,
                         ::testing::Combine(::testing::Values(128, 1024),
                                            ::testing::Values(1, 3, 9)));

// --------------------------------------- Euler expansion invariants

class ExpansionInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ExpansionInvariants, StructureOfH) {
  Rng rng(GetParam() * 3 + 2);
  const auto gi = fixtures::planar_host(60 + 10 * GetParam(), rng);
  const RootedForest tree = bfs_tree(gi.graph, 0);
  const EulerExpansion exp =
      build_euler_expansion(gi.graph, gi.rotation, tree.parent, tree.parent_edge, 0);
  EXPECT_EQ(exp.h.n(), 2 * gi.graph.n() - 1);
  EXPECT_EQ(exp.h.m(), (2 * gi.graph.n() - 2) + (gi.graph.m() - (gi.graph.n() - 1)));
  EXPECT_TRUE(is_hamiltonian_path(exp.h, exp.path));
  // Copy ownership partitions the h-nodes.
  std::vector<int> count(gi.graph.n(), 0);
  for (NodeId c = 0; c < exp.h.n(); ++c) count[exp.copy_owner[c]]++;
  for (NodeId v = 0; v < gi.graph.n(); ++v) EXPECT_EQ(count[v], exp.num_copies[v]);
  // The planar certificate yields a nested expansion with consistent corners.
  EXPECT_TRUE(is_properly_nested(exp.h, exp.path));
  const auto ok = corner_order_checks(gi.graph, gi.rotation, tree.parent, tree.parent_edge, exp);
  for (char c : ok) EXPECT_TRUE(c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionInvariants, ::testing::Range(0, 8));

}  // namespace
}  // namespace lrdip
