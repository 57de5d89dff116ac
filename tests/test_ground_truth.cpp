// Exhaustive small-graph ground truth.
//
// Random families only reach the shapes their generators build; boundary
// bugs live in the graphs they never emit (n <= 2, isolated nodes,
// disconnected inputs, every small non-member). This file enumerates every
// labelled simple graph on n <= 6 nodes (33,868 graphs) and checks:
//  * the planarity engine: every verdict carries a certificate (a genus-0
//    rotation system or a K5/K3,3 subdivision), and the certified planar
//    counts are the labelled planar graph counts (OEIS A066537);
//  * the outerplanar, treewidth-2 and series-parallel recognizers against a
//    brute-force forbidden-minor test written here (K4 and K2,3), which calls
//    no library recognizer;
//  * on every connected graph with 2 <= n <= 6 (27,475 graphs, 13,590 of them
//    not series-parallel): the prover's one-deletion ear search commits the
//    same decomposition as the every-edge retry it replaced;
//  * on every connected graph with 2 <= n <= 5 (771 graphs): each task whose
//    honest prover works from the graph alone accepts on every coin seed
//    exactly the members of its class, and no fault model makes a run throw.
// Cases are parameterized by n so ctest spreads the sweep. n = 7 (2,097,152
// graphs) is left out: it takes minutes, not seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dip/faults.hpp"
#include "every_edge_retry.hpp"
#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "graph/boyer_myrvold.hpp"
#include "graph/io.hpp"
#include "graph/kuratowski.hpp"
#include "graph/outerplanar.hpp"
#include "graph/planarity.hpp"
#include "graph/rotation.hpp"
#include "graph/series_parallel.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

constexpr int kMaxN = 6;
constexpr int kCoinSeeds = 3;

// Graphs on n <= 6 nodes as edge bitmasks: pair {u, v} with u < v owns bit
// v(v-1)/2 + u, so a graph on n - 1 nodes keeps its mask on n nodes.
using Mask = std::uint32_t;

int pair_bit(int u, int v) {
  if (u > v) std::swap(u, v);
  return v * (v - 1) / 2 + u;
}

Mask num_graphs(int n) {
  return Mask{1} << (n * (n - 1) / 2);
}

bool adjacent(Mask g, int u, int v) {
  return ((g >> pair_bit(u, v)) & 1u) != 0;
}

Graph to_graph(int n, Mask g) {
  Graph out(n);
  for (int v = 1; v < n; ++v) {
    for (int u = 0; u < v; ++u) {
      if (adjacent(g, u, v)) out.add_edge(u, v);
    }
  }
  return out;
}

std::string describe(const Graph& g) {
  std::ostringstream os;
  os << "n=" << g.n() << " edges:";
  for (EdgeId e = 0; e < g.m(); ++e) {
    os << " " << g.endpoints(e).first << "-" << g.endpoints(e).second;
  }
  return os.str();
}

// ------------------------------------------------ brute-force minor test

/// g (on n nodes) without node x; the nodes above x shift down by one.
Mask delete_node(int n, Mask g, int x) {
  Mask out = 0;
  for (int v = 1; v < n; ++v) {
    for (int u = 0; u < v; ++u) {
      if (u == x || v == x || !adjacent(g, u, v)) continue;
      out |= Mask{1} << pair_bit(u - (u > x ? 1 : 0), v - (v > x ? 1 : 0));
    }
  }
  return out;
}

/// g (on n nodes) with edge {a, b} contracted: b's neighbors join a's, then
/// b is deleted.
Mask contract_edge(int n, Mask g, int a, int b) {
  for (int w = 0; w < n; ++w) {
    if (w != a && w != b && adjacent(g, b, w)) g |= Mask{1} << pair_bit(a, w);
  }
  return delete_node(n, g, b);
}

/// True iff some relabelling of g (on k nodes) contains every edge of h.
bool contains_relabelled(int k, Mask g, Mask h) {
  std::array<int, kMaxN> perm{};
  std::iota(perm.begin(), perm.begin() + k, 0);
  do {
    bool all = true;
    for (int v = 1; v < k && all; ++v) {
      for (int u = 0; u < v && all; ++u) {
        all = !adjacent(h, u, v) || adjacent(g, perm[u], perm[v]);
      }
    }
    if (all) return true;
  } while (std::next_permutation(perm.begin(), perm.begin() + k));
  return false;
}

/// has[n][g]: the graph g on n nodes has h (on k nodes) as a minor. A minor
/// on k nodes is what remains after deleting nodes and contracting edges down
/// to k nodes and then dropping edges, so the table recurses one deletion or
/// contraction at a time and ends in a relabelled-subgraph test.
using MinorTable = std::vector<std::vector<char>>;

MinorTable minor_table(int k, Mask h) {
  MinorTable has(kMaxN + 1);
  for (int n = 0; n <= kMaxN; ++n) {
    has[n].assign(num_graphs(n), 0);
    if (n < k) continue;
    for (Mask g = 0; g < num_graphs(n); ++g) {
      bool found = n == k && contains_relabelled(k, g, h);
      for (int x = 0; x < n && !found; ++x) found = has[n - 1][delete_node(n, g, x)] != 0;
      for (int v = 1; v < n && !found; ++v) {
        for (int u = 0; u < v && !found; ++u) {
          found = adjacent(g, u, v) && has[n - 1][contract_edge(n, g, u, v)] != 0;
        }
      }
      has[n][g] = found ? 1 : 0;
    }
  }
  return has;
}

const MinorTable& k4_minor() {
  static const MinorTable table = minor_table(4, num_graphs(4) - 1);
  return table;
}

const MinorTable& k23_minor() {
  // Parts {0, 1} and {2, 3, 4}.
  static const MinorTable table = [] {
    Mask h = 0;
    for (int a = 0; a < 2; ++a) {
      for (int b = 2; b < 5; ++b) h |= Mask{1} << pair_bit(a, b);
    }
    return minor_table(5, h);
  }();
  return table;
}

bool is_outerplanar_by_minors(int n, Mask g) {
  return k4_minor()[n][g] == 0 && k23_minor()[n][g] == 0;
}

bool is_tw2_by_minors(int n, Mask g) {
  return k4_minor()[n][g] == 0;
}

// ------------------------------------------------------- all graphs, n <= 6

/// Every connected labelled graph on n nodes, as masks (OEIS A001187).
std::vector<Mask> connected_graphs(int n) {
  std::vector<Mask> out;
  for (Mask mask = 0; mask < num_graphs(n); ++mask) {
    if (is_connected(to_graph(n, mask))) out.push_back(mask);
  }
  return out;
}

class AllGraphs : public ::testing::TestWithParam<int> {};

TEST_P(AllGraphs, PlanarityVerdictsAreCertified) {
  const int n = GetParam();
  constexpr std::array<int, kMaxN + 1> kPlanar = {1, 1, 2, 8, 64, 1023, 32071};
  int planar = 0;
  for (Mask mask = 0; mask < num_graphs(n); ++mask) {
    const Graph g = to_graph(n, mask);
    const PlanarityResult res = boyer_myrvold(g, BmOutput::kEmbeddingOrWitness);
    ASSERT_EQ(res.planar, res.embedding.has_value()) << describe(g);
    const bool certified = res.planar ? is_planar_embedding(g, *res.embedding)
                                      : is_kuratowski_witness(g, res.witness);
    EXPECT_TRUE(certified) << (res.planar ? "planar" : "non-planar")
                           << " verdict without a valid certificate: " << describe(g);
    EXPECT_EQ(is_planar(g), res.planar) << describe(g);
    planar += res.planar ? 1 : 0;
  }
  EXPECT_EQ(planar, kPlanar[n]);
}

TEST_P(AllGraphs, RecognizersMatchForbiddenMinors) {
  const int n = GetParam();
  constexpr std::array<int, kMaxN + 1> kOuterplanar = {1, 1, 2, 8, 63, 893, 19714};
  constexpr std::array<int, kMaxN + 1> kNoK4Minor = {1, 1, 2, 8, 63, 913, 21544};
  int outerplanar = 0, no_k4 = 0;
  for (Mask mask = 0; mask < num_graphs(n); ++mask) {
    const Graph g = to_graph(n, mask);
    const bool op = is_outerplanar_by_minors(n, mask);
    const bool tw2 = is_tw2_by_minors(n, mask);
    EXPECT_EQ(is_outerplanar(g), op) << describe(g);
    EXPECT_EQ(is_treewidth_at_most_2(g), tw2) << describe(g);
    // is_series_parallel's documented domain is biconnected graphs.
    if (is_biconnected(g)) {
      EXPECT_EQ(is_series_parallel(g), tw2) << describe(g);
    }
    outerplanar += op ? 1 : 0;
    no_k4 += tw2 ? 1 : 0;
  }
  EXPECT_EQ(outerplanar, kOuterplanar[n]);
  EXPECT_EQ(no_k4, kNoK4Minor[n]);
}

TEST_P(AllGraphs, OneDeletionSearchMatchesEveryEdgeRetry) {
  // Every connected graph on 2 <= n nodes; the series-parallel prover calls
  // the search on whole graphs and on blocks alike, so the graphs with cut
  // nodes count as much as the blocks: the spine filter must hold on both.
  // Equal decompositions mean equal ear paths and hosts, not just presence.
  const int n = GetParam();
  constexpr std::array<int, kMaxN + 1> kNeedRetry = {0, 0, 0, 0, 5, 201, 13384};
  int need_retry = 0;
  for (const Mask mask : n >= 2 ? connected_graphs(n) : std::vector<Mask>{}) {
    const Graph g = to_graph(n, mask);
    EXPECT_TRUE(one_deletion_ear_decomposition(g) == reference::every_edge_retry(g))
        << describe(g);
    need_retry += nested_ear_decomposition(g) ? 0 : 1;
  }
  EXPECT_EQ(need_retry, kNeedRetry[n]);
}

INSTANTIATE_TEST_SUITE_P(Exhaustive, AllGraphs, ::testing::Range(0, kMaxN + 1));

// ------------------------------------------- connected graphs, 2 <= n <= 5

/// Honest runs over coin seeds 1..kCoinSeeds that accepted; an escaped
/// exception is a test failure and counts as a rejection.
int accepted_seeds(const BoundInstance& bi) {
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kCoinSeeds; ++seed) {
    try {
      accepted += fixtures::run_task(bi, seed).accepted ? 1 : 0;
    } catch (const std::exception& e) {
      ADD_FAILURE() << task_name(bi.task()) << " threw at seed " << seed << ": " << e.what();
    }
  }
  return accepted;
}

class ConnectedGraphs : public ::testing::TestWithParam<int> {};

TEST_P(ConnectedGraphs, ProtocolsAcceptExactlyTheMembers) {
  const int n = GetParam();
  constexpr std::array<std::size_t, 6> kConnected = {1, 1, 1, 4, 38, 728};
  const std::vector<Mask> masks = connected_graphs(n);
  ASSERT_EQ(masks.size(), kConnected[n]);
  for (const Mask mask : masks) {
    GraphFile gf;
    gf.graph = to_graph(n, mask);
    const Graph& g = gf.graph;
    SCOPED_TRACE(describe(g));
    // The planarity verdict is the one PlanarityVerdictsAreCertified
    // certifies; series-parallel is the 2-terminal class, so K1,3 is out.
    const std::pair<Task, bool> membership[] = {
        {Task::planarity, is_planar(g)},
        {Task::outerplanar, is_outerplanar_by_minors(n, mask)},
        {Task::series_parallel, is_series_parallel(g)},
        {Task::treewidth2, is_tw2_by_minors(n, mask)},
    };
    for (const auto& [task, member] : membership) {
      EXPECT_EQ(accepted_seeds(bind_instance(task, gf)), member ? kCoinSeeds : 0)
          << task_name(task) << (member ? " rejected a member" : " accepted a non-member");
    }
    gf.order = brute_force_path_outerplanar_order(g);
    if (gf.order) {
      EXPECT_EQ(accepted_seeds(bind_instance(Task::path_outerplanar, gf)), kCoinSeeds)
          << "path-outerplanar rejected a member with a valid order";
    }
  }
}

TEST_P(ConnectedGraphs, FaultedRunsNeverThrow) {
  const int n = GetParam();
  for (const Mask mask : connected_graphs(n)) {
    GraphFile gf;
    gf.graph = to_graph(n, mask);
    SCOPED_TRACE(describe(gf.graph));
    for (const ProtocolSpec& spec : protocol_registry()) {
      if (spec.requires_certs != 0) continue;  // the five graph-only tasks
      const BoundInstance bi = bind_instance(spec.task, gf);
      for (int m = 0; m < kNumFaultModels; ++m) {
        const auto model = static_cast<FaultModel>(m);
        FaultInjector inj({1, 1.0, fault_bit(model)});
        Rng rng(1);
        try {
          run_protocol(bi.view(), {3}, rng, &inj);
        } catch (const std::exception& e) {
          ADD_FAILURE() << spec.name << " under " << fault_model_name(model)
                        << " threw: " << e.what();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Exhaustive, ConnectedGraphs, ::testing::Range(2, 6));

}  // namespace
}  // namespace lrdip
