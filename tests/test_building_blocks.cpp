// Tests for the Lemma 2.3 / 2.5 / 2.6 components.
#include <gtest/gtest.h>

#include "support/check.hpp"
#include "dip/faults.hpp"
#include "dip/store.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "protocols/forest_encoding.hpp"
#include "protocols/multiset_equality.hpp"
#include "protocols/spanning_tree.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

// ------------------------------------------------------- forest encoding

TEST(ForestEncoding, DecodesBfsTreeOnPlanarGraphs) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto inst = random_planar(120, 0.4, rng);
    const Graph& g = inst.graph;
    const RootedForest tree = bfs_tree(g, 0);
    const ForestEncoding enc = encode_forest(g, tree.parent);
    EXPECT_LE(enc.bits_per_node(), 7);  // two <=6-colorings + parity
    auto code_of = [&](NodeId u) { return enc.code[u]; };
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_FALSE(forest_parent_ambiguous(g, v, code_of)) << v;
      EXPECT_EQ(decode_forest_parent(g, v, code_of), tree.parent[v]) << v;
      auto kids = decode_forest_children(g, v, code_of);
      std::sort(kids.begin(), kids.end());
      std::vector<NodeId> expect;
      for (NodeId u = 0; u < g.n(); ++u) {
        if (tree.parent[u] == v) expect.push_back(u);
      }
      EXPECT_EQ(kids, expect) << v;
    }
  }
}

TEST(ForestEncoding, DecodesHamiltonianPath) {
  Rng rng(2);
  const auto inst = random_path_outerplanar(200, 1.0, rng);
  std::vector<NodeId> parent(inst.graph.n(), -1);
  for (int i = 1; i < inst.graph.n(); ++i) parent[inst.order[i]] = inst.order[i - 1];
  const ForestEncoding enc = encode_forest(inst.graph, parent);
  auto code_of = [&](NodeId u) { return enc.code[u]; };
  for (NodeId v = 0; v < inst.graph.n(); ++v) {
    EXPECT_EQ(decode_forest_parent(inst.graph, v, code_of), parent[v]);
    EXPECT_LE(decode_forest_children(inst.graph, v, code_of).size(), 1u);
  }
}

TEST(ForestEncoding, MultiRootForest) {
  Rng rng(3);
  const auto inst = random_planar(60, 0.5, rng);
  const Graph& g = inst.graph;
  // Forest with two roots: split the BFS tree at some node.
  RootedForest tree = bfs_tree(g, 0);
  NodeId split = -1;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (tree.depth[v] == 2) {
      split = v;
      break;
    }
  }
  ASSERT_NE(split, -1);
  tree.parent[split] = -1;
  const ForestEncoding enc = encode_forest(g, tree.parent);
  auto code_of = [&](NodeId u) { return enc.code[u]; };
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(decode_forest_parent(g, v, code_of), tree.parent[v]);
  }
}

// --------------------------------------------------- spanning tree (L2.5)

TEST(SpanningTree, AcceptsHonestTree) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = random_planar(150, 0.3, rng);
    const RootedForest tree = bfs_tree(inst.graph, 0);
    const StageResult res = verify_spanning_tree(inst.graph, tree.parent, 16, rng);
    EXPECT_TRUE(res.all_accept());
    EXPECT_EQ(res.rounds, 3);
  }
}

TEST(SpanningTree, RejectsTwoComponents) {
  Rng rng(5);
  int rejects = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const auto inst = random_planar(100, 0.3, rng);
    RootedForest tree = bfs_tree(inst.graph, 0);
    // Detach a subtree: a second root.
    for (NodeId v = 0; v < inst.graph.n(); ++v) {
      if (tree.depth[v] == 1) {
        tree.parent[v] = -1;
        break;
      }
    }
    if (!verify_spanning_tree(inst.graph, tree.parent, 16, rng).all_accept()) ++rejects;
  }
  EXPECT_EQ(rejects, trials);  // nonce collision odds 2^-16
}

TEST(SpanningTree, RejectsCycleWithHighProbability) {
  Rng rng(6);
  int rejects = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const Graph g = cycle_graph(12);
    // Parent pointers around the cycle: a rootless loop.
    std::vector<NodeId> parent(12);
    for (int v = 0; v < 12; ++v) parent[v] = (v + 1) % 12;
    if (!verify_spanning_tree(g, parent, 1, rng).all_accept()) ++rejects;
  }
  // One repetition: rejection probability 1/2 per cycle.
  EXPECT_GT(rejects, 60);
  EXPECT_LT(rejects, 140);
}

TEST(SpanningTree, CycleRejectionAmplifies) {
  Rng rng(7);
  int accepts = 0;
  for (int t = 0; t < 300; ++t) {
    const Graph g = cycle_graph(8);
    std::vector<NodeId> parent(8);
    for (int v = 0; v < 8; ++v) parent[v] = (v + 1) % 8;
    accepts += verify_spanning_tree(g, parent, 12, rng).all_accept();
  }
  EXPECT_EQ(accepts, 0);  // 2^-12 per trial
}

TEST(SpanningTree, ProofSizeIsLinearInRepetitions) {
  Rng rng(8);
  const auto inst = random_planar(64, 0.3, rng);
  const RootedForest tree = bfs_tree(inst.graph, 0);
  const auto r1 = verify_spanning_tree(inst.graph, tree.parent, 4, rng);
  const auto r2 = verify_spanning_tree(inst.graph, tree.parent, 32, rng);
  EXPECT_EQ(finalize(r1).proof_size_bits, 8);
  EXPECT_EQ(finalize(r2).proof_size_bits, 64);
}

TEST(SpanningTree, CoinAccountingPerRole) {
  Rng rng(4);
  const Graph g = path_graph(5);
  const std::vector<NodeId> parent{-1, 0, 1, 2, 3};
  const Outcome o = finalize(verify_spanning_tree(g, parent, 8, rng));
  EXPECT_TRUE(o.accepted);
  EXPECT_EQ(o.max_coin_bits, 2 * 8);  // the root draws rho + nonce
}

TEST(SpanningTree, DecisionUsesOnlyLocalViews) {
  // The decision function throws if the protocol code ever reads beyond the
  // node's locality — exercised here by feeding it a wrong "child".
  using L = StLayout;
  Rng rng(5);
  const Graph g = path_graph(4);  // 0-1-2-3
  LabelStore labels(g, 3);
  CoinStore coins(g, 3);
  for (NodeId v = 0; v < 4; ++v) {
    Label s;
    s.put_flag(v == 0);
    labels.assign_node(L::kRoundStructure, v, std::move(s));
    coins.draw(L::kRoundCoins, v, v == 0 ? 2 : 1, 256, 8, rng);
    Label r;
    r.put(0, 8).put(0, 8);
    labels.assign_node(L::kRoundResponse, v, std::move(r));
  }
  const NodeView view(labels, coins, 0);
  // Node 3 is not a neighbor of node 0: the view must refuse.
  EXPECT_THROW(spanning_tree_node_verdict(view, -1, {3}), InvariantError);
}

// ------------------------------------------------ multiset equality (L2.6)

MultisetEqualityInput equal_inputs(const Graph& g, Rng& rng, std::uint64_t k,
                                   int universe_exp) {
  MultisetEqualityInput in;
  in.s1.resize(g.n());
  in.s2.resize(g.n());
  in.size_bound = k;
  in.universe_exponent = universe_exp;
  std::uint64_t universe = 1;
  for (int i = 0; i < universe_exp; ++i) universe *= k;
  // Same global multiset, scattered differently: generate k elements, assign
  // each to a random node for S1 and another for S2.
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t val = rng.uniform(universe);
    in.s1[rng.uniform(g.n())].push_back(val);
    in.s2[rng.uniform(g.n())].push_back(val);
  }
  return in;
}

TEST(MultisetEquality, AcceptsEqualMultisets) {
  Rng rng(9);
  const auto inst = random_planar(80, 0.4, rng);
  const RootedForest tree = bfs_tree(inst.graph, 0);
  for (int t = 0; t < 20; ++t) {
    const auto in = equal_inputs(inst.graph, rng, 64, 2);
    const auto res = verify_multiset_equality(inst.graph, tree, in, rng);
    EXPECT_TRUE(res.all_accept());
    EXPECT_EQ(res.rounds, 2);
  }
}

TEST(MultisetEquality, RejectsUnequalMultisets) {
  Rng rng(10);
  const auto inst = random_planar(80, 0.4, rng);
  const RootedForest tree = bfs_tree(inst.graph, 0);
  int rejects = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    auto in = equal_inputs(inst.graph, rng, 64, 2);
    in.s1[rng.uniform(inst.graph.n())].push_back(1 + rng.uniform(63));  // extra element
    rejects += !verify_multiset_equality(inst.graph, tree, in, rng).all_accept();
  }
  EXPECT_EQ(rejects, trials);  // soundness error ~ 1/k^2
}

/// A prover lying about one subtree product: adds 17 (mod p) to one node's
/// A1 label in transit, through the seam every adversary uses.
class TamperOneA1 final : public FaultInjector {
 public:
  TamperOneA1(NodeId victim, const Fp& f)
      : FaultInjector(FaultPlan{0, 0.0, 0}), victim_(victim), f_(f) {}

  using FaultInjector::corrupt;
  void corrupt(LabelStore& labels) override {
    Label& l = labels.mutable_node_label(MeLayout::kRoundResponse, victim_);
    l.forge_value(MeLayout::kFieldA1, f_.add(l.get(MeLayout::kFieldA1), 17));
  }

 private:
  NodeId victim_;
  Fp f_;
};

TEST(MultisetEquality, CheatingAggregatesAreCaughtLocally) {
  Rng rng(11);
  const auto inst = random_planar(60, 0.4, rng);
  const RootedForest tree = bfs_tree(inst.graph, 0);
  auto in = equal_inputs(inst.graph, rng, 32, 2);
  TamperOneA1 cheat(5, multiset_equality_field(32, 2));
  const auto res = verify_multiset_equality(inst.graph, tree, in, rng, &cheat);
  // Tampering at node 5 breaks either its own or its parent's recurrence.
  EXPECT_FALSE(res.all_accept());
}

TEST(MultisetEquality, CorruptedTranscriptRejectsWithoutThrowing) {
  // The never-throw contract at Lemma 2.6's fault seam: every fault model at
  // rate 1 fires and yields a rejecting stage, never an exception.
  Rng rng(13);
  const auto inst = random_planar(60, 0.4, rng);
  const RootedForest tree = bfs_tree(inst.graph, 0);
  const auto in = equal_inputs(inst.graph, rng, 32, 2);
  for (int m = 0; m < kNumFaultModels; ++m) {
    const FaultModel model = static_cast<FaultModel>(m);
    FaultInjector inj({static_cast<std::uint64_t>(m) + 1, 1.0, fault_bit(model)});
    StageResult res;
    ASSERT_NO_THROW(res = verify_multiset_equality(inst.graph, tree, in, rng, &inj))
        << fault_model_name(model);
    EXPECT_GT(inj.total_faults(), 0) << fault_model_name(model);
    EXPECT_FALSE(res.all_accept()) << fault_model_name(model);
  }
}

TEST(MultisetEquality, ProofSizeTracksFieldWidth) {
  Rng rng(12);
  const auto inst = random_planar(40, 0.4, rng);
  const RootedForest tree = bfs_tree(inst.graph, 0);
  const auto in = equal_inputs(inst.graph, rng, 16, 2);
  const auto res = verify_multiset_equality(inst.graph, tree, in, rng);
  const Fp f = multiset_equality_field(16, 2);
  EXPECT_EQ(finalize(res).proof_size_bits, 3 * f.element_bits());
}

TEST(MultisetEquality, FieldSelection) {
  EXPECT_GT(multiset_equality_field(10, 2).modulus(), 1000u);
  EXPECT_GT(multiset_equality_field(100, 1).modulus(), 10000u);
}

// ----------------------------------------------------------- composition

TEST(Stage, ComposeParallelSumsBitsAndMaxesRounds) {
  StageResult a = empty_stage(3);
  a.node_bits = {1, 2, 3};
  a.rounds = 2;
  StageResult b = empty_stage(3);
  b.node_bits = {10, 10, 10};
  b.rounds = 5;
  b.reject(1);
  const StageResult c = compose_parallel(a, b);
  EXPECT_EQ(c.node_bits[2], 13);
  EXPECT_EQ(c.rounds, 5);
  EXPECT_FALSE(c.all_accept());
  const Outcome o = finalize(c);
  EXPECT_EQ(o.proof_size_bits, 13);
  EXPECT_FALSE(o.accepted);
  EXPECT_EQ(o.total_label_bits, 36);
}

}  // namespace
}  // namespace lrdip
