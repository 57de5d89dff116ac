#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

#include "adversary/prover.hpp"
#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/outerplanar.hpp"
#include "protocols/outerplanarity.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

TEST(OuterplanarityProtocol, CompletenessBiconnected) {
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const Graph g = random_biconnected_outerplanar(60 + t * 20, 0.3, rng);
    std::vector<NodeId> cycle(g.n());
    for (int i = 0; i < g.n(); ++i) cycle[i] = i;  // generator polygon order
    const OuterplanarityInstance inst{&g, std::vector<std::vector<NodeId>>{cycle}};
    const Outcome o = run_outerplanarity(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(OuterplanarityProtocol, CompletenessGlued) {
  Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    const auto gi = random_outerplanar_with_cert(120, 4, rng);
    const OuterplanarityInstance inst{&gi.graph, gi.block_cycles};
    EXPECT_TRUE(run_outerplanarity(inst, {3}, rng).accepted) << t;
  }
}

TEST(OuterplanarityProtocol, CertificatesMatchBlocksByNodeSet) {
  // A multi-block registry instance (16 blocks). Each block takes the first
  // certificate, in certificate order, whose node set equals its own.
  using Cycles = std::vector<std::vector<NodeId>>;
  const BoundInstance yes = fixtures::yes_instance(Task::outerplanar, 1 << 10, 0x901de2ULL);
  const OuterplanarityInstance& base = *std::get<const OuterplanarityInstance*>(yes.view().ref);
  ASSERT_TRUE(base.block_cycles.has_value());
  const Cycles& certs = *base.block_cycles;
  ASSERT_GT(certs.size(), 1u);
  const auto digest = [&](Cycles block_cycles) {
    const OuterplanarityInstance inst{base.graph, std::move(block_cycles)};
    adversary::TranscriptRecorder recorder;
    Rng rng(0xc0135eedULL);
    (void)run_protocol(make_instance(inst), {3}, rng, &recorder);
    return recorder.transcript().digest();
  };
  const auto with_first = [&](const std::vector<NodeId>& cycle) {
    Cycles out{cycle};
    out.insert(out.end(), certs.begin(), certs.end());
    return out;
  };
  const std::uint64_t reference = digest(certs);
  Rng rng(0xc0135eedULL);
  ASSERT_TRUE(run_protocol(yes.view(), {3}, rng).accepted);

  EXPECT_EQ(digest({certs.rbegin(), certs.rend()}), reference);

  // Decoys share block 0's smallest node but not its node set: one swaps the
  // block's largest node for a larger node outside it, one adds that node.
  // Neither is taken, whether or not block 0's own certificate is present.
  const NodeId largest = *std::max_element(certs[0].begin(), certs[0].end());
  const NodeId outside = base.graph->n() - 1;
  ASSERT_GT(outside, largest);
  std::vector<NodeId> swapped = certs[0];
  std::replace(swapped.begin(), swapped.end(), largest, outside);
  std::vector<NodeId> grown = certs[0];
  grown.push_back(outside);
  const Cycles without(certs.begin() + 1, certs.end());
  const std::uint64_t fallback = digest(without);
  for (const std::vector<NodeId>& decoy : {swapped, grown}) {
    EXPECT_EQ(digest(with_first(decoy)), reference);
    Cycles in_place = without;
    in_place.insert(in_place.begin(), decoy);
    EXPECT_EQ(digest(in_place), fallback);
  }

  // Same node set twice: the first wins. The reversed cycle keeps block 0's
  // node set and changes what goes on the wire.
  const std::vector<NodeId> flipped(certs[0].rbegin(), certs[0].rend());
  Cycles flipped_only = certs;
  flipped_only[0] = flipped;
  const std::uint64_t flipped_digest = digest(flipped_only);
  EXPECT_NE(flipped_digest, reference);
  EXPECT_EQ(digest(with_first(flipped)), flipped_digest);
  Cycles flipped_last = certs;
  flipped_last.push_back(flipped);
  EXPECT_EQ(digest(flipped_last), reference);

  // A cycle through two blocks' nodes matches neither and is ignored.
  std::vector<NodeId> merged = certs[0];
  merged.insert(merged.end(), certs[1].begin(), certs[1].end());
  EXPECT_EQ(digest(with_first(merged)), reference);
}

TEST(OuterplanarityProtocol, CompletenessWithoutCertificateSmall) {
  // Falls back to the centralized embedder per block.
  Rng rng(3);
  const auto gi = random_outerplanar_with_cert(40, 3, rng);
  const OuterplanarityInstance inst{&gi.graph, std::nullopt};
  EXPECT_TRUE(run_outerplanarity(inst, {3}, rng).accepted);
}

TEST(OuterplanarityProtocol, CompletenessTreesAndBridges) {
  // A path graph: every block is a bridge.
  Rng rng(4);
  const Graph g = path_graph(30);
  const OuterplanarityInstance inst{&g, std::nullopt};
  EXPECT_TRUE(run_outerplanarity(inst, {3}, rng).accepted);
}

TEST(OuterplanarityProtocol, RejectsBadBlock) {
  Rng rng(5);
  int rejects = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto gi = outerplanar_no_instance(100, 4, rng);
    ASSERT_FALSE(is_outerplanar(gi.graph));
    const OuterplanarityInstance inst{&gi.graph, gi.block_cycles};
    rejects += !run_outerplanarity(inst, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(OuterplanarityProtocol, RejectsWheel) {
  Rng rng(6);
  Graph wheel = cycle_graph(10);
  const NodeId hub = wheel.add_node();
  for (NodeId v = 0; v < 10; ++v) wheel.add_edge(hub, v);
  const OuterplanarityInstance inst{&wheel, std::nullopt};
  for (int t = 0; t < 10; ++t) {
    EXPECT_FALSE(run_outerplanarity(inst, {3}, rng).accepted);
  }
}

TEST(OuterplanarityProtocol, ProofSizeDoublyLogarithmic) {
  Rng rng(7);
  const auto g1 = random_outerplanar_with_cert(1 << 10, 4, rng);
  const auto g2 = random_outerplanar_with_cert(1 << 16, 4, rng);
  const Outcome o1 = run_outerplanarity({&g1.graph, g1.block_cycles}, {3}, rng);
  const Outcome o2 = run_outerplanarity({&g2.graph, g2.block_cycles}, {3}, rng);
  ASSERT_TRUE(o1.accepted);
  ASSERT_TRUE(o2.accepted);
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 3 / 2);
}

}  // namespace
}  // namespace lrdip
