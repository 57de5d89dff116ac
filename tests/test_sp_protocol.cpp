#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

#include "adversary/prover.hpp"
#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/series_parallel.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

TEST(SeriesParallelProtocol, CompletenessWithCertificate) {
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const SpInstance gi = random_series_parallel(60 + 20 * t, rng);
    const SeriesParallelInstance inst{&gi.graph, gi.ears};
    const Outcome o = run_series_parallel(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(SeriesParallelProtocol, CompletenessWithoutCertificate) {
  Rng rng(2);
  const SpInstance gi = random_series_parallel(80, rng);
  const SeriesParallelInstance inst{&gi.graph, std::nullopt};
  EXPECT_TRUE(run_series_parallel(inst, {3}, rng).accepted);
}

TEST(SeriesParallelProtocol, CompletenessBasicShapes) {
  Rng rng(3);
  const Graph cyc = cycle_graph(24);
  EXPECT_TRUE(run_series_parallel({&cyc, std::nullopt}, {3}, rng).accepted);
  const Graph pth = path_graph(24);
  EXPECT_TRUE(run_series_parallel({&pth, std::nullopt}, {3}, rng).accepted);
}

TEST(SeriesParallelProtocol, RejectsK4Chord) {
  Rng rng(4);
  int rejects = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    const Graph g = series_parallel_no_instance(60, rng);
    ASSERT_FALSE(is_series_parallel(g));
    const SeriesParallelInstance inst{&g, std::nullopt};
    rejects += !run_series_parallel(inst, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(SeriesParallelProtocol, RejectsK4Subdivision) {
  Rng rng(5);
  const Graph g = plant_subdivision(Graph(0), complete_graph(4), 4, rng);
  const SeriesParallelInstance inst{&g, std::nullopt};
  for (int t = 0; t < 5; ++t) {
    EXPECT_FALSE(run_series_parallel(inst, {3}, rng).accepted);
  }
}

TEST(SeriesParallelProtocol, ProofSizeDoublyLogarithmic) {
  Rng rng(6);
  const SpInstance g1 = random_series_parallel(1 << 10, rng);
  const SpInstance g2 = random_series_parallel(1 << 16, rng);
  const Outcome o1 = run_series_parallel({&g1.graph, g1.ears}, {3}, rng);
  const Outcome o2 = run_series_parallel({&g2.graph, g2.ears}, {3}, rng);
  ASSERT_TRUE(o1.accepted);
  ASSERT_TRUE(o2.accepted);
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 3 / 2);
}

TEST(Treewidth2Protocol, Completeness) {
  Rng rng(7);
  for (int t = 0; t < 8; ++t) {
    const Tw2CertInstance gi = random_treewidth2_with_cert(150, 3, rng);
    const Treewidth2Instance inst{&gi.graph, gi.block_ears};
    const Outcome o = run_treewidth2(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(Treewidth2Protocol, CompletenessWithoutCertificate) {
  Rng rng(8);
  const Tw2CertInstance gi = random_treewidth2_with_cert(90, 3, rng);
  const Treewidth2Instance inst{&gi.graph, std::nullopt};
  EXPECT_TRUE(run_treewidth2(inst, {3}, rng).accepted);
}

TEST(Treewidth2Protocol, CertificatesMatchBlocksByNodeSet) {
  // A multi-block registry instance (16 blocks). Each block takes the first
  // certificate, in certificate order, whose node set equals its own.
  const BoundInstance yes = fixtures::yes_instance(Task::treewidth2, 1 << 10, 0x901de2ULL);
  const Treewidth2Instance& base = *std::get<const Treewidth2Instance*>(yes.view().ref);
  ASSERT_TRUE(base.block_ears.has_value());
  const std::vector<EarDecomposition>& certs = *base.block_ears;
  ASSERT_GT(certs.size(), 1u);
  const auto digest = [&](std::vector<EarDecomposition> block_ears) {
    const Treewidth2Instance inst{base.graph, std::move(block_ears)};
    adversary::TranscriptRecorder recorder;
    Rng rng(0xc0135eedULL);
    (void)run_protocol(make_instance(inst), {3}, rng, &recorder);
    return recorder.transcript().digest();
  };
  const auto with_first = [&](const EarDecomposition& cert) {
    std::vector<EarDecomposition> out{cert};
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
  NodeId largest = -1;
  for (const Ear& e : certs[0]) {
    for (NodeId v : e.path) largest = std::max(largest, v);
  }
  const NodeId outside = base.graph->n() - 1;
  ASSERT_GT(outside, largest);
  EarDecomposition swapped = certs[0];
  for (Ear& e : swapped) std::replace(e.path.begin(), e.path.end(), largest, outside);
  EarDecomposition grown = certs[0];
  grown.push_back({{largest, outside}, 0});
  const std::vector<EarDecomposition> without(certs.begin() + 1, certs.end());
  const std::uint64_t fallback = digest(without);
  for (const EarDecomposition& decoy : {swapped, grown}) {
    EXPECT_EQ(digest(with_first(decoy)), reference);
    std::vector<EarDecomposition> in_place = without;
    in_place.insert(in_place.begin(), decoy);
    EXPECT_EQ(digest(in_place), fallback);
  }

  // Same node set twice: the first wins. Reversing every ear keeps block 0's
  // node set and changes what goes on the wire.
  EarDecomposition flipped = certs[0];
  for (Ear& e : flipped) std::reverse(e.path.begin(), e.path.end());
  std::vector<EarDecomposition> flipped_only = certs;
  flipped_only[0] = flipped;
  const std::uint64_t flipped_digest = digest(flipped_only);
  EXPECT_NE(flipped_digest, reference);
  EXPECT_EQ(digest(with_first(flipped)), flipped_digest);
  std::vector<EarDecomposition> flipped_last = certs;
  flipped_last.push_back(flipped);
  EXPECT_EQ(digest(flipped_last), reference);

  // A certificate spanning two blocks matches neither and is ignored.
  EarDecomposition merged = certs[0];
  merged.insert(merged.end(), certs[1].begin(), certs[1].end());
  EXPECT_EQ(digest(with_first(merged)), reference);
}

TEST(Treewidth2Protocol, RejectsPlantedK4) {
  Rng rng(9);
  int rejects = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const Graph g = treewidth2_no_instance(120, 3, rng);
    ASSERT_FALSE(is_treewidth_at_most_2(g));
    const Treewidth2Instance inst{&g, std::nullopt};
    rejects += !run_treewidth2(inst, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(Treewidth2Protocol, BaselinesAgree) {
  Rng rng(10);
  const Tw2CertInstance yes = random_treewidth2_with_cert(90, 3, rng);
  EXPECT_TRUE(run_treewidth2_baseline_pls({&yes.graph, {}}).accepted);
  const Graph no = treewidth2_no_instance(90, 3, rng);
  EXPECT_FALSE(run_treewidth2_baseline_pls({&no, {}}).accepted);
  const SpInstance sp = random_series_parallel(60, rng);
  EXPECT_TRUE(run_series_parallel_baseline_pls({&sp.graph, sp.ears}).accepted);
}

}  // namespace
}  // namespace lrdip
