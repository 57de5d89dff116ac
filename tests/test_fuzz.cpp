// Randomized cross-family consistency sweep ("fuzz light") over the protocol
// registry: for every task — including planarity and treewidth-2, which the
// old hand-rolled 6-way switch never exercised — draw random sizes, run the
// honest yes-instance and the near-yes no-instance, and require the verdicts
// to match membership. Bounded to a few seconds; the seed space is
// parameterized so failures reproduce exactly.
// A second sweep certifies every verdict of the centralized planarity engine
// on random graphs across a density ramp: a planar verdict must come with a
// genus-0 rotation system, a non-planar one with a validating Kuratowski
// witness, and the verdict-only path must agree. The sanitizer CI legs run it
// with the rest of the ctest suite.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "graph/boyer_myrvold.hpp"
#include "graph/kuratowski.hpp"
#include "graph/planarity.hpp"
#include "graph/rotation.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, HonestVerdictsMatchMembershipAcrossRegistry) {
  Rng rng(0xf00d + GetParam());
  for (const ProtocolSpec& spec : protocol_registry()) {
    SCOPED_TRACE(spec.name);
    for (int iter = 0; iter < 3; ++iter) {
      // Floor keeps every family's generator constraints satisfied (arcs to
      // flip, four K4 positions, >= 6 nodes per glued block).
      const int n = 48 + static_cast<int>(rng.uniform(120));
      const BoundInstance yes = fixtures::yes_instance(spec.task, n, rng.next_u64());
      EXPECT_TRUE(fixtures::run_task(yes, rng.next_u64()).accepted)
          << "yes-instance rejected at n=" << n << " iter=" << iter;

      const BoundInstance no = fixtures::near_no_instance(spec.task, n, rng.next_u64());
      EXPECT_FALSE(fixtures::run_task(no, rng.next_u64()).accepted)
          << "near-no instance accepted at n=" << n << " iter=" << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 6));

class PlanarityCertificates : public ::testing::TestWithParam<int> {};

TEST_P(PlanarityCertificates, EveryVerdictIsCertifiedAcrossDensities) {
  Rng rng(0xd1ff + GetParam());
  for (int density = 2; density <= 12; ++density) {  // avg degree = density / 2
    for (int rep = 0; rep < 12; ++rep) {
      const int n = 6 + static_cast<int>(rng.uniform(40));
      const int target_m = n * density / 4;
      Graph g(n);
      std::set<std::pair<NodeId, NodeId>> seen;
      for (int t = 0; t < 3 * target_m && g.m() < target_m; ++t) {
        auto a = static_cast<NodeId>(rng.uniform(n));
        auto b = static_cast<NodeId>(rng.uniform(n));
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        if (seen.emplace(a, b).second) g.add_edge(a, b);
      }
      SCOPED_TRACE(::testing::Message() << "density=" << density << " rep=" << rep
                                        << " n=" << n << " m=" << g.m());
      const PlanarityResult res = boyer_myrvold(g, BmOutput::kEmbeddingOrWitness);
      EXPECT_EQ(is_planar(g), res.planar) << "verdict-only path disagrees";
      if (res.planar) {
        ASSERT_TRUE(res.embedding.has_value());
        EXPECT_TRUE(is_planar_embedding(g, *res.embedding)) << "rotation is not genus 0";
      } else {
        EXPECT_TRUE(is_kuratowski_witness(g, res.witness));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanarityCertificates, ::testing::Range(0, 4));

}  // namespace
}  // namespace lrdip
