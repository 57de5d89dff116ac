// Regression coverage for the arena-backed label substrate and the parallel
// verification engine.
//
// The flat round-major stores, the inline Label representation, and the
// parallel per-node decision loops must all be invisible to the protocols:
// on fixed seeds every Outcome — acceptance AND bit accounting — must equal
// the values the original per-(round, node) heap layout produced (captured
// before the layout change and hardcoded here), and must not depend on the
// executor's thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dip/arena.hpp"
#include "dip/label.hpp"
#include "dip/parallel.hpp"
#include "dip/store.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/outerplanarity.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/spanning_tree.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

// ------------------------------------------------------------ Label inline

TEST(Label, PutStoresFieldsInline) {
  Label l;
  l.reserve(3);
  l.put(5, 3).put_flag(true).put(1023, 10);
  EXPECT_EQ(l.num_fields(), 3u);
  EXPECT_EQ(l.get(0), 5u);
  EXPECT_TRUE(l.get_flag(1));
  EXPECT_EQ(l.get(2), 1023u);
  EXPECT_EQ(l.bit_size(), 3 + 1 + 10);
  EXPECT_EQ(l.field_bits(2), 10);
}

TEST(Label, PutRejectsOutOfRangeWidths) {
  Label l;
  EXPECT_THROW(l.put(0, 0), InvariantError);
  EXPECT_THROW(l.put(0, 65), InvariantError);
  EXPECT_THROW(l.put(0, -3), InvariantError);
}

TEST(Label, PutRejectsValuesWiderThanDeclared) {
  Label l;
  EXPECT_THROW(l.put(4, 2), InvariantError);   // 4 needs 3 bits
  EXPECT_THROW(l.put(2, 1), InvariantError);
  l.put(3, 2);                                 // fits exactly
  l.put(~std::uint64_t{0}, 64);                // 64-bit values always fit
  EXPECT_EQ(l.get(1), ~std::uint64_t{0});
}

TEST(Label, InlineCapIsEnforced) {
  Label l;
  for (std::size_t i = 0; i < Label::kMaxFields; ++i) l.put(1, 1);
  EXPECT_THROW(l.put(1, 1), InvariantError);
  Label fresh;
  EXPECT_THROW(fresh.reserve(Label::kMaxFields + 1), InvariantError);
  fresh.reserve(Label::kMaxFields);  // at the cap is fine
}

// ------------------------------------------------------------ LabelArena

TEST(LabelArena, SpansAreStableAcrossGrowth) {
  LabelArena arena;
  auto first = arena.allocate(10);
  Label* p = first.data();
  first[0].put(7, 3);
  // Force many more slabs; the first span must not move.
  for (int i = 0; i < 100; ++i) arena.allocate(1000);
  EXPECT_EQ(first.data(), p);
  EXPECT_EQ(first[0].get(0), 7u);
  EXPECT_EQ(arena.size(), 10u + 100u * 1000u);
}

// ------------------------------------------------------------ stores

TEST(LabelStore, FlatSlabsRejectDoubleAssignment) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LabelStore store(g, /*rounds=*/2);
  Label l;
  l.put(3, 2);
  store.assign_node(0, 1, l);
  EXPECT_THROW(store.assign_node(0, 1, l), InvariantError);
  store.assign_node(1, 1, l);  // same node, later round: fine
  store.assign_edge(0, 0, l, 0);
  EXPECT_THROW(store.assign_edge(0, 0, l, 1), InvariantError);
  EXPECT_EQ(store.node_label(0, 1).get(0), 3u);
  EXPECT_EQ(store.proof_size_bits(), 4);      // node 1: two 2-bit labels
  EXPECT_EQ(store.total_label_bits(), 6);
}

TEST(CoinStore, InterleavedDrawsKeepSlotsContiguous) {
  Graph g(2);
  g.add_edge(0, 1);
  CoinStore coins(g, /*rounds=*/1);
  Rng rng(99);
  coins.draw(0, 0, 2, 1000, 10, rng);
  coins.draw(0, 1, 1, 1000, 10, rng);  // forces node 0's slot off the tail
  const auto more = coins.draw(0, 0, 2, 1000, 10, rng);
  ASSERT_EQ(more.size(), 4u);          // relocated + extended, one span
  const auto other = coins.coins(0, 1);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(coins.max_coin_bits(), 40);
}

// ------------------------------------------------ fixed-seed bit accounting

// Captured from the seed implementation (per-instance heap cells, serial
// decision loops) on these exact seeds. The substrate swap must not move a
// single bit.
struct ExpectedOutcome {
  bool accepted;
  int rounds;
  int proof_size_bits;
  std::int64_t total_label_bits;
  int max_coin_bits;
};

void ExpectOutcome(const Outcome& o, const ExpectedOutcome& e) {
  EXPECT_EQ(o.accepted, e.accepted);
  EXPECT_EQ(o.rounds, e.rounds);
  EXPECT_EQ(o.proof_size_bits, e.proof_size_bits);
  EXPECT_EQ(o.total_label_bits, e.total_label_bits);
  EXPECT_EQ(o.max_coin_bits, e.max_coin_bits);
}

Outcome run_lr_fixed() {
  Rng gen(12345);
  const LrInstance gi = random_lr_yes(2048, 1.0, gen);
  LrSortingInstance inst;
  inst.graph = &gi.graph;
  inst.order = gi.order;
  inst.tail = lr_claimed_tails(gi);
  Rng rng(777);
  return run_lr_sorting(inst, {3}, rng);
}

Outcome run_outerplanarity_fixed() {
  Rng gen(2222);
  const auto gi = random_outerplanar_with_cert(600, 6, gen);
  const OuterplanarityInstance inst{&gi.graph, gi.block_cycles};
  Rng rng(888);
  return run_outerplanarity(inst, {3}, rng);
}

Outcome run_planar_embedding_fixed() {
  Rng gen(3333);
  const auto gi = random_planar(400, 0.4, gen);
  const PlanarEmbeddingInstance inst{&gi.graph, &gi.rotation};
  Rng rng(999);
  return run_planar_embedding(inst, {3}, rng);
}

Outcome run_spanning_tree_fixed() {
  Rng gen(4444);
  const Graph g = random_tree(500, gen);
  const RootedForest t = bfs_tree(g, 0);
  Rng rng(1111);
  return finalize(verify_spanning_tree(g, t.parent, 16, rng));
}

TEST(StoreLayoutRegression, LrSortingBitAccountingMatchesSeed) {
  ExpectOutcome(run_lr_fixed(), {true, 5, 217, 388016, 47});
}

TEST(StoreLayoutRegression, OuterplanarityBitAccountingMatchesSeed) {
  ExpectOutcome(run_outerplanarity_fixed(), {true, 5, 724, 215776, 144});
}

TEST(StoreLayoutRegression, PlanarEmbeddingBitAccountingMatchesSeed) {
  ExpectOutcome(run_planar_embedding_fixed(), {true, 5, 1932, 536836, 152});
}

// The root flag is not charged here: the protocol's callers charge it inside
// their forest code.
TEST(StoreLayoutRegression, SpanningTreeBitAccountingMatchesSeed) {
  ExpectOutcome(run_spanning_tree_fixed(), {true, 3, 32, 16000, 32});
}

// ------------------------------------------------ executor determinism

// The determinism contract of dip/parallel.hpp: per-node decision loops write
// disjoint slots and draw no randomness, so the full Outcome must be
// byte-identical at every thread count.
class ThreadCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountSweep, OutcomesIndependentOfThreadCount) {
  set_parallel_threads(1);
  const Outcome base_lr = run_lr_fixed();
  const Outcome base_op = run_outerplanarity_fixed();
  const Outcome base_pe = run_planar_embedding_fixed();
  const Outcome base_st = run_spanning_tree_fixed();

  set_parallel_threads(GetParam());
  EXPECT_EQ(parallel_threads(), GetParam());
  ExpectOutcome(run_lr_fixed(), {base_lr.accepted, base_lr.rounds, base_lr.proof_size_bits,
                                 base_lr.total_label_bits, base_lr.max_coin_bits});
  ExpectOutcome(run_outerplanarity_fixed(),
                {base_op.accepted, base_op.rounds, base_op.proof_size_bits,
                 base_op.total_label_bits, base_op.max_coin_bits});
  ExpectOutcome(run_planar_embedding_fixed(),
                {base_pe.accepted, base_pe.rounds, base_pe.proof_size_bits,
                 base_pe.total_label_bits, base_pe.max_coin_bits});
  ExpectOutcome(run_spanning_tree_fixed(),
                {base_st.accepted, base_st.rounds, base_st.proof_size_bits,
                 base_st.total_label_bits, base_st.max_coin_bits});
  set_parallel_threads(0);
}

INSTANTIATE_TEST_SUITE_P(Executor, ThreadCountSweep, ::testing::Values(1, 2, 8));

TEST(ParallelFor, PropagatesTheLowestChunkException) {
  set_parallel_threads(8);
  std::vector<int> out(10000, 0);
  try {
    parallel_for(10000, [&](std::int64_t i) {
      if (i >= 600) throw std::runtime_error("chunk " + std::to_string(i / 512));
      out[i] = 1;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");  // lowest failing chunk wins
  }
  set_parallel_threads(0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  set_parallel_threads(8);
  std::vector<int> hits(100000, 0);
  parallel_for(static_cast<std::int64_t>(hits.size()),
               [&](std::int64_t i) { hits[i] += 1; });
  set_parallel_threads(0);
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1) << i;
}

}  // namespace
}  // namespace lrdip
