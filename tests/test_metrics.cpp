// Observability substrate (src/obs): the metered wire view must agree with
// hand-counted label/coin traffic, the disabled mode must record nothing,
// and the communication counters must be independent of the parallel
// engine's thread count (timing varies; bits do not).
#include <gtest/gtest.h>

#include <string>

#include "dip/parallel.hpp"
#include "dip/store.hpp"
#include "field/fp_simd.hpp"
#include "gen/generators.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "protocols/lr_sorting.hpp"
#include "support/cpu.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::instance().set_enabled(false);
    obs::MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    obs::MetricsRegistry::instance().set_enabled(false);
    obs::MetricsRegistry::instance().reset();
    set_parallel_threads(0);
    set_simd_level(std::nullopt);
  }
};

Graph path16() {
  Graph g(16);
  for (NodeId v = 0; v + 1 < 16; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST_F(MetricsTest, HandCountedPathInstance) {
  // 16-node path, traffic scripted by hand:
  //   round 0: every node gets one 5-bit field         -> 16 labels, 80 bits
  //   round 1: every edge gets 3 bits + a flag (4 bits), charged to the lower
  //            endpoint                                 -> 15 labels, 60 bits
  //   round 0 coins: 2 words x 6 bits per node          -> 32 words, 192 bits
  //   round 1 coins: one 9-bit word at node 3           ->  1 word,    9 bits
  const Graph g = path16();
  obs::MetricsRegistry::instance().set_enabled(true);
  {
    const obs::RunScope run("hand-counted", g.n(), g.m());
    LabelStore labels(g, /*rounds=*/2);
    CoinStore coins(g, /*rounds=*/2);
    Rng rng(7);
    for (NodeId v = 0; v < g.n(); ++v) {
      Label l;
      l.reserve(1);
      l.put(static_cast<std::uint64_t>(v), 5);
      labels.assign_node(0, v, std::move(l));
    }
    for (EdgeId e = 0; e < g.m(); ++e) {
      Label l;
      l.reserve(2);
      l.put(static_cast<std::uint64_t>(e) & 7, 3).put_flag(true);
      labels.assign_edge(1, e, std::move(l), g.endpoints(e).first);
    }
    for (NodeId v = 0; v < g.n(); ++v) coins.draw(0, v, /*count=*/2, /*bound=*/64, 6, rng);
    const std::uint64_t word = 300;
    coins.record(1, /*v=*/3, {&word, 1}, /*bits_each=*/9);
    // Stores flush their per-(round, node) maxima at destruction, inside the
    // RunScope — that ordering is part of the contract under test.
  }
  obs::MetricsRegistry::instance().set_enabled(false);

  const std::vector<obs::RunMetrics> runs = obs::MetricsRegistry::instance().take_completed();
  ASSERT_EQ(runs.size(), 1u);
  const obs::RunMetrics& r = runs[0];
  EXPECT_EQ(r.task, "hand-counted");
  EXPECT_EQ(r.n, 16);
  EXPECT_EQ(r.m, 15);
  ASSERT_EQ(r.rounds.size(), 2u);

  EXPECT_EQ(r.rounds[0].label_count, 16);
  EXPECT_EQ(r.rounds[0].field_count, 16);
  EXPECT_EQ(r.rounds[0].total_bits, 80);
  EXPECT_EQ(r.rounds[0].max_node_bits, 5);
  EXPECT_EQ(r.rounds[0].coin_words, 32);
  EXPECT_EQ(r.rounds[0].coin_bits, 192);
  EXPECT_EQ(r.rounds[0].max_node_coin_bits, 12);

  EXPECT_EQ(r.rounds[1].label_count, 15);
  EXPECT_EQ(r.rounds[1].field_count, 30);
  EXPECT_EQ(r.rounds[1].total_bits, 60);
  EXPECT_EQ(r.rounds[1].max_node_bits, 4);
  EXPECT_EQ(r.rounds[1].coin_words, 1);
  EXPECT_EQ(r.rounds[1].coin_bits, 9);
  EXPECT_EQ(r.rounds[1].max_node_coin_bits, 9);

  EXPECT_EQ(r.wire_total_bits(), 140);
  EXPECT_EQ(r.wire_max_round_node_bits(), 5);
  EXPECT_EQ(r.label_bits.count, 31);
  EXPECT_EQ(r.label_bits.sum_bits, 140);
  EXPECT_EQ(r.label_bits.max_bits, 5);
  // Both 4- and 5-bit labels land in bucket 2 ([4, 8)).
  EXPECT_EQ(r.label_bits.buckets[2], 31);
}

TEST_F(MetricsTest, DisabledModeRecordsNothing) {
  const Graph g = path16();
  {
    const obs::RunScope run("disabled", g.n(), g.m());
    LabelStore labels(g, 1);
    CoinStore coins(g, 1);
    Rng rng(11);
    for (NodeId v = 0; v < g.n(); ++v) {
      Label l;
      l.reserve(1);
      l.put(1, 8);
      labels.assign_node(0, v, std::move(l));
      coins.draw(0, v, 1, 16, 4, rng);
    }
  }
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_TRUE(obs::MetricsRegistry::instance().take_completed().empty());

  // A store born while metering was off stays unmetered for life: even if the
  // registry is switched on mid-stream, its writes contribute nothing.
  LabelStore labels(g, 1);
  obs::MetricsRegistry::instance().set_enabled(true);
  {
    const obs::RunScope run("late-enable", g.n(), g.m());
    Label l;
    l.reserve(1);
    l.put(1, 8);
    labels.assign_node(0, 0, std::move(l));
  }
  obs::MetricsRegistry::instance().set_enabled(false);
  const std::vector<obs::RunMetrics> runs = obs::MetricsRegistry::instance().take_completed();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].wire_total_bits(), 0);
  EXPECT_TRUE(runs[0].rounds.empty());
}

// One metered LR-sorting run; the caller owns seeding so repeated calls see
// identical protocol randomness.
obs::RunMetrics metered_lr_run(const LrSortingInstance& inst, int threads) {
  set_parallel_threads(threads);
  obs::MetricsRegistry::instance().reset();
  obs::MetricsRegistry::instance().set_enabled(true);
  Rng rng(4242);
  const Outcome o = run_lr_sorting(inst, {3}, rng, nullptr, nullptr);
  obs::MetricsRegistry::instance().set_enabled(false);
  std::vector<obs::RunMetrics> runs = obs::MetricsRegistry::instance().take_completed();
  EXPECT_TRUE(o.accepted);
  EXPECT_EQ(runs.size(), 1u);
  return runs.empty() ? obs::RunMetrics{} : std::move(runs[0]);
}

TEST_F(MetricsTest, CountsIndependentOfThreadCount) {
  Rng gen_rng(99);
  const LrInstance gi = random_lr_yes(512, 1.0, gen_rng);
  LrSortingInstance inst;
  inst.graph = &gi.graph;
  inst.order = gi.order;
  inst.tail = lr_claimed_tails(gi);

  const obs::RunMetrics base = metered_lr_run(inst, 1);
  ASSERT_FALSE(base.rounds.empty());
  EXPECT_GT(base.wire_total_bits(), 0);
  for (int threads : {2, 8}) {
    const obs::RunMetrics r = metered_lr_run(inst, threads);
    // Communication is a function of the protocol, never of the engine:
    // every counter must match the single-thread run bit for bit.
    ASSERT_EQ(r.rounds.size(), base.rounds.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.rounds.size(); ++i) {
      EXPECT_EQ(r.rounds[i].label_count, base.rounds[i].label_count);
      EXPECT_EQ(r.rounds[i].field_count, base.rounds[i].field_count);
      EXPECT_EQ(r.rounds[i].total_bits, base.rounds[i].total_bits);
      EXPECT_EQ(r.rounds[i].max_node_bits, base.rounds[i].max_node_bits);
      EXPECT_EQ(r.rounds[i].coin_words, base.rounds[i].coin_words);
      EXPECT_EQ(r.rounds[i].coin_bits, base.rounds[i].coin_bits);
      EXPECT_EQ(r.rounds[i].max_node_coin_bits, base.rounds[i].max_node_coin_bits);
    }
    EXPECT_EQ(r.label_bits.count, base.label_bits.count);
    EXPECT_EQ(r.label_bits.sum_bits, base.label_bits.sum_bits);
    EXPECT_EQ(r.label_bits.max_bits, base.label_bits.max_bits);
    EXPECT_EQ(r.label_bits.buckets, base.label_bits.buckets);
    EXPECT_EQ(r.proof_size_bits, base.proof_size_bits);
    EXPECT_EQ(r.total_label_bits, base.total_label_bits);
    EXPECT_EQ(r.max_coin_bits, base.max_coin_bits);
    EXPECT_EQ(r.accepted, base.accepted);
  }
}

TEST_F(MetricsTest, NestedRunScopesMergeIntoOne) {
  const Graph g = path16();
  obs::MetricsRegistry::instance().set_enabled(true);
  {
    const obs::RunScope outer("outer", g.n(), g.m());
    {
      // A nested run_* call's scope: no second record, traffic lands in outer.
      const obs::RunScope inner("inner", 4, 3);
      LabelStore labels(g, 1);
      Label l;
      l.reserve(1);
      l.put(5, 7);
      labels.assign_node(0, 2, std::move(l));
    }
  }
  obs::MetricsRegistry::instance().set_enabled(false);
  const std::vector<obs::RunMetrics> runs = obs::MetricsRegistry::instance().take_completed();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].task, "outer");
  EXPECT_EQ(runs[0].wire_total_bits(), 7);
}

TEST_F(MetricsTest, JsonAndCsvEmission) {
  const Graph g = path16();
  obs::MetricsRegistry::instance().set_enabled(true);
  {
    const obs::RunScope run("emit-check", g.n(), g.m());
    LabelStore labels(g, 1);
    Label l;
    l.reserve(1);
    l.put(3, 6);
    labels.assign_node(0, 1, std::move(l));
  }
  obs::MetricsRegistry::instance().set_enabled(false);
  const std::vector<obs::RunMetrics> runs = obs::MetricsRegistry::instance().take_completed();
  ASSERT_EQ(runs.size(), 1u);

  const std::string json = obs::runs_to_json(runs);
  EXPECT_NE(json.find("\"task\": \"emit-check\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_total_bits\": 6"), std::string::npos);

  const std::vector<std::string> rows = obs::run_to_csv_rows(runs[0]);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].substr(0, rows[0].find(',')), "emit-check");

  std::ostringstream bad;
  EXPECT_THROW(obs::emit_runs(bad, runs, "xml"), InvariantError);
}

TEST_F(MetricsTest, ArithStampMatchesTheActiveDispatchLevel) {
  Rng gen_rng(7);
  const LrInstance gi = random_lr_yes(128, 1.0, gen_rng);
  LrSortingInstance inst;
  inst.graph = &gi.graph;
  inst.order = gi.order;
  inst.tail = lr_claimed_tails(gi);
  // Forcing a level the host lacks clamps it, so compare against what the
  // kernels report as active rather than against the forced level.
  for (SimdLevel level : {SimdLevel::scalar, SimdLevel::avx2}) {
    set_simd_level(level);
    const obs::RunMetrics r = metered_lr_run(inst, 1);
    const std::string name = fp_simd::active_level_name();
    const int lanes = fp_simd::active_lanes();
    EXPECT_EQ(r.simd_level, name) << simd_level_name(level);
    EXPECT_EQ(r.simd_lanes, lanes) << simd_level_name(level);
    // The arith object carries exactly these two keys.
    const std::string arith = "\"arith\": {\"simd_level\": \"" + name + "\", \"simd_lanes\": " +
                              std::to_string(lanes) + "},";
    EXPECT_NE(obs::run_to_json(r).find(arith), std::string::npos) << simd_level_name(level);
  }
}

}  // namespace
}  // namespace lrdip
