// The batch-capable Runtime: determinism of run_batch at every thread count
// (the ISSUE's bit-identical contract), equivalence with the sequential
// per-item loop and with plain run_protocol, and the arena slab pool's
// recycling behavior while a Runtime is alive.
#include <gtest/gtest.h>

#include <vector>

#include "dip/arena.hpp"
#include "dip/parallel.hpp"
#include "dip/runtime.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

void expect_outcome_eq(const Outcome& a, const Outcome& b, const std::string& what) {
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.proof_size_bits, b.proof_size_bits) << what;
  EXPECT_EQ(a.total_label_bits, b.total_label_bits) << what;
  EXPECT_EQ(a.max_coin_bits, b.max_coin_bits) << what;
  EXPECT_EQ(a.reject_reason, b.reject_reason) << what;
  EXPECT_EQ(a.rejected_nodes, b.rejected_nodes) << what;
}

/// 32 mixed-task instances (registry round-robin, varying sizes), each with
/// its own seed — the fixed manifest of the determinism contract.
struct Batch {
  std::vector<BoundInstance> bound;
  std::vector<BatchItem> items;
};

Batch make_mixed_batch() {
  Batch b;
  const auto specs = protocol_registry();
  for (int i = 0; i < 32; ++i) {
    const int n = 48 + 32 * (i % 5);
    Rng gen_rng(0xfeed0000ull + static_cast<std::uint64_t>(i));
    b.bound.push_back(specs[static_cast<std::size_t>(i) % specs.size()].make_yes(n, gen_rng));
  }
  for (std::size_t i = 0; i < b.bound.size(); ++i) {
    b.items.push_back({b.bound[i].view(), 5000 + static_cast<std::uint64_t>(i)});
  }
  return b;
}

/// The reference semantics: a plain sequential loop over the items.
std::vector<Outcome> sequential_reference(const std::vector<BatchItem>& items, int c) {
  std::vector<Outcome> out;
  out.reserve(items.size());
  for (const BatchItem& it : items) {
    Rng rng(it.seed);
    out.push_back(run_protocol(it.inst, {c}, rng, nullptr));
  }
  return out;
}

/// run_batch at 1, 2 and 8 threads must equal the sequential reference.
void expect_batch_matches_sequential(const std::vector<BatchItem>& items) {
  const std::vector<Outcome> reference = sequential_reference(items, 3);
  ASSERT_EQ(reference.size(), items.size());
  const Runtime rt;
  for (const int threads : {1, 2, 8}) {
    set_parallel_threads(threads);
    const std::vector<Outcome> got = rt.run_batch(items);
    set_parallel_threads(0);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_outcome_eq(got[i], reference[i],
                        "threads=" + std::to_string(threads) + " item=" + std::to_string(i));
    }
  }
}

TEST(Runtime, BatchIsBitIdenticalAtAnyThreadCount) {
  const Batch b = make_mixed_batch();
  expect_batch_matches_sequential(b.items);
}

// The axis choice (across-instance vs within-instance) must be unobservable
// in the results: one lr-sorting item at twice the threshold runs
// within-parallel in the same batch as the small items that run across it.
TEST(Runtime, BothAxesInOneBatchMatchSequentialLoop) {
  Batch b = make_mixed_batch();
  Rng gen_rng(0xfeed1000ull);
  b.bound.push_back(
      protocol_spec(Task::lr_sorting).make_yes(2 * kSmallInstanceThreshold, gen_rng));
  b.items.push_back({b.bound.back().view(), 6000});
  ASSERT_GE(b.items.back().inst.graph().n(), kSmallInstanceThreshold);
  expect_batch_matches_sequential(b.items);
}

TEST(Runtime, RunMatchesFreeFunction) {
  for (const ProtocolSpec& spec : protocol_registry()) {
    Rng gen_rng(61);
    const BoundInstance bi = spec.make_yes(72, gen_rng);
    const Runtime rt;
    Rng r1(67), r2(67);
    const Outcome via_runtime = rt.run(bi.view(), r1);
    const Outcome via_free = run_protocol(bi.view(), {3}, r2, nullptr);
    expect_outcome_eq(via_runtime, via_free, spec.name);
  }
}

// While a Runtime is alive the slab pool recycles Label buffers through the
// thread cache; destroying the last Runtime drops this thread's cache.
TEST(Runtime, ArenaRecyclingIsScopedToRuntimeLifetime) {
  EXPECT_FALSE(pool::active());
  {
    const Runtime rt;
    EXPECT_TRUE(pool::active());
    {
      LabelArena arena;
      arena.allocate(512);
      // Arena teardown recycles the slab into the thread cache.
    }
    EXPECT_GT(pool::thread_cached_bytes(), 0u);
    // A fresh arena draws from the cache; recycled buffers come back
    // value-initialized, indistinguishable from malloc'd ones.
    LabelArena again;
    const auto span = again.allocate(512);
    EXPECT_EQ(span.size(), 512u);
  }
  EXPECT_FALSE(pool::active());
  EXPECT_EQ(pool::thread_cached_bytes(), 0u);
}

// Recycled substrate must not perturb executions: the same (instance, seed)
// run cold (fresh pool) and warm (buffers recycled from a previous run) is
// bit-identical.
TEST(Runtime, WarmPoolRunsAreBitIdenticalToCold) {
  Rng gen_rng(71);
  const BoundInstance bi = make_yes_instance(Task::planarity, 128, gen_rng);
  Rng cold_rng(73);
  const Outcome cold = run_protocol(bi.view(), {3}, cold_rng, nullptr);
  const Runtime rt;
  Outcome warm;
  for (int rep = 0; rep < 3; ++rep) {  // rep > 0 reuses recycled slabs
    Rng warm_rng(73);
    warm = rt.run(bi.view(), warm_rng);
    expect_outcome_eq(warm, cold, "rep=" + std::to_string(rep));
  }
}

}  // namespace
}  // namespace lrdip
