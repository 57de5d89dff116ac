// Slab-pool and thread-pool behavior under concurrent Runtime batch callers.
//
// Both pools are process-wide: any two library threads can reach them at
// once, for instance two threads sharing one Runtime. That makes these
// properties load-bearing:
//   * concurrent run_batch calls make progress and recycle buffers through
//     per-thread free lists without corrupting each other's executions
//     (verdicts stay bit-identical to a sequential reference). The parallel
//     engine has one job slot, so a caller that finds it taken runs its
//     region inline; ConcurrentRunBatchMatchesSequentialReference and
//     ManyConcurrentCallersSurviveChurn are the regression tests for that
//     rule;
//   * retain/release stays balanced across nested Runtime lifetimes, so the
//     slab pool switches off exactly when the last Runtime dies;
//   * recycled buffers carry no state between executions — a rerun of the
//     same (instance, seed) after arbitrary interleaved foreign work
//     reproduces the same Outcome to the bit.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dip/arena.hpp"
#include "dip/runtime.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

bool same_outcome(const Outcome& a, const Outcome& b) {
  return a.accepted == b.accepted && a.rounds == b.rounds &&
         a.proof_size_bits == b.proof_size_bits && a.total_label_bits == b.total_label_bits &&
         a.max_coin_bits == b.max_coin_bits && a.reject_reason == b.reject_reason &&
         a.rejected_nodes == b.rejected_nodes;
}

TEST(PoolConcurrency, RetainReleaseBalancedAcrossNestedRuntimes) {
  ASSERT_FALSE(pool::active());
  {
    Runtime outer;
    EXPECT_TRUE(pool::active());
    {
      Runtime inner;
      EXPECT_TRUE(pool::active());
    }
    // The refcount, not the last destructor, keeps the pool on.
    EXPECT_TRUE(pool::active());
  }
  EXPECT_FALSE(pool::active());
}

TEST(PoolConcurrency, RetainReleaseBalancedAcrossThreads) {
  ASSERT_FALSE(pool::active());
  {
    Runtime shared;
    std::vector<std::thread> threads;
    std::atomic<int> saw_active{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        Runtime mine;
        if (pool::active()) saw_active.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(saw_active.load(), 4);
    EXPECT_TRUE(pool::active());
  }
  EXPECT_FALSE(pool::active());
}

TEST(PoolConcurrency, ThreadCacheFillsAndClears) {
  Runtime rt;
  pool::clear_thread_cache();
  EXPECT_EQ(pool::thread_cached_bytes(), 0u);
  Rng gen(7);
  const BoundInstance bi = make_yes_instance(Task::lr_sorting, 96, gen);
  Rng coins(11);
  (void)rt.run(bi.view(), coins);
  // The execution's slabs came back to this thread's free list...
  EXPECT_GT(pool::thread_cached_bytes(), 0u);
  // ...and clearing hands them to the allocator.
  pool::clear_thread_cache();
  EXPECT_EQ(pool::thread_cached_bytes(), 0u);
}

TEST(PoolConcurrency, ConcurrentRunBatchMatchesSequentialReference) {
  Runtime rt;
  // Per-thread work: each thread gets its own instance family slice and a
  // disjoint seed range.
  constexpr int kThreads = 4;
  constexpr int kItems = 6;
  std::vector<std::vector<BoundInstance>> owned(kThreads);
  std::vector<std::vector<BatchItem>> items(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kItems; ++i) {
      const Task task = static_cast<Task>((t * kItems + i) % kNumTasks);
      Rng gen(static_cast<std::uint64_t>(100 + t * kItems + i));
      owned[t].push_back(make_yes_instance(task, 48 + 8 * i, gen));
      items[t].push_back(
          {owned[t].back().view(), static_cast<std::uint64_t>(1000 + t * kItems + i)});
    }
  }
  // Sequential reference first (same Runtime — recycling is already on).
  std::vector<std::vector<Outcome>> reference(kThreads);
  for (int t = 0; t < kThreads; ++t) reference[t] = rt.run_batch(items[t]);

  std::vector<std::vector<Outcome>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { concurrent[t] = rt.run_batch(items[t]); });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(concurrent[t].size(), reference[t].size());
    for (int i = 0; i < kItems; ++i) {
      EXPECT_TRUE(same_outcome(concurrent[t][static_cast<std::size_t>(i)],
                               reference[t][static_cast<std::size_t>(i)]))
          << "thread " << t << " item " << i;
      EXPECT_TRUE(reference[t][static_cast<std::size_t>(i)].accepted);
    }
  }
}

TEST(PoolConcurrency, RecycledBuffersLeakNoStateBetweenExecutions) {
  Runtime rt;
  Rng gen_a(21);
  const BoundInstance a = make_yes_instance(Task::planarity, 64, gen_a);
  Rng coins1(5);
  const Outcome first = rt.run(a.view(), coins1);

  // Interleave foreign work — other tasks, a near-no instance, different
  // sizes — all drawing recycled slabs from the same per-thread free list.
  for (int i = 0; i < 8; ++i) {
    Rng gen(static_cast<std::uint64_t>(300 + i));
    const Task task = static_cast<Task>(i % kNumTasks);
    const BoundInstance other = i % 3 == 0 ? make_near_no_instance(task, 40 + i, gen)
                                           : make_yes_instance(task, 40 + i, gen);
    Rng coins(static_cast<std::uint64_t>(77 + i));
    (void)rt.run(other.view(), coins);
  }

  // The rerun must reproduce the first outcome exactly: recycled buffers are
  // value-reinitialized, never carrying another execution's bits.
  Rng gen_a2(21);
  const BoundInstance a2 = make_yes_instance(Task::planarity, 64, gen_a2);
  Rng coins2(5);
  const Outcome second = rt.run(a2.view(), coins2);
  EXPECT_TRUE(same_outcome(first, second));
}

TEST(PoolConcurrency, ManyConcurrentCallersSurviveChurn) {
  // Exhaustion/churn probe: more caller threads than engine workers, each
  // looping small batches, so free lists fill, drain, and migrate ownership
  // constantly. The assertion is simply that every verdict stays correct.
  Runtime rt;
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        Rng gen(static_cast<std::uint64_t>(1 + t * 10 + round));
        const BoundInstance bi =
            make_yes_instance(static_cast<Task>((t + round) % kNumTasks), 56, gen);
        const std::vector<BatchItem> items =
            replicate_item(bi.view(), static_cast<std::uint64_t>(50 + t), 4);
        const std::vector<Outcome> out = rt.run_batch(items);
        for (const Outcome& o : out) {
          if (!o.accepted) failures.fetch_add(1);
        }
        pool::clear_thread_cache();  // force re-acquisition from cold lists
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace lrdip
