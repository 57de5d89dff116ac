#include <gtest/gtest.h>

#include <cmath>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "protocols/lr_sorting.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

LrSortingInstance to_protocol_instance(const LrInstance& gen_inst) {
  LrSortingInstance inst;
  inst.graph = &gen_inst.graph;
  inst.order = gen_inst.order;
  inst.tail = lr_claimed_tails(gen_inst);
  return inst;
}

TEST(LrSorting, PerfectCompleteness) {
  Rng rng(1);
  for (int t = 0; t < 30; ++t) {
    const int n = 32 + static_cast<int>(rng.uniform(400));
    const LrInstance gi = random_lr_yes(n, 1.0, rng);
    const LrSortingInstance inst = to_protocol_instance(gi);
    const Outcome o = run_lr_sorting(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << "n=" << n << " trial=" << t;
    EXPECT_EQ(o.rounds, 5);
  }
}

TEST(LrSorting, CompletenessAtLargeScale) {
  Rng rng(2);
  const LrInstance gi = random_lr_yes(1 << 15, 1.0, rng);
  const LrSortingInstance inst = to_protocol_instance(gi);
  const Outcome o = run_lr_sorting(inst, {3}, rng);
  EXPECT_TRUE(o.accepted);
}

TEST(LrSorting, SoundnessOneFlip) {
  Rng rng(3);
  int rejects = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_no(300, 1.0, 1, rng);
    const LrSortingInstance inst = to_protocol_instance(gi);
    rejects += !run_lr_sorting(inst, {3}, rng).accepted;
  }
  // Soundness error is 1/polylog n; with c=3 and n=300 the cheat should
  // essentially never slip through 60 trials.
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, SoundnessManyFlips) {
  Rng rng(4);
  int rejects = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_no(500, 1.0, 8, rng);
    const LrSortingInstance inst = to_protocol_instance(gi);
    rejects += !run_lr_sorting(inst, {3}, rng).accepted;
  }
  EXPECT_EQ(rejects, trials);
}

TEST(LrSorting, BlockShiftCheatIsCaught) {
  Rng rng(5);
  int rejects = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_yes(400, 1.0, rng);
    const LrSortingInstance inst = to_protocol_instance(gi);
    LrCheatSpec cheat;
    cheat.shift_block = true;
    rejects += !run_lr_sorting(inst, {3}, rng, &cheat).accepted;
  }
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, MisclassifiedEdgeCheatIsCaught) {
  Rng rng(21);
  int rejects = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_yes(600, 1.0, rng);
    LrCheatSpec cheat;
    cheat.misclassify_edge = true;
    rejects += !run_lr_sorting(to_protocol_instance(gi), {3}, rng, &cheat).accepted;
  }
  // Caught by the r_b block-identity check except on a 1/p collision.
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, CorruptedMultiplicityCheatIsCaught) {
  Rng rng(22);
  int rejects = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const LrInstance gi = random_lr_yes(600, 1.0, rng);
    LrCheatSpec cheat;
    cheat.corrupt_multiplicity = true;
    rejects += !run_lr_sorting(to_protocol_instance(gi), {3}, rng, &cheat).accepted;
  }
  // Caught by the verification-scheme PIT except with probability ~1/p'.
  EXPECT_GE(rejects, trials - 2);
}

TEST(LrSorting, DeterministicGivenSeed) {
  Rng gen1(77), gen2(77);
  const LrInstance a = random_lr_yes(800, 1.0, gen1);
  const LrInstance b = random_lr_yes(800, 1.0, gen2);
  Rng run1(5), run2(5);
  const Outcome oa = run_lr_sorting(to_protocol_instance(a), {3}, run1);
  const Outcome ob = run_lr_sorting(to_protocol_instance(b), {3}, run2);
  EXPECT_EQ(oa.accepted, ob.accepted);
  EXPECT_EQ(oa.proof_size_bits, ob.proof_size_bits);
  EXPECT_EQ(oa.total_label_bits, ob.total_label_bits);
}

TEST(LrSorting, ProofSizeGrowsDoublyLogarithmically) {
  Rng rng(6);
  // O(log log n): going from n=2^10 to n=2^20 should grow the proof size by
  // a small additive amount, far below the 2x of a log-n scheme.
  const LrInstance g1 = random_lr_yes(1 << 10, 1.0, rng);
  const LrInstance g2 = random_lr_yes(1 << 20, 1.0, rng);
  const Outcome o1 = run_lr_sorting(to_protocol_instance(g1), {3}, rng);
  const Outcome o2 = run_lr_sorting(to_protocol_instance(g2), {3}, rng);
  EXPECT_TRUE(o1.accepted);
  EXPECT_TRUE(o2.accepted);
  EXPECT_LT(o2.proof_size_bits, o1.proof_size_bits * 1.7);
  // ... while the baseline doubles exactly.
  const Outcome b1 = run_lr_sorting_baseline_pls(to_protocol_instance(g1));
  const Outcome b2 = run_lr_sorting_baseline_pls(to_protocol_instance(g2));
  EXPECT_EQ(b1.proof_size_bits, 10);
  EXPECT_EQ(b2.proof_size_bits, 20);
}

TEST(LrSorting, BaselineDecidesCorrectly) {
  Rng rng(7);
  const LrInstance yes = random_lr_yes(100, 1.0, rng);
  EXPECT_TRUE(run_lr_sorting_baseline_pls(to_protocol_instance(yes)).accepted);
  const LrInstance no = random_lr_no(100, 1.0, 2, rng);
  EXPECT_FALSE(run_lr_sorting_baseline_pls(to_protocol_instance(no)).accepted);
}

TEST(LrSorting, TinyInstancesUseTrivialProtocol) {
  Rng rng(8);
  const LrInstance yes = random_lr_yes(5, 1.0, rng);
  const Outcome o = run_lr_sorting(to_protocol_instance(yes), {3}, rng);
  EXPECT_TRUE(o.accepted);
  EXPECT_EQ(o.rounds, 1);
}

TEST(LrSorting, TwoNodePathUsesTrivialProtocol) {
  // K2 ordered 0 1: B = 1 would split it into two one-bit blocks, the second
  // of which has no 0-bit, so n = 2 must take the trivial protocol.
  Graph g(2);
  g.add_edge(0, 1);
  const LrSortingInstance inst{&g, {0, 1}, {0}, {}};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Outcome o = run_lr_sorting(inst, {3}, rng);
    EXPECT_TRUE(o.accepted) << "seed=" << seed;
    EXPECT_EQ(o.rounds, 1);
  }
}

TEST(LrSorting, HigherSoundnessExponentGrowsProofLinearlyInC) {
  Rng rng(9);
  const LrInstance gi = random_lr_yes(1 << 14, 1.0, rng);
  const LrSortingInstance inst = to_protocol_instance(gi);
  const Outcome o2 = run_lr_sorting(inst, {2}, rng);
  const Outcome o5 = run_lr_sorting(inst, {5}, rng);
  EXPECT_TRUE(o2.accepted);
  EXPECT_TRUE(o5.accepted);
  EXPECT_GT(o5.proof_size_bits, o2.proof_size_bits);
  EXPECT_LT(o5.proof_size_bits, o2.proof_size_bits * 4);
}

TEST(LrSorting, DensityDoesNotBlowUpProofSize) {
  // The proof size cap is per-node; denser instances only add per-edge labels
  // on accountable endpoints (<= 5 per node on planar instances).
  Rng rng(10);
  const LrInstance sparse = random_lr_yes(1 << 12, 0.2, rng);
  const LrInstance dense = random_lr_yes(1 << 12, 2.0, rng);
  const Outcome os = run_lr_sorting(to_protocol_instance(sparse), {3}, rng);
  const Outcome od = run_lr_sorting(to_protocol_instance(dense), {3}, rng);
  EXPECT_TRUE(os.accepted);
  EXPECT_TRUE(od.accepted);
  EXPECT_LT(od.proof_size_bits, os.proof_size_bits * 3);
}

}  // namespace
}  // namespace lrdip
