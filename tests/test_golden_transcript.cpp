// Golden-transcript regression tests: byte-exact label-stream digests.
//
// For one small pinned-seed yes-instance per task, the FNV-1a digest of
// everything the honest prover sends (every label field's value and declared
// width, at every fault-seam call) must match the committed constant. A
// refactor that silently changes what goes on the wire — new field order,
// different widths, a changed rng draw — fails here loudly even when the
// verdict stays "accept" and the proof-size budgets happen to agree.
//
// Updating a digest is a deliberate act: run this binary after the change,
// copy the printed actual values into kGolden, and say why in the commit.
#include <gtest/gtest.h>

#include <cstdio>

#include "adversary/prover.hpp"
#include "dip/parallel.hpp"
#include "protocols/registry.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

constexpr int kN = 64;
constexpr std::uint64_t kGenSeed = 0x901de2ULL;
constexpr std::uint64_t kCoinSeed = 0xc0135eedULL;

struct Golden {
  Task task;
  std::uint64_t digest;
};

// Pinned digests of the honest label stream per task (n = 64, seeds above).
// embedding and planarity agree by design: on a planar instance with a valid
// rotation certificate, planarity runs the embedding protocol on the same
// generated family, so the two label streams are identical.
constexpr Golden kGolden[kNumTasks] = {
    {Task::lr_sorting, 0x60b617b9eee83ea2ULL},
    {Task::path_outerplanar, 0xb6401f6468b3a535ULL},
    {Task::outerplanar, 0x8d7ab4d0e003a32eULL},
    {Task::embedding, 0x335bd5366f40ba15ULL},
    {Task::planarity, 0x335bd5366f40ba15ULL},
    {Task::series_parallel, 0xe76b25d22a8a2e87ULL},
    {Task::treewidth2, 0xefd61522aa5d6b30ULL},
    {Task::log_star_planarity, 0xd53dfb9cddcdf089ULL},
};

// The same seeds at n = 2^10, where the registry's outerplanar and treewidth2
// families glue 16 blocks, each matched to its generator certificate by node
// set. At n = 64 they have one block, and treewidth2's digest is the same
// with and without certificates, so a lookup that silently fell back to the
// centralized decomposition would pass the table above.
constexpr int kManyBlocksN = 1 << 10;
constexpr Golden kGoldenManyBlocks[] = {
    {Task::outerplanar, 0x1aca959270c49314ULL},
    {Task::series_parallel, 0xbcda4f63ebd6dd9dULL},
    {Task::treewidth2, 0x64c353d8cba0bbcbULL},
};

void expect_pinned(const Golden& g, int n) {
  SCOPED_TRACE(task_name(g.task));
  const BoundInstance yes = fixtures::yes_instance(g.task, n, kGenSeed);
  adversary::TranscriptRecorder recorder;
  Rng rng(kCoinSeed);
  const Outcome o = run_protocol(yes.view(), {3}, rng, &recorder);
  EXPECT_TRUE(o.accepted);
  const std::uint64_t actual = recorder.transcript().digest();
  EXPECT_EQ(actual, g.digest) << "transcript digest changed for " << task_name(g.task)
                              << " at n = " << n << "; repin to 0x" << std::hex << actual;
}

TEST(GoldenTranscript, HonestLabelStreamDigestsArePinned) {
  for (const Golden& g : kGolden) expect_pinned(g, kN);
}

TEST(GoldenTranscript, ManyBlockDigestsArePinned) {
  for (const Golden& g : kGoldenManyBlocks) expect_pinned(g, kManyBlocksN);
}

TEST(GoldenTranscript, LogStarDigestIsThreadCountInvariant) {
  // The log-star decode runs under parallel_for and folds per-level chain
  // checks into per-node reasons; none of that may reorder what the PROVER
  // put on the wire. Same pinned instance, 1 vs 2 vs 8 decode threads, and
  // the label stream must be bit-identical — not just the verdict.
  std::uint64_t reference = 0;
  for (const int threads : {1, 2, 8}) {
    set_parallel_threads(threads);
    const BoundInstance yes = fixtures::yes_instance(Task::log_star_planarity, kN, kGenSeed);
    adversary::TranscriptRecorder recorder;
    Rng rng(kCoinSeed);
    const Outcome o = run_protocol(yes.view(), {3}, rng, &recorder);
    EXPECT_TRUE(o.accepted);
    const std::uint64_t digest = recorder.transcript().digest();
    if (threads == 1) {
      reference = digest;
      EXPECT_EQ(digest, 0xd53dfb9cddcdf089ULL);  // and it is THE pinned stream
    } else {
      EXPECT_EQ(digest, reference) << "label stream moved at " << threads << " threads";
    }
  }
  set_parallel_threads(0);
}

TEST(GoldenTranscript, DigestReactsToAnyFieldMutation) {
  // Sanity of the tripwire itself: a one-bit forge in any snapshot changes
  // the digest (FNV-1a folds every value and width).
  const BoundInstance yes = fixtures::yes_instance(Task::lr_sorting, kN, kGenSeed);
  adversary::TranscriptRecorder recorder;
  Rng rng(kCoinSeed);
  (void)run_protocol(yes.view(), {3}, rng, &recorder);
  adversary::CapturedTranscript t = recorder.take();
  ASSERT_FALSE(t.calls.empty());
  const std::uint64_t before = t.digest();
  for (adversary::LabelSnapshot& snap : t.calls) {
    for (Label& l : snap.node_labels) {
      if (l.empty()) continue;
      l.forge_value(0, l.get(0) ^ 1);
      EXPECT_NE(t.digest(), before);
      return;
    }
  }
  FAIL() << "no non-empty label found to mutate";
}

}  // namespace
}  // namespace lrdip
