// Golden-transcript regression tests: byte-exact label-stream digests.
//
// For one small pinned-seed yes-instance per task, and for its near-no twin,
// the FNV-1a digest of everything the honest prover sends (every label
// field's value and declared width, at every fault-seam call) must match the
// committed constant. A refactor that silently changes what goes on the
// wire — new field order, different widths, a changed rng draw — fails here
// loudly even when the verdict stays the same and the proof-size budgets
// happen to agree.
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

// The reject path: the honest label stream on each task's near-no instance
// (same seeds, n = 2^7), where every run must reject. The centralized fallbacks
// that only run on non-members (treewidth2's one-deletion search over its K4
// block, above all) decide what goes on this wire, so a change to them that
// commits a different decomposition fails here.
constexpr int kNearNoN = 1 << 7;
constexpr Golden kGoldenNearNo[kNumTasks] = {
    {Task::lr_sorting, 0x941992c43be545c0ULL},
    {Task::path_outerplanar, 0x95de250822476ce2ULL},
    {Task::outerplanar, 0x0fd4920c5ed56f1aULL},
    {Task::embedding, 0xe12166eb3e88325bULL},
    {Task::planarity, 0x87cbce1b43258978ULL},
    {Task::series_parallel, 0xd4f6756a99588769ULL},
    {Task::treewidth2, 0x84dc17f4b112c449ULL},
    {Task::log_star_planarity, 0xd0c514f8fe2a19c4ULL},
};

// treewidth2 again at the next generator seed, whose K4 block's first
// successful deletion lies inside a series composite rather than on a live
// edge of the failed reduction: a search that tried only the live edges
// commits a different decomposition on both instances.
constexpr std::uint64_t kSpineGenSeed = kGenSeed + 1;
constexpr struct {
  int n;
  std::uint64_t digest;
} kGoldenSpine[] = {
    {1 << 7, 0xa0a96a19c5b8a2a1ULL},
    {1 << 10, 0x89f75c3d30b42ecaULL},
};

void expect_near_no_pinned(Task task, int n, std::uint64_t gen_seed, std::uint64_t digest) {
  SCOPED_TRACE(task_name(task));
  const BoundInstance no = fixtures::near_no_instance(task, n, gen_seed);
  adversary::TranscriptRecorder recorder;
  Rng rng(kCoinSeed);
  const Outcome o = run_protocol(no.view(), {3}, rng, &recorder);
  EXPECT_FALSE(o.accepted);
  const std::uint64_t actual = recorder.transcript().digest();
  EXPECT_EQ(actual, digest) << "near-no transcript digest changed for " << task_name(task)
                            << " at n = " << n << "; repin to 0x" << std::hex << actual;
}

TEST(GoldenTranscript, HonestLabelStreamDigestsArePinned) {
  for (const Golden& g : kGolden) expect_pinned(g, kN);
}

TEST(GoldenTranscript, ManyBlockDigestsArePinned) {
  for (const Golden& g : kGoldenManyBlocks) expect_pinned(g, kManyBlocksN);
}

TEST(GoldenTranscript, NearNoDigestsArePinned) {
  for (const Golden& g : kGoldenNearNo) expect_near_no_pinned(g.task, kNearNoN, kGenSeed, g.digest);
  for (const auto& [n, digest] : kGoldenSpine) {
    expect_near_no_pinned(Task::treewidth2, n, kSpineGenSeed, digest);
  }
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
