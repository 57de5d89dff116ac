// SIMD kernel parity and dispatch-invariance tests.
//
// Every vector kernel in field/fp_simd.hpp claims bit-identical results to
// the scalar Fp reference at every dispatch level. These tests check that
// claim three ways: exhaustively against the scalar formulas over the exact
// moduli the protocols instantiate (the lr-sorting field pair and the
// multiset-equality fields), on adversarial 64-bit inputs and remainder-lane
// span sizes, and end-to-end — the golden transcript digest of every
// registry task must not move when the dispatch level is forced. The
// degree-aware weighted chunking of dip/parallel.hpp gets the same
// treatment: boundaries are a pure function of the cost prefix, and results
// and failure choice are thread-count-invariant.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "adversary/prover.hpp"
#include "dip/parallel.hpp"
#include "field/fp_simd.hpp"
#include "field/primes.hpp"
#include "protocols/multiset_equality.hpp"
#include "protocols/registry.hpp"
#include "support/bits.hpp"
#include "support/cpu.hpp"
#include "support/rng.hpp"
#include "test_instances.hpp"

namespace lrdip {
namespace {

constexpr SimdLevel kLevels[] = {SimdLevel::scalar, SimdLevel::avx2};

/// Restores the env/CPUID dispatch default when a test exits.
struct ForcedLevel {
  explicit ForcedLevel(SimdLevel level) { set_simd_level(level); }
  ~ForcedLevel() { set_simd_level(std::nullopt); }
};

/// The moduli the protocol layer actually instantiates, plus edge primes on
/// both sides of the Montgomery gate (odd and < 2^31): 2 is the only even
/// prime, 2147483647 = 2^31 - 1 sits just inside the gate, and 4294967291 is
/// the largest constructible modulus. Moduli outside the gate take the scalar
/// phi-product reference at every level.
std::vector<std::uint64_t> test_moduli() {
  std::vector<std::uint64_t> moduli = {2, 3, 5, 2147483647ULL, 4294967291ULL};
  for (int n : {1 << 10, 1 << 17}) {
    // lr_sorting.cpp: p > max(log^c n, 2B + 2), p' > p * B, with c = 3.
    const int B = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
    const double logn = std::log2(static_cast<double>(n));
    const auto pc = static_cast<std::uint64_t>(std::pow(logn, 3));
    const std::uint64_t p =
        cached_prime_above(std::max<std::uint64_t>(pc, 2 * static_cast<std::uint64_t>(B) + 2));
    moduli.push_back(p);
    moduli.push_back(cached_prime_above(p * static_cast<std::uint64_t>(B)));
  }
  moduli.push_back(multiset_equality_field(64, 2).modulus());
  moduli.push_back(multiset_equality_field(1024, 2).modulus());
  return moduli;
}

/// Span sizes straddling the AVX2 lane count (4) and its two-accumulator
/// stride (8), with longer runs past both, so each kernel's remainder
/// handling runs in every configuration.
std::vector<std::size_t> test_sizes() {
  return {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 257};
}

/// Random words spiked with the adversarial values: 0, UINT64_MAX, and the
/// wrap-sensitive neighborhood of the modulus.
std::vector<std::uint64_t> spiked_words(std::size_t size, std::uint64_t p, Rng& rng) {
  std::vector<std::uint64_t> v(size);
  for (std::uint64_t& w : v) w = rng.next_u64();
  const std::uint64_t spikes[] = {0, ~std::uint64_t{0}, p - 1, p, p + 1, 2 * p};
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 7 == 0) v[i] = spikes[(i / 7) % 6];
  }
  return v;
}

TEST(SimdDispatch, LevelParsingAndClamping) {
  EXPECT_EQ(parse_simd_level("scalar"), SimdLevel::scalar);
  EXPECT_EQ(parse_simd_level("avx2"), SimdLevel::avx2);
  EXPECT_EQ(parse_simd_level(""), std::nullopt);    // empty = no override
  EXPECT_EQ(parse_simd_level("sse9"), std::nullopt);
  for (SimdLevel level : kLevels) {
    ForcedLevel forced(level);
    EXPECT_LE(static_cast<int>(simd_active_level()), static_cast<int>(simd_host_level()));
    const int lanes = fp_simd::active_lanes();
    EXPECT_EQ(lanes, simd_lanes(simd_active_level()));
    EXPECT_TRUE(lanes == 1 || lanes == 4);
    if (level == SimdLevel::scalar) {
      EXPECT_EQ(lanes, 1);  // scalar never clamps up
    }
  }
}

TEST(SimdKernels, PhiProductMatchesScalarOverProtocolModuli) {
  Rng rng(0x51D0001);
  for (std::uint64_t p : test_moduli()) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const Fp f(p);
    for (std::size_t size : test_sizes()) {
      const std::vector<std::uint64_t> s = spiked_words(size, p, rng);
      for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1}, p - 1, rng.next_u64()}) {
        const std::uint64_t expect = f.multiset_poly(s, x);
        for (SimdLevel level : kLevels) {
          ForcedLevel forced(level);
          ASSERT_EQ(fp_simd::phi_product(f, s, x), expect)
              << "size=" << size << " x=" << x << " level=" << simd_level_name(level);
        }
      }
    }
  }
}

TEST(SimdKernels, ModSpanMatchesScalarRemainder) {
  Rng rng(0x51D0002);
  std::vector<std::uint64_t> bounds = test_moduli();
  // Non-prime coin bounds, the bound-1 zero-fill, and the >= 2^32 divide path.
  bounds.insert(bounds.end(), {1, 6, 100, (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
                               (std::uint64_t{1} << 40) + 9});
  for (std::uint64_t bound : bounds) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    for (std::size_t size : test_sizes()) {
      const std::vector<std::uint64_t> raw = spiked_words(size, bound, rng);
      std::vector<std::uint64_t> expect = raw;
      for (std::uint64_t& w : expect) w %= bound;
      for (SimdLevel level : kLevels) {
        ForcedLevel forced(level);
        std::vector<std::uint64_t> got = raw;
        fp_simd::mod_span(bound, got);
        ASSERT_EQ(got, expect) << "size=" << size << " level=" << simd_level_name(level);
      }
    }
  }
}

TEST(SimdKernels, PhiPrefixRowsMatchesScalarTable) {
  Rng rng(0x51D0004);
  for (std::uint64_t p : {std::uint64_t{1009}, std::uint64_t{1000003}}) {
    const Fp f(p);
    for (int B : {1, 2, 7, 17, 63}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " B=" + std::to_string(B));
      const std::uint64_t rp = rng.next_u64();
      for (std::size_t blocks : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                                 std::size_t{5}, std::size_t{8}, std::size_t{9}, std::size_t{17}}) {
        std::vector<std::uint64_t> blk_pos(blocks);
        const std::uint64_t bmask =
            B == 63 ? ~std::uint64_t{0} >> 1 : (std::uint64_t{1} << B) - 1;
        for (std::uint64_t& w : blk_pos) w = rng.next_u64() & bmask;
        const std::size_t stride = static_cast<std::size_t>(B) + 1;
        // Independent scalar recomputation of the prefix table definition.
        std::vector<std::uint64_t> expect(blocks * stride, 0);
        for (std::size_t bl = 0; bl < blocks; ++bl) {
          std::uint64_t acc = 1;
          for (int t = 1; t <= B; ++t) {
            expect[bl * stride + static_cast<std::size_t>(t)] = acc;
            if ((blk_pos[bl] >> (B - t)) & 1) {
              acc = f.mul(acc, f.sub(f.reduce(static_cast<std::uint64_t>(t)), f.reduce(rp)));
            }
          }
        }
        for (SimdLevel level : kLevels) {
          ForcedLevel forced(level);
          std::vector<std::uint64_t> rows(blocks * stride, 0);
          fp_simd::phi_prefix_rows(f, blk_pos, B, rp, rows);
          ASSERT_EQ(rows, expect) << "blocks=" << blocks << " level=" << simd_level_name(level);
        }
      }
    }
  }
}

TEST(SimdKernels, SampleSpanPreservesTheScalarRngStream) {
  for (std::uint64_t p : {std::uint64_t{2}, std::uint64_t{1000003}, std::uint64_t{4294967291ULL}}) {
    const Fp f(p);
    for (SimdLevel level : kLevels) {
      ForcedLevel forced(level);
      Rng seq(42), batch(42);
      std::vector<std::uint64_t> expect(1037), got(1037);
      for (std::uint64_t& w : expect) w = f.sample(seq);
      f.sample_span(batch, got);
      ASSERT_EQ(got, expect) << "p=" << p << " level=" << simd_level_name(level);
      // Stream position must match too: the next draw agrees.
      ASSERT_EQ(batch.next_u64(), seq.next_u64());
    }
  }
}

TEST(SimdDispatch, GoldenDigestsIdenticalAtEveryForcedLevel) {
  constexpr int kN = 64;
  constexpr std::uint64_t kGenSeed = 0x901de2ULL;
  constexpr std::uint64_t kCoinSeed = 0xc0135eedULL;
  for (const ProtocolSpec& spec : protocol_registry()) {
    SCOPED_TRACE(task_name(spec.task));
    std::uint64_t reference = 0;
    bool have_reference = false;
    for (SimdLevel level : kLevels) {
      ForcedLevel forced(level);
      const BoundInstance yes = fixtures::yes_instance(spec.task, kN, kGenSeed);
      adversary::TranscriptRecorder recorder;
      Rng rng(kCoinSeed);
      const Outcome o = run_protocol(yes.view(), {3}, rng, &recorder);
      EXPECT_TRUE(o.accepted);
      const std::uint64_t digest = recorder.transcript().digest();
      if (!have_reference) {
        reference = digest;
        have_reference = true;
      } else {
        EXPECT_EQ(digest, reference)
            << "label stream moved under forced level " << simd_level_name(level);
      }
    }
  }
}

TEST(WeightedChunks, BoundsArePureAndCoverSkewedCosts) {
  // One hub of cost 10000 followed by unit costs.
  const std::int64_t n = 100;
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t i = 0; i < n; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + (i == 0 ? 10000 : 1);
  }
  const std::vector<std::int64_t> bounds = weighted_chunk_bounds(n, prefix, 10);
  ASSERT_EQ(bounds, weighted_chunk_bounds(n, prefix, 10));  // pure function
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(n / 10) + 1);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), n);
  for (std::size_t k = 1; k < bounds.size(); ++k) {
    EXPECT_LT(bounds[k - 1], bounds[k]);  // every chunk non-empty
  }
  // The hub dominates the total cost, so it must sit alone in chunk 0.
  EXPECT_EQ(bounds[1], 1);
}

TEST(WeightedChunks, UniformCostsMatchUniformGrain) {
  const std::int64_t n = 4096;
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(n) + 1);
  std::iota(prefix.begin(), prefix.end(), 0);
  const std::vector<std::int64_t> bounds = weighted_chunk_bounds(n, prefix, 512);
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(n / 512) + 1);
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    EXPECT_EQ(bounds[k], static_cast<std::int64_t>(k) * 512);
  }
}

TEST(WeightedChunks, ResultsAreThreadCountInvariant) {
  const std::int64_t n = 5000;
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t i = 0; i < n; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + (i < 10 ? 1000 : 1);
  }
  std::vector<std::uint64_t> reference;
  for (int threads : {1, 2, 8}) {
    set_parallel_threads(threads);
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n), 0);
    parallel_for_weighted(n, prefix, [&](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i) * 2654435761ULL;
    });
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(out, reference) << "threads=" << threads;
    }
  }
  set_parallel_threads(0);
}

TEST(WeightedChunks, LowestFailingChunkWinsAtAnyThreadCount) {
  const std::int64_t n = 4096;
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(n) + 1);
  std::iota(prefix.begin(), prefix.end(), 0);  // uniform: chunk k = [512k, 512(k+1))
  for (int threads : {1, 2, 8}) {
    set_parallel_threads(threads);
    std::string caught;
    try {
      parallel_for_weighted(n, prefix, [](std::int64_t i) {
        if (i == 600) throw std::runtime_error("chunk1");
        if (i == 2000) throw std::runtime_error("chunk3");
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "chunk1") << "threads=" << threads;
  }
  set_parallel_threads(0);
}

}  // namespace
}  // namespace lrdip
