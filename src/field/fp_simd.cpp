#include "field/fp_simd.hpp"

#include "support/check.hpp"
#include "support/cpu.hpp"

// The vector paths compile on any x86-64 gcc/clang regardless of -m flags:
// every intrinsic lives in a function carrying a `target` attribute, and
// dispatch (support/cpu.hpp) only calls a path the host supports.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LRDIP_SIMD_X86 1
#include <immintrin.h>
#else
#define LRDIP_SIMD_X86 0
#endif

namespace lrdip::fp_simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference path. Mirrors Fp::reduce exactly (same Barrett sequence)
// but parameterized on a raw (bound, m) pair so mod_span can reduce by
// non-prime coin bounds with the same code.
// ---------------------------------------------------------------------------

/// floor(2^64 / b) for 2 <= b < 2^32 — the Fp constructor's formula.
std::uint64_t barrett_m_for(std::uint64_t b) {
  const std::uint64_t r0 = (~std::uint64_t{0} % b + 1) % b;
  return r0 == 0 ? ~std::uint64_t{0} / b + 1 : (~std::uint64_t{0} - (r0 - 1)) / b;
}

inline std::uint64_t scalar_reduce(std::uint64_t x, std::uint64_t b, std::uint64_t m) {
  const std::uint64_t q =
      static_cast<std::uint64_t>((static_cast<unsigned __int128>(x) * m) >> 64);
  std::uint64_t r = x - q * b;
  while (r >= b) r -= b;
  return r;
}

void scalar_reduce_span(std::span<std::uint64_t> x, std::uint64_t b, std::uint64_t m) {
  for (std::uint64_t& v : x) v = scalar_reduce(v, b, m);
}

std::uint64_t scalar_phi_product(const Fp& f, std::span<const std::uint64_t> s,
                                 std::uint64_t xr) {
  std::uint64_t acc = 1 % f.modulus();
  for (std::uint64_t e : s) acc = f.mul(acc, f.sub(f.reduce(e), xr));
  return acc;
}

void scalar_phi_prefix_rows(const Fp& f, std::span<const std::uint64_t> blk_pos, int B,
                            std::span<const std::uint64_t> factors,
                            std::span<std::uint64_t> rows) {
  for (std::size_t b = 0; b < blk_pos.size(); ++b) {
    std::uint64_t* row = rows.data() + b * (static_cast<std::size_t>(B) + 1);
    const std::uint64_t x1 = blk_pos[b];
    std::uint64_t acc = 1;
    for (int t = 1; t <= B; ++t) {
      row[t] = acc;  // product over indices strictly below t
      if ((x1 >> (B - t)) & 1) acc = f.mul(acc, factors[static_cast<std::size_t>(t)]);
    }
  }
}

#if LRDIP_SIMD_X86

// ---------------------------------------------------------------------------
// Montgomery (REDC) support for the phi-product accumulator chains. With
// R = 2^32 and odd p < 2^31, REDC(T) = (T + (T * p' mod R) * p) / R computes
// T * R^{-1} mod p in three 32x32 multiplies — less than half the cost of the
// Barrett mulmod — and T + (..)*p provably fits 64 bits, so the division is a
// plain shift. Each chain step therefore picks up one stray R^{-1} factor;
// the caller cancels all of them at once with a single scalar multiplication
// by R^K mod p (K = vector-processed element count), so the returned value is
// bit-identical to the scalar path. Moduli that fail the gate (even, or
// >= 2^31) take the scalar reference instead.
// ---------------------------------------------------------------------------

constexpr bool mont_ok(std::uint64_t p) {
  return (p & 1) != 0 && p < (std::uint64_t{1} << 31);
}

/// -p^{-1} mod 2^32 for odd p, by Newton iteration (5 steps: 3 correct bits
/// seed, doubling per step).
std::uint32_t mont_ninv32(std::uint64_t p) {
  const auto p32 = static_cast<std::uint32_t>(p);
  std::uint32_t x = p32;
  for (int it = 0; it < 5; ++it) x *= 2 - p32 * x;
  return static_cast<std::uint32_t>(0) - x;
}

/// R^K mod p — the scalar fix-up factor cancelling K chain REDCs.
std::uint64_t mont_fixup(const Fp& f, std::uint64_t k) {
  return f.pow(f.reduce(std::uint64_t{1} << 32), k);
}

// ---------------------------------------------------------------------------
// AVX2: 4 lanes. No 64-bit unsigned compare or full 64x64 multiply exists at
// this level, so both are assembled from 32x32->64 pieces (_mm256_mul_epu32)
// and signed compares — safe because every compared quantity here is < 2^34
// (a post-Barrett remainder r < 2b with b < 2^32), far below the sign bit.
// ---------------------------------------------------------------------------

#define LRDIP_TGT_AVX2 __attribute__((target("avx2")))

/// High 64 bits of the full 128-bit product x * m, exact, via 32-bit halves.
LRDIP_TGT_AVX2 inline __m256i mulhi64_avx2(__m256i x, __m256i m) {
  const __m256i lomask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i x_lo = _mm256_and_si256(x, lomask);
  const __m256i x_hi = _mm256_srli_epi64(x, 32);
  const __m256i m_lo = _mm256_and_si256(m, lomask);
  const __m256i m_hi = _mm256_srli_epi64(m, 32);
  const __m256i t = _mm256_mul_epu32(x_lo, m_lo);
  const __m256i u = _mm256_add_epi64(_mm256_mul_epu32(x_hi, m_lo), _mm256_srli_epi64(t, 32));
  const __m256i v = _mm256_add_epi64(_mm256_mul_epu32(x_lo, m_hi), _mm256_and_si256(u, lomask));
  return _mm256_add_epi64(_mm256_mul_epu32(x_hi, m_hi),
                          _mm256_add_epi64(_mm256_srli_epi64(u, 32), _mm256_srli_epi64(v, 32)));
}

/// Low 64 bits of q * b for b < 2^32 (b_hi == 0, so two partial products).
LRDIP_TGT_AVX2 inline __m256i mullo64_b32_avx2(__m256i q, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(q, b);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(q, 32), b);
  return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
}

/// x mod b: the scalar Barrett sequence, lane-parallel. bm1 = b - 1
/// broadcast, for the r >= b compare.
LRDIP_TGT_AVX2 inline __m256i reduce_avx2(__m256i x, __m256i b, __m256i bm1, __m256i m) {
  const __m256i q = mulhi64_avx2(x, m);
  __m256i r = _mm256_sub_epi64(x, mullo64_b32_avx2(q, b));
  // Two conditional subtracts, mirroring the scalar loop's worst case.
  r = _mm256_sub_epi64(r, _mm256_and_si256(b, _mm256_cmpgt_epi64(r, bm1)));
  r = _mm256_sub_epi64(r, _mm256_and_si256(b, _mm256_cmpgt_epi64(r, bm1)));
  return r;
}

/// a * c mod b for reduced operands (< b < 2^32): one exact 32x32 multiply.
LRDIP_TGT_AVX2 inline __m256i mulmod_avx2(__m256i a, __m256i c, __m256i b, __m256i bm1,
                                          __m256i m) {
  return reduce_avx2(_mm256_mul_epu32(a, c), b, bm1, m);
}

/// a - c mod b for reduced operands: subtract, add back b on underflow.
/// Also correct for a < 2b (the lazy-reduced Montgomery feed): the result
/// then lies below 2b, which is all the REDC chain needs.
LRDIP_TGT_AVX2 inline __m256i submod_avx2(__m256i a, __m256i c, __m256i b) {
  const __m256i under = _mm256_cmpgt_epi64(c, a);
  return _mm256_add_epi64(_mm256_sub_epi64(a, c), _mm256_and_si256(b, under));
}

/// Lazy Barrett: one conditional subtract, so r < 2b instead of < b. Feeds
/// the Montgomery chain, which tolerates factors below 2b (b < 2^31).
LRDIP_TGT_AVX2 inline __m256i reduce_lazy_avx2(__m256i x, __m256i b, __m256i bm1, __m256i m) {
  const __m256i q = mulhi64_avx2(x, m);
  __m256i r = _mm256_sub_epi64(x, mullo64_b32_avx2(q, b));
  r = _mm256_sub_epi64(r, _mm256_and_si256(b, _mm256_cmpgt_epi64(r, bm1)));
  return r;
}

/// REDC(t) = t * 2^{-32} mod b, lane-parallel, for t < 2^32 * b. pq holds
/// -b^{-1} mod 2^32 in each lane's low half. Output < 2b; one conditional
/// subtract brings it below b. t + c cannot wrap: t < 2b^2 and c < 2^32 b
/// are each below 2^63 when b < 2^31.
LRDIP_TGT_AVX2 inline __m256i redc_avx2(__m256i t, __m256i b, __m256i pq) {
  const __m256i c = _mm256_mul_epu32(_mm256_mul_epu32(t, pq), b);
  return _mm256_srli_epi64(_mm256_add_epi64(t, c), 32);
}

/// Montgomery chain step: acc * w * 2^{-32} mod b, fully reduced. acc < b
/// keeps the next product inside the REDC bound even with w < 2b.
LRDIP_TGT_AVX2 inline __m256i mulredc_avx2(__m256i acc, __m256i w, __m256i b, __m256i bm1,
                                           __m256i pq) {
  __m256i r = redc_avx2(_mm256_mul_epu32(acc, w), b, pq);
  return _mm256_sub_epi64(r, _mm256_and_si256(b, _mm256_cmpgt_epi64(r, bm1)));
}

LRDIP_TGT_AVX2 void reduce_span_avx2(std::span<std::uint64_t> x, std::uint64_t bound,
                                     std::uint64_t bm) {
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bound));
  const __m256i bm1 = _mm256_set1_epi64x(static_cast<long long>(bound - 1));
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(bm));
  std::size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x.data() + i));
    v = reduce_avx2(v, b, bm1, m);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x.data() + i), v);
  }
  scalar_reduce_span(x.subspan(i), bound, bm);
}

/// Needs odd p < 2^31 (mont_ok); the dispatcher routes other moduli to the
/// scalar reference.
LRDIP_TGT_AVX2 std::uint64_t phi_product_avx2(const Fp& f, std::span<const std::uint64_t> s,
                                              std::uint64_t xr) {
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(f.modulus()));
  const __m256i bm1 = _mm256_set1_epi64x(static_cast<long long>(f.modulus() - 1));
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(f.barrett_m()));
  const __m256i pq = _mm256_set1_epi64x(static_cast<long long>(mont_ninv32(f.modulus())));
  const __m256i xv = _mm256_set1_epi64x(static_cast<long long>(xr));
  const std::uint64_t one = 1 % f.modulus();
  // Elements flow load -> lazy Barrett (< 2p) -> submod (< 2p) -> REDC chain.
  // Each chain step multiplies in one stray 2^{-32}; mont_fixup cancels them
  // all after the lane fold, so the return value matches the scalar path
  // bit-for-bit. Two accumulators hide the (short) REDC chain latency; more
  // would spill — the kernel already keeps six broadcast constants live in a
  // 16-register file.
  __m256i acc0 = _mm256_set1_epi64x(static_cast<long long>(one));
  __m256i acc1 = acc0;
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    __m256i e0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.data() + i));
    __m256i e1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.data() + i + 4));
    e0 = submod_avx2(reduce_lazy_avx2(e0, b, bm1, m), xv, b);
    e1 = submod_avx2(reduce_lazy_avx2(e1, b, bm1, m), xv, b);
    acc0 = mulredc_avx2(acc0, e0, b, bm1, pq);
    acc1 = mulredc_avx2(acc1, e1, b, bm1, pq);
  }
  for (; i + 4 <= s.size(); i += 4) {
    __m256i e = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.data() + i));
    e = submod_avx2(reduce_lazy_avx2(e, b, bm1, m), xv, b);
    acc0 = mulredc_avx2(acc0, e, b, bm1, pq);
  }
  alignas(32) std::uint64_t lanes[8];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), acc1);
  std::uint64_t acc = mont_fixup(f, i);  // cancels the i chain REDCs
  for (std::uint64_t l : lanes) acc = f.mul(acc, l);
  for (; i < s.size(); ++i) acc = f.mul(acc, f.sub(f.reduce(s[i]), xr));
  return acc;
}

LRDIP_TGT_AVX2 void phi_prefix_rows_avx2(const Fp& f, std::span<const std::uint64_t> blk_pos,
                                         int B, std::span<const std::uint64_t> factors,
                                         std::span<std::uint64_t> rows) {
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(f.modulus()));
  const __m256i bm1 = _mm256_set1_epi64x(static_cast<long long>(f.modulus() - 1));
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(f.barrett_m()));
  const __m256i onebit = _mm256_set1_epi64x(1);
  const std::size_t stride = static_cast<std::size_t>(B) + 1;
  std::size_t g = 0;
  for (; g + 4 <= blk_pos.size(); g += 4) {
    const __m256i pos =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blk_pos.data() + g));
    __m256i acc = _mm256_set1_epi64x(1);
    std::uint64_t* r0 = rows.data() + (g + 0) * stride;
    std::uint64_t* r1 = rows.data() + (g + 1) * stride;
    std::uint64_t* r2 = rows.data() + (g + 2) * stride;
    std::uint64_t* r3 = rows.data() + (g + 3) * stride;
    for (int t = 1; t <= B; ++t) {
      r0[t] = static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 0));
      r1[t] = static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 1));
      r2[t] = static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 2));
      r3[t] = static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 3));
      // Lanes whose position word has bit t set absorb the shared factor.
      const __m256i bit =
          _mm256_and_si256(_mm256_srli_epi64(pos, B - t), onebit);
      const __m256i take = _mm256_cmpeq_epi64(bit, onebit);
      const __m256i mult = mulmod_avx2(
          acc, _mm256_set1_epi64x(static_cast<long long>(factors[static_cast<std::size_t>(t)])),
          b, bm1, m);
      acc = _mm256_blendv_epi8(acc, mult, take);
    }
  }
  scalar_phi_prefix_rows(f, blk_pos.subspan(g), B, factors,
                         rows.subspan(g * stride));
}

#endif  // LRDIP_SIMD_X86

/// Shared per-index factors (t - rp) mod p for the prefix-row kernels:
/// identical across blocks, so computed once per call, not per lane.
std::vector<std::uint64_t> prefix_factors(const Fp& f, int B, std::uint64_t rp) {
  std::vector<std::uint64_t> factors(static_cast<std::size_t>(B) + 1, 0);
  for (int t = 1; t <= B; ++t) {
    factors[static_cast<std::size_t>(t)] =
        f.sub(f.reduce(static_cast<std::uint64_t>(t)), f.reduce(rp));
  }
  return factors;
}

}  // namespace

int active_lanes() {
  return simd_lanes(simd_active_level());
}

const char* active_level_name() { return simd_level_name(simd_active_level()); }

void mod_span(std::uint64_t bound, std::span<std::uint64_t> x) {
  LRDIP_CHECK(bound >= 1);
  if (bound == 1) {
    for (std::uint64_t& v : x) v = 0;
    return;
  }
  if (bound >= (std::uint64_t{1} << 32)) {
    // Coin bounds can in principle exceed the field range; the hardware
    // divide is the reference there (no protocol draws such coins today).
    for (std::uint64_t& v : x) v %= bound;
    return;
  }
  const std::uint64_t m = barrett_m_for(bound);
#if LRDIP_SIMD_X86
  if (simd_active_level() == SimdLevel::avx2) {
    reduce_span_avx2(x, bound, m);
    return;
  }
#endif
  scalar_reduce_span(x, bound, m);
}

std::uint64_t phi_product(const Fp& f, std::span<const std::uint64_t> multiset,
                          std::uint64_t x) {
  const std::uint64_t xr = f.reduce(x);
#if LRDIP_SIMD_X86
  // Moduli outside the Montgomery gate (p = 2 or p >= 2^31) never reach a
  // protocol path; they take the scalar reference.
  if (simd_active_level() == SimdLevel::avx2 && mont_ok(f.modulus())) {
    return phi_product_avx2(f, multiset, xr);
  }
#endif
  return scalar_phi_product(f, multiset, xr);
}

void phi_prefix_rows(const Fp& f, std::span<const std::uint64_t> blk_pos, int B,
                     std::uint64_t rp, std::span<std::uint64_t> rows) {
  LRDIP_CHECK(B >= 1 && B <= 63);
  LRDIP_CHECK(rows.size() >= blk_pos.size() * (static_cast<std::size_t>(B) + 1));
  const std::vector<std::uint64_t> factors = prefix_factors(f, B, rp);
#if LRDIP_SIMD_X86
  if (simd_active_level() == SimdLevel::avx2) {
    phi_prefix_rows_avx2(f, blk_pos, B, factors, rows);
    return;
  }
#endif
  scalar_phi_prefix_rows(f, blk_pos, B, factors, rows);
}

}  // namespace lrdip::fp_simd
