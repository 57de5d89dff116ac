// Prime-field arithmetic F_p for the polynomial-identity tests.
//
// All protocol fields in the paper have p = polylog(n), so a 64-bit modulus
// with 128-bit intermediate products is ample. Fp is a value type describing
// the field; Fe ("field element") operations are free functions on it.
//
// Reduction avoids the hardware divide on the hot path: the constructor
// precomputes the Barrett constant m = floor(2^64 / p), and reduce() rewrites
// x mod p as x - floor(x * m / 2^64) * p with at most two conditional
// subtractions. Moduli at or above 2^32 are rejected at construction — no
// protocol field is remotely that large (p is polylog(n)), and the old
// silent divide-based fallback cost ~10x on the hot path, so an oversized
// modulus is a caller bug that should be loud, not slow. The SIMD span
// kernels (field/fp_simd.hpp) lean on the same bound: reduced operands
// multiply exactly inside 64 bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/bits.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace lrdip {

class Fp {
 public:
  explicit Fp(std::uint64_t p);

  std::uint64_t modulus() const { return p_; }

  /// Bits to transmit one field element.
  int element_bits() const { return bits_for_values(p_); }

  /// The precomputed floor(2^64 / p). The span kernels in field/fp_simd.hpp
  /// replay the same Barrett sequence lane-parallel.
  std::uint64_t barrett_m() const { return barrett_m_; }

  /// x mod p for any 64-bit x.
  std::uint64_t reduce(std::uint64_t x) const {
    // q underestimates floor(x / p) by at most 2 (see the header comment),
    // so the correction loop runs at most twice.
    const std::uint64_t q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * barrett_m_) >> 64);
    std::uint64_t r = x - q * p_;
    while (r >= p_) r -= p_;
    return r;
  }

  std::uint64_t add(std::uint64_t a, std::uint64_t b) const {
    const std::uint64_t s = a + b;
    return s >= p_ ? s - p_ : s;
  }

  std::uint64_t sub(std::uint64_t a, std::uint64_t b) const {
    return a >= b ? a - b : a + p_ - b;
  }

  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    // Divide-free whenever the product fits 64 bits; reduced operands always
    // do (p < 2^32 by construction).
    if (((a | b) >> 32) == 0) return reduce(a * b);
    return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % p_);
  }

  std::uint64_t pow(std::uint64_t base, std::uint64_t exp) const {
    std::uint64_t r = 1 % p_;
    base = reduce(base);
    while (exp > 0) {
      if (exp & 1) r = mul(r, base);
      base = mul(base, base);
      exp >>= 1;
    }
    return r;
  }

  std::uint64_t inv(std::uint64_t a) const {
    LRDIP_CHECK_MSG(reduce(a) != 0, "inverse of zero");
    return pow(a, p_ - 2);
  }

  /// Uniform element of the field.
  std::uint64_t sample(Rng& rng) const { return rng.uniform(p_); }

  /// Fills `out` with uniform field elements, value-identical to calling
  /// sample() out.size() times (same rng stream: rejection happens on the raw
  /// words, the final mod-p folds through the batched Barrett kernel).
  void sample_span(Rng& rng, std::span<std::uint64_t> out) const;

  /// Evaluate the multiset polynomial phi_S(x) = prod_{s in S} (s - x) at x.
  /// Elements are reduced mod p before use. This scalar loop is the reference
  /// implementation; hot paths call fp_simd::phi_product, which is
  /// value-identical (see field/fp_simd.hpp).
  std::uint64_t multiset_poly(std::span<const std::uint64_t> multiset, std::uint64_t x) const {
    std::uint64_t acc = 1 % p_;
    const std::uint64_t xr = reduce(x);
    for (std::uint64_t s : multiset) acc = mul(acc, sub(reduce(s), xr));
    return acc;
  }

 private:
  std::uint64_t p_;
  std::uint64_t barrett_m_ = 0;  // floor(2^64 / p); always set (p < 2^32)
};

}  // namespace lrdip
