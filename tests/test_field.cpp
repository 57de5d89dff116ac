#include <gtest/gtest.h>

#include "field/fp.hpp"
#include "field/primes.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(Primes, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
  EXPECT_TRUE(is_prime(7919));
}

TEST(Primes, LargeValues) {
  EXPECT_TRUE(is_prime((1ULL << 61) - 1));  // Mersenne prime
  EXPECT_FALSE(is_prime((1ULL << 62) - 1));
  EXPECT_TRUE(is_prime(1000000007ULL));
}

TEST(Primes, NextPrimeAbove) {
  EXPECT_EQ(next_prime_above(1), 2u);
  EXPECT_EQ(next_prime_above(2), 3u);
  EXPECT_EQ(next_prime_above(10), 11u);
  EXPECT_EQ(next_prime_above(7919), 7927u);
  const auto p = next_prime_above(1 << 20);
  EXPECT_TRUE(is_prime(p));
  EXPECT_GT(p, 1u << 20);
}

TEST(Fp, BasicArithmetic) {
  Fp f(101);
  EXPECT_EQ(f.add(100, 5), 4u);
  EXPECT_EQ(f.sub(3, 10), 94u);
  EXPECT_EQ(f.mul(50, 50), 2500 % 101);
  EXPECT_EQ(f.pow(2, 10), 1024 % 101);
}

TEST(Fp, FermatInverse) {
  Fp f(10007);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto a = 1 + rng.uniform(10006);
    EXPECT_EQ(f.mul(a, f.inv(a)), 1u);
  }
}

TEST(Fp, RejectsComposite) { EXPECT_THROW(Fp(100), InvariantError); }

TEST(Fp, ElementBits) {
  EXPECT_EQ(Fp(2).element_bits(), 1);
  EXPECT_EQ(Fp(127).element_bits(), 7);
  EXPECT_EQ(Fp(131).element_bits(), 8);
}

TEST(Fp, MultisetPolyMatchesDirectProduct) {
  Fp f(1009);
  const std::vector<std::uint64_t> s{3, 3, 17, 250};
  for (std::uint64_t x : {0ULL, 1ULL, 42ULL, 1008ULL}) {
    std::uint64_t expect = 1;
    for (auto e : s) expect = f.mul(expect, f.sub(e % 1009, x));
    EXPECT_EQ(f.multiset_poly(s, x), expect);
  }
}

TEST(Fp, MultisetPolySeparatesMultisets) {
  // Polynomial identity testing: unequal multisets disagree at most points.
  Fp f(next_prime_above(1 << 16));
  const std::vector<std::uint64_t> s1{1, 2, 3, 4, 5};
  const std::vector<std::uint64_t> s2{1, 2, 3, 4, 6};
  Rng rng(2);
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto z = f.sample(rng);
    collisions += (f.multiset_poly(s1, z) == f.multiset_poly(s2, z));
  }
  EXPECT_LE(collisions, 2);
}

TEST(Fp, BarrettMatchesNaiveReductionExhaustively) {
  // Exhaustive product cross-check for every small prime: the Barrett path
  // must agree with the hardware-divide reference on all of F_p x F_p.
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 31ULL, 61ULL, 127ULL,
                          251ULL, 257ULL}) {
    Fp f(p);
    for (std::uint64_t a = 0; a < p; ++a) {
      for (std::uint64_t b = 0; b < p; ++b) {
        ASSERT_EQ(f.mul(a, b), a * b % p) << "p=" << p << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Fp, BarrettReduceMatchesNaiveOnFullRange) {
  // reduce() accepts any 64-bit input; stress the whole range, including the
  // wrap-around extremes, against %.
  Rng rng(7);
  for (std::uint64_t p :
       {2ULL, 3ULL, 97ULL, 7919ULL, 65521ULL, 16777213ULL, 4294967291ULL /* largest p < 2^32 */}) {
    Fp f(p);
    for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1}, p - 1, p, p + 1, 2 * p,
                            ~std::uint64_t{0}, ~std::uint64_t{0} - 1, std::uint64_t{1} << 63}) {
      ASSERT_EQ(f.reduce(x), x % p) << "p=" << p << " x=" << x;
    }
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t x = rng.next_u64();
      ASSERT_EQ(f.reduce(x), x % p) << "p=" << p << " x=" << x;
    }
  }
}

TEST(Fp, ModulusAtOrAbove2To32IsRejected) {
  // Protocol fields are polylog(n)-sized; an oversized modulus would push the
  // hot path onto a silent divide fallback, so construction refuses it.
  EXPECT_THROW(Fp((1ULL << 61) - 1), InvariantError);  // prime, but too large
  EXPECT_THROW(Fp(1ULL << 32), InvariantError);
  EXPECT_NO_THROW(Fp(4294967291ULL));  // largest prime below 2^32
}

TEST(Fp, MultisetPolyOrderInvariant) {
  Fp f(997);
  const std::vector<std::uint64_t> a{9, 1, 500, 500};
  const std::vector<std::uint64_t> b{500, 9, 500, 1};
  for (std::uint64_t x = 0; x < 30; ++x) {
    EXPECT_EQ(f.multiset_poly(a, x), f.multiset_poly(b, x));
  }
}

}  // namespace
}  // namespace lrdip
