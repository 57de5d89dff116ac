// FNV-1a digests for transcript regression tests.
//
// The golden-transcript tests and the adversary's CapturedTranscript need a
// stable fingerprint of "what the prover sent": a digest that changes iff any
// field value or declared width in any label changes. FNV-1a over the raw
// 64-bit words is enough — this is a regression tripwire, not a cryptographic
// commitment — and keeping it header-only with no dependencies lets tests and
// src/adversary share one definition.
#pragma once

#include <cstdint>
#include <span>

namespace lrdip {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Folds one 64-bit word into a running FNV-1a digest, byte by byte.
inline std::uint64_t fnv1a_word(std::uint64_t digest, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xffu;
    digest *= kFnvPrime;
  }
  return digest;
}

/// Folds a span of words, value-identical to calling fnv1a_word in order.
/// The mixing itself stays scalar: FNV-1a interleaves xor with a multiply, so
/// the chain cannot be split across lanes without changing the digest. What
/// batching buys is the feed — callers gather scattered label fields into one
/// contiguous buffer and fold it in a single tight loop, instead of
/// interleaving per-field accessor calls with the mixing.
inline std::uint64_t fnv1a_span(std::uint64_t digest, std::span<const std::uint64_t> words) {
  for (std::uint64_t w : words) digest = fnv1a_word(digest, w);
  return digest;
}

}  // namespace lrdip
