// Batched Barrett kernels over F_p spans, runtime-dispatched (see
// support/cpu.hpp).
//
// The verifier's hot loops are all multiset-polynomial work — per-node
// evaluations of phi_S(x) = prod_{s in S}(s - x) over a polylog-sized prime
// field — which is data-parallel across elements, nodes and blocks. These
// kernels run that arithmetic 4 lanes at a time (AVX2) on contiguous
// std::uint64_t spans, with the scalar Fp path as the always-available
// fallback and the reference the exhaustive tests cross-check against.
//
// Dispatch invariance: every kernel returns bit-identical results at both
// dispatch levels. Reductions are exact (the vector Barrett sequence computes
// the same x mod p the scalar sequence does), and products over F_p are
// associative and commutative, so regrouping a product across lanes cannot
// change its value. The AVX2 phi-product accumulator chains additionally run
// in Montgomery form for odd p < 2^31 (three 32x32 multiplies per step
// instead of a full Barrett mulmod); the stray 2^{-32} factor each step
// introduces is cancelled exactly by one scalar multiplication with
// 2^{32K} mod p at the end, so the returned value is still the plain product.
// Every registry modulus passes that gate; p = 2 and p >= 2^31 take the
// scalar reference. That invariance is what keeps the golden-transcript
// digests (tests/test_golden_transcript.cpp) byte-identical across hosts and
// forced LRDIP_SIMD levels.
//
// The vector path requires p < 2^32 — guaranteed since Fp enforces it at
// construction — so reduced operands multiply exactly inside 64 bits and the
// Barrett constant m = floor(2^64 / p) drives a divide-free reduce.
#pragma once

#include <cstdint>
#include <span>

#include "field/fp.hpp"

namespace lrdip::fp_simd {

/// Lanes the active dispatch level processes per step (1 or 4; see
/// simd_lanes). Benchmarks record this next to their throughput numbers.
int active_lanes();

/// Name of the active dispatch level ("scalar" | "avx2").
const char* active_level_name();

/// In place x[i] <- x[i] mod bound, for any bound >= 1 (plain Barrett on the
/// raw modulus — no primality needed). The batched coin expansion uses this
/// to turn raw rejection-sampled words into uniform draws.
void mod_span(std::uint64_t bound, std::span<std::uint64_t> x);

/// phi_S(x) = prod_{s in S}(s - x) mod p; elements reduced mod p before use.
/// Value-identical to Fp::multiset_poly at every dispatch level.
std::uint64_t phi_product(const Fp& f, std::span<const std::uint64_t> multiset, std::uint64_t x);

/// LR-sorting prefix-product rows, one lane per block. For each block b with
/// B-bit position word blk_pos[b], fills rows[b * (B + 1) + t] for t = 1..B
/// with the product over t' < t of (t' - rp) restricted to set bits of the
/// position word — exactly the phi^b prefix table lr_sorting.cpp queries per
/// edge commitment. rows must hold blk_pos.size() * (B + 1) words; slot 0 of
/// each row is left untouched.
void phi_prefix_rows(const Fp& f, std::span<const std::uint64_t> blk_pos, int B, std::uint64_t rp,
                     std::span<std::uint64_t> rows);

}  // namespace lrdip::fp_simd
