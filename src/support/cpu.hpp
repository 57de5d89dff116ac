// Runtime CPU dispatch for the SIMD field kernels.
//
// The batched Barrett kernels in src/field/fp_simd.hpp ship two code paths —
// scalar and AVX2 (4 lanes) — selected once per process from CPUID. Both
// compute bit-identical results (modular products are associative and
// commutative, so lane grouping is unobservable), which is what lets the
// golden-transcript digests stay pinned across hosts.
//
// Override order: set_simd_level() (tests/benchmarks) beats the LRDIP_SIMD
// environment variable ("scalar" | "avx2"; any other value means no
// override), which beats CPUID. Overrides are clamped to what the host
// actually supports — forcing avx2 on a machine without it, or on a non-x86
// host, runs scalar — so a forced level is always safe to set.
#pragma once

#include <optional>
#include <string_view>

namespace lrdip {

/// Widest vector path the field kernels may take. Order is meaningful:
/// higher levels strictly extend lower ones, so clamping is min().
enum class SimdLevel : int { scalar = 0, avx2 = 1 };

/// Stable lowercase name, matching the LRDIP_SIMD spelling.
const char* simd_level_name(SimdLevel level);

/// 64-bit lanes the field kernels process per step at `level` (1 or 4).
int simd_lanes(SimdLevel level);

/// Parses an LRDIP_SIMD value; nullopt for unknown or empty spellings
/// (empty means "no override", not "scalar").
std::optional<SimdLevel> parse_simd_level(std::string_view name);

/// Widest level this machine supports (CPUID; scalar on non-x86 builds).
SimdLevel simd_host_level();

/// Level the kernels will dispatch to right now: the forced level if one is
/// set, else the LRDIP_SIMD override, else the host level — always clamped
/// to simd_host_level().
SimdLevel simd_active_level();

/// Pins the dispatch level (clamped to the host); nullopt restores the
/// env/CPUID default. Tests and benchmarks use this to cross-check paths.
void set_simd_level(std::optional<SimdLevel> level);

}  // namespace lrdip
