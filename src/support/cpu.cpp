#include "support/cpu.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace lrdip {
namespace {

#if defined(__x86_64__) || defined(__i386__)
SimdLevel detect_host_level() {
  // __builtin_cpu_supports self-initializes on gcc and clang.
  return __builtin_cpu_supports("avx2") ? SimdLevel::avx2 : SimdLevel::scalar;
}
#else
SimdLevel detect_host_level() { return SimdLevel::scalar; }
#endif

// -1 = no forced level; otherwise the int value of the forced SimdLevel.
std::atomic<int> g_forced_level{-1};

SimdLevel env_or_host_level() {
  static const SimdLevel cached = [] {
    const SimdLevel host = detect_host_level();
    if (const char* env = std::getenv("LRDIP_SIMD")) {
      if (const auto parsed = parse_simd_level(env)) {
        return std::min(*parsed, host);
      }
    }
    return host;
  }();
  return cached;
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::scalar:
      return "scalar";
    case SimdLevel::avx2:
      return "avx2";
  }
  return "?";
}

int simd_lanes(SimdLevel level) {
  switch (level) {
    case SimdLevel::scalar:
      return 1;
    case SimdLevel::avx2:
      return 4;
  }
  return 1;
}

std::optional<SimdLevel> parse_simd_level(std::string_view name) {
  if (name == "scalar") return SimdLevel::scalar;
  if (name == "avx2") return SimdLevel::avx2;
  return std::nullopt;
}

SimdLevel simd_host_level() {
  static const SimdLevel cached = detect_host_level();
  return cached;
}

SimdLevel simd_active_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return std::min(static_cast<SimdLevel>(forced), simd_host_level());
  return env_or_host_level();
}

void set_simd_level(std::optional<SimdLevel> level) {
  g_forced_level.store(level ? static_cast<int>(*level) : -1, std::memory_order_relaxed);
}

}  // namespace lrdip
