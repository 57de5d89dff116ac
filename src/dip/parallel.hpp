// Parallel per-node verification engine.
//
// The final decision step of every protocol is embarrassingly parallel by the
// KOS18 locality constraint: node v's decision reads only v's own coins and
// the labels of v's closed neighborhood, and writes only v's accept flag.
// parallel_for runs such loops on a persistent std::thread pool.
//
// The pool is process-wide and serves one region at a time: a region that
// starts while another thread's region holds the pool runs inline on its own
// caller, as nested regions do.
//
// Determinism contract: the loop body must write only to slots owned by its
// index (disjoint writes) and must not read anything another iteration
// writes. Under that contract the result is byte-identical for every thread
// count, including 1 — chunk scheduling order is unobservable. Exceptions
// thrown by the body are captured and rethrown in the calling thread; when
// several chunks throw, the lowest-indexed chunk's exception wins, so even
// failure is deterministic.
//
// Thread count: LRDIP_THREADS overrides std::thread::hardware_concurrency();
// set_parallel_threads() overrides both (tests and benchmarks use it to pin
// the count). Loops shorter than the grain run inline on the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace lrdip {

/// Threads the executor would use right now (>= 1).
int parallel_threads();

/// Pins the executor's thread count; 0 restores the env/hardware default.
void set_parallel_threads(int threads);

namespace detail {
using RangeBody = std::function<void(std::int64_t begin, std::int64_t end)>;
void parallel_for_ranges(std::int64_t n, std::int64_t grain, const RangeBody& body);
/// As parallel_for_ranges, but with explicit chunk boundaries: chunk k runs
/// [bounds[k], bounds[k+1]). bounds must be strictly increasing from 0 to n.
void parallel_for_chunks(std::int64_t n, std::span<const std::int64_t> bounds,
                         const RangeBody& body);
}  // namespace detail

/// Runs body(i) for every i in [0, n), distributed over the thread pool.
template <typename F>
void parallel_for(std::int64_t n, F&& body, std::int64_t grain = 512) {
  auto f = std::forward<F>(body);
  detail::parallel_for_ranges(n, grain, [&f](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) f(i);
  });
}

/// Cost-weighted chunk boundaries for parallel_for_weighted. `prefix` is any
/// indexable monotone prefix-cost array with prefix[i] = total cost of
/// indices < i and size n + 1 — a CSR offset array qualifies verbatim. The
/// boundaries split [0, n) into ceil(n / grain) non-empty chunks of roughly
/// equal cost. They are a pure function of (n, prefix, grain) — never of the
/// thread count — which is what keeps both results and the lowest-failing-
/// chunk exception choice identical at any parallelism.
template <typename Prefix>
std::vector<std::int64_t> weighted_chunk_bounds(std::int64_t n, const Prefix& prefix,
                                                std::int64_t grain = 512) {
  if (grain < 1) grain = 1;
  const std::int64_t chunks = n <= 0 ? 0 : (n + grain - 1) / grain;
  std::vector<std::int64_t> bounds(static_cast<std::size_t>(chunks < 1 ? 1 : chunks) + 1, 0);
  bounds.back() = n < 0 ? 0 : n;
  if (chunks <= 1) return bounds;
  const auto base = static_cast<std::int64_t>(prefix[0]);
  const std::int64_t total =
      static_cast<std::int64_t>(prefix[static_cast<std::size_t>(n)]) - base;
  std::int64_t i = 0;
  for (std::int64_t k = 1; k < chunks; ++k) {
    // Smallest boundary whose left cost reaches k/chunks of the total,
    // clamped so every chunk keeps at least one index. 128-bit intermediate:
    // total * k can exceed 64 bits on edge-heavy instances.
    const auto target = base + static_cast<std::int64_t>(
        static_cast<unsigned __int128>(total) * static_cast<unsigned __int128>(k) /
        static_cast<unsigned __int128>(chunks));
    const std::int64_t hi = n - (chunks - k);
    if (i < bounds[static_cast<std::size_t>(k) - 1] + 1) {
      i = bounds[static_cast<std::size_t>(k) - 1] + 1;
    }
    while (i < hi && static_cast<std::int64_t>(prefix[static_cast<std::size_t>(i)]) < target) ++i;
    bounds[static_cast<std::size_t>(k)] = i;
  }
  return bounds;
}

/// parallel_for with degree-aware scheduling: chunk boundaries come from the
/// prefix-cost array (see weighted_chunk_bounds) instead of a fixed index
/// grain, so a few high-cost indices — e.g. hub nodes in a skewed degree
/// distribution — no longer serialize the tail of the loop inside one chunk.
/// Same determinism contract as parallel_for.
template <typename Prefix, typename F>
void parallel_for_weighted(std::int64_t n, const Prefix& prefix, F&& body,
                           std::int64_t grain = 512) {
  auto f = std::forward<F>(body);
  const std::vector<std::int64_t> bounds = weighted_chunk_bounds(n, prefix, grain);
  detail::parallel_for_chunks(n, bounds, [&f](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) f(i);
  });
}

}  // namespace lrdip
