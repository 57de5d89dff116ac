// The two throughput measurements perfbench (perfbench/README.md) cannot
// take: the phi-product kernel at each dispatch level (perfbench records
// only the active one) and LR-sorting thread scaling (perfbench pins its
// thread count). End-to-end protocol, batch, generator and planarity timings
// live in perfbench. Writes google-benchmark output; pass
// --benchmark_out=<file> --benchmark_out_format=json for a JSON record.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "dip/parallel.hpp"
#include "field/fp_simd.hpp"
#include "support/cpu.hpp"

namespace {

using namespace lrdip;
using namespace lrdip::bench;

// Experiment E-SIMD: the batched Barrett phi-product kernel, scalar vs AVX2,
// over span lengths 2^10..2^20, on identical inputs. Levels the host cannot
// run are skipped. The forced level is restored after each run, so the
// thread-scaling benchmark stays on the host default.
void BM_PhiBatch(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  const auto size = static_cast<std::size_t>(state.range(1));
  if (level > simd_host_level()) {
    state.SkipWithError("dispatch level unsupported on this host");
    return;
  }
  const Fp f(1000003);  // representative polylog-sized modulus
  Rng rng(0x5eed);
  std::vector<std::uint64_t> span(size);
  for (std::uint64_t& v : span) v = rng.next_u64();
  const std::uint64_t x = f.sample(rng);
  set_simd_level(level);
  state.SetLabel(simd_level_name(level));
  state.counters["lanes"] = static_cast<double>(fp_simd::active_lanes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp_simd::phi_product(f, span, x));
  }
  set_simd_level(std::nullopt);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_PhiBatch)
    ->ArgsProduct({{static_cast<long>(SimdLevel::scalar), static_cast<long>(SimdLevel::avx2)},
                   {1L << 10, 1L << 14, 1L << 17, 1L << 20}});

// Thread scaling of the parallel verification engine at the largest
// LR-sorting size. On a single-core host all entries coincide; on multicore
// hosts the curve shows the per-node decision loops scaling.
void BM_LrSortingThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng gen_rng(42);
  const LrInstance gi = random_lr_yes(1 << 17, 1.0, gen_rng);
  const LrSortingInstance inst = to_protocol_instance(gi);
  Rng rng(1);
  set_parallel_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_lr_sorting(inst, {3}, rng));
  }
  set_parallel_threads(0);
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_LrSortingThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
