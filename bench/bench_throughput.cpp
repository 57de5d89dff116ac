// Experiment E-PERF: wall-clock throughput of the simulated protocols
// (google-benchmark). Not a paper claim — an engineering datum showing the
// library runs the full 5-round pipeline at interactive speeds.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dip/parallel.hpp"
#include "dip/runtime.hpp"
#include "field/fp_simd.hpp"
#include "graph/planarity.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/registry.hpp"
#include "support/cpu.hpp"

namespace {

using namespace lrdip;
using namespace lrdip::bench;

// Experiment E-SIMD: the batched Barrett phi-product kernel, scalar vs AVX2
// vs AVX-512, over span lengths 2^10..2^20. The protocol benchmarks above
// measure end-to-end effect; this isolates the kernel so the dispatch levels
// can be compared on identical inputs. Levels the host cannot run are
// skipped. The forced level is restored after each run, so the remaining
// benchmarks stay on the host default.
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
    ->ArgsProduct({{static_cast<long>(SimdLevel::scalar), static_cast<long>(SimdLevel::avx2),
                    static_cast<long>(SimdLevel::avx512)},
                   {1L << 10, 1L << 14, 1L << 17, 1L << 20}});

void BM_LrSorting(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng gen_rng(42);
  const LrInstance gi = random_lr_yes(n, 1.0, gen_rng);
  const LrSortingInstance inst = to_protocol_instance(gi);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_lr_sorting(inst, {3}, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LrSorting)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_PathOuterplanarity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng gen_rng(43);
  const auto gi = random_path_outerplanar(n, 1.0, gen_rng);
  const PathOuterplanarityInstance inst{&gi.graph, gi.order};
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_path_outerplanarity(inst, {3}, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PathOuterplanarity)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_PlanarEmbedding(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng gen_rng(44);
  const auto gi = random_planar(n, 0.4, gen_rng);
  const PlanarEmbeddingInstance inst{&gi.graph, &gi.rotation};
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_planar_embedding(inst, {3}, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlanarEmbedding)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 15);

// The centralized Boyer–Myrvold engine behind planar_embedding on a
// seed-pinned random planar instance; the full asymptotic sweep up to 2^22
// lives in bench_planarity (EXPERIMENTS.md E-EMBED).
void BM_Planarity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng gen_rng(45);
  const auto gi = random_planar(n, 0.4, gen_rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planar_embedding(gi.graph));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Planarity)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 17);

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

// Batch throughput through Runtime::run_batch: `count` mixed-task instances
// (round-robin over the registry) of `n` nodes each. The 64x256 shape is the
// across-instance regime (whole executions spread over workers); 16x4096 is
// the boundary toward within-instance parallelism. BM_BatchLoop runs the same
// work as a sequential per-item loop — the batch speedup is the gap.
std::vector<BoundInstance> make_batch_instances(int count, int n) {
  std::vector<BoundInstance> out;
  out.reserve(count);
  const auto specs = protocol_registry();
  for (int i = 0; i < count; ++i) {
    Rng gen_rng(0xba7c4000ull + static_cast<std::uint64_t>(i));
    out.push_back(specs[static_cast<std::size_t>(i) % specs.size()].make_yes(n, gen_rng));
  }
  return out;
}

std::vector<BatchItem> make_batch_items(const std::vector<BoundInstance>& bound) {
  std::vector<BatchItem> items;
  items.reserve(bound.size());
  for (std::size_t i = 0; i < bound.size(); ++i) {
    items.push_back({bound[i].view(), 1000 + static_cast<std::uint64_t>(i)});
  }
  return items;
}

void BM_Batch(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const std::vector<BoundInstance> bound = make_batch_instances(count, n);
  const std::vector<BatchItem> items = make_batch_items(bound);
  const Runtime rt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.run_batch(items));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_Batch)->Args({64, 256})->Args({16, 4096});

void BM_BatchLoop(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const std::vector<BoundInstance> bound = make_batch_instances(count, n);
  const std::vector<BatchItem> items = make_batch_items(bound);
  const Runtime rt;
  for (auto _ : state) {
    std::vector<Outcome> out;
    out.reserve(items.size());
    for (const BatchItem& it : items) {
      Rng rng(it.seed);
      out.push_back(rt.run(it.inst, rng));
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BatchLoop)->Args({64, 256})->Args({16, 4096});

void BM_InstanceGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_path_outerplanar(n, 1.0, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InstanceGeneration)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults the reporter to a google-benchmark JSON
// file (BENCH_throughput.json in the working directory) so every run leaves a
// machine-readable artifact. An explicit --benchmark_out on the command line
// wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_throughput.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  benchmark::AddCustomContext("simd_host_level",
                              lrdip::simd_level_name(lrdip::simd_host_level()));
  benchmark::AddCustomContext("simd_active_level", lrdip::fp_simd::active_level_name());
  benchmark::AddCustomContext("simd_active_lanes", std::to_string(lrdip::fp_simd::active_lanes()));
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
