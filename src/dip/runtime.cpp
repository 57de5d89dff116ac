#include "dip/runtime.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "dip/arena.hpp"
#include "dip/parallel.hpp"
#include "obs/metrics.hpp"
#include "support/mmap.hpp"

namespace lrdip {
namespace {

Outcome run_item(const BatchItem& it, const RunOptions& opt) {
  Rng rng(it.seed);
  return run_protocol(it.inst, opt, rng, it.faults);
}

}  // namespace

std::vector<BatchItem> replicate_item(const Instance& inst, std::uint64_t seed0, int k) {
  std::vector<BatchItem> items;
  items.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    items.push_back({inst, seed0 + static_cast<std::uint64_t>(i)});
  }
  return items;
}

Runtime::Runtime(Config cfg) : cfg_(cfg) { pool::retain(); }

Runtime::~Runtime() { pool::release(); }

Outcome Runtime::run(const Instance& inst, Rng& rng, FaultInjector* faults) const {
  return run_protocol(inst, cfg_.options, rng, faults);
}

std::vector<Outcome> Runtime::run_batch(std::span<const BatchItem> items) const {
  std::vector<Outcome> out(items.size());
  std::vector<std::size_t> small;
  std::vector<std::size_t> large;
  for (std::size_t i = 0; i < items.size(); ++i) {
    (items[i].inst.graph().n() < cfg_.small_instance_threshold ? small : large).push_back(i);
  }
  // Across-instance axis: one whole execution per worker (grain 1). The
  // engine inlines nested parallel regions on workers, so each execution is
  // byte-identical to running alone on one thread; writes are disjoint
  // (out[idx]), so the batch result is thread-count-invariant.
  parallel_for(
      static_cast<std::int64_t>(small.size()),
      [&](std::int64_t i) {
        const std::size_t idx = small[static_cast<std::size_t>(i)];
        out[idx] = run_item(items[idx], cfg_.options);
      },
      /*grain=*/1);
  // Within-instance axis: sequential over items, full pool inside each.
  for (const std::size_t idx : large) {
    out[idx] = run_item(items[idx], cfg_.options);
  }
  return out;
}

ShardRunReport Runtime::run_sharded(const ShardManifest& manifest,
                                    const ShardRunOptions& opt) const {
  const auto clamp_int = [](std::uint64_t v) {
    return static_cast<int>(std::min<std::uint64_t>(v, std::numeric_limits<int>::max()));
  };
  // The obs run record reuses the metrics task namespace with a shard: prefix
  // so sharded sweeps are distinguishable from interactive executions.
  const std::string task = std::string("shard:") + shard_family_name(manifest.params.family);
  obs::RunScope run_scope(task.c_str(), clamp_int(manifest.params.n),
                          clamp_int(manifest.total_halves / 2));

  ShardSweep sweep(manifest, opt.verify);
  {
    obs::ScopedTimer timer("shard_sweep_stage");
    for (const ShardInfo& info : manifest.shards) {
      // One shard mapped at a time: the previous one unmaps before the next
      // opens, so residency never exceeds one drop-behind window plus carry.
      MappedShard shard = open_shard(manifest.shard_path(info), opt.limits);
      const std::string mismatch = validate_shard_against_manifest(shard, manifest, info);
      if (!mismatch.empty()) throw GraphParseError(mismatch);
      sweep.consume(shard);
    }
  }

  ShardRunReport report;
  report.outcome = sweep.finalize();
  report.digest = sweep.digest();
  report.n = manifest.params.n;
  report.halves = sweep.halves_seen();
  report.shard_count = manifest.shard_count;
  report.max_stack_depth = sweep.max_stack_depth();
  report.peak_rss_kb = peak_rss_kb();

  if (obs::metrics_enabled()) {
    std::array<std::int64_t, 5> reasons{};
    reasons[static_cast<std::size_t>(report.outcome.reject_reason)] +=
        report.outcome.rejected_nodes;
    obs::MetricsRegistry::instance().record_outcome(
        report.outcome.accepted, report.outcome.rounds, report.outcome.proof_size_bits,
        report.outcome.total_label_bits, report.outcome.max_coin_bits,
        report.outcome.rejected_nodes, reasons);
    obs::MetricsRegistry::instance().record_barrett(Fp::barrett_always_enabled());
  }
  return report;
}

ShardRunReport Runtime::run_sharded(const std::string& manifest_path,
                                    const ShardRunOptions& opt) const {
  return run_sharded(read_shard_manifest(manifest_path, opt.limits), opt);
}

}  // namespace lrdip
