#include "dip/runtime.hpp"

#include "dip/arena.hpp"
#include "dip/parallel.hpp"

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
    (items[i].inst.graph().n() < kSmallInstanceThreshold ? small : large).push_back(i);
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

}  // namespace lrdip
