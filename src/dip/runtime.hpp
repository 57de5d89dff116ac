// The batch-capable execution engine over the protocol registry.
//
// A Runtime is a long-lived object that amortizes per-execution substrate
// costs across many protocol runs: while one is alive, LabelArena slabs and
// CoinStore buffers recycle through a per-thread slab pool instead of going
// back to the allocator (dip/arena.hpp), and the prime thresholds the PIT
// fields ask for are served from the process-wide cache (field/primes.hpp).
// The per-node verification loops keep using the persistent parallel engine
// (dip/parallel.hpp); metrics flow into the usual obs::MetricsRegistry sink
// when metering is enabled by the caller.
//
// run_batch executes a span of (instance, seed) items and picks the
// parallelism AXIS per item, never nesting blindly:
//
//   * small instances (n < kSmallInstanceThreshold) run ACROSS the
//     batch — one whole execution per worker. Inside a worker the engine's
//     nested-region rule makes every inner parallel_for run inline, so each
//     execution is byte-identical to a single-threaded run of itself;
//   * large instances run sequentially WITHIN-parallel — per-node loops use
//     the full pool, which under the disjoint-writes contract is already
//     thread-count-invariant.
//
// Determinism contract: every item carries its own seed and its Outcome
// depends on nothing but (instance, seed, options). run_batch is therefore
// bit-identical to the sequential loop `for (item : items) run(item)` at any
// thread count, including 1. Several threads may share one Runtime: the
// engine's pool serves one region at a time, and a region started while
// another thread's holds it runs inline on its caller, which the contract
// makes unobservable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dip/store.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

/// One unit of batch work: a borrowed instance view plus the seed of the
/// private verifier randomness stream for this execution. `faults`, when
/// non-null, is the transcript adversary attached to this execution (random
/// FaultInjector or a strategic prover from src/adversary). Adversaries are
/// stateful per run, so every item must carry its OWN object — items sharing
/// one pointer would race across batch workers and break the determinism
/// contract.
struct BatchItem {
  Instance inst;
  std::uint64_t seed = 1;
  FaultInjector* faults = nullptr;
};

/// The per-coin-seed replication axis: K executions of one instance that
/// differ only in the verifier's coin seed (seed0, seed0 + 1, ...). This is
/// how the soundness estimator turns one (instance, strategy) pair into a
/// batch; attach per-item adversaries afterwards.
std::vector<BatchItem> replicate_item(const Instance& inst, std::uint64_t seed0, int k);

/// run_batch's axis choice: instances below this node count parallelize
/// across the batch; at or above it, within the instance. Roughly where one
/// execution's per-node loops start winning over cross-instance spread on a
/// default pool.
inline constexpr int kSmallInstanceThreshold = 2048;

class Runtime {
 public:
  struct Config {
    RunOptions options;
  };

  Runtime() : Runtime(Config{}) {}
  explicit Runtime(Config cfg);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const Config& config() const { return cfg_; }

  /// One execution through the registry, on this runtime's substrate.
  /// Identical in distribution (and, per seed, in bits) to run_protocol.
  Outcome run(const Instance& inst, Rng& rng, FaultInjector* faults = nullptr) const;

  /// Executes every item and returns Outcomes in item order. Bit-identical to
  /// the sequential per-item loop at any thread count (see file comment).
  /// An exception from any item (InvariantError from a defective instance)
  /// propagates; transcript defects are verdicts, not exceptions.
  std::vector<Outcome> run_batch(std::span<const BatchItem> items) const;

 private:
  Config cfg_;
};

}  // namespace lrdip
