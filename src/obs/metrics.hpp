// Proof-size and round observability substrate.
//
// The paper's headline claim is quantitative — 5 rounds, O(log log n)-bit
// labels versus the Theta(log n) non-interactive bound — so the library
// meters what actually crosses the simulated wire: per-round label bits
// (total and per-node max), field counts, public-coin bits, stage wall time,
// parallel-engine utilization, and reject-reason tallies. Everything funnels
// into a process-wide MetricsRegistry.
//
// Overhead policy: metering is OFF by default and every hot-path hook is an
// inline relaxed atomic load plus a predictable branch — nothing else happens
// on the disabled path, so protocol throughput with metrics disabled is
// indistinguishable from a build without the layer. When enabled, hooks take
// a registry mutex; observability runs trade a few percent of wall time for
// the numbers.
//
// Scoping model: a RunScope brackets one protocol execution. run_* entry
// points open one (nested run_* calls attach to the already-open run, so a
// composite protocol's sub-stages report into its parent's record), stages
// time themselves with ScopedTimer, stores report label/coin writes, the
// parallel engine reports per-thread busy time, and finalize() stamps the
// outcome. Closed runs accumulate in the registry until take_completed().
//
// Node identity caveat: per-node maxima are keyed by the id in the store's
// host graph. Single-store protocols (LR-sorting, path-outerplanarity on its
// own host) report exact per-node figures; composite protocols run sub-stages
// on subgraph hosts, so their per-round max is the max over any sub-host
// node, an accurate view of the widest single store write but not of the
// Lemma 2.4 host mapping. The analytic Outcome accounting (which does apply
// the host mappings) remains the authoritative proof-size figure; the metrics
// layer reports both side by side.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace lrdip::obs {

/// Power-of-two bucketed histogram of per-label bit sizes. Bucket i counts
/// labels with bit_size in [2^i, 2^(i+1)); bucket 0 also takes size 0..1.
struct BitHistogram {
  static constexpr int kBuckets = 12;  // labels cap at kMaxFields * 64 = 512 bits
  std::array<std::int64_t, kBuckets> buckets{};
  std::int64_t count = 0;
  std::int64_t sum_bits = 0;
  int max_bits = 0;

  void add(int bits);
  void merge(const BitHistogram& other);
};

/// Communication observed in one store round (prover-to-nodes direction for
/// labels, verifier coin draws for coins).
struct RoundComm {
  std::int64_t label_count = 0;
  std::int64_t field_count = 0;
  std::int64_t total_bits = 0;
  /// Max over (store, node) of bits charged to that node in this round.
  int max_node_bits = 0;
  std::int64_t coin_words = 0;
  std::int64_t coin_bits = 0;
  int max_node_coin_bits = 0;
};

/// Wall-time of one named stage (lr_sorting_stage, nesting_stage, ...),
/// accumulated over however many times the run invoked it.
struct StageTiming {
  std::int64_t calls = 0;
  std::int64_t wall_ns = 0;
};

/// Parallel verification engine: region count, wall time and per-thread busy
/// time. Slot 0 is the calling thread; slots 1.. are pool workers in the
/// order they joined the run's regions.
struct ParallelStats {
  std::int64_t regions = 0;
  std::int64_t items = 0;
  std::int64_t wall_ns = 0;
  std::vector<std::int64_t> thread_busy_ns;

  /// busy / (wall * threads-observed); 0 when nothing ran.
  double utilization() const;
};

/// Everything metered during one protocol execution.
struct RunMetrics {
  std::string task;
  int n = 0;
  int m = 0;

  // Communication, per store round.
  std::vector<RoundComm> rounds;
  BitHistogram label_bits;

  // Outcome (stamped by finalize()).
  bool accepted = false;
  int protocol_rounds = 0;
  int proof_size_bits = 0;  // analytic: max over host nodes, host-mapped
  std::int64_t total_label_bits = 0;
  int max_coin_bits = 0;
  int rejected_nodes = 0;
  std::array<std::int64_t, 5> reject_reasons{};  // indexed by RejectReason

  // Arithmetic backend: the SIMD dispatch level active for this run and its
  // lane count, stamped together at begin_run from support/cpu.hpp.
  std::string simd_level;
  int simd_lanes = 1;

  // Engine.
  ParallelStats parallel;
  std::map<std::string, StageTiming> stages;
  std::int64_t wall_ns = 0;  // whole run, RunScope open to close

  std::int64_t wire_total_bits() const;
  int wire_max_round_node_bits() const;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when the metering hooks are live. The only thing the disabled hot
/// path ever evaluates.
inline bool metrics_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Process-wide sink. All methods are thread-safe; hot-path hooks are the
/// free functions below (which check metrics_enabled() before locking).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Enables/disables the metering hooks (disabled at startup).
  void set_enabled(bool on);

  /// Opens a run. Returns false (and changes nothing) when a run is already
  /// active — nested run_* calls report into the enclosing run.
  bool begin_run(std::string task, int n, int m);
  /// Closes the active run, stamps its wall time and moves it to the
  /// completed list.
  void end_run(std::int64_t wall_ns);

  /// Completed runs since the last call, oldest first.
  std::vector<RunMetrics> take_completed();
  /// Drops the active run and all completed runs (tests).
  void reset();

  // --- recording (callers hold no lock; all take the registry mutex) ------
  void record_label(int round, int bits, int fields);
  void record_coins(int round, int words, int bits);
  /// Per-store flush of per-(round, node) maxima, merged by max.
  void merge_round_node_max(std::span<const int> label_max_per_round,
                            std::span<const int> coin_max_per_round);
  void record_stage(const char* name, std::int64_t wall_ns);
  void record_parallel(std::int64_t wall_ns, std::span<const std::int64_t> busy_ns,
                       std::int64_t items);
  void record_outcome(bool accepted, int rounds, int proof_size_bits,
                      std::int64_t total_label_bits, int max_coin_bits, int rejected_nodes,
                      std::span<const std::int64_t> reason_hist);

 private:
  MetricsRegistry() = default;

  RoundComm& round_slot(int round);

  std::mutex mu_;
  bool run_active_ = false;
  RunMetrics active_;
  std::vector<RunMetrics> completed_;
};

// --- hot-path hooks --------------------------------------------------------
// The inline wrappers are what stores and the engine call; they compile to a
// relaxed load + branch when metering is off.

void record_label_slow(int round, int bits, int fields);
void record_coins_slow(int round, int words, int bits);

inline void on_label_assigned(int round, int bits, int fields) {
  if (!metrics_enabled()) return;
  record_label_slow(round, bits, fields);
}

inline void on_coins_recorded(int round, int words, int bits) {
  if (!metrics_enabled()) return;
  record_coins_slow(round, words, bits);
}

/// Monotonic nanosecond clock used by every timer in the layer.
std::int64_t now_ns();

/// Brackets one protocol execution. The outermost scope owns the run; inner
/// scopes (nested run_* calls) are no-ops whose metering lands in the
/// enclosing run. Does nothing when metering is disabled.
class RunScope {
 public:
  RunScope(const char* task, int n, int m);
  ~RunScope();

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  bool owner_ = false;
  std::int64_t start_ns_ = 0;
};

/// RAII stage timer: records wall time against the active run under `name`.
/// `name` must be a string literal (stored by pointer until the destructor).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name)
      : name_(name), start_ns_(metrics_enabled() ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (start_ns_ != 0 && metrics_enabled()) {
      MetricsRegistry::instance().record_stage(name_, now_ns() - start_ns_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_;
};

}  // namespace lrdip::obs
