#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/cpu.hpp"

namespace lrdip::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void BitHistogram::add(int bits) {
  int b = 0;
  while (b + 1 < kBuckets && (1 << (b + 1)) <= bits) ++b;
  ++buckets[b];
  ++count;
  sum_bits += bits;
  max_bits = std::max(max_bits, bits);
}

void BitHistogram::merge(const BitHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum_bits += other.sum_bits;
  max_bits = std::max(max_bits, other.max_bits);
}

double ParallelStats::utilization() const {
  if (wall_ns <= 0 || thread_busy_ns.empty()) return 0.0;
  std::int64_t busy = 0;
  for (std::int64_t b : thread_busy_ns) busy += b;
  const double denom =
      static_cast<double>(wall_ns) * static_cast<double>(thread_busy_ns.size());
  return denom > 0 ? static_cast<double>(busy) / denom : 0.0;
}

std::int64_t RunMetrics::wire_total_bits() const {
  std::int64_t t = 0;
  for (const RoundComm& r : rounds) t += r.total_bits;
  return t;
}

int RunMetrics::wire_max_round_node_bits() const {
  int mx = 0;
  for (const RoundComm& r : rounds) mx = std::max(mx, r.max_node_bits);
  return mx;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool MetricsRegistry::begin_run(std::string task, int n, int m) {
  std::lock_guard<std::mutex> lk(mu_);
  if (run_active_) return false;
  run_active_ = true;
  active_ = RunMetrics{};
  active_.task = std::move(task);
  active_.n = n;
  active_.m = m;
  // One read, so a concurrent set_simd_level cannot stamp a mismatched pair.
  const SimdLevel level = simd_active_level();
  active_.simd_level = simd_level_name(level);
  active_.simd_lanes = simd_lanes(level);
  return true;
}

void MetricsRegistry::end_run(std::int64_t wall_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!run_active_) return;
  active_.wall_ns = wall_ns;
  completed_.push_back(std::move(active_));
  active_ = RunMetrics{};
  run_active_ = false;
}

std::vector<RunMetrics> MetricsRegistry::take_completed() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<RunMetrics> out;
  out.swap(completed_);
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  run_active_ = false;
  active_ = RunMetrics{};
  completed_.clear();
}

RoundComm& MetricsRegistry::round_slot(int round) {
  const auto r = static_cast<std::size_t>(round < 0 ? 0 : round);
  if (active_.rounds.size() <= r) active_.rounds.resize(r + 1);
  return active_.rounds[r];
}

void MetricsRegistry::record_label(int round, int bits, int fields) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!run_active_) return;
  RoundComm& rc = round_slot(round);
  rc.label_count += 1;
  rc.field_count += fields;
  rc.total_bits += bits;
  active_.label_bits.add(bits);
}

void MetricsRegistry::record_coins(int round, int words, int bits) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!run_active_) return;
  RoundComm& rc = round_slot(round);
  rc.coin_words += words;
  rc.coin_bits += bits;
}

void MetricsRegistry::merge_round_node_max(std::span<const int> label_max_per_round,
                                           std::span<const int> coin_max_per_round) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!run_active_) return;
  for (std::size_t r = 0; r < label_max_per_round.size(); ++r) {
    RoundComm& rc = round_slot(static_cast<int>(r));
    rc.max_node_bits = std::max(rc.max_node_bits, label_max_per_round[r]);
  }
  for (std::size_t r = 0; r < coin_max_per_round.size(); ++r) {
    RoundComm& rc = round_slot(static_cast<int>(r));
    rc.max_node_coin_bits = std::max(rc.max_node_coin_bits, coin_max_per_round[r]);
  }
}

void MetricsRegistry::record_stage(const char* name, std::int64_t wall_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!run_active_) return;
  StageTiming& st = active_.stages[name];
  st.calls += 1;
  st.wall_ns += wall_ns;
}

void MetricsRegistry::record_parallel(std::int64_t wall_ns,
                                      std::span<const std::int64_t> busy_ns,
                                      std::int64_t items) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!run_active_) return;
  ParallelStats& p = active_.parallel;
  p.regions += 1;
  p.items += items;
  p.wall_ns += wall_ns;
  if (p.thread_busy_ns.size() < busy_ns.size()) p.thread_busy_ns.resize(busy_ns.size(), 0);
  for (std::size_t i = 0; i < busy_ns.size(); ++i) p.thread_busy_ns[i] += busy_ns[i];
}

void MetricsRegistry::record_outcome(bool accepted, int rounds, int proof_size_bits,
                                     std::int64_t total_label_bits, int max_coin_bits,
                                     int rejected_nodes,
                                     std::span<const std::int64_t> reason_hist) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!run_active_) return;
  // finalize() runs once per (sub-)protocol; the outermost call runs last and
  // wins, so a composite protocol's record carries its own outcome.
  active_.accepted = accepted;
  active_.protocol_rounds = rounds;
  active_.proof_size_bits = proof_size_bits;
  active_.total_label_bits = total_label_bits;
  active_.max_coin_bits = max_coin_bits;
  active_.rejected_nodes = rejected_nodes;
  for (std::size_t i = 0; i < active_.reject_reasons.size() && i < reason_hist.size(); ++i) {
    active_.reject_reasons[i] = reason_hist[i];
  }
}

void record_label_slow(int round, int bits, int fields) {
  MetricsRegistry::instance().record_label(round, bits, fields);
}

void record_coins_slow(int round, int words, int bits) {
  MetricsRegistry::instance().record_coins(round, words, bits);
}

RunScope::RunScope(const char* task, int n, int m) {
  if (!metrics_enabled()) return;
  owner_ = MetricsRegistry::instance().begin_run(task, n, m);
  if (owner_) start_ns_ = now_ns();
}

RunScope::~RunScope() {
  if (owner_) MetricsRegistry::instance().end_run(now_ns() - start_ns_);
}

}  // namespace lrdip::obs
