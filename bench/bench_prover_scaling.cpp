// Experiment E-PERF: how each registry task's full run scales with n, and
// what its reject path costs.
//
// On one thread, for n = 2^12 .. 2^K (K = LRDIP_BENCH_MAX_LOG_N, default 16,
// at least 13), times the best of 3 run_protocol calls on the task's
// registry make_yes instance, and prints ms per task per n plus each task's
// least-squares exponent: the slope of log(ms) against log(n). A run whose
// honest prover is linear in its input has an exponent near 1.
//
// A second table times the honest prover on each task's make_near_no
// instance against the same-seed make_yes instance, at n = 2^7 .. 2^11 (the
// sizes the adversarial sweeps run at), best of 3 each, and their ratio. A
// near-no run that accepts (the protocol's soundness error) is counted in
// the table, not fatal. Exits nonzero if an honest run on a yes-instance
// rejects.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dip/parallel.hpp"
#include "protocols/registry.hpp"

using namespace lrdip;
using namespace lrdip::bench;

namespace {

constexpr int kMinLogN = 12;
constexpr int kRejectMinLogN = 7;
constexpr int kRejectMaxLogN = 11;
constexpr int kRepeats = 3;

struct Timed {
  double best_ms = std::numeric_limits<double>::infinity();
  int accepted = 0;
};

/// Best of kRepeats honest runs at fixed coin seeds, and how many accepted.
Timed time_runs(const BoundInstance& bi) {
  Timed t;
  for (int r = 0; r < kRepeats; ++r) {
    Rng coins(0xc0135eedULL + r);
    const auto t0 = std::chrono::steady_clock::now();
    const Outcome o = run_protocol(bi.view(), {3}, coins);
    const std::chrono::duration<double, std::milli> ms = std::chrono::steady_clock::now() - t0;
    t.best_ms = std::min(t.best_ms, ms.count());
    t.accepted += o.accepted ? 1 : 0;
  }
  return t;
}

/// Generator seed of the size-2^logn instances (yes and near-no alike).
std::uint64_t gen_seed(int logn) { return 0x5ca1e000ULL + logn; }

/// Least-squares slope of ys against xs.
double slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  const double k = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

}  // namespace

int main() {
  set_parallel_threads(1);
  const int max_log = std::max(kMinLogN + 1, max_log_n(16));
  print_header("E-PERF: honest run time vs n, one thread",
               "best of 3 run_protocol calls on each task's registry make_yes "
               "instance; exponent = least-squares slope of log ms vs log n");

  std::vector<std::string> headers{"task"};
  for (int logn = kMinLogN; logn <= max_log; ++logn) headers.push_back("2^" + std::to_string(logn));
  headers.push_back("exponent");
  Table t(headers);
  for (const ProtocolSpec& spec : protocol_registry()) {
    std::vector<std::string> row{spec.name};
    std::vector<double> xs, ys;
    for (int logn = kMinLogN; logn <= max_log; ++logn) {
      Rng gen(gen_seed(logn));
      const Timed yes = time_runs(spec.make_yes(1 << logn, gen));
      if (yes.accepted != kRepeats) {
        std::cerr << spec.name << " rejected its yes-instance at n = 2^" << logn << "\n";
        return 1;
      }
      row.push_back(Table::num(yes.best_ms, 1));
      xs.push_back(std::log(static_cast<double>(1 << logn)));
      ys.push_back(std::log(yes.best_ms));
    }
    row.push_back(Table::num(slope(xs, ys), 2));
    t.add_row(row);
  }
  t.print(std::cout);

  print_header("E-PERF: reject path, near-no vs yes run time, one thread",
               "best of 3 run_protocol calls on each task's registry make_near_no "
               "instance and on the same-seed make_yes instance; ratio = near-no / yes; "
               "no_accepts = near-no runs (of 3) that accepted");
  Table r({"task", "n", "near_no_ms", "yes_ms", "ratio", "no_accepts"});
  for (const ProtocolSpec& spec : protocol_registry()) {
    for (int logn = kRejectMinLogN; logn <= kRejectMaxLogN; ++logn) {
      Rng gen_no(gen_seed(logn));
      Rng gen_yes(gen_seed(logn));
      const Timed no = time_runs(spec.make_near_no(1 << logn, gen_no));
      const Timed yes = time_runs(spec.make_yes(1 << logn, gen_yes));
      if (yes.accepted != kRepeats) {
        std::cerr << spec.name << " rejected its yes-instance at n = 2^" << logn << "\n";
        return 1;
      }
      r.add_row({spec.name, "2^" + std::to_string(logn), Table::num(no.best_ms, 2),
                 Table::num(yes.best_ms, 2), Table::num(no.best_ms / yes.best_ms, 2),
                 Table::num(no.accepted)});
    }
  }
  r.print(std::cout);
  return 0;
}
