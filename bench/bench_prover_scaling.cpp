// Experiment E-PERF: how each registry task's full run scales with n.
//
// On one thread, for n = 2^12 .. 2^K (K = LRDIP_BENCH_MAX_LOG_N, default 16,
// at least 13), times the best of 3 run_protocol calls on the task's
// registry make_yes instance, and prints ms per task per n plus each task's
// least-squares exponent: the slope of log(ms) against log(n). A run whose
// honest prover is linear in its input has an exponent near 1. Exits
// nonzero if an honest run rejects.
#include <algorithm>
#include <chrono>
#include <cmath>
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
constexpr int kRepeats = 3;

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
      Rng gen(0x5ca1e000ULL + logn);
      const BoundInstance yes = spec.make_yes(1 << logn, gen);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < kRepeats; ++r) {
        Rng coins(0xc0135eedULL + r);
        const auto t0 = std::chrono::steady_clock::now();
        const Outcome o = run_protocol(yes.view(), {3}, coins);
        const std::chrono::duration<double, std::milli> ms = std::chrono::steady_clock::now() - t0;
        if (!o.accepted) {
          std::cerr << spec.name << " rejected its yes-instance at n = 2^" << logn << "\n";
          return 1;
        }
        best = std::min(best, ms.count());
      }
      row.push_back(Table::num(best, 1));
      xs.push_back(std::log(static_cast<double>(1 << logn)));
      ys.push_back(std::log(best));
    }
    row.push_back(Table::num(slope(xs, ys), 2));
    t.add_row(row);
  }
  t.print(std::cout);
  return 0;
}
