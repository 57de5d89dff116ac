// Experiment E-1.2 (Theorem 1.2): path-outerplanarity.
#include <iostream>

#include "bench_util.hpp"
#include "protocols/baseline_pls.hpp"
#include "protocols/path_outerplanarity.hpp"

using namespace lrdip;
using namespace lrdip::bench;

int main() {
  Rng rng(1202);
  print_header("E-1.2: path-outerplanarity (Theorem 1.2)",
               "claim: 5 rounds, O(log log n) bits, perfect completeness, "
               "1/polylog n soundness error");

  Table t({"n", "m", "rounds", "dip_bits", "pls_bits", "ratio", "yes_acc",
           "cross_rej", "spider_rej"});
  const int trials = soundness_trials(20);
  for (int logn = 8; logn <= max_log_n(); logn += 2) {
    const int n = 1 << logn;
    const auto gi = random_path_outerplanar(n, 1.0, rng);
    const PathOuterplanarityInstance inst{&gi.graph, gi.order};
    const Outcome o = run_path_outerplanarity(inst, {3}, rng);
    const Outcome base = run_path_outerplanarity_pls(gi.graph, inst.prover_order);

    int cross_rej = 0, spider_rej = 0;
    for (int s = 0; s < trials; ++s) {
      const Graph bad = crossing_chords_no_instance(512, rng);
      std::vector<NodeId> order(bad.n());
      for (int i = 0; i < bad.n(); ++i) order[i] = i;
      cross_rej += !run_path_outerplanarity({&bad, order}, {3}, rng).accepted;
      const Graph spider = spider_no_instance(128);
      spider_rej += !run_path_outerplanarity({&spider, std::nullopt}, {3}, rng).accepted;
    }
    t.add_row({Table::num(std::uint64_t(n)), Table::num(std::uint64_t(gi.graph.m())),
               Table::num(o.rounds), Table::num(o.proof_size_bits),
               Table::num(base.proof_size_bits),
               Table::num(double(base.proof_size_bits) / o.proof_size_bits, 2),
               o.accepted ? "1.00" : "0.00", Table::num(double(cross_rej) / trials, 2),
               Table::num(double(spider_rej) / trials, 2)});
  }
  t.print(std::cout);
  return 0;
}
