// Experiment E-1.5 (Theorem 1.5): planarity — O(log log n + log Delta) bits.
//
// Two sweeps: n with bounded degree (the log log n part), and Delta at fixed n
// (the additive log Delta term, via stars embedded in planar hosts). Compare
// with the FFM+21 Omega(log n) non-interactive bound for Delta = O(1).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "graph/planarity.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/registry.hpp"
#include "support/bits.hpp"

using namespace lrdip;
using namespace lrdip::bench;

namespace {

/// A planar graph with n nodes and max degree ~delta: a hub with delta leaves
/// plus a long path grafted onto one leaf. Trees are genus 0 under ANY
/// rotation, so the adjacency-order rotation is a valid certificate.
PlanarInstance bounded_degree_host(int n, int delta) {
  Graph g = star_graph(delta);
  NodeId tail = 1;  // extend the first leaf into a path
  while (g.n() < n) {
    const NodeId v = g.add_node();
    g.add_edge(tail, v);
    tail = v;
  }
  RotationSystem rot = RotationSystem::from_adjacency(g);
  return {std::move(g), std::move(rot)};
}

}  // namespace

int main() {
  Rng rng(1505);
  print_header("E-1.5: planarity (Theorem 1.5)",
               "claim: 5 rounds, O(log log n + log Delta) bits; compare with the "
               "Omega(log n) non-interactive lower bound at Delta = O(1)");

  std::cout << "-- sweep 1: n grows, Delta bounded (grid-based hosts) --\n";
  Table t1({"n", "Delta", "rounds", "dip_bits", "pls_bits", "yes_acc", "planted_rej"});
  const int trials = soundness_trials(10);
  for (int logn = 8; logn <= max_log_n(); logn += 2) {
    const int n = 1 << logn;
    const auto gi = grid_graph(1 << (logn / 2), 1 << (logn - logn / 2));
    const PlanarityInstance inst{&gi.graph, &gi.rotation};
    const Outcome o = run_planarity(inst, {3}, rng);
    int rej = 0;
    for (int s = 0; s < trials; ++s) {
      const auto host = random_planar(128, 0.5, rng);
      const Graph bad = plant_subdivision(host.graph, complete_graph(5), 8, rng);
      rej += !run_planarity({&bad, nullptr}, {3}, rng).accepted;
    }
    t1.add_row({Table::num(std::uint64_t(gi.graph.n())), "4", Table::num(o.rounds),
                Table::num(o.proof_size_bits),
                Table::num(protocol_spec(Task::planarity).pls_bits(n)),
                o.accepted ? "1.00" : "0.00", Table::num(double(rej) / trials, 2)});
  }
  t1.print(std::cout);

  std::cout << "\n-- sweep 2: Delta grows, n fixed (the additive log Delta term) --\n";
  Table t2({"n", "Delta", "dip_bits", "yes_acc"});
  const int n_fixed = 1 << std::min(14, max_log_n());
  for (int delta = 4; delta <= n_fixed / 4; delta *= 4) {
    const auto gi = bounded_degree_host(n_fixed, delta);
    const PlanarityInstance inst{&gi.graph, &gi.rotation};
    const Outcome o = run_planarity(inst, {3}, rng);
    int real_delta = 0;
    for (NodeId v = 0; v < gi.graph.n(); ++v) real_delta = std::max(real_delta, gi.graph.degree(v));
    t2.add_row({Table::num(std::uint64_t(gi.graph.n())), Table::num(real_delta),
                Table::num(o.proof_size_bits), o.accepted ? "1.00" : "0.00"});
  }
  t2.print(std::cout);
  std::cout << "\nshape check: sweep 1 flat-ish in n; sweep 2 grows ~2 bits per 4x Delta.\n";

  // E-EMBED: the centralized engine sweep behind the honest prover, on
  // seed-pinned random planar instances; the O(n+m) Boyer-Myrvold engine
  // runs to the top of the range.
  std::cout << "\n-- sweep 3 (E-EMBED): centralized Boyer-Myrvold engine --\n";
  Table t3({"n", "m", "bm_ms"});
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  };
  Rng sweep_rng(0x90e2);
  for (int logn = 10; logn <= std::max(10, max_log_n()); logn += 2) {
    const int n = 1 << logn;
    const PlanarInstance gi = random_planar(n, 0.3, sweep_rng);

    const auto bm_t0 = clock::now();
    const auto bm_emb = planar_embedding(gi.graph);
    const double bm_ms = ms_since(bm_t0);
    if (!bm_emb.has_value()) {
      std::cout << "ERROR: Boyer-Myrvold called a planar instance non-planar at n=" << n << "\n";
      return 1;
    }
    t3.add_row({Table::num(std::uint64_t(gi.graph.n())), Table::num(std::uint64_t(gi.graph.m())),
                Table::num(bm_ms, 2)});
  }
  t3.print(std::cout);
  std::cout << "shape check: bm_ms ~linear in n.\n";
  return 0;
}
