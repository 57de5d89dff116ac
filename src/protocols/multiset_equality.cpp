#include "protocols/multiset_equality.hpp"

#include <cmath>

#include "dip/faults.hpp"
#include "dip/store.hpp"
#include "field/fp_simd.hpp"
#include "field/primes.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {

Fp multiset_equality_field(std::uint64_t size_bound, int universe_exponent) {
  LRDIP_CHECK(size_bound >= 1);
  LRDIP_CHECK(universe_exponent >= 1);
  // p > k^{c+1}; cap the argument so the modulus stays inside the Fp range
  // (construction rejects p >= 2^32 — see field/fp.hpp).
  long double target = 1;
  for (int i = 0; i < universe_exponent + 1; ++i) target *= static_cast<long double>(size_bound);
  LRDIP_CHECK_MSG(target < std::ldexp(1.0L, 31),
                  "multiset-equality field exceeds the 2^32 modulus bound");
  return Fp(cached_prime_above(static_cast<std::uint64_t>(target)));
}

StageResult verify_multiset_equality(const Graph& g, const RootedForest& tree,
                                     const MultisetEqualityInput& in, Rng& rng,
                                     FaultInjector* faults) {
  using L = MeLayout;
  const int n = g.n();
  LRDIP_CHECK(static_cast<int>(in.s1.size()) == n && static_cast<int>(in.s2.size()) == n);
  const Fp f = multiset_equality_field(in.size_bound, in.universe_exponent);
  const int fbits = f.element_bits();

  // Identify the root (depth 0 in the given tree).
  NodeId root = -1;
  for (NodeId v = 0; v < n; ++v) {
    if (tree.parent[v] == -1 && tree.depth[v] == 0) {
      root = v;
      break;
    }
  }
  LRDIP_CHECK_MSG(root != -1, "multiset equality requires a rooted spanning tree");

  LabelStore labels(g, /*rounds=*/2);
  CoinStore coins(g, /*rounds=*/2);

  // --- Round 1 (verifier): root samples z.
  const std::uint64_t z = f.sample(rng);
  coins.record(L::kRoundCoins, root, {&z, std::size_t{1}}, fbits);

  // --- Round 2 (prover): subtree aggregates, in children-before-parent order,
  // each with the z echo.
  const auto children = children_of(tree);
  std::vector<std::uint64_t> a1(n), a2(n);
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    const NodeId v = *it;
    std::uint64_t p1 = fp_simd::phi_product(f, in.s1[v], z);
    std::uint64_t p2 = fp_simd::phi_product(f, in.s2[v], z);
    for (NodeId c : children[v]) {
      p1 = f.mul(p1, a1[c]);
      p2 = f.mul(p2, a2[c]);
    }
    a1[v] = p1;
    a2[v] = p2;
    Label l;
    l.reserve(3);
    l.put(z, fbits).put(p1, fbits).put(p2, fbits);
    labels.assign_node(L::kRoundResponse, v, std::move(l));
  }

  // --- Byzantine seam: corrupt the recorded transcript in transit.
  if (faults != nullptr) faults->corrupt(labels, coins);

  // --- Decision via NodeViews: the z relay, the product recurrences, the
  // root comparison. Checked reads: any structural defect is a local reject,
  // never an exception. Decision cost per node is its multiset sizes plus its
  // child count, so the chunk boundaries follow that prefix rather than the
  // node count.
  std::vector<std::int64_t> decide_cost(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    decide_cost[static_cast<std::size_t>(v) + 1] =
        decide_cost[static_cast<std::size_t>(v)] + 1 +
        static_cast<std::int64_t>(in.s1[v].size() + in.s2[v].size() + children[v].size());
  }
  std::vector<RejectReason> reasons =
      decide_nodes_reasons(n, decide_cost, [&](NodeId v, LocalVerdict& verdict) {
        const NodeView view(labels, coins, v);
        const Label& mine = view.own(L::kRoundResponse);
        expect_fields(mine, 3, verdict);
        const std::uint64_t zv = read_or_reject(mine, L::kFieldZ, fbits, verdict);
        const std::uint64_t mine_a1 = read_or_reject(mine, L::kFieldA1, fbits, verdict);
        const std::uint64_t mine_a2 = read_or_reject(mine, L::kFieldA2, fbits, verdict);
        if (v == root) {
          verdict.require(zv == view.read_coin(L::kRoundCoins, 0, verdict));
          verdict.require(mine_a1 == mine_a2);
        } else {
          verdict.require(view.read_neighbor(L::kRoundResponse, tree.parent[v], L::kFieldZ,
                                             fbits, verdict) == zv);
        }
        // phi_product is value-identical to Fp::multiset_poly at every
        // dispatch level (see field/fp_simd.hpp), so the decision stays
        // deterministic.
        const std::uint64_t x = f.reduce(zv);
        std::uint64_t p1 = fp_simd::phi_product(f, in.s1[v], x);
        std::uint64_t p2 = fp_simd::phi_product(f, in.s2[v], x);
        for (NodeId c : children[v]) {
          p1 = f.mul(p1, view.read_neighbor(L::kRoundResponse, c, L::kFieldA1, fbits, verdict));
          p2 = f.mul(p2, view.read_neighbor(L::kRoundResponse, c, L::kFieldA2, fbits, verdict));
        }
        verdict.require(mine_a1 == p1);
        verdict.require(mine_a2 == p2);
        return true;  // failures recorded in the verdict
      });
  return stage_from_stores(labels, coins, std::move(reasons), /*rounds=*/2);
}

}  // namespace lrdip
