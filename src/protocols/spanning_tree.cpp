#include "protocols/spanning_tree.hpp"

#include <deque>

#include "dip/faults.hpp"
#include "dip/store.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace lrdip {

RejectReason spanning_tree_node_verdict(const NodeView& view, NodeId claimed_parent,
                                        const std::vector<NodeId>& claimed_children,
                                        int expected_bits) {
  using L = StLayout;
  LocalVerdict verdict;
  const Label& mine = view.own(L::kRoundResponse);
  expect_fields(mine, 2, verdict);
  const std::uint64_t x = read_or_reject(mine, L::kFieldX, expected_bits, verdict);
  const std::uint64_t echo = read_or_reject(mine, L::kFieldNonceEcho, expected_bits, verdict);

  // X recurrence: X(v) = rho_v XOR (XOR over children's X).
  std::uint64_t acc = view.read_coin(L::kRoundCoins, 0, verdict);
  for (NodeId c : claimed_children) {
    acc ^= view.read_neighbor(L::kRoundResponse, c, L::kFieldX, expected_bits, verdict);
  }
  verdict.require(x == acc);

  // Nonce echo: equal across every neighbor; roots additionally match their
  // own draw.
  for (const Half& h : view.neighbors()) {
    verdict.require(
        view.read_neighbor(L::kRoundResponse, h.to, L::kFieldNonceEcho, expected_bits, verdict) ==
        echo);
  }
  const Label& structure = view.own(L::kRoundStructure);
  expect_fields(structure, 1, verdict);
  const bool root_flag = flag_or_reject(structure, L::kFieldRootFlag, verdict);
  if (claimed_parent == -1) {
    verdict.require(echo == view.read_coin(L::kRoundCoins, 1, verdict));
    verdict.require(root_flag);
  } else {
    verdict.require(!root_flag);
  }
  return verdict.reason();
}

StageResult verify_spanning_tree(const Graph& g, const std::vector<NodeId>& claimed_parent,
                                 int repetitions, Rng& rng, FaultInjector* faults) {
  const obs::ScopedTimer timer("verify_spanning_tree");
  using L = StLayout;
  const int n = g.n();
  const int k = repetitions;
  LRDIP_CHECK(k >= 1 && k <= 64);
  LRDIP_CHECK(static_cast<int>(claimed_parent.size()) == n);
  for (NodeId v = 0; v < n; ++v) {
    if (claimed_parent[v] != -1) {
      LRDIP_CHECK_MSG(g.has_edge(v, claimed_parent[v]),
                      "claimed parent must be a neighbor (model constraint)");
    }
  }
  const std::uint64_t mask = (k == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << k) - 1);

  // The transcript is recorded in stores so a fault injector can corrupt it
  // in transit; accounting stays analytic (the stores are the wire, not the
  // cost model): the root flag is charged by the callers' forest code.
  LabelStore labels(g, /*rounds=*/3);
  CoinStore coins(g, /*rounds=*/3);

  // --- Round 1 (prover): the structural commitment (root flags).
  for (NodeId v = 0; v < n; ++v) {
    Label l;
    l.reserve(1);
    l.put_flag(claimed_parent[v] == -1);
    labels.assign_node(L::kRoundStructure, v, std::move(l));
  }

  // --- Round 2 (verifier): rho_v everywhere; nonce at claimed roots. The
  // historical rng stream (masked raw words) is kept and mirrored into the
  // coin store.
  std::vector<std::uint64_t> rho(n), nonce(n, 0);
  std::vector<int> coin_bits(n, 0);
  std::vector<NodeId> roots;
  for (NodeId v = 0; v < n; ++v) {
    rho[v] = rng.next_u64() & mask;
    coin_bits[v] += k;
    std::uint64_t drawn[2] = {rho[v], 0};
    int drawn_count = 1;
    if (claimed_parent[v] == -1) {
      nonce[v] = rng.next_u64() & mask;
      coin_bits[v] += k;
      roots.push_back(v);
      drawn[drawn_count++] = nonce[v];
    }
    coins.record(L::kRoundCoins, v, {drawn, static_cast<std::size_t>(drawn_count)}, k);
  }

  // --- Round 3 (prover, best effort): X values + a global nonce echo.
  std::vector<std::vector<NodeId>> children(n);
  for (NodeId v = 0; v < n; ++v) {
    if (claimed_parent[v] != -1) children[claimed_parent[v]].push_back(v);
  }
  std::vector<std::uint64_t> x(n, 0);
  std::vector<int> pending(n, 0);
  std::vector<char> resolved(n, 0);
  std::deque<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    pending[v] = static_cast<int>(children[v].size());
    if (pending[v] == 0) ready.push_back(v);
  }
  int resolved_count = 0;
  while (!ready.empty()) {
    const NodeId v = ready.front();
    ready.pop_front();
    std::uint64_t acc = rho[v];
    for (NodeId c : children[v]) acc ^= x[c];
    x[v] = acc;
    resolved[v] = 1;
    ++resolved_count;
    const NodeId p = claimed_parent[v];
    if (p != -1 && --pending[p] == 0) ready.push_back(p);
  }
  if (resolved_count < n) {
    // Cycles remain: satisfy all but one equation per cycle.
    std::vector<char> on_cycle_done(n, 0);
    for (NodeId s = 0; s < n; ++s) {
      if (resolved[s] || on_cycle_done[s]) continue;
      // Walk the cycle containing s (parent pointers of unresolved nodes).
      std::vector<NodeId> cycle;
      NodeId v = s;
      while (!on_cycle_done[v]) {
        on_cycle_done[v] = 1;
        cycle.push_back(v);
        v = claimed_parent[v];
        LRDIP_CHECK(v != -1);
        if (resolved[v]) break;  // tail into resolved region cannot happen, but be safe
      }
      // x[cycle[0]] := 0; propagate along parent direction.
      x[cycle[0]] = 0;
      for (std::size_t i = 1; i < cycle.size(); ++i) {
        const NodeId u = cycle[i];
        std::uint64_t acc = rho[u];
        for (NodeId c : children[u]) {
          if (c != cycle[i - 1]) acc ^= x[c];
        }
        x[u] = acc ^ x[cycle[i - 1]];
      }
    }
  }
  const std::uint64_t echoed = roots.empty() ? 0 : nonce[roots.front()];

  // --- Round 3 (prover): the response labels hit the wire.
  for (NodeId v = 0; v < n; ++v) {
    Label l;
    l.reserve(2);
    l.put(x[v], k).put(echoed, k);
    labels.assign_node(L::kRoundResponse, v, std::move(l));
  }

  // --- Byzantine seam: corrupt the recorded transcript in transit.
  if (faults != nullptr) faults->corrupt(labels, coins);

  // --- Decision: the X recurrence, the neighbor-equal nonce echo and the
  // root flag/nonce match over checked reads — any structural defect is a
  // local reject with a reason, never an exception.
  StageResult out;
  out.node_bits.assign(n, 2 * k);  // X value + nonce copy
  out.coin_bits = std::move(coin_bits);
  out.rounds = 3;
  out.node_reasons =
      decide_nodes_reasons(n, degree_cost_prefix(g), [&](NodeId v, LocalVerdict& verdict) {
        const NodeView view(labels, coins, v);
        verdict.reject(spanning_tree_node_verdict(view, claimed_parent[v], children[v], k));
        return true;  // failures recorded in the verdict
      });
  return out;
}

}  // namespace lrdip
