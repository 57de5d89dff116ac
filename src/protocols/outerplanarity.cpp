#include "protocols/outerplanarity.hpp"

#include <algorithm>
#include <map>

#include "dip/faults.hpp"
#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "graph/outerplanar.hpp"
#include "protocols/forest_encoding.hpp"
#include "protocols/nesting.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/registry.hpp"
#include "protocols/spanning_tree.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace lrdip {

StageResult outerplanarity_stage(const OuterplanarityInstance& inst, const OpParams& params,
                                 Rng& rng, FaultInjector* faults) {
  const obs::ScopedTimer timer("outerplanarity_stage");
  const Graph& g = *inst.graph;
  const int n = g.n();
  LRDIP_CHECK(n >= 2);
  const int ls = nesting_fragment_bits(n, params.c);
  const int reps = po_repetitions(n, params.c);

  const BlockCutTree bct = block_cut_tree(g, 0);
  const int nblocks = bct.decomp.num_components();

  // --- Prover: per-block Hamiltonian path P_C (starting at the separating
  // node) and the closing-edge certificate (Theorem 6.1).
  std::vector<std::vector<NodeId>> block_path(nblocks);  // host ids, P_C order
  std::vector<char> block_cycle_ok(nblocks, 0);          // endpoints adjacent
  std::vector<char> block_has_path(nblocks, 0);
  const std::vector<int> cert_of =
      inst.block_cycles ? match_node_sets(bct.decomp.component_nodes, *inst.block_cycles)
                        : std::vector<int>(nblocks, -1);
  for (int b = 0; b < nblocks; ++b) {
    const auto& nodes = bct.decomp.component_nodes[b];
    if (nodes.size() == 2) {
      // A bridge block: trivially biconnected outerplanar.
      const NodeId sep = bct.separating_node[b];
      const NodeId first = (sep != -1 && (nodes[0] == sep || nodes[1] == sep))
                               ? sep
                               : nodes[0];
      const NodeId second = nodes[0] == first ? nodes[1] : nodes[0];
      block_path[b] = {first, second};
      block_has_path[b] = 1;
      block_cycle_ok[b] = 1;  // no closing-edge requirement on bridges
      continue;
    }
    std::optional<std::vector<NodeId>> cycle;
    if (cert_of[b] != -1) {
      cycle = (*inst.block_cycles)[cert_of[b]];
    } else {
      const Subgraph sub = make_subgraph(g, nodes, bct.decomp.component_edges[b]);
      auto sub_cycle = outerplanar_hamiltonian_cycle(sub.graph);
      if (sub_cycle) {
        cycle.emplace();
        for (NodeId w : *sub_cycle) cycle->push_back(sub.node_to_orig[w]);
      }
    }
    if (!cycle) continue;  // best effort fails; stage 2/3 will reject
    // Rotate so the separating node (or any node for the root block) leads.
    const NodeId lead = bct.separating_node[b] != -1 ? bct.separating_node[b] : (*cycle)[0];
    auto it = std::find(cycle->begin(), cycle->end(), lead);
    LRDIP_CHECK(it != cycle->end());
    std::rotate(cycle->begin(), it, cycle->end());
    block_path[b] = *cycle;
    block_has_path[b] = 1;
    block_cycle_ok[b] = g.has_edge(cycle->front(), cycle->back()) ? 1 : 0;
  }

  // --- Stage 1: component-consistency labels.
  // Coins: every cut node and every block leader draws an ls-bit fragment.
  // Labels: every node carries (sep, lead) of its home block; checks relay
  // them along P'_C and across all incident edges.
  StageResult stage1;
  stage1.node_bits.assign(n, 2 * (ls + 1) + 2 + 4);  // sep/lead (+bottom), flags, d(C) mod 3
  stage1.coin_bits.assign(n, 0);
  stage1.rounds = 3;
  {
    // Home block of every node: the block closest to the root.
    std::vector<int> home(n, -1);
    for (int b = 0; b < nblocks; ++b) {
      for (NodeId v : bct.decomp.component_nodes[b]) {
        if (home[v] == -1 || bct.block_depth[b] < bct.block_depth[home[v]]) home[v] = b;
      }
    }
    const std::uint64_t smask =
        (ls == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << ls) - 1);
    std::vector<std::uint64_t> frag(n, 0);
    std::vector<char> draws(n, 0);
    std::vector<NodeId> leader_of(nblocks, -1);
    std::vector<char> is_leader(n, 0);
    for (int b = 0; b < nblocks; ++b) {
      if (block_has_path[b] && block_path[b].size() >= 2) {
        leader_of[b] = block_path[b][1];
        is_leader[leader_of[b]] = 1;
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (bct.decomp.is_cut[v] || is_leader[v]) {
        frag[v] = rng.next_u64() & smask;
        draws[v] = 1;
        stage1.coin_bits[v] += ls;
      }
    }
    // Honest labels: sep(v)/lead(v) = fragments of home block's separating
    // node and leader (bottom for the root block's separating side).
    std::vector<std::uint64_t> sep_lbl(n, 0), lead_lbl(n, 0);
    std::vector<char> sep_bot(n, 1);
    for (NodeId v = 0; v < n; ++v) {
      const int b = home[v];
      if (bct.separating_node[b] != -1) {
        sep_lbl[v] = frag[bct.separating_node[b]];
        sep_bot[v] = 0;
      }
      if (leader_of[b] != -1) lead_lbl[v] = frag[leader_of[b]];
    }
    // The labels and fragments hit the wire; the checks below run on the
    // decoded (possibly corrupted) transcript.
    LabelStore labels(g, /*rounds=*/1);
    CoinStore coins(g, /*rounds=*/1);
    for (NodeId v = 0; v < n; ++v) {
      Label l;
      l.reserve(3);
      l.put(sep_lbl[v], ls).put_flag(sep_bot[v] != 0).put(lead_lbl[v], ls);
      labels.assign_node(0, v, std::move(l));
      if (draws[v]) coins.record(0, v, {&frag[v], std::size_t{1}}, ls);
    }
    if (faults != nullptr) faults->corrupt(labels, coins);
    std::vector<std::uint64_t> sep_d(n, 0), lead_d(n, 0), frag_d(n, 0);
    std::vector<char> bot_d(n, 1);
    std::vector<RejectReason> defect(n, RejectReason::none);
    parallel_for(n, [&](std::int64_t vi) {
      const NodeId v = static_cast<NodeId>(vi);
      LocalVerdict verdict;
      const Label& l = labels.node_label(0, v);
      expect_fields(l, 3, verdict);
      sep_d[v] = read_or_reject(l, 0, ls, verdict, 0);
      bot_d[v] = flag_or_reject(l, 1, verdict, true) ? 1 : 0;
      lead_d[v] = read_or_reject(l, 2, ls, verdict, 0);
      if (draws[v]) {
        const NodeView view(labels, coins, v);
        frag_d[v] = view.read_coin(0, 0, verdict);
      }
      defect[v] = verdict.reason();
    });
    // Checks at non-cut nodes: every neighbor shares (sep, lead) or is a cut
    // node whose own fragment equals sep(v).
    stage1.node_reasons = decide_nodes_reasons(n, [&](NodeId v, LocalVerdict& verdict) {
      verdict.reject(defect[v]);
      if (bct.decomp.is_cut[v]) return true;
      for (const Half& h : g.neighbors(v)) {
        const NodeId u = h.to;
        const bool same =
            (sep_d[u] == sep_d[v] && bot_d[u] == bot_d[v] && lead_d[u] == lead_d[v]);
        const bool via_cut =
            bct.decomp.is_cut[u] && draws[u] && !bot_d[v] && sep_d[v] == frag_d[u];
        verdict.require(same || via_cut);
      }
      return true;
    });
    // Leaders check the separating fragment across the closing edge e_C.
    for (int b = 0; b < nblocks; ++b) {
      const NodeId lead = leader_of[b];
      if (lead == -1 || bct.separating_node[b] == -1) continue;
      if (frag_d[bct.separating_node[b]] != sep_d[lead]) stage1.reject(lead);
    }
  }

  // --- Stage 2: F = union of the P_C paths is a spanning tree of G.
  StageResult result = stage1;
  {
    std::vector<NodeId> parent(n, -1);
    bool structure_ok = true;
    for (int b = 0; b < nblocks && structure_ok; ++b) {
      if (!block_has_path[b]) {
        structure_ok = false;
        break;
      }
      const auto& path = block_path[b];
      // Chain: each node's parent is its predecessor on its home path; the
      // separating node keeps the parent from ITS home block.
      for (std::size_t i = 1; i < path.size(); ++i) {
        if (parent[path[i]] != -1) structure_ok = false;
        parent[path[i]] = path[i - 1];
      }
    }
    if (!structure_ok) {
      // Best effort: BFS tree (rejected by the per-block stages instead).
      parent = bfs_tree(g, 0).parent;
    }
    const ForestEncoding enc = encode_forest(g, parent);
    StageResult commit = empty_stage(n);
    commit.node_bits.assign(n, enc.bits_per_node());
    commit.rounds = 1;
    result = compose_parallel(result, commit);
    result = compose_parallel(result, verify_spanning_tree(g, parent, reps, rng, faults));
    if (!structure_ok) {
      // The prover failed to exhibit the required structure at some block;
      // that block's members reject outright.
      for (int b = 0; b < nblocks; ++b) {
        if (!block_has_path[b]) {
          for (NodeId v : bct.decomp.component_nodes[b]) result.reject(v);
        }
      }
    }
  }

  // --- Stage 3: per-block biconnected outerplanarity.
  for (int b = 0; b < nblocks; ++b) {
    const auto& nodes = bct.decomp.component_nodes[b];
    if (nodes.size() == 2) continue;  // bridges need no check
    const Subgraph sub = make_subgraph(g, nodes, bct.decomp.component_edges[b]);
    PathOuterplanarityInstance sub_inst;
    sub_inst.graph = &sub.graph;
    if (block_has_path[b]) {
      std::vector<NodeId> order;
      for (NodeId v : block_path[b]) order.push_back(sub.local(v));
      sub_inst.prover_order = std::move(order);
    }
    const StageResult sr = path_outerplanarity_stage(sub_inst, {params.c}, rng, faults);
    // Map accounting and decisions back; the separating node's labels are
    // deferred to its neighbors inside the block.
    const NodeId sep = bct.separating_node[b];
    for (NodeId w = 0; w < sub.graph.n(); ++w) {
      const NodeId host = sub.node_to_orig[w];
      if (!sr.accepts(w)) {
        for (NodeId x : nodes) result.reject(x, sr.reason(w));
      }
      if (host == sep) {
        for (const Half& h : sub.graph.neighbors(w)) {
          result.node_bits[sub.node_to_orig[h.to]] += sr.node_bits[w];
        }
        // The separating node's coins are drawn by the leader instead.
        if (sub.graph.degree(w) > 0) {
          result.coin_bits[sub.node_to_orig[sub.graph.neighbors(w)[0].to]] += sr.coin_bits[w];
        }
      } else {
        result.node_bits[host] += sr.node_bits[w];
        result.coin_bits[host] += sr.coin_bits[w];
      }
    }
    // Theorem 6.1: the path endpoints must be adjacent.
    if (!block_cycle_ok[b]) {
      for (NodeId x : nodes) result.reject(x);
    }
  }

  result.rounds = std::max(result.rounds, kOuterplanarityRounds);
  return result;
}

Outcome run_outerplanarity(const OuterplanarityInstance& inst, const OpParams& params, Rng& rng,
                           FaultInjector* faults) {
  return run_protocol(make_instance(inst), {params.c}, rng, faults);
}

Outcome run_biconnected_outerplanarity(const Graph& g,
                                       const std::optional<std::vector<NodeId>>& cycle,
                                       const OpParams& params, Rng& rng, FaultInjector* faults) {
  std::optional<std::vector<NodeId>> ham = cycle;
  if (!ham) ham = outerplanar_hamiltonian_cycle(g);
  PathOuterplanarityInstance sub;
  sub.graph = &g;
  bool closing_edge = false;
  if (ham && static_cast<int>(ham->size()) == g.n()) {
    sub.prover_order = *ham;
    closing_edge = g.has_edge(ham->front(), ham->back());
  }
  Outcome o = run_path_outerplanarity(sub, {params.c}, rng, faults);
  // Theorem 6.1's extra condition: the path endpoints close a cycle.
  if (!closing_edge) o.accepted = false;
  return o;
}

}  // namespace lrdip
