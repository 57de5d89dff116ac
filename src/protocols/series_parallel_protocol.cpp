#include "protocols/series_parallel_protocol.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "protocols/forest_encoding.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/nesting.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/registry.hpp"
#include "protocols/spanning_tree.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

/// The prover's committed decomposition: the certificate, else the
/// centralized one of g or, best effort on a non-member, of g minus one edge
/// (covers the single-K4-chord no-instances), padded so every edge belongs to
/// some ear (uncovered edges become dangling single-edge ears whose host
/// contains only one endpoint — the condition (1) violation the verifier then
/// catches).
std::optional<EarDecomposition> committed_ears(const Graph& g,
                                               const std::optional<EarDecomposition>& cert) {
  std::optional<EarDecomposition> ears = cert ? cert : one_deletion_ear_decomposition(g);
  if (!ears) return std::nullopt;
  // Pad uncovered edges.
  std::vector<char> covered(g.m(), 0);
  for (const Ear& ear : *ears) {
    for (std::size_t i = 0; i + 1 < ear.path.size(); ++i) {
      const EdgeId e = g.find_edge(ear.path[i], ear.path[i + 1]);
      if (e != -1) covered[e] = 1;
    }
  }
  std::vector<int> ear_of_interior(g.n(), -1);
  for (std::size_t j = 0; j < ears->size(); ++j) {
    const auto& path = (*ears)[j].path;
    for (std::size_t i = (j == 0 ? 0 : 1); i + (j == 0 ? 0 : 1) < path.size(); ++i) {
      ear_of_interior[path[i]] = static_cast<int>(j);
    }
  }
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (covered[e]) continue;
    const auto [u, v] = g.endpoints(e);
    const int host = std::max(0, ear_of_interior[u]);
    ears->push_back({{u, v}, host});
  }
  return ears;
}

StageResult reject_all(const Graph& g, int bits_estimate) {
  StageResult s;
  s.node_reasons.assign(g.n(), RejectReason::check_failed);
  s.node_bits.assign(g.n(), bits_estimate);
  s.coin_bits.assign(g.n(), 0);
  s.rounds = kSeriesParallelRounds;
  return s;
}

}  // namespace

StageResult series_parallel_stage(const SeriesParallelInstance& inst,
                                  const SpProtocolParams& params, Rng& rng,
                                  FaultInjector* faults) {
  const obs::ScopedTimer timer("series_parallel_stage");
  const Graph& g = *inst.graph;
  const int n = g.n();
  LRDIP_CHECK(n >= 2);
  const int ls = nesting_fragment_bits(n, params.c);
  const int reps = po_repetitions(n, params.c);

  const auto ears_opt = committed_ears(g, inst.ears);
  if (!ears_opt) return reject_all(g, 7 + 2 * reps + 2 * (ls + 1));
  const EarDecomposition& ears = *ears_opt;
  const int k = static_cast<int>(ears.size());

  // ---- Sub-ears P'_i and per-node home sub-ear.
  std::vector<std::vector<NodeId>> subear(k);
  std::vector<int> home(n, -1);
  for (int j = 0; j < k; ++j) {
    const auto& path = ears[j].path;
    const std::size_t from = (j == 0) ? 0 : 1;
    const std::size_t to = (j == 0) ? path.size() : path.size() - 1;
    for (std::size_t i = from; i < to; ++i) {
      subear[j].push_back(path[i]);
      if (home[path[i]] != -1) return reject_all(g, 7 + 2 * reps + 2 * (ls + 1));
      home[path[i]] = j;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (home[v] == -1) return reject_all(g, 7 + 2 * reps + 2 * (ls + 1));
  }

  // ---- Stage (i): every sub-ear is a simple path; chains verified by
  // Lemma 2.5 runs on the induced pieces. Forest codes + flags.
  StageResult result = empty_stage(n);
  // forest code (7) + P1 flag (1) + connecting marks (2) + fragments below.
  result.node_bits.assign(n, 7 + 1 + 2);
  result.rounds = 1;
  for (int j = 0; j < k; ++j) {
    if (subear[j].empty()) continue;
    std::vector<EdgeId> induced;
    std::set<NodeId> members(subear[j].begin(), subear[j].end());
    for (NodeId v : subear[j]) {
      for (const Half& h : g.neighbors(v)) {
        if (h.to > v && members.count(h.to)) induced.push_back(h.edge);
      }
    }
    // Sub-ear position i is subgraph node i.
    const Subgraph sub = make_subgraph(g, subear[j], induced);
    std::vector<NodeId> parent(sub.graph.n(), -1);
    bool chain_ok = true;
    for (NodeId cur = 1; cur < sub.graph.n(); ++cur) {
      if (!sub.graph.has_edge(cur - 1, cur)) {
        chain_ok = false;
        break;
      }
      parent[cur] = cur - 1;
    }
    if (!chain_ok) {
      for (NodeId v : subear[j]) result.reject(v);
      continue;
    }
    const StageResult st = verify_spanning_tree(sub.graph, parent, reps, rng, faults);
    for (NodeId w = 0; w < sub.graph.n(); ++w) {
      const NodeId host = sub.node_to_orig[w];
      result.node_bits[host] += st.node_bits[w];
      result.coin_bits[host] += st.coin_bits[w];
      if (!st.accepts(w)) result.reject(host, st.reason(w));
    }
  }

  // ---- Stage (iii): per-sub-ear fragments and condition (1).
  for (NodeId v = 0; v < n; ++v) result.node_bits[v] += 2 * (ls + 1);
  for (int j = 0; j < k; ++j) {
    if (!subear[j].empty()) result.coin_bits[subear[j].front()] += ls;
  }
  // Structural simulation of the fragment checks: every non-first ear's
  // endpoints must lie on its host ear.
  std::vector<std::set<NodeId>> ear_nodes(k);
  for (int j = 0; j < k; ++j) ear_nodes[j].insert(ears[j].path.begin(), ears[j].path.end());
  for (int j = 1; j < k; ++j) {
    const int host = ears[j].host;
    if (host < 0 || host >= j || !ear_nodes[host].count(ears[j].path.front()) ||
        !ear_nodes[host].count(ears[j].path.back())) {
      for (NodeId v : ears[j].path) result.reject(v);
    }
  }

  // ---- Stage (iv): nesting of the attached ears within each host ear.
  // Ears bucketed by host, in increasing index: attached[at[i] .. at[i + 1]).
  std::vector<int> at(k + 1, 0), attached(k);
  for (int j = 0; j < k; ++j) {
    if (ears[j].host >= 0 && ears[j].host < k) ++at[ears[j].host + 1];
  }
  for (int i = 0; i < k; ++i) at[i + 1] += at[i];
  {
    std::vector<int> fill(at.begin(), at.end() - 1);
    for (int j = 0; j < k; ++j) {
      if (ears[j].host >= 0 && ears[j].host < k) attached[fill[ears[j].host]++] = j;
    }
  }
  const int arc_relay_bits = (1 + 2 + 2 * ls + (2 * ls + 1)) + (1 + 8 + 16);
  for (int i = 0; i < k; ++i) {
    const auto& path = ears[i].path;
    if (path.size() < 3) continue;  // <= 1 interior gap: nesting is vacuous
    std::map<NodeId, int> pos;
    for (std::size_t t = 0; t < path.size(); ++t) pos[path[t]] = static_cast<int>(t);
    // Arcs: attached ears with both endpoints here, deduplicated by span.
    Graph hi(static_cast<int>(path.size()));
    for (std::size_t t = 0; t + 1 < path.size(); ++t) {
      hi.add_edge(static_cast<int>(t), static_cast<int>(t + 1));
    }
    std::set<std::pair<int, int>> spans;
    std::vector<std::vector<NodeId>> relays;  // interior nodes relaying each arc
    for (int t = at[i]; t < at[i + 1]; ++t) {
      const int j = attached[t];
      const auto ita = pos.find(ears[j].path.front());
      const auto itb = pos.find(ears[j].path.back());
      if (ita == pos.end() || itb == pos.end()) continue;  // rejected in (iii)
      int a = ita->second, b = itb->second;
      if (a > b) std::swap(a, b);
      if (b - a <= 1) continue;  // parallel to a path edge: trivially nested
      if (!spans.insert({a, b}).second) continue;
      hi.add_edge(a, b);
      if (ears[j].path.size() > 2) {
        relays.emplace_back(ears[j].path.begin() + 1, ears[j].path.end() - 1);
      } else {
        relays.emplace_back();
      }
    }
    std::vector<NodeId> order(hi.n());
    for (int t = 0; t < hi.n(); ++t) order[t] = t;
    LrSortingInstance lr;
    lr.graph = &hi;
    lr.order = order;
    lr.tail.resize(hi.m());
    for (EdgeId e = 0; e < hi.m(); ++e) lr.tail[e] = std::min(hi.endpoints(e).first, hi.endpoints(e).second);
    StageResult sr = lr_sorting_stage(lr, {params.c}, rng, nullptr, faults);
    sr = compose_parallel(sr, nesting_stage(hi, order, params.c, rng, faults));
    // Map back: interiors carry their own copy; the ear's endpoints' labels
    // ride on the adjacent interiors (or stay on the endpoints for the first
    // ear, whose "endpoints" are its own interior nodes).
    for (int w = 0; w < hi.n(); ++w) {
      NodeId host_node = path[w];
      if (home[host_node] != i) {
        // An endpoint owned by an older ear: relay through the neighbor
        // interior when one exists.
        const int inner = (w == 0) ? 1 : (w == hi.n() - 1 ? hi.n() - 2 : w);
        if (home[path[inner]] == i) host_node = path[inner];
      }
      result.node_bits[host_node] += sr.node_bits[w];
      result.coin_bits[host_node] += sr.coin_bits[w];
      if (!sr.accepts(w)) result.reject(path[w], sr.reason(w));
    }
    // Arc labels relayed through the attached ears' interiors.
    for (const auto& relay : relays) {
      for (NodeId v : relay) result.node_bits[v] += arc_relay_bits;
    }
  }

  result.rounds = std::max(result.rounds, kSeriesParallelRounds);
  return result;
}

Outcome run_series_parallel(const SeriesParallelInstance& inst, const SpProtocolParams& params,
                            Rng& rng, FaultInjector* faults) {
  return run_protocol(make_instance(inst), {params.c}, rng, faults);
}

StageResult treewidth2_stage(const Treewidth2Instance& inst, const SpProtocolParams& params,
                             Rng& rng, FaultInjector* faults) {
  const obs::ScopedTimer timer("treewidth2_stage");
  const Graph& g = *inst.graph;
  const int n = g.n();
  LRDIP_CHECK(n >= 2);

  const BlockCutTree bct = block_cut_tree(g, 0);
  // Block-cut anchoring: a BFS spanning tree commitment (codes + Lemma 2.5)
  // plus d(C) mod 3 labels.
  const RootedForest tree = bfs_tree(g, 0);
  const ForestEncoding enc = encode_forest(g, tree.parent);
  StageResult result = empty_stage(n);
  result.node_bits.assign(n, enc.bits_per_node() + 4);
  result.rounds = 1;
  result = compose_parallel(result, verify_spanning_tree(g, tree.parent,
                                                         po_repetitions(n, params.c), rng, faults));

  // Each block's certificate: the first whose node set (the union of its
  // ears) is the block's.
  std::vector<int> cert_of(bct.decomp.num_components(), -1);
  if (inst.block_ears) {
    std::vector<std::vector<NodeId>> cert_nodes;
    cert_nodes.reserve(inst.block_ears->size());
    for (const EarDecomposition& cert : *inst.block_ears) {
      std::vector<NodeId>& nodes = cert_nodes.emplace_back();
      for (const Ear& e : cert) nodes.insert(nodes.end(), e.path.begin(), e.path.end());
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    }
    cert_of = match_node_sets(bct.decomp.component_nodes, std::move(cert_nodes));
  }

  // Per-block series-parallel stage.
  for (int b = 0; b < bct.decomp.num_components(); ++b) {
    const auto& nodes = bct.decomp.component_nodes[b];
    if (nodes.size() == 2) continue;  // bridges are trivially SP
    const Subgraph sub = make_subgraph(g, nodes, bct.decomp.component_edges[b]);
    SeriesParallelInstance si;
    si.graph = &sub.graph;
    if (cert_of[b] != -1) {
      EarDecomposition mapped = (*inst.block_ears)[cert_of[b]];
      for (Ear& e : mapped) {
        for (NodeId& v : e.path) v = sub.local(v);
      }
      si.ears = std::move(mapped);
    }
    const StageResult sr = series_parallel_stage(si, params, rng, faults);
    for (NodeId w = 0; w < sub.graph.n(); ++w) {
      const NodeId host = sub.node_to_orig[w];
      result.node_bits[host] += sr.node_bits[w];
      result.coin_bits[host] += sr.coin_bits[w];
      if (!sr.accepts(w)) result.reject(host, sr.reason(w));
    }
  }
  result.rounds = std::max(result.rounds, kSeriesParallelRounds);
  return result;
}

Outcome run_treewidth2(const Treewidth2Instance& inst, const SpProtocolParams& params, Rng& rng,
                       FaultInjector* faults) {
  return run_protocol(make_instance(inst), {params.c}, rng, faults);
}

}  // namespace lrdip
