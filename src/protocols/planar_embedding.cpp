#include "protocols/planar_embedding.hpp"

#include <algorithm>
#include <set>

#include "graph/algorithms.hpp"
#include "graph/degeneracy.hpp"
#include "graph/planarity.hpp"
#include "protocols/forest_encoding.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/registry.hpp"
#include "protocols/spanning_tree.hpp"
#include "obs/metrics.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {

EulerExpansion build_euler_expansion(const Graph& g, const RotationSystem& rot,
                                     const std::vector<NodeId>& tree_parent,
                                     const std::vector<EdgeId>& tree_parent_edge, NodeId root) {
  const int n = g.n();
  LRDIP_CHECK(n >= 2);

  // Children of every node in clockwise order starting after the parent edge
  // (for the root: in plain rotation order).
  std::vector<char> is_tree_edge(g.m(), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (tree_parent_edge[v] != -1) is_tree_edge[tree_parent_edge[v]] = 1;
  }
  std::vector<std::vector<NodeId>> children(n);
  std::vector<std::vector<EdgeId>> child_edge(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto& ord = rot.order_at(v);
    const int deg = static_cast<int>(ord.size());
    if (deg == 0) continue;
    int start = 0;
    if (tree_parent_edge[v] != -1) start = rot.position(v, tree_parent_edge[v]);
    for (int k = (tree_parent_edge[v] != -1) ? 1 : 0; k < deg + ((tree_parent_edge[v] != -1) ? 1 : 0); ++k) {
      const EdgeId e = ord[(start + k) % deg];
      if (e == tree_parent_edge[v]) continue;
      const NodeId w = g.other_end(e, v);
      if (is_tree_edge[e] && tree_parent[w] == v && tree_parent_edge[w] == e) {
        children[v].push_back(w);
        child_edge[v].push_back(e);
      }
    }
  }

  EulerExpansion exp;
  exp.copy_offset.assign(n, 0);
  exp.num_copies.assign(n, 0);
  int total = 0;
  for (NodeId v = 0; v < n; ++v) {
    exp.num_copies[v] = static_cast<int>(children[v].size()) + 1;
    exp.copy_offset[v] = total;
    total += exp.num_copies[v];
  }
  exp.h = Graph(total);
  exp.copy_owner.assign(total, -1);
  for (NodeId v = 0; v < n; ++v) {
    for (int i = 0; i < exp.num_copies[v]; ++i) exp.copy_owner[exp.copy_offset[v] + i] = v;
  }
  auto copy_of = [&](NodeId v, int i) { return exp.copy_offset[v] + i; };

  // Euler tour: x_0(r), descend into c_1(r), ..., interleaving copies.
  exp.path.clear();
  exp.path.push_back(copy_of(root, 0));
  struct Frame {
    NodeId v;
    int next_child = 0;
  };
  std::vector<Frame> stack{{root, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child < static_cast<int>(children[f.v].size())) {
      const NodeId c = children[f.v][f.next_child];
      ++f.next_child;
      exp.h.add_edge(exp.path.back(), copy_of(c, 0));
      exp.path.push_back(copy_of(c, 0));
      stack.push_back({c, 0});
    } else {
      stack.pop_back();
      if (!stack.empty()) {
        const Frame& pf = stack.back();
        // Returning from a child (the pf.next_child-th): continue at
        // copy x_{next_child}(parent).
        const NodeId p = pf.v;
        const int i = pf.next_child;  // already incremented
        exp.h.add_edge(exp.path.back(), copy_of(p, i));
        exp.path.push_back(copy_of(p, i));
      }
    }
  }
  LRDIP_CHECK(static_cast<int>(exp.path.size()) == total);

  // Arc edges: each non-tree edge connects the copies given by the first
  // tree edge counterclockwise of it at each endpoint.
  std::vector<std::vector<int>> child_index_of_edge(n);
  for (NodeId v = 0; v < n; ++v) {
    child_index_of_edge[v].assign(rot.order_at(v).size(), -1);
  }
  // Map edge -> child index, addressed by rotation position for O(1) lookups.
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < child_edge[v].size(); ++i) {
      child_index_of_edge[v][rot.position(v, child_edge[v][i])] = static_cast<int>(i) + 1;
    }
  }
  auto attach_index = [&](NodeId v, EdgeId e) {
    const auto& ord = rot.order_at(v);
    const int deg = static_cast<int>(ord.size());
    int p = rot.position(v, e);
    for (int steps = 0; steps < deg; ++steps) {
      p = (p + deg - 1) % deg;  // counterclockwise
      const EdgeId t = ord[p];
      if (t == tree_parent_edge[v]) return 0;
      const int ci = child_index_of_edge[v][p];
      if (ci != -1) return ci;
    }
    LRDIP_CHECK_MSG(false, "no incident tree edge found");
    return 0;
  };
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (is_tree_edge[e]) continue;
    const auto [u, v] = g.endpoints(e);
    exp.h.add_edge(copy_of(u, attach_index(u, e)), copy_of(v, attach_index(v, e)));
  }
  return exp;
}

std::vector<char> corner_order_checks(const Graph& g, const RotationSystem& rot,
                                      const std::vector<NodeId>& tree_parent,
                                      const std::vector<EdgeId>& tree_parent_edge,
                                      const EulerExpansion& exp) {
  (void)tree_parent;  // the parent EDGES drive the corner rule
  const int n = g.n();
  const int total = exp.h.n();
  std::vector<int> path_pos(total);
  for (int i = 0; i < total; ++i) path_pos[exp.path[i]] = i;

  // Attach copy of every non-tree edge at each endpoint: recover from h's arc
  // edges. Arc edges of h appear after the 2n-2 path edges, in edge-id order
  // of the non-tree edges of g; rebuild the correspondence directly instead.
  std::vector<char> is_tree_edge(g.m(), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (tree_parent_edge[v] != -1) is_tree_edge[tree_parent_edge[v]] = 1;
  }
  // copy at v for edge e: walk ccw to the first tree edge (same rule as the
  // expansion); memoize per (v, position).
  std::vector<char> ok(n, 1);
  parallel_for(n, [&](std::int64_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    const auto& ord = rot.order_at(v);
    const int deg = static_cast<int>(ord.size());
    if (deg == 0) return;
    // Corner decomposition: walk the rotation once; a corner starts at each
    // tree edge and collects the non-tree edges that follow it clockwise.
    // Find any tree-edge position to anchor the walk.
    int anchor = -1;
    for (int p = 0; p < deg; ++p) {
      if (is_tree_edge[ord[p]]) {
        anchor = p;
        break;
      }
    }
    if (anchor == -1) return;  // isolated from the tree: other checks reject
    // First tree edge counterclockwise of `edge` at node w (the corner rule).
    auto attach = [&](NodeId w, EdgeId edge) {
      const auto& ow = rot.order_at(w);
      const int dw = static_cast<int>(ow.size());
      int q = rot.position(w, edge);
      for (int s = 0; s < dw; ++s) {
        q = (q + dw - 1) % dw;
        if (is_tree_edge[ow[q]]) return ow[q];
      }
      return EdgeId{-1};
    };
    // The copy of node w that corner-opening tree edge t maps to.
    auto copy_for = [&](NodeId w, EdgeId t) -> int {
      if (t == tree_parent_edge[w]) return exp.copy_offset[w];
      // t = (w, c_i): the return from child c lands at copy x_i(w), the path
      // successor of c's last copy.
      const NodeId c = g.other_end(t, w);
      const int c_last = exp.copy_offset[c] + exp.num_copies[c] - 1;
      const int pp = path_pos[c_last];
      LRDIP_CHECK(pp + 1 < total);
      return exp.path[pp + 1];
    };
    std::vector<long long> keys;  // circular partner offsets within one corner
    auto flush = [&]() {
      for (std::size_t t = 1; t < keys.size(); ++t) {
        if (keys[t] >= keys[t - 1]) ok[v] = 0;  // clockwise corner order = descending circular offset
      }
      keys.clear();
    };
    for (int step = 0; step <= deg; ++step) {
      if (step == deg) {
        flush();
        break;
      }
      const EdgeId e = ord[(anchor + step) % deg];
      if (is_tree_edge[e]) {
        flush();  // close the previous corner; a new one opens here
        continue;
      }
      const NodeId u = g.other_end(e, v);
      const EdgeId tv = attach(v, e);
      const EdgeId tu = attach(u, e);
      if (tv == -1 || tu == -1) continue;
      const long long xv = path_pos[copy_for(v, tv)];
      const long long xu = path_pos[copy_for(u, tu)];
      keys.push_back(((xu - xv) % total + total) % total);
    }
  });
  return ok;
}

StageResult planar_embedding_stage(const PlanarEmbeddingInstance& inst, const PeParams& params,
                                   Rng& rng, FaultInjector* faults) {
  const obs::ScopedTimer timer("planar_embedding_stage");
  const Graph& g = *inst.graph;
  const RotationSystem& rot = *inst.rotation;
  const int n = g.n();
  LRDIP_CHECK(n >= 2);
  LRDIP_CHECK_MSG(is_connected(g), "planar embedding protocol expects a connected graph");

  // --- Commit to a spanning tree T of G and verify it (Lemmas 2.3 + 2.5).
  const RootedForest tree = bfs_tree(g, 0);
  const ForestEncoding enc = encode_forest(g, tree.parent);
  StageResult result = empty_stage(n);
  result.node_bits.assign(n, enc.bits_per_node());
  result.rounds = 1;
  result = compose_parallel(result, verify_spanning_tree(g, tree.parent,
                                                         po_repetitions(n, params.c), rng, faults));

  // --- Reduce to path-outerplanarity on h(G, T, rho).
  const EulerExpansion exp =
      build_euler_expansion(g, rot, tree.parent, tree.parent_edge, /*root=*/0);
  // Within-corner rotation consistency (see corner_order_checks): free of
  // charge label-wise — every node checks it from rho_v and the arc
  // commitments its copies already carry.
  {
    const std::vector<char> corner_ok =
        corner_order_checks(g, rot, tree.parent, tree.parent_edge, exp);
    for (NodeId v = 0; v < n; ++v) {
      if (!corner_ok[v]) result.reject(v);
    }
  }
  PathOuterplanarityInstance sub;
  sub.graph = &exp.h;
  sub.prover_order = exp.path;
  const StageResult sr = path_outerplanarity_stage(sub, {params.c}, rng, faults);

  // --- Map decisions and accounting back to the original nodes.
  // Copy x_i(v) (i >= 1) is simulated by child c_i(v) = the owner of the copy
  // that precedes x_i(v) on the path... equivalently: charge to the child
  // whose return created the copy. We recover that child as the owner of the
  // path predecessor of the copy.
  std::vector<int> path_pos(exp.h.n());
  for (int i = 0; i < exp.h.n(); ++i) path_pos[exp.path[i]] = i;
  for (NodeId v = 0; v < n; ++v) {
    std::set<NodeId> dup;  // copies whose labels v carries directly
    const int x0 = exp.copy_offset[v];
    const int xk = exp.copy_offset[v] + exp.num_copies[v] - 1;
    dup.insert(x0);
    dup.insert(xk);
    if (path_pos[x0] > 0) dup.insert(exp.path[path_pos[x0] - 1]);
    if (path_pos[xk] + 1 < exp.h.n()) dup.insert(exp.path[path_pos[xk] + 1]);
    for (NodeId c : dup) {
      result.node_bits[v] += sr.node_bits[c];
    }
    if (!sr.accepts(x0)) result.reject(v, sr.reason(x0));
    if (!sr.accepts(xk)) result.reject(v, sr.reason(xk));
  }
  for (int c = 0; c < exp.h.n(); ++c) {
    const NodeId owner = exp.copy_owner[c];
    if (c == exp.copy_offset[owner]) continue;  // x_0 handled above
    // x_i(owner), i>=1: carried (labels + coins) by the child returning here,
    // which is the owner of the previous path node.
    const NodeId carrier = exp.copy_owner[exp.path[path_pos[c] - 1]];
    result.node_bits[carrier] += sr.node_bits[c];
    result.coin_bits[carrier] += sr.coin_bits[c];
    if (!sr.accepts(c)) result.reject(carrier, sr.reason(c));
  }
  for (NodeId v = 0; v < n; ++v) {
    // x_0(v)'s coins are v's own.
    result.coin_bits[v] += sr.coin_bits[exp.copy_offset[v]];
  }

  result.rounds = std::max({result.rounds, sr.rounds, kPlanarEmbeddingRounds});
  return result;
}

Outcome run_planar_embedding(const PlanarEmbeddingInstance& inst, const PeParams& params,
                             Rng& rng, FaultInjector* faults) {
  return run_protocol(make_instance(inst), {params.c}, rng, faults);
}

StageResult planarity_stage(const PlanarityInstance& inst, const PeParams& params, Rng& rng,
                            FaultInjector* faults) {
  const Graph& g = *inst.graph;
  // The prover picks (or fabricates) a rotation system. When no certificate
  // is supplied, the honest prover's preprocessing is the O(n+m)
  // Boyer-Myrvold engine (the default behind planar_embedding); on a
  // non-planar instance it yields nothing and the prover ships a doomed
  // adjacency-order rotation that the embedding stage will catch.
  RotationSystem rot;
  if (inst.certificate != nullptr) {
    rot = *inst.certificate;
  } else {
    auto computed = planar_embedding(g);
    rot = computed ? std::move(*computed) : RotationSystem::from_adjacency(g);
  }

  // Rotation shipping: (rho_u(e), rho_v(e)) per edge, O(log Delta) bits,
  // charged to the accountable endpoint of the forest decomposition.
  int max_deg = 1;
  for (NodeId v = 0; v < g.n(); ++v) max_deg = std::max(max_deg, g.degree(v));
  const int rot_bits = 2 * bits_for_values(static_cast<std::uint64_t>(max_deg));
  StageResult ship = empty_stage(g.n());
  ship.rounds = 1;
  {
    const auto [ord, d] = degeneracy_order(g);
    (void)d;
    std::vector<int> rank(g.n());
    for (int i = 0; i < g.n(); ++i) rank[ord[i]] = i;
    for (EdgeId e = 0; e < g.m(); ++e) {
      const auto [u, v] = g.endpoints(e);
      ship.node_bits[rank[u] < rank[v] ? u : v] += rot_bits;
    }
  }

  PlanarEmbeddingInstance pe{&g, &rot};
  const StageResult sr = planar_embedding_stage(pe, params, rng, faults);
  return compose_parallel(ship, sr);
}

Outcome run_planarity(const PlanarityInstance& inst, const PeParams& params, Rng& rng,
                      FaultInjector* faults) {
  return run_protocol(make_instance(inst), {params.c}, rng, faults);
}

}  // namespace lrdip
