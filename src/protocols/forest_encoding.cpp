#include "protocols/forest_encoding.hpp"

#include <algorithm>

#include "graph/degeneracy.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

/// Depth of every node in the forest given by parent pointers.
std::vector<int> forest_depths(const Graph& g, const std::vector<NodeId>& parent) {
  std::vector<int> depth(g.n(), -1);
  for (NodeId v = 0; v < g.n(); ++v) {
    // Walk up until a known depth or a root, then unwind.
    std::vector<NodeId> chain;
    NodeId x = v;
    while (x != -1 && depth[x] == -1) {
      chain.push_back(x);
      x = parent[x];
      LRDIP_CHECK_MSG(static_cast<int>(chain.size()) <= g.n(), "parent pointers contain a cycle");
    }
    int d = (x == -1) ? -1 : depth[x];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) depth[*it] = ++d;
  }
  return depth;
}

/// Builds the contraction of g in which every node v with depth parity
/// `contracted_parity` (and a parent) merges into its parent, then greedy-colors
/// it. Returns the color of each original node's supernode.
std::vector<int> contraction_coloring(const Graph& g, const std::vector<NodeId>& parent,
                                      const std::vector<int>& depth, int contracted_parity) {
  // Supernode representative per node: walk up while the node contracts.
  std::vector<NodeId> rep(g.n(), -1);
  for (NodeId v = 0; v < g.n(); ++v) {
    NodeId x = v;
    while (parent[x] != -1 && depth[x] % 2 == contracted_parity) x = parent[x];
    rep[v] = x;
  }
  // Contracted simple graph on representatives.
  std::vector<NodeId> rep_id(g.n(), -1);
  std::vector<NodeId> reps;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (rep[v] == v) {
      rep_id[v] = static_cast<NodeId>(reps.size());
      reps.push_back(v);
    }
  }
  // Keep the first host edge of each contracted pair, in host edge order (the
  // greedy coloring, and so the wire, depends on it): bucket the edges
  // stably by their smaller endpoint, then stamp the larger one per bucket.
  const int r = static_cast<int>(reps.size());
  std::vector<NodeId> lo(g.m(), -1), hi(g.m(), -1);
  std::vector<int> start(r + 1, 0);
  for (EdgeId e = 0; e < g.m(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const NodeId a = rep_id[rep[u]], b = rep_id[rep[v]];
    if (a == b) continue;
    lo[e] = std::min(a, b);
    hi[e] = std::max(a, b);
    ++start[lo[e] + 1];
  }
  for (int a = 0; a < r; ++a) start[a + 1] += start[a];
  std::vector<EdgeId> bucketed(start[r]);
  {
    std::vector<int> fill(start.begin(), start.end() - 1);
    for (EdgeId e = 0; e < g.m(); ++e) {
      if (lo[e] != -1) bucketed[fill[lo[e]]++] = e;
    }
  }
  std::vector<char> first(g.m(), 0);
  std::vector<NodeId> stamp(r, -1);
  for (int a = 0; a < r; ++a) {
    for (int t = start[a]; t < start[a + 1]; ++t) {
      const EdgeId e = bucketed[t];
      if (stamp[hi[e]] == a) continue;
      stamp[hi[e]] = a;
      first[e] = 1;
    }
  }
  Graph contracted(r);
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (!first[e]) continue;
    const auto [u, v] = g.endpoints(e);
    contracted.add_edge(rep_id[rep[u]], rep_id[rep[v]]);
  }
  const std::vector<int> super_color = greedy_coloring(contracted);
  std::vector<int> color(g.n());
  for (NodeId v = 0; v < g.n(); ++v) color[v] = super_color[rep_id[rep[v]]];
  return color;
}

}  // namespace

ForestEncoding encode_forest(const Graph& g, const std::vector<NodeId>& parent) {
  LRDIP_CHECK(static_cast<int>(parent.size()) == g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    if (parent[v] != -1) {
      LRDIP_CHECK_MSG(g.has_edge(v, parent[v]), "forest parent must be a neighbor");
    }
  }
  const std::vector<int> depth = forest_depths(g, parent);
  // G_odd contracts odd->parent edges, G_even contracts even->parent edges.
  const std::vector<int> c1 = contraction_coloring(g, parent, depth, /*parity=*/1);
  const std::vector<int> c2 = contraction_coloring(g, parent, depth, /*parity=*/0);

  ForestEncoding enc;
  enc.code.resize(g.n());
  int max_color = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    enc.code[v] = {c1[v], c2[v], depth[v] % 2};
    max_color = std::max({max_color, c1[v], c2[v]});
  }
  enc.color_bits = bits_for_values(static_cast<std::uint64_t>(max_color) + 1);
  return enc;
}

NodeId decode_forest_parent(const Graph& g, NodeId v,
                            const std::function<ForestCode(NodeId)>& code_of) {
  const ForestCode me = code_of(v);
  NodeId found = -1;
  for (const Half& h : g.neighbors(v)) {
    const ForestCode nb = code_of(h.to);
    if (nb.parity == me.parity) continue;
    const bool match = (me.parity == 1) ? (nb.c1 == me.c1) : (nb.c2 == me.c2);
    if (match) {
      if (found != -1) return found;  // ambiguous; forest_parent_ambiguous flags it
      found = h.to;
    }
  }
  return found;
}

std::vector<NodeId> decode_forest_children(const Graph& g, NodeId v,
                                           const std::function<ForestCode(NodeId)>& code_of) {
  const ForestCode me = code_of(v);
  std::vector<NodeId> children;
  for (const Half& h : g.neighbors(v)) {
    const ForestCode nb = code_of(h.to);
    if (nb.parity == me.parity) continue;
    const bool match = (me.parity == 1) ? (nb.c2 == me.c2) : (nb.c1 == me.c1);
    if (match) children.push_back(h.to);
  }
  return children;
}

bool forest_parent_ambiguous(const Graph& g, NodeId v,
                             const std::function<ForestCode(NodeId)>& code_of) {
  const ForestCode me = code_of(v);
  int matches = 0;
  for (const Half& h : g.neighbors(v)) {
    const ForestCode nb = code_of(h.to);
    if (nb.parity == me.parity) continue;
    const bool match = (me.parity == 1) ? (nb.c1 == me.c1) : (nb.c2 == me.c2);
    matches += match ? 1 : 0;
  }
  return matches > 1;
}

}  // namespace lrdip
