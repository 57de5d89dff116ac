#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "support/check.hpp"

namespace lrdip {

RootedForest bfs_tree(const Graph& g, NodeId root) {
  LRDIP_CHECK(root >= 0 && root < g.n());
  RootedForest f;
  f.parent.assign(g.n(), -1);
  f.parent_edge.assign(g.n(), -1);
  f.depth.assign(g.n(), -1);
  std::deque<NodeId> queue{root};
  f.depth[root] = 0;
  std::vector<char> seen(g.n(), 0);
  seen[root] = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    f.order.push_back(v);
    for (const Half& h : g.neighbors(v)) {
      if (!seen[h.to]) {
        seen[h.to] = 1;
        f.parent[h.to] = v;
        f.parent_edge[h.to] = h.edge;
        f.depth[h.to] = f.depth[v] + 1;
        queue.push_back(h.to);
      }
    }
  }
  return f;
}

bool is_connected(const Graph& g) {
  if (g.n() == 0) return true;
  return static_cast<int>(bfs_tree(g, 0).order.size()) == g.n();
}

std::pair<std::vector<int>, int> components(const Graph& g) {
  std::vector<int> comp(g.n(), -1);
  int k = 0;
  for (NodeId s = 0; s < g.n(); ++s) {
    if (comp[s] != -1) continue;
    std::deque<NodeId> queue{s};
    comp[s] = k;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const Half& h : g.neighbors(v)) {
        if (comp[h.to] == -1) {
          comp[h.to] = k;
          queue.push_back(h.to);
        }
      }
    }
    ++k;
  }
  return {std::move(comp), k};
}

bool is_spanning_tree(const Graph& g, const std::vector<char>& in_tree) {
  LRDIP_CHECK(static_cast<int>(in_tree.size()) == g.m());
  int tree_edges = 0;
  for (char c : in_tree) tree_edges += c ? 1 : 0;
  if (tree_edges != g.n() - 1) return false;
  // BFS restricted to tree edges.
  if (g.n() == 0) return true;
  std::vector<char> seen(g.n(), 0);
  std::deque<NodeId> queue{0};
  seen[0] = 1;
  int reached = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const Half& h : g.neighbors(v)) {
      if (in_tree[h.edge] && !seen[h.to]) {
        seen[h.to] = 1;
        ++reached;
        queue.push_back(h.to);
      }
    }
  }
  return reached == g.n();
}

std::vector<std::vector<NodeId>> children_of(const RootedForest& f) {
  std::vector<std::vector<NodeId>> ch(f.parent.size());
  for (NodeId v = 0; v < static_cast<NodeId>(f.parent.size()); ++v) {
    if (f.parent[v] != -1) ch[f.parent[v]].push_back(v);
  }
  return ch;
}

bool is_hamiltonian_path(const Graph& g, const std::vector<NodeId>& order) {
  if (static_cast<int>(order.size()) != g.n()) return false;
  std::vector<char> seen(g.n(), 0);
  for (NodeId v : order) {
    if (v < 0 || v >= g.n() || seen[v]) return false;
    seen[v] = 1;
  }
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (!g.has_edge(order[i], order[i + 1])) return false;
  }
  return true;
}

std::vector<NodeId> dfs_postorder(const Graph& g, NodeId root) {
  std::vector<NodeId> post;
  std::vector<char> seen(g.n(), 0);
  // Iterative DFS with explicit neighbor cursors.
  std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
  seen[root] = 1;
  while (!stack.empty()) {
    const auto [v, cursor] = stack.back();
    const auto nbrs = g.neighbors(v);
    if (cursor < nbrs.size()) {
      ++stack.back().second;
      const NodeId w = nbrs[cursor].to;
      if (!seen[w]) {
        seen[w] = 1;
        stack.emplace_back(w, 0);
      }
    } else {
      post.push_back(v);
      stack.pop_back();
    }
  }
  return post;
}

Subgraph make_subgraph(const Graph& g, const std::vector<NodeId>& nodes,
                       const std::vector<EdgeId>& edges) {
  Subgraph s;
  s.node_to_orig = nodes;
  s.graph = Graph(static_cast<int>(nodes.size()));
  s.by_orig.reserve(nodes.size());
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) s.by_orig.emplace_back(nodes[i], i);
  std::sort(s.by_orig.begin(), s.by_orig.end());
  for (std::size_t i = 1; i < s.by_orig.size(); ++i) {
    LRDIP_CHECK(s.by_orig[i - 1].first != s.by_orig[i].first);
  }
  s.edge_to_orig.reserve(edges.size());
  for (EdgeId e : edges) {
    const auto [u, v] = g.endpoints(e);
    const NodeId a = s.local(u), b = s.local(v);
    LRDIP_CHECK_MSG(a != -1 && b != -1, "subgraph edge with endpoint outside node set");
    s.graph.add_edge(a, b);
    s.edge_to_orig.push_back(e);
  }
  return s;
}

NodeId Subgraph::local(NodeId v) const {
  const auto it = std::lower_bound(by_orig.begin(), by_orig.end(), std::pair{v, NodeId{-1}});
  return (it != by_orig.end() && it->first == v) ? it->second : -1;
}

std::vector<int> match_node_sets(const std::vector<std::vector<NodeId>>& blocks,
                                 std::vector<std::vector<NodeId>> certs) {
  for (std::vector<NodeId>& c : certs) std::sort(c.begin(), c.end());
  // Certificate indices ordered by sorted node list (so by smallest node
  // first); equal lists keep certificate order, so a block's lower bound is
  // the first certificate equal to it.
  std::vector<int> by_nodes(certs.size());
  std::iota(by_nodes.begin(), by_nodes.end(), 0);
  std::stable_sort(by_nodes.begin(), by_nodes.end(),
                   [&](int a, int b) { return certs[a] < certs[b]; });
  const auto below = [&](int c, const std::vector<NodeId>& w) { return certs[c] < w; };
  std::vector<int> match(blocks.size(), -1);
  std::vector<NodeId> want;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    want = blocks[b];
    std::sort(want.begin(), want.end());
    const auto it = std::lower_bound(by_nodes.begin(), by_nodes.end(), want, below);
    if (it != by_nodes.end() && certs[*it] == want) match[b] = *it;
  }
  return match;
}

}  // namespace lrdip
