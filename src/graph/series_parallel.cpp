#include "graph/series_parallel.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "graph/algorithms.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

/// SP composition tree arena. Composite edges are tree nodes; reductions merge
/// them bottom-up until (for an SP graph) one edge remains.
struct SpArena {
  enum class Type { kLeaf, kSeries, kParallel };
  struct Child {
    int idx;
    bool flipped;  // traverse child t -> s instead of s -> t
  };
  struct Node {
    Type type;
    NodeId s, t;  // oriented endpoints in the host graph
    std::vector<Child> children;
  };
  std::vector<Node> nodes;

  int add_leaf(NodeId s, NodeId t) {
    nodes.push_back({Type::kLeaf, s, t, {}});
    return static_cast<int>(nodes.size()) - 1;
  }
  int add_series(Child a, Child b, NodeId s, NodeId t) {
    nodes.push_back({Type::kSeries, s, t, {a, b}});
    return static_cast<int>(nodes.size()) - 1;
  }
  int add_parallel(Child a, Child b, NodeId s, NodeId t) {
    nodes.push_back({Type::kParallel, s, t, {a, b}});
    return static_cast<int>(nodes.size()) - 1;
  }
};

struct ReductionResult {
  bool success = false;
  SpArena arena;
  int root = -1;  // arena index of the final composite edge
  std::vector<int> live_roots;  // arena indices of the composites left alive
};

/// Runs the series/parallel reduction on a connected multigraph. Success iff a
/// single composite edge remains.
ReductionResult sp_reduce(const Graph& g) {
  ReductionResult res;
  if (g.m() == 0) return res;

  SpArena& arena = res.arena;
  struct Live {
    NodeId s, t;
    int arena_idx;
    bool alive;
  };
  std::vector<Live> live;
  std::vector<std::vector<int>> inc(g.n());  // live-edge ids per node (lazy)
  std::vector<int> deg(g.n(), 0);
  std::map<std::pair<NodeId, NodeId>, std::vector<int>> by_pair;  // lazy

  auto key_of = [](NodeId a, NodeId b) {
    return std::pair<NodeId, NodeId>(std::min(a, b), std::max(a, b));
  };

  auto add_live = [&](NodeId s, NodeId t, int arena_idx) {
    const int id = static_cast<int>(live.size());
    live.push_back({s, t, arena_idx, true});
    inc[s].push_back(id);
    inc[t].push_back(id);
    ++deg[s];
    ++deg[t];
    by_pair[key_of(s, t)].push_back(id);
    return id;
  };
  auto kill = [&](int id) {
    live[id].alive = false;
    --deg[live[id].s];
    --deg[live[id].t];
  };

  std::deque<std::pair<NodeId, NodeId>> pair_queue;
  std::deque<NodeId> node_queue;
  for (EdgeId e = 0; e < g.m(); ++e) {
    const auto [u, v] = g.endpoints(e);
    add_live(u, v, arena.add_leaf(u, v));
    pair_queue.push_back(key_of(u, v));
  }
  for (NodeId v = 0; v < g.n(); ++v) node_queue.push_back(v);

  while (!pair_queue.empty() || !node_queue.empty()) {
    if (!pair_queue.empty()) {
      const auto key = pair_queue.front();
      pair_queue.pop_front();
      auto& bucket = by_pair[key];
      // Compact out dead entries.
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                  [&](int id) { return !live[id].alive; }),
                   bucket.end());
      while (bucket.size() >= 2) {
        const int e1 = bucket[bucket.size() - 2];
        const int e2 = bucket[bucket.size() - 1];
        bucket.pop_back();
        bucket.pop_back();
        const NodeId s = live[e1].s, t = live[e1].t;
        const bool flip2 = (live[e2].s != s);
        const int comp = arena.add_parallel({live[e1].arena_idx, false},
                                            {live[e2].arena_idx, flip2}, s, t);
        kill(e1);
        kill(e2);
        add_live(s, t, comp);  // add_live registers the new edge in `bucket`
        node_queue.push_back(s);
        node_queue.push_back(t);
      }
      continue;
    }
    const NodeId v = node_queue.front();
    node_queue.pop_front();
    if (deg[v] != 2) continue;
    // Find the two live incident edges.
    auto& iv = inc[v];
    iv.erase(std::remove_if(iv.begin(), iv.end(), [&](int id) { return !live[id].alive; }),
             iv.end());
    if (iv.size() != 2) continue;
    const int e1 = iv[0], e2 = iv[1];
    const NodeId a = live[e1].s == v ? live[e1].t : live[e1].s;
    const NodeId b = live[e2].s == v ? live[e2].t : live[e2].s;
    if (a == b) {
      // A parallel pair through v; let the pair rule deal with it.
      pair_queue.push_back(key_of(v, a));
      node_queue.push_back(v);
      continue;
    }
    // Series composition a -> v -> b.
    const bool flip1 = (live[e1].t != v);  // want child1 oriented a -> v
    const bool flip2 = (live[e2].s != v);  // want child2 oriented v -> b
    const int comp = arena.add_series({live[e1].arena_idx, flip1},
                                      {live[e2].arena_idx, flip2}, a, b);
    kill(e1);
    kill(e2);
    add_live(a, b, comp);
    pair_queue.push_back(key_of(a, b));
    node_queue.push_back(a);
    node_queue.push_back(b);
  }

  for (const Live& l : live) {
    if (l.alive) res.live_roots.push_back(l.arena_idx);
  }
  res.success = res.live_roots.size() == 1;
  if (res.success) res.root = res.live_roots.front();
  return res;
}

/// The edge ids, increasing, reachable from a composite a failed reduction
/// left alive through series nodes only (a live single edge is its own
/// spine). Leaf e is arena node e: the leaves were added first, in edge order.
std::vector<EdgeId> spine_edges(const ReductionResult& res) {
  std::vector<EdgeId> out;
  std::vector<int> stack = res.live_roots;
  while (!stack.empty()) {
    const int idx = stack.back();
    stack.pop_back();
    const SpArena::Node& node = res.arena.nodes[idx];
    if (node.type == SpArena::Type::kLeaf) out.push_back(idx);
    if (node.type != SpArena::Type::kSeries) continue;
    for (const SpArena::Child& c : node.children) stack.push_back(c.idx);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Node sequence of the composite edge from s to t (respecting flips).
std::vector<NodeId> path_of(const SpArena& arena, int idx, bool flipped) {
  const auto& node = arena.nodes[idx];
  switch (node.type) {
    case SpArena::Type::kLeaf:
      return flipped ? std::vector<NodeId>{node.t, node.s}
                     : std::vector<NodeId>{node.s, node.t};
    case SpArena::Type::kParallel: {
      const auto& c = node.children.front();
      return path_of(arena, c.idx, flipped ^ c.flipped);
    }
    case SpArena::Type::kSeries: {
      std::vector<SpArena::Child> order = node.children;
      if (flipped) std::reverse(order.begin(), order.end());
      std::vector<NodeId> out;
      for (const auto& c : order) {
        auto part = path_of(arena, c.idx, flipped ^ c.flipped);
        if (out.empty()) {
          out = std::move(part);
        } else {
          LRDIP_CHECK(out.back() == part.front());
          out.insert(out.end(), part.begin() + 1, part.end());
        }
      }
      return out;
    }
  }
  LRDIP_CHECK(false);
  return {};
}

void collect_ears(const SpArena& arena, int idx, bool flipped, int host,
                  EarDecomposition& ears) {
  const auto& node = arena.nodes[idx];
  switch (node.type) {
    case SpArena::Type::kLeaf:
      return;
    case SpArena::Type::kSeries:
      for (const auto& c : node.children) {
        collect_ears(arena, c.idx, flipped ^ c.flipped, host, ears);
      }
      return;
    case SpArena::Type::kParallel: {
      const auto& c0 = node.children.front();
      collect_ears(arena, c0.idx, flipped ^ c0.flipped, host, ears);
      for (std::size_t i = 1; i < node.children.size(); ++i) {
        const auto& c = node.children[i];
        const int id = static_cast<int>(ears.size());
        ears.push_back({path_of(arena, c.idx, flipped ^ c.flipped), host});
        collect_ears(arena, c.idx, flipped ^ c.flipped, id, ears);
      }
      return;
    }
  }
}

/// The ears of a successful reduction, first ear = the root composite's path.
EarDecomposition ears_of(const ReductionResult& res) {
  LRDIP_CHECK(res.success);
  EarDecomposition ears;
  ears.push_back({path_of(res.arena, res.root, false), -1});
  collect_ears(res.arena, res.root, false, 0, ears);
  return ears;
}

EarDecomposition single_edge_ear(const Graph& g) {
  const auto [u, v] = g.endpoints(0);
  return EarDecomposition{{{u, v}, -1}};
}

}  // namespace

bool is_series_parallel(const Graph& g) {
  if (g.n() <= 2) return is_connected(g);
  if (!is_connected(g)) return false;
  return sp_reduce(g).success;
}

bool is_treewidth_at_most_2(const Graph& g) {
  // Eliminate degree <= 2 vertices, adding fill edges between the two
  // neighbors of degree-2 vertices. tw(G) <= 2 iff everything eliminates.
  std::vector<std::set<NodeId>> adj(g.n());
  for (EdgeId e = 0; e < g.m(); ++e) {
    const auto [u, v] = g.endpoints(e);
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::deque<NodeId> queue;
  std::vector<char> done(g.n(), 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    if (adj[v].size() <= 2) queue.push_back(v);
  }
  int eliminated = 0;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    if (done[v] || adj[v].size() > 2) continue;
    done[v] = 1;
    ++eliminated;
    std::vector<NodeId> nb(adj[v].begin(), adj[v].end());
    for (NodeId u : nb) adj[u].erase(v);
    if (nb.size() == 2) {
      adj[nb[0]].insert(nb[1]);
      adj[nb[1]].insert(nb[0]);
    }
    for (NodeId u : nb) {
      if (!done[u] && adj[u].size() <= 2) queue.push_back(u);
    }
    adj[v].clear();
  }
  return eliminated == g.n();
}

std::optional<EarDecomposition> nested_ear_decomposition(const Graph& g) {
  LRDIP_CHECK(g.n() >= 2);
  if (!is_connected(g)) return std::nullopt;
  if (g.m() == 1) return single_edge_ear(g);
  const ReductionResult res = sp_reduce(g);
  if (!res.success) return std::nullopt;
  return ears_of(res);
}

std::optional<EarDecomposition> one_deletion_ear_decomposition(const Graph& g) {
  LRDIP_CHECK(g.n() >= 2);
  if (!is_connected(g)) return std::nullopt;  // and so is every g - e
  if (g.m() == 1) return single_edge_ear(g);
  const ReductionResult res = sp_reduce(g);
  if (res.success) return ears_of(res);
  // Deleting an edge below a parallel node of a live composite fails too:
  // replaying the reductions on g - e leaves the node's other branch in its
  // place plus pendant chains, and a pendant edge never unsticks a reduction.
  for (const EdgeId skip : spine_edges(res)) {
    Graph h(g.n());
    for (EdgeId e = 0; e < g.m(); ++e) {
      if (e == skip) continue;
      const auto [u, v] = g.endpoints(e);
      h.add_edge(u, v);
    }
    if (auto ears = nested_ear_decomposition(h)) return ears;
  }
  return std::nullopt;
}

bool is_valid_nested_ear_decomposition(const Graph& g, const EarDecomposition& ears) {
  if (ears.empty()) return g.m() == 0;
  std::vector<char> edge_used(g.m(), 0);
  std::vector<int> first_ear_of_node(g.n(), -1);  // earliest ear containing the node

  // Pass 1: paths are simple, edges exist and partition E.
  for (std::size_t j = 0; j < ears.size(); ++j) {
    const auto& path = ears[j].path;
    if (path.size() < 2) return false;
    std::set<NodeId> seen;
    for (NodeId v : path) {
      if (!seen.insert(v).second) return false;  // not simple
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const EdgeId e = g.find_edge(path[i], path[i + 1]);
      if (e == -1 || edge_used[e]) return false;
      edge_used[e] = 1;
    }
  }
  for (char u : edge_used) {
    if (!u) return false;
  }

  // Pass 2: structural conditions.
  for (std::size_t j = 0; j < ears.size(); ++j) {
    const auto& [path, host] = ears[j];
    if (j == 0) {
      if (host != -1) return false;
    } else {
      if (host < 0 || host >= static_cast<int>(j)) return false;
      std::set<NodeId> host_nodes(ears[host].path.begin(), ears[host].path.end());
      if (!host_nodes.count(path.front()) || !host_nodes.count(path.back())) return false;
    }
    // Interior nodes must be new (not in any earlier ear).
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      if (first_ear_of_node[path[i]] != -1) return false;
    }
    for (NodeId v : path) {
      if (first_ear_of_node[v] == -1) first_ear_of_node[v] = static_cast<int>(j);
    }
  }

  // Pass 3: per-host nesting.
  std::vector<std::vector<int>> attached(ears.size());
  for (std::size_t j = 1; j < ears.size(); ++j) attached[ears[j].host].push_back(static_cast<int>(j));
  for (std::size_t i = 0; i < ears.size(); ++i) {
    if (attached[i].empty()) continue;
    std::map<NodeId, int> pos_in_host;
    for (std::size_t k = 0; k < ears[i].path.size(); ++k) {
      pos_in_host[ears[i].path[k]] = static_cast<int>(k);
    }
    std::vector<std::pair<int, int>> arcs;
    for (int j : attached[i]) {
      const auto ita = pos_in_host.find(ears[j].path.front());
      const auto itb = pos_in_host.find(ears[j].path.back());
      if (ita == pos_in_host.end() || itb == pos_in_host.end()) return false;
      int a = ita->second, b = itb->second;
      if (a == b) return false;
      if (a > b) std::swap(a, b);
      arcs.emplace_back(a, b);
    }
    std::sort(arcs.begin(), arcs.end(), [](auto x, auto y) {
      return x.first != y.first ? x.first < y.first : x.second > y.second;
    });
    std::vector<int> stack;
    for (const auto& [a, b] : arcs) {
      while (!stack.empty() && stack.back() <= a) stack.pop_back();
      if (!stack.empty() && stack.back() < b) return false;
      stack.push_back(b);
    }
  }
  return true;
}

}  // namespace lrdip
