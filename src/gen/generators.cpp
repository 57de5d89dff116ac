#include "gen/generators.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "graph/algorithms.hpp"
#include "graph/boyer_myrvold.hpp"
#include "graph/kuratowski.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

std::vector<NodeId> random_permutation(int n, Rng& rng) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.uniform(i + 1)]);
  }
  return perm;
}

/// Random properly nested arc set over positions 0..n-1 (pairs (l, r) with
/// r - l >= 2, laminar, no duplicates). Expected size grows with arc_factor.
std::vector<std::pair<int, int>> random_nested_arcs(int n, double arc_factor, Rng& rng) {
  std::vector<std::pair<int, int>> arcs;
  if (n < 3) return arcs;
  const std::uint64_t kDen = 1000;
  const auto p_open = static_cast<std::uint64_t>(
      std::min(0.85, arc_factor / (arc_factor + 1.0)) * kDen);
  const std::uint64_t p_close = kDen / 2;
  std::set<std::pair<int, int>> dedup;
  std::vector<int> open;  // left endpoints, innermost last
  for (int i = 0; i < n; ++i) {
    while (!open.empty() && rng.chance(p_close, kDen)) {
      const int l = open.back();
      open.pop_back();
      if (i - l >= 2 && dedup.emplace(l, i).second) arcs.emplace_back(l, i);
    }
    while (rng.chance(p_open, kDen)) open.push_back(i);
  }
  // Close a random suffix of still-open arcs at the last position.
  while (!open.empty()) {
    const int l = open.back();
    open.pop_back();
    if (rng.coin() && n - 1 - l >= 2 && dedup.emplace(l, n - 1).second) {
      arcs.emplace_back(l, n - 1);
    }
  }
  return arcs;
}

}  // namespace

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle_graph(int n) {
  LRDIP_CHECK(n >= 3);
  Graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

Graph star_graph(int leaves) {
  Graph g(leaves + 1);
  for (int i = 1; i <= leaves; ++i) g.add_edge(0, i);
  return g;
}

Graph complete_graph(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) g.add_edge(i, j);
  }
  return g;
}

Graph complete_bipartite(int a, int b) {
  Graph g(a + b);
  for (int i = 0; i < a; ++i) {
    for (int j = 0; j < b; ++j) g.add_edge(i, a + j);
  }
  return g;
}

PathOuterplanarInstance random_path_outerplanar(int n, double arc_factor, Rng& rng) {
  LRDIP_CHECK(n >= 2);
  PathOuterplanarInstance inst;
  inst.order = random_permutation(n, rng);
  inst.graph = Graph(n);
  for (int i = 0; i + 1 < n; ++i) inst.graph.add_edge(inst.order[i], inst.order[i + 1]);
  for (const auto& [l, r] : random_nested_arcs(n, arc_factor, rng)) {
    inst.graph.add_edge(inst.order[l], inst.order[r]);
  }
  return inst;
}

Graph crossing_chords_no_instance(int n, Rng& rng) {
  LRDIP_CHECK(n >= 6);
  Graph g = cycle_graph(n);
  // Chords (a, c) and (b, d) with a < b < c < d cross in every outerplanar
  // drawing; the result contains a K4 subdivision.
  const int a = static_cast<int>(rng.uniform(n - 5));
  const int b = a + 1 + static_cast<int>(rng.uniform(n - a - 4));
  const int c = b + 1 + static_cast<int>(rng.uniform(n - b - 3));
  const int d = c + 1 + static_cast<int>(rng.uniform(n - c - 2));
  if (g.find_edge(a, c) == -1) g.add_edge(a, c);
  if (g.find_edge(b, d) == -1) g.add_edge(b, d);
  return g;
}

PathOuterplanarInstance path_outerplanar_order_swap_no(int n, double arc_factor, Rng& rng) {
  LRDIP_CHECK(n >= 6);
  PathOuterplanarInstance inst = random_path_outerplanar(n, arc_factor, rng);
  // Four path positions a < b < c < d: the path supplies a-b, b-c, c-d, and
  // arcs (a,c), (b,d), (a,d) complete a K4 subdivision on internally disjoint
  // path segments. At most three edges separate this from the yes-instance.
  const int a = static_cast<int>(rng.uniform(n - 5));
  const int b = a + 1 + static_cast<int>(rng.uniform(n - a - 4));
  const int c = b + 1 + static_cast<int>(rng.uniform(n - b - 3));
  const int d = c + 1 + static_cast<int>(rng.uniform(n - c - 2));
  for (const auto& [l, r] : {std::pair{a, c}, std::pair{b, d}, std::pair{a, d}}) {
    if (inst.graph.find_edge(inst.order[l], inst.order[r]) == -1) {
      inst.graph.add_edge(inst.order[l], inst.order[r]);
    }
  }
  // One adjacent transposition in the committed order: the certificate the
  // honest run ships is the near-miss a replaying prover would also use.
  const int i = static_cast<int>(rng.uniform(n - 1));
  std::swap(inst.order[i], inst.order[i + 1]);
  return inst;
}

Graph spider_no_instance(int leg_len) {
  LRDIP_CHECK(leg_len >= 2);
  Graph g(1 + 3 * leg_len);
  for (int leg = 0; leg < 3; ++leg) {
    NodeId prev = 0;
    for (int i = 0; i < leg_len; ++i) {
      const NodeId v = 1 + leg * leg_len + i;
      g.add_edge(prev, v);
      prev = v;
    }
  }
  return g;
}

Graph random_maximal_outerplanar(int n, Rng& rng) {
  LRDIP_CHECK(n >= 3);
  Graph g = cycle_graph(n);
  // Triangulate the polygon 0..n-1 with an explicit stack of intervals.
  std::vector<std::pair<int, int>> stack{{0, n - 1}};
  while (!stack.empty()) {
    const auto [l, r] = stack.back();
    stack.pop_back();
    if (r - l < 2) continue;
    const int k = l + 1 + static_cast<int>(rng.uniform(r - l - 1));
    if (k - l >= 2) g.add_edge(l, k);
    if (r - k >= 2) g.add_edge(k, r);
    stack.emplace_back(l, k);
    stack.emplace_back(k, r);
  }
  return g;
}

Graph random_biconnected_outerplanar(int n, double drop, Rng& rng) {
  const Graph maximal = random_maximal_outerplanar(n, rng);
  Graph g(n);
  const std::uint64_t kDen = 1000;
  const auto p_drop = static_cast<std::uint64_t>(std::clamp(drop, 0.0, 1.0) * kDen);
  for (EdgeId e = 0; e < maximal.m(); ++e) {
    const auto [u, v] = maximal.endpoints(e);
    const bool polygon_edge = (v == u + 1) || (u == 0 && v == n - 1) ||
                              (v == 0 && u == n - 1) || (u == v + 1);
    if (polygon_edge || !rng.chance(p_drop, kDen)) g.add_edge(u, v);
  }
  return g;
}

namespace {

OuterplanarCertInstance glued_outerplanar(int n, int blocks, int bad_block, Rng& rng) {
  LRDIP_CHECK(blocks >= 1 && n >= 6 * blocks);
  // Split n nodes into `blocks` polygons of size >= 6.
  std::vector<int> sizes(blocks, 6);
  int rest = n - 6 * blocks;
  while (rest > 0) {
    sizes[rng.uniform(blocks)]++;
    --rest;
  }
  OuterplanarCertInstance inst;
  Graph& g = inst.graph;
  std::vector<NodeId> all_nodes;
  for (int b = 0; b < blocks; ++b) {
    const Graph block = (b == bad_block)
                            ? crossing_chords_no_instance(sizes[b], rng)
                            : random_biconnected_outerplanar(sizes[b], 0.4, rng);
    std::vector<NodeId> map(block.n());
    for (int i = 0; i < block.n(); ++i) {
      if (b > 0 && i == 0) {
        // Glue the block's node 0 onto a random existing node.
        map[i] = all_nodes[rng.uniform(all_nodes.size())];
      } else {
        map[i] = g.add_node();
        all_nodes.push_back(map[i]);
      }
    }
    for (EdgeId e = 0; e < block.m(); ++e) {
      const auto [u, v] = block.endpoints(e);
      g.add_edge(map[u], map[v]);
    }
    // Polygon cycle 0..size-1 in host ids (the bad block's best-effort cert).
    inst.block_cycles.emplace_back(map);
  }
  return inst;
}

}  // namespace

Graph random_outerplanar(int n, int blocks, Rng& rng) {
  return glued_outerplanar(n, blocks, /*bad_block=*/-1, rng).graph;
}

OuterplanarCertInstance random_outerplanar_with_cert(int n, int blocks, Rng& rng) {
  return glued_outerplanar(n, blocks, /*bad_block=*/-1, rng);
}

OuterplanarCertInstance outerplanar_no_instance(int n, int blocks, Rng& rng) {
  return glued_outerplanar(n, blocks, static_cast<int>(rng.uniform(blocks)), rng);
}

PlanarInstance random_apollonian(int n, Rng& rng) {
  LRDIP_CHECK(n >= 3);
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  FaceList faces{{0, 1, 2}, {2, 1, 0}};
  for (NodeId x = 3; x < n; ++x) {
    g.add_node();
    const std::size_t fi = rng.uniform(faces.size());
    const std::vector<NodeId> face = faces[fi];
    LRDIP_CHECK(face.size() == 3);
    g.add_edge(face[0], x);
    g.add_edge(face[1], x);
    g.add_edge(face[2], x);
    faces[fi] = {face[0], face[1], x};
    faces.push_back({face[1], face[2], x});
    faces.push_back({face[2], face[0], x});
  }
  RotationSystem rot = rotation_from_faces(g, faces);
  return {std::move(g), std::move(rot)};
}

PlanarInstance grid_graph(int rows, int cols) {
  LRDIP_CHECK(rows >= 1 && cols >= 1);
  Graph g(rows * cols);
  auto id = [&](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  // Clockwise order: up, right, down, left.
  std::vector<std::vector<EdgeId>> order(g.n());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const NodeId v = id(r, c);
      if (r > 0) order[v].push_back(g.find_edge(v, id(r - 1, c)));
      if (c + 1 < cols) order[v].push_back(g.find_edge(v, id(r, c + 1)));
      if (r + 1 < rows) order[v].push_back(g.find_edge(v, id(r + 1, c)));
      if (c > 0) order[v].push_back(g.find_edge(v, id(r, c - 1)));
    }
  }
  RotationSystem rot(g, std::move(order));
  return {std::move(g), std::move(rot)};
}

PlanarInstance random_planar(int n, double drop, Rng& rng) {
  PlanarInstance apo = random_apollonian(n, rng);
  const RootedForest tree = bfs_tree(apo.graph, 0);
  std::vector<char> keep(apo.graph.m(), 0);
  for (NodeId v = 0; v < apo.graph.n(); ++v) {
    if (tree.parent_edge[v] != -1) keep[tree.parent_edge[v]] = 1;
  }
  const std::uint64_t kDen = 1000;
  const auto p_drop = static_cast<std::uint64_t>(std::clamp(drop, 0.0, 1.0) * kDen);
  for (EdgeId e = 0; e < apo.graph.m(); ++e) {
    if (!keep[e] && !rng.chance(p_drop, kDen)) keep[e] = 1;
  }
  Graph g(n);
  std::vector<EdgeId> new_id(apo.graph.m(), -1);
  for (EdgeId e = 0; e < apo.graph.m(); ++e) {
    if (keep[e]) {
      const auto [u, v] = apo.graph.endpoints(e);
      new_id[e] = g.add_edge(u, v);
    }
  }
  std::vector<std::vector<EdgeId>> order(n);
  for (NodeId v = 0; v < n; ++v) {
    for (EdgeId e : apo.rotation.order_at(v)) {
      if (new_id[e] != -1) order[v].push_back(new_id[e]);
    }
  }
  RotationSystem rot(g, std::move(order));
  return {std::move(g), std::move(rot)};
}

Graph plant_subdivision(const Graph& host, const Graph& kernel, int subdiv, Rng& rng) {
  Graph g = host;
  std::vector<NodeId> branch(kernel.n());
  for (NodeId v = 0; v < kernel.n(); ++v) branch[v] = g.add_node();
  for (EdgeId e = 0; e < kernel.m(); ++e) {
    const auto [u, v] = kernel.endpoints(e);
    NodeId prev = branch[u];
    for (int i = 0; i < subdiv; ++i) {
      const NodeId mid = g.add_node();
      g.add_edge(prev, mid);
      prev = mid;
    }
    g.add_edge(prev, branch[v]);
  }
  // Stitch the gadget to the host so the result stays connected.
  if (host.n() > 0) g.add_edge(static_cast<NodeId>(rng.uniform(host.n())), branch[0]);
  return g;
}

PlantedWitnessInstance planted_kuratowski_no(int n, int subdiv, Rng& rng) {
  PlanarInstance host = random_planar(n, 0.3, rng);
  const Graph kernel = rng.coin() ? complete_graph(5) : complete_bipartite(3, 3);
  PlantedWitnessInstance out;
  out.graph = plant_subdivision(host.graph, kernel, subdiv, rng);
  out.witness = kuratowski_witness(out.graph);
  LRDIP_CHECK_MSG(is_kuratowski_witness(out.graph, out.witness),
                  "planted_kuratowski_no: extracted witness failed validation");
  return out;
}

PlanarInstance corrupt_rotation(PlanarInstance inst, int k, Rng& rng) {
  std::vector<std::vector<EdgeId>> order;
  order.reserve(inst.graph.n());
  for (NodeId v = 0; v < inst.graph.n(); ++v) order.push_back(inst.rotation.order_at(v));
  std::vector<NodeId> eligible;
  for (NodeId v = 0; v < inst.graph.n(); ++v) {
    if (inst.graph.degree(v) >= 4) eligible.push_back(v);
  }
  if (eligible.empty()) {
    for (NodeId v = 0; v < inst.graph.n(); ++v) {
      if (inst.graph.degree(v) >= 3) eligible.push_back(v);
    }
  }
  for (int i = 0; i < k && !eligible.empty(); ++i) {
    const NodeId v = eligible[rng.uniform(eligible.size())];
    auto& ord = order[v];
    const std::size_t a = rng.uniform(ord.size());
    std::size_t b = rng.uniform(ord.size());
    while (b == a) b = rng.uniform(ord.size());
    std::swap(ord[a], ord[b]);
  }
  RotationSystem rot(inst.graph, std::move(order));
  return {std::move(inst.graph), std::move(rot)};
}

PlanarInstance forged_rotation_no(int n, double drop, Rng& rng) {
  LRDIP_CHECK(n >= 4);
  for (int attempt = 0; attempt < 64; ++attempt) {
    PlanarInstance inst = corrupt_rotation(random_planar(n, drop, rng), 1 + attempt / 8, rng);
    if (!is_planar_embedding(inst.graph, inst.rotation)) return inst;
  }
  LRDIP_CHECK_MSG(false, "forged_rotation_no: every corruption stayed planar");
  return random_planar(n, drop, rng);
}

namespace {

/// Recursive two-terminal SP construction. `budget` roughly bounds the number
/// of interior nodes created. Guarantees a simple graph by never emitting two
/// direct (s, t) edges.
struct SpBuilder {
  Graph g;
  Rng* rng;
  std::optional<std::pair<NodeId, NodeId>> k4_chord;

  void connect(NodeId s, NodeId t, int budget, bool allow_direct) {
    if (budget <= 0) {
      if (allow_direct && g.find_edge(s, t) == -1) {
        g.add_edge(s, t);
      } else {
        const NodeId mid = g.add_node();
        g.add_edge(s, mid);
        g.add_edge(mid, t);
      }
      return;
    }
    const bool series = rng->coin();
    if (series) {
      const int parts = 2 + static_cast<int>(rng->uniform(2));
      NodeId prev = s;
      for (int i = 0; i < parts; ++i) {
        const NodeId nxt = (i == parts - 1) ? t : g.add_node();
        connect(prev, nxt, (budget - parts) / parts, /*allow_direct=*/prev != s || i > 0 || true);
        prev = nxt;
      }
    } else {
      const int branches = 2 + static_cast<int>(rng->uniform(2));
      std::vector<NodeId> interiors;
      for (int i = 0; i < branches; ++i) {
        // Only the first branch may be a direct edge; others get an interior
        // node so the graph stays simple.
        if (i == 0 && rng->coin() && g.find_edge(s, t) == -1 && budget < 4) {
          g.add_edge(s, t);
          continue;
        }
        const NodeId mid = g.add_node();
        interiors.push_back(mid);
        connect(s, mid, (budget - branches) / (2 * branches), true);
        connect(mid, t, (budget - branches) / (2 * branches), true);
      }
      if (!k4_chord && interiors.size() >= 2) k4_chord = {interiors[0], interiors[1]};
    }
  }
};

}  // namespace

SpInstance random_series_parallel(int n, Rng& rng) {
  LRDIP_CHECK(n >= 4);
  SpBuilder b;
  b.rng = &rng;
  b.g = Graph(2);
  // Root composition: parallel with THREE branches, two of them with tracked
  // interior nodes m1, m2. Adding the chord (m1, m2) then yields a K4
  // subdivision on {s, t, m1, m2} (the third branch supplies the s-t path),
  // so the k4_chord witness is always valid.
  const NodeId s = 0, t = 1;
  const NodeId m1 = b.g.add_node();
  const NodeId m2 = b.g.add_node();
  const NodeId m3 = b.g.add_node();
  const int budget = std::max(0, n - 5);
  b.connect(s, m1, budget / 6, true);
  b.connect(m1, t, budget / 6, true);
  b.connect(s, m2, budget / 6, true);
  b.connect(m2, t, budget / 6, true);
  b.connect(s, m3, budget / 6, true);
  b.connect(m3, t, budget / 6, true);
  b.k4_chord = {m1, m2};

  SpInstance inst;
  inst.graph = std::move(b.g);
  inst.k4_chord = b.k4_chord;
  auto ears = nested_ear_decomposition(inst.graph);
  LRDIP_CHECK_MSG(ears.has_value(), "generator must produce a series-parallel graph");
  LRDIP_CHECK(is_valid_nested_ear_decomposition(inst.graph, *ears));
  inst.ears = std::move(*ears);
  return inst;
}

namespace {

Tw2CertInstance glued_treewidth2(int n, int blocks, bool plant_k4, Rng& rng) {
  LRDIP_CHECK(blocks >= 1 && n >= 6 * blocks);
  Tw2CertInstance inst;
  Graph& g = inst.graph;
  std::vector<NodeId> all_nodes;
  const int per_block = n / blocks;
  const int bad = plant_k4 ? static_cast<int>(rng.uniform(blocks)) : -1;
  for (int b = 0; b < blocks; ++b) {
    const SpInstance block = random_series_parallel(per_block, rng);
    std::vector<NodeId> map(block.graph.n());
    for (int i = 0; i < block.graph.n(); ++i) {
      if (b > 0 && i == 0) {
        map[i] = all_nodes[rng.uniform(all_nodes.size())];
      } else {
        map[i] = g.add_node();
        all_nodes.push_back(map[i]);
      }
    }
    for (EdgeId e = 0; e < block.graph.m(); ++e) {
      const auto [u, v] = block.graph.endpoints(e);
      g.add_edge(map[u], map[v]);
    }
    if (b == bad && block.k4_chord) {
      const auto [a, c] = *block.k4_chord;
      if (g.find_edge(map[a], map[c]) == -1) g.add_edge(map[a], map[c]);
    }
    EarDecomposition ears = block.ears;
    for (Ear& ear : ears) {
      for (NodeId& v : ear.path) v = map[v];
    }
    inst.block_ears.push_back(std::move(ears));
  }
  return inst;
}

}  // namespace

Graph random_treewidth2(int n, int blocks, Rng& rng) {
  return glued_treewidth2(n, blocks, /*plant_k4=*/false, rng).graph;
}

Tw2CertInstance random_treewidth2_with_cert(int n, int blocks, Rng& rng) {
  return glued_treewidth2(n, blocks, /*plant_k4=*/false, rng);
}

Graph treewidth2_no_instance(int n, int blocks, Rng& rng) {
  return glued_treewidth2(n, blocks, /*plant_k4=*/true, rng).graph;
}

Graph series_parallel_no_instance(int n, Rng& rng) {
  SpInstance inst = random_series_parallel(n, rng);
  LRDIP_CHECK(inst.k4_chord.has_value());
  Graph g = std::move(inst.graph);
  const auto [a, c] = *inst.k4_chord;
  if (g.find_edge(a, c) == -1) g.add_edge(a, c);
  return g;
}

Graph caterpillar(int spine, int legs) {
  LRDIP_CHECK(spine >= 1 && legs >= 0);
  Graph g = path_graph(spine);
  for (NodeId s = 0; s < spine; ++s) {
    for (int l = 0; l < legs; ++l) {
      const NodeId leaf = g.add_node();
      g.add_edge(s, leaf);
    }
  }
  return g;
}

Graph fan_graph(int n) {
  LRDIP_CHECK(n >= 2);
  Graph g = path_graph(n - 1);
  const NodeId apex = g.add_node();
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(apex, v);
  return g;
}

Graph random_tree(int n, Rng& rng) {
  LRDIP_CHECK(n >= 1);
  Graph g(1);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId parent = static_cast<NodeId>(rng.uniform(v));
    g.add_node();
    g.add_edge(parent, v);
  }
  return g;
}

Graph halin_graph(int leaves, Rng& rng) {
  LRDIP_CHECK(leaves >= 3);
  // Grow a tree whose internal nodes all have degree >= 3: start from a root
  // with three children; repeatedly turn a leaf internal by giving it 2-3
  // children, until the leaf budget is met.
  Graph g(1);
  std::vector<NodeId> open;  // current leaves, in planar (DFS-compatible) order
  for (int i = 0; i < 3; ++i) {
    const NodeId c = g.add_node();
    g.add_edge(0, c);
    open.push_back(c);
  }
  while (static_cast<int>(open.size()) < leaves) {
    const std::size_t pick = rng.uniform(open.size());
    const NodeId v = open[pick];
    const int kids = 2 + static_cast<int>(rng.uniform(2));
    std::vector<NodeId> fresh;
    for (int i = 0; i < kids; ++i) {
      const NodeId c = g.add_node();
      g.add_edge(v, c);
      fresh.push_back(c);
    }
    // Children replace the parent in the planar leaf order.
    open.erase(open.begin() + static_cast<long>(pick));
    open.insert(open.begin() + static_cast<long>(pick), fresh.begin(), fresh.end());
  }
  for (std::size_t i = 0; i < open.size(); ++i) {
    g.add_edge(open[i], open[(i + 1) % open.size()]);
  }
  return g;
}

LrInstance random_lr_yes(int n, double arc_factor, Rng& rng) {
  PathOuterplanarInstance base = random_path_outerplanar(n, arc_factor, rng);
  LrInstance inst;
  inst.graph = std::move(base.graph);
  inst.order = std::move(base.order);
  inst.forward.assign(inst.graph.m(), 1);
  inst.yes = true;
  return inst;
}

LrInstance random_lr_no(int n, double arc_factor, int flips, Rng& rng) {
  LrInstance inst = random_lr_yes(n, arc_factor, rng);
  std::vector<int> pos(inst.graph.n());
  for (int i = 0; i < inst.graph.n(); ++i) pos[inst.order[i]] = i;
  std::vector<EdgeId> non_path;
  for (EdgeId e = 0; e < inst.graph.m(); ++e) {
    const auto [u, v] = inst.graph.endpoints(e);
    if (std::abs(pos[u] - pos[v]) >= 2) non_path.push_back(e);
  }
  LRDIP_CHECK_MSG(!non_path.empty(), "need at least one non-path edge to flip");
  for (int i = 0; i < flips; ++i) {
    inst.forward[non_path[rng.uniform(non_path.size())]] = 0;
  }
  inst.yes = false;
  return inst;
}

std::vector<int> lr_path_positions(const LrInstance& inst) {
  std::vector<int> pos(inst.graph.n());
  for (int i = 0; i < inst.graph.n(); ++i) pos[inst.order[i]] = i;
  return pos;
}

std::vector<EdgeId> lr_flipped_edges(const LrInstance& inst) {
  LRDIP_CHECK(static_cast<int>(inst.forward.size()) == inst.graph.m());
  std::vector<EdgeId> flipped;
  for (EdgeId e = 0; e < inst.graph.m(); ++e) {
    if (!inst.forward[e]) flipped.push_back(e);
  }
  return flipped;
}

std::vector<NodeId> lr_claimed_tails(const LrInstance& inst) {
  LRDIP_CHECK(static_cast<int>(inst.forward.size()) == inst.graph.m());
  const std::vector<int> pos = lr_path_positions(inst);
  std::vector<NodeId> tail;
  tail.reserve(inst.graph.m());
  for (EdgeId e = 0; e < inst.graph.m(); ++e) {
    const auto [u, v] = inst.graph.endpoints(e);
    const NodeId earlier = pos[u] < pos[v] ? u : v;
    const NodeId later = pos[u] < pos[v] ? v : u;
    tail.push_back(inst.forward[e] ? earlier : later);
  }
  return tail;
}

}  // namespace lrdip
