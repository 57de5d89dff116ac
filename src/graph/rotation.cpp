#include "graph/rotation.hpp"

#include <algorithm>
#include <map>

#include "graph/algorithms.hpp"
#include "support/check.hpp"

namespace lrdip {

RotationSystem::RotationSystem(const Graph& g, std::vector<std::vector<EdgeId>> order)
    : order_(std::move(order)) {
  LRDIP_CHECK(static_cast<int>(order_.size()) == g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    LRDIP_CHECK_MSG(static_cast<int>(order_[v].size()) == g.degree(v),
                    "rotation order must list every incident edge exactly once");
    std::vector<EdgeId> sorted = order_[v];
    std::vector<EdgeId> incident;
    for (const Half& h : g.neighbors(v)) incident.push_back(h.edge);
    std::sort(sorted.begin(), sorted.end());
    std::sort(incident.begin(), incident.end());
    LRDIP_CHECK_MSG(sorted == incident, "rotation order must be a permutation of incident edges");
  }
}

RotationSystem RotationSystem::from_adjacency(const Graph& g) {
  std::vector<std::vector<EdgeId>> order(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    for (const Half& h : g.neighbors(v)) order[v].push_back(h.edge);
  }
  return RotationSystem(g, std::move(order));
}

int RotationSystem::position(NodeId v, EdgeId e) const {
  const auto& ord = order_[v];
  for (int i = 0; i < static_cast<int>(ord.size()); ++i) {
    if (ord[i] == e) return i;
  }
  LRDIP_CHECK_MSG(false, "edge not incident on node");
  return -1;
}

EdgeId RotationSystem::next_clockwise(NodeId v, EdgeId e) const {
  const auto& ord = order_[v];
  const int i = position(v, e);
  return ord[(i + 1) % ord.size()];
}

EdgeId RotationSystem::next_counterclockwise(NodeId v, EdgeId e) const {
  const auto& ord = order_[v];
  const int i = position(v, e);
  return ord[(i + ord.size() - 1) % ord.size()];
}

int count_faces(const Graph& g, const RotationSystem& rot) {
  LRDIP_CHECK(rot.n() == g.n());
  // Darts: (edge, direction). Dart (e, 0) goes endpoints(e).first -> second.
  // Face-tracing successor of dart d = (u -> v via e): leave v via the next
  // edge clockwise after e at v, directed away from v.
  std::vector<char> visited(2 * static_cast<std::size_t>(g.m()), 0);
  int faces = 0;
  for (int d = 0; d < 2 * g.m(); ++d) {
    if (visited[d]) continue;
    ++faces;
    int cur = d;
    while (!visited[cur]) {
      visited[cur] = 1;
      const EdgeId e = cur / 2;
      const auto [a, b] = g.endpoints(e);
      const NodeId head = (cur % 2 == 0) ? b : a;  // dart points at `head`
      const EdgeId e2 = rot.next_clockwise(head, e);
      const auto [a2, b2] = g.endpoints(e2);
      LRDIP_CHECK_MSG(a2 == head || b2 == head, "rotation references a non-incident edge");
      // Leave `head` along e2.
      cur = 2 * e2 + (a2 == head ? 0 : 1);
    }
  }
  return faces;
}

bool is_planar_embedding(const Graph& g, const RotationSystem& rot) {
  const auto [comp, ncomp] = components(g);
  std::vector<char> has_edge(static_cast<std::size_t>(ncomp), 0);
  for (EdgeId e = 0; e < g.m(); ++e) {
    has_edge[static_cast<std::size_t>(comp[g.endpoints(e).first])] = 1;
  }
  int want = 0;
  for (int c = 0; c < ncomp; ++c) want += has_edge[static_cast<std::size_t>(c)] ? 2 : 1;
  return g.n() - g.m() + count_faces(g, rot) == want;
}

int euler_genus(const Graph& g, const RotationSystem& rot) {
  LRDIP_CHECK_MSG(is_connected(g), "euler_genus expects a connected graph");
  const int f = count_faces(g, rot);
  const int euler = g.n() - g.m() + f;
  LRDIP_CHECK((2 - euler) % 2 == 0);
  return (2 - euler) / 2;
}

RotationSystem rotation_from_faces(const Graph& g, const FaceList& faces) {
  if (faces.empty()) return RotationSystem::from_adjacency(g);

  // Face transition at v: arriving via edge (u,v), leave via edge (v,w).
  // That leaving edge is by definition next_clockwise(v, arriving edge).
  std::vector<std::map<EdgeId, EdgeId>> succ(g.n());
  for (const auto& face : faces) {
    const int k = static_cast<int>(face.size());
    for (int i = 0; i < k; ++i) {
      const NodeId u = face[i];
      const NodeId v = face[(i + 1) % k];
      const NodeId w = face[(i + 2) % k];
      const EdgeId in_e = g.find_edge(u, v);
      const EdgeId out_e = g.find_edge(v, w);
      LRDIP_CHECK(in_e != -1 && out_e != -1);
      LRDIP_CHECK_MSG(!succ[v].count(in_e), "dart traversed by two faces");
      succ[v][in_e] = out_e;
    }
  }

  std::vector<std::vector<EdgeId>> order(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    if (g.degree(v) == 0) continue;
    LRDIP_CHECK_MSG(static_cast<int>(succ[v].size()) == g.degree(v),
                    "every incident edge must appear in some face");
    EdgeId e = succ[v].begin()->first;
    for (int i = 0; i < g.degree(v); ++i) {
      order[v].push_back(e);
      e = succ[v].at(e);
    }
    LRDIP_CHECK_MSG(e == order[v].front(), "rotation at node is not a single cycle");
  }
  return RotationSystem(g, std::move(order));
}

}  // namespace lrdip
