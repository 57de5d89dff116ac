// Combinatorial embeddings (rotation systems) and face tracing.
//
// A rotation system assigns every node a cyclic (clockwise) order of its
// incident edges. Tracing faces of the rotation system and checking Euler's
// formula (n - m + f == 2 per connected component with an edge, genus 0) is
// the centralized ground truth for the planar-embedding task of Section 7.
//
// A RotationSystem holds only the per-node orders (it is freely movable and
// copyable); functions that need the incidence structure take the graph
// explicitly.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace lrdip {

class RotationSystem {
 public:
  RotationSystem() = default;

  /// Builds the rotation from explicit per-node edge orders. order[v] must be
  /// a permutation of the ids of v's incident edges in g.
  RotationSystem(const Graph& g, std::vector<std::vector<EdgeId>> order);

  /// The trivial rotation induced by adjacency-list order.
  static RotationSystem from_adjacency(const Graph& g);

  const std::vector<EdgeId>& order_at(NodeId v) const { return order_[v]; }

  /// rho_v(e): position of e in v's clockwise order.
  int position(NodeId v, EdgeId e) const;

  /// The edge after e in v's clockwise order.
  EdgeId next_clockwise(NodeId v, EdgeId e) const;

  /// The edge after e in v's counterclockwise order.
  EdgeId next_counterclockwise(NodeId v, EdgeId e) const;

  int n() const { return static_cast<int>(order_.size()); }

 private:
  std::vector<std::vector<EdgeId>> order_;
};

/// Number of faces traced by the rotation system (next-edge rule:
/// arrive at v via e, leave via the next edge clockwise after e at v).
int count_faces(const Graph& g, const RotationSystem& rot);

/// True iff the rotation system is a genus-0 (planar) embedding of g, which
/// may be disconnected: n - m + f sums 2 per component with an edge and 1 per
/// isolated node (faces are traced over darts, so an isolated node has none).
bool is_planar_embedding(const Graph& g, const RotationSystem& rot);

/// Euler genus of the embedding: g = (2 - n + m - f) / 2 for connected graphs.
int euler_genus(const Graph& g, const RotationSystem& rot);

/// Faces of a planar embedding of a biconnected graph; each face is a simple
/// cycle of nodes in boundary order.
using FaceList = std::vector<std::vector<NodeId>>;

/// Converts the face list of a biconnected planar embedding into a rotation
/// system on g (adjacency order when the list is empty).
RotationSystem rotation_from_faces(const Graph& g, const FaceList& faces);

}  // namespace lrdip
