// Section 7: planar embedding (Theorem 1.4) and planarity (Theorem 1.5).
//
// Planar embedding: the input assigns every node a clockwise rotation of its
// incident edges; the task is to decide whether the rotation system is a
// genus-0 embedding. The protocol commits to a rooted spanning tree T
// (Lemma 2.3 + amplified Lemma 2.5) and reduces to path-outerplanarity on the
// derived graph h(G, T, rho): the Euler tour of T in rotation order is the
// Hamiltonian path P, each node v appearing as chi(v)+1 copies, and every
// non-tree edge becomes an arc between the copies determined by the first
// tree edge counterclockwise of it at each endpoint (Lemma 7.3: rho is planar
// iff h is path-outerplanar w.r.t. P). Every original node simulates its own
// copies; labels of copy x_i(v) are carried by child c_i(v), with boundary
// copies duplicated to v — at most 5 extra copies per node, keeping the proof
// size O(log log n).
//
// Planarity: the prover additionally ships the rotation itself through edge
// labels (rho_u(e), rho_v(e)) — an O(log Delta) additive cost — and the
// embedded-planarity protocol runs on the claimed rotation.
#pragma once

#include <optional>

#include "dip/store.hpp"
#include "graph/graph.hpp"
#include "graph/rotation.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

struct PlanarEmbeddingInstance {
  const Graph* graph = nullptr;
  const RotationSystem* rotation = nullptr;
};

struct PeParams {
  int c = 3;
};

inline constexpr int kPlanarEmbeddingRounds = 5;

/// `faults`, when non-null, corrupts every recorded transcript (the spanning-
/// tree commitment and the embedded path-outerplanarity sub-protocol) between
/// prover and verifier; the hardened decisions reject locally, never throw.
StageResult planar_embedding_stage(const PlanarEmbeddingInstance& inst, const PeParams& params,
                                   Rng& rng, FaultInjector* faults = nullptr);

Outcome run_planar_embedding(const PlanarEmbeddingInstance& inst, const PeParams& params,
                             Rng& rng, FaultInjector* faults = nullptr);

/// The h(G, T, rho) construction (exposed for tests / the anatomy example).
struct EulerExpansion {
  Graph h;
  std::vector<NodeId> path;           // Hamiltonian path of h, left to right
  std::vector<int> copy_offset;       // first copy id per original node
  std::vector<int> num_copies;        // chi(v) + 1
  std::vector<NodeId> copy_owner;     // h-node -> original node
};
EulerExpansion build_euler_expansion(const Graph& g, const RotationSystem& rot,
                                     const std::vector<NodeId>& tree_parent,
                                     const std::vector<EdgeId>& tree_parent_edge, NodeId root);

/// The within-corner order check that complements Lemma 7.3: path-
/// outerplanarity constrains arcs with distinct copies, but arcs sharing a
/// copy (same corner of the same node) can nest in any order — the rotation
/// prescribes exactly one. A rotation is genus 0 iff h nests properly AND at
/// every copy the corner's non-tree edges, read in rotation order, have
/// circularly increasing partner positions. Per-node local (each node knows
/// rho_v and its arcs' committed endpoints). Returns per-node pass flags.
std::vector<char> corner_order_checks(const Graph& g, const RotationSystem& rot,
                                      const std::vector<NodeId>& tree_parent,
                                      const std::vector<EdgeId>& tree_parent_edge,
                                      const EulerExpansion& exp);

// --------------------------------------------------------------- planarity

struct PlanarityInstance {
  const Graph* graph = nullptr;
  /// Embedding certificate for yes-instances (generator-provided); if absent
  /// the prover runs the centralized embedder, and if the graph is non-planar
  /// it commits to a doomed adjacency-order rotation.
  const RotationSystem* certificate = nullptr;
};

/// Rotation shipping (O(log Delta) bits per edge, charged along the
/// degeneracy orientation) composed with the embedded-planarity stage on the
/// claimed rotation. Exposed so the protocol registry and run_planarity share
/// one body.
StageResult planarity_stage(const PlanarityInstance& inst, const PeParams& params, Rng& rng,
                            FaultInjector* faults = nullptr);

Outcome run_planarity(const PlanarityInstance& inst, const PeParams& params, Rng& rng,
                      FaultInjector* faults = nullptr);

}  // namespace lrdip
