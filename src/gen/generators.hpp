// Instance generators.
//
// Every yes-instance comes with the certificate the honest prover needs
// (Hamiltonian path / rotation system / ear decomposition), produced by
// construction rather than recomputed, so benchmarks can run at sizes far
// beyond what the O(n m) centralized recognizers handle. No-instances realize
// the adversarial families used in the paper's soundness discussions
// (crossing chords, planted K4 / K5 / K3,3 subdivisions with long
// subdivision paths, corrupted rotations, flipped LR edges).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rotation.hpp"
#include "graph/series_parallel.hpp"
#include "support/rng.hpp"

namespace lrdip {

// ---------------------------------------------------------------- paths etc.

Graph path_graph(int n);
Graph cycle_graph(int n);
Graph star_graph(int leaves);
Graph complete_graph(int n);
Graph complete_bipartite(int a, int b);

// ------------------------------------------------- path-outerplanar family

struct PathOuterplanarInstance {
  Graph graph;
  std::vector<NodeId> order;  // Hamiltonian path, left to right
};

/// A Hamiltonian path on shuffled node ids plus a random properly nested set
/// of arcs. `arc_factor` ~ arcs per node (capped by nesting feasibility).
PathOuterplanarInstance random_path_outerplanar(int n, double arc_factor, Rng& rng);

/// A no-instance: cycle 0..n-1 plus two crossing chords (contains a K4
/// subdivision; not outerplanar, hence not path-outerplanar).
Graph crossing_chords_no_instance(int n, Rng& rng);

/// Near-yes no-instance ("one swap in the Hamiltonian order"): a random
/// path-outerplanar instance with (a) a K4 subdivision completed over four
/// path positions by adding at most three arcs — so the graph itself leaves
/// the class — and (b) one adjacent transposition in the committed order, so
/// the shipped certificate is the near-miss a cheating prover would replay.
PathOuterplanarInstance path_outerplanar_order_swap_no(int n, double arc_factor, Rng& rng);

/// A no-instance without a Hamiltonian path: spider with 3 subdivided legs.
Graph spider_no_instance(int leg_len);

// ------------------------------------------------------ outerplanar family

/// Maximal outerplanar: polygon 0..n-1 triangulated by random chords
/// (biconnected; Hamiltonian cycle is 0,1,...,n-1).
Graph random_maximal_outerplanar(int n, Rng& rng);

/// Drops each chord of a random maximal outerplanar graph with probability
/// `drop`; stays biconnected outerplanar (the polygon cycle survives).
Graph random_biconnected_outerplanar(int n, double drop, Rng& rng);

/// Glues `blocks` random biconnected outerplanar blocks into a random
/// block-cut tree (general connected outerplanar).
Graph random_outerplanar(int n, int blocks, Rng& rng);

/// The same construction, carrying the per-block Hamiltonian-cycle
/// certificates (in host node ids) that the Theorem 1.3 honest prover needs.
struct OuterplanarCertInstance {
  Graph graph;
  std::vector<std::vector<NodeId>> block_cycles;
};
OuterplanarCertInstance random_outerplanar_with_cert(int n, int blocks, Rng& rng);

/// A no-instance for outerplanarity: the same glued construction with one
/// block replaced by a cycle with two crossing chords (K4 subdivision). The
/// bad block's polygon cycle ships as the prover's best-effort certificate.
OuterplanarCertInstance outerplanar_no_instance(int n, int blocks, Rng& rng);

// ----------------------------------------------------------- planar family

struct PlanarInstance {
  Graph graph;
  RotationSystem rotation;
};

/// Random Apollonian network (planar 3-tree): start from a triangle, insert
/// each new node into a random face. Maximal planar; rotation maintained by
/// construction (no embedding recomputation).
PlanarInstance random_apollonian(int n, Rng& rng);

/// rows x cols grid with its natural embedding.
PlanarInstance grid_graph(int rows, int cols);

/// Apollonian network with non-tree edges deleted independently with
/// probability `drop` (stays connected and planar; rotation updated in place).
PlanarInstance random_planar(int n, double drop, Rng& rng);

/// Plants a subdivided `kernel` (e.g. K5 or K3,3) into a planar host: the
/// kernel's branch nodes are fresh, each kernel edge becomes a path of
/// `subdiv` new nodes, and the gadget is stitched to the host by one edge.
/// The result is non-planar with all "violation" paths of length ~subdiv —
/// the paper's argument for why cluster-local checks must fail.
Graph plant_subdivision(const Graph& host, const Graph& kernel, int subdiv, Rng& rng);

/// A planted-subdivision no-instance together with the minimal Kuratowski
/// witness the Boyer–Myrvold engine extracts from it. The witness is the
/// subdivided kernel itself (the gadget meets the planar host in a single
/// stitch edge, so no smaller obstruction exists); it is re-extracted and
/// validated rather than trusted from the construction, so the edge ids are
/// exactly what `kuratowski_witness` reports to any consumer.
struct PlantedWitnessInstance {
  Graph graph;
  std::vector<EdgeId> witness;  ///< edge ids of a K5 / K3,3 subdivision
};

/// Plants a subdivided K5 or K3,3 (coin flip) into a random planar host and
/// returns the graph with its extracted, validated Kuratowski witness.
PlantedWitnessInstance planted_kuratowski_no(int n, int subdiv, Rng& rng);

/// A planar instance with the rotation corrupted at `k` random nodes of
/// degree >= 3 (random transposition in the local order). With the host
/// having >= 1 face of length > 3 this usually raises the genus; callers
/// should check `is_planar_embedding` when they need a guaranteed no-instance.
PlanarInstance corrupt_rotation(PlanarInstance inst, int k, Rng& rng);

/// Near-yes no-instance for the embedding task ("forged rotation"): a random
/// planar graph whose rotation is corrupted — retrying with progressively more
/// transpositions — until `is_planar_embedding` is provably false. The graph
/// stays planar; only the claimed embedding is wrong.
PlanarInstance forged_rotation_no(int n, double drop, Rng& rng);

// -------------------------------------------------- series-parallel family

struct SpInstance {
  Graph graph;
  EarDecomposition ears;
  /// Two interior nodes of different branches of some parallel composition;
  /// adding this edge creates a K4 subdivision (a canonical no-instance).
  std::optional<std::pair<NodeId, NodeId>> k4_chord;
};

/// Random two-terminal series-parallel graph with ~n nodes (biconnected,
/// simple). The ear decomposition is derived and validated.
SpInstance random_series_parallel(int n, Rng& rng);

/// `blocks` SP blocks glued at cut vertices: treewidth <= 2, not SP.
Graph random_treewidth2(int n, int blocks, Rng& rng);

/// Treewidth-2 instance with per-block nested-ear-decomposition certificates
/// (in host node ids) for the Theorem 1.7 honest prover.
struct Tw2CertInstance {
  Graph graph;
  std::vector<EarDecomposition> block_ears;
};
Tw2CertInstance random_treewidth2_with_cert(int n, int blocks, Rng& rng);

/// Treewidth-2 no-instance: glued SP blocks with a K4 chord added in one
/// block (treewidth 3 there).
Graph treewidth2_no_instance(int n, int blocks, Rng& rng);

/// SP graph plus the K4 chord: contains a K4 subdivision (treewidth 3).
Graph series_parallel_no_instance(int n, Rng& rng);

// ------------------------------------------------------- structured trees

/// Caterpillar: a spine path with `legs` pendant leaves per spine node.
/// Outerplanar, treewidth 1; has no Hamiltonian path once legs >= 2.
Graph caterpillar(int spine, int legs);

/// Fan: path 0..n-2 plus an apex adjacent to every path node. Maximal
/// outerplanar with maximum degree n-1 (stress case for degree-independent
/// outerplanarity).
Graph fan_graph(int n);

/// Uniform random attachment tree (each new node picks an existing parent).
Graph random_tree(int n, Rng& rng);

/// Halin graph: a random tree with all internal nodes of degree >= 3, plus a
/// cycle through its leaves in planar order. Planar and 3-connected; contains
/// wheels as minors, so neither outerplanar nor treewidth <= 2.
Graph halin_graph(int leaves, Rng& rng);

// --------------------------------------------------------------- LR family

struct LrInstance {
  Graph graph;
  std::vector<NodeId> order;  // Hamiltonian path, left to right
  /// Claimed direction per edge id: true if the edge is directed from its
  /// earlier endpoint (in `order`) to the later one.
  /// For planted no-instances some edges are flipped.
  std::vector<char> forward;
  bool yes = true;
};

/// Yes-instance: properly nested arcs over a path, all directed left-to-right
/// (the graph is planar so the Lemma 2.4 edge-label simulation applies).
LrInstance random_lr_yes(int n, double arc_factor, Rng& rng);

/// No-instance: same construction with `flips` non-path edges reversed.
LrInstance random_lr_no(int n, double arc_factor, int flips, Rng& rng);

/// Position of every node on the instance's Hamiltonian path.
std::vector<int> lr_path_positions(const LrInstance& inst);

/// The claimed tail (origin endpoint) per edge id: `forward` applied to the
/// path order. This is the instance-to-protocol plumbing every harness needs;
/// hoisted here so benchmarks, tests, and examples share one copy.
std::vector<NodeId> lr_claimed_tails(const LrInstance& inst);

/// Edge ids random_lr_no flipped (the instance's obstruction witness). Read
/// straight off `forward` — no search — so near-no adapters can attach it to
/// BoundInstance for the strategic provers at zero per-run cost.
std::vector<EdgeId> lr_flipped_edges(const LrInstance& inst);

}  // namespace lrdip
