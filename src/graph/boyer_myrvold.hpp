// Boyer–Myrvold edge-addition planarity: O(n + m) testing and embedding.
//
// Implements the vertex-addition formulation of John Boyer and Wendy
// Myrvold's "On the Cutting Edge: Simplified O(n) Planarity by Edge
// Addition" (JGAA 2004): vertices are processed in descending DFS order;
// each back edge is embedded by walking up the partial embedding to mark
// pertinent biconnected components and walking down from the current
// vertex's virtual roots, merging (and possibly flipping) child bicomps so
// every back edge can be drawn on the external face. If some back edge
// cannot be embedded the graph is non-planar and a Kuratowski witness —
// the edge set of a K5 or K3,3 subdivision — can be extracted.
//
// This is the only engine behind `planar_embedding` / `is_planar` (see
// graph/planarity.hpp). Its verdicts are checked by certificate, not by a
// second engine: the rotation system by face tracing (is_planar_embedding),
// the witness by the engine-independent `classify_kuratowski`.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rotation.hpp"

namespace lrdip {

/// Outcome of a Boyer–Myrvold run. Exactly one of `embedding` (planar) or
/// `witness` (non-planar, when requested) is populated.
struct PlanarityResult {
  bool planar = false;
  /// Genus-0 rotation system; set iff planar and an embedding was requested.
  std::optional<RotationSystem> embedding;
  /// Edge ids of g forming a K5 or K3,3 subdivision; set iff non-planar and
  /// a witness was requested. Validated by `is_kuratowski_witness`.
  std::vector<EdgeId> witness;
};

/// What the caller wants materialized beyond the boolean verdict. The
/// verdict-only mode is the cheap path behind `is_planar`: it skips the
/// final bicomp consolidation, orientation-sign propagation, and rotation
/// extraction.
enum class BmOutput {
  kVerdictOnly,
  kEmbedding,
  kEmbeddingOrWitness,
};

/// Runs the edge-addition engine on a simple graph (connected or not).
PlanarityResult boyer_myrvold(const Graph& g,
                              BmOutput output = BmOutput::kEmbeddingOrWitness);

/// Verdict-only convenience: no rotation system or witness is materialized.
bool boyer_myrvold_is_planar(const Graph& g);

/// Edge ids of a minimal non-planar subgraph of g (a Kuratowski subdivision),
/// or an empty vector when g is planar. Extraction is by witness-preserving
/// edge deletion driven by the verdict-only engine, so it is O(m) planarity
/// tests in the worst case — fast in practice on the near-planar graphs the
/// generators produce, but not itself linear-time.
std::vector<EdgeId> kuratowski_witness(const Graph& g);

}  // namespace lrdip
