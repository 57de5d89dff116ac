// Section 6: the outerplanarity protocol (Theorem 1.3) and the biconnected
// special case (Theorem 6.1).
//
// The prover decomposes G into its biconnected blocks glued along the
// block-cut tree, and per block runs the biconnected-outerplanarity protocol:
// path-outerplanarity with respect to a Hamiltonian path emerging from the
// block's separating node, plus the check that the path's endpoints are
// adjacent (a biconnected outerplanar graph is a Hamiltonian cycle with
// non-crossing inside chords). Three parallel stage groups:
//
//   (1) component consistency: cut/leader flags, random sep/lead fragments
//       relayed along the sub-paths P'_C — non-cut nodes certify all their
//       neighbors live in their own block;
//   (2) the union F of the per-block paths P_C is certified as a spanning
//       tree of G (Lemma 2.5, amplified);
//   (3) per-block biconnected-outerplanarity, with the separating node's
//       labels deferred to its block neighbors (d(C) mod 3 labels identify
//       the separating node locally).
//
// 5 rounds, O(log log n) proof size, perfect completeness, 1/polylog n
// soundness error.
#pragma once

#include <optional>
#include <vector>

#include "dip/store.hpp"
#include "graph/graph.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

struct OuterplanarityInstance {
  const Graph* graph = nullptr;
  /// Per-block Hamiltonian-cycle certificates (host node ids) for blocks with
  /// >= 3 nodes, in any order; matched to the computed biconnected components
  /// by node set. Missing blocks fall back to the centralized embedder
  /// (O(n^2); fine for tests, avoid at benchmark scale).
  std::optional<std::vector<std::vector<NodeId>>> block_cycles;
};

struct OpParams {
  int c = 3;
};

inline constexpr int kOuterplanarityRounds = 5;

/// `faults`, when non-null, corrupts every recorded transcript (the
/// component-consistency labels/fragments and all sub-stage transcripts)
/// between prover and verifier; the hardened decisions reject locally.
StageResult outerplanarity_stage(const OuterplanarityInstance& inst, const OpParams& params,
                                 Rng& rng, FaultInjector* faults = nullptr);

Outcome run_outerplanarity(const OuterplanarityInstance& inst, const OpParams& params, Rng& rng,
                           FaultInjector* faults = nullptr);

/// Theorem 6.1 standalone: biconnected outerplanarity = path-outerplanarity
/// w.r.t. a Hamiltonian path whose endpoints are adjacent. `cycle` is the
/// prover's Hamiltonian-cycle certificate (computed centrally if absent).
Outcome run_biconnected_outerplanarity(const Graph& g,
                                       const std::optional<std::vector<NodeId>>& cycle,
                                       const OpParams& params, Rng& rng,
                                       FaultInjector* faults = nullptr);

}  // namespace lrdip
