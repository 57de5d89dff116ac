// Section 5: the path-outerplanarity protocol (Theorem 1.2 / Lemma 5.1).
//
// Three stages run in parallel (5 interaction rounds total, the LR-sorting
// stage being the widest):
//
//  (A) Committing to a path. The prover encodes a Hamiltonian path P rooted at
//      its leftmost node with the Lemma 2.3 forest codes (O(1) bits); each
//      node checks it has at most one child; the Lemma 2.5 spanning-tree
//      verification, amplified by Theta(c * log log n) parallel repetitions,
//      certifies that the committed structure spans G — a spanning tree in
//      which every node has <= 1 child IS a Hamiltonian path.
//  (B) LR-sorting. The prover orients every edge (one bit, on the accountable
//      endpoint per Lemma 2.4) and the Section 4 protocol verifies the
//      orientation against P, after which every node knows its left and right
//      edges.
//  (C) Nesting verification. Every node draws a random name fragment s_v of
//      Theta(c * log log n) bits; the prover marks longest-left/right edges,
//      echoes each non-path edge's name (s_u, s_v), writes each edge's
//      successor's name, and gives every node the names of the innermost
//      edges covering the path gaps on its two sides (above_left / above_
//      right). Local chain checks (conditions (1)-(5) of Section 5, stated in
//      the locally-checkable gap-pairing form — see the .cpp preamble)
//      certify that the non-path edges are properly nested.
#pragma once

#include <optional>
#include <vector>

#include "dip/store.hpp"
#include "graph/graph.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

struct PathOuterplanarityInstance {
  const Graph* graph = nullptr;
  /// The Hamiltonian path the prover commits to: the generator certificate on
  /// yes-instances, a best-effort path on no-instances. If absent, the
  /// (simulated) prover falls back to a greedy path cover, which the
  /// spanning-tree stage rejects w.h.p. when it is not one path.
  std::optional<std::vector<NodeId>> prover_order;
};

struct PoParams {
  int c = 3;  // soundness exponent, shared with the embedded LR-sorting stage
};

inline constexpr int kPathOuterplanarityRounds = 5;

/// `faults`, when non-null, corrupts every recorded transcript (the forest
/// codes of the path commitment and all sub-stage transcripts) between prover
/// and verifier; the hardened decisions reject locally, never throw.
StageResult path_outerplanarity_stage(const PathOuterplanarityInstance& inst,
                                      const PoParams& params, Rng& rng,
                                      FaultInjector* faults = nullptr);

Outcome run_path_outerplanarity(const PathOuterplanarityInstance& inst, const PoParams& params,
                                Rng& rng, FaultInjector* faults = nullptr);

/// The amplification the protocol uses for its sub-proofs, exposed for the
/// benchmark tables: Theta(c * log log n).
int po_repetitions(int n, int c);

}  // namespace lrdip
