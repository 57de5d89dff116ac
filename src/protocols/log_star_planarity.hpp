// The successor paper's log-star protocol (GP25b, arXiv:2510.18592): planarity
// certification whose proof size is O(log* n) instead of the source paper's
// O(log log n).
//
// Instance: the same LR family as Lemma 4.2 — a directed graph whose
// underlying undirected graph carries a known Hamiltonian path; yes-instances
// direct every non-path edge from left to right. What changes is how block
// positions are certified. LR-sorting writes every block position (and its
// polynomial fingerprints) in fields of Theta(log log n) bits; here positions
// are never written as numbers at all. The path is tiled by a tower hierarchy
//
//   B_1 = ceil(log2 n),  B_{k+1} = ceil(log2 (2 B_k))  while B_k > 4,
//
// whose depth L is Theta(log* n). Each level-k unit spreads its position
// (level 1: global block index; level k >= 2: index within the parent unit)
// across its own nodes, ONE BIT PER NODE, LSB first — and the increment
// x2 = x1 + 1 needed to certify that consecutive sibling units carry
// consecutive positions is proven by the source paper's carry-pivot trick
// (rel in {before pivot, pivot, after pivot}) applied per level. Cross-unit
// equality of the spread bit-vectors is checked through constant-size
// power-sum fingerprints F = sum_o bit_o z^o over ONE fixed 7-bit field,
// accumulated along in-unit chains; the fingerprint is padding-immune, so the
// unequal unit lengths (the last unit of every parent absorbs the remainder)
// need no alignment machinery. Per node and per level this costs O(1) bits,
// so the whole label is O(log* n) bits.
//
// Interaction (2L + 1 rounds):
//   R0   (prover):    structure labels — boundary level lambda, innermost
//                     offset j, and per level the spread bits x1/x2 and the
//                     carry relation rel; per non-path edge the divergence
//                     level dl (the innermost level where the endpoints'
//                     units still differ).
//   R2k-1 (verifier): the leftmost path node draws the level-k fingerprint
//                     point z_k (all levels' coins plus the multiset point y
//                     ride one batched span draw; the split into per-level
//                     challenge/response rounds is the paper's interaction
//                     pattern and is what the round count charges).
//   R2k  (prover):    the level-k chains W = z^o, F (x1 fingerprint prefix),
//                     G (x2 fingerprint prefix).
//
// The decision is decode-then-decide (PR 2): every value the verifier uses is
// read back from the stores through checked reads, structural defects become
// per-node RejectReasons, and the derived tiling, fingerprint boundary
// equalities, and edge comparisons all run on the decoded transcript. A
// supplementary global multiset check — phi_{positions}(y) == phi_{0..nb-1}(y)
// over the reconstructed level-1 positions, evaluated with the SIMD
// phi-product kernel — backstops consistent-shift forgeries at zero label
// cost beyond the constant-size y echo.
//
// Soundness is the engineering realization of the paper's constant-error
// recursion: each forged fingerprint equality survives with probability
// <= (2 B_1 - 1)/q (q = 127, B_1 <= 24 on every supported size), amplified
// by independent repetition as usual. The near-no family (one flipped arc)
// rejects deterministically — the lie lives in the orientation claim, not in
// anything the prover can relabel.
//
// For n < 2 ceil(log2 n) (or ceil(log2 n) < 3) the protocol degenerates to
// the shared trivial one-round position-labeling stage.
#pragma once

#include <vector>

#include "dip/store.hpp"
#include "graph/graph.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

/// Same certificate payload as LrSortingInstance (the family is shared); a
/// distinct type so the registry's InstanceRef variant can tag the task.
struct LogStarPlanarityInstance {
  const Graph* graph = nullptr;
  /// Ground-truth left-to-right order of the Hamiltonian path.
  std::vector<NodeId> order;
  /// Orientation claim: edge e is directed tail[e] -> head.
  std::vector<NodeId> tail;
  /// Optional precomputed accountable endpoints (see LrSortingInstance).
  std::vector<NodeId> accountable;
};

struct LogStarParams {
  /// Accepted for registry uniformity. The recursion runs over one fixed
  /// 7-bit field regardless of c — constant proof size is the point; the
  /// paper amplifies soundness by repetition, not by growing the field.
  int c = 3;
};

/// Tower sizes B_1, ..., B_L for path length n (empty when the trivial
/// fallback runs). B_1 = ceil(log2 n), B_{k+1} = ceil(log2 (2 B_k)),
/// stopping once B_k <= 4; L is Theta(log* n).
std::vector<int> log_star_tower(int n);

/// Hierarchy depth L(n); 0 when the trivial fallback runs.
int log_star_levels(int n);

/// Interaction rounds at size n: 2 L(n) + 1, or 1 on the trivial fallback.
int log_star_rounds(int n);

/// Borrow the certificate payload as the shared LR instance shape (used by
/// the trivial fallback and the PLS baseline).
LrSortingInstance as_lr_sorting(const LogStarPlanarityInstance& inst);

/// `faults`, when non-null, corrupts the recorded transcript (structure
/// labels, edge divergence labels, chain labels, public coins) between prover
/// and verifier; the hardened decode rejects locally and never throws.
StageResult log_star_planarity_stage(const LogStarPlanarityInstance& inst,
                                     const LogStarParams& params, Rng& rng,
                                     FaultInjector* faults = nullptr);

Outcome run_log_star_planarity(const LogStarPlanarityInstance& inst, const LogStarParams& params,
                               Rng& rng, FaultInjector* faults = nullptr);

}  // namespace lrdip
