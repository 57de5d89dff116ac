// Lemma 2.5: spanning-tree verification (3 rounds, O(1) bits per repetition,
// constant soundness error, perfect completeness).
//
// Input: a claimed parent assignment (each node knows its claimed parent edge
// or presents as a root), typically decoded from a Lemma 2.3 encoding. The
// protocol verifies that the parent pointers form ONE tree spanning all of G:
//
//   round 1 (prover):   structural commitment (done by the caller: the forest
//                       encoding itself); counted as one round here.
//   round 2 (verifier): every node draws k random bits rho_v; every claimed
//                       root draws a k-bit nonce.
//   round 3 (prover):   every node gets X(v) = rho_v XOR (XOR of X over v's
//                       claimed children), and a copy of "the root's nonce".
//
// Local checks: the X equation at every node; the nonce copy equal across all
// G-neighbors; every claimed root checks the nonce equals its own draw.
// * A component whose pointers contain a cycle makes the X equations
//   unsatisfiable with probability 1 - 2^-k (the XOR of rho around the cycle's
//   subtree must vanish).
// * Two or more root components force one global nonce (G is connected) that
//   can match at most one root's draw, up to a 2^-k collision.
//
// This realizes the NPY20 interface the paper uses black-box: 3 rounds, O(k)
// bits, soundness error 2^-Theta(k), perfect completeness.
//
// The transcript lives in a LabelStore/CoinStore pair, and each node decides
// from its NodeView (own coins, own labels, neighbor labels) plus its local
// input (claimed parent and children): the locality constraints of the KOS18
// model are enforced by the types, not by discipline.
#pragma once

#include <vector>

#include "dip/store.hpp"
#include "graph/graph.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

/// Label/field layout of the transcript (exposed for tests).
struct StLayout {
  static constexpr int kRoundStructure = 0;  // prover: root flag
  static constexpr int kRoundCoins = 1;      // verifier: rho (+ nonce at roots)
  static constexpr int kRoundResponse = 2;   // prover: X value + nonce echo
  static constexpr std::size_t kFieldRootFlag = 0;
  static constexpr std::size_t kFieldX = 0;
  static constexpr std::size_t kFieldNonceEcho = 1;
};

/// How a dishonest prover fills the response labels on a bad instance (the
/// structure itself is the lie; the prover can only pick X values and nonce
/// copies). kBestEffort solves every satisfiable equation and gambles on the
/// rest — the strongest strategy against these checks.
enum class StCheat { kBestEffort };

/// Runs the verification for the claimed parents over connected graph g.
/// `repetitions` = k. Coins are charged to the nodes that draw them.
/// The transcript (root flags, coins, X values, nonce echoes) is recorded in
/// a LabelStore/CoinStore pair; `faults`, when non-null, corrupts it between
/// prover and verifier, and the hardened decision rejects locally with a
/// per-node RejectReason instead of throwing.
StageResult verify_spanning_tree(const Graph& g, const std::vector<NodeId>& claimed_parent,
                                 int repetitions, Rng& rng, FaultInjector* faults = nullptr);

/// Node v's decision over its view: every structural defect of the
/// transcript at v maps to a reason, semantic failures to check_failed, and
/// none means accept. `claimed_children` are the claimed-parent-derived lists
/// (v's local knowledge from the Lemma 2.3 decode); `expected_bits` is the
/// protocol width k of the response fields (< 0 skips width enforcement).
/// Reading a non-neighbor still throws (verifier-code misuse, not prover
/// behavior).
RejectReason spanning_tree_node_verdict(const NodeView& view, NodeId claimed_parent,
                                        const std::vector<NodeId>& claimed_children,
                                        int expected_bits = -1);

}  // namespace lrdip
