// Lemma 2.6: two-round multiset equality over a rooted spanning tree.
//
// Each node holds two local multisets S1(v), S2(v) of integers from a universe
// of size k^c; the protocol decides whether the global multiset unions are
// equal. It evaluates the polynomials phi_S(x) = prod_{s in S}(s - x) at a
// random point z in F_p (p = smallest prime > k^{c+1}) and aggregates the
// products up the tree:
//
//   round 1 (verifier): the root samples z.
//   round 2 (prover):   every node gets (z, A1(v), A2(v)) where Ai(v) is the
//                       product of phi over S_i restricted to v's subtree.
//
// Checks: z consistent with the parent's copy (root: with its own draw); the
// product recurrences; at the root A1 == A2. Perfect completeness; soundness
// error k/p <= 1/k^c by polynomial identity testing.
//
// The transcript lives in a LabelStore/CoinStore pair and each node decides
// through its NodeView, as in protocols/spanning_tree.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "field/fp.hpp"
#include "graph/algorithms.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

/// Label/field layout of the transcript (exposed for tests).
struct MeLayout {
  static constexpr int kRoundCoins = 0;     // verifier: z at the root
  static constexpr int kRoundResponse = 1;  // prover: z echo + A1 + A2
  static constexpr std::size_t kFieldZ = 0;
  static constexpr std::size_t kFieldA1 = 1;
  static constexpr std::size_t kFieldA2 = 2;
};

struct MultisetEqualityInput {
  std::vector<std::vector<std::uint64_t>> s1;  // per node
  std::vector<std::vector<std::uint64_t>> s2;  // per node
  std::uint64_t size_bound = 0;                // k: |S1|,|S2| <= k
  int universe_exponent = 2;                   // c: elements < k^c
};

/// Runs the protocol over `tree`, a rooted spanning tree of g. `faults`, when
/// non-null, corrupts the recorded transcript between prover and verifier;
/// the decision then rejects locally, it never throws.
StageResult verify_multiset_equality(const Graph& g, const RootedForest& tree,
                                     const MultisetEqualityInput& in, Rng& rng,
                                     FaultInjector* faults = nullptr);

/// The field the protocol would use for a given size bound (exposed for tests
/// and for callers that embed the same PIT logic).
Fp multiset_equality_field(std::uint64_t size_bound, int universe_exponent);

}  // namespace lrdip
