// Section 8: series-parallel graphs (Theorem 1.6) and treewidth <= 2
// (Theorem 1.7).
//
// Series-parallel: the prover commits a nested ear decomposition (Eppstein's
// characterization, Lemma 8.1):
//   (i)   the sub-ears P'_i (ears minus their endpoints) partition V; each is
//         certified as a simple path (degree <= 2 checks plus Lemma 2.5 runs
//         on the induced pieces);
//   (ii)  per-node flags (on P_1?) and per-edge connecting marks;
//   (iii) random fragments r_Q per sub-ear, relayed along the chains;
//         (ear, pred_ear) labels enforce condition (1) of the decomposition;
//   (iv)  per ear P_i, the attached ears act as arcs and the Section 4/5
//         LR-sorting + nesting stages verify condition (3), with arc labels
//         relayed through the attached ears' interior nodes.
//
// Treewidth <= 2 (Lemma 8.2: every biconnected component series-parallel):
// the block-cut machinery of Section 6 plus a per-block run of the SP stage.
//
// 5 rounds, O(log log n) proof size, perfect completeness, 1/polylog n
// soundness error.
#pragma once

#include <optional>
#include <vector>

#include "dip/store.hpp"
#include "graph/graph.hpp"
#include "graph/series_parallel.hpp"
#include "protocols/stage.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

struct SeriesParallelInstance {
  const Graph* graph = nullptr;
  /// Certificate for yes-instances. If absent the prover runs the centralized
  /// reduction; if the graph is not SP it commits to a best-effort
  /// decomposition with the offending edges as dangling single-edge ears.
  std::optional<EarDecomposition> ears;
};

struct SpProtocolParams {
  int c = 3;
};

inline constexpr int kSeriesParallelRounds = 5;

/// `faults`, when non-null, corrupts every recorded transcript (the per-sub-
/// ear spanning-tree chains and the per-host-ear LR-sorting/nesting stages)
/// between prover and verifier; the hardened decisions reject locally.
StageResult series_parallel_stage(const SeriesParallelInstance& inst,
                                  const SpProtocolParams& params, Rng& rng,
                                  FaultInjector* faults = nullptr);

Outcome run_series_parallel(const SeriesParallelInstance& inst, const SpProtocolParams& params,
                            Rng& rng, FaultInjector* faults = nullptr);

// ------------------------------------------------------------ treewidth <= 2

struct Treewidth2Instance {
  const Graph* graph = nullptr;
  /// Per-biconnected-block ear decompositions (host ids), matched by node set.
  std::optional<std::vector<EarDecomposition>> block_ears;
};

/// Block-cut anchoring (BFS spanning-tree commitment + d(C) mod 3 labels)
/// composed with one SP stage per biconnected block, host-mapped. Exposed so
/// the protocol registry and run_treewidth2 share one body.
StageResult treewidth2_stage(const Treewidth2Instance& inst, const SpProtocolParams& params,
                             Rng& rng, FaultInjector* faults = nullptr);

Outcome run_treewidth2(const Treewidth2Instance& inst, const SpProtocolParams& params, Rng& rng,
                       FaultInjector* faults = nullptr);

}  // namespace lrdip
