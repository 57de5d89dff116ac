// Composition of protocol stages.
//
// The paper's protocols run several stages "in parallel": in every interaction
// round each stage contributes fields to the same physical label. We model a
// stage as an independent execution that reports, per node, its verdict (a
// RejectReason, none meaning accept) and how many label bits the prover
// charged to it; the composite protocol sums bits per node (concatenated
// labels), merges verdicts by severity, and takes the max round count.
#pragma once

#include <exception>
#include <utility>
#include <vector>

#include "dip/parallel.hpp"
#include "dip/store.hpp"
#include "dip/verdict.hpp"
#include "graph/graph.hpp"

namespace lrdip {

struct StageResult {
  /// Each node's verdict, per node of the host graph: none means it accepts,
  /// anything else is why it rejects.
  std::vector<RejectReason> node_reasons;
  std::vector<int> node_bits;  // label bits charged per node
  std::vector<int> coin_bits;  // public-coin bits drawn per node
  int rounds = 0;

  bool accepts(NodeId v) const { return reason(v) == RejectReason::none; }

  bool all_accept() const {
    for (RejectReason r : node_reasons) {
      if (r != RejectReason::none) return false;
    }
    return true;
  }

  /// Marks node v as rejecting with the given reason (merged by severity).
  void reject(NodeId v, RejectReason r = RejectReason::check_failed) {
    auto& slot = node_reasons[static_cast<std::size_t>(v)];
    slot = worse_reason(slot, r);
  }

  RejectReason reason(NodeId v) const { return node_reasons[static_cast<std::size_t>(v)]; }
};

/// An all-accept stage with zero cost (identity for composition).
StageResult empty_stage(int n);

/// Parallel composition: labels concatenate (bits add), a node accepts iff it
/// accepts in every stage (its reason is the worse of the two), rounds take
/// the max.
StageResult compose_parallel(const StageResult& a, const StageResult& b);

/// Collapses a composed stage into the user-facing Outcome.
Outcome finalize(const StageResult& s);

/// Extracts a StageResult from a LabelStore/CoinStore pair plus the per-node
/// verdicts (for stages whose accounting is what the stores recorded).
StageResult stage_from_stores(const LabelStore& labels, const CoinStore& coins,
                              std::vector<RejectReason> reasons, int rounds);

/// Runs the per-node decision for all n nodes on the parallel executor and
/// collects the verdicts. `decide(v, verdict)` performs checked reads
/// (recording structural defects in `verdict`) and returns whether its
/// semantic checks passed; a false return records check_failed. It must
/// follow the determinism contract of dip/parallel.hpp: it may read anything
/// written before this call but only decide node v — the result is then
/// independent of the thread count.
///
/// Exception firewall: anything thrown by decide(v) is absorbed as a
/// malformed_label reject for v (never rethrown), so a Byzantine transcript
/// cannot crash the verifier through the executor's rethrow path. Decision
/// code should not rely on this — it uses checked reads and records precise
/// reasons — but the firewall guarantees the never-throw contract.
template <typename F>
std::vector<RejectReason> decide_nodes_reasons(int n, F&& decide) {
  std::vector<RejectReason> reasons(static_cast<std::size_t>(n), RejectReason::none);
  auto fn = std::forward<F>(decide);
  parallel_for(n, [&](std::int64_t i) {
    const NodeId v = static_cast<NodeId>(i);
    LocalVerdict verdict;
    try {
      if (!fn(v, verdict)) verdict.reject(RejectReason::check_failed);
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    reasons[static_cast<std::size_t>(i)] = verdict.reason();
  });
  return reasons;
}

/// Degree-aware decide_nodes_reasons: `prefix` is a monotone per-node cost
/// prefix (size n + 1, e.g. from degree_cost_prefix or a CSR offset array)
/// and drives cost-balanced chunk boundaries, so hub nodes in a skewed degree
/// distribution no longer serialize the tail of the decision. Results are
/// bit-identical to the unweighted overload — only scheduling changes.
template <typename Prefix, typename F>
std::vector<RejectReason> decide_nodes_reasons(int n, const Prefix& prefix, F&& decide) {
  std::vector<RejectReason> reasons(static_cast<std::size_t>(n), RejectReason::none);
  auto fn = std::forward<F>(decide);
  parallel_for_weighted(n, prefix, [&](std::int64_t i) {
    const NodeId v = static_cast<NodeId>(i);
    LocalVerdict verdict;
    try {
      if (!fn(v, verdict)) verdict.reject(RejectReason::check_failed);
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    reasons[static_cast<std::size_t>(i)] = verdict.reason();
  });
  return reasons;
}

/// Monotone cost prefix (size n + 1) with per-node cost 1 + degree(v): the
/// canonical input for the weighted decide overload when the decision body
/// scans the node's neighborhood.
std::vector<std::int64_t> degree_cost_prefix(const Graph& g);

}  // namespace lrdip
