#include "protocols/stage.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace lrdip {

namespace {

/// Every per-node vector of a stage has one entry per node. A stage that
/// forgets to size its verdicts would otherwise accept silently.
std::size_t checked_size(const StageResult& s) {
  const std::size_t n = s.node_reasons.size();
  LRDIP_CHECK_MSG(s.node_bits.size() == n && s.coin_bits.size() == n,
                  "stage result vectors must have one entry per node");
  return n;
}

}  // namespace

StageResult empty_stage(int n) {
  StageResult s;
  s.node_reasons.assign(n, RejectReason::none);
  s.node_bits.assign(n, 0);
  s.coin_bits.assign(n, 0);
  s.rounds = 0;
  return s;
}

StageResult compose_parallel(const StageResult& a, const StageResult& b) {
  const std::size_t n = checked_size(a);
  LRDIP_CHECK(checked_size(b) == n);
  StageResult out;
  out.node_reasons.resize(n);
  out.node_bits.resize(n);
  out.coin_bits.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    out.node_reasons[v] = worse_reason(a.node_reasons[v], b.node_reasons[v]);
    out.node_bits[v] = a.node_bits[v] + b.node_bits[v];
    out.coin_bits[v] = a.coin_bits[v] + b.coin_bits[v];
  }
  out.rounds = std::max(a.rounds, b.rounds);
  return out;
}

Outcome finalize(const StageResult& s) {
  checked_size(s);
  Outcome o;
  o.accepted = s.all_accept();
  o.rounds = s.rounds;
  o.proof_size_bits = s.node_bits.empty() ? 0 : *std::max_element(s.node_bits.begin(), s.node_bits.end());
  o.total_label_bits = 0;
  for (int b : s.node_bits) o.total_label_bits += b;
  o.max_coin_bits = s.coin_bits.empty() ? 0 : *std::max_element(s.coin_bits.begin(), s.coin_bits.end());
  // Dominant reject reason: most frequent non-none reason among rejecting
  // nodes; ties go to the more structural (higher-severity) defect.
  std::int64_t hist[5] = {0, 0, 0, 0, 0};
  if (!o.accepted) {
    for (const RejectReason r : s.node_reasons) {
      if (r == RejectReason::none) continue;
      ++o.rejected_nodes;
      ++hist[static_cast<int>(r)];
    }
    int best = static_cast<int>(RejectReason::check_failed);
    for (int r = best + 1; r < 5; ++r) {
      if (hist[r] >= hist[best]) best = r;
    }
    o.reject_reason = hist[best] > 0 ? static_cast<RejectReason>(best) : RejectReason::check_failed;
  }
  if (obs::metrics_enabled()) {
    // Every (sub-)protocol's finalize stamps the active run; the outermost
    // call runs last, so the record ends up with the composite outcome.
    obs::MetricsRegistry::instance().record_outcome(o.accepted, o.rounds, o.proof_size_bits,
                                                    o.total_label_bits, o.max_coin_bits,
                                                    o.rejected_nodes, hist);
  }
  return o;
}

StageResult stage_from_stores(const LabelStore& labels, const CoinStore& coins,
                              std::vector<RejectReason> reasons, int rounds) {
  StageResult s;
  s.node_reasons = std::move(reasons);
  s.node_bits = labels.charged_bits();
  s.coin_bits = coins.coin_bits();
  s.rounds = rounds;
  return s;
}

std::vector<std::int64_t> degree_cost_prefix(const Graph& g) {
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(g.n()) + 1, 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    prefix[static_cast<std::size_t>(v) + 1] =
        prefix[static_cast<std::size_t>(v)] + 1 + g.degree(v);
  }
  return prefix;
}

}  // namespace lrdip
