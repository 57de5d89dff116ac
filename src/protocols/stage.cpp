#include "protocols/stage.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace lrdip {

StageResult empty_stage(int n) {
  StageResult s;
  s.node_accepts.assign(n, 1);
  s.node_bits.assign(n, 0);
  s.coin_bits.assign(n, 0);
  s.rounds = 0;
  return s;
}

StageResult compose_parallel(const StageResult& a, const StageResult& b) {
  LRDIP_CHECK(a.node_accepts.size() == b.node_accepts.size());
  StageResult out;
  const std::size_t n = a.node_accepts.size();
  out.node_accepts.resize(n);
  out.node_bits.resize(n);
  out.coin_bits.resize(n);
  const bool reasons = !a.node_reasons.empty() || !b.node_reasons.empty();
  if (reasons) out.node_reasons.assign(n, RejectReason::none);
  for (std::size_t v = 0; v < n; ++v) {
    out.node_accepts[v] = a.node_accepts[v] && b.node_accepts[v];
    out.node_bits[v] = a.node_bits[v] + b.node_bits[v];
    out.coin_bits[v] = a.coin_bits[v] + b.coin_bits[v];
    if (reasons) {
      out.node_reasons[v] =
          worse_reason(a.reason(static_cast<NodeId>(v)), b.reason(static_cast<NodeId>(v)));
    }
  }
  out.rounds = std::max(a.rounds, b.rounds);
  return out;
}

Outcome finalize(const StageResult& s) {
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
    for (std::size_t v = 0; v < s.node_accepts.size(); ++v) {
      if (s.node_accepts[v]) continue;
      ++o.rejected_nodes;
      ++hist[static_cast<int>(s.reason(static_cast<NodeId>(v)))];
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
                              std::vector<char> accepts, int rounds) {
  StageResult s;
  s.node_accepts = std::move(accepts);
  s.node_bits = labels.charged_bits();
  s.coin_bits = coins.coin_bits();
  s.rounds = rounds;
  return s;
}

StageResult stage_from_stores(const LabelStore& labels, const CoinStore& coins,
                              std::vector<RejectReason> reasons, int rounds) {
  StageResult s;
  s.node_accepts = accepts_from_reasons(reasons);
  s.node_reasons = std::move(reasons);
  s.node_bits = labels.charged_bits();
  s.coin_bits = coins.coin_bits();
  s.rounds = rounds;
  return s;
}

std::vector<char> accepts_from_reasons(const std::vector<RejectReason>& reasons) {
  std::vector<char> accepts(reasons.size(), 1);
  for (std::size_t v = 0; v < reasons.size(); ++v) {
    if (reasons[v] != RejectReason::none) accepts[v] = 0;
  }
  return accepts;
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
