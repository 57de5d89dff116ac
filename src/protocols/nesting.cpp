// See path_outerplanarity.cpp's preamble for the locally checkable statement
// of the nesting conditions implemented here.
#include "protocols/nesting.hpp"

#include <algorithm>
#include <functional>

#include "dip/faults.hpp"
#include "dip/store.hpp"
#include "graph/degeneracy.hpp"
#include "obs/metrics.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {

int nesting_fragment_bits(int n, int c) {
  const int loglog = std::max(1, ceil_log2(static_cast<std::uint64_t>(
                                  std::max(2, ceil_log2(std::max(2, n))))));
  return std::min(60, std::max(4, c * loglog));
}

namespace {

/// A (possibly bottom) edge name: the pair of endpoint fragments.
struct Name {
  std::uint64_t a = 0, b = 0;
  bool bottom = true;
  friend bool operator==(const Name&, const Name&) = default;
};

/// Store layout of the stage transcript (one prover round; the verifier's
/// fragments live in the parallel CoinStore round).
struct NestingLayout {
  static constexpr int kRound = 0;
  // Node label: the two gap covers.
  static constexpr std::size_t kAboveLeftA = 0;
  static constexpr std::size_t kAboveLeftB = 1;
  static constexpr std::size_t kAboveLeftBottom = 2;
  static constexpr std::size_t kAboveRightA = 3;
  static constexpr std::size_t kAboveRightB = 4;
  static constexpr std::size_t kAboveRightBottom = 5;
  static constexpr std::size_t kNodeFields = 6;
  // Arc label: longest marks, name echo, successor name.
  static constexpr std::size_t kLongestLeft = 0;
  static constexpr std::size_t kLongestRight = 1;
  static constexpr std::size_t kNameA = 2;
  static constexpr std::size_t kNameB = 3;
  static constexpr std::size_t kSuccA = 4;
  static constexpr std::size_t kSuccB = 5;
  static constexpr std::size_t kSuccBottom = 6;
  static constexpr std::size_t kArcFields = 7;
};

}  // namespace

StageResult nesting_stage(const Graph& g, const std::vector<NodeId>& order, int c, Rng& rng,
                          FaultInjector* faults) {
  const int n = g.n();
  const int ls = nesting_fragment_bits(n, c);
  const std::uint64_t smask = (ls == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << ls) - 1);
  // --- R2 (verifier): name fragments.
  std::vector<std::uint64_t> s(n);
  for (NodeId v = 0; v < n; ++v) s[v] = rng.next_u64() & smask;
  return nesting_stage_with_fragments(g, order, s, ls, faults);
}

StageResult nesting_stage_with_fragments(const Graph& g, const std::vector<NodeId>& order,
                                         const std::vector<std::uint64_t>& s, int ls,
                                         FaultInjector* faults) {
  const obs::ScopedTimer timer("nesting_stage");
  using L = NestingLayout;
  const int n = g.n();
  std::vector<int> pos(n);
  for (int i = 0; i < n; ++i) pos[order[i]] = i;

  struct Arc {
    int l, r;
    EdgeId e;
  };
  std::vector<Arc> arcs;
  std::vector<char> is_path(g.m(), 0);
  for (EdgeId e = 0; e < g.m(); ++e) {
    const auto [u, v] = g.endpoints(e);
    int a = pos[u], b = pos[v];
    if (a > b) std::swap(a, b);
    if (b - a == 1) {
      is_path[e] = 1;
    } else {
      arcs.push_back({a, b, e});
    }
  }
  std::sort(arcs.begin(), arcs.end(),
            [](const Arc& x, const Arc& y) { return x.l != y.l ? x.l < y.l : x.r > y.r; });

  // Accountable endpoints, hoisted from the accounting epilogue: edge labels
  // are charged (and store-assigned) to the accountable endpoint.
  const std::vector<NodeId> acc = accountable_endpoints(g);

  // --- R1 (prover): truthful longest-left/right marks.
  std::vector<char> longest_right(g.m(), 0), longest_left(g.m(), 0);
  {
    std::vector<EdgeId> best_r(n, -1), best_l(n, -1);
    for (const Arc& a : arcs) {
      if (best_r[order[a.l]] == -1) best_r[order[a.l]] = a.e;  // sorted: first is longest
      if (best_l[order[a.r]] == -1) best_l[order[a.r]] = a.e;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (best_r[v] != -1) longest_right[best_r[v]] = 1;
      if (best_l[v] != -1) longest_left[best_l[v]] = 1;
    }
  }

  // --- R3 (prover): names, successors, gap covers — via a crossing-tolerant
  // sweep (exact on properly nested instances).
  auto name_of = [&](EdgeId e) {
    const auto [u, v] = g.endpoints(e);
    const NodeId left = pos[u] < pos[v] ? u : v;
    const NodeId right = pos[u] < pos[v] ? v : u;
    return Name{s[left], s[right], false};
  };
  std::vector<Name> succ(g.m());  // bottom by default
  std::vector<Name> above_r(n), above_l(n);
  {
    std::vector<Arc> stack;
    std::size_t next_arc = 0;
    for (int i = 0; i < n; ++i) {
      // Close arcs ending here (crossers may sit below the top; erase them all).
      std::erase_if(stack, [&](const Arc& a) { return a.r <= i; });
      while (next_arc < arcs.size() && arcs[next_arc].l == i) {
        const Arc& a = arcs[next_arc];
        succ[a.e] = stack.empty() ? Name{} : name_of(stack.back().e);
        stack.push_back(a);
        ++next_arc;
      }
      const Name gap = stack.empty() ? Name{} : name_of(stack.back().e);
      above_r[order[i]] = gap;
      if (i + 1 < n) above_l[order[i + 1]] = gap;
    }
    above_l[order[0]] = Name{};
    above_r[order[n - 1]] = Name{};
  }

  // --- The transcript hits the wire: fragments into the coin store, marks /
  // name echoes / successors / gap covers into the label store. Accounting
  // stays analytic (the epilogue below); the stores are the Byzantine seam.
  LabelStore labels(g, /*rounds=*/1);
  CoinStore coins(g, /*rounds=*/1);
  for (NodeId v = 0; v < n; ++v) {
    coins.record(L::kRound, v, {&s[v], 1}, ls);
    Label l;
    l.reserve(L::kNodeFields);
    l.put(above_l[v].a, ls).put(above_l[v].b, ls).put_flag(above_l[v].bottom);
    l.put(above_r[v].a, ls).put(above_r[v].b, ls).put_flag(above_r[v].bottom);
    labels.assign_node(L::kRound, v, std::move(l));
  }
  for (const Arc& a : arcs) {
    const Name nm = name_of(a.e);
    Label l;
    l.reserve(L::kArcFields);
    l.put_flag(longest_left[a.e] != 0).put_flag(longest_right[a.e] != 0);
    l.put(nm.a, ls).put(nm.b, ls);
    l.put(succ[a.e].a, ls).put(succ[a.e].b, ls).put_flag(succ[a.e].bottom);
    labels.assign_edge(L::kRound, a.e, std::move(l), acc[a.e]);
  }
  if (faults != nullptr) faults->corrupt(labels, coins);

  // --- Decode (verifier side): checked reads only; a malformed element marks
  // its owner(s) with the precise reason and decodes to a benign bottom/zero
  // fallback, so the semantic checks below stay total.
  std::vector<std::uint64_t> s_d(n);
  std::vector<Name> above_l_d(n), above_r_d(n);
  std::vector<RejectReason> node_defect(n, RejectReason::none);
  parallel_for(n, [&](std::int64_t v) {
    const auto slot = coins.coins(L::kRound, v);
    s_d[v] = slot.empty() ? 0 : slot[0];
    LocalVerdict verdict;
    const Label& l = labels.node_label(L::kRound, static_cast<NodeId>(v));
    expect_fields(l, L::kNodeFields, verdict);
    above_l_d[v] = Name{read_or_reject(l, L::kAboveLeftA, ls, verdict),
                        read_or_reject(l, L::kAboveLeftB, ls, verdict),
                        flag_or_reject(l, L::kAboveLeftBottom, verdict, true)};
    above_r_d[v] = Name{read_or_reject(l, L::kAboveRightA, ls, verdict),
                        read_or_reject(l, L::kAboveRightB, ls, verdict),
                        flag_or_reject(l, L::kAboveRightBottom, verdict, true)};
    node_defect[v] = verdict.reason();
  });
  auto name_of_d = [&](EdgeId e) {
    const auto [u, v] = g.endpoints(e);
    const NodeId left = pos[u] < pos[v] ? u : v;
    const NodeId right = pos[u] < pos[v] ? v : u;
    return Name{s_d[left], s_d[right], false};
  };
  std::vector<char> lr_d(g.m(), 0), ll_d(g.m(), 0);
  std::vector<Name> succ_d(g.m());
  std::vector<RejectReason> edge_defect(g.m(), RejectReason::none);
  parallel_for(static_cast<std::int64_t>(arcs.size()), [&](std::int64_t i) {
    const EdgeId e = arcs[static_cast<std::size_t>(i)].e;
    LocalVerdict verdict;
    const Label& l = labels.edge_label(L::kRound, e);
    expect_fields(l, L::kArcFields, verdict);
    ll_d[e] = flag_or_reject(l, L::kLongestLeft, verdict) ? 1 : 0;
    lr_d[e] = flag_or_reject(l, L::kLongestRight, verdict) ? 1 : 0;
    // C5 name echo: the shipped name must match the verifier's fragments.
    const Name echo{read_or_reject(l, L::kNameA, ls, verdict),
                    read_or_reject(l, L::kNameB, ls, verdict), false};
    verdict.require(echo == name_of_d(e));
    succ_d[e] = Name{read_or_reject(l, L::kSuccA, ls, verdict),
                     read_or_reject(l, L::kSuccB, ls, verdict),
                     flag_or_reject(l, L::kSuccBottom, verdict, true)};
    edge_defect[e] = verdict.reason();
  });

  // --- Decision.
  StageResult out;
  out.node_bits.assign(n, 0);
  out.coin_bits.assign(n, ls);
  out.rounds = 3;

  // Chain existence: does some ordering of `edges` satisfy C1/C2? DFS over
  // name matches (branching only on fragment collisions).
  auto chain_exists = [&](const std::vector<EdgeId>& edges, const Name& anchor,
                          const std::vector<char>& longest_mark) {
    const std::size_t k = edges.size();
    std::vector<char> used(k, 0);
    std::function<bool(const Name&, std::size_t)> walk = [&](const Name& want,
                                                             std::size_t depth) {
      if (want.bottom) return false;
      for (std::size_t t = 0; t < k; ++t) {
        if (used[t] || !(name_of_d(edges[t]) == want)) continue;
        used[t] = 1;
        const bool last = depth + 1 == k;
        bool ok;
        if (last) {
          ok = longest_mark[edges[t]] != 0;
        } else {
          ok = !longest_mark[edges[t]] && walk(succ_d[edges[t]], depth + 1);
        }
        if (ok) return true;
        used[t] = 0;
      }
      return false;
    };
    return walk(anchor, 0);
  };

  out.node_reasons =
      decide_nodes_reasons(n, degree_cost_prefix(g), [&](NodeId v, LocalVerdict& verdict) {
    verdict.reject(node_defect[v]);
    bool ok = true;
    std::vector<EdgeId> right_edges, left_edges;
    for (const Half& h : g.neighbors(v)) {
      if (is_path[h.edge]) continue;
      verdict.reject(edge_defect[h.edge]);
      (pos[h.to] > pos[v] ? right_edges : left_edges).push_back(h.edge);
    }
    // C5: marks.
    int marked_r = 0, marked_l = 0;
    for (EdgeId e : right_edges) {
      marked_r += lr_d[e] ? 1 : 0;
      if (!lr_d[e] && !ll_d[e]) ok = false;
    }
    for (EdgeId e : left_edges) {
      marked_l += ll_d[e] ? 1 : 0;
      if (!ll_d[e] && !lr_d[e]) ok = false;
    }
    if (!right_edges.empty() && marked_r != 1) ok = false;
    if (!left_edges.empty() && marked_l != 1) ok = false;
    // C1/C2 chains (only meaningful if marks are sane).
    Name succ_right{}, succ_left{};  // succ of the longest edges
    if (ok && !right_edges.empty()) {
      ok = ok && chain_exists(right_edges, above_r_d[v], lr_d);
      for (EdgeId e : right_edges) {
        if (lr_d[e]) succ_right = succ_d[e];
      }
    }
    if (ok && !left_edges.empty()) {
      ok = ok && chain_exists(left_edges, above_l_d[v], ll_d);
      for (EdgeId e : left_edges) {
        if (ll_d[e]) succ_left = succ_d[e];
      }
    }
    // C3.
    if (ok) {
      if (!right_edges.empty() && !left_edges.empty()) {
        ok = succ_right == succ_left;
      } else if (!right_edges.empty()) {
        ok = above_l_d[v] == succ_right;
      } else if (!left_edges.empty()) {
        ok = above_r_d[v] == succ_left;
      } else {
        ok = above_l_d[v] == above_r_d[v];
      }
    }
    // C4 with the right path neighbor (both endpoints of the gap check it).
    const int i = pos[v];
    if (i + 1 < n && !(above_r_d[v] == above_l_d[order[i + 1]])) ok = false;
    if (i == 0 && !above_l_d[v].bottom) ok = false;
    if (i == n - 1 && !above_r_d[v].bottom) ok = false;
    return ok;
  });

  // --- Accounting.
  const int name_bits = 2 * ls;      // echo of (s_u, s_v)
  const int succ_bits = 2 * ls + 1;  // successor name + bottom flag
  for (NodeId v = 0; v < n; ++v) {
    out.node_bits[v] += 2 * succ_bits;  // above_left / above_right
  }
  for (const Arc& a : arcs) {
    // orientation bit (1), longest marks (2), name echo, successor.
    out.node_bits[acc[a.e]] += 1 + 2 + name_bits + succ_bits;
  }
  return out;
}

}  // namespace lrdip
