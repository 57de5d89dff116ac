#include "protocols/log_star_planarity.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dip/faults.hpp"
#include "dip/parallel.hpp"
#include "field/fp.hpp"
#include "field/fp_simd.hpp"
#include "field/primes.hpp"
#include "graph/degeneracy.hpp"
#include "obs/metrics.hpp"
#include "protocols/registry.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

/// Constant per-node framing for the Lemma 2.4 edge-label simulation (the
/// same charge every task carries: <= 5 parent-forest codes at 7 bits).
constexpr int kEdgeSimFramingBits = 35;

// Store layout. Two store rounds carry the 2L+1 interaction rounds: round 0
// the structure labels and per-edge divergence levels, round 1 the per-level
// fingerprint chains. (The wire split is bookkeeping; the analytic round
// count stays log_star_rounds.)
constexpr int kRoundStruct = 0;
constexpr int kRoundChains = 1;
constexpr std::size_t kFLambda = 0;  // boundary level (lambda_bits)
constexpr std::size_t kFJ = 1;       // 1-based innermost offset (j_bits)
// Then one packed field per 0-based level k at index 2 + k: the level nibble
// x1 | x2 << 1 | rel << 2 (4 bits). The chain label carries one packed field
// per level: W | F << qbits | G << 2 qbits (3 qbits = 21 bits). Packing keeps
// both labels within Label::kMaxFields at ANY tower depth while the declared
// widths still equal the analytic per-level bit charges.
constexpr std::size_t kFDl = 0;  // edge: divergence level (dl_bits)

/// q = 127: the smallest 7-bit prime, comfortably above every per-boundary
/// fingerprint degree (< 2 B_1 <= 48 for n <= 2^24). Fixed in n — this is
/// what keeps the per-level chain fields O(1) bits.
constexpr std::uint64_t kBaseFieldFloor = 126;

struct PathLocal {
  std::vector<int> pos;        // position of node on the path
  std::vector<NodeId> left;    // path neighbor to the left (-1 at the left end)
  std::vector<NodeId> right;   // path neighbor to the right
  std::vector<char> is_path_edge;
};

PathLocal path_locals(const LogStarPlanarityInstance& inst) {
  const Graph& g = *inst.graph;
  const int n = g.n();
  LRDIP_CHECK(static_cast<int>(inst.order.size()) == n);
  PathLocal pl;
  pl.pos.assign(n, -1);
  pl.left.assign(n, -1);
  pl.right.assign(n, -1);
  for (int i = 0; i < n; ++i) pl.pos[inst.order[i]] = i;
  for (int i = 0; i < n; ++i) {
    if (i > 0) pl.left[inst.order[i]] = inst.order[i - 1];
    if (i + 1 < n) pl.right[inst.order[i]] = inst.order[i + 1];
  }
  pl.is_path_edge.assign(g.m(), 0);
  for (EdgeId e = 0; e < g.m(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (std::abs(pl.pos[u] - pl.pos[v]) == 1) pl.is_path_edge[e] = 1;
  }
  return pl;
}

/// One level of the tower tiling over path positions 0..n-1. Units at level
/// 0 (B_1 blocks) tile the whole path; units at level k subdivide each
/// level-(k-1) unit into pieces of exactly B_{k+1} nodes, the last absorbing
/// the remainder. The tiling is unique given the size rules, which is what
/// lets the verifier pin the decoded structure by checking sizes alone.
struct Tiling {
  std::vector<std::int32_t> unit;    // by path position: unit id at this level
  std::vector<std::int32_t> off;     // by path position: in-unit offset
  std::vector<std::uint32_t> value;  // by unit: the position the unit encodes
  std::vector<std::int32_t> head;    // by unit: path position of its head
  std::vector<char> first_in_parent;  // by unit
};

std::vector<Tiling> ground_truth_tilings(int n, const std::vector<int>& bs) {
  const int levels = static_cast<int>(bs.size());
  std::vector<Tiling> t(static_cast<std::size_t>(levels));
  {
    const int b1 = bs[0];
    const int nb = n / b1;
    Tiling& t0 = t[0];
    t0.unit.resize(static_cast<std::size_t>(n));
    t0.off.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int b = std::min(i / b1, nb - 1);
      t0.unit[static_cast<std::size_t>(i)] = b;
      t0.off[static_cast<std::size_t>(i)] = i - b * b1;
    }
    for (int b = 0; b < nb; ++b) {
      t0.value.push_back(static_cast<std::uint32_t>(b));
      t0.head.push_back(b * b1);
      t0.first_in_parent.push_back(b == 0 ? 1 : 0);
    }
  }
  for (int k = 1; k < levels; ++k) {
    const int bk = bs[static_cast<std::size_t>(k)];
    const Tiling& par = t[static_cast<std::size_t>(k - 1)];
    Tiling& tk = t[static_cast<std::size_t>(k)];
    tk.unit.resize(static_cast<std::size_t>(n));
    tk.off.resize(static_cast<std::size_t>(n));
    for (std::size_t pu = 0; pu < par.head.size(); ++pu) {
      const int lo = par.head[pu];
      const int hi = pu + 1 < par.head.size() ? par.head[pu + 1] : n;
      const int pieces = (hi - lo) / bk;
      for (int p = 0; p < pieces; ++p) {
        const int u = static_cast<int>(tk.head.size());
        const int s = lo + p * bk;
        const int e = p + 1 < pieces ? s + bk : hi;
        tk.value.push_back(static_cast<std::uint32_t>(p));
        tk.head.push_back(s);
        tk.first_in_parent.push_back(p == 0 ? 1 : 0);
        for (int i = s; i < e; ++i) {
          tk.unit[static_cast<std::size_t>(i)] = u;
          tk.off[static_cast<std::size_t>(i)] = i - s;
        }
      }
    }
  }
  return t;
}

}  // namespace

std::vector<int> log_star_tower(int n) {
  const int b1 = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
  if (b1 < 3 || n < 2 * b1) return {};
  std::vector<int> bs{b1};
  while (bs.back() > 4) {
    bs.push_back(ceil_log2(2 * static_cast<std::uint64_t>(bs.back())));
  }
  return bs;
}

int log_star_levels(int n) { return static_cast<int>(log_star_tower(n).size()); }

int log_star_rounds(int n) {
  const int levels = log_star_levels(n);
  return levels == 0 ? 1 : 2 * levels + 1;
}

LrSortingInstance as_lr_sorting(const LogStarPlanarityInstance& inst) {
  return {inst.graph, inst.order, inst.tail, inst.accountable};
}

StageResult log_star_planarity_stage(const LogStarPlanarityInstance& inst,
                                     const LogStarParams& params, Rng& rng,
                                     FaultInjector* faults) {
  const obs::ScopedTimer timer("log_star_planarity_stage");
  (void)params;  // fixed base field; see the header
  const Graph& g = *inst.graph;
  const int n = g.n();
  LRDIP_CHECK(n >= 2);
  LRDIP_CHECK(static_cast<int>(inst.tail.size()) == g.m());
  const PathLocal pl = path_locals(inst);

  const std::vector<int> bs = log_star_tower(n);
  if (bs.empty()) return lr_trivial_position_stage(as_lr_sorting(inst), faults);
  const int levels = static_cast<int>(bs.size());
  const int bl = bs[static_cast<std::size_t>(levels - 1)];
  const int nb = n / bs[0];

  const Fp f(cached_prime_above(kBaseFieldFloor));
  const int qbits = f.element_bits();
  const int lambda_bits = bits_for_values(static_cast<std::uint64_t>(levels) + 1);
  const int j_bits = bits_for_values(2 * static_cast<std::uint64_t>(bl));
  const int dl_bits = bits_for_values(static_cast<std::uint64_t>(levels) + 2);
  // Position widths: level 0 spreads the global block index (B_1 bits); a
  // deeper level spreads the index within its parent, whose piece count is
  // < 2 B_{k-1} / B_k + 1 (+1 headroom for the x2 increment). Always within
  // the minimum unit size, so every position bit lands on a unit node.
  std::vector<int> w(static_cast<std::size_t>(levels));
  w[0] = bs[0];
  for (int k = 1; k < levels; ++k) {
    const std::uint64_t pieces =
        2 * static_cast<std::uint64_t>(bs[static_cast<std::size_t>(k - 1)]) /
        static_cast<std::uint64_t>(bs[static_cast<std::size_t>(k)]);
    w[static_cast<std::size_t>(k)] = bits_for_values(pieces + 2);
    LRDIP_CHECK(w[static_cast<std::size_t>(k)] <= bs[static_cast<std::size_t>(k)]);
  }

  const std::vector<Tiling> gt = ground_truth_tilings(n, bs);

  // ---- R0 (prover): structure labels from the ground-truth tiling.
  // lambda counts the unit levels starting at a position, innermost first:
  // "starts the level-k unit" (0-based k) encodes as lambda >= levels - k, so
  // the start sets are nested for free.
  std::vector<int> lam(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < levels; ++k) {
      if (gt[static_cast<std::size_t>(k)].off[static_cast<std::size_t>(i)] == 0) {
        lam[static_cast<std::size_t>(i)] = levels - k;
        break;
      }
    }
  }
  // Spread position bits (LSB first) and the carry relation to the increment
  // pivot: x2 = x1 + 1 flips the trailing ones (rel = 2), sets the pivot bit
  // (rel = 1), and leaves everything above unchanged (rel = 0).
  auto lx = [n](int k, int i) {
    return static_cast<std::size_t>(k) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(i);
  };
  std::vector<char> x1(static_cast<std::size_t>(levels) * n, 0);
  std::vector<char> x2(static_cast<std::size_t>(levels) * n, 0);
  std::vector<signed char> rel(static_cast<std::size_t>(levels) * n, 0);
  for (int k = 0; k < levels; ++k) {
    const Tiling& tk = gt[static_cast<std::size_t>(k)];
    const int wk = w[static_cast<std::size_t>(k)];
    for (int i = 0; i < n; ++i) {
      const int o = tk.off[static_cast<std::size_t>(i)];
      const std::uint64_t v1 =
          tk.value[static_cast<std::size_t>(tk.unit[static_cast<std::size_t>(i)])];
      if (o < wk) {
        x1[lx(k, i)] = static_cast<char>((v1 >> o) & 1);
        x2[lx(k, i)] = static_cast<char>(((v1 + 1) >> o) & 1);
      }
      int pivot = 0;
      while (((v1 >> pivot) & 1) != 0) ++pivot;
      LRDIP_CHECK_MSG(pivot < wk, "unit position overflow (all-ones)");
      rel[lx(k, i)] = static_cast<signed char>(o < pivot ? 2 : (o == pivot ? 1 : 0));
    }
  }

  // ---- Coins: one batched span draw covers every level's fingerprint point
  // plus the multiset point y (all in the same fixed field; the verifier
  // reads y back from the coin store).
  std::vector<std::uint64_t> coin_vals(static_cast<std::size_t>(levels) + 1);
  f.sample_span(rng, coin_vals);

  // ---- R2k (prover): per-level chains over path positions. W = z_k^o walks
  // the in-unit power; F and G accumulate the power-sum fingerprints of the
  // spread x1/x2 bits (padding past the width contributes nothing, so the
  // last unit's extra nodes are harmless).
  std::vector<std::uint64_t> cw(static_cast<std::size_t>(levels) * n);
  std::vector<std::uint64_t> cf(static_cast<std::size_t>(levels) * n);
  std::vector<std::uint64_t> cg(static_cast<std::size_t>(levels) * n);
  for (int k = 0; k < levels; ++k) {
    const Tiling& tk = gt[static_cast<std::size_t>(k)];
    const std::uint64_t zk = coin_vals[static_cast<std::size_t>(k)];
    for (int i = 0; i < n; ++i) {
      const bool start = tk.off[static_cast<std::size_t>(i)] == 0;
      cw[lx(k, i)] = start ? 1 : f.mul(zk, cw[lx(k, i - 1)]);
      cf[lx(k, i)] = f.add(x1[lx(k, i)] ? cw[lx(k, i)] : 0, start ? 0 : cf[lx(k, i - 1)]);
      cg[lx(k, i)] = f.add(x2[lx(k, i)] ? cw[lx(k, i)] : 0, start ? 0 : cg[lx(k, i - 1)]);
    }
  }

  // ---- R0 (prover): per-edge divergence levels. On a lying edge the true
  // level is still the least detectable commitment — any other value trips
  // the deterministic consistency check below.
  std::vector<int> dl(static_cast<std::size_t>(g.m()), 0);
  parallel_for(g.m(), [&](std::int64_t ei) {
    const EdgeId e = static_cast<EdgeId>(ei);
    if (pl.is_path_edge[e]) return;
    const NodeId t = inst.tail[e];
    const int it = pl.pos[t];
    const int ih = pl.pos[g.other_end(e, t)];
    int ks = levels + 1;
    for (int k = 0; k < levels; ++k) {
      if (gt[static_cast<std::size_t>(k)].unit[static_cast<std::size_t>(it)] !=
          gt[static_cast<std::size_t>(k)].unit[static_cast<std::size_t>(ih)]) {
        ks = k + 1;
        break;
      }
    }
    dl[e] = ks;
  });

  // ---- The transcript hits the wire (the stores are the fault seam; the
  // accounting epilogue stays analytic).
  std::vector<NodeId> acc_storage;
  if (inst.accountable.empty()) acc_storage = accountable_endpoints(g);
  const std::vector<NodeId>& acc_end = inst.accountable.empty() ? acc_storage : inst.accountable;
  LRDIP_CHECK(static_cast<int>(acc_end.size()) == g.m());

  LabelStore labels(g, /*rounds=*/2);
  CoinStore coins(g, /*rounds=*/2);
  for (int i = 0; i < n; ++i) {
    const NodeId v = inst.order[static_cast<std::size_t>(i)];
    Label sl;
    sl.reserve(2 + static_cast<std::size_t>(levels));
    sl.put(static_cast<std::uint64_t>(lam[static_cast<std::size_t>(i)]), lambda_bits)
        .put(static_cast<std::uint64_t>(
                 gt[static_cast<std::size_t>(levels - 1)].off[static_cast<std::size_t>(i)] + 1),
             j_bits);
    for (int k = 0; k < levels; ++k) {
      const std::uint64_t nib = (x1[lx(k, i)] != 0 ? 1u : 0u) |
                                (x2[lx(k, i)] != 0 ? 2u : 0u) |
                                (static_cast<std::uint64_t>(rel[lx(k, i)]) << 2);
      sl.put(nib, 4);
    }
    labels.assign_node(kRoundStruct, v, std::move(sl));
    Label cl;
    cl.reserve(static_cast<std::size_t>(levels));
    for (int k = 0; k < levels; ++k) {
      cl.put(cw[lx(k, i)] | (cf[lx(k, i)] << qbits) | (cg[lx(k, i)] << (2 * qbits)),
             3 * qbits);
    }
    labels.assign_node(kRoundChains, v, std::move(cl));
  }
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (pl.is_path_edge[e]) continue;
    Label el;
    el.reserve(1);
    el.put(static_cast<std::uint64_t>(dl[e]), dl_bits);
    labels.assign_edge(kRoundStruct, e, std::move(el), acc_end[e]);
  }
  const NodeId leftmost = inst.order.front();
  coins.record(kRoundChains, leftmost,
               {coin_vals.data(), static_cast<std::size_t>(levels) + 1}, qbits);

  // ---- Byzantine seam: corrupt the recorded transcript in transit.
  if (faults != nullptr) faults->corrupt(labels, coins);

  // ---- Decode (verifier): checked reads of everything the decision uses.
  std::vector<RejectReason> node_defect(static_cast<std::size_t>(n), RejectReason::none);
  std::vector<int> lam_d(static_cast<std::size_t>(n), 0);
  std::vector<int> j_d(static_cast<std::size_t>(n), 1);
  std::vector<char> x1_d(static_cast<std::size_t>(levels) * n, 0);
  std::vector<char> x2_d(static_cast<std::size_t>(levels) * n, 0);
  std::vector<signed char> rel_d(static_cast<std::size_t>(levels) * n, 3);
  std::vector<std::uint64_t> w_d(static_cast<std::size_t>(levels) * n, 1);
  std::vector<std::uint64_t> f_d(static_cast<std::size_t>(levels) * n, 0);
  std::vector<std::uint64_t> g_d(static_cast<std::size_t>(levels) * n, 0);
  parallel_for(n, [&](std::int64_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    LocalVerdict verdict;
    try {
      const Label& sl = labels.node_label(kRoundStruct, v);
      expect_fields(sl, 2 + static_cast<std::size_t>(levels), verdict);
      lam_d[v] = static_cast<int>(read_or_reject(sl, kFLambda, lambda_bits, verdict, 0));
      j_d[v] = static_cast<int>(read_or_reject(sl, kFJ, j_bits, verdict, 1));
      for (int k = 0; k < levels; ++k) {
        const std::uint64_t nib =
            read_or_reject(sl, 2 + static_cast<std::size_t>(k), 4, verdict, 12);
        x1_d[lx(k, v)] = static_cast<char>(nib & 1);
        x2_d[lx(k, v)] = static_cast<char>((nib >> 1) & 1);
        rel_d[lx(k, v)] = static_cast<signed char>((nib >> 2) & 3);
      }
      const Label& cl = labels.node_label(kRoundChains, v);
      expect_fields(cl, static_cast<std::size_t>(levels), verdict);
      const std::uint64_t qmask = (std::uint64_t{1} << qbits) - 1;
      for (int k = 0; k < levels; ++k) {
        const std::uint64_t tri =
            read_or_reject(cl, static_cast<std::size_t>(k), 3 * qbits, verdict, 1);
        w_d[lx(k, v)] = f.reduce(tri & qmask);
        f_d[lx(k, v)] = f.reduce((tri >> qbits) & qmask);
        g_d[lx(k, v)] = f.reduce((tri >> (2 * qbits)) & qmask);
      }
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    node_defect[v] = verdict.reason();
  });
  // Coins, charged to the node that drew them.
  std::vector<std::uint64_t> z_d(static_cast<std::size_t>(levels), 0);
  std::uint64_t y_d = 0;
  {
    LocalVerdict cv;
    const NodeView view(labels, coins, leftmost);
    for (int k = 0; k < levels; ++k) {
      z_d[static_cast<std::size_t>(k)] = f.reduce(view.read_coin(kRoundChains, k, cv));
    }
    y_d = f.reduce(view.read_coin(kRoundChains, levels, cv));
    node_defect[leftmost] = worse_reason(node_defect[leftmost], cv.reason());
  }
  // Edge divergence labels.
  std::vector<RejectReason> edge_defect(static_cast<std::size_t>(g.m()), RejectReason::none);
  std::vector<int> dl_d(static_cast<std::size_t>(g.m()), 1);
  parallel_for(g.m(), [&](std::int64_t ei) {
    const EdgeId e = static_cast<EdgeId>(ei);
    if (pl.is_path_edge[e]) return;
    LocalVerdict verdict;
    try {
      const Label& el = labels.edge_label(kRoundStruct, e);
      expect_fields(el, 1, verdict);
      dl_d[e] = static_cast<int>(read_or_reject(el, kFDl, dl_bits, verdict, 1));
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    edge_defect[e] = verdict.reason();
  });

  // ---- Derived tiling (global precompute from the decoded lambda, the
  // a1_dec pattern): walk each level once, closing a unit at every decoded
  // start. The size rules — a unit closed by a sibling start has exactly B_k
  // nodes, one closed by a parent boundary (or the path end) absorbs up to
  // 2 B_k - 1 — make the tiling unique, so passing them pins the decoded
  // structure to the ground truth. Violations reject the unit's head node.
  // Alongside the walk: the reconstructed position P (from the decoded x1
  // bits), the unit-final fingerprints, and the first-in-parent flags.
  std::vector<std::vector<std::int32_t>> unit_d(static_cast<std::size_t>(levels));
  std::vector<std::vector<std::int32_t>> off_d(static_cast<std::size_t>(levels));
  std::vector<std::vector<std::uint32_t>> p_dec(static_cast<std::size_t>(levels));
  std::vector<std::vector<std::uint64_t>> f_fin(static_cast<std::size_t>(levels));
  std::vector<std::vector<std::uint64_t>> g_fin(static_cast<std::size_t>(levels));
  std::vector<std::vector<std::int32_t>> head_d(static_cast<std::size_t>(levels));
  std::vector<std::vector<char>> firstpar_d(static_cast<std::size_t>(levels));
  auto merge_defect = [&](NodeId v, RejectReason r) {
    node_defect[v] = worse_reason(node_defect[v], r);
  };
  for (int k = 0; k < levels; ++k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    unit_d[sk].assign(static_cast<std::size_t>(n), 0);
    off_d[sk].assign(static_cast<std::size_t>(n), 0);
    const int wk = w[sk];
    int head = 0;
    for (int i = 1; i <= n; ++i) {
      // Position 0 is a forced start at every level (lambda there is checked
      // separately); elsewhere the decoded lambda declares the starts.
      const bool starts =
          i < n && lam_d[inst.order[static_cast<std::size_t>(i)]] >= levels - k;
      if (i < n && !starts) continue;
      const int u = static_cast<int>(head_d[sk].size());
      const int size = i - head;
      head_d[sk].push_back(head);
      firstpar_d[sk].push_back(
          head == 0 ||
          (k > 0 && lam_d[inst.order[static_cast<std::size_t>(head)]] >= levels - (k - 1)));
      std::uint32_t p = 0;
      for (int o = 0; o < size && o < wk; ++o) {
        if (x1_d[lx(k, inst.order[static_cast<std::size_t>(head + o)])]) p |= 1u << o;
      }
      p_dec[sk].push_back(p);
      f_fin[sk].push_back(f_d[lx(k, inst.order[static_cast<std::size_t>(i - 1)])]);
      g_fin[sk].push_back(g_d[lx(k, inst.order[static_cast<std::size_t>(i - 1)])]);
      for (int t = head; t < i; ++t) {
        unit_d[sk][static_cast<std::size_t>(t)] = u;
        off_d[sk][static_cast<std::size_t>(t)] = t - head;
      }
      const bool parent_close =
          i == n ||
          (k > 0 && lam_d[inst.order[static_cast<std::size_t>(i)]] >= levels - (k - 1));
      const int bk = bs[sk];
      const bool size_ok = parent_close ? (size >= bk && size < 2 * bk) : size == bk;
      if (!size_ok) {
        merge_defect(inst.order[static_cast<std::size_t>(head)], RejectReason::check_failed);
      }
      head = i;
    }
    // Boundary fingerprints: a first-in-parent unit certifies position 0
    // (empty power sum); every other unit's x1 fingerprint must equal its
    // left sibling's x2 fingerprint — i.e. its position is the sibling's
    // plus one, whp over z_k.
    for (std::size_t u = 0; u < head_d[sk].size(); ++u) {
      const bool ok = firstpar_d[sk][u] != 0 ? f_fin[sk][u] == 0
                                             : f_fin[sk][u] == g_fin[sk][u - 1];
      if (!ok) {
        merge_defect(inst.order[static_cast<std::size_t>(head_d[sk][u])],
                     RejectReason::check_failed);
      }
    }
  }

  // ---- Supplementary global multiset check over the reconstructed block
  // positions, via the SIMD phi kernel: the claimed level-0 positions must be
  // exactly {0, ..., nb-1} as a multiset mod q. Gated on the decoded unit
  // count — when it differs from nb, the size rules above already rejected.
  if (static_cast<int>(p_dec[0].size()) == nb) {
    std::vector<std::uint64_t> mine(static_cast<std::size_t>(nb));
    std::vector<std::uint64_t> ident(static_cast<std::size_t>(nb));
    for (int b = 0; b < nb; ++b) {
      mine[static_cast<std::size_t>(b)] = f.reduce(p_dec[0][static_cast<std::size_t>(b)]);
      ident[static_cast<std::size_t>(b)] = f.reduce(static_cast<std::uint64_t>(b));
    }
    if (fp_simd::phi_product(f, mine, y_d) != fp_simd::phi_product(f, ident, y_d)) {
      for (std::size_t u = 0; u < head_d[0].size(); ++u) {
        merge_defect(inst.order[static_cast<std::size_t>(head_d[0][u])],
                     RejectReason::check_failed);
      }
    }
  }

  // ---- Edge checks hoisted out of the per-node loop: the committed
  // divergence level must match the one derived from the decoded tiling, and
  // the endpoints' reconstructed positions at that level must be ordered.
  // (Minimality of the divergence level puts both units in the same parent,
  // so comparing within-parent indices is sound.)
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (pl.is_path_edge[e]) continue;
    const NodeId t = inst.tail[e];
    const NodeId h = g.other_end(e, t);
    const int it = pl.pos[t];
    const int ih = pl.pos[h];
    RejectReason bad = edge_defect[e];
    int ks = levels + 1;
    for (int k = 0; k < levels; ++k) {
      if (unit_d[static_cast<std::size_t>(k)][static_cast<std::size_t>(it)] !=
          unit_d[static_cast<std::size_t>(k)][static_cast<std::size_t>(ih)]) {
        ks = k + 1;
        break;
      }
    }
    bool ok = dl_d[e] == ks;
    if (ks == levels + 1) {
      ok = ok && j_d[t] < j_d[h];
    } else {
      const std::size_t sk = static_cast<std::size_t>(ks - 1);
      ok = ok && p_dec[sk][static_cast<std::size_t>(unit_d[sk][static_cast<std::size_t>(it)])] <
                     p_dec[sk][static_cast<std::size_t>(unit_d[sk][static_cast<std::size_t>(ih)])];
    }
    if (!ok) bad = worse_reason(bad, RejectReason::check_failed);
    if (bad != RejectReason::none) {
      merge_defect(t, bad);
      merge_defect(h, bad);
    }
  }

  // ---- Decision: the remaining local checks over the decoded transcript.
  StageResult out;
  out.rounds = 2 * levels + 1;
  out.node_reasons = decide_nodes_reasons(n, [&](NodeId v, LocalVerdict& verdict) {
    verdict.reject(node_defect[v]);
    const int i = pl.pos[v];
    const NodeId lv = pl.left[v];
    const NodeId rv = pl.right[v];
    verdict.require(lam_d[v] <= levels);
    if (i == 0) verdict.require(lam_d[v] == levels);
    // The innermost offset label must agree with the derived tiling.
    verdict.require(j_d[v] ==
                    off_d[static_cast<std::size_t>(levels - 1)][static_cast<std::size_t>(i)] + 1);
    for (int k = 0; k < levels; ++k) {
      const bool start = i == 0 || lam_d[v] >= levels - k;
      const bool b1 = x1_d[lx(k, v)] != 0;
      const bool b2 = x2_d[lx(k, v)] != 0;
      const int rl = rel_d[lx(k, v)];
      const int left_rel = start ? -1 : rel_d[lx(k, lv)];
      // Carry relation: trailing ones flip (rel 2), the pivot sets (rel 1),
      // everything above is unchanged (rel 0) — and the regions must appear
      // in that order along the unit.
      switch (rl) {
        case 2:
          verdict.require(b1 && !b2 && (start || left_rel == 2));
          break;
        case 1:
          verdict.require(!b1 && b2 && (start || left_rel == 2));
          break;
        case 0:
          verdict.require(b1 == b2 && !start && (left_rel == 0 || left_rel == 1));
          break;
        default:
          verdict.require(false);
      }
      // The unit's last node must sit at or after the pivot: the increment
      // may not carry out of the unit.
      const bool last = rv == -1 || lam_d[rv] >= levels - k;
      if (last) verdict.require(rl == 0 || rl == 1);
      // Fingerprint chains follow the recurrence from the left neighbor.
      const std::uint64_t zk = z_d[static_cast<std::size_t>(k)];
      verdict.require(w_d[lx(k, v)] ==
                      (start ? std::uint64_t{1} : f.mul(zk, w_d[lx(k, lv)])));
      verdict.require(f_d[lx(k, v)] ==
                      f.add(b1 ? w_d[lx(k, v)] : 0, start ? 0 : f_d[lx(k, lv)]));
      verdict.require(g_d[lx(k, v)] ==
                      f.add(b2 ? w_d[lx(k, v)] : 0, start ? 0 : g_d[lx(k, lv)]));
    }
    return true;
  });

  // ---- Accounting (analytic: what the honest prover sent).
  out.node_bits.assign(static_cast<std::size_t>(n), 0);
  out.coin_bits.assign(static_cast<std::size_t>(n), 0);
  const int per_node = kEdgeSimFramingBits + lambda_bits + j_bits +
                       4 * levels /*x1, x2, rel*/ + 3 * levels * qbits /*W, F, G*/ +
                       levels * qbits /*z echoes*/ + qbits /*y echo*/;
  for (NodeId v = 0; v < n; ++v) out.node_bits[v] = per_node;
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (pl.is_path_edge[e]) continue;
    out.node_bits[acc_end[e]] += dl_bits;
  }
  out.coin_bits[leftmost] = (levels + 1) * qbits;
  return out;
}

Outcome run_log_star_planarity(const LogStarPlanarityInstance& inst, const LogStarParams& params,
                               Rng& rng, FaultInjector* faults) {
  return run_protocol(make_instance(inst), {params.c}, rng, faults);
}

}  // namespace lrdip
