#include "protocols/lr_sorting.hpp"

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

/// Constant per-node framing for the Lemma 2.4 edge-label simulation: the
/// forest codes (Lemma 2.3) for <= 5 parent-forests at 7 bits each.
constexpr int kEdgeSimFramingBits = 35;

// Store layout of the decision-relevant transcript. Two store rounds cover
// the five interaction rounds: round 0 carries the R1/R3 per-node block
// fields and the per-edge commitments, round 1 the R5 aggregation chains.
// (The round split is bookkeeping for the wire; the protocol's round count
// stays kLrSortingRounds in the analytic accounting.)
constexpr int kRoundBlock = 0;
constexpr int kRoundChains = 1;
constexpr std::size_t kFIdx = 0;   // in-block index (idx_bits)
constexpr std::size_t kFX1 = 1;    // x1 bit
constexpr std::size_t kFX2 = 2;    // x2 bit
constexpr std::size_t kFRel = 3;   // relation to v_b (2 bits)
constexpr std::size_t kFMult = 4;  // multiplicity M_v (mult_bits)
constexpr std::size_t kFPfx = 5;   // prefix evaluation P_v at r' (fbits)
constexpr std::size_t kNodeBlockFields = 6;
constexpr std::size_t kFQ1 = 0, kFR1 = 1, kFQ0 = 2, kFR0 = 3;  // f2bits each
constexpr std::size_t kChainFields = 4;
constexpr std::size_t kFKind = 0;  // edge: 0 = inner, 1 = outer
constexpr std::size_t kFDist = 1;  // outer edge: distinguishing index (dist_bits)
constexpr std::size_t kFJ = 2;     // outer edge: claimed phi prefix value (fbits)

struct PathLocal {
  std::vector<int> pos;        // position of node on the path
  std::vector<NodeId> left;    // path neighbor to the left (-1 at the left end)
  std::vector<NodeId> right;   // path neighbor to the right
  std::vector<char> is_path_edge;
};

PathLocal path_locals(const LrSortingInstance& inst) {
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

}  // namespace

/// Trivial one-round protocol for paths too short for the block machinery,
/// and the O(log n) PLS baseline: label every node with its position. The
/// labels go through a store so the fault seam covers the degenerate path
/// too, and the +-1 chain checks the preamble alludes to are explicit — the
/// decision runs on decoded positions, not the ground truth. Exported: the
/// log-star protocol shares it as its short-path fallback and PLS baseline.
StageResult lr_trivial_position_stage(const LrSortingInstance& inst, FaultInjector* faults) {
  const obs::ScopedTimer timer("trivial_position_protocol");
  const Graph& g = *inst.graph;
  const int n = g.n();
  const PathLocal pl = path_locals(inst);
  const int bits = bits_for_values(static_cast<std::uint64_t>(n));
  LabelStore labels(g, /*rounds=*/1);
  CoinStore coins(g, /*rounds=*/1);
  for (NodeId v = 0; v < n; ++v) {
    Label l;
    l.reserve(1);
    l.put(static_cast<std::uint64_t>(pl.pos[v]), bits);
    labels.assign_node(0, v, std::move(l));
  }
  if (faults != nullptr) faults->corrupt(labels, coins);

  std::vector<std::int64_t> pos_d(n, 0);
  std::vector<RejectReason> defect(n, RejectReason::none);
  for (NodeId v = 0; v < n; ++v) {
    LocalVerdict verdict;
    const Label& l = labels.node_label(0, v);
    expect_fields(l, 1, verdict);
    pos_d[v] = static_cast<std::int64_t>(read_or_reject(l, 0, bits, verdict, 0));
    defect[v] = verdict.reason();
  }

  StageResult out;
  out.node_bits.assign(n, bits);
  out.coin_bits.assign(n, 0);
  out.rounds = 1;
  out.node_reasons = decide_nodes_reasons(n, [&](NodeId v, LocalVerdict& verdict) {
    verdict.reject(defect[v]);
    // The +-1 chain pins positions to the ground truth up to a global shift.
    if (pl.left[v] != -1) verdict.require(pos_d[pl.left[v]] + 1 == pos_d[v]);
    if (pl.right[v] != -1) verdict.require(pos_d[v] + 1 == pos_d[pl.right[v]]);
    return true;
  });
  // The decision reduces to the direct comparison per non-path edge.
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (pl.is_path_edge[e]) continue;
    const NodeId t = inst.tail[e];
    const NodeId h = g.other_end(e, t);
    if (pos_d[t] > pos_d[h]) {
      out.reject(t);
      out.reject(h);
    }
  }
  return out;
}

namespace {

using Commit = std::pair<int, std::uint64_t>;

/// Per-node CSR of outer-edge commitments: one flat (index, j) array per side
/// (C0 at the tail, C1 at the head) with per-node [offset, end) segments,
/// deduped in place. Built once from the prover's arrays (feeds the honest
/// multiplicities and chains) and — when a fault injector touched the wire —
/// a second time from the decoded edge labels for the decision.
struct CommitCsr {
  std::vector<std::uint32_t> c0_off, c1_off, c0_end, c1_end;
  std::vector<Commit> c0_data, c1_data;
  const Commit* c0_begin(NodeId v) const { return c0_data.data() + c0_off[v]; }
  const Commit* c0_stop(NodeId v) const { return c0_data.data() + c0_end[v]; }
  const Commit* c1_begin(NodeId v) const { return c1_data.data() + c1_off[v]; }
  const Commit* c1_stop(NodeId v) const { return c1_data.data() + c1_end[v]; }
};

/// Outer edges with an out-of-range distinguishing index are excluded here;
/// the decision separately rejects their endpoints.
CommitCsr build_commit_csr(const Graph& g, const std::vector<NodeId>& tail,
                           const std::vector<char>& is_path_edge, int B,
                           const std::vector<char>& kind, const std::vector<int>& dist,
                           const std::vector<std::uint64_t>& jv) {
  const int n = g.n();
  CommitCsr csr;
  csr.c0_off.assign(n + 1, 0);
  csr.c1_off.assign(n + 1, 0);
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (is_path_edge[e] || kind[e] != 1) continue;
    if (dist[e] < 1 || dist[e] > B) continue;
    ++csr.c0_off[tail[e] + 1];
    ++csr.c1_off[g.other_end(e, tail[e]) + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    csr.c0_off[v + 1] += csr.c0_off[v];
    csr.c1_off[v + 1] += csr.c1_off[v];
  }
  csr.c0_data.resize(csr.c0_off[n]);
  csr.c1_data.resize(csr.c1_off[n]);
  csr.c0_end.assign(csr.c0_off.begin(), csr.c0_off.end() - 1);
  csr.c1_end.assign(csr.c1_off.begin(), csr.c1_off.end() - 1);
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (is_path_edge[e] || kind[e] != 1) continue;
    if (dist[e] < 1 || dist[e] > B) continue;
    const NodeId t = tail[e];
    const NodeId h = g.other_end(e, t);
    csr.c0_data[csr.c0_end[t]++] = {dist[e], jv[e]};
    csr.c1_data[csr.c1_end[h]++] = {dist[e], jv[e]};
  }
  parallel_for(n, [&](std::int64_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    // Dedup each side in place within its segment.
    Commit* b0 = csr.c0_data.data() + csr.c0_off[v];
    Commit* s0 = csr.c0_data.data() + csr.c0_end[v];
    std::sort(b0, s0);
    csr.c0_end[v] = static_cast<std::uint32_t>(std::unique(b0, s0) - csr.c0_data.data());
    Commit* b1 = csr.c1_data.data() + csr.c1_off[v];
    Commit* s1 = csr.c1_data.data() + csr.c1_end[v];
    std::sort(b1, s1);
    csr.c1_end[v] = static_cast<std::uint32_t>(std::unique(b1, s1) - csr.c1_data.data());
  });
  return csr;
}

}  // namespace

StageResult lr_sorting_stage(const LrSortingInstance& inst, const LrParams& params, Rng& rng,
                             const LrCheatSpec* cheat, FaultInjector* faults) {
  const obs::ScopedTimer timer("lr_sorting_stage");
  const Graph& g = *inst.graph;
  const int n = g.n();
  LRDIP_CHECK(n >= 2);
  LRDIP_CHECK(static_cast<int>(inst.tail.size()) == g.m());
  const PathLocal pl = path_locals(inst);

  const int B = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
  // n = 2 is the one size with nb = n / B >= 2^B: B = 1 gives two one-bit
  // blocks, and block 1's position has no 0-bit to anchor it.
  if (n < 2 * B || n == 2) return lr_trivial_position_stage(inst, faults);

  // Fields. p > max(log^c n, 2B + 2); p' > p * B.
  const double logn = std::log2(static_cast<double>(n));
  const auto pc = static_cast<std::uint64_t>(std::pow(logn, params.c));
  const Fp f(cached_prime_above(std::max<std::uint64_t>(pc, 2 * B + 2)));
  const Fp f2(cached_prime_above(f.modulus() * static_cast<std::uint64_t>(B)));
  const int fbits = f.element_bits();
  const int f2bits = f2.element_bits();
  const int idx_bits = bits_for_values(2 * B);
  const int mult_bits = bits_for_values(2 * B + 1);
  const int dist_bits = bits_for_values(B + 1);

  // ---- Block construction (ground truth): nb full blocks, last absorbs rest.
  const int nb = n / B;
  auto block_of_pos = [&](int i) { return std::min(i / B, nb - 1); };
  auto idx_of_pos = [&](int i) { return i - block_of_pos(i) * B + 1; };  // 1-based

  // ---- R1 (prover): per-node block labels.
  std::vector<int> idx(n), rel(n, 3);
  std::vector<char> x1b(n, 0), x2b(n, 0);
  std::vector<std::uint64_t> blk_pos(nb);
  for (int b = 0; b < nb; ++b) blk_pos[b] = static_cast<std::uint64_t>(b);
  if (cheat != nullptr && cheat->shift_block && nb >= 2) {
    blk_pos[1 + rng.uniform(nb - 1)] += 1;  // corrupt one non-first block
  }
  // v_b per block: the least significant 0-bit of x1 (largest index with bit
  // 0) — a function of the block alone, so compute it once per block rather
  // than once per node.
  std::vector<int> jb_blk(nb, -1);
  for (int b = 0; b < nb; ++b) {
    const std::uint64_t x1 = blk_pos[b];
    for (int t = B; t >= 1; --t) {
      if (((x1 >> (B - t)) & 1) == 0) {
        jb_blk[b] = t;
        break;
      }
    }
    LRDIP_CHECK_MSG(jb_blk[b] != -1, "block position overflow (all-ones)");
  }
  for (int i = 0; i < n; ++i) {
    const NodeId v = inst.order[i];
    const int b = block_of_pos(i);
    const int j = idx_of_pos(i);
    idx[v] = j;
    if (j <= B) {
      const std::uint64_t x1 = blk_pos[b];
      const std::uint64_t x2 = blk_pos[b] + 1;
      x1b[v] = static_cast<char>((x1 >> (B - j)) & 1);
      x2b[v] = static_cast<char>((x2 >> (B - j)) & 1);
      const int jb = jb_blk[b];
      rel[v] = j < jb ? 0 : (j == jb ? 1 : 2);
    }
  }

  // ---- R1 (prover): edge classification and distinguishing indices.
  // kind: 0 = inner, 1 = outer (path edges carry no label).
  // The prover acts adaptively AFTER seeing the R2 coins when the instance
  // lies, so classification is finalized below; honest edges classify now.
  // ---- R2 (verifier): coins.
  const std::uint64_t r = f.sample(rng);
  const std::uint64_t rp = f.sample(rng);
  std::vector<std::uint64_t> rb(nb);
  f.sample_span(rng, rb);  // stream-identical to nb sequential f.sample calls

  // Prefix evaluations P_i = phi^b_i(r') (honest; pinned by local checks).
  std::vector<std::uint64_t> pfx(n, 1);
  for (int i = 0; i < n; ++i) {
    const NodeId v = inst.order[i];
    const int j = idx[v];
    const std::uint64_t prev = (j == 1) ? 1 : pfx[pl.left[v]];
    pfx[v] = (j <= B && x1b[v]) ? f.mul(prev, f.sub(static_cast<std::uint64_t>(j), rp)) : prev;
  }
  auto pfx_before = [&](NodeId v) { return idx[v] == 1 ? std::uint64_t{1} : pfx[pl.left[v]]; };

  // phi^b_{i-1}(r') for block b and index i, from the ground truth encoding.
  // One row of prefix products per block, filled once: the edge-commitment
  // pass below queries this O(m * B) times in the worst case, so the O(nb * B)
  // table turns each query into a load.
  std::vector<std::uint64_t> phi_pref(static_cast<std::size_t>(nb) * (B + 1));
  detail::parallel_for_ranges(nb, /*grain=*/512, [&](std::int64_t lo, std::int64_t hi) {
    // One SIMD lane per block within the chunk; rows are value-identical at
    // every dispatch level, so chunking stays unobservable.
    fp_simd::phi_prefix_rows(
        f, std::span<const std::uint64_t>(blk_pos.data() + lo, static_cast<std::size_t>(hi - lo)),
        B, rp,
        std::span<std::uint64_t>(phi_pref.data() + static_cast<std::size_t>(lo) * (B + 1),
                                 static_cast<std::size_t>(hi - lo) * (B + 1)));
  });
  auto phi_prefix = [&](int b, int upto_exclusive) {
    return phi_pref[static_cast<std::size_t>(b) * (B + 1) + upto_exclusive];
  };

  // ---- Edge commitments (prover, adaptive best effort on lies).
  std::vector<char> kind(g.m(), 0);
  std::vector<int> dist_i(g.m(), 1);
  std::vector<std::uint64_t> jval(g.m(), 0);
  // Position words are B-bit; index scans below run on masked words so bit
  // tricks see exactly the bits the per-index loops used to visit.
  const std::uint64_t bmask = (std::uint64_t{1} << B) - 1;
  parallel_for(g.m(), [&](std::int64_t ei) {
    const EdgeId e = static_cast<EdgeId>(ei);
    if (pl.is_path_edge[e]) return;
    const NodeId t = inst.tail[e];
    const NodeId h = g.other_end(e, t);
    const int bt = block_of_pos(pl.pos[t]);
    const int bh = block_of_pos(pl.pos[h]);
    if (pl.pos[t] < pl.pos[h]) {
      // Truthful edge.
      if (bt == bh) {
        kind[e] = 0;
      } else {
        kind[e] = 1;
        // Distinguishing index of (pos(bt), pos(bh)): the highest differing
        // bit, straight from the xor. With honest block positions it always
        // exists; under the block-shift cheat two blocks can carry equal
        // positions, in which case the prover falls back to a doomed
        // commitment.
        const std::uint64_t diff = (blk_pos[bt] ^ blk_pos[bh]) & bmask;
        dist_i[e] = diff == 0 ? 1 : B - floor_log2(diff);
        jval[e] = phi_prefix(bt, dist_i[e]);
      }
    } else {
      // The instance lies on this edge; the prover has seen all coins and
      // picks the classification/commitment with the best winning odds.
      if (bt != bh && idx[t] < idx[h] && rb[bt] == rb[bh]) {
        kind[e] = 0;  // inner-block bluff wins outright on an r_b collision
        return;
      }
      kind[e] = 1;
      // Look for an index where the bits support the claim AND the prefix
      // evaluations collide at r' (a PIT win); otherwise commit to the least
      // detectable option: bits support the claim, j matches the tail side.
      // Supporting indices (tail bit 0, head bit 1) fall out of one mask;
      // the scan walks only its set bits, smallest index first.
      std::uint64_t cand = ~blk_pos[bt] & blk_pos[bh] & bmask;
      int best = -1;
      while (cand != 0) {
        const int hb = floor_log2(cand);
        const int b = B - hb;
        if (phi_prefix(bt, b) == phi_prefix(bh, b)) {
          best = b;
          break;  // outright PIT win
        }
        if (best == -1) best = b;
        cand ^= std::uint64_t{1} << hb;
      }
      if (best == -1) best = 1;  // no supporting index exists; doomed commit
      dist_i[e] = best;
      jval[e] = phi_prefix(bt, best);
    }
  });

  if (cheat != nullptr && cheat->misclassify_edge) {
    // Reclassify one truthful cross-block edge whose in-block indices happen
    // to be ordered (so only the r_b identity check can catch it).
    std::vector<EdgeId> candidates;
    for (EdgeId e = 0; e < g.m(); ++e) {
      if (pl.is_path_edge[e] || kind[e] != 1) continue;
      const NodeId t = inst.tail[e];
      const NodeId h = g.other_end(e, t);
      if (pl.pos[t] < pl.pos[h] && block_of_pos(pl.pos[t]) != block_of_pos(pl.pos[h]) &&
          idx[t] < idx[h]) {
        candidates.push_back(e);
      }
    }
    if (!candidates.empty()) {
      kind[candidates[rng.uniform(candidates.size())]] = 0;
    }
  }

  // ---- Per-node C0/C1 commitment sets (prover view; the decision-side E3
  // consistency checks run on the decoded counterpart below).
  const CommitCsr hon = build_commit_csr(g, inst.tail, pl.is_path_edge, B, kind, dist_i, jval);

  // ---- Multiplicities M_v (prover): count matching elements in the block
  // multisets (the best any prover can do). Sorted flat vectors per block;
  // multiplicity lookups become equal_range counts.
  std::vector<std::vector<Commit>> block_c0(nb), block_c1(nb);
  parallel_for(nb, [&](std::int64_t b) {
    const int lo = static_cast<int>(b) * B;
    const int hi = (b == nb - 1) ? n : lo + B;
    auto& v0 = block_c0[b];
    auto& v1 = block_c1[b];
    for (int i = lo; i < hi; ++i) {
      const NodeId v = inst.order[i];
      v0.insert(v0.end(), hon.c0_begin(v), hon.c0_stop(v));
      v1.insert(v1.end(), hon.c1_begin(v), hon.c1_stop(v));
    }
    std::sort(v0.begin(), v0.end());
    std::sort(v1.begin(), v1.end());
  });
  std::vector<int> mult(n, 0);
  parallel_for(n, [&](std::int64_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    const int j = idx[v];
    if (j > B) return;
    const int b = block_of_pos(pl.pos[v]);
    const Commit key{j, pfx_before(v)};
    const auto& side = x1b[v] ? block_c1[b] : block_c0[b];
    const auto [first, last] = std::equal_range(side.begin(), side.end(), key);
    mult[v] = std::min(static_cast<int>(last - first), 2 * B);
  });

  if (cheat != nullptr && cheat->corrupt_multiplicity) {
    // Overstate one multiplicity; the R-side product of the verification
    // scheme then disagrees with the C-side except on a PIT collision.
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < n; ++v) {
      if (idx[v] <= B && mult[v] + 1 <= 2 * B) candidates.push_back(v);
    }
    if (!candidates.empty()) {
      mult[candidates[rng.uniform(candidates.size())]] += 1;
    }
  }

  // ---- R4 (verifier): z. R5 (prover): verification-scheme chains.
  const std::uint64_t z = f2.sample(rng);
  auto enc = [&](int i, std::uint64_t j) {
    return f2.reduce(j * static_cast<std::uint64_t>(B) + static_cast<std::uint64_t>(i - 1));
  };
  std::vector<std::uint64_t> q1(n), r1(n), q0(n), r0(n);
  for (int i = 0; i < n; ++i) {
    const NodeId v = inst.order[i];
    const int j = idx[v];
    const std::uint64_t pq1 = (j == 1) ? 1 : q1[pl.left[v]];
    const std::uint64_t pr1 = (j == 1) ? 1 : r1[pl.left[v]];
    const std::uint64_t pq0 = (j == 1) ? 1 : q0[pl.left[v]];
    const std::uint64_t pr0 = (j == 1) ? 1 : r0[pl.left[v]];
    std::uint64_t l1 = 1, l0 = 1;
    for (const Commit* p = hon.c1_begin(v); p != hon.c1_stop(v); ++p) {
      l1 = f2.mul(l1, f2.sub(enc(p->first, p->second), z));
    }
    for (const Commit* p = hon.c0_begin(v); p != hon.c0_stop(v); ++p) {
      l0 = f2.mul(l0, f2.sub(enc(p->first, p->second), z));
    }
    std::uint64_t d1 = 1, d0 = 1;
    if (j <= B) {
      const std::uint64_t el = f2.sub(enc(j, pfx_before(v)), z);
      if (x1b[v]) {
        d1 = f2.pow(el, static_cast<std::uint64_t>(mult[v]));
      } else {
        d0 = f2.pow(el, static_cast<std::uint64_t>(mult[v]));
      }
    }
    q1[v] = f2.mul(pq1, l1);
    r1[v] = f2.mul(pr1, d1);
    q0[v] = f2.mul(pq0, l0);
    r0[v] = f2.mul(pr0, d0);
  }

  // ---- The transcript hits the wire. Everything the decision reads below is
  // recorded in stores so a fault injector can corrupt it in transit; the
  // accounting epilogue stays analytic (the stores are the wire, not the cost
  // model).
  std::vector<NodeId> acc_storage;
  if (inst.accountable.empty()) acc_storage = accountable_endpoints(g);
  const std::vector<NodeId>& acc_end = inst.accountable.empty() ? acc_storage : inst.accountable;
  LRDIP_CHECK(static_cast<int>(acc_end.size()) == g.m());

  LabelStore labels(g, /*rounds=*/2);
  CoinStore coins(g, /*rounds=*/2);
  for (NodeId v = 0; v < n; ++v) {
    Label bl;
    bl.reserve(kNodeBlockFields);
    bl.put(static_cast<std::uint64_t>(idx[v]), idx_bits)
        .put_flag(x1b[v] != 0)
        .put_flag(x2b[v] != 0)
        .put(static_cast<std::uint64_t>(rel[v]), 2)
        .put(static_cast<std::uint64_t>(mult[v]), mult_bits)
        .put(pfx[v], fbits);
    labels.assign_node(kRoundBlock, v, std::move(bl));
    Label chl;
    chl.reserve(kChainFields);
    chl.put(q1[v], f2bits).put(r1[v], f2bits).put(q0[v], f2bits).put(r0[v], f2bits);
    labels.assign_node(kRoundChains, v, std::move(chl));
  }
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (pl.is_path_edge[e]) continue;
    Label el;
    if (kind[e] == 1) {
      el.reserve(3);
      el.put_flag(true)
          .put(static_cast<std::uint64_t>(dist_i[e]), dist_bits)
          .put(jval[e], fbits);
    } else {
      el.reserve(1);
      el.put_flag(false);
    }
    labels.assign_edge(kRoundBlock, e, std::move(el), acc_end[e]);
  }
  const NodeId leftmost = inst.order.front();
  {
    const std::uint64_t head[3] = {r, rp, rb[0]};
    coins.record(kRoundBlock, leftmost, {head, std::size_t{3}}, fbits);
  }
  for (int b = 1; b < nb; ++b) {
    coins.record(kRoundBlock, inst.order[static_cast<std::size_t>(b) * B], {&rb[b], std::size_t{1}},
                 fbits);
  }
  coins.record(kRoundChains, leftmost, {&z, std::size_t{1}}, f2bits);

  // ---- Byzantine seam: corrupt the recorded transcript in transit.
  if (faults != nullptr) faults->corrupt(labels, coins);

  // ---- Decode (verifier): checked reads of everything the decision uses.
  // Any structural defect is a per-node/per-edge RejectReason, never an
  // exception; fallbacks are benign in-range values (the element is already
  // rejected). Decoded field values are reduced into their fields so the
  // arithmetic below is total on corrupted inputs.
  std::vector<RejectReason> node_defect(n, RejectReason::none);
  std::vector<int> idx_d(n, 1), rel_d(n, 3);
  std::vector<char> x1b_d(n, 0), x2b_d(n, 0);
  std::vector<std::uint64_t> mult_d(n, 0), pfx_d(n, 1);
  std::vector<std::uint64_t> q1_d(n, 1), r1_d(n, 1), q0_d(n, 1), r0_d(n, 1);
  parallel_for(n, [&](std::int64_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    LocalVerdict verdict;
    try {
      const Label& bl = labels.node_label(kRoundBlock, v);
      expect_fields(bl, kNodeBlockFields, verdict);
      idx_d[v] = static_cast<int>(read_or_reject(bl, kFIdx, idx_bits, verdict, 1));
      x1b_d[v] = flag_or_reject(bl, kFX1, verdict) ? 1 : 0;
      x2b_d[v] = flag_or_reject(bl, kFX2, verdict) ? 1 : 0;
      rel_d[v] = static_cast<int>(read_or_reject(bl, kFRel, 2, verdict, 3));
      mult_d[v] = read_or_reject(bl, kFMult, mult_bits, verdict, 0);
      pfx_d[v] = f.reduce(read_or_reject(bl, kFPfx, fbits, verdict, 1));
      const Label& chl = labels.node_label(kRoundChains, v);
      expect_fields(chl, kChainFields, verdict);
      q1_d[v] = f2.reduce(read_or_reject(chl, kFQ1, f2bits, verdict, 1));
      r1_d[v] = f2.reduce(read_or_reject(chl, kFR1, f2bits, verdict, 1));
      q0_d[v] = f2.reduce(read_or_reject(chl, kFQ0, f2bits, verdict, 1));
      r0_d[v] = f2.reduce(read_or_reject(chl, kFR0, f2bits, verdict, 1));
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    node_defect[v] = verdict.reason();
  });
  // Coins, charged to the node that drew them.
  std::uint64_t r_d = 0, rp_d = 0, z_d = 0;
  std::vector<std::uint64_t> rb_d(nb, 0);
  {
    LocalVerdict cv;
    const NodeView view(labels, coins, leftmost);
    r_d = f.reduce(view.read_coin(kRoundBlock, 0, cv));
    rp_d = f.reduce(view.read_coin(kRoundBlock, 1, cv));
    rb_d[0] = f.reduce(view.read_coin(kRoundBlock, 2, cv));
    z_d = f2.reduce(view.read_coin(kRoundChains, 0, cv));
    node_defect[leftmost] = worse_reason(node_defect[leftmost], cv.reason());
  }
  for (int b = 1; b < nb; ++b) {
    const NodeId hb = inst.order[static_cast<std::size_t>(b) * B];
    LocalVerdict cv;
    const NodeView view(labels, coins, hb);
    rb_d[b] = f.reduce(view.read_coin(kRoundBlock, 0, cv));
    node_defect[hb] = worse_reason(node_defect[hb], cv.reason());
  }
  // Edge commitments.
  std::vector<RejectReason> edge_defect(g.m(), RejectReason::none);
  std::vector<char> kind_d(g.m(), 0);
  std::vector<int> dist_d(g.m(), 1);
  std::vector<std::uint64_t> jval_d(g.m(), 0);
  parallel_for(g.m(), [&](std::int64_t ei) {
    const EdgeId e = static_cast<EdgeId>(ei);
    if (pl.is_path_edge[e]) return;
    LocalVerdict verdict;
    try {
      const Label& el = labels.edge_label(kRoundBlock, e);
      kind_d[e] = flag_or_reject(el, kFKind, verdict) ? 1 : 0;
      if (kind_d[e] == 1) {
        expect_fields(el, 3, verdict);
        dist_d[e] = static_cast<int>(read_or_reject(el, kFDist, dist_bits, verdict, 1));
        jval_d[e] = f.reduce(read_or_reject(el, kFJ, fbits, verdict, 0));
      } else {
        expect_fields(el, 1, verdict);
      }
    } catch (...) {
      verdict.reject(RejectReason::malformed_label);
    }
    edge_defect[e] = verdict.reason();
  });

  // Decision-side commitment CSR. The decode is the identity on an untouched
  // wire, so the honest CSR is reused unless an injector ran.
  CommitCsr dec_storage;
  const CommitCsr* dec = &hon;
  if (faults != nullptr) {
    dec_storage = build_commit_csr(g, inst.tail, pl.is_path_edge, B, kind_d, dist_d, jval_d);
    dec = &dec_storage;
  }

  // ---- Edge-level checks hoisted out of the per-node loop (one pass over
  // the edges instead of a neighbor scan per node): decode defects hit both
  // endpoints; inner-block edges check index order and the r_b block
  // identity; outer edges need an in-range distinguishing index.
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (pl.is_path_edge[e]) continue;
    const NodeId t = inst.tail[e];
    const NodeId h = g.other_end(e, t);
    RejectReason bad = edge_defect[e];
    if (kind_d[e] != 1) {
      if (idx_d[t] >= idx_d[h] ||
          rb_d[block_of_pos(pl.pos[t])] != rb_d[block_of_pos(pl.pos[h])]) {
        bad = worse_reason(bad, RejectReason::check_failed);
      }
    } else if (dist_d[e] < 1 || dist_d[e] > B) {
      bad = worse_reason(bad, RejectReason::check_failed);
    }
    if (bad != RejectReason::none) {
      node_defect[t] = worse_reason(node_defect[t], bad);
      node_defect[h] = worse_reason(node_defect[h], bad);
    }
  }

  // ---- Decision: every remaining local check, over the decoded transcript.
  // Per-block boundary products A1(x1_b) and A2(x2_b) at r, recomputed from
  // the decoded per-node bits once per block so the adjacent-block equality
  // below is a pair of loads per boundary node.
  std::vector<std::uint64_t> a1_dec(nb), a2_dec(nb);
  parallel_for(nb, [&](std::int64_t b) {
    const int lo = static_cast<int>(b) * B;
    const int hi = (b == nb - 1) ? n : lo + B;
    std::uint64_t a1 = 1, a2 = 1;
    for (int i = lo; i < hi; ++i) {
      const NodeId v = inst.order[i];
      const int j = idx_d[v];
      if (j < 1 || j > B) continue;
      const std::uint64_t jr = f.reduce(static_cast<std::uint64_t>(j));
      if (x1b_d[v]) a1 = f.mul(a1, f.sub(jr, r_d));
      if (x2b_d[v]) a2 = f.mul(a2, f.sub(jr, r_d));
    }
    a1_dec[b] = a1;
    a2_dec[b] = a2;
  });

  StageResult out;
  out.rounds = kLrSortingRounds;
  // Decision cost per node tracks its commitment-segment lengths (the chain
  // recomputation and E3 merges walk them), and the CSR offset arrays are
  // exactly those prefix sums — so they drive the chunk boundaries, keeping
  // hub-heavy instances off the one-slow-chunk tail.
  std::vector<std::int64_t> decide_cost(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v <= n; ++v) {
    decide_cost[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(v) +
                                               dec->c0_off[static_cast<std::size_t>(v)] +
                                               dec->c1_off[static_cast<std::size_t>(v)];
  }
  out.node_reasons = decide_nodes_reasons(n, decide_cost, [&](NodeId v, LocalVerdict& verdict) {
    verdict.reject(node_defect[v]);
    const int i = pl.pos[v];
    const int j = idx_d[v];
    const NodeId lv = pl.left[v];
    const NodeId rv = pl.right[v];
    // Index chain.
    if (lv == -1) {
      verdict.require(j == 1);
    } else {
      verdict.require((idx_d[lv] == j - 1) || (j == 1 && idx_d[lv] >= B));
    }
    if (rv == -1) {
      verdict.require(j >= B);
    } else {
      verdict.require((idx_d[rv] == j + 1 && j + 1 <= 2 * B - 1) || (idx_d[rv] == 1 && j >= B));
    }
    const bool last_in_block = (rv == -1) || (idx_d[rv] == 1);
    // Consecutive-numbers proof (x1 + 1 == x2) via rel_vb.
    if (j <= B) {
      const bool right_rel_ok = (j == B) || (rv == -1) || (idx_d[rv] > B) || (rel_d[rv] == 2);
      const bool left_rel_ok = (j == 1) || (lv == -1) || (rel_d[lv] == 0);
      switch (rel_d[v]) {
        case 0:  // left of v_b: bits equal
          verdict.require((x1b_d[v] == x2b_d[v]) && left_rel_ok && (j != B));
          break;
        case 1:  // v_b: 0 -> 1
          verdict.require((x1b_d[v] == 0 && x2b_d[v] == 1) && right_rel_ok && left_rel_ok);
          break;
        case 2:  // right of v_b: 1 -> 0
          verdict.require((x1b_d[v] == 1 && x2b_d[v] == 0) && right_rel_ok);
          break;
        default:
          verdict.require(false);
      }
    }
    // Prefix-evaluation chain: P_v follows the phi recurrence from the left
    // path neighbor's label (resetting at block heads).
    const std::uint64_t p_prev = (j == 1 || lv == -1) ? std::uint64_t{1} : pfx_d[lv];
    const std::uint64_t p_expect =
        (j >= 1 && j <= B && x1b_d[v])
            ? f.mul(p_prev, f.sub(f.reduce(static_cast<std::uint64_t>(j)), rp_d))
            : p_prev;
    verdict.require(pfx_d[v] == p_expect);
    // A2 (left-to-right over x2 bits) vs A1 (right-to-left over x1 bits):
    // the adjacent-block boundary equality is the only place a lie can hide
    // (the chains themselves are deterministic given the bits).
    if (last_in_block && rv != -1) {
      const int b = block_of_pos(i);
      const int b2 = block_of_pos(pl.pos[rv]);
      verdict.require(a2_dec[b] == a1_dec[b2]);
    }
    // Verification-scheme chains: recompute this node's Q/R step from the
    // left neighbor's labels and the decoded incident commitments.
    {
      const std::uint64_t pq1 = (j == 1 || lv == -1) ? std::uint64_t{1} : q1_d[lv];
      const std::uint64_t pr1 = (j == 1 || lv == -1) ? std::uint64_t{1} : r1_d[lv];
      const std::uint64_t pq0 = (j == 1 || lv == -1) ? std::uint64_t{1} : q0_d[lv];
      const std::uint64_t pr0 = (j == 1 || lv == -1) ? std::uint64_t{1} : r0_d[lv];
      std::uint64_t l1 = 1, l0 = 1;
      for (const Commit* p = dec->c1_begin(v); p != dec->c1_stop(v); ++p) {
        l1 = f2.mul(l1, f2.sub(enc(p->first, p->second), z_d));
      }
      for (const Commit* p = dec->c0_begin(v); p != dec->c0_stop(v); ++p) {
        l0 = f2.mul(l0, f2.sub(enc(p->first, p->second), z_d));
      }
      std::uint64_t d1 = 1, d0 = 1;
      if (j >= 1 && j <= B) {
        const std::uint64_t el = f2.sub(enc(j, p_prev), z_d);
        if (x1b_d[v]) {
          d1 = f2.pow(el, mult_d[v]);
        } else {
          d0 = f2.pow(el, mult_d[v]);
        }
      }
      verdict.require(q1_d[v] == f2.mul(pq1, l1));
      verdict.require(r1_d[v] == f2.mul(pr1, d1));
      verdict.require(q0_d[v] == f2.mul(pq0, l0));
      verdict.require(r0_d[v] == f2.mul(pr0, d0));
      // Verification-scheme block-end comparisons.
      if (last_in_block) {
        verdict.require(q1_d[v] == r1_d[v] && q0_d[v] == r0_d[v]);
      }
    }
    // E3: no distinguishing index may appear on both sides of a node, nor
    // twice within a side. After dedup both segments are sorted with
    // distinct pairs, so a repeated index shows up as adjacent entries and a
    // shared index falls out of a linear merge of the two segments.
    {
      bool ok = true;
      for (const Commit* p = dec->c0_begin(v); p + 1 < dec->c0_stop(v); ++p) {
        ok = ok && (p[0].first != p[1].first);
      }
      for (const Commit* p = dec->c1_begin(v); p + 1 < dec->c1_stop(v); ++p) {
        ok = ok && (p[0].first != p[1].first);
      }
      const Commit* p0 = dec->c0_begin(v);
      const Commit* p1 = dec->c1_begin(v);
      while (p0 != dec->c0_stop(v) && p1 != dec->c1_stop(v)) {
        if (p0->first == p1->first) {
          ok = false;
          break;
        }
        if (p0->first < p1->first) {
          ++p0;
        } else {
          ++p1;
        }
      }
      verdict.require(ok);
    }
    return true;
  });

  // ---- Accounting (analytic: what the honest prover sent).
  out.node_bits.assign(n, 0);
  out.coin_bits.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    int bits = kEdgeSimFramingBits;
    bits += idx_bits + 1 + 1 + 2 + mult_bits;       // R1 node fields
    bits += 3 * fbits /*r, r', r_b echoes*/ + 3 * fbits /*A1, A2, P*/;  // R3
    bits += f2bits /*z echo*/ + 4 * f2bits /*Q1 R1 Q0 R0*/;             // R5
    out.node_bits[v] = bits;
  }
  for (EdgeId e = 0; e < g.m(); ++e) {
    if (pl.is_path_edge[e]) continue;
    int ebits = 1;  // kind flag
    if (kind[e] == 1) ebits += dist_bits + fbits;  // distinguishing index + j
    out.node_bits[acc_end[e]] += ebits;
  }
  out.coin_bits[leftmost] += 2 * fbits + f2bits;  // r, r', z
  for (int i = 0; i < n; ++i) {
    if (idx[inst.order[i]] == 1) out.coin_bits[inst.order[i]] += fbits;  // r_b
  }
  return out;
}

Outcome run_lr_sorting(const LrSortingInstance& inst, const LrParams& params, Rng& rng,
                       const LrCheatSpec* cheat, FaultInjector* faults) {
  if (cheat != nullptr) {
    // Cheating provers are a soundness-experiment knob, not a task variant;
    // the registry path stays cheat-free and this branch keeps the exact
    // pre-registry execution for the experiments.
    const obs::RunScope run("lr-sorting", inst.graph->n(), inst.graph->m());
    return finalize(lr_sorting_stage(inst, params, rng, cheat, faults));
  }
  return run_protocol(make_instance(inst), {params.c}, rng, faults);
}

Outcome run_lr_sorting_baseline_pls(const LrSortingInstance& inst) {
  const obs::RunScope run("lr-sorting-baseline-pls", inst.graph->n(), inst.graph->m());
  return finalize(lr_trivial_position_stage(inst, nullptr));
}

}  // namespace lrdip
