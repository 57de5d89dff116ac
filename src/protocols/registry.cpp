#include "protocols/registry.hpp"

#include <array>

#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/degeneracy.hpp"
#include "obs/metrics.hpp"
#include "protocols/baseline_pls.hpp"
#include "support/bits.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

// ------------------------------------------------------------------ run fns
//
// Each entry point is the task's full execution: RunScope (metrics record
// keyed by the canonical task name) around the stage composition. The run_*
// free functions are wrappers over these via run_protocol, so the bodies here
// are THE protocol executions — bit-for-bit the pre-registry ones.

Outcome run_lr(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const LrSortingInstance& inst = *std::get<const LrSortingInstance*>(i.ref);
  const obs::RunScope run("lr-sorting", inst.graph->n(), inst.graph->m());
  return finalize(lr_sorting_stage(inst, {opt.c}, rng, nullptr, faults));
}

Outcome run_po(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const PathOuterplanarityInstance& inst = *std::get<const PathOuterplanarityInstance*>(i.ref);
  const obs::RunScope run("path-outerplanar", inst.graph->n(), inst.graph->m());
  return finalize(path_outerplanarity_stage(inst, {opt.c}, rng, faults));
}

Outcome run_op(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const OuterplanarityInstance& inst = *std::get<const OuterplanarityInstance*>(i.ref);
  const obs::RunScope run("outerplanar", inst.graph->n(), inst.graph->m());
  return finalize(outerplanarity_stage(inst, {opt.c}, rng, faults));
}

Outcome run_pe(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const PlanarEmbeddingInstance& inst = *std::get<const PlanarEmbeddingInstance*>(i.ref);
  const obs::RunScope run("embedding", inst.graph->n(), inst.graph->m());
  return finalize(planar_embedding_stage(inst, {opt.c}, rng, faults));
}

Outcome run_pl(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const PlanarityInstance& inst = *std::get<const PlanarityInstance*>(i.ref);
  const obs::RunScope run("planarity", inst.graph->n(), inst.graph->m());
  return finalize(planarity_stage(inst, {opt.c}, rng, faults));
}

Outcome run_sp(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const SeriesParallelInstance& inst = *std::get<const SeriesParallelInstance*>(i.ref);
  const obs::RunScope run("series-parallel", inst.graph->n(), inst.graph->m());
  return finalize(series_parallel_stage(inst, {opt.c}, rng, faults));
}

Outcome run_tw(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const Treewidth2Instance& inst = *std::get<const Treewidth2Instance*>(i.ref);
  const obs::RunScope run("treewidth2", inst.graph->n(), inst.graph->m());
  return finalize(treewidth2_stage(inst, {opt.c}, rng, faults));
}

Outcome run_ls(const Instance& i, const RunOptions& opt, Rng& rng, FaultInjector* faults) {
  const LogStarPlanarityInstance& inst = *std::get<const LogStarPlanarityInstance*>(i.ref);
  const obs::RunScope run("log-star-planarity", inst.graph->n(), inst.graph->m());
  return finalize(log_star_planarity_stage(inst, {opt.c}, rng, faults));
}

// ------------------------------------------------------------ PLS baselines
//
// Only executable schemes (real labels, local checks) sit here; a task
// without one has run_pls == nullptr and keeps its textbook width below.

Outcome pls_lr(const Instance& i) {
  return run_lr_sorting_baseline_pls(*std::get<const LrSortingInstance*>(i.ref));
}
Outcome pls_po(const Instance& i) {
  const PathOuterplanarityInstance& inst = *std::get<const PathOuterplanarityInstance*>(i.ref);
  return run_path_outerplanarity_pls(*inst.graph, inst.prover_order);
}
Outcome pls_ls(const Instance& i) {
  // The log-star task shares LR-sorting's family and its one-round scheme.
  return run_lr_sorting_baseline_pls(
      as_lr_sorting(*std::get<const LogStarPlanarityInstance*>(i.ref)));
}

// Textbook one-round PLS label widths (the E-SEP comparison column).
int bits_lr(int n) { return ceil_log2(static_cast<std::uint64_t>(n)); }
int bits_po(int n) { return 3 * ceil_log2(static_cast<std::uint64_t>(n)); }
int bits_op(int n) { return 4 * ceil_log2(static_cast<std::uint64_t>(n)); }
int bits_pe(int n) { return 3 * ceil_log2(static_cast<std::uint64_t>(n)); }
int bits_pl(int n) { return 6 * ceil_log2(static_cast<std::uint64_t>(n)); }
int bits_sp(int n) { return 4 * ceil_log2(static_cast<std::uint64_t>(n)); }
int bits_tw(int n) { return 4 * ceil_log2(static_cast<std::uint64_t>(n)); }
int bits_ls(int n) { return ceil_log2(static_cast<std::uint64_t>(n)); }

// -------------------------------------------------------- instance adapters

/// Wraps a heap-held per-task struct (field `inst`) as a BoundInstance.
template <typename Holder>
BoundInstance hold(std::shared_ptr<Holder> h) {
  const Instance view = make_instance(h->inst);
  return BoundInstance(std::move(h), view);
}

/// Same, but attaching the generator's obstruction witness (edge ids).
template <typename Holder>
BoundInstance hold_with_witness(std::shared_ptr<Holder> h, std::vector<EdgeId> witness) {
  const Instance view = make_instance(h->inst);
  return BoundInstance(std::move(h), view, std::move(witness));
}

BoundInstance bind_lr(const GraphFile& gf) {
  LRDIP_CHECK_MSG(gf.order.has_value(), "lr-sorting needs an 'order' section");
  LRDIP_CHECK_MSG(gf.tails.has_value(), "lr-sorting needs a 'tails' section");
  struct H {
    LrSortingInstance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, *gf.order, *gf.tails, {}}}));
}

BoundInstance bind_po(const GraphFile& gf) {
  struct H {
    PathOuterplanarityInstance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, gf.order}}));
}

BoundInstance bind_op(const GraphFile& gf) {
  struct H {
    OuterplanarityInstance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, std::nullopt}}));
}

BoundInstance bind_pe(const GraphFile& gf) {
  LRDIP_CHECK_MSG(gf.rotation.has_value(), "embedding needs a 'rotation' section");
  struct H {
    PlanarEmbeddingInstance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, &*gf.rotation}}));
}

BoundInstance bind_pl(const GraphFile& gf) {
  struct H {
    PlanarityInstance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, gf.rotation ? &*gf.rotation : nullptr}}));
}

BoundInstance bind_sp(const GraphFile& gf) {
  struct H {
    SeriesParallelInstance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, std::nullopt}}));
}

BoundInstance bind_tw(const GraphFile& gf) {
  struct H {
    Treewidth2Instance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, std::nullopt}}));
}

BoundInstance bind_ls(const GraphFile& gf) {
  LRDIP_CHECK_MSG(gf.order.has_value(), "log-star-planarity needs an 'order' section");
  LRDIP_CHECK_MSG(gf.tails.has_value(), "log-star-planarity needs a 'tails' section");
  struct H {
    LogStarPlanarityInstance inst;
  };
  return hold(std::make_shared<H>(H{{&gf.graph, *gf.order, *gf.tails, {}}}));
}

// Yes-instance generators. Families, parameters, and per-size rng usage match
// the seed-pinned E-PROOFSIZE sweep exactly — the committed communication
// budgets in bench/budgets/ are derived from these.

BoundInstance yes_lr(int n, Rng& rng) {
  struct H {
    LrInstance gen;
    LrSortingInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_lr_yes(n, 1.0, rng);
  h->inst = {&h->gen.graph, h->gen.order, lr_claimed_tails(h->gen),
             accountable_endpoints(h->gen.graph)};
  return hold(std::move(h));
}

BoundInstance yes_po(int n, Rng& rng) {
  struct H {
    PathOuterplanarInstance gen;
    PathOuterplanarityInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_path_outerplanar(n, 1.0, rng);
  h->inst = {&h->gen.graph, h->gen.order};
  return hold(std::move(h));
}

BoundInstance yes_op(int n, Rng& rng) {
  struct H {
    OuterplanarCertInstance gen;
    OuterplanarityInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_outerplanar_with_cert(n, std::max(1, n / 64), rng);
  h->inst = {&h->gen.graph, h->gen.block_cycles};
  return hold(std::move(h));
}

BoundInstance yes_pe(int n, Rng& rng) {
  struct H {
    PlanarInstance gen;
    PlanarEmbeddingInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_planar(n, 0.3, rng);
  h->inst = {&h->gen.graph, &h->gen.rotation};
  return hold(std::move(h));
}

BoundInstance yes_pl(int n, Rng& rng) {
  struct H {
    PlanarInstance gen;
    PlanarityInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_planar(n, 0.3, rng);
  h->inst = {&h->gen.graph, &h->gen.rotation};
  return hold(std::move(h));
}

BoundInstance yes_sp(int n, Rng& rng) {
  struct H {
    SpInstance gen;
    SeriesParallelInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_series_parallel(n, rng);
  h->inst = {&h->gen.graph, h->gen.ears};
  return hold(std::move(h));
}

BoundInstance yes_tw(int n, Rng& rng) {
  struct H {
    Tw2CertInstance gen;
    Treewidth2Instance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_treewidth2_with_cert(n, std::max(1, n / 64), rng);
  h->inst = {&h->gen.graph, h->gen.block_ears};
  return hold(std::move(h));
}

// The log-star task runs on the same LR family (same generators, same
// certificate payload), so its budgets and soundness rows are directly
// comparable with lr-sorting's on identical seed-pinned instances — the
// separation experiment's whole point.

BoundInstance yes_ls(int n, Rng& rng) {
  struct H {
    LrInstance gen;
    LogStarPlanarityInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_lr_yes(n, 1.0, rng);
  h->inst = {&h->gen.graph, h->gen.order, lr_claimed_tails(h->gen),
             accountable_endpoints(h->gen.graph)};
  return hold(std::move(h));
}

// Near-yes no-instance generators: the minimally perturbed member outside
// each class, with the best-effort certificate a cheating prover would ship.
// random_lr_no replays random_lr_yes's draws before flipping, so
// near_no_lr(n, Rng(s)) is yes_lr(n, Rng(s)) with exactly one reversed arc —
// the same-seed pairing the adversary's ReplayProver relies on. The other
// families perturb structurally (completed K4 over a swapped order, one bad
// block, a forged rotation, a planted subdivision, one chord).

BoundInstance near_no_lr(int n, Rng& rng) {
  struct H {
    LrInstance gen;
    LrSortingInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_lr_no(n, 1.0, /*flips=*/1, rng);
  h->inst = {&h->gen.graph, h->gen.order, lr_claimed_tails(h->gen),
             accountable_endpoints(h->gen.graph)};
  return hold(std::move(h));
}

BoundInstance near_no_po(int n, Rng& rng) {
  struct H {
    PathOuterplanarInstance gen;
    PathOuterplanarityInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = path_outerplanar_order_swap_no(n, 1.0, rng);
  h->inst = {&h->gen.graph, h->gen.order};
  return hold(std::move(h));
}

BoundInstance near_no_op(int n, Rng& rng) {
  struct H {
    OuterplanarCertInstance gen;
    OuterplanarityInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = outerplanar_no_instance(n, std::max(1, n / 64), rng);
  h->inst = {&h->gen.graph, h->gen.block_cycles};
  return hold(std::move(h));
}

BoundInstance near_no_pe(int n, Rng& rng) {
  struct H {
    PlanarInstance gen;
    PlanarEmbeddingInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = forged_rotation_no(n, 0.3, rng);
  h->inst = {&h->gen.graph, &h->gen.rotation};
  return hold(std::move(h));
}

BoundInstance near_no_pl(int n, Rng& rng) {
  // Planted K5 / K3,3 subdivision in a planar host, with the minimal
  // Kuratowski witness extracted by the Boyer–Myrvold engine attached for the
  // adversary (strategic provers focus their edits on the obstruction). The
  // adjacency-order rotation ships as the doomed certificate: with
  // certificate == nullptr the stage would run the centralized embedder on a
  // NON-planar graph every execution, which the soundness sweeps cannot
  // afford.
  struct H {
    Graph gen;
    RotationSystem rot;
    PlanarityInstance inst;

    H(Graph g, RotationSystem r) : gen(std::move(g)), rot(std::move(r)) {}
  };
  PlantedWitnessInstance planted = planted_kuratowski_no(n, /*subdiv=*/2, rng);
  RotationSystem rot = RotationSystem::from_adjacency(planted.graph);
  auto h = std::make_shared<H>(std::move(planted.graph), std::move(rot));
  h->inst = {&h->gen, &h->rot};
  return hold_with_witness(std::move(h), std::move(planted.witness));
}

BoundInstance near_no_sp(int n, Rng& rng) {
  // Keep the yes-instance's ear certificate and add only the K4 chord: the
  // prover commits the near-honest (doomed) decomposition — the chord pads
  // out as a dangling ear the verifier rejects — instead of re-running the
  // centralized one-deletion ear search on every execution, which would add
  // several reductions of the whole graph to each of the estimator's runs.
  struct H {
    SpInstance gen;
    SeriesParallelInstance inst;

    explicit H(SpInstance g) : gen(std::move(g)) {}
  };
  auto h = std::make_shared<H>(random_series_parallel(n, rng));
  LRDIP_CHECK(h->gen.k4_chord.has_value());
  const auto [a, c] = *h->gen.k4_chord;
  if (h->gen.graph.find_edge(a, c) == -1) h->gen.graph.add_edge(a, c);
  h->inst = {&h->gen.graph, h->gen.ears};
  return hold(std::move(h));
}

BoundInstance near_no_tw(int n, Rng& rng) {
  struct H {
    Graph gen;
    Treewidth2Instance inst;

    explicit H(Graph g) : gen(std::move(g)) {}
  };
  auto h = std::make_shared<H>(treewidth2_no_instance(n, std::max(1, n / 64), rng));
  h->inst = {&h->gen, std::nullopt};
  return hold(std::move(h));
}

BoundInstance near_no_ls(int n, Rng& rng) {
  // random_lr_no replays random_lr_yes's draws before flipping (same-seed
  // pairing for the ReplayProver), and the flipped arcs ARE the obstruction —
  // lr_flipped_edges reads them off `forward` with no centralized search (the
  // PR 5 witness-caching note), so the greedy prover gets its focus_edges for
  // free on every estimator run.
  struct H {
    LrInstance gen;
    LogStarPlanarityInstance inst;
  };
  auto h = std::make_shared<H>();
  h->gen = random_lr_no(n, 1.0, /*flips=*/1, rng);
  h->inst = {&h->gen.graph, h->gen.order, lr_claimed_tails(h->gen),
             accountable_endpoints(h->gen.graph)};
  std::vector<EdgeId> witness = lr_flipped_edges(h->gen);
  return hold_with_witness(std::move(h), std::move(witness));
}

// ---------------------------------------------------------------- the table

constexpr std::array<ProtocolSpec, kNumTasks> kRegistry{{
    {Task::lr_sorting, "lr-sorting", "Lem 4.2", kCertOrder | kCertTails, kCertOrder | kCertTails,
     run_lr, pls_lr, bits_lr, bind_lr, yes_lr, near_no_lr},
    {Task::path_outerplanar, "path-outerplanar", "Thm 1.2", 0, kCertOrder, run_po, pls_po,
     bits_po, bind_po, yes_po, near_no_po},
    {Task::outerplanar, "outerplanar", "Thm 1.3", 0, 0, run_op, nullptr, bits_op, bind_op,
     yes_op, near_no_op},
    {Task::embedding, "embedding", "Thm 1.4", kCertRotation, kCertRotation, run_pe, nullptr,
     bits_pe, bind_pe, yes_pe, near_no_pe},
    {Task::planarity, "planarity", "Thm 1.5", 0, kCertRotation, run_pl, nullptr, bits_pl,
     bind_pl, yes_pl, near_no_pl},
    {Task::series_parallel, "series-parallel", "Thm 1.6", 0, 0, run_sp, nullptr, bits_sp,
     bind_sp, yes_sp, near_no_sp},
    {Task::treewidth2, "treewidth2", "Thm 1.7", 0, 0, run_tw, nullptr, bits_tw, bind_tw,
     yes_tw, near_no_tw},
    {Task::log_star_planarity, "log-star-planarity", "GP25b Thm 1.1",
     kCertOrder | kCertTails, kCertOrder | kCertTails, run_ls, pls_ls, bits_ls, bind_ls,
     yes_ls, near_no_ls},
}};

}  // namespace

const Graph& Instance::graph() const {
  return std::visit([](const auto* inst) -> const Graph& { return *inst->graph; }, ref);
}

std::span<const ProtocolSpec, kNumTasks> protocol_registry() { return kRegistry; }

const ProtocolSpec& protocol_spec(Task t) {
  const int i = static_cast<int>(t);
  LRDIP_CHECK(i >= 0 && i < kNumTasks);
  const ProtocolSpec& spec = kRegistry[static_cast<std::size_t>(i)];
  LRDIP_CHECK(spec.task == t);  // enum order and table order must agree
  return spec;
}

const char* task_name(Task t) { return protocol_spec(t).name; }

std::optional<Task> task_from_name(std::string_view name) {
  for (const ProtocolSpec& spec : kRegistry) {
    if (name == spec.name) return spec.task;
  }
  return std::nullopt;
}

std::string task_name_list(std::string_view sep) {
  std::string out;
  for (const ProtocolSpec& spec : kRegistry) {
    if (!out.empty()) out += sep;
    out += spec.name;
  }
  return out;
}

Outcome run_protocol(const Instance& inst, const RunOptions& opt, Rng& rng,
                     FaultInjector* faults) {
  return protocol_spec(inst.task()).run(inst, opt, rng, faults);
}

Outcome run_protocol_baseline_pls(const Instance& inst) {
  const ProtocolSpec& spec = protocol_spec(inst.task());
  LRDIP_CHECK_MSG(spec.run_pls != nullptr,
                  std::string(spec.name) + " has no executable PLS baseline");
  return spec.run_pls(inst);
}

BoundInstance bind_instance(Task t, const GraphFile& gf) {
  // Every protocol runs on a connected network of at least two nodes; a file
  // outside that domain is refused here, before any stage sees it.
  LRDIP_CHECK_MSG(gf.graph.n() >= 2, "the protocols need a graph with n >= 2");
  LRDIP_CHECK_MSG(is_connected(gf.graph), "the protocols need a connected graph");
  return protocol_spec(t).bind_file(gf);
}

BoundInstance make_yes_instance(Task t, int n, Rng& rng) {
  return protocol_spec(t).make_yes(n, rng);
}

BoundInstance make_near_no_instance(Task t, int n, Rng& rng) {
  return protocol_spec(t).make_near_no(n, rng);
}

}  // namespace lrdip
