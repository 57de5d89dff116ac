// The protocol registry: one table for the eight verification tasks — the
// source paper's seven plus the successor paper's log-star protocol.
//
// Theorems 1.2–1.7 plus LR-sorting (Lemma 4.1/4.2) used to exist only as
// seven free functions with per-task instance structs, and every consumer —
// the CLI, the bench sweeps, the fault harness, the task matrix — kept its
// own string→function dispatch and its own generator plumbing. This header
// makes the table itself the single source of truth: canonical task names
// (which are also the RunScope task strings and the bench/budgets/ file
// stems), paper pointers, certificate requirements, the run and PLS-baseline
// entry points, and the two instance adapters (from a parsed GraphFile and
// from the fixed-seed yes-instance generators).
//
// Instances stay per-task structs — their certificate payloads genuinely
// differ — but a borrowed, type-erased `Instance` view lets generic code
// (the CLI, `Runtime::run_batch`, sweeps) hold and dispatch any of the eight
// without a copy. The variant's alternative order IS the Task order, so the
// tag is the variant index.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "dip/store.hpp"
#include "graph/io.hpp"
#include "protocols/log_star_planarity.hpp"
#include "protocols/lr_sorting.hpp"
#include "protocols/outerplanarity.hpp"
#include "protocols/path_outerplanarity.hpp"
#include "protocols/planar_embedding.hpp"
#include "protocols/series_parallel_protocol.hpp"
#include "support/rng.hpp"

namespace lrdip {

class FaultInjector;

/// The eight verification tasks, in registry (and budget-file) order.
enum class Task : int {
  lr_sorting = 0,
  path_outerplanar,
  outerplanar,
  embedding,
  planarity,
  series_parallel,
  treewidth2,
  log_star_planarity,
};
inline constexpr int kNumTasks = 8;

/// Borrowed view of one task instance. Alternative order matches Task, so
/// `ref.index()` is the task tag; the pointee must outlive the view.
using InstanceRef =
    std::variant<const LrSortingInstance*, const PathOuterplanarityInstance*,
                 const OuterplanarityInstance*, const PlanarEmbeddingInstance*,
                 const PlanarityInstance*, const SeriesParallelInstance*,
                 const Treewidth2Instance*, const LogStarPlanarityInstance*>;

struct Instance {
  InstanceRef ref;

  Task task() const { return static_cast<Task>(ref.index()); }
  const Graph& graph() const;
};

inline Instance make_instance(const LrSortingInstance& i) { return {InstanceRef{&i}}; }
inline Instance make_instance(const PathOuterplanarityInstance& i) { return {InstanceRef{&i}}; }
inline Instance make_instance(const OuterplanarityInstance& i) { return {InstanceRef{&i}}; }
inline Instance make_instance(const PlanarEmbeddingInstance& i) { return {InstanceRef{&i}}; }
inline Instance make_instance(const PlanarityInstance& i) { return {InstanceRef{&i}}; }
inline Instance make_instance(const SeriesParallelInstance& i) { return {InstanceRef{&i}}; }
inline Instance make_instance(const Treewidth2Instance& i) { return {InstanceRef{&i}}; }
inline Instance make_instance(const LogStarPlanarityInstance& i) { return {InstanceRef{&i}}; }

/// Knobs shared by every task (each per-task param struct is exactly {c}).
struct RunOptions {
  /// Soundness exponent: the PIT fields have p > log^c n elements.
  int c = 3;
};

/// GraphFile certificate sections, as bitmask values for ProtocolSpec.
enum : unsigned {
  kCertOrder = 1u << 0,     // 'order' section (Hamiltonian path)
  kCertTails = 1u << 1,     // 'tails' section (edge orientation)
  kCertRotation = 1u << 2,  // 'rotation' section (embedding)
};

/// Owns whatever an Instance view points into: the per-task struct built by
/// an adapter, plus (for generated instances) the graph and certificates
/// themselves. The view stays valid across moves — storage is heap-allocated
/// and address-stable — and, for bind_instance, as long as the source
/// GraphFile lives.
class BoundInstance {
 public:
  BoundInstance(std::shared_ptr<const void> storage, Instance view)
      : storage_(std::move(storage)), view_(view) {}
  /// Near-no generators that know WHY their instance leaves the class attach
  /// the obstruction as edge ids (e.g. the planted Kuratowski subdivision for
  /// planarity). The protocol never sees it — it is adversary-side knowledge
  /// that strategic provers use to focus their attacks.
  BoundInstance(std::shared_ptr<const void> storage, Instance view,
                std::vector<EdgeId> witness)
      : storage_(std::move(storage)), view_(view), witness_(std::move(witness)) {}

  const Instance& view() const { return view_; }
  Task task() const { return view_.task(); }
  const Graph& graph() const { return view_.graph(); }
  /// Edge ids of the planted obstruction; empty when unknown / not planted.
  const std::vector<EdgeId>& witness() const { return witness_; }

 private:
  std::shared_ptr<const void> storage_;
  Instance view_;
  std::vector<EdgeId> witness_;
};

/// One registry row. `name` is the canonical identifier everywhere: the CLI
/// task token, the RunScope task string in metrics records, and the stem of
/// the task's bench/budgets/<name>.json communication budget.
struct ProtocolSpec {
  Task task;
  const char* name;
  const char* theorem;  // paper pointer ("Thm 1.2", "Lem 4.2", ...)
  /// GraphFile sections bind_instance() insists on / consumes when present.
  unsigned requires_certs;
  unsigned uses_certs;
  /// The 5-round interactive protocol (RunScope + stage + finalize).
  Outcome (*run)(const Instance&, const RunOptions&, Rng&, FaultInjector*);
  /// Executable one-round PLS baseline (real labels, local checks); null
  /// when the repo has none — those rows use the textbook width below.
  Outcome (*run_pls)(const Instance&);
  /// Textbook one-round PLS label width at size n (the E-SEP column).
  int (*pls_bits)(int n);
  /// Instance adapter over a parsed GraphFile (borrows the file; throws
  /// InvariantError when a required section is missing).
  BoundInstance (*bind_file)(const GraphFile&);
  /// Fixed honest yes-instance generator (self-contained: owns the graph and
  /// every certificate). Same families and parameters as the seed-pinned
  /// E-PROOFSIZE sweep, so budgets derive from the registry alone.
  BoundInstance (*make_yes)(int n, Rng&);
  /// Near-yes no-instance generator: the task's minimally perturbed member
  /// outside the class (one flipped LR edge, one order swap + completed K4,
  /// a forged rotation, a planted subdivision, ...), with the best-effort
  /// certificate a cheating prover would ship. Where the family admits it
  /// (lr-sorting), make_near_no(n, Rng(s)) is the perturbation of
  /// make_yes(n, Rng(s)) under the SAME seed — the pairing ReplayProver
  /// exploits. The honest run must reject these (soundness experiments and
  /// test_soundness assert it at pinned seeds).
  BoundInstance (*make_near_no)(int n, Rng&);
};

/// The full table, in Task order.
std::span<const ProtocolSpec, kNumTasks> protocol_registry();
const ProtocolSpec& protocol_spec(Task t);

const char* task_name(Task t);
std::optional<Task> task_from_name(std::string_view name);
/// Every canonical name joined by `sep` (usage strings, error messages).
std::string task_name_list(std::string_view sep = " ");

/// Generic dispatch: protocol_spec(inst.task()).run(...). The run_* free
/// functions are thin wrappers over this (via dip/runtime.hpp's default
/// engine), so string→function chains in consumers reduce to a table lookup.
Outcome run_protocol(const Instance& inst, const RunOptions& opt, Rng& rng,
                     FaultInjector* faults = nullptr);
/// Dispatches the task's PLS baseline; throws when the task has none.
Outcome run_protocol_baseline_pls(const Instance& inst);

/// bind_file / make_yes / make_near_no by tag. bind_instance also throws
/// InvariantError unless the graph is connected with n >= 2.
BoundInstance bind_instance(Task t, const GraphFile& gf);
BoundInstance make_yes_instance(Task t, int n, Rng& rng);
BoundInstance make_near_no_instance(Task t, int n, Rng& rng);

}  // namespace lrdip
