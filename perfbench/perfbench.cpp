// The repo benchmark program.
//
// Three closed-loop workloads, each driven only through the library's public
// entry points: the registry generators (make_yes / make_near_no), the batch
// Runtime (run / run_batch), the adversary provers (TranscriptRecorder,
// ReplayProver, greedy_search, SeededRandomProver), and, in the traced pass,
// the graph engines and fp_simd kernels called on the workload's own inputs.
// One invocation runs one workload for one seed:
//
//   lrdip_perfbench --workload yes-batch --seed 1 --seconds 20 --trace 0
//
// It prints a human-readable report, writes the full report as JSON when
// --report is given, and ends its standard output with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured with tracing and metering off; with
// --trace 1 they are the per-layer ones, from a traced pass plus probes.
// run.py builds this program and calls it; README.md documents the
// workloads, metrics and trace format.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/greedy.hpp"
#include "adversary/prover.hpp"
#include "dip/parallel.hpp"
#include "dip/runtime.hpp"
#include "dip/store.hpp"
#include "field/fp.hpp"
#include "field/fp_simd.hpp"
#include "field/primes.hpp"
#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "graph/boyer_myrvold.hpp"
#include "graph/outerplanar.hpp"
#include "graph/planarity.hpp"
#include "graph/series_parallel.hpp"
#include "obs/metrics.hpp"
#include "protocols/registry.hpp"
#include "support/bits.hpp"
#include "support/cpu.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace lrdip;

/// Set-up is repeated this many times per run and its median reported, so a
/// single slow generation does not move setup_s.
constexpr int kSetupRepeats = 3;
/// op_ms_tail is the op latency with exactly this many samples beyond it.
constexpr int kTailBeyond = 10;
/// Timed phases run at least this many ops, so p50 has kTailBeyond samples
/// beyond the tail percentile's own kTailBeyond.
constexpr std::int64_t kMinOps = 2 * kTailBeyond + 1;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

const char* task_label(int t) { return task_name(static_cast<Task>(t)); }

/// Shortest decimal that round-trips: every digit the measurement has.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------- tallies

/// One honest execution of the first pool rotation, kept for the reference
/// re-execution that defines the expected exact counts.
struct HonestRun {
  Instance inst;
  std::uint64_t seed = 0;
  Outcome got;
};

/// Near-no acceptances are the protocols' soundness error, about 1/p per
/// execution with p the smallest prime above log^3 n (c = 3): at n = 2^7
/// the LR-sorting test accepts a near-no instance about once in 300 honest
/// runs. They are counted, not failed one by one; a (task, prover) cell whose
/// acceptance rate exceeds 1 / kSoundnessCeiling is far outside that error
/// and fails the run.
constexpr std::int64_t kSoundnessCeiling = 8;

/// What the ops checked and counted. Exact counts cover the first full
/// rotation of the pool only, so they do not depend on the run length.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  std::int64_t cheat_accepts = 0;    // first rotation, cheating provers
  std::int64_t near_no_accepts = 0;  // first rotation, honest prover
  /// "<task>/<prover>" -> (accepted, trials) on near-no instances, all ops.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> soundness;
  std::int64_t proof_bits = 0;
  std::int64_t label_bits = 0;
  std::int64_t greedy_kept = 0;
  std::int64_t greedy_proposals = 0;
  std::int64_t captured_labels = 0;
  std::int64_t captures = 0;
  std::vector<HonestRun> honest;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }

  void near_no_verdicts(bool first, Task task, std::string_view prover, std::int64_t accepted,
                        std::int64_t trials) {
    auto& cell = soundness[std::string(task_name(task)) + "/" + std::string(prover)];
    cell.first += accepted;
    cell.second += trials;
    if (first) (prover == "honest" ? near_no_accepts : cheat_accepts) += accepted;
  }

  /// Checks one honest verdict: a yes-instance must accept (completeness is
  /// perfect); a near-no verdict is counted. `first` adds the run to the
  /// exact counts.
  void honest_run(bool first, const Instance& inst, std::uint64_t seed, bool yes,
                  const Outcome& o) {
    ++attempted;
    if (yes && !o.accepted) {
      fail(std::string("honest run on a yes-instance of ") + task_name(inst.task()) +
           " rejected");
    }
    if (!yes) near_no_verdicts(first, inst.task(), "honest", o.accepted ? 1 : 0, 1);
    if (!first) return;
    proof_bits += o.proof_size_bits;
    label_bits += o.total_label_bits;
    honest.push_back({inst, seed, o});
  }
};

// --------------------------------------------------------------- workloads

/// Sizes of one workload.
struct Spec {
  int n = 0;
  int per_task = 0;  // pool instances (no-adversarial: pairs) per task
  int threads = 1;
  // no-adversarial only
  int greedy_iterations = 48;
  int random_provers = 16;
};

/// Items one op sends through the Runtime in one call, for the dip probe:
/// run once through run_batch and once through a sequential run loop.
struct ProbeBatch {
  std::vector<BatchItem> items;
  std::vector<std::unique_ptr<adversary::SeededRandomProver>> provers;
  bool honest = true;  // honest items must accept; attacked ones count as soundness trials
};

class Workload {
 public:
  Workload(Spec spec, std::uint64_t seed) : spec_(spec), seed_(seed) {}
  virtual ~Workload() = default;

  const Spec& spec() const { return spec_; }
  const Runtime& runtime() const { return rt_; }
  /// Ops that visit every pool entry once.
  virtual std::int64_t rotation() const { return spec_.per_task; }

  /// Generates and binds the instance pool (single-threaded), replacing any
  /// previous pool. Each generator call is one gen.* span.
  virtual void setup(Tracer& tr) = 0;
  /// Runs op k and returns the protocol executions it completed.
  virtual std::int64_t op(std::int64_t k, Tracer& tr, Tally& t, bool first) = 0;
  /// Executions an op performs (charged as failed when an op throws).
  virtual std::int64_t op_executions() const = 0;
  virtual ProbeBatch probe_batch(std::int64_t rep) const = 0;

  /// Whether run_batch runs two executions at once here. The obs registry
  /// keeps one active run, so concurrent executions merge their records.
  virtual bool concurrent_executions() const { return false; }

  const std::vector<BoundInstance>& yes(Task t) const { return yes_[static_cast<int>(t)]; }
  const std::vector<BoundInstance>& near_no(Task t) const {
    return near_no_[static_cast<int>(t)];
  }

 protected:
  void generate(Tracer& tr, bool with_near_no) {
    for (auto& v : yes_) v.clear();
    for (auto& v : near_no_) v.clear();
    for (int t = 0; t < kNumTasks; ++t) {
      const Task task = static_cast<Task>(t);
      for (int i = 0; i < spec_.per_task; ++i) {
        const std::uint64_t s = instance_seed(t, i);
        {
          const Span span(tr, "gen.make_yes", t);
          Rng rng(s);
          yes_[t].push_back(make_yes_instance(task, spec_.n, rng));
        }
        if (!with_near_no) continue;
        // Same seed as the yes-instance: the pairing ReplayProver exploits.
        const Span span(tr, "gen.make_near_no", t);
        Rng rng(s);
        near_no_[t].push_back(make_near_no_instance(task, spec_.n, rng));
      }
    }
  }

  std::uint64_t instance_seed(int t, int i) const { return mix(mix(seed_, 1000 + t), i); }
  std::uint64_t coin_seed(std::int64_t k, std::uint64_t j) const {
    return mix(mix(seed_ ^ 0x517cc1b727220a95ULL, static_cast<std::uint64_t>(k)), j);
  }

  Spec spec_;
  std::uint64_t seed_;
  std::vector<BoundInstance> yes_[kNumTasks];
  std::vector<BoundInstance> near_no_[kNumTasks];
  Runtime rt_;
};

/// yes-batch: 64 honest yes-instances per task below the small-instance
/// threshold; one op is one run_batch over a 64-item slice (8 per task).
class YesBatch final : public Workload {
 public:
  static constexpr int kPerTaskInSlice = 8;

  using Workload::Workload;

  void setup(Tracer& tr) override { generate(tr, false); }

  std::int64_t op(std::int64_t k, Tracer& tr, Tally& t, bool first) override {
    const std::vector<BatchItem> items = slice(k);
    std::vector<Outcome> out;
    {
      const Span span(tr, "dip.run_batch");
      out = rt_.run_batch(items);
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      t.honest_run(first, items[i].inst, items[i].seed, true, out[i]);
    }
    return static_cast<std::int64_t>(items.size());
  }

  std::int64_t op_executions() const override { return kNumTasks * kPerTaskInSlice; }

  ProbeBatch probe_batch(std::int64_t rep) const override {
    ProbeBatch b;
    b.items = slice(rep);
    return b;
  }

  bool concurrent_executions() const override { return spec_.threads > 1; }
  std::int64_t rotation() const override { return spec_.per_task / kPerTaskInSlice; }

 private:
  std::vector<BatchItem> slice(std::int64_t k) const {
    const std::int64_t s = k % rotation();
    std::vector<BatchItem> items;
    items.reserve(static_cast<std::size_t>(op_executions()));
    for (int t = 0; t < kNumTasks; ++t) {
      for (int j = 0; j < kPerTaskInSlice; ++j) {
        const auto i = static_cast<std::size_t>(s * kPerTaskInSlice + j);
        items.push_back({yes_[t][i].view(), coin_seed(k, items.size())});
      }
    }
    return items;
  }
};

/// yes-large: 8 honest yes-instances per task at a size where each run
/// parallelizes within the instance; one op is one Runtime::run per task.
class YesLarge final : public Workload {
 public:
  using Workload::Workload;

  void setup(Tracer& tr) override { generate(tr, false); }

  std::int64_t op(std::int64_t k, Tracer& tr, Tally& t, bool first) override {
    for (int task = 0; task < kNumTasks; ++task) {
      const Instance& inst = yes_[task][static_cast<std::size_t>(k % rotation())].view();
      const std::uint64_t seed = coin_seed(k, static_cast<std::uint64_t>(task));
      Rng rng(seed);
      Outcome o;
      {
        const Span span(tr, "protocols.run", task);
        o = rt_.run(inst, rng);
      }
      t.honest_run(first, inst, seed, true, o);
    }
    return kNumTasks;
  }

  std::int64_t op_executions() const override { return kNumTasks; }

  ProbeBatch probe_batch(std::int64_t rep) const override {
    ProbeBatch b;
    for (int task = 0; task < kNumTasks; ++task) {
      b.items.push_back({yes_[task][static_cast<std::size_t>(rep % rotation())].view(),
                         coin_seed(rep, static_cast<std::uint64_t>(task))});
    }
    return b;
  }
};

/// no-adversarial: near-no / yes pairs per task; one op is one coin draw
/// attacked on every task by replay, greedy and seeded-random provers, next
/// to the honest run on the near-no instance.
class NoAdversarial final : public Workload {
 public:
  using Workload::Workload;

  void setup(Tracer& tr) override { generate(tr, true); }

  std::int64_t op(std::int64_t k, Tracer& tr, Tally& t, bool first) override {
    const auto i = static_cast<std::size_t>(k % rotation());
    const std::uint64_t coin = coin_seed(k, 0);
    std::int64_t execs = 0;
    for (int task = 0; task < kNumTasks; ++task) {
      const BoundInstance& no = near_no_[task][i];
      const BoundInstance& yes = yes_[task][i];
      {  // Honest prover on the near-no instance: the reject path.
        Rng rng(coin);
        Outcome o;
        {
          const Span span(tr, "protocols.run", task);
          o = rt_.run(no.view(), rng);
        }
        t.honest_run(first, no.view(), coin, false, o);
        ++execs;
      }
      {  // Replay: capture the same-seed yes transcript, replay it on the no.
        const Span span(tr, "adversary.replay", task);
        adversary::TranscriptRecorder recorder;
        Rng yes_rng(coin);
        Outcome oy;
        {
          const Span run(tr, "protocols.capture", task);
          oy = rt_.run(yes.view(), yes_rng, &recorder);
        }
        t.honest_run(first, yes.view(), coin, true, oy);
        const adversary::CapturedTranscript captured = recorder.take();
        if (first) {
          for (const adversary::LabelSnapshot& s : captured.calls) {
            t.captured_labels += static_cast<std::int64_t>(s.node_labels.size() +
                                                           s.edge_labels.size());
          }
          ++t.captures;
        }
        adversary::ReplayProver prover(&captured, coin);
        Rng no_rng(coin);
        Outcome oc;
        {
          const Span run(tr, "protocols.replayed", task);
          oc = rt_.run(no.view(), no_rng, &prover);
        }
        cheat(t, first, task, "replay", oc.accepted ? 1 : 0, 1, 1);
        execs += 2;
      }
      {  // Greedy local search focused on the planted obstruction.
        const Span span(tr, "adversary.greedy", task);
        adversary::GreedyOptions opt;
        opt.iterations = spec_.greedy_iterations;
        opt.seed = mix(seed_, 77);
        opt.focus_edges = no.witness();
        const adversary::GreedyResult r = adversary::greedy_search(rt_, no.view(), coin, opt);
        // One baseline run plus one run per proposal. The search returns
        // after the baseline when the honest run already accepts (a
        // soundness-error coin); an edit that wins stops it early too, which
        // this count does not see.
        const std::int64_t runs = r.outcome.accepted && r.script.empty() ? 1 : 1 + opt.iterations;
        cheat(t, first, task, "greedy", r.outcome.accepted ? 1 : 0, 1, runs);
        execs += runs;
        if (first) {
          t.greedy_kept += static_cast<std::int64_t>(r.script.size());
          t.greedy_proposals += runs - 1;
        }
      }
      {  // Seeded-random provers, one per coin draw, through run_batch.
        const Span span(tr, "adversary.random", task);
        ProbeBatch b = random_batch(no.view(), coin);
        std::vector<Outcome> out;
        {
          const Span run(tr, "dip.run_batch", task);
          out = rt_.run_batch(b.items);
        }
        std::int64_t accepted = 0;
        for (const Outcome& o : out) accepted += o.accepted ? 1 : 0;
        cheat(t, first, task, "random", accepted, static_cast<std::int64_t>(out.size()),
              static_cast<std::int64_t>(out.size()));
        execs += static_cast<std::int64_t>(out.size());
      }
    }
    return execs;
  }

  std::int64_t op_executions() const override {
    return kNumTasks * (4 + spec_.greedy_iterations + spec_.random_provers);
  }

  ProbeBatch probe_batch(std::int64_t rep) const override {
    ProbeBatch b;
    b.honest = false;
    const std::uint64_t coin = coin_seed(rep, 0);
    for (int task = 0; task < kNumTasks; ++task) {
      ProbeBatch one = random_batch(
          near_no_[task][static_cast<std::size_t>(rep % rotation())].view(), coin);
      b.items.insert(b.items.end(), one.items.begin(), one.items.end());
      for (auto& p : one.provers) b.provers.push_back(std::move(p));
    }
    return b;
  }

 private:
  ProbeBatch random_batch(const Instance& no, std::uint64_t coin) const {
    ProbeBatch b;
    b.honest = false;
    b.items = replicate_item(no, coin, spec_.random_provers);
    for (BatchItem& item : b.items) {
      b.provers.push_back(std::make_unique<adversary::SeededRandomProver>(item.seed ^ seed_));
      item.faults = b.provers.back().get();
    }
    return b;
  }

  static void cheat(Tally& t, bool first, int task, const char* prover, std::int64_t accepted,
                    std::int64_t trials, std::int64_t executions) {
    t.attempted += executions;
    t.near_no_verdicts(first, static_cast<Task>(task), prover, accepted, trials);
  }
};

struct WorkloadDef {
  const char* name;
  Spec full;
  Spec smoke;
};

// Sizes: each set-up is 0.5-1 s of single-threaded generation, and each op
// is short enough that a 20 s timed phase holds about 40 ops or more. Pools
// stay pinned below 4 threads: at 4 threads on a 4-core host the batch
// throughput swings with whatever else the host runs.
constexpr WorkloadDef kWorkloads[] = {
    {"yes-batch", {1 << 10, 64, 2}, {1 << 6, 16, 2}},
    {"yes-large", {1 << 13, 8, 2}, {1 << 9, 2, 2}},
    {"no-adversarial", {1 << 7, 32, 1, 48, 16}, {1 << 7, 2, 1, 4, 2}},
};

std::unique_ptr<Workload> make_workload(std::string_view name, const Spec& spec,
                                        std::uint64_t seed) {
  if (name == "yes-batch") return std::make_unique<YesBatch>(spec, seed);
  if (name == "yes-large") return std::make_unique<YesLarge>(spec, seed);
  return std::make_unique<NoAdversarial>(spec, seed);
}

// ------------------------------------------------------------- timed phase

struct Phase {
  std::vector<double> op_ms;
  std::int64_t executions = 0;
  double wall_s = 0;
  double cpu_s = 0;

  double exec_per_s() const { return wall_s > 0 ? executions / wall_s : 0.0; }
};

/// Closed loop: op k + 1 starts when op k returns. Runs for `seconds`, and
/// past that until `min_ops` ops completed. Ops of the first rotation feed
/// the exact counts when `first_rotation` is set.
Phase run_phase(Workload& w, Tally& t, Tracer& tr, double seconds, std::int64_t min_ops,
                bool first_rotation,
                std::vector<obs::RunMetrics>* metered = nullptr) {
  Phase ph;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  for (std::int64_t k = 0;; ++k) {
    const std::int64_t start = now_ns();
    if (k >= min_ops && (start - t0) / 1e9 >= seconds) break;
    tr.set_op(k);
    try {
      const Span span(tr, "op");
      ph.executions += w.op(k, tr, t, first_rotation && k < w.rotation());
    } catch (const std::exception& e) {
      // Every execution of an op that throws counts as failed.
      t.attempted += w.op_executions();
      t.failed += w.op_executions() - 1;
      t.fail(std::string("op threw: ") + e.what());
    }
    ph.op_ms.push_back((now_ns() - start) / 1e6);
    if (metered != nullptr) {
      for (obs::RunMetrics& r : obs::MetricsRegistry::instance().take_completed()) {
        metered->push_back(std::move(r));
      }
    }
  }
  tr.set_op(-1);
  ph.wall_s = (now_ns() - t0) / 1e9;
  ph.cpu_s = cpu_seconds() - cpu0;
  return ph;
}

/// Re-executes every honest run of the first rotation one at a time on one
/// thread through the registry's own dispatch (no Runtime, no batch). The
/// determinism contract makes each Outcome bit-identical to the timed one;
/// the re-executed bits are the expected exact counts.
void reference_check(const Spec& spec, Tally& t, std::int64_t& expect_proof,
                     std::int64_t& expect_label) {
  set_parallel_threads(1);
  for (const HonestRun& h : t.honest) {
    Rng rng(h.seed);
    const Outcome r = run_protocol(h.inst, RunOptions{}, rng);
    ++t.attempted;
    expect_proof += r.proof_size_bits;
    expect_label += r.total_label_bits;
    if (r.accepted != h.got.accepted || r.proof_size_bits != h.got.proof_size_bits ||
        r.total_label_bits != h.got.total_label_bits ||
        r.rejected_nodes != h.got.rejected_nodes) {
      t.fail(std::string("reference re-execution of ") + task_name(h.inst.task()) +
             " differs from the timed outcome");
    }
  }
  set_parallel_threads(spec.threads);
}

/// A fixed 4 MiB random pointer chase owned by the benchmark (no library
/// code): host drift shows here next to the other numbers.
double host_calib_ms() {
  constexpr std::size_t kWords = (4u << 20) / sizeof(std::uint32_t);
  std::vector<std::uint32_t> next(kWords);
  for (std::size_t i = 0; i < kWords; ++i) next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kWords - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[mix(12345, i) % i]);
  }
  std::vector<double> reps;
  std::uint32_t at = 0;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < kWords * 2; ++s) at = next[at];
    reps.push_back((now_ns() - t0) / 1e6);
  }
  if (at == 0xffffffffu) std::puts("");  // keeps the chase observable
  return median(reps);
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count or provenance, for the human report
};
using Metrics = std::vector<Metric>;

void add(Metrics& ms, std::string name, double value, std::string unit, std::string note = "") {
  ms.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

std::string samples(std::size_t n, const char* what = "samples") {
  return std::to_string(n) + " " + what;
}

void add_ms(Metrics& ms, const std::string& name, const std::vector<double>& v,
            const char* what = "calls") {
  add(ms, name, median(v), "ms", samples(v.size(), what));
}

// ----------------------------------------------------------------- probes

/// Runs `fn` on every input in its own span; returns the timings in ms.
template <typename T, typename F>
std::vector<double> time_each(Tracer& tr, const char* span, const std::vector<T>& inputs, F fn) {
  std::vector<double> ms;
  for (const T& in : inputs) {
    const std::int64_t t0 = now_ns();
    {
      const Span s(tr, span);
      fn(in);
    }
    ms.push_back((now_ns() - t0) / 1e6);
  }
  return ms;
}

std::vector<const Graph*> graphs_of(const std::vector<BoundInstance>& pool) {
  std::vector<const Graph*> out;
  for (const BoundInstance& b : pool) out.push_back(&b.graph());
  return out;
}

/// The five graph engines, each on the workload's own graphs: the yes graphs
/// of the tasks whose provers use the engine, and the planarity graphs for
/// the Kuratowski extraction (near-no ones where the workload has them).
void graph_probes(const Workload& w, Tracer& tr, Tally& t, Metrics& rep) {
  std::vector<const Graph*> planar = graphs_of(w.yes(Task::embedding));
  for (const Graph* g : graphs_of(w.yes(Task::planarity))) planar.push_back(g);
  add_ms(rep, "graph.bm_embed_ms", time_each(tr, "graph.bm_embed", planar, [&](const Graph* g) {
           ++t.attempted;
           if (!planar_embedding(*g)) t.fail("planar_embedding found no embedding of a yes graph");
         }));

  // Near-no planarity graphs must yield a witness; on the yes-workloads the
  // planarity graphs are planar and the extraction stops at the verdict.
  const bool near_no = !w.near_no(Task::planarity).empty();
  add_ms(rep, "graph.kuratowski_ms",
         time_each(tr, "graph.kuratowski",
                   graphs_of(near_no ? w.near_no(Task::planarity) : w.yes(Task::planarity)),
                   [&](const Graph* g) {
                     ++t.attempted;
                     if (kuratowski_witness(*g).empty() == near_no) {
                       t.fail("kuratowski_witness disagrees with the planarity of its graph");
                     }
                   }));

  std::vector<const Graph*> blocky = graphs_of(w.yes(Task::outerplanar));
  for (const Graph* g : graphs_of(w.yes(Task::treewidth2))) blocky.push_back(g);
  add_ms(rep, "graph.block_cut_ms", time_each(tr, "graph.block_cut", blocky, [&](const Graph* g) {
           ++t.attempted;
           if (block_cut_tree(*g, 0).decomp.num_components() < 1) t.fail("block_cut_tree empty");
         }));

  add_ms(rep, "graph.ear_decomp_ms",
         time_each(tr, "graph.ear_decomp", graphs_of(w.yes(Task::series_parallel)),
                   [&](const Graph* g) {
                     ++t.attempted;
                     if (!nested_ear_decomposition(*g)) {
                       t.fail("nested_ear_decomposition rejected a series-parallel graph");
                     }
                   }));

  // One sample per outerplanar graph: the Hamiltonian cycles of all its
  // non-bridge blocks. The block subgraphs are built outside the span.
  std::vector<std::vector<Subgraph>> blocks;
  for (const Graph* g : graphs_of(w.yes(Task::outerplanar))) {
    const BlockCutTree bct = block_cut_tree(*g, 0);
    blocks.emplace_back();
    for (int b = 0; b < bct.decomp.num_components(); ++b) {
      if (bct.decomp.component_nodes[b].size() <= 2) continue;
      blocks.back().push_back(
          make_subgraph(*g, bct.decomp.component_nodes[b], bct.decomp.component_edges[b]));
    }
  }
  add_ms(rep, "graph.outerplanar_ham_ms",
         time_each(tr, "graph.outerplanar_ham", blocks, [&](const std::vector<Subgraph>& bs) {
           for (const Subgraph& s : bs) {
             ++t.attempted;
             if (!outerplanar_hamiltonian_cycle(s.graph)) {
               t.fail("outerplanar_hamiltonian_cycle failed on an outerplanar block");
             }
           }
         }), "graphs");
}

/// The fp_simd kernels on spans sized like the workload's multisets: one
/// lane per LR-sorting block (n / ceil(log2 n) of them), at LR-sorting's
/// first field p > max(log^3 n, 2B + 2).
void field_probes(const Spec& spec, Tracer& tr, Tally& t, Metrics& rep) {
  const int n = spec.n;
  const int B = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
  const int nb = std::max(1, n / B);
  const auto pc = static_cast<std::uint64_t>(std::pow(std::log2(static_cast<double>(n)), 3));
  const Fp f(cached_prime_above(std::max<std::uint64_t>(pc, 2 * B + 2)));
  Rng rng(99);
  std::vector<std::uint64_t> span(static_cast<std::size_t>(nb));
  for (std::uint64_t& v : span) v = rng.next_u64();
  const std::uint64_t x = f.sample(rng);
  std::vector<std::uint64_t> blk(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) blk[static_cast<std::size_t>(b)] = static_cast<std::uint64_t>(b);
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(nb) * (B + 1));

  ++t.attempted;
  if (fp_simd::phi_product(f, span, x) != f.multiset_poly(span, x)) {
    t.fail("phi_product differs from the scalar multiset polynomial");
  }

  // Each sample is a batch of kernel calls lasting about 20 ms.
  const int reps = std::max(1, static_cast<int>(2'000'000 / nb));
  std::uint64_t sink = 0;
  std::vector<double> prod_ns, pref_ns;
  for (int s = 0; s < 7; ++s) {
    std::int64_t t0 = now_ns();
    {
      const Span sp(tr, "field.phi_product");
      for (int r = 0; r < reps; ++r) sink += fp_simd::phi_product(f, span, x + (r & 1));
    }
    prod_ns.push_back(static_cast<double>(now_ns() - t0) / (static_cast<double>(reps) * nb));
    t0 = now_ns();
    {
      const Span sp(tr, "field.phi_prefix");
      for (int r = 0; r < reps / B + 1; ++r) {
        fp_simd::phi_prefix_rows(f, blk, B, x + (r & 1), rows);
        sink += rows[static_cast<std::size_t>(B)];
      }
    }
    pref_ns.push_back(static_cast<double>(now_ns() - t0) /
                      (static_cast<double>(reps / B + 1) * nb));
  }
  if (sink == 42) std::puts("");  // keeps the kernels observable
  add(rep, "field.phi_product_ns_per_lane", median(prod_ns), "ns",
      samples(prod_ns.size(), "batches") + ", span " + std::to_string(nb) + ", p " +
          std::to_string(f.modulus()));
  add(rep, "field.phi_prefix_ns_per_lane", median(pref_ns), "ns",
      samples(pref_ns.size(), "batches") + ", B " + std::to_string(B));
  // Computed, not measured: one 8-byte element read per product lane; one
  // 8-byte position read and B 8-byte row writes per prefix lane.
  add(rep, "field.phi_product_bytes_per_lane", 8, "B", "computed");
  add(rep, "field.phi_prefix_bytes_per_lane", 8.0 * (B + 1), "B", "computed");
  add(rep, "field.simd_lanes", fp_simd::active_lanes(), "count", fp_simd::active_level_name());
}

/// LabelStore construction plus one assign per node, on the pool's graphs.
void label_store_probe(const Workload& w, Tracer& tr, Metrics& rep) {
  std::vector<const Graph*> gs;
  for (int t = 0; t < kNumTasks; ++t) {
    for (const Graph* g : graphs_of(w.yes(static_cast<Task>(t)))) gs.push_back(g);
  }
  std::vector<double> ns;
  for (int pass = 0; pass < 3; ++pass) {
    for (const Graph* g : gs) {
      const std::int64_t t0 = now_ns();
      {
        const Span s(tr, "dip.label_store");
        LabelStore store(*g, 1);
        for (NodeId v = 0; v < g->n(); ++v) {
          Label l;
          l.put(static_cast<std::uint64_t>(v) & 0xffff, 16);
          store.assign_node(0, v, l);
        }
      }
      ns.push_back(static_cast<double>(now_ns() - t0) / std::max(1, g->n()));
    }
  }
  add(rep, "dip.label_store_ns_per_label", median(ns), "ns", samples(ns.size(), "stores"));
}

/// Stage time per metered execution and wall-weighted pool utilization,
/// from the records obs keeps (no new hooks).
void obs_metrics(const std::vector<obs::RunMetrics>& runs, Metrics& rep, const char* source) {
  static constexpr const char* kStages[] = {
      "lr_sorting_stage",       "trivial_position_protocol", "log_star_planarity_stage",
      "path_outerplanarity_stage", "nesting_stage",           "outerplanarity_stage",
      "planar_embedding_stage", "series_parallel_stage",     "treewidth2_stage",
      "verify_spanning_tree",
  };
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> stage;  // wall_ns, calls
  double busy_weighted = 0, wall = 0;
  for (const obs::RunMetrics& r : runs) {
    for (const auto& [name, st] : r.stages) {
      stage[name].first += st.wall_ns;
      stage[name].second += st.calls;
    }
    if (r.parallel.regions > 0) {
      busy_weighted += r.parallel.utilization() * static_cast<double>(r.parallel.wall_ns);
      wall += static_cast<double>(r.parallel.wall_ns);
    }
  }
  const double execs = std::max<std::size_t>(1, runs.size());
  for (const char* s : kStages) {
    const auto it = stage.find(s);
    const double ms = it == stage.end() ? 0.0 : it->second.first / 1e6 / execs;
    const std::int64_t calls = it == stage.end() ? 0 : it->second.second;
    add(rep, std::string("protocols.stage_ms.") + s, ms, "ms",
        std::to_string(calls) + " calls in " + samples(runs.size(), "executions") + ", " +
            source);
  }
  for (const auto& [name, st] : stage) {
    if (std::find_if(std::begin(kStages), std::end(kStages),
                     [&](const char* s) { return name == s; }) == std::end(kStages)) {
      std::fprintf(stderr, "perfbench: stage '%s' is not in the metric list\n", name.c_str());
    }
  }
  add(rep, "dip.parallel_util", wall > 0 ? busy_weighted / wall : 0.0, "ratio",
      std::string("wall-weighted over ") + samples(runs.size(), "executions") + ", " +
          source);
}

/// dip: the same op items once through run_batch and once through a
/// sequential Runtime::run loop, three times. Where run_batch runs
/// executions concurrently, a third, metered loop supplies the obs records
/// (returned); elsewhere the traced half's records are used.
std::vector<obs::RunMetrics> dip_probes(const Workload& w, Tracer& tr, Tally& t, Metrics& rep) {
  const Runtime& rt = w.runtime();
  const auto check = [&](const ProbeBatch& b, const BatchItem& item, const Outcome& o) {
    if (b.honest) {
      t.honest_run(false, item.inst, item.seed, true, o);
    } else {
      ++t.attempted;
      t.near_no_verdicts(false, item.inst.task(), "random", o.accepted ? 1 : 0, 1);
    }
  };
  std::vector<double> batch_ms, loop_ms;
  std::vector<obs::RunMetrics> metered;
  std::size_t probe_items = 0;
  for (std::int64_t r = 0; r < 3; ++r) {
    ProbeBatch b = w.probe_batch(r);
    probe_items = b.items.size();
    std::int64_t t0 = now_ns();
    std::vector<Outcome> out;
    {
      const Span s(tr, "dip.batch_probe");
      out = rt.run_batch(b.items);
    }
    batch_ms.push_back((now_ns() - t0) / 1e6);
    for (std::size_t i = 0; i < out.size(); ++i) check(b, b.items[i], out[i]);

    b = w.probe_batch(r);  // fresh provers: one prover object serves one run
    t0 = now_ns();
    {
      const Span s(tr, "dip.loop_probe");
      for (const BatchItem& item : b.items) {
        Rng rng(item.seed);
        const Span run(tr, b.honest ? "protocols.run" : "protocols.attacked",
                       static_cast<int>(item.inst.task()));
        check(b, item, rt.run(item.inst, rng, item.faults));
      }
    }
    loop_ms.push_back((now_ns() - t0) / 1e6);

    if (!w.concurrent_executions()) continue;
    b = w.probe_batch(r);
    obs::MetricsRegistry::instance().set_enabled(true);
    for (const BatchItem& item : b.items) {
      Rng rng(item.seed);
      check(b, item, rt.run(item.inst, rng, item.faults));
    }
    obs::MetricsRegistry::instance().set_enabled(false);
    for (obs::RunMetrics& m : obs::MetricsRegistry::instance().take_completed()) {
      metered.push_back(std::move(m));
    }
  }
  const std::string items = "probes of " + std::to_string(probe_items) + " items";
  add_ms(rep, "dip.batch_ms", batch_ms, items.c_str());
  add_ms(rep, "dip.loop_ms", loop_ms, "probes");
  add(rep, "dip.batch_speedup", median(loop_ms) / std::max(1e-9, median(batch_ms)), "ratio",
      "loop / batch medians");
  return metered;
}

// ------------------------------------------------------------------ phases

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string report;
  std::string trace_out;
};

/// What one run measured, for the report.
struct RunResult {
  Metrics metrics;  // end-to-end (trace 0) or per-layer (trace 1)
  Tally tally;
  std::int64_t expect_proof = 0;
  std::int64_t expect_label = 0;
  std::int64_t ops = 0;
  double calib_ms = 0;
  double setup_rss_mib = 0;
  std::map<std::string, double> self_ms_per_op;
};

/// The traced run: an untraced half, then a traced half with the obs
/// MetricsRegistry on, then the probes; returns the untraced half, which
/// holds the first rotation.
Phase traced_run(Workload& w, const Args& args, Tracer& tr, RunResult& res) {
  Tally& t = res.tally;
  Metrics& rep = res.metrics;
  const Phase untraced = run_phase(w, t, tr, args.seconds / 2, w.rotation(), true);
  tr.set_enabled(true);
  std::vector<obs::RunMetrics> metered;
  obs::MetricsRegistry::instance().reset();
  obs::MetricsRegistry::instance().set_enabled(true);
  const Phase traced = run_phase(w, t, tr, args.seconds / 2, 3, false, &metered);
  obs::MetricsRegistry::instance().set_enabled(false);
  for (const auto& [layer, ms] : tr.op_self_ms_by_layer()) {
    res.self_ms_per_op[layer] = ms / static_cast<double>(traced.op_ms.size());
  }

  // gen: per-call generator time over every traced set-up.
  for (const char* span : {"gen.make_yes", "gen.make_near_no"}) {
    for (int task = 0; task < kNumTasks; ++task) {
      add_ms(rep, std::string(span) + "_ms." + task_label(task), tr.durations_ms(span, task));
    }
  }
  graph_probes(w, tr, t, rep);
  field_probes(w.spec(), tr, t, rep);
  const std::vector<obs::RunMetrics> loop_metered = dip_probes(w, tr, t, rep);
  label_store_probe(w, tr, rep);
  if (w.concurrent_executions()) {
    obs_metrics(loop_metered, rep, "metered loop probe");
  } else {
    obs_metrics(metered, rep, "traced half");
  }
  for (int task = 0; task < kNumTasks; ++task) {
    add_ms(rep, std::string("protocols.exec_ms.") + task_label(task),
           tr.durations_ms("protocols.run", task), "executions");
  }

  // adversary: time per op in each strategy (0 where no adversary runs),
  // and the first rotation's exact counts.
  add_ms(rep, "adversary.replay_ms", tr.per_op_ms("adversary.replay"), "ops");
  add_ms(rep, "adversary.greedy_ms", tr.per_op_ms("adversary.greedy"), "ops");
  add_ms(rep, "adversary.random_ms", tr.per_op_ms("adversary.random"), "ops");
  add(rep, "adversary.greedy_kept_ratio",
      t.greedy_proposals > 0 ? static_cast<double>(t.greedy_kept) / t.greedy_proposals : 0.0,
      "ratio",
      std::to_string(t.greedy_kept) + " kept of " + std::to_string(t.greedy_proposals) +
          " proposals");
  add(rep, "adversary.capture_labels",
      t.captures > 0 ? static_cast<double>(t.captured_labels) / t.captures : 0.0, "count",
      samples(static_cast<std::size_t>(t.captures), "captures"));

  add(rep, "obs.trace_overhead", traced.exec_per_s() / std::max(1e-9, untraced.exec_per_s()),
      "ratio",
      "traced " + num(traced.exec_per_s()) + " / untraced " + num(untraced.exec_per_s()) +
          " exec/s");
  add(rep, "host.calib_ms", res.calib_ms, "ms", "median of 5");
  return untraced;
}

Metrics end_to_end(const Phase& ph, const std::vector<double>& setup_s, const Tally& t,
                   std::int64_t expect_proof, std::int64_t expect_label) {
  std::vector<double> op_ms = ph.op_ms;
  std::sort(op_ms.begin(), op_ms.end());
  const auto nops = static_cast<std::int64_t>(op_ms.size());
  const auto tail = static_cast<std::size_t>(std::max<std::int64_t>(0, nops - kTailBeyond - 1));
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%.1f, %d of %lld ops beyond",
                100.0 * static_cast<double>(nops - kTailBeyond) / std::max<std::int64_t>(1, nops),
                kTailBeyond, static_cast<long long>(nops));
  Metrics e2e;
  add(e2e, "setup_s", median(setup_s), "s", "median of " + samples(setup_s.size(), "set-ups"));
  add(e2e, "exec_per_s", ph.exec_per_s(), "1/s",
      std::to_string(ph.executions) + " executions in " + num(ph.wall_s) + " s");
  add(e2e, "op_ms_p50", median(op_ms), "ms", samples(op_ms.size(), "ops"));
  add(e2e, "op_ms_tail", op_ms.empty() ? 0.0 : op_ms[tail], "ms", tail_note);
  add(e2e, "cpu_ms_per_exec", ph.cpu_s * 1e3 / std::max<std::int64_t>(1, ph.executions), "ms",
      "process CPU over the timed phase");
  add(e2e, "peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM at exit");
  add(e2e, "proof_bits_total", static_cast<double>(t.proof_bits), "bits",
      samples(t.honest.size(), "honest executions") + ", expected " +
          std::to_string(expect_proof));
  add(e2e, "label_bits_total", static_cast<double>(t.label_bits), "bits",
      "expected " + std::to_string(expect_label));
  return e2e;
}

// ------------------------------------------------------------------- output

std::string contract_line(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.tally.attempted << ", \"failed\": " << r.tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << r.metrics[i].name
       << "\": {\"value\": " << num(r.metrics[i].value) << ", \"unit\": \""
       << r.metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

const char* env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v ? v : "";
}

void print_human(const Args& args, const Spec& spec, const RunResult& r) {
  const Tally& t = r.tally;
  std::printf("perfbench %s seed=%llu n=%d threads=%d nproc=%u simd=%s (%d lanes) trace=%d%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), spec.n,
              spec.threads, std::thread::hardware_concurrency(), fp_simd::active_level_name(),
              fp_simd::active_lanes(), args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("  env LRDIP_THREADS=%s LRDIP_SIMD=%s  host.calib_ms=%s\n",
              env_or_empty("LRDIP_THREADS"), env_or_empty("LRDIP_SIMD"), num(r.calib_ms).c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-44s %14s %-6s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("  %-44s %14s %-6s %lld of %lld\n", "fail_ratio",
              num(static_cast<double>(t.failed) / std::max<std::int64_t>(1, t.attempted)).c_str(),
              "ratio", static_cast<long long>(t.failed), static_cast<long long>(t.attempted));
  std::printf("  %-44s %14lld %-6s first rotation; honest near-no accepts %lld\n",
              "cheat_accepts", static_cast<long long>(t.cheat_accepts), "count",
              static_cast<long long>(t.near_no_accepts));
  std::printf("  exact counts: proof_bits_total %lld (expected %lld), label_bits_total %lld "
              "(expected %lld)\n",
              static_cast<long long>(t.proof_bits), static_cast<long long>(r.expect_proof),
              static_cast<long long>(t.label_bits), static_cast<long long>(r.expect_label));
  if (!r.self_ms_per_op.empty()) {
    std::printf("  self time per traced op, by layer:");
    for (const auto& [layer, ms] : r.self_ms_per_op) {
      std::printf(" %s=%s ms", layer.c_str(), num(ms).c_str());
    }
    std::printf("\n");
  }
  for (const std::string& f : t.failures) std::printf("  FAILURE: %s\n", f.c_str());
}

void write_report(const Args& args, const Spec& spec, const RunResult& r) {
  const Tally& t = r.tally;
  std::ofstream os(args.report);
  os << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
     << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"smoke\": " << (args.smoke ? 1 : 0)
     << ",\n \"context\": {\"n\": " << spec.n << ", \"threads\": " << spec.threads
     << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"simd_level\": \""
     << fp_simd::active_level_name() << "\", \"simd_lanes\": " << fp_simd::active_lanes()
     << ", \"simd_host_level\": \"" << simd_level_name(simd_host_level())
     << "\", \"env_LRDIP_THREADS\": \"" << json_escape(env_or_empty("LRDIP_THREADS"))
     << "\", \"env_LRDIP_SIMD\": \"" << json_escape(env_or_empty("LRDIP_SIMD"))
     << "\", \"seconds\": " << num(args.seconds) << ", \"ops\": " << r.ops
     << ", \"host.calib_ms\": " << num(r.calib_ms)
     << ", \"peak_rss_mib_after_setup\": " << num(r.setup_rss_mib) << "},\n \"correct\": "
     << (t.failed == 0 ? "true" : "false") << ", \"attempted\": " << t.attempted
     << ", \"failed\": " << t.failed << ", \"fail_ratio\": "
     << num(static_cast<double>(t.failed) / std::max<std::int64_t>(1, t.attempted))
     << ",\n \"exact\": {\"cheat_accepts\": " << t.cheat_accepts
     << ", \"near_no_accepts\": " << t.near_no_accepts
     << ", \"proof_bits_total\": " << t.proof_bits << ", \"label_bits_total\": " << t.label_bits
     << "}, \"expected\": {\"proof_bits_total\": " << r.expect_proof
     << ", \"label_bits_total\": " << r.expect_label << "},\n \"failures\": [";
  for (std::size_t i = 0; i < t.failures.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(t.failures[i]) << "\"";
  }
  os << "],\n \"soundness\": {\"max_rate\": " << num(1.0 / kSoundnessCeiling) << ", \"cells\": {";
  bool first_cell = true;
  for (const auto& [cell, c] : t.soundness) {
    os << (first_cell ? "" : ", ") << "\"" << cell << "\": [" << c.first << ", " << c.second << "]";
    first_cell = false;
  }
  os << "}},\n \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? "," : "") << "\n  \"" << m.name << "\": {\"value\": " << num(m.value)
       << ", \"unit\": \"" << m.unit << "\", \"note\": \"" << json_escape(m.note) << "\"}";
  }
  os << "},\n \"self_ms_per_op\": {";
  bool first = true;
  for (const auto& [layer, ms] : r.self_ms_per_op) {
    os << (first ? "" : ", ") << "\"" << layer << "\": " << num(ms);
    first = false;
  }
  os << "}}\n";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: lrdip_perfbench --workload yes-batch|yes-large|"
               "no-adversarial --seed N --seconds S --trace 0|1 [--smoke] [--report FILE] "
               "[--trace-out FILE]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--report") {
      a.report = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (args.workload == d.name) def = &d;
  }
  if (def == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());
  const Spec spec = args.smoke ? def->smoke : def->full;

  // The workload pins its own thread count over LRDIP_THREADS; LRDIP_SIMD
  // takes effect and is recorded.
  set_parallel_threads(spec.threads);
  std::unique_ptr<Workload> w = make_workload(def->name, spec, args.seed);
  Tracer tr;
  tr.set_enabled(args.trace);
  RunResult res;
  Tally& tally = res.tally;

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    {
      const Span s(tr, "setup");
      w->setup(tr);
    }
    setup_s.push_back((now_ns() - t0) / 1e9);
  }
  res.setup_rss_mib = peak_rss_mib();
  res.calib_ms = host_calib_ms();
  tr.set_enabled(false);

  // One untimed op lets lazy state (prime cache, slab pool, thread pool)
  // settle before timing; its verdicts are still checked.
  w->op(0, tr, tally, false);

  const Phase main_phase =
      args.trace ? traced_run(*w, args, tr, res)
                 : run_phase(*w, tally, tr, args.seconds, std::max(kMinOps, w->rotation()), true);
  res.ops = static_cast<std::int64_t>(main_phase.op_ms.size());
  if (!args.trace && res.ops < kMinOps) tally.fail("too few ops for op_ms_tail");
  if (res.ops < w->rotation()) tally.fail("the timed phase ended before one full rotation");

  reference_check(spec, tally, res.expect_proof, res.expect_label);
  if (tally.proof_bits != res.expect_proof || tally.label_bits != res.expect_label) {
    tally.fail("first-rotation bit totals differ from the reference re-execution");
  }
  for (const auto& [cell, c] : tally.soundness) {
    if (c.first * kSoundnessCeiling > c.second) {
      tally.fail("near-no acceptance rate of " + cell + " is " + std::to_string(c.first) + " of " +
                 std::to_string(c.second) + ", above the soundness ceiling");
    }
  }
  if (!args.trace) {
    res.metrics = end_to_end(main_phase, setup_s, tally, res.expect_proof, res.expect_label);
  }

  print_human(args, spec, res);
  if (args.trace && !args.trace_out.empty() && !tr.write_chrome_json(args.trace_out, task_label)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
  }
  if (!args.report.empty()) write_report(args, spec, res);
  std::printf("%s\n", contract_line(res).c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
