// lrdip: command-line front end to the protocol suite.
//
//   lrdip <task> <graph-file> [--seed S] [--c C] [--trials T]
//   lrdip batch <manifest> [--seed S] [--c C] [--threads T]
//   lrdip gen <family> <n> <out-file> [--seed S]
//   lrdip faults <task> <graph-file> [--rate R] [--fault-seed F]
//         [--models m1,m2,...] [--seed S] [--c C] [--trials T]
//   lrdip soundness --task <name> [--strategy S] [--n N] [--trials T]
//         [--seed S] [--c C] [--json]
//   lrdip planarity <graph-file> [--json]
//   lrdip run <task> <graph-file> [...]
//   lrdip list-tasks
//
// `planarity` is the centralized engine, not the interactive protocol: it
// prints the Boyer–Myrvold verdict with embedding stats on planar inputs and
// the extracted Kuratowski witness (K5 / K3,3 subdivision, as edge ids) on
// non-planar ones, disconnected graphs included. Because the token shadows
// the planarity *task*, `lrdip run <task> <graph>` invokes any task's
// interactive protocol unambiguously.
//
// The task tokens, their certificate requirements, and the dispatch itself
// all come from the protocol registry (protocols/registry.hpp) — the CLI adds
// no task knowledge of its own. Batch manifests hold one "<task> <graph-file>"
// pair per line (blank lines and '#' comments skipped); relative graph paths
// resolve against the manifest's own directory, so a manifest travels with
// its instance files. Generator families remain a CLI-local concern: they
// produce files, not protocol executions.
//
// Graph files use the src/graph/io.hpp format; the optional sections carry
// the prover certificates (order / rotation / tails) where available.
//
// Every rejection or error prints the effective seed and a one-line repro
// command, so a flaky run in a larger harness can be replayed exactly.
//
// Exit codes are a contract (scripts and the ctest smokes branch on them):
//   0  the verification accepted (or the subcommand completed);
//   1  the verification rejected (an answer, not an error);
//   2  usage or malformed input: bad flags, unknown tasks, graph files that
//      do not parse (a repeated edge included), graphs the protocols do not
//      run on (disconnected, n < 2), manifests or certificates the task
//      cannot use, `gen` sizes the family cannot build;
//   3  internal error — anything that is the tool's fault, not the input's.
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/estimate.hpp"
#include "dip/faults.hpp"
#include "dip/parallel.hpp"
#include "dip/runtime.hpp"
#include "gen/generators.hpp"
#include "graph/boyer_myrvold.hpp"
#include "graph/io.hpp"
#include "graph/kuratowski.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "protocols/registry.hpp"
#include "support/rng.hpp"

namespace {

using namespace lrdip;

/// The caller got the invocation wrong (exit 2) — as opposed to an
/// InvariantError, which past the parse/bind boundary means the tool itself
/// broke (exit 3).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage() {
  std::cerr << "usage:\n"
               "  lrdip <task> <graph-file> [--seed S] [--c C] [--trials T] [--metrics json|csv]\n"
               "  lrdip batch <manifest> [--seed S] [--c C] [--threads T] [--metrics json|csv]\n"
               "  lrdip gen <family> <n> <out-file> [--seed S]\n"
               "  lrdip faults <task> <graph-file> [--rate R] [--fault-seed F]\n"
               "        [--models m1,m2,...] [--seed S] [--c C] [--trials T] [--metrics json|csv]\n"
               "  lrdip soundness --task <name> [--strategy replay|greedy|seeded-random]\n"
               "        [--n N] [--trials T (default 24)] [--seed S] [--c C] [--json]\n"
               "  lrdip planarity <graph-file> [--json]\n"
               "  lrdip run <task> <graph-file> [options as above]\n"
               "  lrdip list-tasks\n"
               "tasks:    "
            << task_name_list(" ")
            << "\n"
               "families: path-outerplanar outerplanar planar series-parallel\n"
               "          treewidth2 lr-yes lr-no\n"
               "models:   bit_flip width_corrupt field_drop field_append label_drop\n"
               "          label_swap stale_replay coin_flip (default: all)\n";
  return 2;
}

struct Options {
  std::uint64_t seed = 1;
  int c = 3;
  int trials = 1;
  std::string metrics;  // "", "json" or "csv"
  // batch subcommand only:
  int threads = 0;  // 0 = engine default
  // faults subcommand only:
  double rate = 0.25;
  std::uint64_t fault_seed = 1;
  std::uint32_t models = kAllFaultModels;
  std::string models_arg = "all";
  // soundness subcommand only:
  std::string task;
  std::string strategy = "greedy";
  int n = 256;
  bool json = false;
};

std::uint32_t parse_models(const std::string& spec) {
  if (spec == "all") return kAllFaultModels;
  std::uint32_t mask = 0;
  std::stringstream ss(spec);
  std::string name;
  while (std::getline(ss, name, ',')) {
    const auto m = fault_model_from_name(name);
    if (!m.has_value()) throw UsageError("unknown fault model: " + name);
    mask |= fault_bit(*m);
  }
  if (mask == 0) throw UsageError("empty fault model list");
  return mask;
}

Options parse_options(int argc, char** argv, int from) {
  Options opt;
  for (int i = from; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--c") {
      opt.c = std::stoi(next());
    } else if (a == "--trials") {
      opt.trials = std::stoi(next());
    } else if (a == "--threads") {
      opt.threads = std::stoi(next());
    } else if (a == "--rate") {
      opt.rate = std::stod(next());
    } else if (a == "--fault-seed") {
      opt.fault_seed = std::stoull(next());
    } else if (a == "--models") {
      opt.models_arg = next();
      opt.models = parse_models(opt.models_arg);
    } else if (a == "--metrics") {
      opt.metrics = next();
      if (opt.metrics != "json" && opt.metrics != "csv") {
        throw UsageError("--metrics expects json or csv");
      }
    } else if (a == "--task") {
      opt.task = next();
    } else if (a == "--strategy") {
      opt.strategy = next();
    } else if (a == "--n") {
      opt.n = std::stoi(next());
    } else if (a == "--json") {
      opt.json = true;
    } else {
      throw UsageError("unknown option: " + a);
    }
  }
  return opt;
}

// RAII bracket for --metrics: turns the registry on for the protocol runs and
// emits every completed run when the section closes (before the human-readable
// summary lines, which go to stdout as well, would be easy to confuse with the
// payload — so the structured block always comes first on its own).
struct MeteredSection {
  explicit MeteredSection(const Options& opt) : format(opt.metrics) {
    if (format.empty()) return;
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().set_enabled(true);
  }
  void flush(std::ostream& os) {
    if (format.empty() || flushed) return;
    flushed = true;
    obs::MetricsRegistry::instance().set_enabled(false);
    obs::emit_runs(os, obs::MetricsRegistry::instance().take_completed(), format);
  }
  ~MeteredSection() {
    if (!format.empty() && !flushed) obs::MetricsRegistry::instance().set_enabled(false);
  }
  std::string format;
  bool flushed = false;
};

void report(std::ostream& os, const std::string& task, const Outcome& o) {
  os << task << ": " << (o.accepted ? "ACCEPTED" : "REJECTED") << "  rounds=" << o.rounds
     << "  proof_bits=" << o.proof_size_bits << "  total_bits=" << o.total_label_bits
     << "  coin_bits=" << o.max_coin_bits;
  if (!o.accepted) {
    os << "  reject_reason=" << reject_reason_name(o.reject_reason)
       << "  rejected_nodes=" << o.rejected_nodes;
  }
  os << "\n";
}

std::string repro_line(const std::string& sub, const std::string& task, const std::string& path,
                       const Options& opt) {
  std::ostringstream cmd;
  cmd << "lrdip ";
  if (!sub.empty()) cmd << sub << " ";
  cmd << task << " " << path << " --seed " << opt.seed << " --c " << opt.c;
  if (opt.trials != 1) cmd << " --trials " << opt.trials;
  if (sub == "faults") {
    cmd << " --rate " << opt.rate << " --fault-seed " << opt.fault_seed << " --models "
        << opt.models_arg;
  }
  return cmd.str();
}

Task task_or_throw(const std::string& name) {
  const std::optional<Task> t = task_from_name(name);
  if (!t) throw UsageError("unknown task: " + name + " (tasks: " + task_name_list() + ")");
  return *t;
}

/// bind_instance flags missing/unusable certificate sections and graphs
/// outside the protocols' domain with InvariantError; at the CLI boundary
/// that is the *input's* fault.
BoundInstance bind_or_usage(Task t, const GraphFile& gf) {
  try {
    return bind_instance(t, gf);
  } catch (const InvariantError& e) {
    throw UsageError(e.what());
  }
}

int run_task(const std::string& task, const std::string& path, const Options& opt) {
  const Task t = task_or_throw(task);
  const GraphFile gf = read_graph_file(path);
  const BoundInstance bi = bind_or_usage(t, gf);
  Rng rng(opt.seed);
  MeteredSection metered(opt);
  const Runtime rt(Runtime::Config{{opt.c}});
  int accepted = 0;
  Outcome last;
  for (int tr = 0; tr < opt.trials; ++tr) {
    last = rt.run(bi.view(), rng);
    accepted += last.accepted ? 1 : 0;
  }
  metered.flush(std::cout);
  // With --metrics, stdout carries only the structured payload; the human
  // summary moves to stderr so pipelines can parse stdout directly.
  std::ostream& os = opt.metrics.empty() ? std::cout : std::cerr;
  report(os, task, last);
  if (opt.trials > 1) {
    os << "acceptance over " << opt.trials << " independent runs: " << accepted << "/"
       << opt.trials << "\n";
  }
  if (!last.accepted) {
    os << "seed=" << opt.seed << "\n";
    os << "repro: " << repro_line("", task, path, opt) << "\n";
  }
  return last.accepted ? 0 : 1;
}

int run_batch(const std::string& manifest_path, const Options& opt) {
  std::ifstream in(manifest_path);
  if (!in.good()) throw UsageError("cannot open manifest: " + manifest_path);
  const std::filesystem::path base = std::filesystem::path(manifest_path).parent_path();

  // Parsed per-line work. The GraphFiles must be address-stable (the bound
  // views borrow them), hence one heap allocation per entry.
  std::vector<std::string> names;
  std::vector<std::unique_ptr<GraphFile>> files;
  std::vector<BoundInstance> bound;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string task_name, graph_path;
    if (!(ls >> task_name) || task_name[0] == '#') continue;
    if (!(ls >> graph_path)) {
      throw UsageError("manifest line needs '<task> <graph-file>': " + line);
    }
    const Task t = task_or_throw(task_name);
    std::filesystem::path p(graph_path);
    if (p.is_relative()) p = base / p;
    files.push_back(std::make_unique<GraphFile>(read_graph_file(p.string())));
    bound.push_back(bind_or_usage(t, *files.back()));
    names.push_back(task_name);
  }
  std::vector<BatchItem> items;
  items.reserve(bound.size());
  for (std::size_t i = 0; i < bound.size(); ++i) {
    items.push_back({bound[i].view(), opt.seed + static_cast<std::uint64_t>(i)});
  }

  if (opt.threads > 0) set_parallel_threads(opt.threads);
  MeteredSection metered(opt);
  const Runtime rt(Runtime::Config{{opt.c}});
  const std::vector<Outcome> outcomes = rt.run_batch(items);
  metered.flush(std::cout);
  if (opt.threads > 0) set_parallel_threads(0);

  std::ostream& os = opt.metrics.empty() ? std::cout : std::cerr;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    os << "[" << i << "] n=" << bound[i].graph().n() << " ";
    report(os, names[i], outcomes[i]);
    accepted += outcomes[i].accepted ? 1 : 0;
  }
  os << "batch: accepted " << accepted << "/" << outcomes.size() << "  (seed base " << opt.seed
     << ", c=" << opt.c << ")\n";
  return accepted == outcomes.size() ? 0 : 1;
}

int run_faults(const std::string& task, const std::string& path, const Options& opt) {
  const Task t = task_or_throw(task);
  const GraphFile gf = read_graph_file(path);
  const BoundInstance bi = bind_or_usage(t, gf);
  Rng rng(opt.seed);
  MeteredSection metered(opt);
  const Runtime rt(Runtime::Config{{opt.c}});
  int rejected = 0;
  Outcome last;
  std::array<std::int64_t, kNumFaultModels> counts{};
  std::int64_t total_faults = 0;
  for (int tr = 0; tr < opt.trials; ++tr) {
    FaultInjector inj({opt.fault_seed + static_cast<std::uint64_t>(tr), opt.rate, opt.models});
    last = rt.run(bi.view(), rng, &inj);
    rejected += last.accepted ? 0 : 1;
    for (int m = 0; m < kNumFaultModels; ++m) {
      counts[m] += inj.count(static_cast<FaultModel>(m));
    }
    total_faults += inj.total_faults();
  }
  metered.flush(std::cout);
  std::ostream& os = opt.metrics.empty() ? std::cout : std::cerr;
  os << "faults " << task << ": rate=" << opt.rate << " models=" << opt.models_arg
     << " detected=" << rejected << "/" << opt.trials << " injected=" << total_faults << "\n";
  os << "per-model injections:";
  for (int m = 0; m < kNumFaultModels; ++m) {
    if (counts[m] > 0) {
      os << " " << fault_model_name(static_cast<FaultModel>(m)) << "=" << counts[m];
    }
  }
  os << "\n";
  report(os, task, last);
  os << "seed=" << opt.seed << " fault-seed=" << opt.fault_seed << "\n";
  os << "repro: " << repro_line("faults", task, path, opt) << "\n";
  // Exit 0 iff no crash escaped (rejection is the *expected* outcome here);
  // an exception would already have unwound to main's handler.
  return 0;
}

int run_soundness(const Options& opt) {
  if (opt.task.empty()) throw UsageError("soundness requires --task <name>");
  const Task t = task_or_throw(opt.task);
  const auto strat = adversary::strategy_from_name(opt.strategy);
  if (!strat.has_value()) {
    throw UsageError("unknown strategy: " + opt.strategy +
                     " (strategies: replay greedy seeded-random)");
  }
  const Runtime rt(Runtime::Config{{opt.c}});
  adversary::SoundnessEstimator::Options eopt;
  // --trials defaults to 1 for the verification subcommands; a 1-draw
  // soundness estimate is meaningless, so the default here is 24.
  eopt.trials = opt.trials > 1 ? opt.trials : 24;
  eopt.seed = opt.seed;
  const adversary::SoundnessEstimator est(rt, eopt);
  const adversary::SoundnessPoint p = est.estimate(t, opt.n, *strat);
  if (opt.json) {
    std::cout << adversary::point_to_json(p, eopt.alpha) << "\n";
  } else {
    std::cout << "soundness " << opt.task << " (" << adversary::strategy_name(*strat)
              << ", n=" << opt.n << "): accepted " << p.acceptance.accepted << "/"
              << p.acceptance.trials << "  rate=" << p.acceptance.rate()
              << "  upper(95%)=" << p.acceptance.upper(eopt.alpha)
              << "  honest=" << p.honest.accepted << "/" << p.honest.trials << "\n";
  }
  // The honest run accepting its near-no instance is the only failure mode;
  // a nonzero cheating acceptance is a *measurement*, not an error.
  return p.honest.accepted == 0 ? 0 : 1;
}

int run_gen(const std::string& family, int n, const std::string& out, const Options& opt) {
  Rng rng(opt.seed);
  GraphFile gf;
  // The generators CHECK their own size floors, some of them seed-dependent
  // (lr-no needs an arc to flip); at this boundary n is the caller's input.
  try {
    if (family == "path-outerplanar") {
      auto inst = random_path_outerplanar(n, 1.0, rng);
      gf.graph = std::move(inst.graph);
      gf.order = std::move(inst.order);
    } else if (family == "outerplanar") {
      gf.graph = random_outerplanar(n, std::max(1, n / 64), rng);
    } else if (family == "planar") {
      auto inst = random_planar(n, 0.4, rng);
      gf.graph = std::move(inst.graph);
      gf.rotation = std::move(inst.rotation);
    } else if (family == "series-parallel") {
      gf.graph = random_series_parallel(n, rng).graph;
    } else if (family == "treewidth2") {
      gf.graph = random_treewidth2(n, std::max(1, n / 64), rng);
    } else if (family == "lr-yes" || family == "lr-no") {
      const LrInstance inst =
          family == "lr-yes" ? random_lr_yes(n, 1.0, rng) : random_lr_no(n, 1.0, 1, rng);
      gf.graph = inst.graph;
      gf.order = inst.order;
      gf.tails = lr_claimed_tails(inst);
    } else {
      return usage();
    }
  } catch (const InvariantError& e) {
    throw UsageError(e.what());
  }
  write_graph_file(out, gf);
  std::cout << "wrote " << family << " instance: n=" << gf.graph.n() << " m=" << gf.graph.m()
            << " -> " << out << "\n";
  return 0;
}

/// Centralized planarity check: exit 0 = planar (an answer), 1 = non-planar
/// (also an answer — mirrors ACCEPT/REJECT for the protocol subcommands),
/// 2 = usage / malformed input, 3 = internal error.
int run_planarity_check(const std::string& path, const Options& opt) {
  const GraphFile gf = read_graph_file(path);
  const Graph& g = gf.graph;

  const PlanarityResult res = boyer_myrvold(g, BmOutput::kEmbeddingOrWitness);
  const bool planar = res.planar;
  const int faces = planar ? count_faces(g, *res.embedding) : 0;
  const std::vector<EdgeId>& witness = res.witness;
  std::string kind;
  if (!planar) kind = classify_kuratowski(g, witness) == KuratowskiKind::kK5 ? "K5" : "K3,3";

  if (opt.json) {
    std::cout << "{\"planar\": " << (planar ? "true" : "false") << ", \"n\": " << g.n()
              << ", \"m\": " << g.m();
    if (planar) {
      std::cout << ", \"faces\": " << faces;
    } else {
      std::cout << ", \"witness_kind\": \"" << kind << "\", \"witness_edges\": [";
      for (std::size_t i = 0; i < witness.size(); ++i) {
        std::cout << (i ? ", " : "") << witness[i];
      }
      std::cout << "]";
    }
    std::cout << "}\n";
  }
  std::ostream& os = opt.json ? std::cerr : std::cout;
  os << "planarity: " << (planar ? "PLANAR" : "NON-PLANAR") << "  n=" << g.n() << "  m=" << g.m();
  if (planar) {
    os << "  faces=" << faces;
  } else {
    os << "  witness=" << kind << " subdivision (" << witness.size() << " edges):";
    for (const EdgeId e : witness) {
      const auto [u, v] = g.endpoints(e);
      os << " e" << e << "(" << u << "-" << v << ")";
    }
  }
  os << "\n";
  return planar ? 0 : 1;
}

int list_tasks() {
  for (const ProtocolSpec& spec : protocol_registry()) {
    std::cout << spec.name << "  (" << spec.theorem << ")";
    if (spec.requires_certs != 0) {
      std::cout << "  requires:";
      if (spec.requires_certs & kCertOrder) std::cout << " order";
      if (spec.requires_certs & kCertTails) std::cout << " tails";
      if (spec.requires_certs & kCertRotation) std::cout << " rotation";
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "list-tasks") == 0) return list_tasks();
    if (argc < 3) return usage();
    const std::string cmd = argv[1];
    if (cmd == "gen") {
      if (argc < 5) return usage();
      return run_gen(argv[2], std::stoi(argv[3]), argv[4], parse_options(argc, argv, 5));
    }
    if (cmd == "faults") {
      if (argc < 4) return usage();
      return run_faults(argv[2], argv[3], parse_options(argc, argv, 4));
    }
    if (cmd == "batch") {
      return run_batch(argv[2], parse_options(argc, argv, 3));
    }
    if (cmd == "soundness") {
      return run_soundness(parse_options(argc, argv, 2));
    }
    if (cmd == "planarity") {
      return run_planarity_check(argv[2], parse_options(argc, argv, 3));
    }
    if (cmd == "run") {
      if (argc < 4) return usage();
      return run_task(argv[2], argv[3], parse_options(argc, argv, 4));
    }
    return run_task(cmd, argv[2], parse_options(argc, argv, 3));
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    std::cerr << "repro:";
    for (int i = 0; i < argc; ++i) std::cerr << " " << argv[i];
    std::cerr << "\n";
    // The exit-code contract from the header comment: the caller's fault is
    // 2 (usage, unparsable numbers, graph files that do not parse), the
    // tool's fault is 3.
    if (dynamic_cast<const UsageError*>(&ex) != nullptr ||
        dynamic_cast<const GraphParseError*>(&ex) != nullptr ||
        dynamic_cast<const std::invalid_argument*>(&ex) != nullptr ||
        dynamic_cast<const std::out_of_range*>(&ex) != nullptr) {
      return 2;
    }
    return 3;
  }
}
