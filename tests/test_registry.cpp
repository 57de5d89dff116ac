// The protocol registry is the single source of truth for task identity:
// names round-trip, the table is in enum order, the instance adapters honor
// their certificate contracts, and the committed communication-budget files
// correspond one-to-one with registry rows. The last check is what keeps
// bench/budgets/ from silently drifting out of sync when a task is added or
// renamed (the budget file stem IS the registry name).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "graph/io.hpp"
#include "protocols/registry.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(Registry, TableIsInEnumOrder) {
  const auto specs = protocol_registry();
  ASSERT_EQ(static_cast<int>(specs.size()), kNumTasks);
  for (int i = 0; i < kNumTasks; ++i) {
    EXPECT_EQ(static_cast<int>(specs[i].task), i);
    EXPECT_EQ(&protocol_spec(specs[i].task), &specs[i]);
  }
}

TEST(Registry, NamesRoundTrip) {
  for (const ProtocolSpec& spec : protocol_registry()) {
    const auto t = task_from_name(spec.name);
    ASSERT_TRUE(t.has_value()) << spec.name;
    EXPECT_EQ(*t, spec.task);
    EXPECT_STREQ(task_name(spec.task), spec.name);
  }
  EXPECT_FALSE(task_from_name("no-such-task").has_value());
  EXPECT_FALSE(task_from_name("").has_value());
}

TEST(Registry, NameListJoinsEveryTask) {
  const std::string list = task_name_list(",");
  for (const ProtocolSpec& spec : protocol_registry()) {
    EXPECT_NE(list.find(spec.name), std::string::npos) << spec.name;
  }
}

// Every committed per-task budget file names a registry task and every task
// has one: bench/budgets/<name>.json <-> registry row. soundness.json is
// cross-task (E-SOUNDNESS acceptance budgets, all tasks in one sweep) and
// excluded from the bijection.
TEST(Registry, BudgetFilesMatchRegistry) {
  const std::filesystem::path dir(LRDIP_BUDGETS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::set<std::string> stems;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    if (entry.path().stem() == "soundness") continue;
    stems.insert(entry.path().stem().string());
  }
  std::set<std::string> names;
  for (const ProtocolSpec& spec : protocol_registry()) names.insert(spec.name);
  EXPECT_EQ(stems, names);
}

TEST(Registry, InstanceViewTagsMatchTask) {
  Rng rng(11);
  for (const ProtocolSpec& spec : protocol_registry()) {
    const BoundInstance bi = spec.make_yes(64, rng);
    EXPECT_EQ(bi.task(), spec.task);
    EXPECT_EQ(bi.view().task(), spec.task);
    EXPECT_GE(bi.graph().n(), 2);
  }
}

TEST(Registry, MakeNearNoInstancesReject) {
  for (const ProtocolSpec& spec : protocol_registry()) {
    Rng gen_rng(23);
    Rng run_rng(29);
    const BoundInstance bi = spec.make_near_no(96, gen_rng);
    EXPECT_EQ(bi.task(), spec.task);
    const Outcome o = spec.run(bi.view(), {3}, run_rng, nullptr);
    EXPECT_FALSE(o.accepted) << spec.name << " accepted its near-no instance";
  }
}

TEST(Registry, MakeYesInstancesAccept) {
  for (const ProtocolSpec& spec : protocol_registry()) {
    Rng gen_rng(23);
    Rng run_rng(29);
    const BoundInstance bi = spec.make_yes(96, gen_rng);
    const Outcome o = spec.run(bi.view(), {3}, run_rng, nullptr);
    EXPECT_TRUE(o.accepted) << spec.name << ": " << reject_reason_name(o.reject_reason);
    // Every source-paper task is the 5-round protocol; the log-star task's
    // round count tracks its recursion tower (2L+1 — still 5 at n=96, where
    // the tower is two levels deep).
    const int want = spec.task == Task::log_star_planarity ? log_star_rounds(96) : 5;
    EXPECT_EQ(o.rounds, want) << spec.name;
  }
}

TEST(Registry, BindRejectsMissingRequiredSections) {
  GraphFile gf;
  gf.graph = Graph(4);
  gf.graph.add_edge(0, 1);
  gf.graph.add_edge(1, 2);
  gf.graph.add_edge(2, 3);
  // lr-sorting and log-star-planarity insist on order + tails; embedding on
  // rotation.
  EXPECT_THROW(bind_instance(Task::lr_sorting, gf), InvariantError);
  EXPECT_THROW(bind_instance(Task::log_star_planarity, gf), InvariantError);
  EXPECT_THROW(bind_instance(Task::embedding, gf), InvariantError);
  // The certificate-optional tasks bind without any section.
  for (const Task t : {Task::path_outerplanar, Task::outerplanar, Task::planarity,
                       Task::series_parallel, Task::treewidth2}) {
    const BoundInstance bi = bind_instance(t, gf);
    EXPECT_EQ(bi.task(), t);
    EXPECT_EQ(bi.graph().n(), 4);
  }
}

// The requires_certs bitmask is a CONTRACT, not documentation: a task that
// declares sections must refuse a bare graph, and a task that declares none
// must bind it. Registry-driven so an added task cannot dodge the check.
TEST(Registry, CertContractMatchesBindBehavior) {
  GraphFile gf;
  gf.graph = Graph(4);
  gf.graph.add_edge(0, 1);
  gf.graph.add_edge(1, 2);
  gf.graph.add_edge(2, 3);
  for (const ProtocolSpec& spec : protocol_registry()) {
    if (spec.requires_certs != 0) {
      EXPECT_THROW(bind_instance(spec.task, gf), InvariantError) << spec.name;
    } else {
      EXPECT_EQ(bind_instance(spec.task, gf).task(), spec.task) << spec.name;
    }
  }
}

// run_pls holds executable schemes only (real labels, local checks); every
// other task keeps just its textbook width.
TEST(Registry, PlsBaselinesAreExecutableSchemesOnly) {
  for (const ProtocolSpec& spec : protocol_registry()) {
    const bool executable = spec.task == Task::lr_sorting ||
                            spec.task == Task::path_outerplanar ||
                            spec.task == Task::log_star_planarity;
    EXPECT_EQ(spec.run_pls != nullptr, executable) << spec.name;
    EXPECT_GT(spec.pls_bits(1 << 12), 0) << spec.name;
  }
}

TEST(Registry, BaselineDispatchMatchesFreeFunction) {
  Rng rng(31);
  const BoundInstance bi = make_yes_instance(Task::path_outerplanar, 64, rng);
  const Outcome via_registry = run_protocol_baseline_pls(bi.view());
  EXPECT_TRUE(via_registry.accepted);
  EXPECT_EQ(via_registry.rounds, 1);
  const BoundInstance be = make_yes_instance(Task::embedding, 64, rng);
  EXPECT_THROW(run_protocol_baseline_pls(be.view()), InvariantError);
}

// The run_* free functions are thin wrappers over the registry: same seed,
// bit-identical Outcome through either door.
TEST(Registry, WrappersAreBitIdenticalToDispatch) {
  for (const ProtocolSpec& spec : protocol_registry()) {
    Rng gen_rng(37);
    const BoundInstance bi = spec.make_yes(80, gen_rng);
    Rng r1(41), r2(41);
    const Outcome a = spec.run(bi.view(), {3}, r1, nullptr);
    const Outcome b = run_protocol(bi.view(), {3}, r2, nullptr);
    EXPECT_EQ(a.accepted, b.accepted) << spec.name;
    EXPECT_EQ(a.rounds, b.rounds) << spec.name;
    EXPECT_EQ(a.proof_size_bits, b.proof_size_bits) << spec.name;
    EXPECT_EQ(a.total_label_bits, b.total_label_bits) << spec.name;
    EXPECT_EQ(a.max_coin_bits, b.max_coin_bits) << spec.name;
  }
}

}  // namespace
}  // namespace lrdip
