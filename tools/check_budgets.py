#!/usr/bin/env python3
"""CI gate on communication and soundness budgets.

Dispatches on the results file's "experiment" field:

* E-PROOFSIZE (bench_proof_size --json): compares against the committed
  per-task budget files in bench/budgets/ (every *.json but soundness.json).
  A task regresses when a measured proof size at some log_n exceeds the
  budgeted value by more than the budget's tolerance (relative; --tolerance
  overrides every file). Every budgeted task must appear in the results; a
  missing one fails the run. Points the budget does not cover (e.g. CI sweeps
  a smaller n range than the committed budgets, or vice versa) are skipped —
  only matching (task, log_n) pairs gate.

* E-SOUNDNESS (bench_soundness --json): compares against the single
  cross-task file bench/budgets/soundness.json. A cell regresses when a
  cheating prover's acceptance COUNT at some (task, strategy, log_n) exceeds
  the budgeted max_accepted, or when an honest run accepted a near-no
  instance. Cells whose trial count differs from the budget's are skipped (a
  different LRDIP_BENCH_TRIALS is a different experiment, not a regression).
  Every budget cell at a (log_n, trials) pair the results sweep must be
  present; a missing one fails the run.

Exit status: 0 all within budget, 1 regression(s), 2 usage/schema error.

Usage:
    tools/check_budgets.py results.json bench/budgets [--tolerance 0.02]

The sweeps are seed-pinned and the library ships its own deterministic Rng,
so the committed budgets are exact: the default tolerance in the proof-size
files is 0.0, soundness budgets are integer counts, and any drift means the
prover's labels (or the adversary's luck) actually changed. To refresh after
an intentional change:

    build/bench/bench_proof_size --write-budgets bench/budgets
    build/bench/bench_soundness  --write-budgets bench/budgets
"""
import argparse
import json
import pathlib
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_soundness(results, budgets_dir):
    """Gate bench_soundness acceptance counts against budgets/soundness.json."""
    budget_path = budgets_dir / "soundness.json"
    if not budget_path.exists():
        print(f"error: no soundness budget {budget_path} "
              f"(run bench_soundness --write-budgets to create it)", file=sys.stderr)
        sys.exit(2)
    budget = load_json(budget_path)
    budget_cells = {(p["task"], p["strategy"], int(p["log_n"]), int(p["trials"])):
                    int(p["max_accepted"]) for p in budget.get("points", [])}
    failures = []
    checked = 0
    measured = set()
    for p in results.get("points", []):
        key = (p["task"], p["strategy"], int(p["log_n"]), int(p["trials"]))
        if key not in budget_cells:
            continue
        measured.add(key)
        checked += 1
        accepted = int(p["accepted"])
        allowed = budget_cells[key]
        mark = "ok"
        if accepted > allowed:
            mark = "REGRESSION"
            failures.append(f"{key[0]}/{key[1]} @ n=2^{key[2]}: accepted {accepted}/{key[3]} "
                            f"> budget {allowed}")
        if int(p.get("honest_accepted", 0)) != 0:
            mark = "REGRESSION"
            failures.append(f"{key[0]} @ n=2^{key[2]}: honest run ACCEPTED a near-no instance")
        print(f"  {key[0]:>18} {key[1]:>13} n=2^{key[2]:<2} "
              f"accepted={accepted:>2}/{key[3]} budget={allowed:>2}  {mark}")
    swept = {(int(p["log_n"]), int(p["trials"])) for p in results.get("points", [])}
    for key in sorted(budget_cells):
        if (key[2], key[3]) in swept and key not in measured:
            failures.append(f"{key[0]}/{key[1]} @ n=2^{key[2]} (trials {key[3]}): "
                            f"budgeted cell missing from the results")

    if checked == 0:
        print("error: no (task, strategy, log_n, trials) cell matched the soundness budget",
              file=sys.stderr)
        sys.exit(2)
    if failures:
        print(f"\n{len(failures)} soundness budget violation(s):")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print(f"\nall {checked} checked soundness cells within budget")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", help="bench_proof_size or bench_soundness --json output")
    ap.add_argument("budgets_dir", help="directory of budget files")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="relative tolerance overriding every budget file (E-PROOFSIZE only)")
    args = ap.parse_args()

    results = load_json(args.results)
    if results.get("experiment") == "E-SOUNDNESS":
        check_soundness(results, pathlib.Path(args.budgets_dir))
        return
    tasks = results.get("tasks")
    if not isinstance(tasks, dict) or not tasks:
        print(f"error: {args.results} has no tasks", file=sys.stderr)
        sys.exit(2)

    budgets_dir = pathlib.Path(args.budgets_dir)
    failures = []
    checked = 0
    for budget_path in sorted(budgets_dir.glob("*.json")):
        if budget_path.stem != "soundness" and budget_path.stem not in tasks:
            failures.append(f"{budget_path.stem}: budgeted task missing from the results")
    for task, data in sorted(tasks.items()):
        budget_path = budgets_dir / f"{task}.json"
        if not budget_path.exists():
            failures.append(f"{task}: no budget file {budget_path} "
                            f"(run bench_proof_size --write-budgets to create it)")
            continue
        budget = load_json(budget_path)
        tol = args.tolerance if args.tolerance is not None else float(budget.get("tolerance", 0.0))
        budget_points = {int(p["log_n"]): int(p["proof_size_bits"])
                         for p in budget.get("points", [])}
        for p in data.get("points", []):
            log_n = int(p["log_n"])
            if log_n not in budget_points:
                continue
            measured = int(p["proof_size_bits"])
            allowed = budget_points[log_n] * (1.0 + tol)
            checked += 1
            mark = "ok"
            if measured > allowed:
                mark = "REGRESSION"
                failures.append(
                    f"{task} @ n=2^{log_n}: measured {measured} bits > "
                    f"budget {budget_points[log_n]} (+{tol:.1%} tolerance = {allowed:.1f})")
            print(f"  {task:>18} n=2^{log_n:<2} measured={measured:>6} "
                  f"budget={budget_points[log_n]:>6} tol={tol:.1%}  {mark}")
            if not p.get("accepted", True):
                failures.append(f"{task} @ n=2^{log_n}: honest run REJECTED")

    # E-LOGSTAR separation rider: whenever one sweep holds both curves, the
    # successor-paper task must sit strictly below lr-sorting at n >= 2^12
    # (same seed-pinned family, so the gap is the protocols' doing).
    lr_bits = {int(p["log_n"]): int(p["proof_size_bits"])
               for p in tasks.get("lr-sorting", {}).get("points", [])}
    for p in tasks.get("log-star-planarity", {}).get("points", []):
        log_n = int(p["log_n"])
        if log_n < 12 or log_n not in lr_bits:
            continue
        ls, lr = int(p["proof_size_bits"]), lr_bits[log_n]
        mark = "ok" if ls < lr else "SEPARATION-VIOLATED"
        print(f"  separation n=2^{log_n:<2} log-star={ls:>6} < lr-sorting={lr:>6}  {mark}")
        if ls >= lr:
            failures.append(f"log-star-planarity @ n=2^{log_n}: {ls} bits >= "
                            f"lr-sorting's {lr} — the E-LOGSTAR separation failed")

    if checked == 0:
        print("error: no (task, log_n) point matched any budget", file=sys.stderr)
        sys.exit(2)
    if failures:
        print(f"\n{len(failures)} budget violation(s):")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print(f"\nall {checked} checked points within budget")


if __name__ == "__main__":
    main()
