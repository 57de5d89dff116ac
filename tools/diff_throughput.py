#!/usr/bin/env python3
"""Warn-only throughput comparison for CI.

Diffs a fresh google-benchmark JSON against the committed baseline
(BENCH_throughput.json) and prints per-benchmark deltas. CI runners are
noisy shared machines, so this never fails the build — it exists to make a
real regression visible in the job log and the uploaded artifact, not to
gate on a jittery number. The hard gate on communication budgets is
tools/check_budgets.py, which compares deterministic quantities.

Usage:
    tools/diff_throughput.py current.json BENCH_throughput.json [--warn-pct 10]
        [--github-summary "$GITHUB_STEP_SUMMARY"]

With --github-summary, the same per-benchmark table is appended to the given
file as markdown so it lands on the job's summary page.

Always exits 0 (2 only on unreadable input).
"""
import argparse
import json
import sys


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def iteration_rows(doc):
    # aggregate rows (mean/median/stddev) would double-count; keep raw ones
    return [b for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"]


def load_benchmarks(doc):
    return {b["name"]: float(b.get("cpu_time", b.get("real_time", 0.0)))
            for b in iteration_rows(doc)}


def report_phi_batch(doc):
    """Summarize the BM_PhiBatch SIMD-kernel rows: per span size, the
    items/s of each dispatch level and its speedup over the scalar lane,
    plus the lane counts the benchmark recorded. Skipped silently when the
    baseline predates the kernel benchmarks."""
    rows = {}
    for b in iteration_rows(doc):
        name = b.get("name", "")
        if not name.startswith("BM_PhiBatch/"):
            continue
        level = b.get("label", name.split("/")[1])
        size = int(name.split("/")[2])
        rows.setdefault(size, {})[level] = (
            float(b.get("items_per_second", 0.0)), int(b.get("lanes", 0)))
    if not rows:
        return
    ctx = doc.get("context", {})
    host = ctx.get("simd_host_level", "?")
    print(f"\nBM_PhiBatch kernel throughput (host dispatch level: {host})")
    print(f"{'span':>10} {'level':<8} {'lanes':>5} {'items/s':>14} {'vs scalar':>10}")
    for size in sorted(rows):
        scalar_ips = rows[size].get("scalar", (0.0, 1))[0]
        for level in ("scalar", "avx2", "avx512"):
            if level not in rows[size]:
                continue
            ips, lanes = rows[size][level]
            speedup = f"{ips / scalar_ips:>9.2f}x" if scalar_ips > 0 else f"{'-':>10}"
            print(f"{size:>10} {level:<8} {lanes:>5} {ips:>14.3e} {speedup}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--warn-pct", type=float, default=10.0,
                    help="flag benchmarks slower than baseline by more than this")
    ap.add_argument("--github-summary", default=None,
                    help="file to append a markdown table to (e.g. $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args()

    current_doc = load_doc(args.current)
    current = load_benchmarks(current_doc)
    baseline = load_benchmarks(load_doc(args.baseline))
    if not current:
        print(f"warning: no benchmarks in {args.current}")
        return

    warned = 0
    md = ["### Throughput vs committed baseline (warn-only)", "",
          "| benchmark | baseline (ns) | current (ns) | delta |",
          "|:----------|--------------:|-------------:|------:|"]
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(current):
        cur = current[name]
        base = baseline.get(name)
        if base is None or base <= 0:
            print(f"{name:<40} {'-':>12} {cur:>12.0f}      new")
            md.append(f"| `{name}` | - | {cur:.0f} | new |")
            continue
        pct = 100.0 * (cur - base) / base
        mark = ""
        if pct > args.warn_pct:
            mark = f"  SLOWER (> {args.warn_pct:.0f}%)"
            warned += 1
        print(f"{name:<40} {base:>12.0f} {cur:>12.0f} {pct:>+7.1f}%{mark}")
        md.append(f"| `{name}` | {base:.0f} | {cur:.0f} | "
                  f"{'**' if mark else ''}{pct:+.1f}%{'**' if mark else ''} |")
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<40} {baseline[name]:>12.0f} {'-':>12}  missing")
        md.append(f"| `{name}` | {baseline[name]:.0f} | - | missing |")
    md.append("")
    md.append(f"{warned} benchmark(s) beyond the {args.warn_pct:.0f}% warn threshold "
              "(informational; runners are noisy)")
    if args.github_summary:
        with open(args.github_summary, "a") as f:
            f.write("\n".join(md) + "\n")

    if warned:
        print(f"\n::warning::{warned} benchmark(s) slower than the committed baseline "
              f"by more than {args.warn_pct:.0f}% (warn-only; runners are noisy)")
    else:
        print("\nno benchmark slower than baseline beyond the warn threshold")

    report_phi_batch(current_doc)


if __name__ == "__main__":
    main()
