#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload yes-batch --seed 1 --seconds 20 --trace 0

builds perfbench/ (the library sources plus perfbench.cpp) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, runs one workload and ends its standard output with the result line
{"correct", "attempted", "failed", "metrics"}. It exits non-zero when the
build fails, a check fails, or the result does not match BENCHMARK.json.

Two more modes:
    --spread N   repeat the workload for N seeds and print each metric's
                 median, quartiles and spread (IQR / median) next to its bound
    --selftest   run every workload at smoke size with --trace 0 and 1 and
                 check the correctness counters and the output schema
Run from the repository root. README.md documents the workloads and metrics.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configures once, then builds incrementally; the lock serializes
    concurrent builds in one checkout. Build output goes to stderr."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(cmd + gen, stdout=sys.stderr).returncode != 0:
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            return None
    return out / "lrdip_perfbench"


def load_spec():
    return json.loads(SPEC.read_text()) if SPEC.exists() else None


def check_result(line, trace, spec):
    """Returns the parsed result line, or raises ValueError naming what does
    not match the contract."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["failed"] >= 0):
        raise ValueError("attempted/failed must be whole numbers, attempted >= 1")
    if spec is not None:
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if want != got:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                             f"extra {extra}, wrong unit {wrong}")
    return res


def run_once(exe, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs the benchmark program once. Returns (exit code, result or None, report or None)."""
    out = build_dir()
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    report = out / f"report-{tag}.json"
    report.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--report", str(report)]
    if trace:
        cmd += ["--trace-out", str(out / f"trace-{tag}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        res = check_result(lines[-1], trace, load_spec())
    except ValueError as e:
        print(f"perfbench: bad result line: {e}", file=sys.stderr)
        return 1, None, None
    rep = json.loads(report.read_text()) if report.exists() else None
    return proc.returncode, res, rep


def spread(exe, args, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]} if spec else {}
    values = {}
    for seed in range(args.seed, args.seed + args.spread):
        code, res, rep = run_once(exe, args.workload, seed, args.seconds, args.trace, echo=False)
        if code != 0 or res is None or not res["correct"]:
            print(f"seed {seed}: failed (exit {code})")
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        calib = rep["context"]["host.calib_ms"] if rep else float("nan")
        print(f"seed {seed}: host.calib_ms={calib:.4g} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.spread} runs of {args.seconds} s")
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        s = (q3 - q1) / med if med else float("inf")
        b = bounds.get(name)
        flag = "" if b is None else ("ok" if s < b / 3 else "WIDE" if s > b else "near")
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.4f} "
              f"{'' if b is None else b:>6} {flag}")
    return 0


def selftest(exe, spec):
    ok = True

    def expect(cond, what):
        nonlocal ok
        ok &= bool(cond)
        print(f"  {'PASS' if cond else 'FAIL'} {what}")

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            print(f"{wl} --trace {trace} (smoke)")
            code, res, rep = run_once(exe, wl, 7, 1, trace, smoke=True, echo=False)
            expect(code == 0 and res is not None and rep is not None,
                   "exits 0 with a result line that matches BENCHMARK.json")
            if res is None or rep is None:
                continue
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"correct, {res['failed']} failed of {res['attempted']}")
            expect(rep["fail_ratio"] == 0, "fail_ratio is 0")
            for k in ("proof_bits_total", "label_bits_total"):
                expect(rep["exact"][k] == rep["expected"][k] > 0,
                       f"{k} {rep['exact'][k]} equals the reference re-execution")
            cells = rep["soundness"]["cells"]
            expect(all(a <= n * rep["soundness"]["max_rate"] for a, n in cells.values()),
                   f"near-no acceptances within the soundness ceiling "
                   f"(cheat_accepts {rep['exact']['cheat_accepts']})")
            expect(all(k in rep["context"] for k in
                       ("n", "threads", "nproc", "simd_level", "host.calib_ms")),
                   "report records n, threads, nproc, SIMD level and host.calib_ms")
            expect(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                   "every metric value is a number")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spread", type=int, default=0, metavar="N")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.selftest:
        return selftest(exe, spec)
    if args.spread:
        return spread(exe, args, spec)
    code, res, _ = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return code or 1
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
