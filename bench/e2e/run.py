#!/usr/bin/env python3
"""Runs the store's end-to-end benchmark (bench/e2e/README.md).

One run, as BENCHMARK.json's command does it:
    python3 bench/e2e/run.py --workload net-read-1k --seed 1 --seconds 24 --trace 0
builds hdnh_bench on first use, runs the workload in its own process,
prints every metric by name with its unit, and ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace next to the build).

Other modes:
    --all            every workload untraced and traced, with tracing overhead
    --repeat N       N untraced runs per workload (seeds 1..N): median,
                     quartiles and spread of every end-to-end metric
    --smoke --bin B  the ctest smoke test, at tiny sizes
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "e2e"


def build():
    """Configures and builds hdnh_bench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"the store's sources are missing under {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(bdir), "--target", "hdnh_bench",
                      "-j", str(os.cpu_count() or 2)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")
    return bdir / "hdnh_bench"


def stamp_args():
    """Commit and source identity for the result's stamp."""
    def git(*args):
        try:
            r = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                               text=True, timeout=10)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            return None

    # Only this tree's own repository counts, not one that merely encloses it.
    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    sha = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    digest = hashlib.sha256()
    for top in ("src", "bench/e2e"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    return [f"--git_sha={sha or 'unknown'}",
            f"--git_dirty={'unknown' if status is None else str(bool(status)).lower()}",
            f"--source_digest={digest.hexdigest()[:16]}"]


def run_once(binary, workload, seed, seconds, trace, extra=(), echo=True, quiet=False):
    """Runs hdnh_bench once. Returns (exit code, result document or None)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           *stamp_args(), *extra]
    trace_path = None
    if trace:
        trace_path = build_dir() / f"trace-{workload}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_path}")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                           stderr=subprocess.DEVNULL if quiet else None)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = r.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    doc = None
    if lines:
        try:
            doc = json.loads(lines[-1])
        except ValueError:
            pass
    if doc is not None and trace_path is not None:
        try:
            json.loads(trace_path.read_text())
        except (OSError, ValueError) as e:
            print(f"run.py: trace {trace_path} does not load: {e}", file=sys.stderr)
            doc["correct"] = False
    return r.returncode, doc


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def result_line(spec, doc, trace):
    """The contract's result object, or None if a declared metric is missing."""
    metrics = {}
    for m in declared(spec, trace):
        if m["name"] not in doc.get("metrics", {}):
            print(f"run.py: metric {m['name']} missing", file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": doc["metrics"][m["name"]], "unit": m["unit"]}
    return {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}


def print_metrics(result):
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")


def single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    binary = build()
    code, doc = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if doc is None:
        fail(f"hdnh_bench exited {code} without a result")
    result = result_line(spec, doc, args.trace)
    if result is None:
        fail("incomplete result")
    result["correct"] = result["correct"] and code == 0
    print_metrics(result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec):
    binary = build()
    overhead = {}
    status = 0
    for w in spec["workloads"]:
        values = {}
        for trace in (0, 1):
            code, doc = run_once(binary, w["name"], args.seed, args.seconds, trace, echo=False)
            result = doc and result_line(spec, doc, trace)
            if code != 0 or not result or not result["correct"]:
                print(f"{w['name']}: FAILED (exit {code})")
                status = 1
                continue
            print(f"== {w['name']} ({'traced' if trace else 'untraced'}), "
                  f"{result['attempted']} ops checked, stamp {json.dumps(doc['stamp'])}")
            print_metrics(result)
            values.update({k: v["value"] for k, v in result["metrics"].items()})
        if "throughput_kops" in values and "trace.throughput_kops" in values:
            overhead[w["name"]] = values["trace.throughput_kops"] / values["throughput_kops"]
    print("== tracing overhead (traced / untraced throughput_kops)")
    for name, r in overhead.items():
        print(f"{name:24s} {r:.3f}")
    return status


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, spec):
    binary = build()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, args.repeat + 1):
            code, doc = run_once(binary, name, seed, args.seconds, 0, echo=False)
            if code != 0 or doc is None or not doc["correct"]:
                print(f"{name} seed {seed}: FAILED (exit {code})")
                status = 1
                continue
            runs.append(doc["metrics"])
        if not runs:
            continue
        print(f"== {name}: {len(runs)} runs of {args.seconds} s")
        print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>7s}")
        for metric, m in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if metric == "setup_s" or spread < m["bound"] / 3 else "  <- above bound/3"
            print(f"{metric:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{m['bound']:7.0%}{flag}")
    return status


def smoke(args, spec):
    """Every workload untraced and traced at tiny sizes, then a corrupted store."""
    binary = Path(args.bin)
    tiny = ["--scale=0.002"]
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, doc = run_once(binary, w["name"], 1, 0.3, trace, tiny, echo=False)
            result = doc and result_line(spec, doc, trace)
            if code != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace={trace}: exit {code}, result {result}")
            elif not trace and result["metrics"]["ok_ratio"]["value"] != 1:
                problems.append(f"{w['name']}: ok_ratio below 1")
    for name in ("embed-zipf-read", "net-read-1k"):
        code, doc = run_once(binary, name, 1, 0.3, 0, [*tiny, "--corrupt_every=50"],
                             echo=False, quiet=True)
        if code == 0 or doc is None or doc["correct"] or doc["failed"] == 0 or \
                doc["metrics"]["ok_ratio"] >= 1:
            problems.append(f"{name}: a corrupting store was not caught (exit {code})")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    if not problems:
        print("smoke: every workload ran clean untraced and traced; corruption was caught")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="hdnh_bench to use (--smoke)")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        if not args.bin:
            fail("--smoke needs --bin")
        return smoke(args, spec)
    if args.all:
        return run_all(args, spec)
    if args.repeat > 0:
        return repeat(args, spec)
    if not args.workload:
        fail("--workload is required (or --all / --repeat N / --smoke)")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
