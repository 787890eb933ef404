#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the perfbench program (optimized, from ../src) under
.bench_build/ at the repository root, runs one workload and passes its output
through: a context line (host, build, tails, phases), then, last, the result
object. Result files and traced spans go to .bench_build/results/.

--self-test builds and runs the unit tests of the benchmark's own logic, a
short smoke run of every workload in both modes with every check on (the
printed metric names and units must match BENCHMARK.json), and the canary:
a run with one corrupted expected value must report the failure and exit
non-zero.

Exit status: the program's (0 correct, 1 wrong output, 2 usage or set-up,
3 unoptimized build); 2 when the build fails or a run overruns its time.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "results"
WORKLOADS = ["handshake", "server_batch", "server_checked", "paper_models"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = "0.3"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets`; build output goes to stderr."""
    if not (ROOT / "src" / "saber" / "kem.cpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
           "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def program_args(workload, seed, seconds, trace, canary=False):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    args = [str(BUILD_DIR / "perfbench"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--table1", str(ROOT / "table1.csv"), "--out-dir", str(OUT_DIR)]
    return args + (["--canary"] if canary else [])


def run_captured(args):
    """Run the program; return (exit code, stdout lines)."""
    try:
        out = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 2, []
    return out.returncode, out.stdout.strip().splitlines()


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = lambda ms: {m["name"]: m["unit"] for m in ms}
    return unit(spec["end_to_end"]), unit(spec["per_layer"])


def self_test():
    if not build(["perfbench", "perfbench_test"]):
        return 2
    problems = []
    if subprocess.run([str(BUILD_DIR / "perfbench_test")]).returncode != 0:
        problems.append("unit tests failed")
    end_to_end, per_layer = declared_metrics()
    for workload in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            code, lines = run_captured(program_args(workload, 1, SMOKE_SECONDS, trace))
            name = f"smoke {workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{name}: exit {code}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name}: not correct")
            if got != declared:
                problems.append(f"{name}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared.items()))}")
            log(f"{name}: ok, {result['attempted']} operations checked")
        code, lines = run_captured(program_args(workload, 1, SMOKE_SECONDS, 0, canary=True))
        result = json.loads(lines[-1]) if lines else None
        if (code == 0 or result is None or result["correct"] or result["failed"] < 1
                or result["metrics"]["ok_frac"]["value"] >= 1):
            problems.append(f"canary {workload}: the corrupted expected value went unnoticed")
        else:
            log(f"canary {workload}: ok, {result['failed']} failed operations, exit {code}")
    for p in problems:
        log(f"FAIL {p}")
    log("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--canary", action="store_true",
                    help="corrupt one expected output; the run must fail")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not build(["perfbench"]):
        log("build failed")
        return 2
    cmd = program_args(args.workload, args.seed, args.seconds, args.trace, args.canary)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2


if __name__ == "__main__":
    sys.exit(main())
