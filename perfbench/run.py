#!/usr/bin/env python3
"""Repo benchmark: build the library and the perfbench binary, run one
workload, print every figure and, as the last line, the result JSON.

    python3 perfbench/run.py --workload train_pde --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/perfbench;
checkpoints and span dumps to .bench_build/work (span dumps are kept). The
metric names and units come from BENCHMARK.json; the fixed settings (rates,
loss target, ...) are constants in the workload sources, and
perfbench/record.json records them with what each metric means.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
# MFN_NUM_THREADS for every workload: the library's compute runs serially on
# the calling thread. On a 4-vCPU VM shared with other tenants, a 4-thread
# pool waits at every parallel_for for its slowest (descheduled) helper: its
# train_pde step time swung 57-164 ms between runs of the same code, against
# 83-85 ms serially.
THREADS = 1
# A run measures for --seconds after up to three set-ups and, traced, a few
# extra per-layer probes; anything past this is a hang.
SETUP_ALLOWANCE_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources next to {HERE}; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    res = subprocess.run(["cmake", "--build", BUILD, "--target", target,
                          "-j", "4"], stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def run_one(binary, bench, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result dict or None)."""
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, MFN_NUM_THREADS=str(THREADS))
    env.pop("MFN_FAILPOINTS", None)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    timeout_s = 2 * seconds + SETUP_ALLOWANCE_S
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: {workload} exceeded {timeout_s:g} s",
              file=sys.stderr)
        return 1, None
    finally:
        for name in os.listdir(work):
            if not name.startswith("spans-"):
                os.remove(os.path.join(work, name))
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "", file=sys.stderr)
        return proc.returncode or 1, None

    # The JSON carries exactly BENCHMARK.json's metric list: every
    # end-to-end metric untraced, every per-layer metric traced. A layer the
    # workload does not run did no work in it and reports 0.
    spec = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in spec})
    if unknown:
        print(f"perfbench: metrics not in BENCHMARK.json: {unknown}",
              file=sys.stderr)
        return 1, None
    metrics = {}
    for m in spec:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                print(f"perfbench: {m['name']} reported in "
                      f"{got[m['name']]['unit']}, BENCHMARK.json says "
                      f"{m['unit']}", file=sys.stderr)
                return 1, None
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            print(f"perfbench: {workload} did not report {m['name']}",
                  file=sys.stderr)
            return 1, None
    result["metrics"] = metrics
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json missing")
    with open(bench_path) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload}; one of {names} or all")
    seconds = args.seconds or bench["run_seconds"]

    binary = build("perfbench")
    if len(workloads) == 1:
        code, result = run_one(binary, bench, workloads[0], args.seed,
                               seconds, args.trace)
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result))
        sys.exit(code)

    # --workload all: every workload in turn, metrics keyed "<workload>.<name>".
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in workloads:
        print(f"== {w}")
        code, result = run_one(binary, bench, w, args.seed, seconds,
                               args.trace)
        worst = worst or code
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged))
    sys.exit(worst or (0 if merged["correct"] else 1))


if __name__ == "__main__":
    main()
