#!/usr/bin/env python3
"""Steadiness check: runs one workload N times per set and compares the sets.

    python3 e2ebench/steady.py --workload path_mix --runs 10 --sets 2

Each run calls run.py with its own seed (set k uses seeds first + k*N ...).
For every metric it prints the median, the quartiles (statistics.quantiles,
n=4), min and max, and the spread (q3 - q1) / median. With two or more sets
it also prints each later set's median change against the first, and flags
a metric whose spread or median change exceeds its bound in BENCHMARK.json
(setup_s is held to the median rule only). Raw results go to --out.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}, {}
    return ({m["name"]: m["bound"] for m in spec.get("end_to_end", [])},
            {m["name"]: m["better"] for m in spec.get("end_to_end", [])})


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py failed for seed {seed}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bound, better = bounds()

    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            r = one_run(args.workload, seed, args.seconds)
            runs.append(r)
            print(f"set {k} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(r["metrics"].items())),
                file=sys.stderr, flush=True)
        sets.append(runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)

    names = sorted(sets[0][0]["metrics"])
    ok = True
    for k, runs in enumerate(sets):
        fails = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"== set {k}: {len(runs)} runs, correct={correct}, "
              f"failed share={fails:.6g}")
        print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}"
              f"{'max':>12}{'spread':>9}  {'vs set 0':>9}")
        for n in names:
            vals = [r["metrics"][n]["value"] for r in runs]
            med, q1, q3, spread = summary(vals)
            flag = ""
            if n in bound and n != "setup_s" and spread > bound[n]:
                flag, ok = " SPREAD>BOUND", False
            change = ""
            if k > 0:
                base = summary([r["metrics"][n]["value"] for r in sets[0]])[0]
                rel = (med - base) / base if base else 0.0
                change = f"{rel:+9.3%}"
                worse = -rel if better.get(n) == "higher" else rel
                if n in bound and worse > bound[n]:
                    flag, ok = flag + " MEDIAN>BOUND", False
            print(f"{n:<28}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{min(vals):>12.6g}"
                  f"{max(vals):>12.6g}{spread:>9.3%}  {change:>9}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
