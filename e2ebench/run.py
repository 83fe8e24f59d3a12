#!/usr/bin/env python3
"""End-to-end benchmark of the xpwqo serving stack (see README.md).

    python3 e2ebench/run.py --workload path_mix --seed 1 --seconds 30 --trace 0

Builds e2ebench/ (and the xpwqo library under it) into the build directory
(CARGO_TARGET_DIR, default .bench_build), generates the workload's inputs from
the seed, runs them, checks every answer against reference answers computed
apart from the served path, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it holds the
host and build metadata. With --trace 1 the metrics are the per-layer ones of
the traced run; otherwise the end-to-end ones.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("path_mix", "point_lookup", "ingest")
# Set-up ingests of the query workloads; their best op gives ingest_mb_s.
SETUP_INGEST_ROUNDS = 30


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    bdir = os.path.join(build_root(), "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", bdir, "--target", "xpbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=1200)
    return os.path.join(bdir, "xpbench")


def stage(binary, args, timeout):
    """Runs one xpbench stage and returns its last stdout line as JSON."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"xpbench {args[0]} exited {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"xpbench {args[0]} printed no result")
    return json.loads(lines[-1])


def metadata(binary, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    meta = {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
            "git_revision": revision, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    meta.update(stage(binary, ["info"], 30))
    return meta


def run(args):
    binary = build()
    work = os.path.join(build_root(), "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--dir", work, "--seed", str(args.seed)]
    try:
        stage(binary, ["selftest"], 60)
        stage(binary, ["prepare"] + common, 120)
        if args.workload == "ingest" and not args.trace:
            result = stage(binary, ["ingest"] + common +
                           ["--seconds", str(args.seconds)], args.seconds + 120)
        else:
            setup = stage(binary, ["ingest"] + common +
                          ["--rounds", str(SETUP_INGEST_ROUNDS)], 120)
            result = stage(binary, ["serve"] + common +
                           ["--workload", args.workload,
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], args.seconds + 120)
            if args.trace:
                traces = os.path.join(build_root(), "traces")
                os.makedirs(traces, exist_ok=True)
                spans = os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")
                shutil.move(os.path.join(work, "spans.jsonl"), spans)
                log(f"spans written to {spans}")
            else:
                # The query workloads report the ingest that built their
                # images; the serving process itself never parses XML.
                result["metrics"].update(setup["metrics"])
            result["correct"] = result["correct"] and setup["correct"]
        meta = metadata(binary, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            json.JSONDecodeError) as e:
        log(f"failed: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
