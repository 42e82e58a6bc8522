#!/usr/bin/env python3
"""Production-path benchmark of the ZAC compiler and its daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide|deep|serve --seed N \
        --seconds S --trace 0|1

Builds the library, the zac_serve daemon and the zac_perfbench harness
from source into .bench_build/perfbench (CMake, Release), runs one
workload in its own process, and prints as the last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Traces and output digests land in .bench_build/out.

    python3 perfbench/run.py --record-digests

merges the digests of the untraced runs in .bench_build/out into
perfbench/digests.json, the reference outputs_changed compares against.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
DIGESTS = os.path.join(HERE, "digests.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; cmake's output goes to stderr."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "zac_perfbench", "zac_serve",
         "-j", "4"],
        check=True, stdout=sys.stderr)


def record_digests():
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            stored = json.load(f)
    for path in sorted(glob.glob(os.path.join(OUT, "digests-*.json"))):
        name = os.path.basename(path)[len("digests-"):-len(".json")]
        if name.endswith("-trace"):
            continue
        workload, seed = name.rsplit("-", 1)
        with open(path) as f:
            stored[f"{workload}/{seed}"] = json.load(f)
    with open(DIGESTS, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"{len(stored)} workload/seed digest sets in {DIGESTS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.record_digests:
        record_digests()
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "zac_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT,
           "--serve-bin", os.path.join(BUILD, "zac", "zac_serve"),
           "--digests", DIGESTS]
    # Its own process group, so a timeout also stops the zac_serve child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"zac_perfbench timed out after {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"zac_perfbench exited with {proc.returncode}")
        return 1
    got = json.loads(stdout.strip().splitlines()[-1])

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in got["metrics"]:
            metrics[name] = {"value": got["metrics"][name]["value"],
                             "unit": m["unit"]}
        elif args.trace:
            # A layer this workload does not exercise reads 0.
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            log(f"end-to-end metric {name} missing")
            return 1
    for name, v in sorted(got["metrics"].items()):
        if name not in metrics:
            log(f"(not in this mode's list) {name} = {v['value']}")
    print(json.dumps({"correct": got["correct"],
                      "attempted": got["attempted"],
                      "failed": got["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
