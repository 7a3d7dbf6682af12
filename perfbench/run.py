#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The program (bench.ml) is built with dune into _build.  The last line of
standard output is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1; the line before it tags the result with the host and
the code that produced it.  Exits non-zero, printing no result, when
the build or the run fails.

    python3 perfbench/run.py --workload sweep --seed 7 --write-ref perfbench/refs

stores the reference records of one seed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
TARGET = "./%s/bench.exe" % BENCH_DIR
EXE = os.path.join("_build", "default", BENCH_DIR, "bench.exe")
WORKLOADS = ("sweep", "synth", "synth_fn", "baselines")
# Runtime files (the GC profiler's event ring) stay inside the checkout.
SCRATCH = ".perfbench"


def code_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith((".", "_")))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".dsl")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "%s/%s" % (commit, h.hexdigest()[:12])


def build(env):
    try:
        r = subprocess.run(["dune", "build", "--root", ".", TARGET], env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs every code path in seconds (tests)")
    ap.add_argument("--refs", default=None,
                    help="stored references (default: perfbench/refs "
                         "at full size, none at small size)")
    ap.add_argument("--write-ref", metavar="DIR",
                    help="store the seed's reference records under DIR")
    ap.add_argument("--untraced-delay-ms", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")

    scratch = os.path.abspath(SCRATCH)
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=scratch,
               OCAML_RUNTIME_EVENTS_DIR=scratch)
    if not build(env):
        return 2

    refs = args.refs
    if refs is None:
        refs = os.path.join(BENCH_DIR, "refs") if args.size == "full" else ""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--refs", refs, "--code", code_identity()]
    if args.write_ref:
        cmd += ["--write-ref", args.write_ref]
    if args.untraced_delay_ms:
        cmd += ["--untraced-delay-ms", str(args.untraced_delay_ms)]
    try:
        return subprocess.run(cmd, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
