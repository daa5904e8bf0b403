"""Benchmark of the mklmmwu CLI paths, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. Load is a closed loop from one client process: the workload's
command (`train`, `eval` or `cv`) runs in-process through
`mklmmwu.cli.main`, each run starting when the previous one ends and its
output checked in between. Runs keep starting until S seconds have passed;
`warm_s` is their median, leaving out the first (except on cv-protocol,
whose pool workers start fresh on every command), which pays the fresh
process's cold start and is reported on its own in the traced run.

`--trace 0` reports the end-to-end metrics with no wrappers installed.
`--trace 1` runs untraced operations alternated with traced ones, which
substitute timing wrappers for the program's layer functions (see
spans.py), and reports the per-layer metrics and the tracing overhead.

Every metric is printed with its unit and sample count; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 2 when the checkout holds no program to measure
and 1 when a traced layer boundary is missing or records no calls.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# BLAS stays single-threaded in this process and in the cv pool workers it forks.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mklmmwu", "__init__.py")):
        print(f"error: no program to measure: {SRC}/mklmmwu is missing", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, "perfbench", ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    ship_dir = os.path.join(workdir, "spans")
    os.makedirs(ship_dir)
    # Temporary files of this process and its children stay in the checkout.
    os.environ.update(BLAS_THREADS, TMPDIR=workdir)
    sys.path.insert(0, SRC)
    try:
        import mklmmwu

        if not os.path.abspath(mklmmwu.__file__).startswith(SRC + os.sep):
            print(f"error: mklmmwu was imported from {mklmmwu.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from bench import LAYER_MOVES, Bench, TraceGuard, end_to_end, environment, per_layer, unit_of
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        bench = Bench(WORKLOADS[args.workload](workdir, args.seed), bool(args.trace), ship_dir)
        setup_times = bench.setup()
        try:
            bench.measure(args.seconds)
        except TraceGuard as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(bench) if args.trace else end_to_end(bench, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    print("ops " + " ".join(f"{o['wall']:.3f}{'t' if o['traced'] else ''}" for o in bench.ops))
    for name, (value, samples) in metrics.items():
        moves = f"  -> {LAYER_MOVES[name]}" if args.trace else ""
        print(f"{name:36s} {value:>14.6g} {unit_of(name):6s} n={samples:<3d}{moves}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
