"""The closed measurement loop and the metrics it reports.

Imported by run.py once BLAS threads are pinned and the checkout's `src/`
is on the path.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from spans import NAME, NOTE, Recorder, TraceGuard, Tracer, op_calls, summarize
from workloads import CheckFailed, iteration_budget, run_cli


# glibc's malloc_trim, or None on a C library without it.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def trim_heap() -> None:
    """Hand the allocator's free memory back to the OS, so that every
    operation starts from the same heap. Without it, the heap an operation
    leaves behind decides how many pages the next one faults in: in one
    eval-batch run, ops switched between ~130 k and ~220 k minor faults,
    and their wall time by ~25%."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _rusage():
    """Counters of this process and of its reaped children (the cv pool)."""
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if os.path.exists(os.path.join(git, name)):
            with open(os.path.join(git, name), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "malloc_trim_per_op": _MALLOC_TRIM is not None,
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Bench:
    """Runs one workload's set-up and operations and keeps their records."""

    def __init__(self, workload, trace: bool, ship_dir: str):
        self.w = workload
        self.trace = trace
        self.rec = Recorder()
        self.tracer = Tracer(self.rec, ship_dir)
        self.attempted = 0
        self.failed = 0
        self.ops: list[dict] = []

    def setup(self) -> list[float]:
        times = []
        for _ in range(self.w.setup_repeats):
            t0 = time.perf_counter()
            self.attempted += self.w.setup()
            times.append(time.perf_counter() - t0)
        return times

    def run_op(self, traced: bool) -> None:
        trim_heap()
        self_0, child_0 = _rusage()
        if traced:
            self.rec.reset()
            self.tracer.install()
            root = self.rec.open("cli.main")
        t0 = time.perf_counter()
        try:
            code, output = run_cli(self.w.argv())
        except Exception as exc:  # an operation that raises counts as failed
            code, output = f"{type(exc).__name__}: {exc}", ""
        finally:
            wall = time.perf_counter() - t0
            if traced:
                self.rec.close(root)
                self.tracer.uninstall()
        self_1, child_1 = _rusage()
        op = {
            "traced": traced,
            "wall": wall,
            "minflt": (self_1.ru_minflt - self_0.ru_minflt) + (child_1.ru_minflt - child_0.ru_minflt),
            "child_cpu": (child_1.ru_utime + child_1.ru_stime) - (child_0.ru_utime + child_0.ru_stime),
            "test_error": None,
        }
        if traced:
            op["spans"] = [self.rec.spans] + self._collect_shipped()
        self.attempted += 1
        try:
            if code != 0:
                raise CheckFailed(f"{self.w.argv()[0]} ended with {code}")
            op["test_error"] = self.w.check(output)
            if traced:
                self._check_traced(op["spans"])
        except (CheckFailed, KeyError, IndexError, ValueError) as exc:
            self.failed += 1
            print(f"operation {len(self.ops)} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.ops.append(op)

    def _collect_shipped(self) -> list:
        lists = []
        for path in sorted(glob.glob(os.path.join(self.tracer.ship_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                lists.append(json.load(fh))
            os.remove(path)
        return lists

    def _check_traced(self, span_lists) -> None:
        calls = op_calls(span_lists)
        missing = [b for b in self.w.expected if not calls.get(b)]
        if missing:
            raise TraceGuard(f"traced boundaries recorded no calls: {', '.join(missing)}")
        for spans in span_lists:
            for s in spans:
                if s[NAME] == "solver.train" and (s[NOTE] is None or s[NOTE][0] != iteration_budget(s[NOTE][1])):
                    raise CheckFailed(f"a fit ran (T, n) = {s[NOTE]}, not the iteration budget")
                if s[NAME] == "model.save_model":
                    self.w.check_saved(s[NOTE])

    def measure(self, seconds: float) -> None:
        """The cold operation, then warm ones until the deadline. A traced run
        alternates traced and untraced warm operations and runs at least one
        of each."""
        deadline = time.perf_counter() + seconds
        self.run_op(traced=False)
        while True:
            warm = self.ops[1:]
            kinds = {o["traced"] for o in warm}
            if warm and time.perf_counter() >= deadline and (not self.trace or len(kinds) == 2):
                return
            self.run_op(traced=self.trace and not (warm and warm[-1]["traced"]))


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest child's (cv pool workers)."""
    own, children = _rusage()
    return (own.ru_maxrss + children.ru_maxrss) / 1024.0


def end_to_end(bench: Bench, setup_times) -> dict:
    """name -> (value, sample count), measured with no wrappers installed."""
    warm = [o["wall"] for o in bench.ops[bench.w.warm_from:]]
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "warm_s": (statistics.median(warm), len(warm)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def per_layer(bench: Bench) -> dict:
    """name -> (value, sample count), from the traced operations, plus the
    process counters and the traced-minus-untraced overhead."""
    traced = [o for o in bench.ops if o["traced"]]
    plain = [o for o in bench.ops[1:] if not o["traced"]]
    out = {k: (v, len(traced)) for k, v in summarize([o["spans"] for o in traced]).items()}
    plain_s = statistics.median(o["wall"] for o in plain)
    traced_s = statistics.median(o["wall"] for o in traced)
    pairs = len(traced) + len(plain)
    out["trace.overhead_s"] = (traced_s - plain_s, pairs)
    out["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, pairs)
    out["proc.cold_op_s"] = (bench.ops[0]["wall"], 1)
    out["proc.minflt_cold_op"] = (bench.ops[0]["minflt"], 1)
    out["proc.minflt_warm_op"] = (statistics.median(o["minflt"] for o in plain), len(plain))
    out["cli.pool_cpu_share"] = (
        statistics.median(o["child_cpu"] / (bench.w.jobs * o["wall"]) for o in bench.ops[1:]),
        len(bench.ops) - 1,
    )
    has_model = os.path.exists(bench.w.model_path)
    out["model.file_bytes"] = (os.path.getsize(bench.w.model_path) if has_model else 0, int(has_model))
    errors = [o["test_error"] for o in bench.ops if o["test_error"] is not None]
    out["quality.test_error"] = (statistics.median(errors) if errors else 0.0, len(errors))
    return out


#: The end-to-end metric, and workload, each per-layer metric should move.
LAYER_MOVES = {
    "data.parse_libsvm_s": "warm_s on eval-batch; negligible in training",
    "data.parse_libsvm_mb_per_s": "warm_s on eval-batch",
    "data.split_s": "warm_s on train workloads (small)",
    "data.fit_scaling_s": "warm_s on train workloads (small)",
    "data.apply_scaling_s": "warm_s on train workloads and eval-batch (small)",
    "kernels.bind_s": "warm_s on train workloads",
    "kernels.signed_columns_all_calls": "count; 2T + n_support per fit at the parent commit",
    "kernels.signed_columns_all_us.p50": "warm_s on train-perfeat most; train-allfeat; cv-protocol",
    "kernels.signed_columns_all_us.p99": "warm_s on train-perfeat most; train-allfeat; cv-protocol",
    "kernels.signed_columns_all_share": "warm_s on train-perfeat most; train-allfeat; cv-protocol",
    "kernels.column_bytes": "peak_rss_mb (computed as m*n*8, not measured)",
    "kernels.column_repeat_share_w64": "bounds what a 64-column cache saves: warm_s on cv-protocol",
    "solver.iterations": "count; equals the iteration budget",
    "solver.apply_update_self_us": "warm_s on train workloads and cv-protocol",
    "solver.exponentiate_m_us": "warm_s on train-perfeat (m=396)",
    "solver.loop_other_us": "warm_s on train-allfeat (pair selection over n=4000)",
    "solver.quash_iters": "count; iterations past the quash threshold",
    "model.extract_weights_s": "warm_s on train workloads (small)",
    "model.compute_bias_s": "warm_s on train-allfeat; cv-protocol (C=0.1 fits)",
    "model.n_support": "count; scales compute_bias and decision_values",
    "model.decision_values_us_per_point": "warm_s on eval-batch",
    "model.save_model_s": "warm_s on train workloads (small)",
    "model.load_model_s": "warm_s on eval-batch (small)",
    "model.file_bytes": "model.load_model_s",
    "cli.run_protocol_s": "warm_s on cv-protocol",
    "cli.fits": "count; fits per operation",
    "cli.pool_cpu_share": "warm_s on cv-protocol: pool workers busy per job",
    "data.self_s": "warm_s, summed over the operation's processes",
    "kernels.self_s": "warm_s, summed over the operation's processes",
    "solver.self_s": "warm_s, summed over the operation's processes",
    "model.self_s": "warm_s, summed over the operation's processes",
    "cli.self_s": "warm_s; includes waiting for the pool on cv-protocol",
    "proc.cold_op_s": "none; the first operation in the fresh process, which every CLI call pays",
    "proc.minflt_cold_op": "proc.cold_op_s: a page-fault storm makes some cold fits ~2x slower",
    "proc.minflt_warm_op": "warm_s",
    "trace.overhead_s": "none; traced minus untraced warm_s",
    "trace.overhead_share": "none; trace.overhead_s over untraced warm_s",
    "quality.test_error": "none; held-out error, so a speed-for-accuracy trade shows",
}

UNITS = {"setup_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
SUFFIX_UNITS = (
    ("_mb_per_s", "MB/s"), ("_share_w64", "ratio"), ("_share", "ratio"), ("_error", "ratio"),
    ("_us_per_point", "us"), ("_us.p50", "us"), ("_us.p99", "us"), ("_us", "us"), ("_s", "s"), ("_bytes", "B"),
)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "count")
