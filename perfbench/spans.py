"""Span recording and per-layer arithmetic for the traced benchmark run.

The traced run substitutes timing wrappers for public functions of the
`mklmmwu` modules. A wrapper is installed under every name that binds the
original function in any `mklmmwu.*` namespace (`mklmmwu.solver.bind`,
`mklmmwu.cli.train`, ...), so calls made through imported names are seen
too. Spans are kept in memory as flat lists and summarised after the run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import time
from collections import deque

# A span is [name, start, end, parent_index, note]; parent_index -1 marks a root.
NAME, START, END, PARENT, NOTE = range(5)


class TraceGuard(Exception):
    """A layer boundary is missing or, in a traced operation that must cross
    it, recorded no calls: a wrapped function was renamed, moved or inlined,
    so the traced run cannot report that layer."""


class Recorder:
    """Collects nested spans of one process, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        self.spans = []
        self._stack = []


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def within(spans, idx: int, ancestor: str) -> bool:
    """True when span idx has an ancestor named `ancestor`."""
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def repeat_share(requests, window: int = 64) -> float:
    """Share of (owner, index) requests whose index appeared among the
    previous `window` requests of the same owner; a new owner starts an
    empty window."""
    recent: deque = deque(maxlen=window)
    owner = None
    repeats = total = 0
    for who, j in requests:
        if who != owner:
            recent.clear()
            owner = who
        repeats += j in recent
        total += 1
        recent.append(j)
    return repeats / total if total else 0.0


def _note(fn, args, result):
    try:
        return fn(args, result)
    except (AttributeError, TypeError, IndexError, ValueError, OSError):
        return None


def _source_bytes(args, result):
    src = args[0]
    if hasattr(src, "fileno"):
        return os.fstat(src.fileno()).st_size
    return len(src.encode("utf-8"))


#: (module, attribute, span name, note taken from (args, result) after the call)
TARGETS = (
    ("mklmmwu.data", "parse_libsvm", "data.parse_libsvm", _source_bytes),
    ("mklmmwu.data", "split", "data.split", None),
    ("mklmmwu.data", "fit_scaling", "data.fit_scaling", None),
    ("mklmmwu.data", "apply_scaling", "data.apply_scaling", None),
    ("mklmmwu.kernels", "bind", "kernels.bind", lambda a, r: r.m * r.n * 8),
    ("mklmmwu.kernels", "GramAccessor.signed_columns_all", "kernels.signed_columns_all",
     lambda a, r: (id(a[0]), int(a[1]))),
    ("mklmmwu.solver", "train", "solver.train", lambda a, r: (int(r[1]), a[0].n)),
    ("mklmmwu.solver", "apply_update", "solver.apply_update", None),
    ("mklmmwu.solver", "exponentiate_m", "solver.exponentiate_m",
     lambda a, r: a[0].last_s_max >= a[0].config.quash_threshold),
    ("mklmmwu.model", "model_from_state", "model.model_from_state", lambda a, r: r.n_support),
    ("mklmmwu.model", "extract_weights", "model.extract_weights", None),
    ("mklmmwu.model", "compute_bias", "model.compute_bias", None),
    ("mklmmwu.model", "decision_values", "model.decision_values", lambda a, r: len(a[1])),
    # The in-memory model, so a traced operation can compare it with the saved one.
    ("mklmmwu.model", "save_model", "model.save_model", lambda a, r: a[0]),
    ("mklmmwu.model", "load_model", "model.load_model", lambda a, r: r.n_support),
    ("mklmmwu.cli", "run_protocol", "cli.run_protocol", None),
)


def _wrap(rec: Recorder, name: str, fn, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if note is not None:
            rec.spans[idx][NOTE] = _note(note, args, result)
        return result

    return traced


class Tracer:
    """Installs and removes the timing wrappers for one recorder.

    `ship_dir`, when given, also wraps the cv pool task
    `mklmmwu.cli._protocol_repeat`: in a forked worker it clears the spans
    inherited from the parent, records the task, and writes the worker's
    spans to a file in `ship_dir` for the parent to collect.
    """

    def __init__(self, rec: Recorder, ship_dir: str | None = None):
        self.rec = rec
        self.ship_dir = ship_dir
        self._patches: list[tuple] = []
        self._shipped = 0

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, span, note in TARGETS:
            self._install_one(modname, attr, _wrap(self.rec, span, self._lookup(modname, attr), note))
        if self.ship_dir is not None:
            self._install_one("mklmmwu.cli", "_protocol_repeat",
                              self._shipper(self._lookup("mklmmwu.cli", "_protocol_repeat")))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @staticmethod
    def _lookup(modname, attr):
        owner = sys.modules[modname]
        for part in attr.split("."):
            if not hasattr(owner, part):
                raise TraceGuard(f"cannot wrap {modname}.{attr}: it does not exist")
            owner = getattr(owner, part)
        return owner

    def _install_one(self, modname, attr, wrapper):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[modname], cls_name)
            self._patches.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)
            return
        original = getattr(sys.modules[modname], attr)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "mklmmwu" or name.startswith("mklmmwu.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def _shipper(self, fn):
        rec, ship_dir, parent_pid = self.rec, self.ship_dir, os.getpid()

        @functools.wraps(fn)
        def shipped(payload):
            if os.getpid() == parent_pid:
                return fn(payload)
            rec.reset()
            idx = rec.open("cli.protocol_repeat")
            try:
                return fn(payload)
            finally:
                rec.close(idx)
                self._shipped += 1
                path = os.path.join(ship_dir, f"spans-{os.getpid()}-{self._shipped}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(rec.spans, fh, default=lambda note: None)

        return shipped


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    return float(xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)])


LAYERS = ("data", "kernels", "solver", "model", "cli")


def op_layer_self(span_lists) -> dict[str, float]:
    """Summed self time per layer over one operation's span lists."""
    out = dict.fromkeys(LAYERS, 0.0)
    for spans in span_lists:
        for s, own in zip(spans, self_times(spans)):
            out[s[NAME].split(".", 1)[0]] += own
    return out


def op_calls(span_lists) -> dict[str, int]:
    counts: dict[str, int] = {}
    for spans in span_lists:
        for s in spans:
            counts[s[NAME]] = counts.get(s[NAME], 0) + 1
    return counts


def summarize(ops) -> dict[str, float]:
    """Per-layer figures from the traced operations.

    `ops` is a list of operations, each a list of span lists (the parent
    process first, then any pool workers). Times are medians per call
    unless the name says otherwise; a boundary with no calls reads 0.
    """
    by_name: dict[str, list] = {}
    fits = []  # (T, self time of solver.train)
    column_time_in_train = 0.0
    train_time = 0.0
    requests = []  # ((span list number, accessor id), column index)
    list_no = 0
    per_op_self = []
    for span_lists in ops:
        per_op_self.append(op_layer_self(span_lists))
        for spans in span_lists:
            list_no += 1
            own = self_times(spans)
            for idx, s in enumerate(spans):
                by_name.setdefault(s[NAME], []).append((s[END] - s[START], own[idx], s[NOTE]))
                if s[NAME] == "solver.train":
                    train_time += s[END] - s[START]
                    if s[NOTE] is not None:
                        fits.append((s[NOTE][0], own[idx]))
                elif s[NAME] == "kernels.signed_columns_all":
                    if s[NOTE] is not None:
                        requests.append(((list_no, s[NOTE][0]), s[NOTE][1]))
                    if within(spans, idx, "solver.train"):
                        column_time_in_train += s[END] - s[START]

    def dur(name):
        return [d for d, _, _ in by_name.get(name, [])]

    def notes(name):
        return [n for _, _, n in by_name.get(name, []) if n is not None]

    n_fits = len(by_name.get("solver.train", []))
    parse_s = sum(dur("data.parse_libsvm"))
    dv_points = sum(notes("model.decision_values"))
    col_us = [d * 1e6 for d in dur("kernels.signed_columns_all")]
    n_ops = max(len(ops), 1)
    out = {
        "data.parse_libsvm_s": median_or_zero(dur("data.parse_libsvm")),
        "data.parse_libsvm_mb_per_s": sum(notes("data.parse_libsvm")) / 1e6 / parse_s if parse_s else 0.0,
        "data.split_s": median_or_zero(dur("data.split")),
        "data.fit_scaling_s": median_or_zero(dur("data.fit_scaling")),
        "data.apply_scaling_s": median_or_zero(dur("data.apply_scaling")),
        "kernels.bind_s": median_or_zero(dur("kernels.bind")),
        "kernels.signed_columns_all_calls": len(col_us) / n_fits if n_fits else 0.0,
        "kernels.signed_columns_all_us.p50": percentile(col_us, 50),
        "kernels.signed_columns_all_us.p99": percentile(col_us, 99),
        "kernels.signed_columns_all_share": column_time_in_train / train_time if train_time else 0.0,
        "kernels.column_bytes": median_or_zero(notes("kernels.bind")),
        "kernels.column_repeat_share_w64": repeat_share(requests),
        "solver.iterations": median_or_zero([t for t, _ in fits]),
        "solver.apply_update_self_us": median_or_zero([o * 1e6 for _, o, _ in by_name.get("solver.apply_update", [])]),
        "solver.exponentiate_m_us": median_or_zero([d * 1e6 for d in dur("solver.exponentiate_m")]),
        "solver.loop_other_us": median_or_zero([own / t * 1e6 for t, own in fits if t]),
        "solver.quash_iters": sum(1 for q in notes("solver.exponentiate_m") if q) / n_fits if n_fits else 0.0,
        "model.extract_weights_s": median_or_zero(dur("model.extract_weights")),
        "model.compute_bias_s": median_or_zero(dur("model.compute_bias")),
        "model.n_support": median_or_zero(notes("model.model_from_state") or notes("model.load_model")),
        "model.decision_values_us_per_point": sum(dur("model.decision_values")) / dv_points * 1e6 if dv_points else 0.0,
        "model.save_model_s": median_or_zero(dur("model.save_model")),
        "model.load_model_s": median_or_zero(dur("model.load_model")),
        "cli.run_protocol_s": median_or_zero(dur("cli.run_protocol")),
        "cli.fits": n_fits / n_ops,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = median_or_zero([s[layer] for s in per_op_self])
    return out
