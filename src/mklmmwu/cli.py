"""Command-line driver: train, eval, and cross-validate.

Reports are line-delimited key=value records on stdout, with an optional CSV
sink. Exit codes: 0 ok, 2 usage, 3 data or model problem, 4 numerical
failure during training.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, apply_scaling, fit_scaling, parse_libsvm, split
from .errors import MklError, NumericalFailure
from .kernels import make_default_family
from .model import (
    error_rate,
    load_model_from_path,
    model_from_state,
    predict_many,
    save_model_to_path,
)
from .solver import SolverConfig, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass
class RunReport:
    """One training or evaluation outcome, printable as key=value lines."""

    dataset: str
    n: int
    d: int
    m: int
    eps: float
    C: float | None
    margin: str
    T: int
    wall_seconds: float
    train_error: float | None = None
    test_error: float | None = None
    active_kernels: int | None = None
    extra: dict = field(default_factory=dict)

    def to_pairs(self) -> list[tuple[str, str]]:
        pairs = [
            ("dataset", self.dataset),
            ("n", str(self.n)),
            ("d", str(self.d)),
            ("m", str(self.m)),
            ("eps", f"{self.eps:g}"),
            ("C", "none" if self.C is None else f"{self.C:g}"),
            ("margin", self.margin),
            ("T", str(self.T)),
            ("wall_seconds", f"{self.wall_seconds:.3f}"),
        ]
        if self.train_error is not None:
            pairs.append(("train_error", f"{self.train_error:.6f}"))
        if self.test_error is not None:
            pairs.append(("test_error", f"{self.test_error:.6f}"))
        if self.active_kernels is not None:
            pairs.append(("active_kernels", str(self.active_kernels)))
        pairs.extend((k, str(v)) for k, v in self.extra.items())
        return pairs

    def print(self, out=None) -> None:
        out = out if out is not None else sys.stdout
        for key, value in self.to_pairs():
            out.write(f"{key}={value}\n")

    def append_csv(self, path) -> None:
        pairs = self.to_pairs()
        new_file = not os.path.exists(path)
        with open(path, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if new_file:
                writer.writerow([k for k, _ in pairs])
            writer.writerow([v for _, v in pairs])


def _config_from(eps, margin, C, max_iters=None) -> SolverConfig:
    return SolverConfig(
        eps=eps,
        margin=margin,
        C=C if margin == "l2" else None,
        max_iters_override=max_iters,
    )


def _load_dataset(path, n_features=None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, n_features=n_features)


def _family_for(d, per_feature, kernels):
    family = make_default_family(d, per_feature=per_feature)
    if not per_feature and kernels != 12:
        raise ValueError("only the 12-kernel base family is supported")
    return family


def stratified_folds(labels: np.ndarray, k: int, seed: int):
    """Round-robin per-class assignment: fold class ratios stay within one
    sample of the global ratio. Yields (train_idx, val_idx) pairs."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in (1.0, -1.0):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        for pos, j in enumerate(idx):
            folds[pos % k].append(int(j))
    all_idx = set(range(labels.size))
    out = []
    for f in folds:
        val = np.array(sorted(f), dtype=np.intp)
        trn = np.array(sorted(all_idx - set(f)), dtype=np.intp)
        out.append((trn, val))
    return out


def median_ci(values, confidence=0.95):
    """Order-statistic confidence interval for the median (sign-test bounds)."""
    xs = sorted(values)
    n = len(xs)
    if n < 6:
        return xs[0], xs[-1]
    tail = (1.0 - confidence) / 2.0
    cdf = 0.0
    lo_rank = 0
    for k in range(n + 1):
        term = math.comb(n, k) * 0.5**n
        if cdf + term > tail:
            lo_rank = k
            break
        cdf += term
    lo_rank = max(lo_rank, 1)
    hi_rank = n + 1 - lo_rank
    return xs[lo_rank - 1], xs[hi_rank - 1]


def _train_once(train_ds, test_ds, per_feature, kernels, eps, margin, C, max_iters, verbose=False):
    """Scale on train only, fit, and report errors on both sides."""
    scaling = fit_scaling(train_ds)
    train_scaled = apply_scaling(train_ds, scaling)
    family = _family_for(train_ds.d, per_feature, kernels)
    config = _config_from(eps, margin, C, max_iters)
    t0 = time.perf_counter()
    state, total = train(train_scaled, family, config, trace=sys.stderr if verbose else None)
    model = model_from_state(state, scaling=scaling)
    wall = time.perf_counter() - t0
    train_err = error_rate(model, train_scaled)
    test_err = None
    if test_ds is not None:
        test_err = error_rate(model, apply_scaling(test_ds, scaling))
    return model, RunReport(
        dataset="",
        n=train_ds.n,
        d=train_ds.d,
        m=len(family),
        eps=eps,
        C=C if margin == "l2" else None,
        margin=margin,
        T=total,
        wall_seconds=wall,
        train_error=train_err,
        test_error=test_err,
        active_kernels=int((model.mu > 1e-6).sum()),
    )


def cmd_train(args) -> int:
    data = _load_dataset(args.data)
    if args.test:
        train_ds = data
        test_ds = _load_dataset(args.test, n_features=data.d)
    else:
        train_ds, test_ds = split(data, args.train_fraction, args.seed)
    model, report = _train_once(
        train_ds,
        test_ds,
        args.per_feature_kernels,
        args.kernels,
        args.eps,
        args.margin,
        args.C,
        args.max_iters,
        verbose=args.verbose,
    )
    report.dataset = os.path.basename(args.data)
    if args.out:
        save_model_to_path(model, args.out)
    report.print()
    if args.csv:
        report.append_csv(args.csv)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model_from_path(args.model)
    data = _load_dataset(args.data, n_features=model.d)
    if data.d != model.d:
        raise MklError(f"data has {data.d} features, model expects {model.d}")
    if model.scaling is not None:
        data = apply_scaling(data, model.scaling)
    wrong = int((predict_many(model, data.points) != data.labels).sum())
    report = RunReport(
        dataset=os.path.basename(args.data),
        n=data.n,
        d=data.d,
        m=len(model.specs),
        eps=model.config.eps,
        C=model.config.C,
        margin=model.config.margin,
        T=0,
        wall_seconds=0.0,
        test_error=wrong / data.n,
        active_kernels=int((model.mu > 1e-6).sum()),
    )
    report.print()
    if args.csv:
        report.append_csv(args.csv)
    return EXIT_OK


def _grid_search(train_ds, eps_grid, c_grid, margin, folds, seed, per_feature, kernels, max_iters):
    """Mean stratified-CV error per grid cell; folds missing a class are skipped."""
    fold_idx = stratified_folds(train_ds.labels, folds, seed)
    table = {}
    for eps in eps_grid:
        for C in c_grid:
            errors = []
            for trn, val in fold_idx:
                fold_train = train_ds.subset(trn)
                fold_val = train_ds.subset(val)
                if not fold_train.has_both_classes() or fold_val.n == 0:
                    print("warning: skipping a fold without both classes", file=sys.stderr)
                    continue
                _, rep = _train_once(
                    fold_train, fold_val, per_feature, kernels, eps, margin, C, max_iters
                )
                errors.append(rep.test_error)
            if errors:
                table[(eps, C)] = sum(errors) / len(errors)
    return table


def _select_best(table):
    # Lowest mean error; ties prefer smaller C, then larger eps.
    return min(table.items(), key=lambda kv: (kv[1], kv[0][1], -kv[0][0]))[0]


def _protocol_repeat(payload):
    """One 80/20 repeat of the small-data protocol: CV on the train side,
    retrain at the chosen setting, score the held-out test side."""
    (points, labels, rep_seed, eps_grid, c_grid, margin, folds,
     per_feature, kernels, train_fraction, max_iters) = payload
    data = Dataset(points, labels)
    train_ds, test_ds = split(data, train_fraction, rep_seed)
    table = _grid_search(
        train_ds, eps_grid, c_grid, margin, folds, rep_seed, per_feature, kernels, max_iters
    )
    if not table:
        return None
    eps, C = _select_best(table)
    _, rep = _train_once(train_ds, test_ds, per_feature, kernels, eps, margin, C, max_iters)
    return {"eps": eps, "C": C, "test_error": rep.test_error, "table": table, "T": rep.T,
            "wall_seconds": rep.wall_seconds, "n": rep.n, "m": rep.m}


def run_protocol(
    data: Dataset,
    eps_grid,
    c_grid,
    margin="l2",
    folds=5,
    repeats=1,
    seed=0,
    per_feature=False,
    kernels=12,
    train_fraction=0.8,
    max_iters=None,
    jobs=1,
):
    """Repeated 80/20 evaluation with per-repeat CV; returns one record per repeat."""
    payloads = [
        (data.points, data.labels, seed + 7919 * r, tuple(eps_grid), tuple(c_grid),
         margin, folds, per_feature, kernels, train_fraction, max_iters)
        for r in range(repeats)
    ]
    if jobs > 1 and repeats > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_protocol_repeat, payloads))
    else:
        results = [_protocol_repeat(p) for p in payloads]
    return [r for r in results if r is not None]


def cmd_cv(args) -> int:
    data = _load_dataset(args.data)
    eps_grid = args.eps_grid or [args.eps]
    c_grid = args.C_grid or list(DEFAULT_C_GRID)
    results = run_protocol(
        data,
        eps_grid,
        c_grid,
        margin=args.margin,
        folds=args.folds,
        repeats=args.repeats,
        seed=args.seed,
        per_feature=args.per_feature_kernels,
        kernels=args.kernels,
        train_fraction=args.train_fraction,
        max_iters=args.max_iters,
        jobs=args.jobs,
    )
    if not results:
        print("error: every fold was skipped", file=sys.stderr)
        return EXIT_DATA

    # Aggregate the grid tables across repeats.
    agg: dict = {}
    for res in results:
        for cell, err in res["table"].items():
            agg.setdefault(cell, []).append(err)
    print("eps      C        mean_cv_error")
    for (eps, C) in sorted(agg, key=lambda c: (c[0], c[1])):
        errs = agg[(eps, C)]
        print(f"{eps:<8g} {C:<8g} {sum(errs) / len(errs):.6f}")

    chosen = [(r["eps"], r["C"]) for r in results]
    best = max(set(chosen), key=lambda c: (chosen.count(c), -c[1], c[0]))
    errors = [r["test_error"] for r in results]
    med = float(np.median(errors))
    lo, hi = median_ci(errors)
    print(f"best_eps={best[0]:g}")
    print(f"best_C={best[1]:g}")
    print(f"repeats={len(results)}")
    print(f"median_test_error={med:.6f}")
    print(f"median_ci_low={lo:.6f}")
    print(f"median_ci_high={hi:.6f}")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--margin", choices=("hard", "l2"), default="l2")
    p.add_argument("--kernels", type=int, choices=(12,), default=12)
    p.add_argument("--per-feature-kernels", action="store_true", dest="per_feature_kernels")
    p.add_argument("--train-fraction", type=float, default=0.8, dest="train_fraction")
    p.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--csv", default=None, help="append the report to this CSV file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mklmmwu",
        description="Multiple kernel learning by multiplicative-weights updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a report")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--test", default=None)
    p_train.add_argument("--out", default=None, help="model file path")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a saved model on a data file")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--csv", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_cv = sub.add_parser("cv", help="cross-validate over an (eps, C) grid")
    p_cv.add_argument("--data", required=True)
    p_cv.add_argument("--eps-grid", type=float, nargs="+", default=None, dest="eps_grid")
    p_cv.add_argument("--C-grid", type=float, nargs="+", default=None, dest="C_grid")
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--repeats", type=int, default=1)
    p_cv.add_argument("--jobs", type=int, default=1)
    _add_common(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    return parser


def _validate(args, parser):
    if getattr(args, "eps", None) is not None and args.eps <= 0:
        parser.error("--eps must be positive")
    if getattr(args, "eps_grid", None):
        if any(e <= 0 for e in args.eps_grid):
            parser.error("--eps-grid values must be positive")
    if getattr(args, "C", None) is not None and args.C <= 0:
        parser.error("--C must be positive")
    if getattr(args, "train_fraction", None) is not None:
        if not 0.0 < args.train_fraction < 1.0:
            parser.error("--train-fraction must lie in (0, 1)")
    if getattr(args, "max_iters", None) is not None and args.max_iters < 1:
        parser.error("--max-iters must be at least 1")
    if getattr(args, "folds", None) is not None and args.folds < 2:
        parser.error("--folds must be at least 2")
    if getattr(args, "repeats", None) is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MklError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
