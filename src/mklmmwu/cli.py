"""Command-line driver: train, eval, and cross-validate.

Reports are line-delimited key=value records on stdout, with an optional CSV
sink. Exit codes: 0 ok, 2 usage, 3 data or model problem, 4 numerical
failure during training.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .data import Dataset, apply_scaling, fit_scaling, parse_libsvm, split
from .errors import MklError, NumericalFailure
from .kernels import make_default_family
from .model import MklModel, error_rate, fit, load_model, save_model
from .solver import SolverConfig, iteration_budget

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_EPS = 0.2
DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)


def _load_dataset(path, n_features=None, labels=None) -> Dataset:
    # utf-8-sig reads UTF-8 and drops a leading byte-order mark
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_libsvm(fh, n_features=n_features, labels=labels)


def stratified_folds(labels: np.ndarray, k: int, seed: int):
    """Round-robin per-class assignment: fold class ratios stay within one
    sample of the global ratio. Yields (train_idx, val_idx) pairs."""
    rng = np.random.default_rng(seed)
    fold = np.full(labels.size, -1, dtype=np.intp)
    for cls in (1.0, -1.0):
        idx = np.flatnonzero(labels == cls)
        fold[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % k
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]


def median_ci(values):
    """Order-statistic 95% confidence interval for the median (sign-test bounds)."""
    xs = sorted(values)
    n = len(xs)
    if n < 6:
        return xs[0], xs[-1]
    # lo_rank is the first k with P(Binomial(n, 1/2) <= k) above 0.025, each
    # tail of a two-sided 95% interval; exact integers, as 2^n outgrows a float
    term = count = 1  # C(n, k) and its running sum, at k = 0
    lo_rank, total = 0, 2**n
    while 40 * count <= total:
        term = term * (n - lo_rank) // (lo_rank + 1)
        count += term
        lo_rank += 1
    lo_rank = max(lo_rank, 1)
    hi_rank = n + 1 - lo_rank
    return xs[lo_rank - 1], xs[hi_rank - 1]


def _scaled_fit(train_ds: Dataset, opts, eps: float, C: float, trace=None) -> tuple[MklModel, float]:
    """Fit the [0,1] scaling on the train side only, then the model on the
    scaled train side. `opts` (train's arguments or the protocol's settings)
    gives margin, max_iters and per_feature_kernels; a hard margin reads no
    C. Returns the model and the seconds `fit` took."""
    scaling = fit_scaling(train_ds)
    scaled = apply_scaling(train_ds, scaling)
    family = make_default_family(train_ds.d, per_feature=opts.per_feature_kernels)
    C = C if opts.margin == "l2" else None
    config = SolverConfig(eps=eps, margin=opts.margin, C=C, max_iters_override=opts.max_iters)
    t0 = time.perf_counter()
    model = fit(scaled, family, config, scaling=scaling, trace=trace)
    return model, time.perf_counter() - t0


def _error(model: MklModel, raw: Dataset) -> float:
    """Error rate on unscaled points, mapped through the model's scaling."""
    return error_rate(model, raw if model.scaling is None else apply_scaling(raw, model.scaling))


def _report(args, n: int, model: MklModel, *, test_error, train_error=None, T=None, wall=None) -> None:
    """Print one report record as key=value lines and, with --csv, append it
    as one row under a header of the same keys. A key without a value (eval
    measures no train_error, T or wall time) is left off stdout and is an
    empty CSV cell."""
    config = model.config
    record = {
        "dataset": os.path.basename(args.data),
        "n": n,
        "d": model.d,
        "m": int((model.mu > 0.0).sum()),  # the kernels the model file keeps
        "eps": f"{config.eps:g}",
        "C": "none" if config.C is None else f"{config.C:g}",
        "margin": config.margin,
        "T": T,
        "wall_seconds": None if wall is None else f"{wall:.3f}",
        "train_error": None if train_error is None else f"{train_error:.6f}",
        "test_error": f"{test_error:.6f}",
        "active_kernels": int((model.mu > 1e-6).sum()),
    }
    for key, value in record.items():
        if value is not None:
            print(f"{key}={value}")
    if args.csv:
        _append_csv(args.csv, record)


def _append_csv(path, record: dict) -> None:
    """Append one row; a new or empty file gets the header first. A file
    with any other header is refused, so no row lands under the wrong key."""
    with open(path, "a+", newline="", encoding="utf-8") as fh:
        fh.seek(0)
        header = next(csv.reader(fh), None)
        if header is not None and header != list(record):
            raise ValueError(f"{path} has a different CSV header; not appending")
        writer = csv.writer(fh)
        if header is None:
            writer.writerow(record)
        writer.writerow(record.values())


def cmd_train(args) -> int:
    data = _load_dataset(args.data)
    if args.test:
        train_ds, test_ds = data, _load_dataset(args.test, n_features=data.d, labels=data.label_pair)
    else:
        train_ds, test_ds = split(data, args.train_fraction, args.seed)
    model, wall = _scaled_fit(train_ds, args, args.eps, args.C, trace=sys.stderr if args.verbose else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            save_model(model, fh)
    _report(args, train_ds.n, model, T=iteration_budget(model.config, train_ds.n), wall=wall,
            train_error=_error(model, train_ds), test_error=_error(model, test_ds))
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = load_model(fh)
    data = _load_dataset(args.data, n_features=model.d, labels=model.label_pair)
    _report(args, data.n, model, test_error=_error(model, data))
    return EXIT_OK


def _fold_sets(train_ds: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """The (train, val) sets of each stratified fold. A fold with an empty
    val side or a one-class train side is skipped with a warning."""
    sets = []
    for trn, val in stratified_folds(train_ds.labels, k, seed):
        if val.size == 0 or np.unique(train_ds.labels[trn]).size < 2:
            print("warning: skipping a fold without both classes", file=sys.stderr)
            continue
        sets.append((train_ds.subset(trn), train_ds.subset(val)))
    return sets


def _select_best(table):
    # Lowest mean error; ties prefer smaller C, then larger eps.
    return min(table.items(), key=lambda kv: (kv[1], kv[0][1], -kv[0][0]))[0]


def _protocol_repeat(payload):
    """One 80/20 repeat of the small-data protocol: CV on the train side,
    retrain at the chosen setting, score the held-out test side.

    `payload` is (data, seed, opts), where opts holds the settings
    `run_protocol` was given. Returns None if every fold was skipped."""
    data, seed, opts = payload
    train_ds, test_ds = split(data, opts.train_fraction, seed)
    folds = _fold_sets(train_ds, opts.folds, seed)
    if not folds:
        return None
    table = {}
    for eps in opts.eps_grid:
        for C in opts.c_grid:
            errors = [_error(_scaled_fit(trn, opts, eps, C)[0], val) for trn, val in folds]
            table[(eps, C)] = sum(errors) / len(errors)
    eps, C = _select_best(table)
    model, _ = _scaled_fit(train_ds, opts, eps, C)
    return {"eps": eps, "C": C, "test_error": _error(model, test_ds), "table": table}


def run_protocol(data: Dataset, eps_grid, c_grid, margin="l2", folds=5, repeats=1, seed=0,
                 per_feature=False, train_fraction=0.8, max_iters=None, jobs=1):
    """Repeated 80/20 evaluation with per-repeat CV. Returns one record per
    repeat that kept a fold: the chosen eps and C, the test error there, and
    the table of mean CV error per (eps, C)."""
    opts = argparse.Namespace(eps_grid=tuple(eps_grid), c_grid=tuple(c_grid), margin=margin, folds=folds,
                              per_feature_kernels=per_feature, train_fraction=train_fraction, max_iters=max_iters)
    payloads = [(data, seed + 7919 * r, opts) for r in range(repeats)]
    if jobs > 1 and repeats > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_protocol_repeat, payloads))
    else:
        results = [_protocol_repeat(p) for p in payloads]
    return [r for r in results if r is not None]


def cmd_cv(args) -> int:
    data = _load_dataset(args.data)
    results = run_protocol(
        data, args.eps_grid, args.C_grid, margin=args.margin,
        folds=args.folds, repeats=args.repeats, seed=args.seed, per_feature=args.per_feature_kernels,
        train_fraction=args.train_fraction, max_iters=args.max_iters, jobs=args.jobs,
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
    """The options that train and cv both read."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", choices=("hard", "l2"), default="l2")
    p.add_argument("--per-feature-kernels", action="store_true", dest="per_feature_kernels")
    p.add_argument("--train-fraction", type=float, default=0.8, dest="train_fraction")
    p.add_argument("--max-iters", type=int, default=None, dest="max_iters")


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
    p_train.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_train.add_argument("--C", type=float, default=1.0)
    p_train.add_argument("--verbose", action="store_true")
    p_train.add_argument("--csv", default=None, help="append the report to this CSV file")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a saved model on a data file")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--csv", default=None, help="append the report to this CSV file")
    p_eval.set_defaults(func=cmd_eval)

    # No prefix matching: train's --C would otherwise be read as --C-grid.
    p_cv = sub.add_parser("cv", help="cross-validate over an (eps, C) grid", allow_abbrev=False)
    p_cv.add_argument("--data", required=True)
    p_cv.add_argument("--eps-grid", type=float, nargs="+", default=(DEFAULT_EPS,), dest="eps_grid")
    p_cv.add_argument("--C-grid", type=float, nargs="+", default=DEFAULT_C_GRID, dest="C_grid")
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--repeats", type=int, default=1)
    p_cv.add_argument("--jobs", type=int, default=1)
    _add_common(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    return parser


def _validate(args, parser):
    """Bad settings exit 2. The solver's are checked by building the
    SolverConfig of every eps with every C the command reads (train's --eps
    and --C, cv's grids). C is checked as a 2-norm C in either margin mode,
    so it must be positive even where a hard margin ignores it."""
    if args.command != "eval":
        eps_values = [args.eps] if args.command == "train" else args.eps_grid
        c_values = [args.C] if args.command == "train" else args.C_grid
        try:
            for eps in eps_values:
                for C in c_values:
                    SolverConfig(eps=eps, margin="l2", C=C, max_iters_override=args.max_iters)
        except ValueError as exc:
            parser.error(str(exc))
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be nonnegative")
    if getattr(args, "train_fraction", None) is not None:
        if not 0.0 < args.train_fraction < 1.0:
            parser.error("--train-fraction must lie in (0, 1)")
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
