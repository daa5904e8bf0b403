"""Inputs, set-up, operations and correctness checks of each workload.

Every operation is one `mklmmwu` CLI command run in-process through
`mklmmwu.cli.main`. Inputs come from `make_inputs`, which belongs to the
benchmark so that edits to the test helpers cannot change them; they are
written to LibSVM files during set-up, and the program reads only those.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from mklmmwu import cli
from mklmmwu.data import apply_scaling, parse_libsvm, split
from mklmmwu.model import decision_values, load_model, serialize_model

POS_SHARE = 0.64
# (class shift, noise) of the six signal features; the other features are noise.
SIGNAL = ((0.30, 0.16), (0.26, 0.16), (0.24, 0.18), (0.22, 0.18), (0.20, 0.20), (0.18, 0.20))
EPS = 0.2
RHO = 1.5  # the solver's default width bound for trace-normalized kernels


class CheckFailed(Exception):
    """An operation returned, but its output failed a correctness check."""


def make_inputs(n: int, d: int, seed: int):
    """Class signal spread additively over six features, the rest uniform
    noise in [0,1]; about 64% positive labels. Same seed, same inputs."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    labels = np.where(rng.random(n) < POS_SHARE, 1.0, -1.0)
    for f, (shift, noise) in enumerate(SIGNAL):
        pts[:, f] = np.clip(0.5 + labels * (shift / 2.0) + noise * rng.normal(size=n), 0.0, 1.0)
    check_inputs(pts, labels, n, d)
    return pts, labels


def check_inputs(pts, labels, n: int, d: int) -> None:
    """The shape and class balance make_inputs promises: (n, d) points in
    [0,1], labels +-1, positive share within 5 standard errors of 64%."""
    if pts.shape != (n, d) or labels.shape != (n,):
        raise ValueError(f"generator made {pts.shape} points, {labels.shape} labels; wanted ({n}, {d})")
    if not (np.isfinite(pts).all() and pts.min() >= 0.0 and pts.max() <= 1.0):
        raise ValueError("generated points leave [0,1]")
    if not np.isin(labels, (-1.0, 1.0)).all():
        raise ValueError("generated labels are not +-1")
    share = float((labels > 0).mean())
    if abs(share - POS_SHARE) > 5.0 * math.sqrt(POS_SHARE * (1.0 - POS_SHARE) / n):
        raise ValueError(f"positive share {share:.3f} is far from {POS_SHARE}")


def write_libsvm(path, pts, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(pts, labels):
            feats = " ".join(f"{j + 1}:{v:.17g}" for j, v in enumerate(x) if v != 0.0)
            fh.write(f"{'+1' if y > 0 else '-1'} {feats}\n")


def run_cli(argv):
    """cli.main with its report captured; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def report_pairs(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def iteration_budget(n: int, eps: float = EPS) -> int:
    """ceil((8 rho^2 / eps^2) ln n), computed here rather than by the program."""
    return math.ceil((8.0 * RHO**2 / eps**2) * math.log(n))


def _raw_gram(spec, pts) -> np.ndarray:
    """kappa(x_j, x_k) over the rows of pts, without ridge or normalizer."""
    x = pts if spec.feature is None else pts[:, [spec.feature]]
    dot = x @ x.T
    if spec.kind == "poly":
        return (dot + 1.0) ** int(spec.param)
    sq = np.einsum("ij,ij->i", x, x)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * dot, 0.0)
    return np.exp(d2 * (-0.5 / spec.param**2))


def weighted_quadform(model) -> float:
    """sum_i mu_i qhat_i, with qhat_i = c' Y (K_i + ridge_i I) Y c / r_i over the
    support set, where c are the normalized dual coefficients."""
    c = model.support_coefs * model.support_labels
    total = 0.0
    for spec, mu in zip(model.specs, model.mu):
        quad = c @ _raw_gram(spec, model.support_points) @ c + spec.ridge * (c @ c)
        total += mu * quad / spec.r
    return float(total)


def check_trained_model(report: dict, model_path, data_path, seed: int) -> float:
    """Checks of one `train` command; returns its held-out error.

    - T equals the iteration budget for the training size;
    - each class's normalized dual sums to 1/2 and sum_i mu_i qhat_i = 1;
    - the saved file round-trips exactly, so the loaded model carries the
      in-memory model's parameters bit for bit, and the loaded model
      reproduces the train and test errors the in-memory model reported,
      with every decision value finite.
    """
    n = int(report["n"])
    if int(report["T"]) != iteration_budget(n):
        raise CheckFailed(f"T={report['T']}, budget for n={n} is {iteration_budget(n)}")
    with open(model_path, encoding="utf-8") as fh:
        text = fh.read()
    model = load_model(text)
    if serialize_model(model) != text:
        raise CheckFailed("saved model does not round-trip exactly")
    for cls in (1.0, -1.0):
        mass = float(model.support_coefs[model.support_labels == cls].sum())
        if abs(mass - 0.5) > 1e-9:
            raise CheckFailed(f"dual mass {mass!r} of class {cls:+g} is not 1/2")
    quad = weighted_quadform(model)
    if abs(quad - 1.0) > 1e-8:
        raise CheckFailed(f"sum_i mu_i qhat_i = {quad!r}, not 1")
    with open(data_path, encoding="utf-8") as fh:
        data = parse_libsvm(fh)
    train_ds, test_ds = split(data, 0.8, seed)
    for ds, key in ((train_ds, "train_error"), (test_ds, "test_error")):
        vals = decision_values(model, apply_scaling(ds, model.scaling).points)
        if not np.isfinite(vals).all():
            raise CheckFailed("non-finite decision value")
        wrong = int((np.where(vals >= 0.0, 1.0, -1.0) != ds.labels).sum())
        if f"{wrong / ds.n:.6f}" != report[key]:
            raise CheckFailed(f"loaded model gives {key} {wrong / ds.n:.6f}, trainer reported {report[key]}")
    return float(report["test_error"])


class Workload:
    """One workload: its inputs, the command it repeats, and the checks."""

    name = ""
    jobs = 1  # worker processes the command uses
    setup_repeats = 11
    #: index of the first operation that counts towards warm_s; the first one
    #: in the fresh process pays its cold start
    warm_from = 1
    #: traced layer boundaries that every operation must cross
    expected: tuple[str, ...] = ()

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.model_path = os.path.join(workdir, "model.txt")
        self.data_path = os.path.join(workdir, "data.libsvm")

    def setup(self) -> int:
        """Write the inputs; returns the number of checked operations it ran."""
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, output: str) -> float:
        """Raise CheckFailed unless the output is right; return its held-out error."""
        raise NotImplementedError

    def check_saved(self, in_memory) -> None:
        """Traced operations only: the model the command saved, as it was in memory."""


TRAIN_BOUNDARIES = (
    "data.parse_libsvm", "data.split", "data.fit_scaling", "data.apply_scaling",
    "kernels.bind", "kernels.signed_columns_all",
    "solver.train", "solver.apply_update", "solver.exponentiate_m",
    "model.model_from_state", "model.extract_weights", "model.compute_bias",
    "model.decision_values",
)


class TrainWorkload(Workload):
    n = d = 0
    flags: tuple[str, ...] = ()
    expected = TRAIN_BOUNDARIES + ("model.save_model",)

    def setup(self):
        write_libsvm(self.data_path, *make_inputs(self.n, self.d, self.seed))
        return 0

    def argv(self):
        return ["train", "--data", self.data_path, "--out", self.model_path,
                "--eps", str(EPS), "--seed", str(self.seed), *self.flags]

    def check(self, output):
        return check_trained_model(report_pairs(output), self.model_path, self.data_path, self.seed)

    def check_saved(self, in_memory):
        """The loaded model's decision values equal the in-memory model's bit for bit."""
        with open(self.model_path, encoding="utf-8") as fh:
            loaded = load_model(fh)
        with open(self.data_path, encoding="utf-8") as fh:
            points = apply_scaling(parse_libsvm(fh), loaded.scaling).points
        if not np.array_equal(decision_values(loaded, points), decision_values(in_memory, points)):
            raise CheckFailed("the loaded model's decision values differ from the in-memory model's")


class TrainPerFeature(TrainWorkload):
    name = "train-perfeat"
    n, d = 351, 33
    flags = ("--per-feature-kernels", "--C", "10")


class TrainAllFeature(TrainWorkload):
    name = "train-allfeat"
    n, d = 5000, 33
    flags = ("--margin", "hard")


class EvalBatch(Workload):
    name = "eval-batch"
    setup_repeats = 3
    queries = 5000
    expected = ("data.parse_libsvm", "data.apply_scaling", "model.load_model", "model.decision_values")

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.query_path = os.path.join(workdir, "queries.libsvm")
        self.expected_error = None

    def setup(self):
        pts, labels = make_inputs(TrainPerFeature.n + self.queries, TrainPerFeature.d, self.seed)
        k = TrainPerFeature.n
        write_libsvm(self.data_path, pts[:k], labels[:k])
        write_libsvm(self.query_path, pts[k:], labels[k:])
        trainer = TrainPerFeature(self.workdir, self.seed)
        code, output = run_cli(trainer.argv())
        if code != 0:
            raise CheckFailed(f"set-up training exited with {code}")
        trainer.check(output)
        return 1

    def reference_error(self) -> str:
        """The saved model's error on the queries, every decision value finite."""
        with open(self.model_path, encoding="utf-8") as fh:
            model = load_model(fh)
        with open(self.query_path, encoding="utf-8") as fh:
            queries = parse_libsvm(fh, n_features=model.d)
        vals = decision_values(model, apply_scaling(queries, model.scaling).points)
        if not np.isfinite(vals).all():
            raise CheckFailed("non-finite decision value on the queries")
        wrong = int((np.where(vals >= 0.0, 1.0, -1.0) != queries.labels).sum())
        return f"{wrong / queries.n:.6f}"

    def argv(self):
        return ["eval", "--model", self.model_path, "--data", self.query_path]

    def check(self, output):
        if self.expected_error is None:  # computed once, after the first eval
            self.expected_error = self.reference_error()
        report = report_pairs(output)
        if int(report["n"]) != self.queries:
            raise CheckFailed(f"eval scored {report['n']} queries, not {self.queries}")
        if report["test_error"] != self.expected_error:
            raise CheckFailed(f"eval error {report['test_error']}, saved model gives {self.expected_error}")
        return float(report["test_error"])


class CvProtocol(Workload):
    name = "cv-protocol"
    jobs = 2
    # Every cv command forks fresh pool workers, which do all the fitting, so
    # its first command is no colder than the others and counts as well.
    warm_from = 0
    repeats = 2
    c_grid = ("0.1", "100")
    expected = ("cli.run_protocol",) + TRAIN_BOUNDARIES

    def setup(self):
        write_libsvm(self.data_path, *make_inputs(TrainPerFeature.n, TrainPerFeature.d, self.seed))
        return 0

    def argv(self):
        return ["cv", "--data", self.data_path, "--per-feature-kernels", "--eps-grid", str(EPS),
                "--C-grid", *self.c_grid, "--folds", "2", "--repeats", str(self.repeats),
                "--jobs", str(self.jobs), "--seed", str(self.seed)]

    def check(self, output):
        lines = output.splitlines()
        report = report_pairs(output)
        if int(report["repeats"]) != self.repeats:
            raise CheckFailed(f"cv returned {report['repeats']} of {self.repeats} repeats")
        start = lines.index("eps      C        mean_cv_error") + 1
        cells = [line.split() for line in lines[start:start + len(self.c_grid)]]
        if sorted(float(c[1]) for c in cells) != sorted(float(c) for c in self.c_grid):
            raise CheckFailed("cv table lacks a grid cell")
        errors = [float(c[2]) for c in cells] + [float(report["median_test_error"])]
        if not all(0.0 <= e <= 1.0 for e in errors):
            raise CheckFailed(f"cv error outside [0,1]: {errors}")
        return errors[-1]


WORKLOADS = {w.name: w for w in (TrainPerFeature, TrainAllFeature, EvalBatch, CvProtocol)}
