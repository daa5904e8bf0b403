"""Kernel-weight extraction, the deployable classifier, and its file format."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, ScalingParams
from .errors import DegenerateModel, MalformedModel
from .kernels import KernelSpec, combined_kernel_row
from .solver import SolverConfig, SolverState, train

_HEADER = "mklmmwu v1"


@dataclass
class MklModel:
    """Kernel weights mu plus support coefficients, bias, and bound specs.

    Support coefficients are the normalized dual entries: each class's
    coefficients sum to 1/2, so the two class centroids they define are
    convex combinations. `scaling`, when present, records the train feature
    ranges so raw query points can be mapped into the model's [0,1] space.
    """

    specs: tuple[KernelSpec, ...]
    mu: np.ndarray  # (m,) nonnegative, sum_i mu_i * qhat_i = 1
    support_points: np.ndarray  # (k, d)
    support_labels: np.ndarray  # (k,) entries -1.0 or +1.0
    support_coefs: np.ndarray  # (k,) positive
    bias: float
    config: SolverConfig
    scaling: ScalingParams | None = None

    @property
    def d(self) -> int:
        return self.support_points.shape[1]

    @property
    def n_support(self) -> int:
        return self.support_points.shape[0]


def extract_weights(state: SolverState) -> np.ndarray:
    """Kernel weights mu_i = |2 p12_i| / sqrt(qhat_i), rescaled so that
    sum_i mu_i qhat_i = 1 (qhat is the quadform under the normalized dual).

    Kernels whose qhat sits below the quadform floor get weight 0; if that
    kills every kernel the model is degenerate.
    """
    if state.t < 1:
        raise ValueError("solver state has no completed iterations")
    t = float(state.t)
    qhat = state.q / (t * t)
    delta = state.config.min_quadform
    mu = np.zeros(state.q.shape[0])
    keep = qhat >= delta
    mu[keep] = np.abs(2.0 * state.p12[keep]) / np.sqrt(qhat[keep])
    total = float(mu @ qhat)
    if not total > 0.0:
        raise DegenerateModel("all kernel weights extracted as zero")
    mu /= total
    return mu


def compute_bias(state: SolverState, accessor, mu: np.ndarray) -> float:
    """Bias of the perpendicular bisector between the two class hull points.

    b = (|p_minus|^2 - |p_plus|^2) / 2 in the mu-weighted regularized kernel
    sum_i mu_i (K_i + ridge_i I) / r_i, with hull coefficients 2 alpha_bar / t.
    The cross terms cancel in the difference of the hull norms, which leaves
    b = -2/t^2 sum_i mu_i / r_i alpha_bar . (K_i + ridge_i I)(y alpha_bar),
    that is -1/t^2 sum_i mu_i / r_i alpha_bar . w_i in the solver's cache of
    pick counts: O(m n), with no kernel column.
    """
    t = float(state.t)
    return -1.0 / (t * t) * float((mu * accessor.inv_r) @ (state.w @ state.alpha_bar))


def model_from_state(state: SolverState, scaling: ScalingParams | None = None) -> MklModel:
    mu = extract_weights(state)
    bias = compute_bias(state, state.accessor, mu)
    sv = np.flatnonzero(state.alpha_bar > 0.0)
    t = float(state.t)
    return MklModel(
        specs=state.accessor.specs,
        mu=mu,
        support_points=state.accessor.dataset.points[sv].copy(),
        support_labels=state.accessor.labels[sv].copy(),
        support_coefs=state.alpha_bar[sv] / t,
        bias=bias,
        config=state.config,
        scaling=scaling,
    )


def fit(dataset: Dataset, specs, config: SolverConfig, scaling: ScalingParams | None = None, trace=None) -> MklModel:
    """Train on a scaled dataset and return the deployable classifier."""
    state, _ = train(dataset, specs, config, trace=trace)
    return model_from_state(state, scaling=scaling)


def decision_value(model: MklModel, x) -> float:
    """f(x) = sum_j 2 c_j y_j kappa_mu(x_j, x) + b with kappa_mu = sum_i mu_i kappa_i / r_i."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.d,):
        raise ValueError(f"query has shape {x.shape}, model expects ({model.d},)")
    coeffs = model.mu * np.array([1.0 / s.r for s in model.specs])
    row = combined_kernel_row(model.specs, coeffs, model.support_points, x)
    return float((2.0 * model.support_coefs * model.support_labels) @ row) + model.bias


def predict(model: MklModel, x) -> int:
    """Label sign of the decision value; exact zero maps to +1."""
    return 1 if decision_value(model, x) >= 0.0 else -1


def decision_values(model: MklModel, points: np.ndarray) -> np.ndarray:
    """Decision values for a whole query matrix, batched across kernels."""
    Q = np.asarray(points, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[1] != model.d:
        raise ValueError(f"queries have shape {Q.shape}, model expects (*, {model.d})")
    sv = model.support_points
    w_sv = 2.0 * model.support_coefs * model.support_labels
    coeffs = model.mu * np.array([1.0 / s.r for s in model.specs])
    acc = np.full(Q.shape[0], model.bias)
    ga, pa, by_feat = [], [], {}
    for i, s in enumerate(model.specs):
        if coeffs[i] == 0.0:
            continue
        if s.feature is None:
            (ga if s.kind == "gaussian" else pa).append(i)
        else:
            by_feat.setdefault(s.feature, []).append(i)
    if ga or pa:
        dot = Q @ sv.T
    if ga:
        sqd = (np.einsum("ij,ij->i", Q, Q)[:, None] + np.einsum("ij,ij->i", sv, sv)[None, :]) - 2.0 * dot
        for i in ga:
            acc += coeffs[i] * (np.exp((-0.5 / model.specs[i].param ** 2) * sqd) @ w_sv)
    if pa:
        base = dot + 1.0
        cur = base.copy()
        degs = [int(model.specs[i].param) for i in pa]
        for deg in range(1, max(degs) + 1):
            for i, d_i in zip(pa, degs):
                if d_i == deg:
                    acc += coeffs[i] * (cur @ w_sv)
            if deg < max(degs):
                cur *= base
    for feat, idxs in by_feat.items():
        diff = Q[:, feat][:, None] - sv[None, :, feat]
        d2 = None
        base = None
        cur = None
        for i in idxs:
            s = model.specs[i]
            if s.kind == "gaussian":
                if d2 is None:
                    d2 = np.square(diff)
                acc += coeffs[i] * (np.exp((-0.5 / s.param**2) * d2) @ w_sv)
            else:
                if base is None:
                    base = Q[:, feat][:, None] * sv[None, :, feat] + 1.0
                col = base.copy()
                for _ in range(int(s.param) - 1):
                    col *= base
                acc += coeffs[i] * (col @ w_sv)
    return acc


def predict_many(model: MklModel, points: np.ndarray) -> np.ndarray:
    vals = decision_values(model, points)
    return np.where(vals >= 0.0, 1.0, -1.0)


def error_rate(model: MklModel, dataset: Dataset) -> float:
    wrong = int((predict_many(model, dataset.points) != dataset.labels).sum())
    return wrong / dataset.n


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def save_model(model: MklModel, sink) -> None:
    """Write the line-based model file; floats carry 17 significant digits.

    Kernels with mu = 0 are omitted, which leaves predictions unchanged.
    """
    w = sink.write
    w(_HEADER + "\n")
    w(f"margin {model.config.margin}\n")
    if model.config.margin == "l2":
        w(f"C {_fmt(model.config.C)}\n")
    w(f"eps {_fmt(model.config.eps)}\n")
    w(f"rho {_fmt(model.config.rho)}\n")
    w(f"quash {_fmt(model.config.quash_threshold)}\n")
    w(f"dim {model.d}\n")
    if model.scaling is not None:
        w("scale_min " + " ".join(_fmt(v) for v in model.scaling.mins) + "\n")
        w("scale_max " + " ".join(_fmt(v) for v in model.scaling.maxs) + "\n")
    w(f"n_support {model.n_support}\n")
    w(f"bias {_fmt(model.bias)}\n")
    for spec, mu in zip(model.specs, model.mu):
        if mu == 0.0:
            continue
        scope = "all" if spec.feature is None else str(spec.feature)
        if spec.kind == "gaussian":
            w(f"gaussian {_fmt(spec.param)} {scope}\n")
        else:
            w(f"poly {int(spec.param)} {scope}\n")
        w(f"r {_fmt(spec.r)}\n")
        w(f"ridge {_fmt(spec.ridge)}\n")
        w(f"mu {_fmt(mu)}\n")
    for x, y, c in zip(model.support_points, model.support_labels, model.support_coefs):
        coords = " ".join(_fmt(v) for v in x)
        w(f"sv {'+1' if y > 0 else '-1'} {_fmt(c)} {coords}\n")


def save_model_to_path(model: MklModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        save_model(model, fh)


def serialize_model(model: MklModel) -> str:
    buf = io.StringIO()
    save_model(model, buf)
    return buf.getvalue()


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, expect: str | None = None) -> list[str]:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            raise MalformedModel(f"unexpected end of model file (wanted {expect or 'a record'})")
        no = self.pos + 1
        parts = self.lines[self.pos].split()
        self.pos += 1
        if expect is not None and parts[0] != expect:
            raise MalformedModel(f"line {no}: expected {expect!r}, found {parts[0]!r}")
        return parts

    def peek(self) -> str | None:
        pos = self.pos
        while pos < len(self.lines) and not self.lines[pos].strip():
            pos += 1
        return self.lines[pos].split()[0] if pos < len(self.lines) else None


def _floats(parts: list[str], count: int, what: str) -> list[float]:
    if len(parts) != count:
        raise MalformedModel(f"{what}: expected {count} fields, found {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise MalformedModel(f"{what}: {exc}") from None


def _finite(vals: list[float], what: str) -> list[float]:
    if not all(math.isfinite(v) for v in vals):
        raise MalformedModel(f"{what}: non-finite value")
    return vals


def _feature_index(field: str, dim: int) -> int:
    try:
        feature = int(field)
    except ValueError:
        raise MalformedModel(f"bad kernel feature {field!r}") from None
    if not 0 <= feature < dim:
        raise MalformedModel(f"kernel feature {feature} outside [0, {dim})")
    return feature


def load_model(source) -> MklModel:
    """Parse a model file (text or file object); raises MalformedModel."""
    text = source.read() if hasattr(source, "read") else source
    rd = _LineReader(text)
    header = rd.next()
    if " ".join(header) != _HEADER:
        raise MalformedModel(f"unsupported model header {' '.join(header)!r}")
    margin = rd.next("margin")[1]
    if margin not in ("hard", "l2"):
        raise MalformedModel(f"unknown margin mode {margin!r}")
    C = _floats(rd.next("C")[1:], 1, "C")[0] if margin == "l2" else None
    eps = _floats(rd.next("eps")[1:], 1, "eps")[0]
    rho = _floats(rd.next("rho")[1:], 1, "rho")[0]
    quash = _floats(rd.next("quash")[1:], 1, "quash")[0]
    try:
        dim = int(rd.next("dim")[1])
    except (IndexError, ValueError):
        raise MalformedModel("bad dim line") from None
    if dim < 1:
        raise MalformedModel(f"dim must be at least 1, found {dim}")
    scaling = None
    if rd.peek() == "scale_min":
        mins = _finite(_floats(rd.next("scale_min")[1:], dim, "scale_min"), "scale_min")
        maxs = _finite(_floats(rd.next("scale_max")[1:], dim, "scale_max"), "scale_max")
        try:
            scaling = ScalingParams(np.array(mins), np.array(maxs))
        except ValueError as exc:
            raise MalformedModel(str(exc)) from None
    try:
        n_support = int(rd.next("n_support")[1])
    except (IndexError, ValueError):
        raise MalformedModel("bad n_support line") from None
    if n_support < 0:
        raise MalformedModel(f"n_support must be nonnegative, found {n_support}")
    bias = _finite(_floats(rd.next("bias")[1:], 1, "bias"), "bias")[0]

    specs: list[KernelSpec] = []
    mus: list[float] = []
    while rd.peek() in ("gaussian", "poly"):
        parts = rd.next()
        if len(parts) != 3:
            raise MalformedModel(f"kernel line needs 3 fields, found {len(parts)}")
        kind = parts[0]
        try:
            param = float(parts[1])
        except ValueError:
            raise MalformedModel(f"bad kernel parameter {parts[1]!r}") from None
        feature = None if parts[2] == "all" else _feature_index(parts[2], dim)
        r = _floats(rd.next("r")[1:], 1, "r")[0]
        ridge = _floats(rd.next("ridge")[1:], 1, "ridge")[0]
        mu = _floats(rd.next("mu")[1:], 1, "mu")[0]
        if not (math.isfinite(mu) and mu >= 0.0):
            raise MalformedModel(f"kernel weight mu must be finite and nonnegative, found {mu}")
        try:
            specs.append(KernelSpec(kind, param, feature, r=r, ridge=ridge))
        except ValueError as exc:
            raise MalformedModel(str(exc)) from None
        mus.append(mu)
    if not specs:
        raise MalformedModel("model carries no kernels")

    pts = np.zeros((n_support, dim))
    labels = np.zeros(n_support)
    coefs = np.zeros(n_support)
    for k in range(n_support):
        parts = rd.next("sv")
        vals = _finite(_floats(parts[1:], dim + 2, "sv"), "sv")
        if vals[0] not in (-1.0, 1.0):
            raise MalformedModel(f"support label must be -1 or +1, found {vals[0]}")
        if not vals[1] > 0.0:
            raise MalformedModel(f"support coefficient must be positive, found {vals[1]}")
        labels[k] = vals[0]
        coefs[k] = vals[1]
        pts[k] = vals[2:]
    trailing = rd.peek()
    if trailing is not None:
        raise MalformedModel(f"unexpected trailing record {trailing!r}")
    try:
        config = SolverConfig(eps=eps, rho=rho, margin=margin, C=C, quash_threshold=quash)
    except ValueError as exc:
        raise MalformedModel(str(exc)) from None
    return MklModel(
        specs=tuple(specs),
        mu=np.array(mus),
        support_points=pts,
        support_labels=labels,
        support_coefs=coefs,
        bias=bias,
        config=config,
        scaling=scaling,
    )


def load_model_from_path(path) -> MklModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh)
