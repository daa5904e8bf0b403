"""Multiplicative-weights training loop for the multi-kernel margin problem.

The trainer runs T = ceil((8 rho^2 / eps^2) ln n) rounds. Each round picks the
worst-margin point of each class from the violation vector g, adds 1/2 to
both dual coordinates, refreshes the O(m n) caches with two raw kernel
columns per kernel, and recomputes the primal block coefficients in closed
form. No n x n matrix is ever formed: the primal matrix is an exponential of
arrow matrices, which collapses to a cosh/sinh pair per kernel.

The kernel cache is kept in pick counts: with c = 2 alpha_bar (how often each
point was chosen, an integer vector), the solver keeps
w_i = (K_i + ridge_i I)(y * c), unsigned and without 1/r_i, and the quadforms
q_i = alpha_bar' G_i alpha_bar with G_i = Y (K_i + ridge_i I) Y / r_i. Labels,
1/r_i and the factor 2 between c and alpha_bar live only in O(m) vectors, and
the ridge only in two entries per kernel and step:

- q_i grows by (w_i[jp] - w_i[jm]) / (2 r_i)
  + (K_i[jp,jp] + K_i[jm,jm] - 2 K_i[jp,jm] + 2 ridge_i) / (4 r_i);
- g = y * (c' @ w) with c'_i = p12_i / (sqrt(q_i) r_i);
- w_i moves by the raw K_i[:,jp] - K_i[:,jm] in one unscaled pass, plus
  ridge_i at jp and -ridge_i at jm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleDual, NumericalFailure
from .kernels import GramAccessor, bind


@dataclass
class SolverConfig:
    """Training knobs.

    eps is the target approximation error; rho the spectral width bound,
    3/2 for trace-normalized kernels. Margin is "hard" or "l2" (2-norm soft
    margin with parameter C, realized as ridge = 1/C on each kernel).
    quash_threshold switches cosh/sinh to a shifted exp once the largest
    exponent would otherwise overflow; the shift cancels in normalization.
    """

    eps: float
    rho: float = 1.5
    margin: str = "hard"
    C: float | None = None
    quash_threshold: float = 20.0
    max_iters_override: int | None = None
    min_quadform: float = 1e-12

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        if self.eps >= 2.0 * self.rho:
            raise ValueError("eps must be smaller than 2*rho")
        if self.margin not in ("hard", "l2"):
            raise ValueError("margin must be 'hard' or 'l2'")
        if self.margin == "l2" and (self.C is None or not self.C > 0.0):
            raise ValueError("2-norm margin requires C > 0")
        if not self.quash_threshold > 0.0:
            raise ValueError("quash_threshold must be positive")
        if self.max_iters_override is not None and self.max_iters_override < 1:
            raise ValueError("max_iters_override must be at least 1")

    @property
    def eps_prime(self) -> float:
        return -math.log1p(-self.eps / (2.0 * self.rho))


class DualUpdate(NamedTuple):
    """One sparse dual step: coordinate j_plus (label +1) and j_minus (label -1)
    each receive mass 1/2, so the step sums to 1 and is label-balanced."""

    j_plus: int
    j_minus: int


@dataclass
class SolverState:
    """Accumulated dual vector plus the incremental per-kernel caches.

    The signed, normalized G_i alpha_bar of the analysis is
    y * w_i / (2 r_i), which the loop never forms.
    """

    alpha_bar: np.ndarray  # (n,) accumulated dual, entries are multiples of 1/2
    w: np.ndarray  # (m, n) rows w_i = (K_i + ridge_i I)(y * 2 alpha_bar), unnormalized
    q: np.ndarray  # (m,) quadforms alpha_bar' G_i alpha_bar
    p12: np.ndarray  # (m,) normalized off-diagonal primal coefficients (<= 0)
    g: np.ndarray  # (n,) aggregate violation direction
    t: int
    e_m: float  # shared normalization carrier from the last exponentiation
    accessor: GramAccessor
    config: SolverConfig
    min_oracle_value: float = 0.0
    last_s_max: float = 0.0
    _col_plus: np.ndarray = field(default=None, repr=False)
    _col_minus: np.ndarray = field(default=None, repr=False)
    _step_quad_max: np.ndarray = field(default=None, repr=False)  # (m,) largest e' G_i e so far
    # per-kernel multiples the update formulas apply every iteration
    _half_inv_r: np.ndarray = field(default=None, repr=False)
    _quarter_inv_r: np.ndarray = field(default=None, repr=False)
    _two_ridge: np.ndarray | None = field(default=None, repr=False)  # None in hard-margin mode

    @property
    def max_step_width(self) -> float:
        """Largest step width max_i sqrt(e' G_i e) over the updates so far."""
        return math.sqrt(max(float(self._step_quad_max.max()), 0.0))

    @classmethod
    def fresh(cls, accessor: GramAccessor, config: SolverConfig) -> "SolverState":
        m, n = accessor.m, accessor.n
        return cls(
            alpha_bar=np.zeros(n),
            w=np.zeros((m, n)),
            q=np.zeros(m),
            p12=np.zeros(m),
            g=np.zeros(n),
            t=0,
            e_m=1.0,
            accessor=accessor,
            config=config,
            _col_plus=np.empty((m, n)),
            _col_minus=np.empty((m, n)),
            _step_quad_max=np.zeros(m),
            _half_inv_r=0.5 * accessor.inv_r,
            _quarter_inv_r=0.25 * accessor.inv_r,
            _two_ridge=2.0 * accessor.ridge if accessor.ridge.any() else None,
        )


def iteration_budget(config: SolverConfig, n: int) -> int:
    """ceil((8 rho^2 / eps^2) ln n), unless overridden."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if config.max_iters_override is not None:
        return int(config.max_iters_override)
    return int(math.ceil((8.0 * config.rho**2 / config.eps**2) * math.log(n)))


def _find_pair(g: np.ndarray, pos_idx: np.ndarray, neg_idx: np.ndarray) -> tuple[int, int]:
    """Highest-violation point of each class; argmax takes the first maximum."""
    return int(pos_idx[g[pos_idx].argmax()]), int(neg_idx[g[neg_idx].argmax()])


def find_alpha(g: np.ndarray, labels: np.ndarray) -> DualUpdate:
    """Pick the highest-violation point of each class from g; ties break
    toward the lowest index."""
    g = np.asarray(g, dtype=np.float64)
    pos_idx = np.flatnonzero(labels > 0)
    neg_idx = np.flatnonzero(labels < 0)
    if pos_idx.size == 0 or neg_idx.size == 0:
        raise InfeasibleDual("both label classes are required")
    return DualUpdate(*_find_pair(g, pos_idx, neg_idx))


def apply_update(state: SolverState, update, accessor: GramAccessor) -> SolverState:
    """Add 1/2 to both chosen coordinates and refresh w and q incrementally.

    `update` is a DualUpdate or a plain (j_plus, j_minus) pair; j_plus must
    carry label +1 and j_minus label -1, which the update formulas in the
    module docstring assume. Cost is O(m n) plus one raw kernel column per
    kernel and chosen point. The q update reads w before w moves.
    """
    jp, jm = update
    kp = accessor.signed_columns_all(jp, out=state._col_plus)
    km = accessor.signed_columns_all(jm, out=state._col_minus)
    w = state.w
    np.subtract(kp, km, out=kp)
    # K_i is symmetric, so K[jp,jp] + K[jm,jm] - 2 K[jp,jm] is a difference
    # of two entries of K[:, jp] - K[:, jm]
    step_quad = kp[:, jp] - kp[:, jm]
    cross = w[:, jp] - w[:, jm]
    if state._two_ridge is not None:
        step_quad += state._two_ridge
    step_quad *= state._quarter_inv_r
    cross *= state._half_inv_r
    cross += step_quad
    state.q += cross
    np.maximum(state._step_quad_max, step_quad, out=state._step_quad_max)
    w += kp
    if state._two_ridge is not None:
        w[:, jp] += accessor.ridge
        w[:, jm] -= accessor.ridge
    state.alpha_bar[jp] += 0.5
    state.alpha_bar[jm] += 0.5
    state.t += 1
    return state


def exponentiate_m(
    state: SolverState,
    eps_prime: float,
    rho: float,
    quash_threshold: float = 20.0,
    min_quadform: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form primal refresh: per-kernel cosh/sinh coefficients and g.

    Per kernel, s_i = (eps'/(2 rho)) sqrt(q_i). Below the quash threshold the
    exact cosh/sinh pair is used; above it both are replaced by exp shifted
    down by max_k s_k, with the shift recorded in e_m so the trace normalizer
    S = m (n-1) e_m + 2 sum_i p11_i stays in consistent units. The sinh block
    carries a minus sign, which points g toward margin violators. Kernels
    whose quadform sits below min_quadform contribute nothing to g, which is
    read from the raw cache as in the module docstring.
    """
    acc = state.accessor
    m, n = state.w.shape
    u_raw = np.sqrt(np.maximum(state.q, 0.0))
    s = (eps_prime / (2.0 * rho)) * u_raw
    s_max = float(np.maximum.reduce(s))
    if s_max < quash_threshold:
        p11 = np.cosh(s)
        p12 = np.sinh(s)
        e_m = 1.0
    else:
        p11 = np.exp(s - s_max)
        p12 = p11.copy()
        e_m = math.exp(-s_max)
    p12 /= -(m * (n - 1) * e_m + 2.0 * float(np.add.reduce(p11)))
    coef = np.divide(p12, u_raw, out=np.zeros(m), where=u_raw >= min_quadform)
    coef *= acc.inv_r
    g = np.dot(coef, state.w)  # np.dot: same BLAS call as @, less dispatch
    g *= acc.labels
    state.p12 = p12
    state.g = g
    state.e_m = e_m
    state.last_s_max = s_max
    return p12, g


def arrow_exp(a: float, u) -> np.ndarray:
    """Exact exponential of the (n+1)x(n+1) arrow matrix [[a I, u], [u', a]].

    Eigenvalues are a (multiplicity n-1) and a +/- |u|, which assembles into
    e^a [cosh|u| uu' / |u|^2 + (I - uu'/|u|^2)] on the top-left block,
    e^a sinh|u| u/|u| on the borders, and e^a cosh|u| in the corner.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty vector")
    n = u.size
    ea = math.exp(a)
    out = np.zeros((n + 1, n + 1))
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        np.fill_diagonal(out, ea)
        return out
    uhat = u / norm
    ch = math.cosh(norm)
    sh = math.sinh(norm)
    top = (ch - 1.0) * np.outer(uhat, uhat)
    top[np.diag_indices(n)] += 1.0
    out[:n, :n] = ea * top
    border = (ea * sh) * uhat
    out[:n, n] = border
    out[n, :n] = border
    out[n, n] = ea * ch
    return out


def train(dataset, specs, config: SolverConfig, trace=None) -> tuple[SolverState, int]:
    """Run the full primal-dual loop and return the final state.

    Deterministic for fixed inputs. `trace`, when given, receives one text
    line per iteration (iteration, chosen pair, max_i s_i, g' alpha_t).
    Raises InfeasibleDual when a class is missing and NumericalFailure with
    the iteration index if q turns non-finite, or g: a NaN or +inf in g shows
    at the next pair selection, any other non-finite g after the last
    iteration.
    """
    y = dataset.labels
    pos_idx = np.flatnonzero(y > 0)
    neg_idx = np.flatnonzero(y < 0)
    if pos_idx.size == 0 or neg_idx.size == 0:
        raise InfeasibleDual("training data must contain both classes")
    accessor = bind(specs, dataset, C=config.C, margin_mode=config.margin)
    total = iteration_budget(config, dataset.n)
    state = SolverState.fresh(accessor, config)
    eps_prime = config.eps_prime
    for t in range(1, total + 1):
        g = state.g
        update = _find_pair(g, pos_idx, neg_idx)
        oracle_value = 0.5 * float(g[update[0]] + g[update[1]])
        if not math.isfinite(oracle_value):
            # argmax takes a NaN or +inf of either class, so the g of the
            # previous iteration was not finite
            raise NumericalFailure(t - 1)
        if oracle_value < state.min_oracle_value:
            state.min_oracle_value = oracle_value
        apply_update(state, update, accessor)
        exponentiate_m(
            state,
            eps_prime,
            config.rho,
            quash_threshold=config.quash_threshold,
            min_quadform=config.min_quadform,
        )
        if not math.isfinite(state.last_s_max):  # NaN or infinite exactly when q is
            raise NumericalFailure(t)
        if trace is not None:
            trace.write(
                f"iter={t} j_plus={update[0]} j_minus={update[1]} "
                f"s_max={state.last_s_max:.6g} oracle_value={oracle_value:.6g}\n"
            )
    if not np.isfinite(state.g).all():
        raise NumericalFailure(total)
    return state, total
