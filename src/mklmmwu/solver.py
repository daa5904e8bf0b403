"""Multiplicative-weights training loop for the multi-kernel margin problem.

The trainer runs T = ceil((8 rho^2 / eps^2) ln n) rounds. Each round picks the
worst-margin point of each class from the violation vector g, adds 1/2 to
both dual coordinates, refreshes the O(m n) caches with two raw kernel
columns per kernel, and recomputes the primal block coefficients in closed
form. No n x n matrix is ever formed: the primal matrix is an exponential of
arrow matrices, which collapses to a cosh/sinh pair per kernel.

The kernel cache is kept in pick counts: with c = 2 alpha_bar (how often each
point was chosen, an integer vector), the solver keeps
w_i = (K_i + ridge I)(y * c), unsigned and without 1/r_i, and the quadforms
q_i = alpha_bar' G_i alpha_bar with G_i = Y (K_i + ridge I) Y / r_i. Labels,
1/r_i and the factor 2 between c and alpha_bar live only in O(m) vectors, and
the ridge, one number per fit (`SolverConfig.ridge`), only in two entries per
kernel and step:

- q_i grows by (w_i[jp] - w_i[jm]) / (2 r_i)
  + (K_i[jp,jp] + K_i[jm,jm] - 2 K_i[jp,jm] + 2 ridge) / (4 r_i);
- g = y * (c' @ w) with c'_i = p12_i / (sqrt(q_i) r_i);
- w_i moves by the raw K_i[:,jp] - K_i[:,jm] in one unscaled pass, plus
  ridge at jp and -ridge at jm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleDual, NumericalFailure
from .kernels import GramAccessor, bind

#: Quadform floor. A kernel whose sqrt(q_i) (in `exponentiate_m`) or whose
#: qhat_i = q_i / t^2 (in `extract_weights` of model.py) sits below it
#: counts as zero: it adds nothing to g and gets weight 0.
MIN_QUADFORM = 1e-12

#: Largest iteration budget. Past 2^53 the iteration count t and the pick
#: counts c = 2 alpha_bar are no longer exact float64 integers, so neither the
#: support coefficients alpha_bar / t nor each class's dual mass of 1/2 would be.
MAX_BUDGET = 2**53

# 0-d arrays, which a ufunc takes without the per-call conversion of a float
_ZERO = np.array(0.0)
_MIN_QUADFORM = np.array(MIN_QUADFORM)


@dataclass
class SolverConfig:
    """Training knobs.

    eps is the target approximation error. Margin is "hard" or "l2" (2-norm
    soft margin with parameter C, realized as ridge = 1/C on each kernel); a
    hard margin takes no C. rho is the constant 3/2, the width bound proven
    for trace-normalized kernels. The budget is the one the additive regret
    bound gives with a proven width. The (1 + eps) factor is measured, not
    proven: it held on acceptance criterion 4's tiny instances and fails at
    the sizes the workloads run (tests/test_acceptance.py). eps must keep
    the budget at n = 2 within MAX_BUDGET, and C must keep 1/C finite.
    """

    eps: float
    margin: str = "hard"
    C: float | None = None
    max_iters_override: int | None = None

    rho = 1.5  # the spectral width bound; unannotated, so a constant, not a field
    quash_threshold = 20.0  # exponentiate_m's overflow guard; a constant too

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.eps >= 2.0 * self.rho:
            raise ValueError("eps must be smaller than 2*rho")
        if not _budget(self, 2) <= MAX_BUDGET:
            raise ValueError(f"eps {self.eps!r} is too small: the iteration budget exceeds 2^53 at any n")
        if self.margin not in ("hard", "l2"):
            raise ValueError("margin must be 'hard' or 'l2'")
        if self.margin == "l2" and (self.C is None or not self.C > 0.0):
            raise ValueError("2-norm margin requires C > 0")
        if self.margin == "l2" and not math.isfinite(1.0 / self.C):
            raise ValueError(f"C {self.C!r} is too small: the ridge 1/C overflows")
        if self.margin == "hard" and self.C is not None:
            raise ValueError("a hard margin takes no C")
        if self.max_iters_override is not None and not 1 <= self.max_iters_override <= MAX_BUDGET:
            raise ValueError("max_iters_override must be at least 1 and at most 2^53")

    @property
    def ridge(self) -> float:
        """The diagonal shift of every kernel: 1/C under a 2-norm soft margin,
        0 under a hard margin."""
        return 1.0 / self.C if self.margin == "l2" else 0.0

    @property
    def eps_prime(self) -> float:
        return -math.log1p(-self.eps / (2.0 * self.rho))


@dataclass
class SolverState:
    """Accumulated dual vector plus the incremental per-kernel caches.

    The signed, normalized G_i alpha_bar of the analysis is
    y * w_i / (2 r_i), which the loop never forms.
    """

    alpha_bar: np.ndarray  # (n,) accumulated dual, entries are multiples of 1/2
    w: np.ndarray  # (m, n) rows w_i = (K_i + ridge I)(y * 2 alpha_bar), unnormalized
    q: np.ndarray  # (m,) quadforms alpha_bar' G_i alpha_bar
    p12: np.ndarray  # (m,) normalized off-diagonal primal coefficients (<= 0)
    g: np.ndarray  # (n,) aggregate violation direction
    t: int
    e_m: float  # shared normalization carrier from the last exponentiation
    accessor: GramAccessor
    config: SolverConfig
    min_oracle_value: float = 0.0
    last_s_max: float = 0.0
    _step_quad_max: np.ndarray = field(default=None, repr=False)  # (m,) largest e' G_i e so far
    # per-kernel multiples the update formulas apply every iteration
    _half_inv_r: np.ndarray = field(default=None, repr=False)
    _quarter_inv_r: np.ndarray = field(default=None, repr=False)
    # 0-d arrays, as _ZERO
    _ridge: np.ndarray = field(default=None, repr=False)
    _two_ridge: np.ndarray = field(default=None, repr=False)
    _s_scale: np.ndarray = field(default=None, repr=False)  # eps' / (2 rho): s_i = _s_scale sqrt(q_i)

    @property
    def max_step_width(self) -> float:
        """Largest step width max_i sqrt(e' G_i e) over the updates so far."""
        return math.sqrt(max(float(self._step_quad_max.max()), 0.0))

    @classmethod
    def fresh(cls, accessor: GramAccessor, config: SolverConfig) -> "SolverState":
        """The state before the first step. ValueError unless the accessor
        is bound with `config.ridge`, as `train` binds it: its r_i carry it."""
        if accessor.ridge != config.ridge:
            raise ValueError(f"accessor ridge {accessor.ridge!r} is not the config's {config.ridge!r}")
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
            _step_quad_max=np.zeros(m),
            _half_inv_r=0.5 * accessor.inv_r,
            _quarter_inv_r=0.25 * accessor.inv_r,
            _ridge=np.array(config.ridge),
            _two_ridge=np.array(2.0 * config.ridge),
            _s_scale=np.array(config.eps_prime / (2.0 * config.rho)),
        )


def _budget(config: SolverConfig, n: int) -> float:
    """(8 rho^2 / eps^2) ln n before rounding up; inf when eps^2 underflows to 0."""
    eps_sq = config.eps**2
    return (8.0 * config.rho**2 / eps_sq) * math.log(n) if eps_sq else math.inf


def iteration_budget(config: SolverConfig, n: int) -> int:
    """ceil((8 rho^2 / eps^2) ln n), unless overridden. ValueError when that
    exceeds MAX_BUDGET, as it can for a small eps that passed at n = 2."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if config.max_iters_override is not None:
        return int(config.max_iters_override)
    budget = _budget(config, n)
    if not budget <= MAX_BUDGET:
        raise ValueError(f"eps {config.eps!r} is too small for n={n}: the iteration budget exceeds 2^53")
    return int(math.ceil(budget))


def find_pair(g: np.ndarray, pos_idx: np.ndarray, neg_idx: np.ndarray) -> tuple[int, int]:
    """Highest-violation point of each class, as (j_plus, j_minus) indices
    into g; argmax takes the first maximum, so ties break toward the lowest
    index."""
    return int(pos_idx[g[pos_idx].argmax()]), int(neg_idx[g[neg_idx].argmax()])


def apply_update(state: SolverState, jp: int, jm: int) -> SolverState:
    """One dual step: add 1/2 to coordinates jp and jm, refresh w and q.

    jp must carry label +1 and jm label -1, which the update formulas in the
    module docstring assume; the step sums to 1 and is label-balanced. The
    columns come from `state.accessor`. Cost is O(m n) plus one raw kernel
    column per kernel and chosen point. The q update reads w before w moves.
    """
    acc = state.accessor
    kp = acc.signed_columns_all(jp, out=acc.blocks[0])
    km = acc.signed_columns_all(jm, out=acc.blocks[1])
    w = state.w
    np.subtract(kp, km, out=kp)
    # K_i is symmetric, so K[jp,jp] + K[jm,jm] - 2 K[jp,jm] is a difference
    # of two entries of K[:, jp] - K[:, jm]
    step_quad = kp[:, jp] - kp[:, jm]
    cross = w[:, jp] - w[:, jm]
    ridge = state._ridge
    if ridge:
        step_quad += state._two_ridge
    step_quad *= state._quarter_inv_r
    cross *= state._half_inv_r
    cross += step_quad
    state.q += cross
    np.maximum(state._step_quad_max, step_quad, out=state._step_quad_max)
    w += kp
    if ridge:
        col = w[:, jp]  # in place through the view: `w[:, jp] += ridge` would also copy it back
        col += ridge
        col = w[:, jm]
        col -= ridge
    state.alpha_bar[jp] += 0.5
    state.alpha_bar[jm] += 0.5
    state.t += 1
    return state


def exponentiate_m(state: SolverState) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form primal refresh: per-kernel cosh/sinh coefficients and g.

    eps', rho and the quash threshold come from `state.config`. Per kernel,
    s_i = (eps'/(2 rho)) sqrt(q_i). Below the quash threshold the exact
    cosh/sinh pair is used; above it both are replaced by exp shifted down by
    max_k s_k, with the shift recorded in e_m so the trace normalizer
    S = m (n-1) e_m + 2 sum_i p11_i stays in consistent units. The sinh block
    carries a minus sign, which points g toward margin violators. Kernels
    whose sqrt(q_i) sits below MIN_QUADFORM contribute nothing to g, which is
    read from the raw cache as in the module docstring.
    """
    acc = state.accessor
    config = state.config
    m, n = state.w.shape
    u_raw = np.sqrt(np.maximum(state.q, _ZERO))
    s = state._s_scale * u_raw
    s_max = float(s[s.argmax()])  # NaN when any s_i is: argmax stops at the first NaN
    if s_max < config.quash_threshold:
        p11 = np.cosh(s)
        p12 = np.sinh(s)
        e_m = 1.0
    else:
        p11 = np.exp(s - s_max)
        p12 = p11.copy()
        e_m = math.exp(-s_max)
    p12 /= -(m * (n - 1) * e_m + 2.0 * float(np.add.reduce(p11)))
    coef = np.divide(p12, u_raw, out=np.zeros(m), where=u_raw >= _MIN_QUADFORM)
    coef *= acc.inv_r
    g = np.dot(coef, state.w)  # np.dot: same BLAS call as @, less dispatch
    g *= acc.labels
    state.p12 = p12
    state.g = g
    state.e_m = e_m
    state.last_s_max = s_max
    return p12, g


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
    accessor = bind(specs, dataset, config.ridge)
    total = iteration_budget(config, dataset.n)
    state = SolverState.fresh(accessor, config)
    for t in range(1, total + 1):
        g = state.g
        jp, jm = find_pair(g, pos_idx, neg_idx)
        oracle_value = 0.5 * float(g[jp] + g[jm])
        if not math.isfinite(oracle_value):
            # argmax takes a NaN or +inf of either class, so the g of the
            # previous iteration was not finite
            raise NumericalFailure(t - 1)
        if oracle_value < state.min_oracle_value:
            state.min_oracle_value = oracle_value
        apply_update(state, jp, jm)
        exponentiate_m(state)
        if not math.isfinite(state.last_s_max):  # NaN or infinite exactly when q is
            raise NumericalFailure(t)
        if trace is not None:
            trace.write(
                f"iter={t} j_plus={jp} j_minus={jm} "
                f"s_max={state.last_s_max:.6g} oracle_value={oracle_value:.6g}\n"
            )
    if not np.isfinite(state.g).all():
        raise NumericalFailure(total)
    return state, total
