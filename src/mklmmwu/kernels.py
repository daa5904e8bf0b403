"""Base kernel family and on-demand raw kernel columns.

A bound accessor serves column j of every raw kernel matrix K_i at once, as
an (m, n) block, without ever materializing an n x n matrix: the block costs
O(m n) and the whole working set stays O(m n). The block carries no ridge,
no trace normalizer 1/r_i and no label signs; the solver folds those into
its O(m) and O(n) vectors, so the package never assembles the signed,
regularized G_i = Y (K_i + ridge I) Y / r_i (the dense references in
tests/reference.py do, from this block). Prediction, in `KernelSums`, sums
the per-feature polynomials in closed form and the per-feature Gaussians as
a truncated series, both from moments of the support points, and runs the
same plan for the other kernels, streaming batches of query points through
it and contracting each step's kernel values with the model's weights as it
goes.

One grouped evaluator computes the block, with the specs in the order
given, which is the model file's. Specs are grouped by (kind, feature
scope, parameter), and each group's rows are a slice of the block whenever
they form an arithmetic progression (per-feature rung k of the default
family is rows 3+k::12), so every step writes the block in place. Groups
form chains: a root, then rungs, each of which reads the step before it.
Gaussians use a squaring ladder: exp(-d / (2 sigma^2)) is the square of the
Gaussian with twice the bandwidth squared, and the default bandwidths have
sigma^2 = 2^k, so each scope of the default family takes one exp at the
widest bandwidth and eight squarings, on rows 3+k::12 per feature or on
single rows in the all-feature scope. A bandwidth that is not a x2 rung of
another spec with the same scope and features gets a plain exp.
Polynomial degrees are built by repeated multiplication by x.z + 1. The
arithmetic of each step is written once, in `_step`, for both executors.

The series for a per-feature Gaussian is the single-centre case of the fast
Gauss transform (Greengard & Strain, SIAM J. Sci. Stat. Comput. 12(1),
1991). Take the Gaussian on feature f with c = -1/(2 sigma^2), the midpoint
z0 of the support points' range on f, x' = x_f - z0 and z'_k = z_kf - z0.
Since c (x' - z')^2 = c x'^2 + c z'^2 - 2c x' z', expanding exp(-2c x' z')
gives

    sum_k b_k exp(c (x_f - z_kf)^2) = exp(c x'^2) sum_j x'^j T_j,
    T_j = (-2c)^j / j! sum_k b_k exp(c z'_k^2) z'_k^j.

Let R_z = max |z'_k|, R_x = max |x'| over a call's queries and
t = 2|c| R_z R_x. Each exponent u = -2c x' z'_k has |u| <= t, so by
Lagrange's form the remainder of exp(u) after the terms j <= J is at most
e^t t^(J+1) / (J+1)!; as exp(u) >= e^-t, cutting the series there changes
each kernel value by a relative e^(2t) t^(J+1) / (J+1)! at most. A call sums
a Gaussian this way only where t <= 1, with the smallest J that brings the
bound to 2^-53, float64's unit roundoff, for every such kernel: J <= 18,
reached at t = 1 (`series_terms`). It evaluates the series in x'/R_x, with
the coefficients a_i t^j / j! times moments of z'/R_z, numbers in [-1, 1],
so no term can overflow, and its terms' magnitudes sum to at most e^(2t)
times those of the kernel terms it replaces, which bounds the rounding
error. A Gaussian with t > 1 (a narrow bandwidth, or queries far from the
points) is streamed through the plan, whose accuracy does not depend on t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset

#: Gaussian bandwidths 2^0, 2^(1/2), ..., 2^4.
GAUSSIAN_BANDWIDTHS = tuple(float(2.0 ** (k / 2.0)) for k in range(9))
POLYNOMIAL_DEGREES = (1, 2, 3)
#: Largest polynomial degree a KernelSpec accepts; the default family uses
#: 1..3. On [0,1]-scaled data (x.z + 1)^degree reaches (d + 1)^degree, which
#: overflows float64 once the degree exceeds 1024 / log2(d + 1): at 20 that
#: takes d >= 2^51. Each degree also costs the evaluator one pass per block.
MAX_POLYNOMIAL_DEGREE = 20


@dataclass(frozen=True)
class KernelSpec:
    """One base kernel: Gaussian exp(-|x-z|^2 / (2 sigma^2)) or (x.z + 1)^degree,
    the degree an integer from 1 to MAX_POLYNOMIAL_DEGREE.

    `feature` restricts evaluation to a single coordinate (None = all).
    `r` (trace normalizer) and `ridge` (2-norm soft-margin diagonal) are
    filled in by `bind` once the spec is attached to a training set.
    """

    kind: str  # "gaussian" | "poly"
    param: float  # bandwidth sigma or polynomial degree
    feature: int | None = None
    r: float | None = None
    ridge: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "poly"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (self.param > 0.0 and math.isfinite(self.param)):
            raise ValueError("kernel parameter must be positive and finite")
        if self.kind == "poly":
            if self.param < 1 or self.param != int(self.param):
                raise ValueError("polynomial degree must be a positive integer")
            if self.param > MAX_POLYNOMIAL_DEGREE:
                raise ValueError(f"polynomial degree must be at most {MAX_POLYNOMIAL_DEGREE}")
        if not (self.ridge >= 0.0 and math.isfinite(self.ridge)):
            raise ValueError("ridge must be nonnegative and finite")
        if self.r is not None and not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError("trace normalizer must be positive and finite")


def make_default_family(d: int, per_feature: bool = False) -> list[KernelSpec]:
    """3 polynomial kernels (degree 1..3) plus 9 Gaussians per block.

    With `per_feature` the 12-kernel block is repeated once per feature
    index, each block restricted to that single feature (12*d specs).
    """
    if d < 1:
        raise ValueError("d must be at least 1")

    def block(feature):
        specs = [KernelSpec("poly", float(p), feature) for p in POLYNOMIAL_DEGREES]
        specs += [KernelSpec("gaussian", bw, feature) for bw in GAUSSIAN_BANDWIDTHS]
        return specs

    if not per_feature:
        return block(None)
    family: list[KernelSpec] = []
    for f in range(d):
        family.extend(block(f))
    return family


def bind(specs, dataset: Dataset, ridge: float = 0.0) -> "GramAccessor":
    """Attach specs to a training set scaled to [0,1]: their accessor, with
    each trace normalizer r_i taken from the kernel's own diagonal.

    `ridge` is `SolverConfig.ridge` (1/C under a 2-norm soft margin, 0 under
    a hard margin); it is added to the kernel diagonal before trace
    normalization so the effective G_i keeps trace exactly 1.
    """
    pts = dataset.points
    if pts.min(initial=0.0) < -1e-9 or pts.max(initial=0.0) > 1.0 + 1e-9:
        raise ValueError("dataset must be scaled to [0,1] before binding")
    return GramAccessor(specs, dataset, ridge)


class _Op:
    """One vectorized step of the block evaluator.

    It writes `rows` of the block; `feats` are the feature of each row (None
    in the all-feature scope). A Gaussian root computes exp(param * d2) with
    `param` the negated rate -1/(2 sigma^2), doubled in the all-feature
    scope, which reads half distances; a polynomial root raises the base
    (x.z + 1) to the degree `param`. A `rung` reads the step before it: a
    Gaussian rung squares its values, a polynomial rung multiplies them by
    the base. Rows and features are an int for one index and a slice when
    their indices form an arithmetic progression, so the step reads and
    writes the block in place, and index arrays otherwise.
    """

    __slots__ = ("gaussian", "rows", "feats", "param", "rung", "count")

    def __init__(self, gaussian, rows, feats, param, rung=False):
        self.gaussian = gaussian
        self.count = len(rows)
        self.rows = _as_index(rows)
        self.feats = None if feats[0] is None else _as_index(feats)
        self.param = param
        self.rung = rung


def _as_index(idx: list[int]):
    if len(idx) == 1:
        return idx[0]
    step = idx[1] - idx[0]
    if step != 0 and all(b - a == step for a, b in zip(idx, idx[1:])):
        stop = idx[-1] + (1 if step > 0 else -1)
        return slice(idx[0], None if stop < 0 else stop, step)
    return np.array(idx, dtype=np.intp)


def _is_view(idx) -> bool:
    return isinstance(idx, (int, slice))


#: Two Gaussian rates form a ladder rung when their ratio is 2 to within a
#: few ulps, as for sigma = 2^(k/2) and 2^((k+1)/2) in floating point.
_RUNG_TOL = 8.0 * np.finfo(np.float64).eps


def _group(spec: KernelSpec) -> tuple:
    """The evaluator group of a spec: (is Gaussian, all-feature scope,
    parameter), the parameter being the rate 1/(2 sigma^2) of a Gaussian or
    the degree of a polynomial. Groups sort in evaluation order: polynomials
    before Gaussians, per-feature before all-feature scope, the lowest degree
    and the widest Gaussian first."""
    gaussian = spec.kind == "gaussian"
    return gaussian, spec.feature is None, 0.5 / spec.param**2 if gaussian else int(spec.param)


def _plan(specs) -> list[_Op]:
    """Evaluation steps, chain by chain: a root, then its rungs.

    Specs are grouped by (kind, feature scope, parameter), in the order given
    within a group. A Gaussian group whose rate is twice that of a group with
    the same scope and features is a rung that squares that group, and a
    polynomial group is a rung that multiplies the group of one degree less
    by the base; other groups are roots, which start from exp or the base.
    """
    members: dict[tuple, tuple[list, list]] = {}
    for i, s in enumerate(specs):
        rows, feats = members.setdefault(_group(s), ([], []))
        rows.append(i)
        feats.append(s.feature)
    keys = sorted(members)
    child = {}
    for a, key in enumerate(keys):
        for prev in keys[:a]:
            if prev[:2] != key[:2] or members[prev][1] != members[key][1]:
                continue
            if key[0] and abs(key[2] / prev[2] - 2.0) <= _RUNG_TOL or not key[0] and key[2] == prev[2] + 1:
                child[prev] = key
    plan = []
    for key in keys:
        if key in child.values():
            continue  # planned with its chain
        scale = 2.0 if key[1] else 1.0  # the all-feature scope reads half distances
        plan.append(_Op(key[0], *members[key], -scale * key[2] if key[0] else key[2]))
        while key in child:
            key = child[key]
            plan.append(_Op(key[0], *members[key], None, rung=True))
    return plan


def _step(op: _Op, dst, src, inp) -> list[tuple]:
    """The (function, args) calls of one plan step, which write `dst`.

    A Gaussian root reads `inp`, the squared distances (halved in the
    all-feature scope); a Gaussian rung squares `src`, the values of the step
    before. A polynomial step reads `inp`, the base x.z + 1: a root raises it
    to the degree, a rung multiplies `src` by it. A degree-1 root whose base
    is `dst` itself needs no call.
    """
    if op.gaussian:
        if src is not None:
            return [(np.square, (src, dst))]
        return [(np.multiply, (inp, op.param, dst)), (np.exp, (dst, dst))]
    if src is not None:
        return [(np.multiply, (src, inp, dst))]
    calls = [] if inp is dst else [(np.copyto, (dst, inp))]
    return calls + [(np.multiply, (dst, inp, dst))] * (op.param - 1)


def _inputs(plan) -> tuple[bool, bool, bool, bool]:
    """Which per-point inputs the plan's steps read: x.z, half squared
    distances (all-feature Gaussians), per-feature squared differences
    (x_f - z_f)^2 and per-feature x_f z_f + 1."""
    all_scope = [op.gaussian for op in plan if op.feats is None]
    per_feature = [op.gaussian for op in plan if op.feats is not None]
    return bool(all_scope), True in all_scope, True in per_feature, False in per_feature


class GramAccessor:
    """Server of raw kernel columns, built by `bind`. Its mutable state is
    scratch for the per-column inputs, so one accessor serves one caller at
    a time.

    `signed_columns_all(j)` returns the (m, n) block whose row i is column j
    of the raw kernel matrix K_i, kappa_i(x_k, x_j) for every point k, with
    no ridge, no trace normalizer and no label signs; the solver folds 1/r_i
    and signs into its O(m) and O(n) vectors through `inv_r` and `labels`,
    and adds `ridge` itself. It writes its two columns a step into `blocks`,
    whose calls are compiled once. The same plan, run once with each point
    against itself (x.x, zero distances, x_f^2 + 1), writes the diagonals
    K_i[k, k], so r_i = trace(K_i) + n ridge is a row sum.
    """

    def __init__(self, specs, dataset: Dataset, ridge: float = 0.0):
        self.dataset = dataset
        self.m = len(specs)
        self.n = dataset.n
        if self.m == 0:
            raise ValueError("at least one kernel spec is required")
        self.ridge = float(ridge)
        self._X = np.ascontiguousarray(dataset.points)
        self._Xt = np.ascontiguousarray(self._X.T)
        self._y = np.ascontiguousarray(dataset.labels)
        row_sq = np.einsum("ij,ij->i", self._X, self._X)
        # Half the squared norms: the all-feature Gaussian steps read half the
        # squared distance, |x_k|^2/2 + |x_j|^2/2 - x_k.x_j, with twice the
        # coefficient, which is exact and saves a pass per column.
        self._half_row_sq = 0.5 * row_sq
        self._plan = _plan(specs)
        # per-column inputs of the plan's root steps, rewritten by every call
        dot, half_sqd, d2t, pbase = _inputs(self._plan)
        d = self._X.shape[1]
        self._dot = np.empty(self.n) if dot else None  # x_k . x_j
        self._half_sqd = np.empty(self.n) if half_sqd else None
        self._d2t = np.empty((d, self.n)) if d2t else None  # (x_kf - x_jf)^2
        self._pbase = np.empty((d, self.n)) if pbase else None  # x_kf x_jf + 1
        self.blocks = (np.empty((self.m, self.n)), np.empty((self.m, self.n)))
        # keyed by id: the accessor holds the blocks, so no other buffer has one
        self._block_calls = {id(b): self._compile(b) for b in self.blocks}
        # the plan's inputs on the diagonal, each point against itself
        diag_inputs = (row_sq, 0.0, 0.0, np.square(self._Xt) + 1.0)
        for inp, value in zip((self._dot, self._half_sqd, self._d2t, self._pbase), diag_inputs):
            if inp is not None:
                inp[...] = value
        for f, args in self._block_calls[id(self.blocks[0])]:
            f(*args)
        r = self.blocks[0].sum(axis=1) + self.n * self.ridge
        self.specs = tuple(replace(s, r=float(r_i), ridge=self.ridge) for s, r_i in zip(specs, r))
        #: (m,) trace normalizers 1/r_i, for folding into the solver's vectors
        self.inv_r = 1.0 / r

    @property
    def labels(self) -> np.ndarray:
        return self._y

    def signed_columns_all(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Raw column j of every kernel as an (m, n) block: out[i, k] = kappa_i(x_k, x_j).

        Despite the name, the block carries no label signs, ridge or 1/r_i.
        Into one of `blocks` it runs the compiled calls; any other `out`, or
        a new block when None, gets calls built for it.
        """
        if out is None:
            out = np.empty((self.m, self.n))
        calls = self._block_calls.get(id(out)) or self._compile(out)
        x = self._X[j]
        if self._dot is not None:
            np.dot(self._X, x, self._dot)  # np.dot: same BLAS call as @, less dispatch
        if self._half_sqd is not None:
            np.add(self._half_row_sq, self._half_row_sq[j], self._half_sqd)
            np.subtract(self._half_sqd, self._dot, self._half_sqd)
        if self._d2t is not None:
            np.subtract(self._Xt, x[:, None], self._d2t)
            np.square(self._d2t, self._d2t)
        if self._pbase is not None:
            np.multiply(self._Xt, x[:, None], self._pbase)
            np.add(self._pbase, 1.0, self._pbase)
        for f, args in calls:
            f(*args)
        return out

    def _compile(self, out) -> list[tuple]:
        """The plan as (function, args) calls that write `out` from the
        per-column inputs."""
        calls = []

        def rows_of(a, idx, count):
            """`a[idx]` as a view, or a buffer that a call gathers into."""
            if _is_view(idx):
                return a[idx]
            buf = np.empty((count, self.n))
            calls.append((np.take, (a, idx, 0, buf)))
            return buf

        base = None  # x_k . x_j + 1, for the all-feature polynomials
        prev = None  # the previous step's values, which a rung reads
        for op in self._plan:
            dst = out[op.rows] if _is_view(op.rows) else np.empty((op.count, self.n))
            inp = None
            if op.gaussian:
                if not op.rung:
                    inp = self._half_sqd if op.feats is None else rows_of(self._d2t, op.feats, op.count)
            elif op.feats is not None:
                inp = rows_of(self._pbase, op.feats, op.count)
            elif base is None and op.param == 1:  # degree 1 is the base itself, written in place
                calls.append((np.add, (self._dot, 1.0, dst)))
                base, inp = dst[0] if dst.ndim == 2 else dst, dst
            else:
                if base is None:
                    base = np.empty(self.n)
                    calls.append((np.add, (self._dot, 1.0, base)))
                inp = base
            calls += _step(op, dst, prev if op.rung else None, inp)
            if not _is_view(op.rows):
                calls.append((out.__setitem__, (op.rows, dst)))
            prev = dst
        return calls


#: Bytes of scratch a `KernelSums` call allocates for a chunk of queries:
#: every per-chunk array counts (the query rows, the inputs the plan reads,
#: the slab one Gaussian or all-feature polynomial chain streams through,
#: the series blocks and the rows contracted into the values). It fits in
#: a core's L2 cache (2 MB on the 2-vCPU Xeon it was measured on). There,
#: on 5000 queries, an all-feature model with 841 support points took a
#: median of 38.2, 38.5 and 38.9 ms at 640, 1280 and 1920 KB, and the
#: per-feature bench model, all in closed form, 11-18 ms at each: no size
#: is consistently faster.
SLAB_BYTES = 1920 * 1024

#: Most Taylor terms a closed-form Gaussian takes: at t = 1 the truncation
#: bound e^2 / (J + 1)! first falls to 2^-53 at J = 18.
SERIES_TERMS = 18

#: C(p, j) for 0 <= j <= p <= MAX_POLYNOMIAL_DEGREE, as floats; 0 above the diagonal.
_BINOMIAL = np.array([[math.comb(p, j) for j in range(MAX_POLYNOMIAL_DEGREE + 1)]
                      for p in range(MAX_POLYNOMIAL_DEGREE + 1)], dtype=np.float64)


def series_terms(t: float) -> int:
    """Terms J of the closed-form Gaussian series for t = 2|c| R_z R_x <= 1:
    the smallest J >= 1 whose truncation bound e^(2t) t^(J+1) / (J+1)! is
    2^-53 or below. See the module docstring for the bound."""
    J = 1
    while math.exp(2.0 * t) * t ** (J + 1) / math.factorial(J + 1) > 2.0**-53:
        J += 1
    return J


class Layout(NamedTuple):
    """How one `KernelSums` call sums its kernels, decided from its queries."""

    plan: list  # steps of the streamed kernels
    weights: np.ndarray  # a over the rows contracted into the values: the plan's, then ones
    closed: np.ndarray  # caller's indices of the Gaussians summed as a series
    series: np.ndarray | None  # (F, n, J + 1) their series coefficients, by feature and slot
    reach: np.ndarray  # (F, 1) R_x of each feature with Gaussians, 1 where it is 0
    batch: int  # queries a chunk


class KernelSums:
    """Weighted kernel sums at query points:
    f(x) = sum_i a_i sum_k b_k kappa_i(z_k, x) over the kernels i and the
    points z_k, as `KernelSums(specs, points, a, b)(queries)`, the kernels
    taken in the order given (a model's, as stored).

    A per-feature polynomial depends on one coordinate, so its sum over the
    points is a polynomial in that coordinate, summed in closed form:
    sum_k b_k (x_f z_kf + 1)^p = sum_j C(p, j) x_f^j S_fj with the moments
    S_fj = sum_k b_k z_kf^j. The constructor folds every such kernel into a
    table W[j, f] = sum_p a_fp C(p, j) S_fj for j up to P, the largest
    degree, and a query adds sum_f sum_j W[j, f] x_f^j, by Horner's rule.

    A per-feature Gaussian is summed as a truncated series (see the module
    docstring) when the call's queries are near enough to the points on its
    feature, t = 2|c| R_z R_x <= 1. A call reads R_x from one min/max pass
    over its queries, which also refuses a NaN or infinite coordinate;
    `layout` splits the kernels and takes a_i times the points' moments of
    the kernels in closed form, up to the J terms the call needs.
    A chunk raises x'/R_x to the powers j <= J once per feature, and one
    batched matrix product with the (features, slots, J + 1) coefficient
    block gives every kernel's series, which it multiplies by exp(c x'^2).
    A feature's slots hold its Gaussians widest first, ties in the given
    order.

    The other kernels, per-feature Gaussians beyond the bound and
    all-feature kernels, are streamed: the queries are cut into chunks of
    `batch` consecutive rows, sized so that the scratch for a chunk fits in
    SLAB_BYTES. For each chunk the executor builds the inputs the
    plan reads, then walks the plan chain by chain through one slab: a
    chain's root writes the slab from the inputs, each rung rewrites it in
    place, and after every step the slab is contracted with b into that
    step's rows of a matrix P, whose last rows hold the series and
    polynomial blocks. The chunk's sums are weights @ P, so no (m, k) block
    per query and no (m k) weight array are formed.

    Chunks run in order on the calling thread, through one scratch built
    once per call.
    """

    def __init__(self, specs, points: np.ndarray, a: np.ndarray, b: np.ndarray):
        if not specs:
            raise ValueError("at least one kernel spec is required")
        self._specs = list(specs)
        self._a = np.asarray(a, dtype=np.float64)
        self._b = np.ascontiguousarray(b, dtype=np.float64)
        Z = np.asarray(points, dtype=np.float64)
        self._Zt = np.ascontiguousarray(Z.T)  # (d, k)
        self._half_z = 0.5 * np.einsum("ij,ij->j", self._Zt, self._Zt)
        poly = [i for i, s in enumerate(self._specs) if s.kind == "poly" and s.feature is not None]
        #: (P + 1, d, 1) table W of the closed-form polynomials, W[j] the coefficients of x^j; or None
        self.table = _moment_table([self._specs[i] for i in poly], Z, self._a[poly], self._b)
        self._streamed = np.array([s.kind == "gaussian" or s.feature is None for s in self._specs])
        # per-feature Gaussians, expanded about the midpoint z0 of the points' range on their feature,
        # in slot order: by feature, widest first
        gauss = np.array([i for i, s in enumerate(self._specs) if s.kind == "gaussian" and s.feature is not None],
                         dtype=np.intp)
        feats = np.array([self._specs[i].feature for i in gauss], dtype=np.intp)
        inv_var = np.array([self._specs[i].param ** -2.0 for i in gauss])  # -2c
        by_slot = np.lexsort((inv_var, feats))
        self._gauss, feats, self._inv_var = gauss[by_slot], feats[by_slot], inv_var[by_slot]
        lo, hi = Z.min(axis=0), Z.max(axis=0)
        centre = 0.5 * lo + 0.5 * hi
        radius = np.maximum(centre - lo, hi - centre)  # R_z: |z'| <= R_z
        # The series block has a row per feature with Gaussians (`_features`)
        # and a slot per Gaussian on it; an empty slot has coefficient 0.
        self._features, self._row = np.unique(feats, return_inverse=True)
        self._slot = np.arange(len(self._row)) - np.searchsorted(self._row, self._row)
        self._coefs = np.zeros((len(self._features), self._slot.max(initial=-1) + 1, 1))
        self._coefs[self._row, self._slot, 0] = -0.5 * self._inv_var
        self._centre, self._radius = centre[self._features], radius[self._features]

    def layout(self, queries: np.ndarray) -> Layout:
        """The split of the kernels for these (nonempty) queries: each
        per-feature Gaussian with t = 2|c| R_z R_x <= 1 goes to the series,
        with the fewest terms that bring every such kernel's truncation bound
        to 2^-53, and the rest to the plan. ValueError for a NaN or infinite
        query coordinate."""
        lo, hi = queries.min(axis=0), queries.max(axis=0)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("queries must be finite")
        reach = np.maximum(self._centre - lo[self._features], hi[self._features] - self._centre)  # R_x
        t = self._radius[self._row] * reach[self._row] * self._inv_var
        closed = t <= 1.0
        series = None
        if closed.any():
            terms = np.ones((int(closed.sum()), series_terms(float(t[closed].max())) + 1))
            for j in range(1, terms.shape[1]):  # t^j / j!
                terms[:, j] = terms[:, j - 1] * t[closed] / j
            row = self._row[closed]
            moments = _gaussian_moments(self._Zt[self._features[row]], self._centre[row], self._radius[row],
                                        -0.5 * self._inv_var[closed], self._b, terms.shape[1])
            series = np.zeros(self._coefs.shape[:2] + terms.shape[1:])
            series[row, self._slot[closed]] = moments * self._a[self._gauss[closed], None] * terms
        streamed = self._streamed.copy()
        streamed[self._gauss[closed]] = False
        stream = np.flatnonzero(streamed)
        plan = _plan([self._specs[i] for i in stream])
        a = self._a[stream]
        rows = 0 if series is None else series.shape[0] * series.shape[1]
        ones = np.ones(rows + (0 if self.table is None else self._Zt.shape[0]))
        lay = Layout(plan, np.concatenate([np.atleast_1d(a[op.rows]) for op in plan] + [ones]),
                     self._gauss[closed], series, np.where(reach > 0.0, reach, 1.0)[:, None], 1)
        return lay._replace(batch=max(1, SLAB_BYTES // self._scratch(lay, 1)[3]))

    def __call__(self, queries: np.ndarray) -> np.ndarray:
        Q = np.asarray(queries, dtype=np.float64)
        vals = np.empty(Q.shape[0])
        if not len(Q):
            return vals
        lay = self.layout(Q)
        batch = min(lay.batch, len(Q))
        q, out, calls, _ = self._scratch(lay, batch)
        for s in range(0, len(Q), batch):
            n = min(batch, len(Q) - s)  # the last chunk runs in full on stale rows
            q[:n] = Q[s : s + n]
            for f, args in calls:
                f(*args)
            vals[s : s + n] = out[:n]
        return vals

    def _scratch(self, lay: Layout, batch: int):
        """The scratch for a chunk of `batch` queries: the query buffer, the
        output buffer, the calls that fill one from the other and the bytes
        of every array they use."""
        arrays = []

        def new(*shape):
            arrays.append(np.empty(shape))
            return arrays[-1]

        d, k = self._Zt.shape
        q = new(batch, d)
        q.fill(0.0)  # rows past the last query stay finite
        out = new(batch)
        calls: list[tuple] = []
        need_dot, need_half, need_d2, _ = _inputs(lay.plan)
        dot = half = d2 = base = None
        if need_dot:
            dot = new(batch, k)
            calls.append((np.dot, (q, self._Zt, dot)))
        if need_half:
            half_q = new(batch)
            half = new(batch, k)
            calls += [(functools.partial(np.einsum, "ij,ij->i", out=half_q), (q, q)),
                      (np.multiply, (half_q, 0.5, half_q)),
                      (np.add, (self._half_z, half_q[:, None], half)), (np.subtract, (half, dot, half))]
        if need_d2:
            d2 = new(d, batch, k)
            calls += [(np.subtract, (self._Zt[:, None, :], q.T[:, :, None], d2)), (np.square, (d2, d2))]
        if any(not op.gaussian for op in lay.plan):
            base = new(batch, k)
            calls.append((np.add, (dot, 1.0, base)))
        rows = max((op.count for op in lay.plan), default=0)
        slab = new(rows * batch * k)
        gather = None
        if any(op.feats is not None and not _is_view(op.feats) for op in lay.plan):
            gather = new(rows * batch * k)
        P = new(len(lay.weights), batch)
        pos = 0
        for op in lay.plan:
            dst = slab[: op.count * batch * k].reshape(op.count, batch, k)
            if not op.rung:  # a chain's root: the input its rungs read too
                if op.feats is None:
                    inp = half if op.gaussian else base
                elif _is_view(op.feats):
                    inp = d2[op.feats]
                else:
                    inp = gather[: dst.size].reshape(dst.shape)
                    calls.append((np.take, (d2, op.feats, 0, inp)))
            calls += _step(op, dst, dst if op.rung else None, inp)
            calls.append((np.dot, (dst.reshape(-1, k), self._b, P[pos : pos + op.count].reshape(-1))))
            pos += op.count
        if lay.series is not None:  # exp(c x'^2) sum_j T_j (x'/R_x)^j, into P's next rows
            F, n, terms = lay.series.shape
            x, sq, pre = new(F, batch), new(F, batch), new(F, n, batch)
            U = new(terms, F, batch)  # U[j] = (x'/R_x)^j, shared by the Gaussians of a feature
            U[0] = 1.0
            block = P[pos : pos + F * n].reshape(F, n, batch)
            calls += [(np.take, (q.T, self._features, 0, x, "clip")), (np.subtract, (x, self._centre[:, None], x)),
                      (np.square, (x, sq)), (np.divide, (x, lay.reach, U[1]))]
            calls += [(np.multiply, (U[j - 1], U[1], U[j])) for j in range(2, terms)]
            calls += [(np.matmul, (lay.series, U.transpose(1, 0, 2), block)),
                      (np.multiply, (self._coefs, sq[:, None, :], pre)), (np.exp, (pre, pre)),
                      (np.multiply, (block, pre, block))]
            pos += F * n
        if self.table is not None:  # Horner's rule, highest degree first, into P's last d rows
            poly, x, W = P[pos:], q.T, self.table
            calls.append((np.multiply, (W[-1], x, poly)))
            for j in range(len(W) - 2, 0, -1):
                calls += [(np.add, (poly, W[j], poly)), (np.multiply, (poly, x, poly))]
            calls.append((np.add, (poly, W[0], poly)))
        calls.append((np.dot, (lay.weights, P, out)))
        return q, out, calls, sum(arr.nbytes for arr in arrays)


def _moment_table(specs, points: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The closed form of the per-feature polynomials `specs` with weights
    `a`, as a (P + 1, d, 1) array W[j, f] = sum_p a_fp C(p, j) S_fj, P their
    largest degree and S_fj = sum_k b_k z_kf^j; None without such specs.
    sum_f sum_j W[j, f] x_f^j is then their weighted sum at a query x."""
    if not specs:
        return None
    degree = max(int(s.param) for s in specs)
    coef = np.zeros((degree + 1, points.shape[1]))  # coef[p, f] = a_fp, summed over repeats
    np.add.at(coef, ([int(s.param) for s in specs], [s.feature for s in specs]), a)
    moments = np.empty_like(coef)  # moments[j, f] = S_fj
    power = np.ones_like(points)
    for j in range(degree + 1):
        np.dot(b, power, moments[j])
        power *= points
    W = moments * (_BINOMIAL[: degree + 1, : degree + 1].T @ coef)
    return W[:, :, None]


def _gaussian_moments(zc, centre, radius, coefs, b, terms: int) -> np.ndarray:
    """M[g, j] = sum_k b_k exp(c_g z'^2) (z'/R_z)^j for j < terms, with
    z' = z_k - z0 from the points' coordinates zc[g] (overwritten), the
    midpoint z0 = centre[g], R_z = radius[g] and c_g = coefs[g]; R_z is
    taken as 1 where it is 0, where every z' is 0."""
    zc -= centre[:, None]  # (G, k); this and `term` are the only arrays of that size
    term = np.square(zc)
    term *= coefs[:, None]
    np.exp(term, out=term)
    term *= b
    zc /= np.where(radius > 0.0, radius, 1.0)[:, None]
    moments = np.empty((len(zc), terms))
    for j in range(terms):
        np.sum(term, axis=1, out=moments[:, j])
        term *= zc
    return moments
