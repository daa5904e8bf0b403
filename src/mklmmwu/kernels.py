"""Base kernel family and on-demand raw kernel columns.

A bound accessor serves column j of every raw kernel matrix K_i at once, as
an (m, n) block, without ever materializing an n x n matrix: the block costs
O(m n) and the whole working set stays O(m n). The block carries no ridge,
no trace normalizer 1/r_i and no label signs; the solver folds those into
its O(m) and O(n) vectors, and only the test/oracle helpers assemble the
signed, regularized G_i = Y (K_i + ridge I) Y / r_i.

One grouped evaluator computes the block. Specs are grouped by (kind,
feature scope, parameter), and each group's rows are a slice of the block
whenever they form an arithmetic progression (per-feature rung k of the
default family is rows 3+k::12), so every step writes the block in place.
Gaussians use a squaring ladder: exp(-d / (2 sigma^2)) is the square of the
Gaussian with twice the bandwidth squared, and the default bandwidths have
sigma^2 = 2^k, so each scope of the default family takes one exp at the
widest bandwidth and eight squarings, on rows 3+k::12 per feature or on
single rows in the all-feature scope. A bandwidth that is not a x2 rung of
another spec with the same scope and features gets a plain exp.
Polynomial degrees are built by repeated multiplication by x.z + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset

#: Gaussian bandwidths 2^0, 2^(1/2), ..., 2^4.
GAUSSIAN_BANDWIDTHS = tuple(float(2.0 ** (k / 2.0)) for k in range(9))
POLYNOMIAL_DEGREES = (1, 2, 3)


@dataclass(frozen=True)
class KernelSpec:
    """One base kernel: Gaussian exp(-|x-z|^2 / (2 sigma^2)) or (x.z + 1)^degree.

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
        if not (self.ridge >= 0.0 and math.isfinite(self.ridge)):
            raise ValueError("ridge must be nonnegative and finite")
        if self.r is not None and not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError("trace normalizer must be positive and finite")


def _int_power(base: np.ndarray, degree: int) -> np.ndarray:
    """base**degree by repeated multiplication, identical on every code path."""
    out = base.copy()
    for _ in range(degree - 1):
        out *= base
    return out


def eval_kernel(spec: KernelSpec, x, z) -> float:
    """Raw kernel value (no trace normalization, no ridge)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if spec.feature is not None:
        x = x[spec.feature : spec.feature + 1]
        z = z[spec.feature : spec.feature + 1]
    if spec.kind == "gaussian":
        diff = x - z
        return float(np.exp(-float(diff @ diff) / (2.0 * spec.param**2)))
    out = base = float(x @ z) + 1.0
    for _ in range(int(spec.param) - 1):
        out *= base
    return float(out)


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


def bind(specs, dataset: Dataset, C: float | None = None, margin_mode: str = "hard") -> "GramAccessor":
    """Attach specs to a training set: fix ridge and the unit-trace normalizer.

    Ridge is 1/C in 2-norm soft-margin mode and 0 in hard-margin mode; it is
    added to the kernel diagonal before trace normalization so the effective
    G_i keeps trace exactly 1.
    """
    if margin_mode not in ("hard", "l2"):
        raise ValueError(f"margin_mode must be 'hard' or 'l2', got {margin_mode!r}")
    if margin_mode == "l2":
        if C is None or not C > 0.0:
            raise ValueError("2-norm soft margin requires C > 0")
        ridge = 1.0 / C
    else:
        ridge = 0.0
    pts = dataset.points
    if pts.min(initial=0.0) < -1e-9 or pts.max(initial=0.0) > 1.0 + 1e-9:
        raise ValueError("dataset must be scaled to [0,1] before binding")
    n = dataset.n
    row_sq = np.einsum("ij,ij->i", pts, pts)
    bound = []
    for spec in specs:
        if spec.kind == "gaussian":
            diag_sum = float(n)  # exp(0) on the diagonal
        elif spec.feature is None:
            diag_sum = float(_int_power(row_sq + 1.0, int(spec.param)).sum())
        else:
            diag_sum = float(_int_power(np.square(pts[:, spec.feature]) + 1.0, int(spec.param)).sum())
        bound.append(replace(spec, r=diag_sum + n * ridge, ridge=ridge))
    return GramAccessor(bound, dataset)


class _Op:
    """One vectorized step of the block evaluator.

    It writes `rows` of the block; `feats` are the feature of each row (None
    in the all-feature scope). A root Gaussian step computes exp(param * d2)
    with `param` the coefficient -1/(2 sigma^2), doubled in the all-feature
    scope, which reads half distances; a later rung squares the rows `src`.
    A polynomial step starts from the base (x.z + 1) raised to the degree
    `param`, or multiplies the rows `src` of one degree less by the base.
    Rows, features and sources are an int for one index and a slice when
    their indices form an arithmetic progression, so the step reads and
    writes the block in place, and index arrays otherwise.
    """

    __slots__ = ("gaussian", "rows", "feats", "param", "src", "count")

    def __init__(self, gaussian, rows, feats, param, src=None):
        self.gaussian = gaussian
        self.count = len(rows)
        self.rows = _as_index(rows)
        self.feats = None if feats[0] is None else _as_index(feats)
        self.param = param
        self.src = None if src is None else _as_index(src)


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


#: Two Gaussian coefficients form a ladder rung when their ratio is 2 to within
#: a few ulps, as for sigma = 2^(k/2) and 2^((k+1)/2) in floating point.
_RUNG_TOL = 8.0 * np.finfo(np.float64).eps


def _plan(specs) -> list[_Op]:
    """Evaluation steps, each after the steps whose rows it reads.

    Specs are grouped by (kind, feature scope, parameter). A Gaussian group
    whose coefficient is twice that of a group with the same scope and
    features is that group's square, and a polynomial group is the group of
    one degree less times the base; other groups start from exp or the base.
    """
    members: dict[tuple, tuple[list, list]] = {}
    for i, s in enumerate(specs):
        gaussian = s.kind == "gaussian"
        param = -0.5 / s.param**2 if gaussian else int(s.param)
        rows, feats = members.setdefault((gaussian, s.feature is None, param), ([], []))
        rows.append(i)
        feats.append(s.feature)
    # Widest Gaussian first (coefficient nearest 0), lowest degree first.
    keys = sorted(members, key=lambda k: (k[0], k[1], -k[2] if k[0] else k[2]))
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
        chain = [key]
        while chain[-1] in child:
            chain.append(child[chain[-1]])
        plan.extend(_ladder(chain, members) if key[0] else _powers(chain, members))
    return plan


def _powers(chain, members) -> list[_Op]:
    ops = [_Op(False, *members[chain[0]], chain[0][2])]
    for prev, key in zip(chain, chain[1:]):
        ops.append(_Op(False, *members[key], key[2], src=members[prev][0]))
    return ops


def _ladder(chain, members) -> list[_Op]:
    """Steps for a Gaussian chain, widest first: one exp at the widest rung,
    then one squaring per rung."""
    rows, feats = members[chain[0]]
    scale = 2.0 if feats[0] is None else 1.0  # the all-feature scope reads half distances
    ops = [_Op(True, rows, feats, scale * chain[0][2])]
    for prev, key in zip(chain, chain[1:]):
        ops.append(_Op(True, *members[key], None, src=members[prev][0]))
    return ops


class GramAccessor:
    """Server of raw kernel columns. Its mutable state is scratch for the
    per-column inputs and the calls cached for reused output buffers, so one
    accessor serves one caller at a time.

    `signed_columns_all(j)` returns the (m, n) block whose row i is column j
    of the raw kernel matrix K_i: kappa_i(x_k, x_j) for every point k, with no
    ridge, no trace normalizer and no label signs. The solver folds those into
    its O(m) and O(n) vectors through `labels`, `inv_r` and `ridge`. The
    signed, regularized, trace-normalized G_i = Y (K_i + ridge I) Y / r_i is
    assembled from the same block by `signed_column` and `dense_signed_gram`.
    """

    def __init__(self, bound_specs, dataset: Dataset):
        self.specs = tuple(bound_specs)
        self.dataset = dataset
        self.m = len(self.specs)
        self.n = dataset.n
        if self.m == 0:
            raise ValueError("at least one kernel spec is required")
        self._X = np.ascontiguousarray(dataset.points)
        self._Xt = np.ascontiguousarray(self._X.T)
        self._y = np.ascontiguousarray(dataset.labels)
        # Half the squared norms: the all-feature Gaussian steps read half the
        # squared distance, |x_k|^2/2 + |x_j|^2/2 - x_k.x_j, with twice the
        # coefficient, which is exact and saves a pass per column.
        self._half_row_sq = 0.5 * np.einsum("ij,ij->i", self._X, self._X)
        #: (m,) trace normalizers 1/r_i and ridges, for folding into the solver's vectors
        self.inv_r = np.array([1.0 / s.r for s in self.specs])
        self.ridge = np.array([s.ridge for s in self.specs])
        self._plan = _plan(self.specs)
        self._calls: dict[int, tuple] = {}
        # per-column inputs of the plan's root steps, rewritten by every call
        all_scope = [op.gaussian for op in self._plan if op.feats is None]
        per_feature = [op.gaussian for op in self._plan if op.feats is not None]
        d = self._X.shape[1]
        self._dot = np.empty(self.n) if all_scope else None  # x_k . x_j
        self._half_sqd = np.empty(self.n) if True in all_scope else None
        self._d2t = np.empty((d, self.n)) if True in per_feature else None  # (x_kf - x_jf)^2
        self._pbase = np.empty((d, self.n)) if False in per_feature else None  # x_kf x_jf + 1

    @property
    def labels(self) -> np.ndarray:
        return self._y

    def signed_columns_all(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Raw column j of every kernel as an (m, n) block: out[i, k] = kappa_i(x_k, x_j).

        Despite the name, the block carries no label signs, ridge or 1/r_i;
        `out` enables buffer reuse.
        """
        reused = out is not None
        if out is None:
            out = np.empty((self.m, self.n))
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
        for f, args in self._calls_for(out, reused):
            f(*args)
        return out

    def _calls_for(self, out, reused: bool) -> list[tuple]:
        """The plan as (function, args) calls that write `out` from the
        per-column inputs. The calls for the last two reused buffers are
        kept: the solver reuses two, and building them costs more than a
        short column."""
        hit = self._calls.get(id(out))
        if hit is not None and hit[0] is out:
            return hit[1]
        calls = []

        def rows_of(a, idx, count):
            """`a[idx]` as a view, or a buffer that a call gathers into."""
            if _is_view(idx):
                return a[idx]
            buf = np.empty((count, self.n))
            calls.append((np.take, (a, idx, 0, buf)))
            return buf

        base = None  # x_k . x_j + 1, for the all-feature polynomials
        for op in self._plan:
            dst = out[op.rows] if _is_view(op.rows) else np.empty((op.count, self.n))
            if op.gaussian:
                if op.src is not None:
                    calls.append((np.square, (rows_of(out, op.src, op.count), dst)))
                else:
                    d2 = self._half_sqd if op.feats is None else rows_of(self._d2t, op.feats, op.count)
                    calls += [(np.multiply, (d2, op.param, dst)), (np.exp, (dst, dst))]
            else:
                if op.feats is not None:
                    op_base = rows_of(self._pbase, op.feats, op.count)
                elif base is None and op.param == 1:
                    op_base = base = dst[0] if dst.ndim == 2 else dst  # degree 1 is the base itself
                elif base is None:
                    op_base = base = np.empty(self.n)
                    calls.append((np.add, (self._dot, 1.0, base)))
                else:
                    op_base = base
                if op.src is not None:
                    calls.append((np.multiply, (rows_of(out, op.src, op.count), op_base, dst)))
                elif op_base is base and op.param == 1:
                    calls.append((np.add, (self._dot, 1.0, dst)))
                else:
                    calls.append((np.copyto, (dst, op_base)))
                    calls += [(np.multiply, (dst, op_base, dst))] * (op.param - 1)
            if not _is_view(op.rows):
                calls.append((out.__setitem__, (op.rows, dst)))
        if reused:
            if len(self._calls) >= 2:
                del self._calls[next(iter(self._calls))]
            self._calls[id(out)] = (out, calls)
        return calls

    def signed_column(self, i: int, j: int) -> np.ndarray:
        """Column j of G_i: y_j y_k (kappa_i(x_k, x_j) + ridge [j == k]) / r_i."""
        col = self.signed_columns_all(j)[i].copy()
        col[j] += self.specs[i].ridge
        col *= 1.0 / self.specs[i].r
        col *= self._y * self._y[j]
        return col

    def dense_gram(self, i: int) -> np.ndarray:
        """Full raw K_i assembled column by column. Test/oracle support only."""
        if self.n > 512:
            raise ValueError("dense Gram assembly is capped at n <= 512")
        gram = np.empty((self.n, self.n))
        block = np.empty((self.m, self.n))
        for j in range(self.n):
            gram[:, j] = self.signed_columns_all(j, out=block)[i]
        return gram

    def dense_signed_gram(self, i: int) -> np.ndarray:
        """Full G_i, entry for entry as `signed_column` gives it. Test/oracle support only."""
        gram = self.dense_gram(i)
        gram.flat[:: self.n + 1] += self.specs[i].ridge
        gram *= 1.0 / self.specs[i].r
        gram *= np.outer(self._y, self._y)
        return gram


def combined_kernel_row(specs, coeffs, X_ref: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] * kappa_i(X_ref[k], x) for every reference row k.

    Raw kernel values: no ridge, no label signs. Used by prediction, where
    coeffs is mu_i / r_i.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k = X_ref.shape[0]
    acc = np.zeros(k)
    ga, pa, gf, pf = [], [], [], []
    for i, s in enumerate(specs):
        if coeffs[i] == 0.0:
            continue
        if s.kind == "gaussian":
            (ga if s.feature is None else gf).append(i)
        else:
            (pa if s.feature is None else pf).append(i)
    if ga or pa:
        dot = X_ref @ x
    if ga:
        sqd = np.einsum("ij,ij->i", X_ref, X_ref) + float(x @ x) - 2.0 * dot
        coef = np.array([-0.5 / specs[i].param ** 2 for i in ga])
        acc += coeffs[ga] @ np.exp(coef[:, None] * sqd[None, :])
    if pa:
        base = dot + 1.0
        cur = base.copy()
        degs = [int(specs[i].param) for i in pa]
        for deg in range(1, max(degs) + 1):
            for i, spec_deg in zip(pa, degs):
                if spec_deg == deg:
                    acc += coeffs[i] * cur
            if deg < max(degs):
                cur *= base
    if gf:
        feats = np.array([specs[i].feature for i in gf], dtype=np.intp)
        coef = np.array([-0.5 / specs[i].param ** 2 for i in gf])
        base = np.square(X_ref[:, feats] - x[feats])
        base *= coef[None, :]
        np.exp(base, out=base)
        acc += base @ coeffs[gf]
    if pf:
        feats = np.array([specs[i].feature for i in pf], dtype=np.intp)
        degs = np.array([int(specs[i].param) for i in pf])
        base = X_ref[:, feats] * x[feats] + 1.0
        cur = base.copy()
        top = int(degs.max())
        for deg in range(1, top + 1):
            mask = degs == deg
            if mask.any():
                acc += cur[:, mask] @ coeffs[np.array(pf)[mask]]
            if deg < top:
                cur *= base
    return acc
