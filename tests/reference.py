"""Independent brute-force references for tests and acceptance checks.

Nothing here is used on the training path; these routines deliberately take
the slow, dense road so the fast closed-form code has something honest to be
compared against. Single kernel entries, signed Gram columns and dense Gram
matrices check the column evaluator; explicit kernel sums check prediction;
the arrow-matrix exponential and the dense series check the solver's closed
form; the LibSVM writer feeds the parser's round trip and the
record-by-record parser is the block parser's oracle; and the certified
QCQP solver and the certified bracket check the approximation guarantee.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from mklmmwu.data import Dataset, _cut_lines, _map_labels
from mklmmwu.errors import EmptyDataset, InfeasibleDual, NumericalFailure, ParseError
from mklmmwu.kernels import GramAccessor, KernelSpec


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


def explicit_sums(specs, points, a, b, queries) -> tuple[np.ndarray, np.ndarray]:
    """sum_i a_i sum_k b_k kappa_i(z_k, x) at each query x, one `eval_kernel`
    term at a time and summed with math.fsum, and beside it the sum of the
    terms' magnitudes, the scale of the rounding error a fast sum may make."""
    sums, scales = [], []
    for x in queries:
        terms = [w * c * eval_kernel(s, z, x) for w, s in zip(a, specs) for z, c in zip(points, b)]
        sums.append(math.fsum(terms))
        scales.append(math.fsum(map(abs, terms)))
    return np.array(sums), np.array(scales)


def signed_column(acc: GramAccessor, i: int, j: int) -> np.ndarray:
    """Column j of G_i: y_j y_k (kappa_i(x_k, x_j) + ridge [j == k]) / r_i."""
    y = acc.labels
    col = acc.signed_columns_all(j)[i].copy()
    col[j] += acc.ridge
    col *= 1.0 / acc.specs[i].r
    col *= y * y[j]
    return col


def dense_gram(acc: GramAccessor, i: int) -> np.ndarray:
    """Full raw K_i assembled column by column."""
    if acc.n > 512:
        raise ValueError("dense Gram assembly is capped at n <= 512")
    gram = np.empty((acc.n, acc.n))
    block = np.empty((acc.m, acc.n))
    for j in range(acc.n):
        gram[:, j] = acc.signed_columns_all(j, out=block)[i]
    return gram


def dense_signed_gram(acc: GramAccessor, i: int) -> np.ndarray:
    """Full G_i, entry for entry as `signed_column` gives it."""
    gram = dense_gram(acc, i)
    gram.flat[:: acc.n + 1] += acc.ridge
    gram *= 1.0 / acc.specs[i].r
    gram *= np.outer(acc.labels, acc.labels)
    return gram


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


def serialize_libsvm(dataset: Dataset) -> str:
    """Render a Dataset back to LibSVM text (zeros omitted, 17 significant digits)."""
    lines = []
    for x, y in zip(dataset.points, dataset.labels):
        parts = ["+1" if y > 0 else "-1"]
        parts.extend(f"{j + 1}:{v:.17g}" for j, v in enumerate(x) if v != 0.0)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_libsvm_records(source, n_features: int | None = None) -> Dataset:
    """`mklmmwu.data.parse_libsvm` as it was before it converted blocks of
    records at once: each record converted with C-level maps and checked on
    its own, its first fault found token by token. The same accepted
    language, dataset and error for every input."""
    if isinstance(source, str):
        source = _cut_lines(source)
    limit = math.inf if n_features is None else n_features
    labels = array("d")
    counts = array("q")
    indices = array("q")
    values = array("d")
    top = top_line = 0  # largest index and the first line that uses it
    for line_no, raw_line in enumerate(chain.from_iterable(map(str.splitlines, source)), start=1):
        tokens = raw_line.partition("#")[0].split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            label = math.nan
        if not math.isfinite(label):
            raise ParseError(line_no, f"bad label {tokens[0]!r}")
        feats = tokens[1:]
        if feats:
            idx_s, _, val_s = zip(*map(str.partition, feats, repeat(":")))
            try:
                idx = list(map(int, idx_s))
                vals = list(map(float, val_s))
                ok = all(map(operator.lt, [0, *idx], idx)) and all(map(math.isfinite, vals))
            except ValueError:
                ok = False
            if not ok:
                _raise_first_fault(line_no, feats)
            if idx[-1] > limit:
                raise ParseError(line_no, f"file uses index {idx[-1]} > n_features={n_features}")
            if idx[-1] > top:
                top, top_line = idx[-1], line_no
            if top < 1 << 63:  # wider cannot be allocated; the rest of the file is only checked
                indices.fromlist(idx)
                values.fromlist(vals)
        labels.append(label)
        counts.append(len(feats))
    if not labels:
        raise EmptyDataset("no data records found")
    n = len(labels)
    d = max(top, 1) if n_features is None else max(n_features, 1)
    try:
        points = np.zeros((n, d))
    except (MemoryError, ValueError):  # ValueError: a width past what numpy can index
        raise ParseError(top_line, f"a dense {n} x {d} array (largest index {top}) cannot be allocated") from None
    # flat position of each entry: row * d + index - 1, built in the index buffer
    flat = np.frombuffer(indices, dtype=np.int64)
    flat += np.repeat(np.arange(-1, n * d - 1, d, dtype=np.int64), np.frombuffer(counts, dtype=np.int64))
    points.put(flat, np.frombuffer(values))
    return Dataset(points, *_map_labels(np.frombuffer(labels)))


def _raise_first_fault(line_no: int, feats: list[str]) -> None:
    """Raise the ParseError for the first faulty token of a record that failed
    a check of `parse_libsvm_records`, checking each token in turn."""
    prev = 0
    for tok in feats:
        idx_s, colon, val_s = tok.partition(":")
        if not colon:
            raise ParseError(line_no, f"expected index:value, got {tok!r}")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise ParseError(line_no, f"bad feature token {tok!r}") from None
        if idx < 1:
            raise ParseError(line_no, f"feature index {idx} is not 1-based")
        if idx <= prev:
            raise ParseError(line_no, f"feature index {idx} not strictly increasing")
        if not math.isfinite(val):
            raise ParseError(line_no, f"non-finite value in {tok!r}")
        prev = idx


def dense_expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated power series.

    Accepts symmetric matrices up to 64 x 64; the scaled Taylor tail is far
    below 1e-12 in spectral norm. The result is symmetrized to kill the last
    bits of round-off asymmetry.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("input must be square")
    k = mat.shape[0]
    if k > 64:
        raise ValueError("dense_expm is capped at 64 x 64")
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat - mat.T).max() > 1e-12 * scale:
        raise ValueError("input must be symmetric")

    norm = float(np.abs(mat).sum(axis=1).max())
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    scaled = mat / (2.0**squarings)

    # Horner evaluation of sum_{j<=24} A^j / j!; remainder < 0.5^25/25! << 1e-12.
    result = np.eye(k)
    for j in range(24, 0, -1):
        result = scaled @ result / j
        result[np.diag_indices(k)] += 1.0
    for _ in range(squarings):
        result = result @ result
    return 0.5 * (result + result.T)


def recompute_state(alpha_bar: np.ndarray, accessor) -> tuple[np.ndarray, np.ndarray]:
    """Dense reference for the solver caches in their stored form: the
    unnormalized w_i = (K_i + ridge I) yc with yc = y * 2a, and the
    quadforms q_i = a' G_i a = yc' w_i / (4 r_i)."""
    if accessor.n > 100:
        raise ValueError("recompute_state is capped at n <= 100")
    yc = accessor.labels * (2.0 * np.asarray(alpha_bar, dtype=np.float64))
    w = np.zeros((accessor.m, accessor.n))
    q = np.zeros(accessor.m)
    for i, spec in enumerate(accessor.specs):
        w[i] = dense_gram(accessor, i) @ yc + accessor.ridge * yc
        q[i] = float(yc @ w[i]) / (4.0 * spec.r)
    return w, q


@dataclass(frozen=True)
class BruteResult:
    alpha: np.ndarray  # (n,) optimal feasible dual point
    omega: float  # min over the feasible set of max_i alpha' G_i alpha
    active: tuple[int, ...]  # kernels tight at the optimum
    multipliers: np.ndarray  # (m,) KKT weights, zero off the active set, sum 1
    residual: float  # first-order stationarity residual


def _project_simplex(v: np.ndarray, mass: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = mass}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - mass
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _project_feasible(alpha, pos, neg):
    out = np.array(alpha, dtype=np.float64)
    out[pos] = _project_simplex(out[pos], 0.5)
    out[neg] = _project_simplex(out[neg], 0.5)
    return out


def _residual_for(gstack, alpha, lam, pos, neg, step=1e-3):
    grad = 2.0 * np.einsum("i,ijk,k->j", lam, gstack, alpha)
    moved = _project_feasible(alpha - step * grad, pos, neg)
    return float(np.linalg.norm(alpha - moved)) / step


def _lambda_grid(count: int, spacing: int):
    if count == 1:
        yield np.array([1.0])
        return
    if count == 2:
        for a in range(spacing + 1):
            yield np.array([a / spacing, 1.0 - a / spacing])
        return
    for a in range(spacing + 1):
        for b in range(spacing + 1 - a):
            yield np.array([a / spacing, b / spacing, (spacing - a - b) / spacing])


def _certify(gstack, alpha, vals, pos, neg, extra=()):
    """Best active-set multipliers by projected-gradient residual search."""
    top = float(vals.max())
    tol = 1e-5 * max(abs(top), 1e-30)
    active = [i for i in range(gstack.shape[0]) if vals[i] >= top - tol]
    sub = gstack[active]
    best_lam, best_res = None, np.inf
    candidates = list(_lambda_grid(len(active), 40))
    for lam_full in extra:
        lam = np.asarray(lam_full, dtype=np.float64)[active]
        total = lam.sum()
        if total > 0:
            candidates.append(lam / total)
    for lam in candidates:
        res = _residual_for(sub, alpha, lam, pos, neg)
        if res < best_res:
            best_res, best_lam = res, lam
    width = 0.02
    for _ in range(10):
        improved = False
        for k in range(len(active)):
            for sgn in (-1.0, 1.0):
                trial = np.array(best_lam)
                trial[k] = max(trial[k] + sgn * width, 0.0)
                total = trial.sum()
                if total <= 0:
                    continue
                trial /= total
                res = _residual_for(sub, alpha, trial, pos, neg)
                if res < best_res:
                    best_res, best_lam, improved = res, trial, True
        if not improved:
            width /= 3.0
    full = np.zeros(gstack.shape[0])
    full[active] = best_lam
    return tuple(active), full, best_res


def _kkt_newton(gstack, y, alpha0, pos, neg, passes=6):
    """Newton solve of the saddle KKT system from a warm start.

    Unknowns are the support entries of alpha, the active-set multipliers,
    and the two class-sum multipliers; equations are stationarity on the
    support, the class sums, equality of the active quadforms, and the
    multiplier normalization. The active set and support are re-identified
    after each solve pass when a sign constraint is violated.
    """
    m, n, _ = gstack.shape
    alpha = np.array(alpha0)
    vals = np.einsum("j,ijk,k->i", alpha, gstack, alpha)
    top = float(vals.max())
    active = [i for i in range(m) if vals[i] >= top - 1e-4 * max(abs(top), 1e-30)]
    support = [j for j in range(n) if alpha[j] > 1e-8]
    lam = np.zeros(m)
    lam[active] = 1.0 / len(active)

    for _ in range(passes):
        s = len(support)
        a_count = len(active)
        dim = s + a_count + 2
        x = np.zeros(dim)
        x[:s] = alpha[support]
        x[s : s + a_count] = lam[active]
        is_pos = np.isin(support, pos)

        def unpack(vec):
            al = np.zeros(n)
            al[support] = vec[:s]
            lm = np.zeros(m)
            lm[active] = vec[s : s + a_count]
            return al, lm, vec[s + a_count], vec[s + a_count + 1]

        converged = False
        for _ in range(60):
            al, lm, mult_a, mult_b = unpack(x)
            g_al = np.einsum("ijk,k->ij", gstack, al)  # (m, n) rows G_i alpha
            comb = lm @ g_al  # sum_i lam_i G_i alpha
            q = np.einsum("ij,j->i", g_al, al)
            res = np.zeros(dim)
            res[:s] = 2.0 * comb[support] + np.where(is_pos, mult_a, mult_b)
            res[s : s + a_count - 1] = q[active[1:]] - q[active[0]]
            res[s + a_count - 1] = lm[active].sum() - 1.0
            res[s + a_count] = al[pos].sum() - 0.5
            res[s + a_count + 1] = al[neg].sum() - 0.5
            if float(np.abs(res).max()) < 1e-13:
                converged = True
                break
            jac = np.zeros((dim, dim))
            gsum = np.einsum("i,ijk->jk", lm, gstack)
            jac[:s, :s] = 2.0 * gsum[np.ix_(support, support)]
            for k, i in enumerate(active):
                jac[:s, s + k] = 2.0 * g_al[i, support]
            jac[:s, s + a_count] = is_pos.astype(float)
            jac[:s, s + a_count + 1] = (~is_pos).astype(float)
            for row, i in enumerate(active[1:]):
                jac[s + row, :s] = 2.0 * (g_al[i, support] - g_al[active[0], support])
            jac[s + a_count - 1, s : s + a_count] = 1.0
            jac[s + a_count, :s] = is_pos.astype(float)
            jac[s + a_count + 1, :s] = (~is_pos).astype(float)
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                return None
            x = x + step
        if not converged:
            return None
        al, lm, _, _ = unpack(x)
        neg_support = [j for j in support if al[j] < -1e-12]
        neg_lam = [i for i in active if lm[i] < -1e-10]
        if not neg_support and not neg_lam:
            if (al < -1e-12).any() or abs(al[pos].sum() - 0.5) > 1e-10:
                return None
            al = np.maximum(al, 0.0)
            lm = np.maximum(lm, 0.0)
            total = lm.sum()
            if total <= 0:
                return None
            return al, lm / total
        support = [j for j in support if j not in neg_support]
        active = [i for i in active if i not in neg_lam]
        if not support or not active:
            return None
        if not set(support) & set(pos.tolist()) or not set(support) & set(neg.tolist()):
            return None
    return None


def brute_qcqp(
    gmats,
    y: np.ndarray,
    n_starts: int = 64,
    iter_cap: int = 100_000,
    seed: int = 0,
    certify: bool = True,
) -> BruteResult:
    """Minimize max_i alpha' G_i alpha over {alpha >= 0, class sums both 1/2}.

    Multi-start projected gradient with step halving does the global search
    (the nonsmooth max is annealed through a sharpening softmax), then a
    Newton solve of the KKT system polishes the best point to machine
    precision. Tiny instances only (n <= 12, m <= 3). The certificate is a
    first-order stationarity residual below 1e-7, minimized over active-set
    multipliers; the minimizing multipliers are returned.
    """
    gstack = np.stack([np.asarray(g, dtype=np.float64) for g in gmats])
    y = np.asarray(y, dtype=np.float64)
    m, n = gstack.shape[0], y.size
    if n > 12 or m > 3 or m < 1:
        raise ValueError("brute_qcqp handles n <= 12 and 1 <= m <= 3")
    pos = np.flatnonzero(y > 0)
    neg = np.flatnonzero(y < 0)
    if pos.size == 0 or neg.size == 0:
        raise InfeasibleDual("both classes are required")

    def maxval(alpha):
        return float(np.einsum("j,ijk,k->i", alpha, gstack, alpha).max())

    rng = np.random.default_rng(seed)
    per_start = max(min(iter_cap // max(n_starts, 1), 600), 50)
    betas = (1e2, 1e3, 1e4, 1e6, 1e8)
    best_alpha, best_val = None, np.inf
    for _ in range(n_starts):
        alpha = np.zeros(n)
        alpha[pos] = rng.random(pos.size)
        alpha[neg] = rng.random(neg.size)
        alpha = _project_feasible(alpha, pos, neg)
        for phase, beta in enumerate(betas):
            budget = per_start // len(betas)
            step = 0.25
            vals = np.einsum("j,ijk,k->i", alpha, gstack, alpha)
            weights = np.exp(beta * (vals - vals.max()))
            weights /= weights.sum()
            smoothed = float(weights @ vals)
            for _ in range(budget):
                grad = 2.0 * np.einsum("i,ijk,k->j", weights, gstack, alpha)
                trial = _project_feasible(alpha - step * grad, pos, neg)
                tvals = np.einsum("j,ijk,k->i", trial, gstack, trial)
                tweights = np.exp(beta * (tvals - tvals.max()))
                tweights /= tweights.sum()
                tsm = float(tweights @ tvals)
                if tsm < smoothed - 1e-18:
                    alpha, vals, weights, smoothed = trial, tvals, tweights, tsm
                    step = min(step * 1.3, 1.0)
                else:
                    step *= 0.5
                    if step < 1e-14:
                        break
        val = maxval(alpha)
        if val < best_val:
            best_val, best_alpha = val, alpha

    alpha = best_alpha
    extra = []
    polished = _kkt_newton(gstack, y, alpha, pos, neg)
    if polished is not None:
        al, lm = polished
        if maxval(al) <= best_val + 1e-9 * max(abs(best_val), 1e-30):
            alpha = al
            extra.append(lm)
    vals = np.einsum("j,ijk,k->i", alpha, gstack, alpha)
    omega = float(vals.max())
    active, lam, residual = _certify(gstack, alpha, vals, pos, neg, extra=extra)
    if certify and residual >= 1e-7:
        raise NumericalFailure(0, f"stationarity residual {residual:.3e} >= 1e-7")
    return BruteResult(alpha=alpha, omega=omega, active=active, multipliers=lam, residual=residual)


def _pair_step(h: np.ndarray, a: np.ndarray, idx: np.ndarray) -> tuple:
    """The MDM pair of one class: (gap, point to take mass from, point to
    give it to), the support point of largest h and the point of least h."""
    support = idx[a[idx] > 0.0]
    k_out, k_in = support[h[support].argmax()], idx[h[idx].argmin()]
    return float(h[k_out] - h[k_in]), k_out, k_in


def _nearest_point(gram, pos, neg, a, rel_gap=1e-5, cap=100_000) -> float:
    """Pairwise (MDM) descent on f(a) = a' gram a over the feasible set,
    from `a`, which it overwrites with the point it reaches. Returns the
    Frank-Wolfe lower bound on min f, valid at any feasible a: with h =
    gram a, f is convex, so min f >= f(a) + min_s 2h'(s - a), and the
    linear minimum puts 1/2 on the least h of each class:
    min f >= min_pos h + min_neg h - a'h. Stops when f is within rel_gap
    of the bound, or after about `cap` steps."""
    for _ in range(0, cap, 50):
        h = gram @ a  # afresh every 50 steps, so the bound carries no drift
        f = float(a @ h)
        bound = float(h[pos].min() + h[neg].min()) - f
        if f - bound <= rel_gap * f:
            break
        for _ in range(50):
            # move mass t from k_out to k_in in the class with the larger gap,
            # t minimizing f along that line and at most a[k_out]
            gap, k_out, k_in = max(_pair_step(h, a, pos), _pair_step(h, a, neg))
            if gap <= 0.0:
                break
            curv = gram[k_in, k_in] + gram[k_out, k_out] - 2.0 * gram[k_in, k_out]
            t = a[k_out] if curv <= 0.0 else min(a[k_out], gap / curv)
            a[k_in] += t
            a[k_out] -= t
            h += t * (gram[:, k_in] - gram[:, k_out])
    return bound


def certified_bracket(gmats, y: np.ndarray, tol: float = 1.002, rounds: int = 500):
    """Bounds lo <= omega* <= hi on omega* = min max_i alpha' G_i alpha over
    {alpha >= 0, class sums both 1/2}, and the feasible point that gives hi,
    as (lo, hi, alpha). Takes the dense G_i, so sizes a test can hold.

    The G_i are PSD and both sets are compact and convex, so omega* is also
    the max over kernel weights w in the simplex of min_alpha alpha' G_w
    alpha, G_w = sum_i w_i G_i. For any w, the Frank-Wolfe bound of that
    inner problem (`_nearest_point`) is thus a lower bound on omega*, and
    any feasible alpha gives the upper bound max_i alpha' G_i alpha. An
    outer multiplicative-weights loop moves w toward the kernels with the
    largest alpha' G_i alpha at the inner problem's nearest point. Its step
    grows by half after a round that raises lo, and halves, from the best w
    so far, after one that does not. It stops when hi/lo < tol or after
    `rounds` rounds.
    """
    gstack = np.stack([np.asarray(g, dtype=np.float64) for g in gmats])
    y = np.asarray(y, dtype=np.float64)
    pos, neg = np.flatnonzero(y > 0), np.flatnonzero(y < 0)
    if pos.size == 0 or neg.size == 0:
        raise InfeasibleDual("both classes are required")
    a = np.zeros(y.size)
    a[pos], a[neg] = 0.5 / pos.size, 0.5 / neg.size
    w = best_w = np.full(len(gstack), 1.0 / len(gstack))
    lo, hi, best_a, best_q, eta = -math.inf, math.inf, a.copy(), None, 1.0
    for _ in range(rounds):
        bound = _nearest_point(np.tensordot(w, gstack, 1), pos, neg, a)
        q = (gstack @ a) @ a
        if q.max() < hi:
            hi, best_a = float(q.max()), a.copy()
        if bound > lo:
            lo, best_w, best_q, eta = bound, w, q, 1.5 * eta
        else:
            eta *= 0.5
        if hi < tol * lo:
            break
        w = best_w * np.exp(eta * (best_q - best_q.max()) / hi)
        w /= w.sum()
    return lo, hi, best_a
