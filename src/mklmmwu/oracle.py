"""Independent brute-force references for tests and acceptance checks.

Nothing here is used on the training path; these routines deliberately take
the slow, dense road so the fast closed-form code has something honest to be
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDual, NumericalFailure


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
    unnormalized w_i = (K_i + ridge_i I) yc with yc = y * 2a, and the
    quadforms q_i = a' G_i a = yc' w_i / (4 r_i)."""
    if accessor.n > 100:
        raise ValueError("recompute_state is capped at n <= 100")
    yc = accessor.labels * (2.0 * np.asarray(alpha_bar, dtype=np.float64))
    w = np.zeros((accessor.m, accessor.n))
    q = np.zeros(accessor.m)
    for i, spec in enumerate(accessor.specs):
        w[i] = accessor.dense_gram(i) @ yc + spec.ridge * yc
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
