"""Weighted-lasso solver: the exact solution path, batched over a stack.

Every selection problem in the package is a weighted lasso
``0.5 * ||y - X a||^2 + sum_j thresh_j |a_j|``. :func:`lasso_gram` solves a
stack of them at once, in covariance form (Friedman, Hastie and Tibshirani,
2010), from ``X'X`` and ``X'y`` alone. Each problem is first tried on the
support and signs that the KKT conditions give at zero (``|X'y|_j >
thresh_j``, ``sign(X'y)``), which settles most problems of a selection
stack. The others walk the exact solution path (the homotopy of Osborne,
Presnell and Turlach, 2000; LARS with the lasso modification, Efron et al.,
2004) down from the smallest penalty with an all-zero solution: the
solution is linear in the penalty between knots, and each step moves every
problem to its next knot, where a coordinate enters or drops to zero. The
stationarity system is then solved exactly on each problem's final support
and signs. Every solution is certified on its own (stationarity excess at
most ``KKT_TOL``), or that problem alone fails with
:class:`~proxsel.exceptions.NoConvergence`.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .exceptions import NoConvergence
from .linalg import as_matrix, as_real, as_vector, inner, keep_first, matvec, swap

__all__ = [
    "lasso_solve",
    "kkt_violation",
    "lasso_gram",
    "cv_penalty",
]

#: Stationarity tolerance certified on every lasso solution (absolute).
KKT_TOL = 1e-6

#: A lasso path may take this many steps per column of its design, plus one.
PATH_STEPS_PER_COLUMN = 4

#: :func:`cv_penalty`: folds, grid points, smallest/largest grid penalty.
CV_FOLDS = 10
CV_GRID_SIZE = 50
CV_GRID_MIN_RATIO = 1e-3


def kkt_violation(
    design, response, coefficients, lam: float, weights=None
) -> float:
    """Worst-case stationarity violation of a weighted-lasso solution.

    For the objective ``0.5 * ||y - X a||^2 + lam * sum_j w_j |a_j|`` the
    subgradient conditions are, with ``g = X'(X a - y)``:
    ``|g_j + lam * w_j * sign(a_j)| = 0`` on the support and
    ``|g_j| <= lam * w_j`` off it. Returns the largest absolute excess.
    A NaN or negative ``lam``, or a response or coefficient vector whose
    length does not match the design, is a ``ValueError``.
    """
    x, y = as_matrix(design, "design"), as_vector(response, "response")
    a = as_vector(coefficients, "coefficients")
    if (y.size, a.size) != x.shape:
        raise ValueError(f"design is {x.shape[0]} x {x.shape[1]} but response has {y.size} "
                         f"entries and coefficients {a.size}")
    lam = _check_lam(lam)
    w = _check_weights(weights, x.shape[1])
    return float(_kkt(x.T @ (x @ a - y), a, lam * w))


def _kkt(grad: np.ndarray, a: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Row-wise stationarity excess given ``grad = X'(X a - y)``."""
    on = a != 0
    viol = np.where(on, np.abs(grad + np.copysign(thresh, a)), np.abs(grad) - thresh)
    return np.max(np.maximum(viol, 0.0), axis=-1, initial=0.0)


def _check_lam(lam) -> float:
    lam = as_real(lam, "lam")
    if not lam >= 0.0:  # NaN fails this too
        raise ValueError(f"lam must be nonnegative, got {lam}")
    return lam


def _check_weights(weights, p: int) -> np.ndarray:
    if weights is None:
        return np.ones(p)
    w = as_vector(weights, "weights")
    if w.size != p:
        raise ValueError(f"weights has length {w.size}, expected {p}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return w


def lasso_solve(design, response, lam: float, weights=None) -> np.ndarray:
    """Minimize ``0.5*||y - X a||^2 + lam * sum_j weights_j * |a_j|``.

    A stack of one problem for :func:`lasso_gram`: the support and signs
    that the KKT conditions give at zero, or else those at the end of the
    exact lasso path down to ``lam``, with the stationarity system solved
    exactly on them. The returned vector carries exact zeros off the
    support and passes the check of :func:`kkt_violation` at the module
    constant ``KKT_TOL``. A penalty at or above ``max_j |X_j'y| /
    weights_j`` (``inf`` included) gives zeros; ``lam = 0`` falls back to
    least squares (minimum-norm when the design is singular).

    Raises
    ------
    ValueError
        If ``lam`` is NaN or negative, a weight is not positive, or the
        shapes disagree.
    NoConvergence
        If the path meets a singular Gram block on its support or exceeds
        its step cap, or the solution fails the stationarity certificate.
    """
    x = as_matrix(design, "design")
    y = as_vector(response, "response")
    if x.shape[0] != y.size:
        raise ValueError(f"design has {x.shape[0]} rows but response has {y.size}")
    lam = _check_lam(lam)
    w = _check_weights(weights, x.shape[1])
    x, y = x[None], y[None]
    alpha, errors = lasso_gram(
        swap(x) @ x, matvec(swap(x), y), (lam * w)[None], lambda i: (x[i], y[i])
    )
    if errors[0] is not None:
        raise errors[0]
    return alpha[0]


def lasso_gram(gram, xty, thresh, rows):
    """Weighted lassos ``0.5*||y_i - X_i a||^2 + sum_j thresh_ij |a_j|``, one
    per problem ``i``, in covariance form (``gram = X'X``, ``xty = X'y``).

    ``thresh`` is ``(problems, p)``, or ``(problems, m, p)`` for ``m``
    penalties along each problem's path, each ``thresh[i, k]`` a multiple of
    ``thresh[i, -1]`` and descending in ``k``. A row is positive, or all
    zero: that problem is least squares, solved on its design ``rows(i) ->
    (X_i, y_i)``. A problem with one penalty is first solved on the support
    and signs of the KKT conditions at zero; the others walk :func:`_path`,
    and each penalty is solved on the support and signs the path gives it.
    Returns the solutions, shaped as ``thresh``, and each problem's error,
    or None.
    """
    t = thresh if thresh.ndim == 3 else thresh[:, None]
    m = t.shape[1]
    alpha, errors = np.zeros(t.shape), [None] * len(t)
    ls, walk = np.flatnonzero(~t.any(axis=(1, 2))), np.flatnonzero(t.any(axis=(1, 2)))
    g, c = gram[walk], xty[walk]
    if m == 1:  # the support and signs of the KKT conditions at zero
        alpha[walk, 0], ok = _support_solve(g, c, t[walk, 0], np.abs(c) > t[walk, 0], np.sign(c))
        walk, g, c = walk[~ok], g[~ok], c[~ok]
    stops = np.concatenate([t[walk, :-1, 0] / t[walk, -1:, 0], np.ones((walk.size, 1))], axis=1)
    sign, path_errors = _path(g, c, t[walk, -1], stops)
    keep_first(errors, path_errors, at=walk)
    for k in range(m):
        alpha[walk, k] = _support_solve(g, c, t[walk, k], sign[:, k] != 0, sign[:, k])[0]
    if ls.size:
        alpha[ls, 0] = [np.linalg.lstsq(x, y, rcond=None)[0] for x, y in zip(*rows(ls))]
    viol = np.max([_kkt(matvec(gram, alpha[:, k]) - xty, alpha[:, k], t[:, k])
                   for k in range(m)], axis=0)
    keep_first(errors, [
        None if v <= KKT_TOL else NoConvergence(
            f"the lasso solution fails the stationarity certificate: "
            f"violation {v:.3e} > {KKT_TOL:g}"
        )
        for v in viol
    ])
    return alpha.reshape(thresh.shape), errors


def _path(gram, xty, thresh, stops):
    """Supports and signs of lassos read off their exact solution paths.

    Problem ``i`` has the penalties ``stops[i, k] * thresh[i]``, the scales
    ``stops[i]`` descending to 1. Its path starts from the empty support
    above ``max_j |xty_ij| / thresh_ij`` and moves down in the scale ``c``:
    on a support A with signs s, the solution is ``u - c v``, where ``G_AA u
    = xty_A`` and ``G_AA v = s * thresh_A``, until a coordinate enters
    (``|xty_j - G_jA (u - c v)| = c thresh_j``) or drops (``u_j = c v_j``).
    Each step moves every problem to its next knot. Returns the signs at each
    scale, ``(problems, m, p)`` and 0 off the support, and each problem's
    error, or None: a singular Gram block on the support, or a path longer than
    ``PATH_STEPS_PER_COLUMN * (p + 1)`` steps, fails that problem alone.
    """
    (n, p), m = xty.shape, stops.shape[1]
    sign_at, errors = np.zeros((n, m, p), dtype=np.int8), [None] * n
    live = (np.arange(n), gram, xty, thresh, stops, np.full(n, math.inf),
            np.zeros((n, p)), np.zeros((n, m), dtype=bool))
    steps = PATH_STEPS_PER_COLUMN * (p + 1)
    for _ in range(steps):
        idx, g, c, t, stop, scale, sign, done = live
        if not idx.size:
            break
        on = sign != 0
        uv = _block_solve(g, on, np.stack([c, np.copysign(t, sign)], axis=-1))
        singular = ~np.isfinite(uv).all(axis=(1, 2))
        guv = g @ uv
        resid, slope = c - guv[..., 0], guv[..., 1]  # X'r = resid + c * slope
        u, v = uv[..., 0], uv[..., 1]
        events = np.stack([
            _ratio(resid, t - slope, ~on),  # X_j'r reaches +c t_j: j enters, sign +1
            _ratio(-resid, t + slope, ~on),  # it reaches -c t_j: j enters, sign -1
            _ratio(-sign * u, -sign * v, on),  # u_j - c v_j reaches 0: j drops
        ], axis=1).reshape(idx.size, 3 * p)
        best = np.argmax(events, axis=1)
        rows = np.arange(idx.size)
        scale = np.minimum(events[rows, best], scale)
        rec = ~done & (stop >= scale[:, None]) & ~singular[:, None]
        i, k = np.nonzero(rec)
        sign_at[idx[i], k] = sign[i]
        done |= rec
        keep_first(errors, [
            NoConvergence(f"the lasso path meets a singular Gram block on "
                          f"{a} active coordinates") for a in on[singular].sum(axis=1)
        ], at=idx[singular])
        kind, j = np.divmod(best, p)
        sign[rows, j] = np.array([1.0, -1.0, 0.0])[kind]
        keep = ~(done[:, -1] | singular)
        live = tuple(z[keep] for z in (idx, g, c, t, stop, scale, sign, done))
    else:
        keep_first(errors, [
            NoConvergence(f"the lasso path did not reach its penalty in {steps} steps")
            for _ in live[0]
        ], at=live[0])
    return sign_at, errors


def _ratio(num, den, where):
    """``num / den`` where ``where`` and ``den > 0``, else ``-inf``."""
    return np.divide(num, den, out=np.full(num.shape, -math.inf), where=where & (den > 0))


def _block_solve(gram, on, rhs):
    """Solutions ``x`` of ``G_AA x_A = rhs_A``, zero off ``A``, for each
    problem's support ``A = on[i]`` and Gram ``G = gram[i]``; ``rhs`` is
    ``(n, p, r)``. The problems with ``k`` active coordinates make one solve
    of their k x k blocks; a singular block's solution is NaN."""
    x, size = np.zeros(rhs.shape), on.sum(axis=1)
    for k in np.unique(size[size > 0]):
        rows = np.flatnonzero(size == k)
        cols = np.nonzero(on[rows])[1].reshape(rows.size, k)
        h = gram[rows[:, None, None], cols[:, :, None], cols[:, None, :]]
        b = rhs[rows[:, None], cols]
        try:
            sol = np.linalg.solve(h, b)
        except np.linalg.LinAlgError:  # solve the blocks one by one; the
            sol = np.full(b.shape, math.nan)  # singular ones stay NaN
            for i in range(rows.size):
                with contextlib.suppress(np.linalg.LinAlgError):
                    sol[i] = np.linalg.solve(h[i], b[i])
        x[rows[:, None], cols] = sol
    return x


def _support_solve(gram, xty, thresh, on, sign):
    """Exact solution of the stationarity system on supports ``on`` with
    signs ``sign``, and whether it solves the lasso: signs kept on the
    support, ``|X_j' r| <= thresh_j`` off it."""
    sol = _block_solve(gram, on, (xty - np.copysign(thresh, sign))[..., None])[..., 0]
    grad = xty - matvec(gram, sol)
    ok = np.where(on, np.sign(sol) == sign, np.abs(grad) <= thresh)
    return sol, np.all(ok, axis=1)


def cv_penalty(x: np.ndarray, y: np.ndarray, lam_max: np.ndarray):
    """Cross-validated plain-lasso penalty of each problem ``(x_i, y_i)``.

    ``CV_FOLDS`` contiguous row blocks (no RNG) are the folds; the grid has
    ``CV_GRID_SIZE`` log-spaced penalties from ``lam_max = max |x'y|`` (as
    the caller computes it: the smallest penalty with an all-zero solution)
    down to ``CV_GRID_MIN_RATIO`` times it; ties prefer the larger penalty.
    A fold's ``X'X`` and ``X'y`` are the full sums less its validation
    block's. Every fold of every problem is one problem of one
    :func:`lasso_gram` call, which reads the whole grid off that fold's
    lasso path. Returns the penalties (0 where ``lam_max`` is 0) and each
    problem's first solver error, or None.
    """
    lam, errors = np.zeros(len(x)), [None] * len(x)
    todo = np.flatnonzero(lam_max > 0.0)
    n, p = x.shape[1:]
    grid = np.geomspace(
        CV_GRID_MIN_RATIO * lam_max[todo], lam_max[todo], CV_GRID_SIZE, axis=1
    )[:, ::-1]
    bounds = np.linspace(0, n, CV_FOLDS + 1).astype(int)
    vals = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    blocks = [(swap(xv) @ xv, matvec(swap(xv), yv), inner(yv, yv))
              for xv, yv in ((x[todo, v], y[todo, v]) for v in vals)]
    val_gram, val_xty, val_yy = map(np.stack, zip(*blocks))
    gram, xty = (np.sum(s, axis=0) - s for s in (val_gram, val_xty))
    thresh = np.tile(grid, (CV_FOLDS, 1))[:, :, None]
    a, fold_errors = lasso_gram(gram.reshape(-1, p, p), xty.reshape(-1, p),
                                np.broadcast_to(thresh, thresh.shape[:2] + (p,)), None)
    keep_first(errors, fold_errors, at=np.tile(todo, CV_FOLDS))
    # Each fold's validation error from its block's sums: |y - X a|^2 =
    # y'y - 2 a'X'y + a'X'X a, at every grid point at once.
    a = a.reshape(CV_FOLDS, todo.size, CV_GRID_SIZE, p)
    fit = inner(a, val_xty[:, :, None]), inner(a @ val_gram, a)
    mse = np.sum(val_yy[..., None] - 2.0 * fit[0] + fit[1], axis=0)
    # The grid descends, so argmin's first minimum is the larger penalty.
    lam[todo] = grid[np.arange(todo.size), np.argmin(mse, axis=1)]
    return lam, errors
