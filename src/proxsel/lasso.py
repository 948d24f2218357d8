"""Weighted-lasso solver: batched coordinate descent with a support polish.

Every selection problem in the package is a weighted lasso
``0.5 * ||y - X a||^2 + sum_j thresh_j |a_j|``. :func:`lasso_gram` solves a
stack of them at once, in covariance form (Friedman, Hastie and Tibshirani,
2010), from ``X'X``, ``X'y`` and ``y'y`` alone: cyclic coordinate descent on
each Gram system, vectorized over the stack. The stationarity system is
solved exactly on the KKT support and signs at a zero start before the
first sweep, and on the iterate's after every sweep; this polish usually
ends the iteration before any sweep. Every returned solution is certified
on its own (stationarity excess at most ``KKT_TOL`` and, when the iteration
did not settle, duality gap at most ``DUAL_GAP_TOL * y'y``), or that
problem alone fails with :class:`~proxsel.exceptions.NoConvergence`.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .exceptions import NoConvergence
from .linalg import alive, as_matrix, as_vector, inner, keep_first, matvec, swap

__all__ = [
    "lasso_solve",
    "kkt_violation",
    "lasso_gram",
    "cv_penalty",
]

#: Stationarity tolerance certified on every lasso solution (absolute).
KKT_TOL = 1e-6

#: Duality-gap tolerance, relative to the squared response norm.
DUAL_GAP_TOL = 1e-8

#: Hard cap on coordinate-descent sweeps.
DEFAULT_MAX_SWEEPS = 100_000

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
    """
    x = as_matrix(design, "design")
    y = as_vector(response, "response")
    a = as_vector(coefficients, "coefficients")
    w = _check_weights(weights, x.shape[1])
    return float(_kkt(x.T @ (x @ a - y), a, lam * w))


def _kkt(grad: np.ndarray, a: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Row-wise stationarity excess given ``grad = X'(X a - y)``."""
    on = a != 0
    viol = np.where(on, np.abs(grad + thresh * np.sign(a)), np.abs(grad) - thresh)
    return np.max(np.maximum(viol, 0.0), axis=-1, initial=0.0)


def _check_weights(weights, p: int) -> np.ndarray:
    if weights is None:
        return np.ones(p)
    w = as_vector(weights, "weights")
    if w.size != p:
        raise ValueError(f"weights has length {w.size}, expected {p}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return w


def lasso_solve(
    design,
    response,
    lam: float,
    weights=None,
    *,
    start=None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> np.ndarray:
    """Minimize ``0.5*||y - X a||^2 + lam * sum_j weights_j * |a_j|``.

    A stack of one problem for :func:`lasso_gram`: cyclic coordinate
    descent on the Gram system, polished by solving the stationarity system
    exactly on the KKT support and signs at a zero start, then on the
    iterate's after every sweep (a singular system is skipped). The polish
    ends the iteration once its solution keeps its signs, leaves every
    coordinate off the support within its bound, and passes the duality-gap
    and stationarity certificates; otherwise the iteration runs on to a
    coordinate-wise fixed point. Either way the returned vector carries
    exact zeros off the support and passes the check of
    :func:`kkt_violation` at the module constant ``KKT_TOL``. ``lam = 0``
    falls back to least squares (minimum-norm when the design is singular).
    ``start`` warm-starts the iteration; the solution of a convex problem
    does not depend on it.

    Raises
    ------
    NoConvergence
        If ``max_sweeps`` sweeps do not reach the duality-gap tolerance
        ``DUAL_GAP_TOL * ||response||^2`` (a module constant), or the
        terminal iterate fails the stationarity certificate.
    """
    x = as_matrix(design, "design")
    y = as_vector(response, "response")
    if x.shape[0] != y.size:
        raise ValueError(
            f"design has {x.shape[0]} rows but response has {y.size}"
        )
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    p = x.shape[1]
    w = _check_weights(weights, p)
    if start is not None:
        start = as_vector(start, "start")[None]
        if start.size != p:
            raise ValueError(f"start has length {start.size}, expected {p}")
    x, y = x[None], y[None]
    alpha, errors = lasso_gram(
        swap(x) @ x, matvec(swap(x), y), inner(y, y), (lam * w)[None],
        lambda i: (x[i], y[i]), start, max_sweeps,
    )
    if errors[0] is not None:
        raise errors[0]
    return alpha[0]


def lasso_gram(gram, xty, yy, thresh, rows, start=None, max_sweeps=DEFAULT_MAX_SWEEPS):
    """Weighted lassos ``0.5*||y_i - X_i a||^2 + sum_j thresh_ij |a_j|``, one
    per problem ``i``, in covariance form (``gram = X'X``, ``xty = X'y``,
    ``yy = y'y``). All-zero rows of ``thresh`` are least squares, solved on
    the designs ``rows(i) -> (X_i, y_i)`` of those problems ``i``. Returns
    the solutions and each problem's error, or None."""
    alpha = np.zeros(xty.shape) if start is None else np.array(start, dtype=float)
    errors: list = [None] * len(alpha)
    lasso = np.any(thresh > 0, axis=1)
    ls, cd = np.flatnonzero(~lasso), np.flatnonzero(lasso)
    for i, x, y in zip(ls, *rows(ls)):
        alpha[i] = np.linalg.lstsq(x, y, rcond=None)[0]
    keep_first(errors, _certify(gram[ls], xty[ls], None, thresh[ls], alpha[ls]), at=ls)
    if cd.size:
        alpha[cd], cd_errors = _coordinate_descent(
            gram[cd], xty[cd], yy[cd], thresh[cd], alpha[cd], max_sweeps
        )
        keep_first(errors, cd_errors, at=cd)
    return alpha, errors


def _certify(gram, xty, yy, thresh, a, sweeps=None) -> list:
    """Each problem's certificate failure, or None: the stationarity excess
    against ``KKT_TOL`` and, given the ``sweeps`` used when the iteration
    did not settle, first the duality gap against ``DUAL_GAP_TOL * y'y``.
    The gap scales the residual onto the dual-feasible set ``{nu : |X_j'
    nu| <= thresh_j}`` and evaluates the Fenchel dual there; it is zero
    exactly at the optimum."""
    g_a = matvec(gram, a)
    grad = g_a - xty
    errors: list = [
        None if v <= KKT_TOL else NoConvergence(
            f"terminal iterate fails the stationarity certificate: "
            f"violation {v:.3e} > {KKT_TOL:g}"
        )
        for v in _kkt(grad, a, thresh)
    ]
    if sweeps is None:
        return errors
    a_xty = inner(a, xty)
    rr = yy - 2.0 * a_xty + inner(a, g_a)
    s = 1.0 / np.maximum(1.0, np.max(np.abs(grad) / thresh, axis=1, initial=0.0))
    gap = 0.5 * rr + inner(thresh, np.abs(a)) - s * (yy - a_xty) + 0.5 * s * s * rr
    target = DUAL_GAP_TOL * yy
    return [
        NoConvergence(
            f"coordinate descent used {sweeps} sweeps but the duality gap "
            f"{g:.3e} still exceeds {t:.3e}"
        ) if g > t else e
        for g, t, e in zip(gap, target, errors)
    ]


def _support_solve(gram, xty, thresh, on, sign):
    """Exact solution of the stationarity system on supports ``on`` with
    signs ``sign``, and whether it solves the lasso: signs kept on the
    support, ``|X_j' r| <= thresh_j`` off it. Problems are grouped by
    support size ``k``; each group makes one solve of its k x k blocks."""
    rhs, sol, size = xty - thresh * sign, np.zeros(on.shape), on.sum(axis=1)
    for k in np.unique(size[size > 0]):
        rows = np.flatnonzero(size == k)
        cols = np.nonzero(on[rows])[1].reshape(rows.size, k)
        h = gram[rows[:, None, None], cols[:, :, None], cols[:, None, :]]
        b = np.take_along_axis(rhs[rows], cols, axis=1)
        try:
            x = np.linalg.solve(h, b[..., None])[..., 0]
        except np.linalg.LinAlgError:  # screen the systems one by one; the
            x = np.full(b.shape, math.nan)  # singular ones keep sweeping
            for i in range(rows.size):
                with contextlib.suppress(np.linalg.LinAlgError):
                    x[i] = np.linalg.solve(h[i], b[i])
        sol[rows[:, None], cols] = x
    grad = xty - matvec(gram, sol)
    ok = np.where(on, np.sign(sol) == sign, np.abs(grad) <= thresh)
    return sol, np.all(ok, axis=1)


def _polish(gram, xty, thresh, a):
    """Candidate solutions from the supports and signs of the iterates ``a``.

    A coordinate still on its way to zero keeps a support one too large
    (for thousands of sweeps where the Gram is singular along it), so a
    failed support is retried without the coordinate of smallest
    ``|a_j| * ||X_j||``.
    """
    on, sign = a != 0, np.sign(a)
    sol, ok = _support_solve(gram, xty, thresh, on, sign)
    retry = np.flatnonzero(~ok & on.any(axis=1))
    if retry.size:
        size = np.abs(a[retry]) * np.sqrt(np.diagonal(gram[retry], axis1=1, axis2=2))
        fewer = on[retry]
        smallest = np.argmin(np.where(fewer, size, np.inf), axis=1)
        fewer[np.arange(retry.size), smallest] = False
        sol[retry], ok[retry] = _support_solve(
            gram[retry], xty[retry], thresh[retry], fewer, sign[retry]
        )
    return sol, ok


def _sweep(gram, xty, thresh, diag, a) -> np.ndarray:
    """One cyclic sweep of each problem's ``a``, in place; returns its largest move."""
    v = matvec(gram, a)  # refresh to avoid drift in the incremental updates
    move = np.zeros(len(a))
    for j in range(a.shape[1]):
        a_j = a[:, j]
        rho = xty[:, j] - v[:, j] + diag[:, j] * a_j
        mag = np.abs(rho) - thresh[:, j]
        live = diag[:, j] > 0.0  # coordinates with a zero column stay put
        new = np.copysign(mag, rho) / np.where(live, diag[:, j], 1.0)
        d = np.where(live, np.where(mag > 0.0, new, 0.0), a_j) - a_j
        a[:, j] += d
        v += gram[:, :, j] * d[:, None]
        move = np.maximum(move, np.abs(d))
    return move


def _coordinate_descent(gram, xty, yy, thresh, a, max_sweeps):
    """Lassos in covariance form (``gram = X'X``, ``xty = X'y``, ``yy =
    y'y``, every ``thresh`` positive) from the starts ``a``: a zero start is
    polished on the KKT check at zero (``|X'y|_j > thresh_j``, ``sign(X'y)``),
    and what that leaves runs batched cyclic coordinate descent with the
    support polish. Returns the solutions and each problem's error, or None;
    every problem is certified, or fails with NoConvergence, on its own."""
    a = np.array(a, dtype=float)
    out, errors = a.copy(), [None] * len(a)
    idx = np.arange(len(a))
    diag = np.diagonal(gram, axis1=1, axis2=2).copy()
    for sweep in range(max_sweeps + 1):
        if sweep:
            move = _sweep(gram, xty, thresh, diag, a)
            sol, ok = _polish(gram, xty, thresh, a)
        else:  # sweep 0: the polish of a zero start
            zero, move = ~a.any(axis=1), np.full(len(a), np.inf)
            on = (np.abs(xty) > thresh) & zero[:, None]
            sol, ok = _support_solve(gram, xty, thresh, on, np.sign(xty))
            ok &= zero
        certified = _certify(gram[ok], xty[ok], yy[ok], thresh[ok], sol[ok], sweep)
        ok[ok] = [e is None for e in certified]
        stalled = ~ok & (move <= 1e-13 * np.maximum(1.0, np.max(np.abs(a), axis=1)))
        out[idx[ok]], out[idx[stalled]] = sol[ok], a[stalled]
        at_rest = _certify(gram[stalled], xty[stalled], None, thresh[stalled], a[stalled])
        keep_first(errors, at_rest, at=idx[stalled])
        keep = ~(ok | stalled)
        idx, a, gram, xty, yy, thresh, diag = (
            z[keep] for z in (idx, a, gram, xty, yy, thresh, diag)
        )
        if not idx.size:
            return out, errors
    out[idx] = a
    return out, keep_first(errors, _certify(gram, xty, yy, thresh, a, max_sweeps), at=idx)


def cv_penalty(x: np.ndarray, y: np.ndarray, lam_max: np.ndarray):
    """Cross-validated plain-lasso penalty of each problem ``(x_i, y_i)``.

    ``CV_FOLDS`` contiguous row blocks (no RNG) are the folds; the grid has
    ``CV_GRID_SIZE`` log-spaced penalties from ``lam_max = max |x'y|`` (as
    the caller computes it: the smallest penalty with an all-zero solution)
    down to ``CV_GRID_MIN_RATIO`` times it, solved in descending order with
    warm starts; ties prefer the larger penalty. A fold's ``X'X``, ``X'y``
    and ``y'y`` are the full sums less its validation block's, and every
    fold of every problem is solved in one stack. Returns the penalties (0
    where ``lam_max`` is 0) and each problem's first solver error, or None.
    """
    lam, errors = np.zeros(len(x)), [None] * len(x)
    todo = np.flatnonzero(lam_max > 0.0)
    n, p = x.shape[1:]
    x, y = x[todo], y[todo]
    grid = np.geomspace(
        CV_GRID_MIN_RATIO * lam_max[todo], lam_max[todo], CV_GRID_SIZE, axis=1
    )[:, ::-1]
    bounds = np.linspace(0, n, CV_FOLDS + 1).astype(int)
    vals = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    blocks = [(swap(x[:, v]) @ x[:, v], matvec(swap(x[:, v]), y[:, v]), inner(y[:, v], y[:, v]))
              for v in vals]
    gram, xty, yy = (np.sum(s, axis=0) - s for s in map(np.stack, zip(*blocks)))
    a = np.zeros((CV_FOLDS, todo.size, p))
    mse = np.zeros((todo.size, CV_GRID_SIZE))
    for gi in range(CV_GRID_SIZE):
        on = alive([errors[i] for i in todo])
        if not on.size:
            break
        thresh = np.broadcast_to(grid[on, gi, None], (CV_FOLDS, on.size, p))
        sol, errs = _coordinate_descent(
            gram[:, on].reshape(-1, p, p), xty[:, on].reshape(-1, p),
            yy[:, on].reshape(-1), thresh.reshape(-1, p),
            a[:, on].reshape(-1, p), DEFAULT_MAX_SWEEPS,
        )
        a[:, on] = sol.reshape(CV_FOLDS, on.size, p)
        keep_first(errors, errs, at=np.tile(todo[on], CV_FOLDS))  # stops at its first failure
        for f, v in enumerate(vals):
            resid = y[:, v] - matvec(x[:, v], a[f])
            mse[:, gi] += inner(resid, resid)
    # The grid descends, so argmin's first minimum is the larger penalty.
    lam[todo] = grid[np.arange(todo.size), np.argmin(mse, axis=1)]
    return lam, errors
