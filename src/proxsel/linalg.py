"""Dense linear-algebra primitives: projections and least squares.

Everything downstream (identification checks, the penalized estimators, the
Monte Carlo harness) is built on the operations in this module. All
projections go through an orthonormal basis obtained from a QR factorization
of the design; the cross-product inverse ``(X'X)^{-1}`` is never formed
explicitly, which keeps moderately collinear proxy designs well behaved.

Matrices are plain ``numpy`` arrays (float64, C order). A design is accepted
only if it has full column rank at a relative singular-value cutoff
(``RANK_TOL``, 1e-10); anything below the cutoff raises
:class:`~proxsel.exceptions.RankDeficient` rather than silently regularizing,
because a rank-deficient moment matrix means the identification assumptions
have failed on the sample at hand.

:func:`solve_upper` is the one rank certificate, for every triangular factor
of the package. Its back-substitution bounds ``kappa_F = ||R||_F ||R^-1||_F
>= s_max / s_min`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 8), and a bound a hundredfold below ``1 / RANK_TOL`` certifies full rank.
Only the factors the bound leaves in doubt take an SVD, and a factor with
non-finite entries is rank deficient without one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidBound, RankDeficient

__all__ = ["OlsFit", "project", "ols", "orthonormal_basis"]

#: Relative singular-value cutoff below which a design is declared
#: rank-deficient. Chosen to separate genuine rank failure from rounding.
RANK_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array (columns may be zero).

    Vectors are promoted to single-column matrices. Raises ``ValueError`` on
    empty rows, more than two dimensions, or non-finite entries.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"{name} must be 1- or 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite float64 1-D array."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_index(value, name: str) -> int:
    """``value`` as a Python int when it is a Python or numpy integer
    (``operator.index``); anything else, a float included, is an
    :class:`~proxsel.exceptions.InvalidBound` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidBound(f"{name} must be an integer, got {value!r}") from None


def orthonormal_basis(design) -> np.ndarray:
    """Return an orthonormal basis Q for the column space of ``design``.

    The design must have full column rank: the smallest singular value must
    exceed ``RANK_TOL`` times the largest. Raises
    :class:`~proxsel.exceptions.RankDeficient` otherwise.
    """
    x = as_matrix(design, "design")
    return _qr_fit(x, x[:, :0])[0]


def _qr_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR ``Q`` of a design certified full rank, and the least-squares
    coefficients of each column of ``y`` on it."""
    n, p = x.shape
    if p > n:
        raise RankDeficient(f"design has more columns ({p}) than rows ({n})")
    q, r = np.linalg.qr(x)
    coef, errors = solve_upper(r[None], (q.T @ y)[None])
    if errors[0] is not None:
        raise errors[0]
    return q, coef[0]


# Stacked forms: one problem per slice of the leading axis, each slice
# computed on its own, so a problem's numbers do not depend on its stack.


def swap(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a_i @ v_i`` for every slice ``i``."""
    return (a @ v[..., None])[..., 0]


def inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u_i' v_i`` for every slice ``i``."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def keep_first(errors: list, new, at=None) -> list:
    """Merge into a stack's error ledger (one entry per problem, None until
    it fails): record ``new[i]`` as the error of problem ``at[i]`` (or of
    problem ``i``) where that problem has none yet, so each problem keeps
    its first error and earlier stages take precedence. Returns ``errors``."""
    for i, e in zip(range(len(errors)) if at is None else at, new):
        if e is not None and errors[i] is None:
            errors[i] = e
    return errors


def alive(errors) -> np.ndarray:
    """Indices of the problems without an error."""
    return np.flatnonzero([e is None for e in errors])


def solve_upper(r: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list]:
    """``R^-1 B`` and the rank certificate of each upper-triangular ``R`` of a
    stack ``(N, p, p)``, ``B`` ``(N, p, k)``: per factor, the
    :class:`~proxsel.exceptions.RankDeficient` to raise, or ``None`` when it is
    full rank. The one back-substitution that solves bounds ``kappa_F``; a
    factor the bound leaves in doubt is rank deficient if it has non-finite
    entries, which no SVD certifies, or if its singular values, those of the
    design it factors, fall below the cutoff. A rank-deficient factor's
    solution is the finite placeholder 0."""
    x, bounded = _back_substitute(r, b)
    errors, doubt = [None] * len(r), np.flatnonzero(~bounded)
    if doubt.size:  # near the cutoff, or defective
        finite = np.all(np.isfinite(r[doubt]), axis=(1, 2))
        keep_first(errors, [RankDeficient("design is rank deficient: its factor has non-finite "
                                          "entries") for _ in doubt[~finite]], at=doubt[~finite])
        keep_first(errors, [
            RankDeficient(
                "design is rank deficient: smallest/largest singular value "
                f"= {s[-1]:.3e}/{s[0]:.3e} at cutoff {RANK_TOL:g}"
            ) if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0] else None
            for s in np.linalg.svd(r[doubt[finite]], compute_uv=False)
        ], at=doubt[finite])
        x[[e is not None for e in errors]] = 0.0
    return x, errors


def _back_substitute(r: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``R^-1 B`` for each upper-triangular factor of a stack, by stacked
    back-substitution on ``[I | B]`` (the ``I`` block gives ``R^-1``), and
    which factors have ``100 kappa_F < 1 / RANK_TOL``."""
    n, p = r.shape[:2]
    if p == 0:
        return np.zeros(b.shape), np.ones(n, dtype=bool)
    with np.errstate(all="ignore"):  # non-finite bounds fail the test below
        # by 2^-e, 2^e > max|R|: an exact scaling, which cannot underflow
        e = np.frexp(np.max(np.abs(r), axis=(1, 2), keepdims=True))[1]
        r, x = np.ldexp(r, -e), np.zeros((n, p, p + b.shape[2]))
        x[:, :, :p], x[:, :, p:] = np.eye(p), np.ldexp(b, -e)
        for i in range(p - 1, -1, -1):
            rest = (r[:, i, None, i + 1 :] @ x[:, i + 1 :])[:, 0]
            x[:, i] = (x[:, i] - rest) / r[:, i, i, None]
        inv = x[:, :, :p]
        kappa_sq = np.einsum("nij,nij->n", r, r) * np.einsum("nij,nij->n", inv, inv)
    return x[:, :, p:].copy(), 1e4 * kappa_sq < RANK_TOL**-2


def project(design, target) -> np.ndarray:
    """Orthogonal projection of ``target`` onto the column space of ``design``.

    Equivalent to applying ``X (X'X)^{-1} X'`` but computed as ``Q (Q' target)``
    from the QR factorization. ``target`` may be a vector or a matrix with the
    same row count; the result has the shape of ``target``.
    """
    t = np.asarray(target, dtype=np.float64)
    squeeze = t.ndim == 1
    tm = as_matrix(t, "target")
    q = orthonormal_basis(design)
    if tm.shape[0] != q.shape[0]:
        raise ValueError(f"target has {tm.shape[0]} rows but design has {q.shape[0]}")
    out = q @ (q.T @ tm)
    return out[:, 0] if squeeze else out


@dataclass(frozen=True)
class OlsFit:
    """A least-squares fit.

    Attributes
    ----------
    coefficients:
        Length-p coefficient vector (or p×k matrix for a multi-column
        response).
    residuals:
        Response minus fitted values, same shape as the response.
    """

    coefficients: np.ndarray
    residuals: np.ndarray


def ols(design, response) -> OlsFit:
    """Least squares of ``response`` on ``design`` via QR.

    The design must satisfy the same full-rank precondition as
    :func:`project`. The normal equations hold at the returned solution to
    numerical precision (residuals orthogonal to every column). ``response``
    may be a vector or a matrix; in the matrix case one factorization is
    shared across columns and ``coefficients`` is p×k.
    """
    x = as_matrix(design, "design")
    y = np.asarray(response, dtype=np.float64)
    squeeze = y.ndim == 1
    ym = as_matrix(y, "response")
    if ym.shape[0] != x.shape[0]:
        raise ValueError(f"response has {ym.shape[0]} rows but design has {x.shape[0]}")
    coef = _qr_fit(x, ym)[1]
    resid = ym - x @ coef
    if squeeze:
        return OlsFit(coef[:, 0], resid[:, 0])
    return OlsFit(coef, resid)
