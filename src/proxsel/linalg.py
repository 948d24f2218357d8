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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import RankDeficient

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


def orthonormal_basis(design) -> np.ndarray:
    """Return an orthonormal basis Q for the column space of ``design``.

    The design must have full column rank: the smallest singular value must
    exceed ``RANK_TOL`` times the largest. Raises
    :class:`~proxsel.exceptions.RankDeficient` otherwise.
    """
    x = as_matrix(design, "design")
    if x.shape[1] == 0:
        return np.zeros((x.shape[0], 0))
    return _full_rank_qr(x)[0]


def _full_rank_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of a design with at least one column, certified full rank."""
    n, p = x.shape
    if p > n:
        raise RankDeficient(f"design has more columns ({p}) than rows ({n})")
    q, r = np.linalg.qr(x)
    error = rank_errors(r[None])[0]
    if error is not None:
        raise error
    return q, r


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


def rank_errors(r: np.ndarray) -> list[RankDeficient | None]:
    """Rank certificate of each triangular factor in a stack ``(N, rows, p)``.

    ``|diag(R)|`` alone is not a reliable rank certificate; the singular
    values of ``R``, which are those of the design it factors, are. A square
    upper-triangular ``R`` is bounded first (Higham, ch. 8): ``kappa_F =
    ||R||_F ||R^-1||_F >= s_max / s_min``, so a bound a hundredfold below ``1
    / RANK_TOL`` certifies full rank; otherwise the SVD decides. Returns,
    per factor, the error to raise or ``None`` when it is full rank.
    """
    errors, doubt = [None] * len(r), np.arange(len(r))
    if r.shape[-2] == r.shape[-1] > 0:
        doubt = doubt[~_bounded(r)]
    sv = np.linalg.svd(r[doubt], compute_uv=False) if doubt.size else ()
    for i, s in zip(doubt, sv):
        if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
            errors[i] = RankDeficient(
                "design is rank deficient: smallest/largest singular value "
                f"= {s[-1]:.3e}/{s[0]:.3e} at cutoff {RANK_TOL:g}"
            )
    return errors


def _bounded(r: np.ndarray) -> np.ndarray:
    """Which square factors are triangular with ``100 kappa_F < 1 / RANK_TOL``."""
    p, eye = r.shape[-1], np.eye(r.shape[-1])
    upper = ~np.any(r[:, np.tri(p, k=-1, dtype=bool)], axis=1)
    with np.errstate(all="ignore"):  # non-finite bounds fail the test below
        r = r / np.max(np.abs(r), axis=(1, 2), keepdims=True)  # no underflow
        inv = np.zeros_like(r)
        for i in range(p - 1, -1, -1):  # R^-1 by stacked back-substitution
            rest = (r[:, i, None, i + 1 :] @ inv[:, i + 1 :])[:, 0]
            inv[:, i] = (eye[i] - rest) / r[:, i, i, None]
        kappa_sq = np.einsum("nij,nij->n", r, r) * np.einsum("nij,nij->n", inv, inv)
    return upper & (1e4 * kappa_sq < RANK_TOL**-2)


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
        raise ValueError(
            f"target has {tm.shape[0]} rows but design has {q.shape[0]}"
        )
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
    if x.shape[1] == 0:
        coef = np.zeros((0, ym.shape[1]))
        resid = ym.copy()
    else:
        q, r = _full_rank_qr(x)
        coef = np.linalg.solve(r, q.T @ ym)
        resid = ym - x @ coef
    if squeeze:
        return OlsFit(coef[:, 0], resid[:, 0])
    return OlsFit(coef, resid)

