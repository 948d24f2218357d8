"""Identifiability checks and selection diagnostics for candidate proxies.

Context: reduced-form regressions of the outcome and of an outcome-inducing
proxy on (TCPs, treatment[, covariates]) yield coefficient vectors whose
TCP blocks — ``gamma_tilde`` (outcome side) and ``delta_tilde`` (proxy
side) — satisfy ``gamma_tilde = alpha + gamma * delta_tilde`` with ``alpha``
the vector of direct TCP-on-outcome effects. If at most ``I - 1`` entries of
``alpha`` are nonzero, the pair ``(alpha, gamma)`` is unique exactly when all
large proxy subsets that admit a common ratio agree on that ratio. This
module implements that combinatorial check, the simple majority-rule
shortcut, and two diagnostics for the selection stage of the estimators: the
irrepresentable condition and a restricted-isometry recovery margin. The
check and the restricted-isometry constants share one brute-force subset
enumeration, which refuses more than ``MAX_COMBINATIONS`` subsets.

All column/proxy indices in inputs and reports are 0-based.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exceptions import (
    AssumptionViolation,
    CombinatorialBlowup,
    EmptySupport,
    InvalidBound,
    RankDeficient,
    SingularBlock,
)
from .linalg import _qr_fit, as_index, as_matrix, as_real, as_vector, project

__all__ = [
    "IdentificationReport", "DiagnosticReport", "check_majority_rule",
    "check_identification", "irrepresentable_diagnostic", "rip_constants",
    "rip_recovery_margin",
]

#: Refuse brute-force enumerations beyond this many subsets.
MAX_COMBINATIONS = 1_000_000


@dataclass(frozen=True)
class IdentificationReport:
    """Verdict of the subset-agreement identifiability check.

    ``subsets`` holds ``(indices, q)`` pairs for every subset that admits a
    single ratio ``q`` (``gamma_tilde[j] = q * delta_tilde[j]`` for all ``j``
    in the subset, within tolerance), in lexicographic order. ``method`` is
    always ``"subset_enumeration"``.
    """

    identified: bool
    subsets: list[tuple[tuple[int, ...], float]]
    distinct_q_count: int
    method: str


@dataclass(frozen=True)
class DiagnosticReport:
    """Selection-stage diagnostics; fields are None when not computed.

    ``rip`` maps a design label to its ``(lower, upper)`` restricted-isometry
    constants at the evaluated sparsity order.
    """

    irrepresentable_value: float | None = None
    irrepresentable_holds: bool | None = None
    rip: dict[str, tuple[float, float]] = field(default_factory=dict)
    recovery_margin: float | None = None


def check_majority_rule(p_z: int, invalid_bound: int) -> bool:
    """True when the invalid-count bound alone guarantees identification.

    Any two subsets of size ``p_z - invalid_bound + 1`` intersect once
    ``invalid_bound <= p_z / 2`` (real-valued comparison), which pins a
    common ratio across subsets — no enumeration required. A non-integer or
    a bool is an :class:`~proxsel.exceptions.InvalidBound`.
    """
    p_z = as_index(p_z, "p_z", 1)
    return as_index(invalid_bound, "invalid_bound", 1, p_z) <= p_z / 2


def _subsets(p: int, k: int) -> Iterator[tuple[int, ...]]:
    """The ``k``-subsets of ``range(p)`` in lexicographic order.

    Raises :class:`~proxsel.exceptions.CombinatorialBlowup` at the call,
    before yielding anything, when there are more than ``MAX_COMBINATIONS``.
    """
    total = math.comb(p, k)
    if total > MAX_COMBINATIONS:
        raise CombinatorialBlowup(
            f"enumerating C({p}, {k}) = {total} subsets exceeds the guard "
            f"({MAX_COMBINATIONS:g}); lower the bound or use the majority rule",
            n_combinations=total,
        )
    return combinations(range(p), k)


def check_identification(
    delta_tilde,
    gamma_tilde,
    invalid_bound: int,
    tol: float = 1e-6,
) -> IdentificationReport:
    """Enumerate proxy subsets and check whether they agree on a single ratio.

    Parameters
    ----------
    delta_tilde, gamma_tilde:
        Equal-length reduced-form TCP coefficient blocks (proxy side and
        outcome side respectively). Every ``|delta_tilde[j]|`` must exceed
        ``tol * max|delta_tilde|``; a smaller entry violates the relevance
        assumption, an :class:`AssumptionViolation` listing the indices.
    invalid_bound:
        Strict upper bound ``I`` on the number of invalid proxies,
        ``1 <= I <= p_z``; a non-integer or a bool is an
        :class:`~proxsel.exceptions.InvalidBound`. Subsets have size
        ``p_z - I + 1``.
    tol:
        Relative tolerance, for that floor, for a subset to admit a single
        ratio (``|delta[j]*q - gamma[j]| <= tol * max(|gamma[j]|,
        |delta[j]*q|)``) and for two subset ratios to count as equal. Purely
        relative, so the verdict and refusals are invariant to rescaling all
        ``(delta, gamma)`` pairs by a common nonzero constant; a real number
        in ``[0, inf)``, not a bool. Use the default on population-style
        inputs; on estimated inputs pick a statistical tolerance.

    Returns
    -------
    IdentificationReport
        ``identified`` is true iff at most one distinct ratio occurs among
        consistent subsets (zero consistent subsets counts as identified).
        Refuses with :class:`~proxsel.exceptions.CombinatorialBlowup` when
        there are more than ``MAX_COMBINATIONS`` subsets.
    """
    delta = as_vector(delta_tilde, "delta_tilde")
    gamma = as_vector(gamma_tilde, "gamma_tilde")
    if delta.shape != gamma.shape:
        raise ValueError(
            f"delta_tilde and gamma_tilde must have equal length, "
            f"got {delta.size} and {gamma.size}"
        )
    p_z = delta.size
    invalid_bound = as_index(invalid_bound, "invalid_bound", 1, p_z)
    if not 0 <= as_real(tol, "tol") < math.inf:
        raise InvalidBound(f"tol must lie in [0, inf), got {tol}")
    bad = [int(j) for j in np.nonzero(np.abs(delta) <= tol * np.max(np.abs(delta)))[0]]
    if bad:
        raise AssumptionViolation(
            f"|delta_tilde| must exceed tol={tol:g} times its largest entry for "
            f"every proxy; violated at indices {bad}",
            indices=bad,
        )

    consistent: list[tuple[tuple[int, ...], float]] = []
    reps: list[float] = []  # distinct ratio representatives, in first-seen order
    for subset in _subsets(p_z, p_z - invalid_bound + 1):
        idx = list(subset)
        d = delta[idx]
        g = gamma[idx]
        q = float(d @ g / (d @ d))
        resid = np.abs(d * q - g)
        scale = np.maximum(np.abs(g), np.abs(d * q))
        if np.any(resid > tol * scale):
            continue
        consistent.append((subset, q))
        if not any(abs(q - r) <= tol * max(1.0, abs(q), abs(r)) for r in reps):
            reps.append(q)

    return IdentificationReport(
        identified=len(reps) <= 1,
        subsets=consistent,
        distinct_q_count=len(reps),
        method="subset_enumeration",
    )


def irrepresentable_diagnostic(
    projected_design,
    invalid_set,
    sign_vector=None,
) -> DiagnosticReport:
    """Evaluate the irrepresentable condition on a (projected) design.

    Returns ``value = || C[A^c, A] C[A, A]^{-1} s ||_inf``, read as ``s' B``
    with ``B`` the least-squares coefficients of ``X[:, A^c]`` on ``X[:, A]``
    for the assumed invalid set A, and the verdict ``value < 1``: at or above
    one, the lasso stage cannot be selection-consistent for that sign pattern
    at any penalty. :func:`~proxsel.linalg.solve_upper` judges ``X[:, A]``'s
    rank, free of units; a deficient one is a :class:`SingularBlock`.

    ``invalid_set`` must be a nonempty proper subset of the columns (an
    entry that is not an integer, or is a bool, is an :class:`InvalidBound`);
    ``sign_vector`` (entries ±1, length ``|A|``) defaults to all ones.
    """
    x = as_matrix(projected_design, "projected_design")
    p = x.shape[1]
    a_idx = sorted(set(as_index(j, "invalid_set entry") for j in invalid_set))
    if not a_idx:
        raise EmptySupport("invalid_set must be nonempty")
    if a_idx[0] < 0 or a_idx[-1] >= p:
        raise IndexError(f"invalid_set indices must lie in [0, {p - 1}], got {a_idx}")
    if len(a_idx) == p:
        raise InvalidBound("invalid_set must be a proper subset of the columns")
    if sign_vector is None:
        signs = np.ones(len(a_idx))
    else:
        signs = as_vector(sign_vector, "sign_vector")
        if signs.size != len(a_idx):
            raise ValueError(
                f"sign_vector has length {signs.size}, expected |A| = {len(a_idx)}"
            )
        if np.any(np.abs(signs) != 1.0):
            raise ValueError("sign_vector entries must be +1 or -1")

    try:
        coef = _qr_fit(x[:, a_idx], np.delete(x, a_idx, axis=1))[1]
    except RankDeficient as err:
        raise SingularBlock(str(err)) from None
    value = float(np.max(np.abs(signs @ coef)))
    return DiagnosticReport(
        irrepresentable_value=value,
        irrepresentable_holds=bool(value < 1.0),
    )


def rip_constants(design, sparsity_k: int) -> tuple[float, float]:
    """Restricted-isometry constants of ``design`` at order ``sparsity_k``.

    ``delta_minus`` is the smallest quadratic form ``||X v||^2`` over unit
    vectors supported on any ``k`` columns; ``delta_plus`` the largest.
    Computed by brute force over all ``C(p, k)`` supports (eigen extremes of
    each Gram submatrix); refuses with
    :class:`~proxsel.exceptions.CombinatorialBlowup` when the support count
    exceeds ``MAX_COMBINATIONS``. Certifying these constants without
    enumeration is NP-hard in general, hence the guard rather than a fallback.
    ``sparsity_k`` must be an integer in ``[1, p]``, not a bool
    (:class:`~proxsel.exceptions.InvalidBound`).
    """
    x = as_matrix(design, "design")
    p = x.shape[1]
    k = as_index(sparsity_k, "sparsity_k", 1, p)
    gram = x.T @ x
    delta_minus = math.inf
    delta_plus = -math.inf
    for support in _subsets(p, k):
        idx = list(support)
        eigs = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        delta_minus = min(delta_minus, eigs[0])
        delta_plus = max(delta_plus, eigs[-1])
    return float(max(delta_minus, 0.0)), float(max(delta_plus, 0.0))


def rip_recovery_margin(z, what, d_tilde, s_z: int) -> DiagnosticReport:
    """Margin of the sparse-recovery sufficient condition for the lasso stage.

    With ``s = s_z`` assumed invalid proxies, the condition compares
    restricted-isometry constants of order ``2s`` on the proxy block and on
    its projections onto the fitted outcome proxy (``what``) and the
    residualized treatment (``d_tilde``)::

        margin = 2*lower(Z) - upper(Z) - 2*upper(P_what Z) - 2*upper(P_dtilde Z)

    A positive margin certifies that the penalized stage recovers the invalid
    set at a suitable penalty level; requires an integer ``s_z`` in ``[1,
    p_z // 2]``, not a bool (:class:`~proxsel.exceptions.InvalidBound`).
    """
    zm = as_matrix(z, "z")
    s = as_index(s_z, "s_z", 1, zm.shape[1] // 2)
    z_on_what = project(what, zm)
    z_on_dtilde = project(d_tilde, zm)
    order = 2 * s
    rip_z = rip_constants(zm, order)
    rip_w = rip_constants(z_on_what, order)
    rip_d = rip_constants(z_on_dtilde, order)
    margin = 2.0 * rip_z[0] - rip_z[1] - 2.0 * rip_w[1] - 2.0 * rip_d[1]
    return DiagnosticReport(
        rip={"tcp": rip_z, "ocp_fit": rip_w, "treatment_resid": rip_d},
        recovery_margin=float(margin),
    )
