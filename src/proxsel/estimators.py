"""Causal-effect estimators built on candidate confounding proxies.

The target model is linear:

    Y_i = D_i * beta + Z_i' alpha + (hidden confounder) + noise,

where ``D`` is the treatment, ``Z`` collects treatment-inducing confounding
proxies (TCPs) and ``W`` collects outcome-inducing confounding proxies
(OCPs). A TCP is *valid* when its direct outcome effect ``alpha_j`` is zero;
a valid OCP absorbs the hidden confounder once regressed on the augmented
design ``M = (Z, D, X, 1)``. The estimators below differ in what they assume
known about validity:

- :func:`ols_baseline` ignores the proxies entirely (confounded benchmark);
- :func:`naive_p2sls` assumes every TCP is valid;
- :func:`oracle_p2sls` is told the true invalid set;
- :func:`lasso_proximal` selects invalid TCPs with a plain lasso via an
  exact two-step reformulation of the joint penalized regression;
- :func:`estimate_invalid_tcp` runs the full adaptive pipeline: median-ratio
  pilot estimates, adaptively weighted lasso selection, and a post-selection
  two-stage refit with a closed-form confidence interval;
- :func:`estimate_invalid_tcp_ocp` guards against invalid OCPs by running
  the pipeline once per OCP column and taking the median;
  :func:`subsample_ci` supplies its confidence interval.

Every stage depends on the data only through ``A = [X, 1, Z, D, W, Y]``,
which a :class:`Dataset` stores once, column-major, its fields views of it.
Each dataset's ``A`` (and each subsample's rows of it) takes one thin QR ``A
= Q R`` in mode ``"r"``, as does the refit of its small design: no stage
forms or keeps a ``Q``. Since ``A L = Q (R L)``, every stage runs on ``R``
with the inner products, residual norms and rank certificates of the n-row
design, on stacks of (dataset, OCP) problems: one problem for
:func:`estimate_invalid_tcp`, ``p_w`` for the median, blocks of subsamples
times ``p_w`` for :func:`subsample_ci`. Each stage computes only the
problems alive in the stack's error ledger when it runs, so a problem's
first error is its only one. As ``(X, 1)`` lead, ``R = [[R11,
R12], [0, R22]]`` and every stage after the factor reads ``R22``, the factor
of ``(Z, D, W, Y)`` with ``(X, 1)`` partialled out (Frisch-Waugh-Lovell).
The selection lasso runs in covariance form, on each problem's TCP block
residualized on ``(D, X, 1)`` and then on its fitted OCP, formed on M's rows
of ``R22``.

Everything is deterministic given its inputs; the only randomness is the
subsample draw in :func:`subsample_ci`, driven by an explicit seed.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import (
    AggregateFailure,
    AssumptionViolation,
    DegenerateTreatment,
    InvalidBound,
    ProxselError,
    RankDeficient,
    WeakProxyWarning,
)
from .lasso import cv_penalty, kkt_violation, lasso_gram, lasso_solve
from .linalg import alive, as_index, as_matrix, as_real, as_vector, inner, keep_first, matvec
from .linalg import NON_FINITE, solve_upper, swap

# Unused here, but the benchmark's traced runs wrap these names in this
# module (bench/workloads.py), so they stay bound.
from .linalg import ols, orthonormal_basis  # noqa: F401

__all__ = [
    "Dataset",
    "EstimationConfig",
    "FirstStage",
    "ProxyEstimate",
    "first_stage",
    "median_gamma",
    "alpha_median",
    "lasso_solve",
    "kkt_violation",
    "lasso_proximal",
    "adaptive_lasso_proximal",
    "post_adaptive_2sls",
    "estimate_invalid_tcp",
    "estimate_invalid_tcp_ocp",
    "subsample_ci",
    "oracle_p2sls",
    "naive_p2sls",
    "ols_baseline",
    "select_lambda",
    "default_subsample_size",
]

#: Pilot-ratio denominators below this are treated as relevance failures.
DELTA_FLOOR = 1e-10

#: Pilot coefficients below this get the capped adaptive weight 1/ADAPTIVE_FLOOR.
ADAPTIVE_FLOOR = 1e-8

#: Residualized-treatment norm below this fraction of the raw norm is degenerate.
DEGENERATE_TREATMENT_RTOL = 1e-12

#: RNG stream tag for subsample index draws (see ``numpy.random.SeedSequence``).
STREAM_SUBSAMPLE = 2

# Warnings point at the first frame outside this directory.
_PACKAGE = os.path.dirname(__file__) + os.sep


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Dataset:
    """One sample: outcome, treatment, proxy blocks, optional covariates.

    ``X`` may be ``None`` or an ``n x 0`` matrix when there are no observed
    covariates. Requires ``n > p_z + p_w + p_x + 1`` so every second-stage
    regression has positive degrees of freedom. The dataset stores one
    read-only, column-major design ``A = [X, 1, Z, D, W, Y]``, the only
    n-row array a fit reads, and its fields are read-only views of ``A``'s
    columns: neither ``data.Y[...] = ...`` nor a write to the caller's own
    array changes what a later estimate sees, and fitting stores nothing on
    it. Datasets, first stages and fits compare and hash by identity: their
    arrays have no single truth value.
    """

    Y: np.ndarray
    D: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    X: np.ndarray | None = None
    A: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        y = as_vector(self.Y, "Y")
        d = as_vector(self.D, "D")
        z = as_matrix(self.Z, "Z")
        w = as_matrix(self.W, "W")
        n = y.size
        x = np.zeros((n, 0)) if self.X is None else as_matrix(self.X, "X")
        for name, arr in (("D", d), ("Z", z), ("W", w), ("X", x)):
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} rows but Y has {n}")
        if z.shape[1] < 1:
            raise ValueError("Z must contain at least one TCP column")
        if w.shape[1] < 1:
            raise ValueError("W must contain at least one OCP column")
        min_n = z.shape[1] + w.shape[1] + x.shape[1] + 1
        if n <= min_n:
            raise ValueError(f"need n > p_z + p_w + p_x + 1 = {min_n}, got n = {n}")
        # A copy no later write to the caller's arrays reaches, column-major as
        # LAPACK takes it: the stack of its columns follows its blocks' layout,
        # column-major when covariates lead, and A then takes a second copy.
        a = np.asfortranarray(np.vstack([x.T, np.ones(n), z.T, d, w.T, y]).T)
        a.flags.writeable = False
        h, m = x.shape[1] + 1, x.shape[1] + z.shape[1] + 2
        for name, view in (("A", a), ("X", a[:, : h - 1]), ("Z", a[:, h : m - 1]),
                           ("D", a[:, m - 1]), ("W", a[:, m:-1]), ("Y", a[:, -1])):
            object.__setattr__(self, name, view)

    def __reduce__(self):
        # A copy or pickle is rebuilt as built: its fields views of its own A.
        return Dataset, (self.Y, self.D, self.Z, self.W, self.X)

    @property
    def n(self) -> int:
        return self.Y.size

    @property
    def p_z(self) -> int:
        return self.Z.shape[1]

    @property
    def p_w(self) -> int:
        return self.W.shape[1]

    @property
    def p_x(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class FirstStage:
    """Reduced-form fits on the augmented design ``M = (Z, D, X, 1)``.

    ``what`` is the fitted value of the chosen OCP column on ``M``;
    ``gamma_hat_vec`` / ``delta_hat_vec`` are the TCP blocks (length
    ``p_z``) of the outcome / OCP regressions' coefficients. The treatment,
    covariate and intercept coefficients are not retained; nothing
    downstream uses them.
    """

    what: np.ndarray
    gamma_hat_vec: np.ndarray
    delta_hat_vec: np.ndarray


@dataclass(frozen=True, eq=False)
class ProxyEstimate:
    """Point estimate, selection, and confidence interval of one method.

    ``variance`` is the estimated asymptotic variance of
    ``sqrt(n) * (beta_hat - beta)``; the closed-form interval is
    ``beta_hat ± z * sqrt(variance / n)``. The closed-form methods share one
    ratio-form refit, ``beta_hat = D' P_perp Y / D' P_perp D`` with
    ``P_perp`` projecting off the other regressors, and its collapsed
    plug-in variance ``sigma2_eps / mean((P_perp D)^2)``. Methods without a
    closed form (the median-over-OCPs aggregator) carry NaN variance/CI
    until :func:`subsample_ci` is attached by the caller; the aggregator
    also keeps each OCP's fit, or the :class:`ProxselError` it raised, in
    ``per_ocp_fits``. ``selected_invalid_tcps`` always equals the support of
    ``alpha_hat``.
    """

    beta_hat: float
    gamma_hat: float
    alpha_hat: np.ndarray
    selected_invalid_tcps: tuple[int, ...]
    variance: float
    ci_lower: float
    ci_upper: float
    method: str
    per_ocp_fits: tuple["ProxyEstimate | ProxselError", ...] | None = None

    @property
    def per_ocp_estimates(self) -> np.ndarray | None:
        """Each OCP's effect from ``per_ocp_fits``, NaN where it failed."""
        if self.per_ocp_fits is None:
            return None
        return np.array(
            [f.beta_hat if isinstance(f, ProxyEstimate) else math.nan
             for f in self.per_ocp_fits]
        )


@dataclass(frozen=True)
class EstimationConfig:
    """Tuning knobs of the adaptive selection pipeline.

    ``lambda_n = None`` defers to :func:`select_lambda` with ``lambda_mode``
    (default: the rate rule, which grows like ``sqrt(n)/log(n)`` scaled by
    the response's standard deviation). ``alpha_level`` is the level of
    every interval, :func:`subsample_ci`'s included. ``adaptive_floor`` caps
    the adaptive weights for pilot coefficients that are numerically zero.
    """

    lambda_n: float | None = None
    lambda_mode: str = "rate"
    alpha_level: float = 0.05
    adaptive_floor: float = ADAPTIVE_FLOOR

    def __post_init__(self) -> None:
        if self.lambda_n is not None and not as_real(self.lambda_n, "lambda_n") >= 0:
            raise InvalidBound(f"lambda_n must be >= 0, got {self.lambda_n}")
        if self.lambda_mode not in ("rate", "cv"):
            raise InvalidBound(f"lambda_mode must be 'rate' or 'cv', got {self.lambda_mode!r}")
        if not 0.0 < as_real(self.alpha_level, "alpha_level") < 1.0:
            raise InvalidBound(f"alpha_level must lie in (0, 1), got {self.alpha_level}")
        if not 0 < as_real(self.adaptive_floor, "adaptive_floor") < math.inf:
            raise InvalidBound("adaptive_floor must be positive and finite")


# ---------------------------------------------------------------------------
# One R-factor per dataset and call
# ---------------------------------------------------------------------------

class _Core(NamedTuple):
    """Thin-QR factors ``R`` of ``A`` for a stack of equal-size datasets,
    with the first stage solved on them.

    ``A L = Q (R L)`` for every column combination ``L``, so the inner
    products, residual norms and singular values of any sub-design of ``A``
    are those of ``R L``. In the same coordinates the fit of ``W_j`` on ``M =
    (X, 1, Z, D)``, of width ``m``, is the top ``m`` rows of ``W_j``'s column
    ``m + j`` of ``R``; ``cols`` reads rows ``h:``, those of ``R22``. Nothing
    n-row is kept: ``design(i)`` returns dataset ``i``'s ``A``, or a
    subsample's rows of it, for :func:`_n_rows`.
    """

    n: int
    p_z: int
    p_w: int
    h: int  # the columns of (X, 1)
    m: int
    r: np.ndarray  # (B, rows, k): R of A's k columns
    coef: np.ndarray  # (B, m, p_w + 1): first-stage coefficients of W, Y
    fail: tuple  # per dataset: the rank error of M, or None
    y_sd: np.ndarray  # (B,): std(Y, ddof=1)
    design: Callable  # i -> dataset i's A, or a subsample's rows of it

    def cols(self, ds: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sub-design ``cols[i]`` of problem ``i``'s dataset ``ds[i]``."""
        return np.ascontiguousarray(swap(self.r[ds[:, None], self.h :, cols]))

    @property
    def tcps(self) -> slice:
        return slice(self.h, self.m - 1)


def _factor(data: Dataset, design: Callable, size: int) -> _Core:
    """One thin QR, in mode ``"r"``, per ``A = design(i)`` for ``i < size``
    (datasets' own ``A``, or row subsets of ``data``'s built one at a time),
    and the first stage on each ``R``."""
    rs, ys = [], []
    for i in range(size):
        a = design(i)
        rs.append(np.linalg.qr(a, mode="r"))
        ys.append(a[:, -1].copy())
        del a  # a subsample's rows are freed before the next are gathered
    r = np.stack(rs)
    h, m = data.p_x + 1, data.p_x + data.p_z + 2
    coef, errors = solve_upper(r[:, :m, :m], r[:, :m, m:])
    fail = tuple(e if e is None else str(e) for e in errors)
    y_sd = np.std(np.stack(ys), axis=1, ddof=1)
    return _Core(ys[0].size, data.p_z, data.p_w, h, m, r, coef, fail, y_sd, design)


def _factor_datasets(datasets: Sequence[Dataset]) -> _Core:
    """One :func:`_factor` call over equal-shape datasets."""
    return _factor(datasets[0], lambda i: datasets[i].A, len(datasets))


def _single(data: Dataset, ocps=()) -> _Core:
    """The factor of ``data`` alone once the OCP indices ``ocps`` are integers
    (:func:`~proxsel.linalg.as_index`) in range; a failed first stage is left
    to the caller."""
    for k in ocps:
        if not 0 <= as_index(k, "ocp_index") < data.p_w:
            raise IndexError(f"ocp_index must lie in [0, {data.p_w - 1}], got {k}")
    return _factor_datasets([data])


def _n_rows(core: _Core, ds: np.ndarray, coords: np.ndarray):
    """Each problem's n-row design ``Q_M @ coords[i]`` (``coords`` on M's rows
    of ``R22``, padded for ``(X, 1)``) and outcome ``A[:, -1]``, one ``A`` per
    dataset: M's columns lead ``A``, so ``Q_M = A_M R_MM^-1`` (rank-certified)."""
    m = core.m
    coef = solve_upper(core.r[ds, :m, :m], np.pad(coords, ((0, 0), (core.h, 0), (0, 0))))[0]
    x, y = np.empty((ds.size, core.n, coords.shape[-1])), np.empty((ds.size, core.n))
    for d in np.unique(ds):
        at = np.flatnonzero(ds == d)
        a = core.design(d)
        x[at], y[at] = a[:, :m] @ coef[at], a[:, -1]
    return x, y


def _check(error: ProxselError | None) -> None:
    if error is not None:
        raise error


def _ledger(core: _Core, ds: np.ndarray, config: EstimationConfig | None = None) -> list:
    """A stack's error ledger, seeded with the first two stages: each problem's
    first error, or None. Stages record into it with ``keep_first``, in one
    order for every penalty mode: ``n >= 20`` (cv mode only), first stage,
    relevance, reduced design, folds (cv mode only), lasso, every TCP selected,
    refit. Each stage computes only the problems alive in the ledger when it
    runs, so a problem's first error is its only one."""
    if config and config.lambda_n is None and config.lambda_mode == "cv" and core.n < 20:
        return [InvalidBound(f"cv mode needs n >= 20, got n = {core.n}") for _ in ds]
    return [None if core.fail[d] is None else RankDeficient(core.fail[d]) for d in ds]


def _problem(data: Dataset, ocp_index: int, config: EstimationConfig | None = None):
    """OCP ``ocp_index`` of ``data`` as a stack of one problem: its factor,
    dataset and OCP indices, and its :func:`_ledger` under ``config``."""
    core, ds = _single(data, [ocp_index]), np.array([0])
    return core, ds, np.array([ocp_index], dtype=int), _ledger(core, ds, config)


def _what(data: Dataset, core: _Core, ocp_index: int) -> np.ndarray:
    return data.A[:, : core.m] @ core.coef[0][:, ocp_index]


def first_stage(data: Dataset, ocp_index: int = 0) -> FirstStage:
    """Reduced-form regressions of the outcome and one OCP on ``(Z, D, X, 1)``.
    An ``ocp_index`` that is not an integer, or is a bool, is an :class:`InvalidBound`."""
    core, _, _, errors = _problem(data, ocp_index)
    _check(errors[0])
    tcp = core.coef[0, core.tcps]
    return FirstStage(what=_what(data, core, ocp_index), gamma_hat_vec=tcp[:, -1].copy(),
                      delta_hat_vec=tcp[:, ocp_index].copy())


# ---------------------------------------------------------------------------
# Median-ratio pilot estimators
# ---------------------------------------------------------------------------


def _pilots(gamma: np.ndarray, delta: np.ndarray):
    """The pilots ``(gamma_m, alpha_m)`` for rows of TCP outcome and OCP
    coefficients that passed the relevance check, so every ratio is defined."""
    gamma_m = np.median(gamma / delta, axis=-1)
    return gamma_m, gamma - gamma_m[..., None] * delta


def _relevance_error(delta: np.ndarray) -> AssumptionViolation | None:
    # Both pilots divide by, or scale, the OCP coefficients, so a
    # numerically zero one is a relevance failure for either.
    idx = [int(j) for j in np.flatnonzero(np.abs(delta) <= DELTA_FLOOR)]
    if not idx:
        return None
    return AssumptionViolation(
        f"OCP reduced-form coefficient is numerically zero at TCP indices "
        f"{idx}; the ratio pilot estimator is undefined there",
        indices=idx,
    )


def _warn_weak(delta: np.ndarray) -> None:
    """Warn of weak relevance in a live problem's OCP coefficients ``delta``,
    at the line that called into the package, past any of the package's frames."""
    weak = np.abs(delta) < 0.05 * np.median(np.abs(delta))
    if np.any(weak):
        frame, level = sys._getframe(), 1
        while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"weak TCP relevance at indices "
            f"{[int(j) for j in np.nonzero(weak)[0]]}: |coefficient| below "
            f"5% of the median; pilot ratios may be unstable",
            WeakProxyWarning,
            stacklevel=level,
        )


def median_gamma(fs: FirstStage) -> float:
    """Median of the per-TCP reduced-form ratios; pilot for the OCP effect.

    Valid TCPs all produce the same ratio (outcome coefficient over OCP
    coefficient) in population, so as long as strictly more than half the
    TCPs are valid the median is a consistent pilot. Even counts average the
    two central order statistics.
    """
    _check(_relevance_error(fs.delta_hat_vec))
    _warn_weak(fs.delta_hat_vec)
    return float(_pilots(fs.gamma_hat_vec, fs.delta_hat_vec)[0])


def alpha_median(fs: FirstStage, gamma_m: float) -> np.ndarray:
    """Pilot estimate of the direct TCP effects given the ratio pilot.

    No division happens here, so only the zero-coefficient guard applies
    (the relevance warning belongs to :func:`median_gamma`, which forms the
    ratios).
    """
    gamma, delta = fs.gamma_hat_vec, fs.delta_hat_vec
    _check(_relevance_error(delta))
    return gamma - as_real(gamma_m, "gamma_m") * delta


# ---------------------------------------------------------------------------
# Selection stage: reduced design, penalty, weighted lasso
# ---------------------------------------------------------------------------


class _Reduced(NamedTuple):
    """The reduced design of the problems ``on``, those of a stack alive after
    it: ``g`` and ``y`` on M's rows of ``R22``, its covariance form ``gram =
    g'g`` and ``xty = g'y``, and ``d_tilde``, each indexed by position in
    ``on``. ``lasso(at, thresh)`` solves the lassos of problems ``on[at]``."""

    on: np.ndarray
    g: np.ndarray
    y: np.ndarray
    gram: np.ndarray
    xty: np.ndarray
    d_tilde: np.ndarray

    def lasso(self, at: np.ndarray, thresh: np.ndarray):
        return lasso_gram(self.gram[at], self.xty[at], thresh,
                          lambda i: (self.g[at[i]], self.y[at[i]]))


def _reduced_design(core: _Core, ds: np.ndarray, ocp: np.ndarray, errors: list) -> _Reduced:
    """The selection stage's design, per (dataset, OCP) problem alive in ``errors``.

    ``d_tilde`` is D residualized on ``(what, X, 1)`` and ``g`` the TCP
    block residualized on ``(what, X, 1, D)``; an L1 fit of Y on ``g`` gives
    the TCP coefficients of the joint penalized regression exactly. Since
    ``what`` is ``Z delta`` (``delta``: the OCP's first-stage TCP
    coefficients) plus terms in ``(D, X, 1)``, ``g`` is ``Zp`` residualized
    on ``w = Zp delta``, with ``Zp`` the TCP block residualized on ``(D, X,
    1)``. On M's rows of ``R22``, ``Zp`` is one rank-one step off D's
    column and ``g`` one more off ``w``, formed per problem. ``g`` has rank
    ``p_z - 1`` with null direction ``delta``, which is why selection needs
    a majority or plurality of valid TCPs. Records in ``errors`` a
    rank-deficient ``(what, X, 1)``, else a degenerate treatment, and
    returns the design of the problems neither fails. The rank is certified
    by :func:`~proxsel.linalg.solve_upper` on ``R11`` bordered by the fitted
    OCP's column, its ``R22`` rows folded into their norm: a factor upper
    triangular by construction, rank deficient too when an entry is not
    finite.
    """
    h, m, top = core.h, core.m, core.r[:, core.h : core.m]  # top: M's rows of R22
    on = alive(errors)
    fx = top[ds[on], :, m + ocp[on]]
    tri = core.r[ds[on], : h + 1, : h + 1]  # R11, bordered by the fitted OCP below
    tri[:, :h, h] = core.r[ds[on], :h, m + ocp[on]]
    with np.errstate(over="ignore"):  # an overflow is what the certificate calls non-finite
        tri[:, h, h] = np.sqrt(inner(fx, fx))
    keep_first(errors, solve_upper(tri, tri[:, :, :0])[1], at=on)
    on = alive(errors)
    fx, dx = top[ds[on], :, m + ocp[on]], top[ds[on], :, m - 1]
    d_tilde = dx - fx * (inner(fx, dx) / inner(fx, fx))[:, None]
    d = core.r[ds[on], :, m - 1]
    bad, degenerate = _degenerate(inner(d_tilde, d_tilde), inner(d, d), DegenerateTreatment,
                                  "the fitted OCP and covariates")
    keep_first(errors, degenerate, at=on[bad])
    on, d_tilde = on[~bad], d_tilde[~bad]
    g, dx, y = (core.r[ds[on], h:m, c] for c in (core.tcps, m - 1, m + core.p_w))
    g -= dx[:, :, None] * (matvec(swap(g), dx) / inner(dx, dx)[:, None])[:, None]  # now Zp
    w = matvec(g, core.coef[ds[on], core.tcps, ocp[on]])
    g -= w[:, :, None] * (matvec(swap(g), w) / inner(w, w)[:, None])[:, None]
    return _Reduced(on, g, y, swap(g) @ g, matvec(swap(g), y), d_tilde)


def _degenerate(resid_sq: np.ndarray, d_sq: np.ndarray, kind, others: str):
    """Which problems have a squared treatment residual ``resid_sq`` at most
    ``DEGENERATE_TREATMENT_RTOL`` times ``d_sq = D'D``, and a ``kind`` error
    (a treatment collinear with ``others``) for each of them."""
    bad = resid_sq <= DEGENERATE_TREATMENT_RTOL * d_sq
    return bad, [kind(f"treatment is numerically collinear with {others}; no variation "
                      "left to identify the effect") for _ in np.flatnonzero(bad)]


def _penalty(core: _Core, ds: np.ndarray, config, red, errors: list) -> np.ndarray:
    """Each problem's penalty: ``config.lambda_n``, else the rate rule
    ``std(Y) * sqrt(n) / log(n)``, else :func:`cv_penalty` on :func:`_n_rows`'
    ``g`` and ``Y`` of ``red``, for its problems ``red.on``."""
    if config.lambda_n is not None:
        return np.full(ds.size, float(config.lambda_n))
    if config.lambda_mode == "rate":
        return core.y_sd[ds] * math.sqrt(core.n) / math.log(core.n)
    lam = np.zeros(ds.size)
    lam[red.on], cv_errors = cv_penalty(*_n_rows(core, ds[red.on], red.g),
                                        np.max(np.abs(red.xty), axis=1))
    keep_first(errors, cv_errors, at=red.on)
    return lam


def _select(core: _Core, ds: np.ndarray, ocp: np.ndarray, config, warn: bool, errors: list):
    """The selection stage for a stack of (dataset, OCP) problems: relevance,
    the reduced design, the penalty, the pilots' weights and the weighted
    lasso, each on the problems alive in the ledger ``errors`` (:func:`_ledger`).
    Returns the lasso coefficients and the penalties."""
    gamma, delta = core.coef[ds, core.tcps, -1], core.coef[ds, core.tcps, ocp]
    on = alive(errors)
    flagged = on[np.any(np.abs(delta[on]) <= DELTA_FLOOR, axis=1)]
    keep_first(errors, [_relevance_error(delta[i]) for i in flagged], at=flagged)
    for i in alive(errors) if warn else ():
        _warn_weak(delta[i])
    red = _reduced_design(core, ds, ocp, errors)
    lam = _penalty(core, ds, config, red, errors)
    on = alive(errors)
    weights = 1.0 / np.maximum(np.abs(_pilots(gamma[on], delta[on])[1]), config.adaptive_floor)
    alpha = np.zeros((ds.size, core.p_z))
    alpha[on], lasso_errors = red.lasso(np.searchsorted(red.on, on), lam[on, None] * weights)
    keep_first(errors, lasso_errors, at=on)
    return alpha, lam


def lasso_proximal(
    data: Dataset, ocp_index: int = 0, lam: float = 0.0
) -> tuple[np.ndarray, float]:
    """Two-step plain-lasso estimator of (direct TCP effects, treatment effect).

    Step one fits the chosen OCP on the augmented design and residualizes
    both the treatment and the TCP block on the fitted OCP (plus covariates
    and intercept). Step two lasso-fits the outcome on the residualized TCP
    block at penalty ``lam``, then recovers the treatment effect from the
    residualized-treatment regression of the alpha-adjusted outcome:
    ``beta = d_tilde'(Y - Z alpha) / ||d_tilde||^2``. The pair equals the
    minimizer of the jointly penalized regression at the same penalty, which
    must not be negative or NaN (:class:`InvalidBound`); nor may ``ocp_index``
    be a non-integer or a bool.
    """
    core, ds, ocp, errors = _problem(data, ocp_index)
    lam = EstimationConfig(lambda_n=as_real(lam, "lam")).lambda_n  # InvalidBound unless >= 0
    red = _reduced_design(core, ds, ocp, errors)
    _check(errors[0])
    alpha, lasso_errors = red.lasso(ds, np.full((1, data.p_z), lam))
    _check(lasso_errors[0])
    top, d_tilde = core.r[0, core.h : core.m], red.d_tilde[0]
    resid = top[:, core.m + core.p_w] - top[:, core.tcps] @ alpha[0]
    return alpha[0], float(d_tilde @ resid / (d_tilde @ d_tilde))


def adaptive_lasso_proximal(
    data: Dataset,
    ocp_index: int = 0,
    lambda_n: float = 0.0,
    *,
    adaptive_floor: float = ADAPTIVE_FLOOR,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Adaptively weighted lasso selection of invalid TCPs.

    Weights are reciprocals of the median-ratio pilot magnitudes, so TCPs
    the pilot already flags as valid are penalized heavily (pilot values
    under ``adaptive_floor`` get the capped weight ``1/adaptive_floor``).
    A negative or NaN ``lambda_n``, or an ``ocp_index`` that is not an
    integer or is a bool, is an :class:`InvalidBound`. Returns the
    penalized coefficient vector and its support.
    """
    core, ds, ocp, errors = _problem(data, ocp_index)
    config = EstimationConfig(lambda_n=lambda_n, adaptive_floor=adaptive_floor)
    alpha, _ = _select(core, ds, ocp, config, True, errors)
    _check(errors[0])
    return alpha[0], _support(alpha[0])


# ---------------------------------------------------------------------------
# Shared second stage (refit + closed-form confidence interval)
# ---------------------------------------------------------------------------


def _zscore(alpha_level: float) -> float:
    if not 0.0 < as_real(alpha_level, "alpha_level") < 1.0:
        raise InvalidBound(f"alpha_level must lie in (0, 1), got {alpha_level}")
    return NormalDist().inv_cdf(1.0 - alpha_level / 2.0)


class _Refit(NamedTuple):
    """Each problem's refit, NaN where it failed, and its error ledger."""

    beta: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    variance: np.ndarray
    errors: list


def _refit(core: _Core, ds: np.ndarray, sel: np.ndarray, ocps: np.ndarray,
           errors: list) -> _Refit:
    """Refit on (treatment, selected TCPs, fitted OCPs, X, 1), per problem.

    ``sel`` (N, p_z) masks each problem's selected TCPs and ``ocps`` (N, q)
    lists its OCP columns; the problems alive in the ledger ``errors`` are
    refitted, stacked by selection size, and their refit errors recorded.
    Each stack takes one QR, in mode ``"r"``, of the ``R22`` columns (x | D,
    Y, raw OCPs), x the ``p`` selected TCPs and fitted OCPs (``(X, 1)`` is
    partialled out already). ``r[p, p]**2`` is ``r_D'r_D``, D's residual on
    x, ``beta = D' P_perp Y / D' P_perp D`` is ``r[p, p + 1] / r[p, p]``, and
    one :func:`~proxsel.linalg.solve_upper` on the leading ``p x p`` block
    certifies x's rank and gives the other coefficients; the plug-in
    variance of ``sqrt(n) * (beta_hat - beta)`` is ``sigma2_eps / (r_D'r_D /
    n)``. All closed-form methods funnel
    through here, so estimators that agree on the selected set agree bit for
    bit. ``sigma2_eps`` applies the coefficients to the *raw* OCP columns, as
    two-stage least squares does: residuals of the fitted ones would cancel
    the OCP's own noise against the fit and understate the error variance,
    the more so the more proxies there are.
    """
    n_prob, q = ocps.shape
    out = _Refit(np.full(n_prob, math.nan), np.full(n_prob, math.nan),
                 np.zeros((n_prob, core.p_z)), np.full(n_prob, math.nan), errors)
    on = alive(errors)
    counts = sel[on].sum(axis=1)
    for k in np.unique(counts):
        rows, p = on[counts == k], k + q
        tcps, dsr, w = np.nonzero(sel[rows])[1].reshape(rows.size, k), ds[rows], ocps[rows]
        dy = np.tile([core.m - 1, core.m + core.p_w], (rows.size, 1))  # D and Y
        x = core.cols(dsr, np.column_stack([core.h + tcps, core.m + w, dy, core.m + w]))
        x[:, core.m - core.h :, k:p] = 0.0  # the fitted OCPs: W's columns on M's rows
        r = np.linalg.qr(x, mode="r")
        d = core.r[dsr, :, core.m - 1]
        bad, degenerate = _degenerate(r[:, p, p] ** 2, inner(d, d), RankDeficient,
                                      "the other refit regressors")
        # Y on (x, D) by back-substitution: beta, then c = R_pp^-1 (r_Y - r_D beta).
        # A degenerate row keeps a finite r_D: x's rank error, certified below, comes first.
        r_d = np.where(bad, 1.0, r[:, p, p])
        beta = r[:, p, p + 1] / r_d
        rhs = r[:, :p, p + 1 : p + 2] - r[:, :p, p : p + 1] * beta[:, None, None]
        c, failed = solve_upper(r[:, :p, :p], rhs)
        keep_first(failed, degenerate, at=np.flatnonzero(bad))  # x's rank error first
        overflow = np.flatnonzero(~np.all(np.isfinite(r), axis=(1, 2)))  # then Y or D's
        keep_first(failed, [RankDeficient(NON_FINITE) for _ in overflow], at=overflow)
        # R L with A L = Y - beta D - (selected TCPs, raw OCPs) c: the fitted OCPs weigh 0
        c = c[:, :, 0]
        lin = np.concatenate([-c, -beta[:, None], np.ones((rows.size, 1)), -c[:, k:]], axis=1)
        lin[:, k:p] = 0.0
        eps = matvec(r, lin)
        sigma2 = inner(eps, eps) / r_d**2
        keep_first(errors, failed, at=rows)
        ok = alive(failed)
        good = rows[ok]
        out.beta[good], out.variance[good] = beta[ok], sigma2[ok]
        out.alpha[good[:, None], tcps[ok]] = c[ok, :k]
        out.gamma[good] = c[ok, k] if q else math.nan
    return out


def _given(core: _Core, sel: Sequence[int], ocps: Sequence[int]) -> _Refit:
    """:func:`_refit` of each dataset of ``core`` on the TCPs ``sel`` and OCPs ``ocps``."""
    ds = np.arange(len(core.r))
    mask = np.zeros((ds.size, core.p_z), dtype=bool)
    mask[:, list(sel)] = True
    return _refit(core, ds, mask, np.tile(np.array(ocps, dtype=int), (ds.size, 1)),
                  _ledger(core, ds))


def _estimate(fit: _Refit, i: int, n: int, alpha_level: float, method: str):
    """Problem ``i`` of a refit as a :class:`ProxyEstimate`, or its error."""
    if fit.errors[i] is not None:
        return fit.errors[i]
    beta, variance = float(fit.beta[i]), float(fit.variance[i])
    half = _zscore(alpha_level) * math.sqrt(variance / n)
    return ProxyEstimate(
        beta_hat=beta, gamma_hat=float(fit.gamma[i]), alpha_hat=fit.alpha[i].copy(),
        selected_invalid_tcps=_support(fit.alpha[i]), variance=variance,
        ci_lower=beta - half, ci_upper=beta + half, method=method)


def _support(alpha: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) for j in np.nonzero(alpha)[0])


def _second_stage(data, ocps, selected, alpha_level, method, name="selected_set"):
    """:func:`_refit` on ``data`` alone, for the public refit entry points;
    ``name`` is the parameter that passed the TCPs ``selected``."""
    sel = sorted(set(as_index(j, f"{name} entry") for j in selected))
    if sel and (sel[0] < 0 or sel[-1] >= data.p_z):
        raise IndexError(f"selected TCP indices must lie in [0, {data.p_z - 1}], got {sel}")
    fit = _given(_single(data, ocps), sel, ocps)
    _check(fit.errors[0])
    return _estimate(fit, 0, data.n, alpha_level, method)


def post_adaptive_2sls(
    data: Dataset,
    ocp_index: int,
    selected_set: Sequence[int],
    alpha_level: float = 0.05,
) -> ProxyEstimate:
    """Post-selection refit: Y on (D, selected TCPs, fitted OCP, X, 1).

    The treatment coefficient is the ratio form ``D' P_perp Y / D' P_perp D``
    with ``P_perp`` projecting off the non-treatment regressors; its
    closed-form interval uses the collapsed plug-in variance
    ``sigma2_eps / mean(d_res^2)``, ``d_res = P_perp D``. An ``ocp_index``
    or ``selected_set`` entry that is not an integer, or is a bool, is an
    :class:`InvalidBound`; one out of range an ``IndexError``.
    """
    return _second_stage(data, [ocp_index], selected_set, alpha_level, "post_adaptive_2sls")


def oracle_p2sls(
    data: Dataset,
    true_invalid_set: Sequence[int],
    alpha_level: float = 0.05,
    ocp_index: int = 0,
) -> ProxyEstimate:
    """Benchmark estimator given the true invalid-TCP set.

    The ratio-form refit of :func:`post_adaptive_2sls`, with its collapsed
    plug-in variance, on the true set instead of a selected one (and so the
    same code path exactly); reported separately because it anchors the
    simulation studies. Its indices are read as :func:`post_adaptive_2sls`'s.
    """
    return _second_stage(data, [ocp_index], true_invalid_set, alpha_level, "oracle_p2sls",
                         "true_invalid_set")


def naive_p2sls(
    data: Dataset,
    ocp_index: int | None = 0,
    alpha_level: float = 0.05,
) -> ProxyEstimate:
    """Two-stage estimator that presumes every TCP is valid.

    Regresses the outcome on (treatment, fitted OCP, covariates, intercept)
    with no TCP terms; biased whenever some TCP has a direct outcome effect.
    ``ocp_index = None`` enters every fitted OCP column jointly (the multi-
    OCP benchmark variant); ``gamma_hat`` then reports the first column's
    coefficient. Any other ``ocp_index`` that is not an integer, or is a
    bool, is an :class:`InvalidBound`.
    """
    ocps = range(data.p_w) if ocp_index is None else [ocp_index]
    return _second_stage(data, ocps, (), alpha_level, "naive_p2sls")


def ols_baseline(data: Dataset, alpha_level: float = 0.05) -> ProxyEstimate:
    """Confounded benchmark: OLS of the outcome on (treatment, covariates).

    Ignores both proxy blocks, so its bias equals the full hidden-confounder
    contribution; ``gamma_hat`` is NaN because no OCP enters the model.
    """
    return _second_stage(data, (), (), alpha_level, "ols_baseline")


# ---------------------------------------------------------------------------
# Full pipelines
# ---------------------------------------------------------------------------


def _pipeline(core: _Core, ds: np.ndarray, ocp: np.ndarray, config, warn: bool) -> _Refit:
    """Selection and post-selection refit for a stack of problems, on one ledger."""
    errors = _ledger(core, ds, config)
    alpha, _ = _select(core, ds, ocp, config, warn, errors)
    every = np.flatnonzero(np.all(alpha != 0, axis=1))
    setting = (f"lambda_mode={config.lambda_mode!r}" if config.lambda_n is None
               else f"lambda_n={config.lambda_n}")
    keep_first(errors, [AssumptionViolation(
        f"all {core.p_z} TCPs were selected as invalid at {setting}; no valid TCP is "
        "left to identify the effect") for _ in every], at=every)
    return _refit(core, ds, alpha != 0, ocp[:, None], errors)


def estimate_invalid_tcp(
    data: Dataset,
    ocp_index: int = 0,
    config: EstimationConfig | None = None,
) -> ProxyEstimate:
    """Full adaptive pipeline against a single designated OCP column.

    The public stages composed: the penalty ``config.lambda_n`` (or
    :func:`select_lambda` in ``config.lambda_mode``), the pilots and weighted
    lasso of :func:`adaptive_lasso_proximal`, then the closed-form interval
    of the :func:`post_adaptive_2sls` refit; a stack of one problem on the
    dataset's ``R``. An ``ocp_index`` that is not an integer, or is a bool,
    is an :class:`InvalidBound`.
    """
    config = config or EstimationConfig()
    core, ds, ocp, _ = _problem(data, ocp_index)
    fit = _pipeline(core, ds, ocp, config, True)
    _check(fit.errors[0])
    return _estimate(fit, 0, data.n, config.alpha_level, "post_adaptive_2sls")


def estimate_invalid_tcp_ocp(
    data: Dataset,
    config: EstimationConfig | None = None,
) -> ProxyEstimate:
    """Median-over-OCPs aggregate of the adaptive pipeline.

    Runs :func:`estimate_invalid_tcp` for every OCP column, as one stack of
    ``p_w`` problems, and reports the median treatment effect, which
    tolerates a minority of invalid OCPs. ``per_ocp_fits`` keeps each
    column's fit, or the error it raised, and ``per_ocp_estimates`` its
    effect (NaN for a failed column); the aggregate proceeds only when a
    strict majority of runs succeed, and its :class:`AggregateFailure`
    otherwise names the first failed OCP and its error. No closed-form
    interval exists for the median — attach one with :func:`subsample_ci` —
    so variance and CI fields are NaN here.
    """
    config = config or EstimationConfig()
    fit, beta, errors = _medians(_single(data), config, True)
    _check(errors[0])
    ok = alive(fit.errors)
    alpha_vec = np.median(fit.alpha[ok], axis=0)
    return ProxyEstimate(
        beta_hat=float(beta[0]), gamma_hat=float(np.median(fit.gamma[ok])),
        alpha_hat=alpha_vec, selected_invalid_tcps=_support(alpha_vec),
        variance=math.nan, ci_lower=math.nan, ci_upper=math.nan, method="median_over_ocps",
        per_ocp_fits=tuple(_estimate(fit, j, data.n, config.alpha_level, "post_adaptive_2sls")
                           for j in range(data.p_w)))


def _medians(core: _Core, config, warn: bool) -> tuple[_Refit, np.ndarray, list]:
    """:func:`_pipeline` on every (dataset, OCP) problem of ``core``, in that
    order, and each dataset's median effect over its succeeded OCPs with its
    error: NaN and an :class:`AggregateFailure` naming the first failed OCP
    unless a strict majority of the dataset's OCPs succeeded."""
    n_ds, p_w = len(core.r), core.p_w
    fit = _pipeline(core, np.repeat(np.arange(n_ds), p_w), np.tile(np.arange(p_w), n_ds),
                    config, warn)
    failed = np.array([e is not None for e in fit.errors]).reshape(n_ds, p_w)
    n_ok, need = p_w - failed.sum(axis=1), p_w // 2 + 1
    beta, at = np.sort(fit.beta.reshape(n_ds, p_w), axis=1), np.arange(n_ds)  # failed: NaN, last
    lo, hi = beta[at, (n_ok - 1) // 2], beta[at, n_ok // 2]  # the middle of the n_ok finite
    out = np.where(n_ok >= need, (lo + hi) / 2, math.nan)  # the bits of np.nanmedian
    errors = [None] * n_ds
    for s in np.flatnonzero(n_ok < need):
        j = int(np.argmax(failed[s]))
        cause = fit.errors[s * p_w + j]
        keep_first(errors, [AggregateFailure(
            f"only {n_ok[s]} of {p_w} per-OCP runs succeeded; need at least {need}; "
            f"OCP {j} failed with {type(cause).__name__}: {cause}",
            n_failed=int(p_w - n_ok[s]), n_total=p_w)], at=[s])
    return fit, out, errors


def default_subsample_size(n: int) -> int:
    """Default subsample size: ``floor(n ** (4/5))``."""
    return int(math.floor(n ** 0.8))


def _subsample_size(b: int | None, n: int, min_b: int) -> int:
    """``b``, by default :func:`default_subsample_size`, once ``min_b < b <
    n``: at or below ``min_b = p_z + p_w + p_x + 1`` no subsample is a
    valid :class:`Dataset`."""
    b = default_subsample_size(n) if b is None else as_index(b, "b")
    if not min_b < b < n:
        raise InvalidBound(f"need p_z + p_w + p_x + 1 = {min_b} < b < n = {n}, got b = {b}")
    return b


# Subsamples factored and fitted in one stack by subsample_ci (and
# replications by simulation.run_monte_carlo): a bigger block saves numpy
# call overhead and holds more heap. On 200 subsamples of n = 2500 rows
# with 10 TCPs and 10 OCPs (one BLAS thread, numpy 2.4, 1 vCPU; medians
# of 8 interleaved rounds), blocks of 20 take 59 ms and peak at 1.23 MB of
# Python heap; blocks of 10 take 71 ms (0.62 MB), of 40 51 ms (2.42 MB),
# of 100 48 ms (6.00 MB), one at a time 263 ms (0.26 MB) and one stack of
# all 200 49 ms (11.6 MB).
_SUBSAMPLE_BLOCK = 20


def _subsample_fits(data: Dataset, config, n_subsamples: int, b: int, seed: int):
    """Blocks of subsample indices, each with :func:`_medians` of its
    subsamples; subsample ``i`` draws its ``b`` rows from the stream keyed
    by ``(seed, STREAM_SUBSAMPLE, i)``."""
    for first in range(0, n_subsamples, _SUBSAMPLE_BLOCK):
        block = range(first, min(first + _SUBSAMPLE_BLOCK, n_subsamples))
        draws = [
            np.sort(np.random.default_rng(
                np.random.SeedSequence((seed, STREAM_SUBSAMPLE, i))
            ).choice(data.n, size=b, replace=False))
            for i in block
        ]
        # each subsample's rows of A, column-major like A
        core = _factor(data, lambda s, draws=draws: np.take(data.A.T, draws[s], axis=1).T,
                       len(draws))
        yield block, *_medians(core, config, False)


def subsample_ci(
    data: Dataset,
    config: EstimationConfig | None = None,
    n_subsamples: int = 1000,
    b: int | None = None,
    seed: int = 0,
    *,
    recenter: bool = False,
    center: float | None = None,
) -> tuple[float, float]:
    """Subsampling confidence interval for the median-over-OCPs estimator.

    Draws ``n_subsamples`` row subsets of size ``b`` (default
    ``floor(n^{4/5})``; above ``p_z + p_w + p_x + 1``, the size a
    :class:`Dataset` needs) without replacement, recomputes
    :func:`estimate_invalid_tcp_ocp` on each, and returns the empirical
    ``alpha/2`` and ``1 - alpha/2`` quantiles of the subsample estimates,
    with ``alpha = config.alpha_level``. A subsample fails when fewer than a
    strict majority of its OCPs succeed; subsample fits emit no
    :class:`WeakProxyWarning`, since their relevance reflects the
    subsample's own noise.
    ``recenter=True`` instead inverts the classical subsampling root
    ``sqrt(b) * (estimate_b - estimate_n)`` (the orthodox construction; the
    raw-quantile default matches the reference simulation design), centred
    at ``center``, the full-sample estimate, which is computed when omitted.
    ``n_subsamples``, ``b`` and ``seed`` must be integers, not bools
    (:class:`InvalidBound`). Deterministic given ``seed`` (at least 0):
    subsample ``i`` draws from an independent stream keyed by ``(seed,
    STREAM_SUBSAMPLE, i)``, and blocks of subsamples are factored and fitted
    as stacks in which every problem is computed on its own, so the
    interval does not depend on the blocking.
    """
    config = config or EstimationConfig()
    n = data.n
    b = _subsample_size(b, n, data.p_z + data.p_w + data.p_x + 1)
    n_subsamples, seed = as_index(n_subsamples, "n_subsamples", 1), as_index(seed, "seed", 0)
    center = None if center is None else as_real(center, "center")

    estimates, errors = np.full(n_subsamples, math.nan), []
    for block, _, medians, block_errors in _subsample_fits(data, config, n_subsamples, b, seed):
        estimates[block.start : block.stop] = medians
        errors += block_errors
    failed = np.flatnonzero(np.isnan(estimates))
    n_failed = failed.size
    if n_failed > 0.2 * n_subsamples:
        i = int(failed[0])
        raise AggregateFailure(
            f"{n_failed} of {n_subsamples} subsample runs failed (more than 20%); "
            f"subsample {i} failed with {type(errors[i]).__name__}: {errors[i]}",
            n_failed=n_failed, n_total=n_subsamples)
    values = estimates[np.isfinite(estimates)]
    lo_q, hi_q = config.alpha_level / 2.0, 1.0 - config.alpha_level / 2.0
    if recenter:
        if center is None:
            center = estimate_invalid_tcp_ocp(data, config).beta_hat
        r_lo, r_hi = np.quantile(math.sqrt(b) * (values - center), [lo_q, hi_q])
        scale = math.sqrt(n)
        return float(center - r_hi / scale), float(center - r_lo / scale)
    lo, hi = np.quantile(values, [lo_q, hi_q])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Penalty-level selection
# ---------------------------------------------------------------------------


def _reduced_rows(data: Dataset, ocp_index: int):
    """The n-row reduced design ``(g, d_tilde)`` of one OCP, by :func:`_n_rows`,
    and the fitted OCP ``what`` of :func:`first_stage`, on one factor."""
    core, ds, ocp, errors = _problem(data, ocp_index)
    red = _reduced_design(core, ds, ocp, errors)
    _check(errors[0])
    coords = np.concatenate([red.g, red.d_tilde[:, :, None]], axis=2)
    x = _n_rows(core, ds, coords)[0][0]
    return x[:, :-1], x[:, -1], _what(data, core, ocp_index)


def select_lambda(
    data: Dataset,
    ocp_index: int = 0,
    mode: str = "cv",
) -> float:
    """The selection stage's penalty in ``mode``, on OCP ``ocp_index`` alone.

    ``mode`` defaults to ``"cv"``, the pipeline's
    ``EstimationConfig.lambda_mode`` to ``"rate"``. ``rate`` mode returns
    ``std(Y) * sqrt(n) / log(n)`` — a deterministic schedule that diverges
    while remaining ``o(sqrt(n))``, the growth regime under which the
    adaptive selection is consistent. ``cv`` mode runs
    :func:`proxsel.lasso.cv_penalty`: ``CV_FOLDS``-fold cross-validation of
    the plain lasso on the residualized TCP design over ``CV_GRID_SIZE``
    log-spaced penalties, from the smallest with an all-zero solution down to
    ``CV_GRID_MIN_RATIO`` times it, all read off each fold's exact lasso
    path; folds are contiguous row blocks (no RNG) and ties prefer the larger
    penalty. The folds rebuild the n-row reduced design as ``A_M R_MM^-1 g``.
    The selection stage runs in full, weighted lasso included, so this fails
    where and as the pipeline does, in :func:`_ledger`'s order; an
    ``ocp_index`` that is not an integer, or is a bool, first.
    """
    config = EstimationConfig(lambda_mode=mode)
    core, ds, ocp, errors = _problem(data, ocp_index, config)
    _, lam = _select(core, ds, ocp, config, False, errors)
    _check(errors[0])
    return float(lam[0])
