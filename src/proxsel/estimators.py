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

Every stage depends on the data only through ``A = [Z, D, X, 1, W, Y]``.
Each dataset (and each subsample) takes one thin QR ``A = Q R`` and keeps
the small factor ``R``; since ``A L = Q (R L)``, every stage runs on ``R``
with the inner products, residual norms and rank certificates of the n-row
design, on stacks of (dataset, OCP) problems: one problem for
:func:`estimate_invalid_tcp`, ``p_w`` for the median, blocks of subsamples
times ``p_w`` for :func:`subsample_ci`. The selection lasso runs in
covariance form: a dataset's OCPs share one Gram matrix of the TCP block
residualized on ``(D, X, 1)``, and each OCP takes a rank-one downdate of it.

Everything is deterministic given its inputs; the only randomness is the
subsample draw in :func:`subsample_ci`, driven by an explicit seed.
"""

from __future__ import annotations

import math
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
from .linalg import as_matrix, as_vector, inner, matvec, rank_errors, swap

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


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


def _read_only(owned: np.ndarray) -> np.ndarray:
    """Freeze an array nothing else holds a writable reference to."""
    owned.flags.writeable = False
    return owned


@dataclass(frozen=True, eq=False)
class Dataset:
    """One sample: outcome, treatment, proxy blocks, optional covariates.

    ``X`` may be ``None`` or an ``n x 0`` matrix when there are no observed
    covariates. Requires ``n > p_z + p_w + p_x + 1`` so every second-stage
    regression has positive degrees of freedom. The dataset stores read-only
    copies of its arrays, so neither ``data.Y[...] = ...`` nor a write to
    the caller's own array can make its factor ``R`` and first stage,
    computed once on first use and kept on the dataset, go stale. Datasets,
    first stages and fits compare and hash by identity: their arrays have no
    single truth value.
    """

    Y: np.ndarray
    D: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    X: np.ndarray | None = None
    _core: "_Core | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        y = as_vector(self.Y, "Y")
        d = as_vector(self.D, "D")
        z = as_matrix(self.Z, "Z")
        w = as_matrix(self.W, "W")
        n = y.size
        x = np.zeros((n, 0)) if self.X is None else as_matrix(self.X, "X")
        for name, arr in (("D", d), ("Z", z), ("W", w), ("X", x)):
            if arr.shape[0] != n:
                raise ValueError(
                    f"{name} has {arr.shape[0]} rows but Y has {n}"
                )
        if z.shape[1] < 1:
            raise ValueError("Z must contain at least one TCP column")
        if w.shape[1] < 1:
            raise ValueError("W must contain at least one OCP column")
        min_n = z.shape[1] + w.shape[1] + x.shape[1] + 1
        if n <= min_n:
            raise ValueError(
                f"need n > p_z + p_w + p_x + 1 = {min_n}, got n = {n}"
            )
        for name, arr in (("Y", y), ("D", d), ("Z", z), ("W", w), ("X", x)):
            # Copy (keeping the memory layout): np.asarray above does not,
            # and the caller must not reach the cached factor's inputs.
            object.__setattr__(self, name, _read_only(arr.copy(order="K")))

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
        if self.lambda_n is not None and not self.lambda_n >= 0:
            raise InvalidBound(f"lambda_n must be >= 0, got {self.lambda_n}")
        if self.lambda_mode not in ("rate", "cv"):
            raise InvalidBound(
                f"lambda_mode must be 'rate' or 'cv', got {self.lambda_mode!r}"
            )
        if not 0.0 < self.alpha_level < 1.0:
            raise InvalidBound(
                f"alpha_level must lie in (0, 1), got {self.alpha_level}"
            )
        if not 0 < self.adaptive_floor < math.inf:
            raise InvalidBound("adaptive_floor must be positive and finite")


# ---------------------------------------------------------------------------
# One R-factor per dataset
# ---------------------------------------------------------------------------

def _solve(a: np.ndarray, b: np.ndarray, ok) -> np.ndarray:
    """Stacked solve; slices not ``ok`` (already failed) solve against I."""
    ok = np.asarray(ok, dtype=bool)[:, None, None]
    return np.linalg.solve(np.where(ok, a, np.eye(a.shape[-1])), b)


def _augmented(data: Dataset) -> np.ndarray:
    """``A = [Z, D, X, 1, W, Y]``, column-major as LAPACK takes it: every
    stage depends on the data only through it, a subsample on its rows."""
    a = np.column_stack([data.Z, data.D, data.X, np.ones(data.n), data.W, data.Y])
    return np.asfortranarray(a)


class _Core(NamedTuple):
    """Thin-QR factors ``R`` of ``A`` for a stack of equal-size datasets,
    with the first stage solved on them.

    ``A L = Q (R L)`` for every column combination ``L``, so the inner
    products, residual norms and singular values of any sub-design of ``A``
    are those of ``R L``. ``r`` appends the fitted OCP columns in the same
    coordinates: the fit of ``W_j`` on ``M = (Z, D, X, 1)``, of width ``m``,
    is the top ``m`` rows of ``W_j``'s column of ``R``. ``q`` and ``y``, the
    n-row ``Q`` and outcome, are kept only for cross-validation folds.
    """

    n: int
    p_z: int
    p_w: int
    m: int
    r: np.ndarray  # (B, rows, k + p_w): R of A's k columns, then the fits
    coef: np.ndarray  # (B, m, p_w + 1): first-stage coefficients of W, Y
    fail: tuple  # per dataset: the rank error of M, or None
    y_sd: np.ndarray  # (B,): std(Y, ddof=1)
    q: np.ndarray | None
    y: np.ndarray | None

    def cols(self, ds: np.ndarray, cols) -> np.ndarray:
        """Sub-design ``cols[i]`` (or the same ``cols`` for every problem)
        of problem ``i``'s dataset ``ds[i]``."""
        cols = np.asarray(cols)
        picked = self.r[ds[:, None], :, cols if cols.ndim == 2 else cols[None]]
        return np.ascontiguousarray(swap(picked))

    def fitted(self, ocp: np.ndarray) -> np.ndarray:
        return self.m + self.p_w + 1 + ocp


def _factor(data: Dataset, stack, keep_rows: bool = False) -> _Core:
    """One thin QR per ``A`` in ``stack`` (row subsets of ``data``, made one
    at a time), and the first stage on each ``R``."""
    qs, rs, ys = [], [], []
    for a in stack:
        q, r = np.linalg.qr(a) if keep_rows else (None, np.linalg.qr(a, mode="r"))
        qs.append(q)
        rs.append(r)
        ys.append(a[:, -1].copy())
    r, ys, k = np.stack(rs), np.stack(ys), rs[0].shape[1]
    m = data.p_z + data.p_x + 2
    fail = tuple(e if e is None else str(e) for e in rank_errors(r[:, :m, :m]))
    ext = np.concatenate([r, r[:, :, m : k - 1]], axis=2)
    ext[:, m:, k:] = 0.0
    coef = _solve(r[:, :m, :m], r[:, :m, m:], [f is None for f in fail])
    y_sd = np.std(ys, axis=1, ddof=1)
    rows = (np.stack(qs), ys) if keep_rows else (None, None)
    return _Core(ys.shape[1], data.p_z, data.p_w, m, ext, coef, fail, y_sd, *rows)


def _core_of(data: Dataset) -> _Core:
    if data._core is None:
        object.__setattr__(data, "_core", _factor(data, [_augmented(data)]))
    return data._core


def _factor_datasets(datasets: Sequence[Dataset], keep_rows: bool = False) -> _Core:
    """One :func:`_factor` call over equal-shape datasets; each dataset's
    cache takes its slice (and its n rows for ``keep_rows``): its own ``R``."""
    core = _factor(datasets[0], (_augmented(d) for d in datasets), keep_rows)
    for i, data in enumerate(datasets):
        one = slice(i, i + 1)
        rows = dict(q=core.q[one], y=core.y[one]) if keep_rows else {}
        object.__setattr__(data, "_core", core._replace(
            r=core.r[one], coef=core.coef[one], fail=core.fail[one],
            y_sd=core.y_sd[one], **rows))
    return core


def _is_cv(config: EstimationConfig) -> bool:
    return config.lambda_n is None and config.lambda_mode == "cv"


def _single(data: Dataset, ocps=(), keep_rows: bool = False) -> _Core:
    """The factor of ``data`` alone once the OCP indices ``ocps`` are in
    range: the cached one, also for ``keep_rows`` (cv folds) if it kept the n
    rows, else a new one that does (the same ``R``: both come from one LAPACK
    factorization). A failed first stage is left to each caller's error order."""
    for k in ocps:
        if not 0 <= int(k) < data.p_w:
            raise IndexError(f"ocp_index must lie in [0, {data.p_w - 1}], got {k}")
    new = keep_rows and getattr(data._core, "q", None) is None
    return _factor(data, [_augmented(data)], True) if new else _core_of(data)


def _check(error: ProxselError | None) -> None:
    if error is not None:
        raise error


def _one(index: int) -> np.ndarray:
    return np.array([int(index)])


def _first_stage_error(core: _Core, ds: np.ndarray) -> list:
    return [None if core.fail[d] is None else RankDeficient(core.fail[d]) for d in ds]


def first_stage(data: Dataset, ocp_index: int = 0) -> FirstStage:
    """Reduced-form regressions of the outcome and one OCP on ``(Z, D, X, 1)``.

    All OCPs share one factorization, computed on the dataset's first call
    into any estimator and reused by every later one.
    """
    core = _single(data, [ocp_index])
    _check(_first_stage_error(core, _one(0))[0])
    coef = core.coef[0]
    return FirstStage(  # what from C order: a column-major product rounds differently
        what=np.ascontiguousarray(_augmented(data)[:, : core.m]) @ coef[:, ocp_index],
        gamma_hat_vec=coef[: data.p_z, -1].copy(),
        delta_hat_vec=coef[: data.p_z, ocp_index].copy(),
    )


# ---------------------------------------------------------------------------
# Median-ratio pilot estimators
# ---------------------------------------------------------------------------


def _pilots(gamma: np.ndarray, delta: np.ndarray):
    """Relevance failures, weak-relevance flags and the pilots ``(gamma_m,
    alpha_m)`` for rows of TCP outcome and OCP coefficients."""
    bad = np.abs(delta) <= DELTA_FLOOR
    weak = np.abs(delta) < 0.05 * np.median(np.abs(delta), axis=-1)[..., None]
    gamma_m = np.median(gamma / np.where(bad, 1.0, delta), axis=-1)
    return bad, weak, gamma_m, gamma - gamma_m[..., None] * delta


def _relevance_error(bad: np.ndarray) -> AssumptionViolation | None:
    # Both pilots divide by, or scale, the OCP coefficients, so a
    # numerically zero one is a relevance failure for either.
    idx = [int(j) for j in np.nonzero(bad)[0]]
    if not idx:
        return None
    return AssumptionViolation(
        f"OCP reduced-form coefficient is numerically zero at TCP indices "
        f"{idx}; the ratio pilot estimator is undefined there",
        indices=idx,
    )


def _warn_weak(weak: np.ndarray) -> None:
    if np.any(weak):
        warnings.warn(
            f"weak TCP relevance at indices "
            f"{[int(j) for j in np.nonzero(weak)[0]]}: |coefficient| below "
            f"5% of the median; pilot ratios may be unstable",
            WeakProxyWarning,
            stacklevel=3,
        )


def median_gamma(fs: FirstStage) -> float:
    """Median of the per-TCP reduced-form ratios; pilot for the OCP effect.

    Valid TCPs all produce the same ratio (outcome coefficient over OCP
    coefficient) in population, so as long as strictly more than half the
    TCPs are valid the median is a consistent pilot. Even counts average the
    two central order statistics.
    """
    bad, weak, gamma_m, _ = _pilots(fs.gamma_hat_vec, fs.delta_hat_vec)
    _check(_relevance_error(bad))
    _warn_weak(weak)
    return float(gamma_m)


def alpha_median(fs: FirstStage, gamma_m: float) -> np.ndarray:
    """Pilot estimate of the direct TCP effects given the ratio pilot.

    No division happens here, so only the zero-coefficient guard applies
    (the relevance warning belongs to :func:`median_gamma`, which forms the
    ratios).
    """
    gamma, delta = fs.gamma_hat_vec, fs.delta_hat_vec
    _check(_relevance_error(np.abs(delta) <= DELTA_FLOOR))
    return gamma - float(gamma_m) * delta


# ---------------------------------------------------------------------------
# Selection stage: reduced design, penalty, weighted lasso
# ---------------------------------------------------------------------------


def _keep(errors: list, new) -> None:
    """Record each problem's first error; earlier stages take precedence."""
    for i, e in enumerate(new):
        if errors[i] is None:
            errors[i] = e


class _Reduced(NamedTuple):
    """A stack's reduced design in covariance form (``gram = g'g``, ``xty =
    g'Y``, ``yy = Y'Y``), ``d_tilde``, each problem's error or None, and
    ``rows(i) -> (g, Y)`` of problems ``i`` in the ``m`` coordinates of M.
    ``lasso(on, thresh)`` solves the weighted lassos of problems ``on``."""

    gram: np.ndarray
    xty: np.ndarray
    yy: np.ndarray
    d_tilde: np.ndarray
    errors: list
    rows: Callable

    def lasso(self, on: np.ndarray, thresh: np.ndarray):
        pick = slice(None) if on.size == len(self.gram) else on  # no copy
        return lasso_gram(self.gram[pick], self.xty[pick], self.yy[pick], thresh,
                          lambda i: self.rows(on[i]))


def _reduced_design(core: _Core, ds: np.ndarray, ocp: np.ndarray) -> _Reduced:
    """The selection stage's design, one problem per (dataset, OCP).

    ``d_tilde`` is D residualized on ``(what, X, 1)`` and ``g`` the TCP
    block residualized on ``(what, X, 1, D)``; an L1 fit of Y on ``g`` gives
    the TCP coefficients of the joint penalized regression exactly. Since
    ``what`` is ``Z delta`` (``delta``: the OCP's first-stage TCP
    coefficients) plus terms in ``(D, X, 1)``, ``g`` is ``Zp`` residualized
    on ``Zp delta``, with ``Zp`` the TCP block residualized on ``(D, X, 1)``.
    So ``Zp``, ``S = Zp'Zp`` and ``Zp'Y`` are formed once per dataset, and
    each problem takes rank-one downdates of ``S`` and ``Zp'Y``. ``g`` has
    rank ``p_z - 1`` with null direction ``delta``, which is why selection
    needs a majority or plurality of valid TCPs. Errors: a failed first
    stage, else a rank-deficient ``(what, X, 1)`` (certified on the dataset's
    ``(X, 1)`` factor bordered by the residual of ``what``: same singular
    values), else a degenerate treatment.
    """
    p_z, m, top = core.p_z, core.m, core.r[:, : core.m]
    qb, rb = np.linalg.qr(top[:, :, np.r_[p_z + 1 : m, p_z]])  # (X, 1), then D
    qx, dx = qb[:, :, :-1], qb[:, :, -1] * rb[:, -1:, -1]
    zp = top[:, :, :p_z] - qb @ (swap(qb) @ top[:, :, :p_z])
    s, y, y_all = swap(zp) @ zp, top[:, :, m + core.p_w], core.r[:, :, m + core.p_w]
    zy = matvec(swap(zp), y)
    f = top[ds, :, core.fitted(ocp)]
    qf = matvec(swap(qx[ds]), f)
    fx = f - matvec(qx[ds], qf)
    tri = rb[ds]  # the (X, 1) factor bordered by the residual of what
    tri[:, :-1, -1], tri[:, -1, -1] = qf, np.sqrt(inner(fx, fx))
    errors = _first_stage_error(core, ds)
    _keep(errors, rank_errors(tri))
    d_tilde = dx[ds] - fx * (inner(fx, dx[ds]) / _positive(inner(fx, fx)))[:, None]
    d = top[ds, :, p_z]
    bad = inner(d_tilde, d_tilde) <= DEGENERATE_TREATMENT_RTOL * inner(d, d)
    _keep(errors, [
        DegenerateTreatment(
            "treatment is numerically collinear with the fitted OCP and "
            "covariates; no variation left to identify the effect"
        ) if b else None
        for b in bad
    ])
    delta, gram = core.coef[ds, :p_z, ocp], s[ds]
    s_delta = matvec(gram, delta)
    scale = 1.0 / np.sqrt(_positive(inner(delta, s_delta)))[:, None]
    t, v = delta * scale, s_delta * scale  # g = Zp - Zp t v', g'g = S - v v'
    gram -= v[:, :, None] * v[:, None, :]

    def rows(i):
        g = zp[ds[i]]
        return g - matvec(g, t[i])[:, :, None] * v[i, None, :], y[ds[i]]

    return _Reduced(gram, zy[ds] - v * inner(t, zy[ds])[:, None],
                    inner(y_all, y_all)[ds], d_tilde, errors, rows)


def _positive(x: np.ndarray) -> np.ndarray:
    """``x`` with its non-positive entries (failed problems) set to 1."""
    return np.where(x > 0.0, x, 1.0)


def _penalty(core: _Core, ds: np.ndarray, ocp: np.ndarray, config: EstimationConfig):
    """Each problem's penalty, its errors so far and, in cv mode only, the
    reduced design: ``config.lambda_n``, else the rate rule ``std(Y) *
    sqrt(n) / log(n)``, else :func:`cv_penalty` on the n-row designs ``Q @
    g`` (cv needs ``n >= 20``; its design and folds precede relevance)."""
    errors = _first_stage_error(core, ds)
    if config.lambda_n is not None:
        return np.full(ds.size, float(config.lambda_n)), errors, None
    if config.lambda_mode == "rate":
        return core.y_sd[ds] * math.sqrt(core.n) / math.log(core.n), errors, None
    if core.n < 20:
        errors = [InvalidBound(f"cv mode needs n >= 20, got n = {core.n}") for _ in ds]
    red = _reduced_design(core, ds, ocp)
    _keep(errors, red.errors)
    lam = np.zeros(ds.size)
    on = np.flatnonzero([e is None for e in errors])
    if on.size:
        lam_max = np.max(np.abs(red.xty[on]), axis=1)
        x = core.q[ds[on], :, : core.m] @ red.rows(on)[0]
        lam[on], cv_errors = cv_penalty(x, core.y[ds[on]], lam_max)
        for i, e in zip(on, cv_errors):
            errors[i] = e
    return lam, errors, red


def _select(core: _Core, ds: np.ndarray, ocp: np.ndarray, config, warn: bool):
    """The selection stage for a stack of (dataset, OCP) problems: the
    penalty, the pilots and their weights, the reduced design and the
    weighted lasso. Returns the lasso coefficients with each problem's
    error, or None: :func:`_penalty`'s, else relevance, design or lasso."""
    lam, errors, red = _penalty(core, ds, ocp, config)
    bad, weak, _, alpha_m = _pilots(core.coef[ds, : core.p_z, -1],
                                    core.coef[ds, : core.p_z, ocp])
    for i in np.flatnonzero(bad.any(axis=1)):
        errors[i] = errors[i] or _relevance_error(bad[i])
    for i in np.flatnonzero([warn and e is None for e in errors]):
        _warn_weak(weak[i])
    if red is None:
        red = _reduced_design(core, ds, ocp)
    _keep(errors, red.errors)
    on = np.flatnonzero([e is None for e in errors])
    weights = 1.0 / np.maximum(np.abs(alpha_m[on]), config.adaptive_floor)
    alpha = np.zeros((ds.size, core.p_z))
    alpha[on], lasso_errors = red.lasso(on, lam[on, None] * weights)
    for i, e in zip(on, lasso_errors):
        errors[i] = e
    return alpha, errors


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
    must not be negative or NaN (:class:`InvalidBound`).
    """
    core = _single(data, [ocp_index])
    lam = EstimationConfig(lambda_n=float(lam)).lambda_n  # InvalidBound unless >= 0
    red = _reduced_design(core, _one(0), _one(ocp_index))
    _check(red.errors[0])
    alpha, errors = red.lasso(_one(0), np.full((1, data.p_z), lam))
    _check(errors[0])
    top, d_tilde = core.r[0, : core.m], red.d_tilde[0]
    resid = top[:, core.m + core.p_w] - top[:, : data.p_z] @ alpha[0]
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
    A negative or NaN ``lambda_n`` is an :class:`InvalidBound`. Returns the
    penalized coefficient vector and its support.
    """
    alpha, errors = _select(
        _single(data, [ocp_index]), _one(0), _one(ocp_index),
        EstimationConfig(lambda_n=float(lambda_n), adaptive_floor=adaptive_floor),
        True,
    )
    _check(errors[0])
    return alpha[0], tuple(int(j) for j in np.nonzero(alpha[0])[0])


# ---------------------------------------------------------------------------
# Shared second stage (refit + closed-form confidence interval)
# ---------------------------------------------------------------------------


def _zscore(alpha_level: float) -> float:
    if not 0.0 < alpha_level < 1.0:
        raise InvalidBound(f"alpha_level must lie in (0, 1), got {alpha_level}")
    return NormalDist().inv_cdf(1.0 - alpha_level / 2.0)


class _Refit(NamedTuple):
    beta: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    variance: np.ndarray
    errors: list


def _refit(core: _Core, ds: np.ndarray, sel: np.ndarray, ocps: np.ndarray) -> _Refit:
    """Refit on (treatment, selected TCPs, fitted OCPs, X, 1), per problem.

    ``sel`` (N, p_z) masks each problem's selected TCPs and ``ocps`` (N, q)
    lists its OCP columns; problems are stacked by selection size. One
    least-squares pass regresses ``Y`` and ``D`` on the non-treatment
    regressors; with residuals ``r_Y`` and ``r_D`` the effect is the ratio
    form ``beta = r_D'r_Y / r_D'r_D = D' P_perp Y / D' P_perp D``, the other
    coefficients follow by Frisch-Waugh as ``c_Y - beta * c_D``, and the
    plug-in variance of ``sqrt(n) * (beta_hat - beta)`` is ``sigma2_eps /
    (r_D'r_D / n)``. All closed-form methods funnel through here, so
    estimators that agree on the selected set agree on every output
    bit-for-bit. ``sigma2_eps`` follows the standard two-stage convention:
    the coefficients are applied to the *raw* OCP columns, not the fitted
    ones — fitted-value residuals would cancel the OCP's own measurement
    noise against the fit and understate the error variance (increasingly
    so as the proxy count grows).
    """
    n_prob, q = ocps.shape
    out = _Refit(np.full(n_prob, math.nan), np.full(n_prob, math.nan),
                 np.zeros((n_prob, core.p_z)), np.full(n_prob, math.nan),
                 [None] * n_prob)
    counts = sel.sum(axis=1)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        tcps, dsr = np.nonzero(sel[rows])[1].reshape(rows.size, k), ds[rows]
        tail = np.tile(np.arange(core.p_z + 1, core.m), (rows.size, 1))  # X, 1
        x = core.cols(dsr, np.column_stack([tcps, core.fitted(ocps[rows]), tail]))
        qx, rx = np.linalg.qr(x)
        errors = rank_errors(rx)
        rhs = core.cols(dsr, [core.m + core.p_w, core.p_z])  # Y and D
        coef = _solve(rx, swap(qx) @ rhs, [e is None for e in errors])
        del qx  # the largest array of a stack; free it before the residuals
        resid = rhs - x @ coef
        r_y, r_d = (np.ascontiguousarray(resid[:, :, c]) for c in (0, 1))
        d = core.r[dsr, :, core.p_z]
        bad = inner(r_d, r_d) <= DEGENERATE_TREATMENT_RTOL * inner(d, d)
        _keep(errors, [
            RankDeficient(
                "treatment is numerically collinear with the other refit "
                "regressors; no variation left to identify the effect"
            ) if b else None
            for b in bad
        ])
        d_sq = np.where(bad, 1.0, inner(r_d, r_d))
        beta = inner(r_d, r_y) / d_sq
        c = coef[:, :, 0] - beta[:, None] * coef[:, :, 1]
        raw = core.cols(dsr, core.fitted(ocps[rows])) - core.cols(dsr, core.m + ocps[rows])
        eps = r_y - beta[:, None] * r_d + matvec(raw, c[:, k : k + q])
        sigma2 = (inner(eps, eps) / core.n) / (d_sq / core.n)
        ok = np.array([e is None for e in errors])
        for i in np.flatnonzero(~ok):
            out.errors[rows[i]] = errors[i]
        good = rows[ok]
        out.beta[good], out.variance[good] = beta[ok], sigma2[ok]
        out.alpha[good[:, None], tcps[ok]] = c[ok, :k]
        out.gamma[good] = c[ok, k] if q else math.nan
    return out


def _estimate(fit: _Refit, i: int, n: int, alpha_level: float, method: str):
    """Problem ``i`` of a refit as a :class:`ProxyEstimate`, or its error."""
    if fit.errors[i] is not None:
        return fit.errors[i]
    beta, variance = float(fit.beta[i]), float(fit.variance[i])
    half = _zscore(alpha_level) * math.sqrt(variance / n)
    return ProxyEstimate(
        beta_hat=beta,
        gamma_hat=float(fit.gamma[i]),
        alpha_hat=fit.alpha[i].copy(),
        selected_invalid_tcps=tuple(int(j) for j in np.nonzero(fit.alpha[i])[0]),
        variance=variance,
        ci_lower=beta - half,
        ci_upper=beta + half,
        method=method,
    )


def _fit_or_raise(est: ProxyEstimate | ProxselError) -> ProxyEstimate:
    _check(None if isinstance(est, ProxyEstimate) else est)
    return est


def _second_stage(data, ocps, selected, alpha_level, method) -> ProxyEstimate:
    """:func:`_refit` on ``data`` alone, for the public refit entry points."""
    sel = sorted(set(int(j) for j in selected))
    if sel and (sel[0] < 0 or sel[-1] >= data.p_z):
        raise IndexError(
            f"selected TCP indices must lie in [0, {data.p_z - 1}], got {sel}"
        )
    ocps = np.array([[int(k) for k in ocps]], dtype=int).reshape(1, -1)
    core = _single(data, ocps[0])
    _check(_first_stage_error(core, _one(0))[0])
    mask = np.zeros((1, data.p_z), dtype=bool)
    mask[0, sel] = True
    fit = _refit(core, _one(0), mask, ocps)
    return _fit_or_raise(_estimate(fit, 0, data.n, alpha_level, method))


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
    ``sigma2_eps / mean(d_res^2)``, ``d_res = P_perp D``.
    """
    return _second_stage(
        data, [ocp_index], selected_set, alpha_level, "post_adaptive_2sls"
    )


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
    simulation studies.
    """
    return _second_stage(
        data, [ocp_index], true_invalid_set, alpha_level, "oracle_p2sls"
    )


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
    coefficient.
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
    """Selection and post-selection refit for a stack of problems."""
    alpha, errors = _select(core, ds, ocp, config, warn)
    fit = _refit(core, ds, alpha != 0, ocp[:, None])
    _keep(errors, fit.errors)
    return fit._replace(errors=errors)


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
    dataset's ``R``.
    """
    config = config or EstimationConfig()
    core = _single(data, [ocp_index], _is_cv(config))
    fit = _pipeline(core, _one(0), _one(ocp_index), config, True)
    return _fit_or_raise(
        _estimate(fit, 0, data.n, config.alpha_level, "post_adaptive_2sls")
    )


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
    strict majority of runs succeed. No closed-form interval exists for the
    median — attach one with :func:`subsample_ci` — so variance and CI
    fields are NaN here.
    """
    config = config or EstimationConfig()
    p_w = data.p_w
    fit = _pipeline(_single(data, (), _is_cv(config)), np.zeros(p_w, dtype=int),
                    np.arange(p_w), config, True)
    per_ocp = tuple(
        _estimate(fit, j, data.n, config.alpha_level, "post_adaptive_2sls")
        for j in range(p_w)
    )
    fits = [f for f in per_ocp if isinstance(f, ProxyEstimate)]
    required = p_w // 2 + 1
    if len(fits) < required:
        raise AggregateFailure(
            f"only {len(fits)} of {p_w} per-OCP runs succeeded; "
            f"need at least {required}",
            n_failed=p_w - len(fits),
            n_total=p_w,
        )
    beta = float(np.median([f.beta_hat for f in fits]))
    gamma = float(np.median([f.gamma_hat for f in fits]))
    alpha_vec = np.median(np.vstack([f.alpha_hat for f in fits]), axis=0)
    return ProxyEstimate(
        beta_hat=beta,
        gamma_hat=gamma,
        alpha_hat=alpha_vec,
        selected_invalid_tcps=tuple(int(j) for j in np.nonzero(alpha_vec)[0]),
        variance=math.nan,
        ci_lower=math.nan,
        ci_upper=math.nan,
        method="median_over_ocps",
        per_ocp_fits=per_ocp,
    )


def default_subsample_size(n: int) -> int:
    """Default subsample size: ``floor(n ** (4/5))``."""
    return int(math.floor(n ** 0.8))


# Subsamples factored and fitted in one stack by subsample_ci (and
# replications by simulation.run_monte_carlo). On 200 subsamples of
# n = 2500 rows with 10 TCPs and 10 OCPs (one BLAS thread, numpy 2.4,
# 2 vCPUs), blocks of 20 take 101 ms and peak at 1.45 MB of Python heap;
# blocks of 10 take 117 ms (1.00 MB), one at a time 401 ms (0.94 MB) and
# one stack of all 200 72 ms (9.8 MB).
_SUBSAMPLE_BLOCK = 20


def _subsample_fits(data: Dataset, config, n_subsamples: int, b: int, seed: int):
    """Blocks of subsample indices, each with the refits of its (subsample,
    OCP) problems in that order; subsample ``i`` draws its ``b`` rows from
    the stream keyed by ``(seed, STREAM_SUBSAMPLE, i)``."""
    p_w, a = data.p_w, _augmented(data)
    for first in range(0, n_subsamples, _SUBSAMPLE_BLOCK):
        block = range(first, min(first + _SUBSAMPLE_BLOCK, n_subsamples))
        draws = [
            np.sort(np.random.default_rng(
                np.random.SeedSequence((int(seed), STREAM_SUBSAMPLE, i))
            ).choice(data.n, size=b, replace=False))
            for i in block
        ]
        # each subsample's rows of A, column-major like A
        core = _factor(data, (np.take(a.T, i, axis=1).T for i in draws), _is_cv(config))
        yield block, _pipeline(core, np.repeat(np.arange(len(block)), p_w),
                               np.tile(np.arange(p_w), len(block)), config, False)


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
    Deterministic given ``seed``: subsample ``i`` draws from an independent
    stream keyed by ``(seed, STREAM_SUBSAMPLE, i)``, and blocks of
    subsamples are factored and fitted as stacks in which every problem is
    computed on its own, so the interval does not depend on the blocking.
    """
    config = config or EstimationConfig()
    n = data.n
    if b is None:
        b = default_subsample_size(n)
    b = int(b)
    # At or below this no subsample is a valid Dataset.
    min_b = data.p_z + data.p_w + data.p_x + 1
    if not min_b < b < n:
        raise InvalidBound(
            f"need p_z + p_w + p_x + 1 = {min_b} < b < n = {n}, got b = {b}"
        )
    if n_subsamples < 1:
        raise InvalidBound(f"n_subsamples must be >= 1, got {n_subsamples}")

    p_w = data.p_w
    estimates = np.full(n_subsamples, math.nan)
    for block, fit in _subsample_fits(data, config, n_subsamples, b, seed):
        failed = np.array([e is not None for e in fit.errors]).reshape(-1, p_w)
        beta, clean = fit.beta.reshape(-1, p_w), ~failed.any(axis=1)
        estimates[np.array(block)[clean]] = np.median(beta[clean], axis=1)
        for s in np.flatnonzero(~clean & (failed.sum(axis=1) < p_w - p_w // 2)):
            estimates[block[s]] = np.median(beta[s, ~failed[s]])  # a strict majority
    n_failed = int(np.sum(np.isnan(estimates)))
    if n_failed > 0.2 * n_subsamples:
        raise AggregateFailure(
            f"{n_failed} of {n_subsamples} subsample runs failed "
            f"(more than 20%)",
            n_failed=n_failed,
            n_total=n_subsamples,
        )
    values = estimates[np.isfinite(estimates)]
    lo_q, hi_q = config.alpha_level / 2.0, 1.0 - config.alpha_level / 2.0
    if recenter:
        if center is None:
            center = estimate_invalid_tcp_ocp(data, config).beta_hat
        roots = math.sqrt(b) * (values - center)
        r_lo, r_hi = np.quantile(roots, [lo_q, hi_q])
        scale = math.sqrt(n)
        return (
            float(center - r_hi / scale),
            float(center - r_lo / scale),
        )
    lo, hi = np.quantile(values, [lo_q, hi_q])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Penalty-level selection
# ---------------------------------------------------------------------------


def _reduced_rows(data: Dataset, ocp_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-row reduced design ``(g, d_tilde)`` of one OCP, as ``Q @ g_R``."""
    core = _single(data, [ocp_index], keep_rows=True)
    red = _reduced_design(core, _one(0), _one(ocp_index))
    _check(red.errors[0])
    q = core.q[0, :, : core.m]
    return q @ red.rows(_one(0))[0][0], q @ red.d_tilde[0]


def select_lambda(
    data: Dataset,
    ocp_index: int = 0,
    mode: str = "cv",
) -> float:
    """Penalty level for the selection stage.

    ``rate`` mode returns ``std(Y) * sqrt(n) / log(n)`` — a deterministic
    schedule that diverges while remaining ``o(sqrt(n))``, the growth regime
    under which the adaptive selection is consistent. ``cv`` mode runs
    :func:`proxsel.lasso.cv_penalty`: ``CV_FOLDS``-fold cross-validation of
    the plain lasso on the residualized TCP design over ``CV_GRID_SIZE``
    log-spaced penalties, from the smallest with an all-zero solution down
    to ``CV_GRID_MIN_RATIO`` times it; folds are contiguous row blocks (no
    RNG) and ties prefer the larger penalty. The folds take the reduced
    design of the selection stage back to n rows through ``Q``. A failed
    first stage raises in either mode.
    """
    config = EstimationConfig(lambda_mode=mode)
    lam, errors, _ = _penalty(_single(data, [ocp_index], _is_cv(config)), _one(0),
                              _one(ocp_index), config)
    _check(errors[0])
    return float(lam[0])
