"""Reference implementations the library replaced, kept as oracles.

Every estimator function below is the n-row implementation that
``proxsel.estimators`` shipped before each dataset took one QR and every
stage moved onto its R-factor: one first stage per dataset on the n-row
augmented design, one n-row reduced design and refit per OCP, and a scalar
coordinate-descent lasso iterated to its fixed point. The bodies are
unchanged; only the first stage's cache lives here, keyed weakly by dataset,
instead of on the dataset. ``load_csv_rows`` is ``proxsel.data_io.load_csv``
as it was before clean files went through numpy's C parser: every file row
by row, with ``csv``. ``take_rows`` and ``residual_project`` are the row
subset and annihilator the library no longer needs.
``run_monte_carlo_serial`` is ``proxsel.simulation.run_monte_carlo`` as it
was before replications were fitted in blocks: one replication at a time,
each method through the library's public single-dataset entry point.
``rank_errors`` is the rank certificate of ``proxsel.linalg.solve_upper``
before it bounded the condition number first: one SVD of every factor. ``support_solve`` is
``proxsel.lasso._support_solve`` before it solved the support blocks alone:
one p x p system per problem, padded with the identity. The ``cd_``
functions are ``proxsel.lasso``'s batched coordinate descent, unchanged but
for the prefix, as it was before every lasso was solved along its exact
path: ``cd_lasso_gram`` solved the selection stacks, polishing a zero start
on its KKT support before the first sweep and each sweep's iterate after
it, with a duality-gap and a stationarity certificate; ``cd_grid`` is the
warm-started loop with which ``cv_penalty`` solved its grid. Tests compare
the library against these functions.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
import weakref
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from proxsel import estimators as library
from proxsel import simulation
from proxsel.data_io import MISSING_TOKENS, LoadResult, SchemaMap
from proxsel.estimators import (
    STREAM_SUBSAMPLE,
    Dataset,
    EstimationConfig,
    FirstStage,
    ProxyEstimate,
)
from proxsel.exceptions import (
    AggregateFailure,
    AssumptionViolation,
    DegenerateTreatment,
    EmptyAfterFiltering,
    InvalidBound,
    IoError,
    MissingColumn,
    NoConvergence,
    ParseError,
    ProxselError,
    RankDeficient,
    WeakProxyWarning,
)
from proxsel.linalg import (
    RANK_TOL,
    alive,
    as_matrix,
    as_vector,
    inner,
    keep_first,
    matvec,
    ols,
    orthonormal_basis,
    project,
)

DELTA_FLOOR = 1e-10
ADAPTIVE_FLOOR = 1e-8
DEGENERATE_TREATMENT_RTOL = 1e-12
KKT_TOL = 1e-6
DUAL_GAP_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 100_000
CV_FOLDS = 10
CV_GRID_SIZE = 50
CV_GRID_MIN_RATIO = 1e-3

def take_rows(data: Dataset, idx: np.ndarray) -> Dataset:
    """The rows ``idx`` of ``data`` as a new dataset."""
    return Dataset(Y=data.Y[idx], D=data.D[idx], Z=data.Z[idx], W=data.W[idx],
                   X=data.X[idx])


def residual_project(design, target) -> np.ndarray:
    """``target`` minus its projection onto ``design`` (the annihilator)."""
    t = np.asarray(target, dtype=np.float64)
    return t - project(design, t)


def _read_only(owned: np.ndarray) -> np.ndarray:
    owned.flags.writeable = False
    return owned


_BUNDLES: "weakref.WeakKeyDictionary[Dataset, _FirstStageBundle]" = (
    weakref.WeakKeyDictionary()
)


# ---------------------------------------------------------------------------
# First stage
# ---------------------------------------------------------------------------


class _FirstStageBundle(NamedTuple):
    """All per-dataset first-stage quantities, computed with one factorization."""

    gamma_vec: np.ndarray  # outcome coefficients on Z
    delta_mat: np.ndarray  # per-OCP coefficients on Z, one column each
    what_mat: np.ndarray  # fitted OCP columns, n x p_w


def _first_stage_bundle(data: Dataset) -> _FirstStageBundle:
    m = np.concatenate(
        [data.Z, data.D[:, None], data.X, np.ones((data.n, 1))], axis=1
    )
    fit = ols(m, np.column_stack([data.Y, data.W]))
    tcp_coef = fit.coefficients[: data.p_z]
    return _FirstStageBundle(
        gamma_vec=_read_only(tcp_coef[:, 0].copy()),
        delta_mat=_read_only(tcp_coef[:, 1:].copy()),
        what_mat=_read_only(data.W - fit.residuals[:, 1:]),
    )


def _cached_first_stage(data: Dataset) -> _FirstStageBundle:
    if data not in _BUNDLES:
        _BUNDLES[data] = _first_stage_bundle(data)
    return _BUNDLES[data]


def first_stage(data: Dataset, ocp_index: int = 0) -> FirstStage:
    """Reduced-form regressions of the outcome and one OCP on ``(Z, D, X, 1)``.

    All OCPs share one factorization, computed on the dataset's first call
    into any estimator and reused by every later one.
    """
    _check_ocp_index(data, ocp_index)
    bundle = _cached_first_stage(data)
    return FirstStage(
        what=bundle.what_mat[:, ocp_index].copy(),
        gamma_hat_vec=bundle.gamma_vec,
        delta_hat_vec=bundle.delta_mat[:, ocp_index].copy(),
    )


def _check_ocp_index(data: Dataset, ocp_index: int) -> None:
    if not 0 <= int(ocp_index) < data.p_w:
        raise IndexError(
            f"ocp_index must lie in [0, {data.p_w - 1}], got {ocp_index}"
        )


# ---------------------------------------------------------------------------
# Median-ratio pilot estimators
# ---------------------------------------------------------------------------


def _median_1d(values: np.ndarray) -> float:
    # Sort-based median for the short vectors used here; agrees with
    # np.median bit-for-bit (middle element, or the mean of the two middle
    # elements) at a fraction of its dispatch overhead.
    v = np.sort(values)
    m = v.size
    half = m // 2
    if m % 2:
        return float(v[half])
    return float((v[half - 1] + v[half]) / 2.0)


def _tcp_coefficients(fs: FirstStage) -> tuple[np.ndarray, np.ndarray]:
    """The outcome and OCP coefficient vectors, guarded for relevance.

    Both pilots divide by, or scale, the OCP coefficients, so a numerically
    zero one is a relevance failure for either.
    """
    gamma, delta = fs.gamma_hat_vec, fs.delta_hat_vec
    bad = [int(j) for j in np.nonzero(np.abs(delta) <= DELTA_FLOOR)[0]]
    if bad:
        raise AssumptionViolation(
            f"OCP reduced-form coefficient is numerically zero at TCP indices "
            f"{bad}; the ratio pilot estimator is undefined there",
            indices=bad,
        )
    return gamma, delta


def median_gamma(fs: FirstStage) -> float:
    """Median of the per-TCP reduced-form ratios; pilot for the OCP effect.

    Valid TCPs all produce the same ratio (outcome coefficient over OCP
    coefficient) in population, so as long as strictly more than half the
    TCPs are valid the median is a consistent pilot. Even counts average the
    two central order statistics.
    """
    gamma, delta = _tcp_coefficients(fs)
    abs_delta = np.abs(delta)
    weak = abs_delta < 0.05 * _median_1d(abs_delta)
    if np.any(weak):
        warnings.warn(
            f"weak TCP relevance at indices "
            f"{[int(j) for j in np.nonzero(weak)[0]]}: |coefficient| below "
            f"5% of the median; pilot ratios may be unstable",
            WeakProxyWarning,
            stacklevel=2,
        )
    return _median_1d(gamma / delta)


def alpha_median(fs: FirstStage, gamma_m: float) -> np.ndarray:
    """Pilot estimate of the direct TCP effects given the ratio pilot.

    No division happens here, so only the zero-coefficient guard applies
    (the relevance warning belongs to :func:`median_gamma`, which forms the
    ratios).
    """
    gamma, delta = _tcp_coefficients(fs)
    return gamma - float(gamma_m) * delta


# ---------------------------------------------------------------------------
# Weighted lasso solver
# ---------------------------------------------------------------------------


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
    g = x.T @ (x @ a - y)
    thresh = lam * w
    on = a != 0
    viol = np.where(on, np.abs(g + thresh * np.sign(a)), np.abs(g) - thresh)
    return float(np.max(np.maximum(viol, 0.0), initial=0.0))


def _check_weights(weights, p: int) -> np.ndarray:
    if weights is None:
        return np.ones(p)
    w = as_vector(weights, "weights")
    if w.size != p:
        raise ValueError(f"weights has length {w.size}, expected {p}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return w


def _dual_gap(
    x: np.ndarray,
    y: np.ndarray,
    alpha: np.ndarray,
    lam: float,
    w: np.ndarray,
) -> float:
    # Scale the residual onto the dual-feasible set {nu : |X_j' nu| <= lam w_j}
    # and evaluate the Fenchel dual; the gap is zero exactly at the optimum.
    r = y - x @ alpha
    corr = np.abs(x.T @ r)
    over = corr / (lam * w)
    s = 1.0 / max(1.0, float(np.max(over, initial=0.0)))
    nu = s * r
    primal = 0.5 * float(r @ r) + lam * float(w @ np.abs(alpha))
    dual = float(nu @ y) - 0.5 * float(nu @ nu)
    return primal - dual


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

    Cyclic coordinate descent on the Gram system, iterated past the duality
    -gap tolerance all the way to a coordinate-wise fixed point, so the
    returned vector carries exact zeros off the support and passes the
    stationarity check of :func:`kkt_violation` at the module constant
    ``KKT_TOL``; the solver certifies both before returning. ``lam = 0``
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

    if lam == 0.0:
        alpha = np.linalg.lstsq(x, y, rcond=None)[0]
        _certify(x, y, alpha, lam, w)
        return alpha

    if start is None:
        alpha = np.zeros(p)
    else:
        alpha = as_vector(start, "start").copy()
        if alpha.size != p:
            raise ValueError(f"start has length {alpha.size}, expected {p}")

    gram = x.T @ x
    xty = x.T @ y
    diag = np.diag(gram).copy()
    active = [j for j in range(p) if diag[j] > 0.0]
    thresh = lam * w
    gap_target = DUAL_GAP_TOL * float(y @ y)

    stalled = False
    for _ in range(max_sweeps):
        v = gram @ alpha  # refresh to avoid drift in the incremental updates
        max_move = 0.0
        for j in active:
            a_j = alpha[j]
            rho = xty[j] - v[j] + diag[j] * a_j
            mag = abs(rho) - thresh[j]
            new = 0.0 if mag <= 0.0 else math.copysign(mag, rho) / diag[j]
            d = new - a_j
            if d != 0.0:
                alpha[j] = new
                v += gram[:, j] * d
                if abs(d) > max_move:
                    max_move = abs(d)
        scale = max(1.0, float(np.max(np.abs(alpha), initial=0.0)))
        if max_move <= 1e-13 * scale:
            stalled = True
            break

    gap = _dual_gap(x, y, alpha, lam, w)
    if gap > gap_target and not stalled:
        raise NoConvergence(
            f"coordinate descent used {max_sweeps} sweeps but the duality gap "
            f"{gap:.3e} still exceeds {gap_target:.3e}"
        )
    _certify(x, y, alpha, lam, w)
    return alpha


def _certify(x, y, alpha, lam, w) -> None:
    viol = kkt_violation(x, y, alpha, lam, w)
    if viol > KKT_TOL:
        raise NoConvergence(
            f"terminal iterate fails the stationarity certificate: "
            f"violation {viol:.3e} > {KKT_TOL:g}"
        )


# ---------------------------------------------------------------------------
# Two-step penalized estimator
# ---------------------------------------------------------------------------


def _reduced_design(data: Dataset, what: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TCP block and treatment, both residualized for the selection stage.

    Returns ``(g, d_tilde)`` where ``d_tilde`` is the treatment residualized
    on ``(what, X, 1)`` and ``g`` is the TCP block residualized on
    ``(what, X, 1, d_tilde)``. Fitting the outcome on ``g`` with an L1
    penalty reproduces the TCP coefficients of the joint penalized
    regression of Y on (treatment, TCPs, fitted OCP, covariates) exactly.
    """
    base = np.concatenate(
        [what[:, None], data.X, np.ones((data.n, 1))], axis=1
    )
    q = orthonormal_basis(base)
    d_tilde = data.D - q @ (q.T @ data.D)
    d_sq = float(d_tilde @ d_tilde)
    d_raw = float(data.D @ data.D)
    if d_sq <= DEGENERATE_TREATMENT_RTOL * d_raw:
        raise DegenerateTreatment(
            "treatment is numerically collinear with the fitted OCP and "
            "covariates; no variation left to identify the effect"
        )
    u = d_tilde / math.sqrt(d_sq)
    g = data.Z - q @ (q.T @ data.Z) - np.outer(u, u @ data.Z)
    return g, d_tilde


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
    minimizer of the jointly penalized regression at the same penalty.
    """
    g, d_tilde = _reduced_design(data, first_stage(data, ocp_index).what)
    alpha = lasso_solve(g, data.Y, lam)
    beta = float(d_tilde @ (data.Y - data.Z @ alpha) / (d_tilde @ d_tilde))
    return alpha, beta


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
    Returns the penalized coefficient vector and its support.
    """
    fs = first_stage(data, ocp_index)
    alpha_m = alpha_median(fs, median_gamma(fs))
    weights = 1.0 / np.maximum(np.abs(alpha_m), adaptive_floor)
    g, _ = _reduced_design(data, fs.what)
    alpha_ad = lasso_solve(g, data.Y, lambda_n, weights)
    selected = tuple(int(j) for j in np.nonzero(alpha_ad)[0])
    return alpha_ad, selected


# ---------------------------------------------------------------------------
# Shared second stage (refit + closed-form confidence interval)
# ---------------------------------------------------------------------------


def _zscore(alpha_level: float) -> float:
    if not 0.0 < alpha_level < 1.0:
        raise InvalidBound(f"alpha_level must lie in (0, 1), got {alpha_level}")
    return NormalDist().inv_cdf(1.0 - alpha_level / 2.0)


def _second_stage(
    data: Dataset,
    ocps: Sequence[int],
    selected: Sequence[int],
    alpha_level: float,
    method: str,
) -> ProxyEstimate:
    """Refit on (treatment, selected TCPs, fitted OCPs ``ocps``, X, 1).

    One least-squares pass regresses ``Y`` and ``D`` on the non-treatment
    regressors ``N``; with residuals ``r_Y`` and ``r_D`` the effect is the
    ratio form ``beta = r_D'r_Y / r_D'r_D = D' P_perp Y / D' P_perp D``, the
    other coefficients follow by Frisch-Waugh as ``c_Y - beta * c_D``, and
    the plug-in variance of ``sqrt(n) * (beta_hat - beta)`` is
    ``sigma2_eps / (r_D'r_D / n)``. All closed-form methods funnel through
    here, so estimators that agree on the selected set agree on every output
    bit-for-bit. ``sigma2_eps`` follows the standard two-stage convention:
    the coefficients are applied to the *raw* OCP columns, not the fitted
    ones — fitted-value residuals would cancel the OCP's own measurement
    noise against the fit and understate the error variance (increasingly
    so as the proxy count grows).
    """
    sel = sorted(set(int(j) for j in selected))
    if sel and (sel[0] < 0 or sel[-1] >= data.p_z):
        raise IndexError(
            f"selected TCP indices must lie in [0, {data.p_z - 1}], got {sel}"
        )
    ocps = list(ocps)
    for k in ocps:
        _check_ocp_index(data, k)
    what = data.W[:, []]  # no OCP enters the OLS baseline
    if ocps:
        what = _cached_first_stage(data).what_mat[:, ocps]
    others = np.concatenate(
        [data.Z[:, sel], what, data.X, np.ones((data.n, 1))], axis=1
    )
    fit = ols(others, np.column_stack([data.Y, data.D]))
    r_y, r_d = fit.residuals[:, 0], fit.residuals[:, 1]
    d_sq = float(r_d @ r_d)
    if d_sq <= DEGENERATE_TREATMENT_RTOL * float(data.D @ data.D):
        raise RankDeficient(
            "treatment is numerically collinear with the other refit "
            "regressors; no variation left to identify the effect"
        )
    beta = float(r_d @ r_y) / d_sq
    coef = fit.coefficients[:, 0] - beta * fit.coefficients[:, 1]
    k = len(sel)
    alpha_vec = np.zeros(data.p_z)
    alpha_vec[sel] = coef[:k]
    gamma = float(coef[k]) if ocps else math.nan

    gamma_block = coef[k : k + len(ocps)]
    resid = r_y - beta * r_d + (what - data.W[:, ocps]) @ gamma_block
    sigma2_eps = float(resid @ resid) / data.n
    sigma2 = sigma2_eps / (d_sq / data.n)
    half = _zscore(alpha_level) * math.sqrt(sigma2 / data.n)
    return ProxyEstimate(
        beta_hat=beta,
        gamma_hat=gamma,
        alpha_hat=alpha_vec,
        selected_invalid_tcps=tuple(int(j) for j in np.nonzero(alpha_vec)[0]),
        variance=sigma2,
        ci_lower=beta - half,
        ci_upper=beta + half,
        method=method,
    )


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


def estimate_invalid_tcp(
    data: Dataset,
    ocp_index: int = 0,
    config: EstimationConfig | None = None,
) -> ProxyEstimate:
    """Full adaptive pipeline against a single designated OCP column.

    The public stages composed: the penalty ``config.lambda_n`` (or
    :func:`select_lambda` in ``config.lambda_mode``), the pilots and weighted
    lasso of :func:`adaptive_lasso_proximal`, then the closed-form interval
    of the :func:`post_adaptive_2sls` refit.
    """
    config = config or EstimationConfig()
    lam = config.lambda_n
    if lam is None:
        lam = select_lambda(data, ocp_index, config.lambda_mode)
    _, selected = adaptive_lasso_proximal(
        data, ocp_index, lam, adaptive_floor=config.adaptive_floor
    )
    return post_adaptive_2sls(data, ocp_index, selected, config.alpha_level)


def estimate_invalid_tcp_ocp(
    data: Dataset,
    config: EstimationConfig | None = None,
) -> ProxyEstimate:
    """Median-over-OCPs aggregate of the adaptive pipeline.

    Runs :func:`estimate_invalid_tcp` once per OCP column and reports the
    median treatment effect, which tolerates a minority of invalid OCPs.
    ``per_ocp_fits`` keeps each column's fit, or the error it raised, and
    ``per_ocp_estimates`` its effect (NaN for a failed column); the
    aggregate proceeds only when a strict majority of runs succeed. No
    closed-form interval exists for the median — attach one with
    :func:`subsample_ci` — so variance and CI fields are NaN here.
    """
    config = config or EstimationConfig()
    per_ocp: list[ProxyEstimate | ProxselError] = []
    for j in range(data.p_w):
        try:
            per_ocp.append(estimate_invalid_tcp(data, j, config))
        except ProxselError as exc:
            # Without the traceback the kept error holds no frame, and so no
            # reference cycle back to this one.
            per_ocp.append(exc.with_traceback(None))
    fits = [f for f in per_ocp if isinstance(f, ProxyEstimate)]
    required = data.p_w // 2 + 1
    if len(fits) < required:
        j, cause = next((j, f) for j, f in enumerate(per_ocp) if isinstance(f, ProxselError))
        raise AggregateFailure(
            f"only {len(fits)} of {data.p_w} per-OCP runs succeeded; "
            f"need at least {required}; OCP {j} failed with {type(cause).__name__}: {cause}",
            n_failed=data.p_w - len(fits),
            n_total=data.p_w,
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
        per_ocp_fits=tuple(per_ocp),
    )


def default_subsample_size(n: int) -> int:
    """Default subsample size: ``floor(n ** (4/5))``."""
    return int(math.floor(n ** 0.8))


def subsample_ci(
    data: Dataset,
    config: EstimationConfig | None = None,
    n_subsamples: int = 1000,
    b: int | None = None,
    seed: int = 0,
    *,
    recenter: bool = False,
) -> tuple[float, float]:
    """Subsampling confidence interval for the median-over-OCPs estimator.

    Draws ``n_subsamples`` row subsets of size ``b`` (default
    ``floor(n^{4/5})``; above ``p_z + p_w + p_x + 1``, since every subsample
    is a :class:`Dataset`) without replacement, recomputes
    :func:`estimate_invalid_tcp_ocp` on each, and returns the empirical
    ``alpha/2`` and ``1 - alpha/2`` quantiles of the subsample estimates,
    with ``alpha = config.alpha_level``.
    ``recenter=True`` instead inverts the classical subsampling root
    ``sqrt(b) * (estimate_b - estimate_n)`` (the orthodox construction; the
    raw-quantile default matches the reference simulation design).
    Deterministic given ``seed``: subsample ``i`` draws from an independent
    stream keyed by ``(seed, STREAM_SUBSAMPLE, i)``, so any parallel
    execution order reproduces the same interval.
    """
    config = config or EstimationConfig()
    n = data.n
    if b is None:
        b = default_subsample_size(n)
    b = int(b)
    # At or below this every subsample fails Dataset's size check.
    min_b = data.p_z + data.p_w + data.p_x + 1
    if not min_b < b < n:
        raise InvalidBound(
            f"need p_z + p_w + p_x + 1 = {min_b} < b < n = {n}, got b = {b}"
        )
    if n_subsamples < 1:
        raise InvalidBound(f"n_subsamples must be >= 1, got {n_subsamples}")

    estimates = np.full(n_subsamples, math.nan)
    n_failed = 0
    with warnings.catch_warnings():
        # Weak-relevance warnings inside subsample replicas reflect the
        # subsample's own noise, not the data; only the quantiles of the
        # replicas' point estimates enter the interval.
        warnings.simplefilter("ignore", WeakProxyWarning)
        for i in range(n_subsamples):
            rng = np.random.default_rng(
                np.random.SeedSequence((int(seed), STREAM_SUBSAMPLE, i))
            )
            idx = np.sort(rng.choice(n, size=b, replace=False))
            try:
                estimates[i] = estimate_invalid_tcp_ocp(
                    take_rows(data, idx), config
                ).beta_hat
            except ProxselError:
                n_failed += 1
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


def select_lambda(
    data: Dataset,
    ocp_index: int = 0,
    mode: str = "cv",
) -> float:
    """Penalty level for the selection stage.

    ``rate`` mode returns ``std(Y) * sqrt(n) / log(n)`` — a deterministic
    schedule that diverges while remaining ``o(sqrt(n))``, the growth regime
    under which the adaptive selection is consistent. ``cv`` mode runs
    ``CV_FOLDS``-fold cross-validation of the plain lasso on the residualized
    TCP design over ``CV_GRID_SIZE`` log-spaced penalties, from the smallest
    with an all-zero solution down to ``CV_GRID_MIN_RATIO`` times it; folds
    are contiguous row blocks (no RNG) and ties prefer the larger penalty.
    """
    if mode == "rate":
        n = data.n
        return float(np.std(data.Y, ddof=1) * math.sqrt(n) / math.log(n))
    if mode != "cv":
        raise InvalidBound(f"mode must be 'rate' or 'cv', got {mode!r}")
    if data.n < 20:
        raise InvalidBound(f"cv mode needs n >= 20, got n = {data.n}")

    g, _ = _reduced_design(data, first_stage(data, ocp_index).what)
    y = data.Y
    lam_max = float(np.max(np.abs(g.T @ y)))
    if lam_max <= 0.0:
        return 0.0
    grid = np.geomspace(CV_GRID_MIN_RATIO * lam_max, lam_max, CV_GRID_SIZE)[::-1]

    n = data.n
    bounds = np.linspace(0, n, CV_FOLDS + 1).astype(int)
    mse = np.zeros(CV_GRID_SIZE)
    for f in range(CV_FOLDS):
        val = np.zeros(n, dtype=bool)
        val[bounds[f] : bounds[f + 1]] = True
        g_tr, y_tr = g[~val], y[~val]
        g_va, y_va = g[val], y[val]
        start = np.zeros(g.shape[1])
        for gi, lam in enumerate(grid):
            start = lasso_solve(g_tr, y_tr, lam, start=start)
            resid = y_va - g_va @ start
            mse[gi] += float(resid @ resid)
    # The grid descends, so argmin's first minimum is the larger penalty.
    return float(grid[int(np.argmin(mse))])


def load_csv_rows(
    path: str,
    schema: SchemaMap,
    *,
    delimiter: str = ",",
    strict: bool = True,
) -> LoadResult:
    """Read a delimited file with a header row into a Dataset.

    Complete-case analysis: rows with a missing value (see
    :data:`MISSING_TOKENS`) in any mapped column are dropped and counted.
    Unmapped columns are ignored entirely. In strict mode a non-missing cell
    that does not parse as a number raises :class:`ParseError` locating the
    row and column; in lenient mode (``strict=False``) such cells are treated
    as missing and the row is dropped. Short rows (fewer fields than the
    header) follow the same rule.
    """
    try:
        handle = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path!r}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path!r} is empty (no header row)") from None
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        missing_names = []
        for name in schema.all_columns():
            if name in positions:
                continue
            try:
                positions[name] = header.index(name)
            except ValueError:
                missing_names.append(name)
        if missing_names:
            raise MissingColumn(
                "column(s) not found in header: " + ", ".join(missing_names),
                columns=missing_names,
            )
        names = schema.all_columns()
        rows: list[list[float]] = []
        n_read = 0
        n_dropped = 0
        for row_index, raw_row in enumerate(reader, start=1):
            n_read += 1
            values: list[float] = []
            drop = False
            for name in names:
                pos = positions[name]
                cell = raw_row[pos].strip() if pos < len(raw_row) else ""
                if cell.lower() in MISSING_TOKENS:
                    drop = True
                    break
                try:
                    values.append(float(cell))
                except ValueError:
                    if strict:
                        raise ParseError(
                            f"row {row_index}, column {name!r}: "
                            f"cannot parse {cell!r} as a number",
                            row=row_index,
                            column=name,
                        ) from None
                    drop = True
                    break
            if drop:
                n_dropped += 1
            else:
                rows.append(values)
        if not rows:
            raise EmptyAfterFiltering(
                f"no complete rows remain after dropping {n_dropped} of {n_read}"
            )
    table = np.asarray(rows, dtype=float)
    cols = {name: table[:, i] for i, name in enumerate(names)}
    n_z = len(schema.tcp_columns)
    n_w = len(schema.ocp_columns)
    n_x = len(schema.covariate_columns)
    z = np.column_stack([cols[c] for c in schema.tcp_columns])
    w = np.column_stack([cols[c] for c in schema.ocp_columns])
    x = (
        np.column_stack([cols[c] for c in schema.covariate_columns])
        if n_x
        else None
    )
    dataset = Dataset(
        Y=cols[schema.outcome_column],
        D=cols[schema.treatment_column],
        Z=z,
        W=w,
        X=x,
    )
    return LoadResult(dataset=dataset, n_rows_read=n_read, n_rows_dropped=n_dropped)


# ---------------------------------------------------------------------------
# Monte Carlo, one replication at a time
# ---------------------------------------------------------------------------


def _run_method(
    name: str,
    data: Dataset,
    config: simulation.SimConfig,
    est_config: EstimationConfig,
    ci_config: simulation.SubsampleCiConfig | None,
    rep_index: int,
) -> tuple[float, float, float]:
    """One method on one replication; returns (estimate, ci_lower, ci_upper)."""
    if name == "adaptive":
        est = library.estimate_invalid_tcp(data, 0, est_config)
    elif name == "median_adaptive":
        est = library.estimate_invalid_tcp_ocp(data, est_config)
        if ci_config is not None:
            sub_seed = int(
                np.random.SeedSequence(
                    (int(config.seed), simulation.STREAM_REP_SEED, int(rep_index))
                ).generate_state(1)[0]
            )
            lo, hi = library.subsample_ci(
                data,
                est_config,
                n_subsamples=ci_config.n_subsamples,
                b=ci_config.b,
                seed=sub_seed,
                recenter=ci_config.recenter,
                center=est.beta_hat,
            )
            return est.beta_hat, lo, hi
        return est.beta_hat, math.nan, math.nan
    elif name == "oracle":
        est = library.oracle_p2sls(
            data,
            tuple(range(config.s_z)),
            alpha_level=est_config.alpha_level,
            ocp_index=simulation._oracle_ocp_index(config),
        )
    elif name == "naive":
        est = library.naive_p2sls(
            data,
            ocp_index=0 if config.p_w == 1 else None,
            alpha_level=est_config.alpha_level,
        )
    elif name == "ols":
        est = library.ols_baseline(data, alpha_level=est_config.alpha_level)
    return est.beta_hat, est.ci_lower, est.ci_upper


def run_monte_carlo_serial(
    config: simulation.SimConfig,
    methods: Sequence[str] = ("adaptive", "oracle", "naive", "ols"),
    ci_config: simulation.SubsampleCiConfig | None = None,
    est_config: EstimationConfig | None = None,
) -> simulation.MonteCarloReport:
    """Evaluate the named methods over ``config.reps`` fresh replications,
    one replication and one method at a time."""
    est_config = est_config or EstimationConfig()
    reps = config.reps
    beta = {m: np.full(reps, math.nan) for m in methods}
    lo = {m: np.full(reps, math.nan) for m in methods}
    hi = {m: np.full(reps, math.nan) for m in methods}
    failed = {m: 0 for m in methods}
    first = {m: None for m in methods}  # each method's first failure
    for r in range(reps):
        data = simulation.generate_invalid_tcp_ocp_data(config, r)
        for m in methods:
            try:
                beta[m][r], lo[m][r], hi[m][r] = _run_method(
                    m, data, config, est_config, ci_config, r
                )
            except ProxselError as exc:
                failed[m] += 1
                first[m] = first[m] or exc

    rows = {}
    for m in methods:
        if failed[m] > 0.1 * reps:
            raise AggregateFailure(
                f"method {m!r} failed on {failed[m]} of {reps} replications "
                f"(more than 10%); first failure: {type(first[m]).__name__}: {first[m]}",
                n_failed=failed[m],
                n_total=reps,
            )
        rows[m] = simulation._summarize(
            beta[m], lo[m], hi[m], config.beta_true, failed[m]
        )
    return simulation.MonteCarloReport(
        methods=rows,
        reps=reps,
        n_failed=sum(failed.values()),
        config=config,
    )


# ---------------------------------------------------------------------------
# Rank certificate and lasso polish before the bound and the support blocks
# ---------------------------------------------------------------------------


def rank_errors(r: np.ndarray) -> list:
    """The rank certificate of ``proxsel.linalg.solve_upper`` read off every
    factor's singular values, one stacked SVD."""
    sv = np.linalg.svd(r, compute_uv=False)
    return [
        RankDeficient(
            "design is rank deficient: smallest/largest singular value "
            f"= {s[-1]:.3e}/{s[0]:.3e} at cutoff {RANK_TOL:g}"
        )
        if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0] else None
        for s in sv
    ]


def support_solve(gram, xty, thresh, on, sign):
    """``proxsel.lasso._support_solve`` solving one p x p system per
    problem, padded with the identity off the support."""
    p = on.shape[1]
    h = np.where(on[:, :, None] & on[:, None, :], gram, 0.0)
    h[:, np.arange(p), np.arange(p)] += ~on  # identity off the support
    rhs = np.where(on, xty - thresh * sign, 0.0)
    try:
        sol = np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sol = np.full(on.shape, math.nan)
        for i in range(len(on)):
            try:
                sol[i] = np.linalg.solve(h[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    grad = xty - matvec(gram, sol)
    ok = np.where(on, np.sign(sol) == sign, np.abs(grad) <= thresh)
    return sol, np.all(ok, axis=1)


def cd_kkt(grad: np.ndarray, a: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Row-wise stationarity excess given ``grad = X'(X a - y)``."""
    on = a != 0
    viol = np.where(on, np.abs(grad + thresh * np.sign(a)), np.abs(grad) - thresh)
    return np.max(np.maximum(viol, 0.0), axis=-1, initial=0.0)


def cd_lasso_gram(gram, xty, yy, thresh, rows, start=None, max_sweeps=DEFAULT_MAX_SWEEPS):
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
    keep_first(errors, cd_certify(gram[ls], xty[ls], None, thresh[ls], alpha[ls]), at=ls)
    if cd.size:
        alpha[cd], cd_errors = cd_coordinate_descent(
            gram[cd], xty[cd], yy[cd], thresh[cd], alpha[cd], max_sweeps
        )
        keep_first(errors, cd_errors, at=cd)
    return alpha, errors


def cd_certify(gram, xty, yy, thresh, a, sweeps=None) -> list:
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
        for v in cd_kkt(grad, a, thresh)
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


def cd_support_solve(gram, xty, thresh, on, sign):
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


def cd_polish(gram, xty, thresh, a):
    """Candidate solutions from the supports and signs of the iterates ``a``.

    A coordinate still on its way to zero keeps a support one too large
    (for thousands of sweeps where the Gram is singular along it), so a
    failed support is retried without the coordinate of smallest
    ``|a_j| * ||X_j||``.
    """
    on, sign = a != 0, np.sign(a)
    sol, ok = cd_support_solve(gram, xty, thresh, on, sign)
    retry = np.flatnonzero(~ok & on.any(axis=1))
    if retry.size:
        size = np.abs(a[retry]) * np.sqrt(np.diagonal(gram[retry], axis1=1, axis2=2))
        fewer = on[retry]
        smallest = np.argmin(np.where(fewer, size, np.inf), axis=1)
        fewer[np.arange(retry.size), smallest] = False
        sol[retry], ok[retry] = cd_support_solve(
            gram[retry], xty[retry], thresh[retry], fewer, sign[retry]
        )
    return sol, ok


def cd_sweep(gram, xty, thresh, diag, a) -> np.ndarray:
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


def cd_coordinate_descent(gram, xty, yy, thresh, a, max_sweeps):
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
            move = cd_sweep(gram, xty, thresh, diag, a)
            sol, ok = cd_polish(gram, xty, thresh, a)
        else:  # sweep 0: the polish of a zero start
            zero, move = ~a.any(axis=1), np.full(len(a), np.inf)
            on = (np.abs(xty) > thresh) & zero[:, None]
            sol, ok = cd_support_solve(gram, xty, thresh, on, np.sign(xty))
            ok &= zero
        certified = cd_certify(gram[ok], xty[ok], yy[ok], thresh[ok], sol[ok], sweep)
        ok[ok] = [e is None for e in certified]
        stalled = ~ok & (move <= 1e-13 * np.maximum(1.0, np.max(np.abs(a), axis=1)))
        out[idx[ok]], out[idx[stalled]] = sol[ok], a[stalled]
        at_rest = cd_certify(gram[stalled], xty[stalled], None, thresh[stalled], a[stalled])
        keep_first(errors, at_rest, at=idx[stalled])
        keep = ~(ok | stalled)
        idx, a, gram, xty, yy, thresh, diag = (
            z[keep] for z in (idx, a, gram, xty, yy, thresh, diag)
        )
        if not idx.size:
            return out, errors
    out[idx] = a
    return out, keep_first(errors, cd_certify(gram, xty, yy, thresh, a, max_sweeps), at=idx)


def cd_grid(gram, xty, yy, thresh):
    """``proxsel.lasso.cv_penalty``'s warm-started grid loop before the
    path: the penalties ``thresh[:, k]`` in turn by
    :func:`cd_coordinate_descent`, each from the solutions at the last; a
    problem stops at its first failure. Returns the solutions, shaped as
    ``thresh``, and each problem's first error, or None."""
    n, m, p = thresh.shape
    a, errors = np.zeros((n, p)), [None] * n
    out = np.zeros(thresh.shape)
    for k in range(m):
        on = alive(errors)
        if not on.size:
            break
        sol, errs = cd_coordinate_descent(
            gram[on], xty[on], yy[on], thresh[on, k], a[on], DEFAULT_MAX_SWEEPS
        )
        a[on] = out[on, k] = sol
        keep_first(errors, errs, at=on)
    return out, errors
