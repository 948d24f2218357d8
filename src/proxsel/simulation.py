"""Synthetic data generators and Monte Carlo studies for the estimators.

The generator produces a linear-Gaussian system with one hidden confounder
``U``: every proxy column loads on ``U`` with unit coefficient, the treatment
picks up ``U`` and all TCPs, and the outcome picks up the treatment, ``U``,
and the *invalid* TCPs. Invalid OCP columns additionally load on the
treatment. All noise scales are standard deviations.

``run_monte_carlo`` evaluates named estimation methods over independent
replications and reports coverage / interval length / bias / SE / RMSE per
method. It fits blocks of up to 20 replications at a time, each block with
one stacked factorization and each closed-form method as one stack of
per-replication problems. ``run_study`` packages the benchmark grids
(sample-size sweeps, invalid-count sweeps, and the two-sided invalid grid)
at a quick "desk" scale or the heavier "full" scale.

Determinism: replication ``r`` draws from a dedicated RNG stream keyed by
``(seed, STREAM_DATASET, r)``, and subsampling inside replication ``r`` is
keyed by a seed derived from ``(seed, STREAM_REP_SEED, r)``. Every problem
of a stack is computed on its own, so reports are bit-reproducible from the
config alone and do not depend on the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import (
    _SUBSAMPLE_BLOCK,
    Dataset,
    EstimationConfig,
    _estimate,
    _factor_datasets,
    _first_stage_error,
    _is_cv,
    _keep,
    _pipeline,
    _refit,
    estimate_invalid_tcp_ocp,
    subsample_ci,
)

# Unused here, but the benchmark's traced runs wrap these names in this
# module (bench/workloads.py), so they stay bound.
from .estimators import estimate_invalid_tcp, naive_p2sls  # noqa: F401
from .estimators import ols_baseline, oracle_p2sls  # noqa: F401
from .exceptions import AggregateFailure, InvalidBound, ProxselError

__all__ = [
    "SimConfig",
    "SubsampleCiConfig",
    "MethodMetrics",
    "MonteCarloReport",
    "generate_invalid_tcp_data",
    "generate_invalid_tcp_ocp_data",
    "run_monte_carlo",
    "run_study",
    "STUDY_NAMES",
    "METHOD_NAMES",
]

#: RNG stream tag for dataset replications.
STREAM_DATASET = 1

#: RNG stream tag for deriving per-replication subsampling seeds.
STREAM_REP_SEED = 3

METHOD_NAMES = ("adaptive", "median_adaptive", "oracle", "naive", "ols")

#: Each study's cells (a label and the ``SimConfig`` fields that differ from
#: the defaults), its methods, and whether the median gets a subsampling
#: interval; see :func:`run_study`.
_STUDIES = {
    "single_ocp_n": ([(f"n={n}", {"n": n}) for n in (1500, 2500, 5000)],
                     ("adaptive", "oracle", "naive", "ols"), False),
    "single_ocp_sz": ([(f"s_z={s_z}", {"s_z": s_z}) for s_z in range(1, 9)],
                      ("adaptive", "naive"), False),
    "multi_ocp_n": ([(f"n={n}", {"n": n, "p_w": 10, "s_w": 3}) for n in (1500, 2500, 5000)],
                    ("median_adaptive", "oracle", "naive", "ols"), True),
    "multi_ocp_grid": ([(f"s_z={s_z},s_w={s_w}", {"s_z": s_z, "p_w": 10, "s_w": s_w})
                        for s_z in (3, 4, 5, 6) for s_w in (3, 4, 5, 6)],
                       ("median_adaptive",), False),
}

STUDY_NAMES = tuple(_STUDIES)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the synthetic data-generating process.

    ``*_sd`` fields are standard deviations. ``y_noise_sd`` may be zero: the
    outcome equation is then exact given its regressors and the confounder,
    which matches the precision the reference benchmarks exhibit; all other
    scales must be positive. The first ``s_z`` TCPs have direct outcome
    effect ``alpha_invalid`` and treatment strength ``xi_z_invalid`` (the
    valid rest have strength ``xi_z_valid``); the first ``s_w`` OCPs load on
    the treatment with ``xi_w_invalid``.
    """

    n: int = 2500
    p_z: int = 10
    p_w: int = 1
    s_z: int = 3
    s_w: int = 0
    beta_true: float = 0.5
    alpha_invalid: float = 0.8
    xi_z_invalid: float = 0.6
    xi_z_valid: float = 0.2
    xi_w_invalid: float = 0.8
    intercept: float = 0.25
    u_sd: float = 0.5
    z_noise_sd: float = 0.5
    w_noise_sd: float = 0.5
    d_noise_sd: float = 1.0
    y_noise_sd: float = 0.0
    confounder_loading_d: float = 0.2
    confounder_loading_y: float = 0.2
    reps: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidBound(f"n must be >= 1, got {self.n}")
        if self.p_z < 1 or self.p_w < 1:
            raise InvalidBound(
                f"need p_z >= 1 and p_w >= 1, got p_z={self.p_z}, p_w={self.p_w}"
            )
        if not 0 <= self.s_z <= self.p_z:
            raise InvalidBound(
                f"need 0 <= s_z <= p_z, got s_z={self.s_z}, p_z={self.p_z}"
            )
        if not 0 <= self.s_w <= self.p_w:
            raise InvalidBound(
                f"need 0 <= s_w <= p_w, got s_w={self.s_w}, p_w={self.p_w}"
            )
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidBound(f"{name} must be finite, got {value}")
        for name in ("u_sd", "z_noise_sd", "w_noise_sd", "d_noise_sd"):
            if getattr(self, name) <= 0:
                raise InvalidBound(f"{name} must be > 0")
        if self.y_noise_sd < 0:
            raise InvalidBound("y_noise_sd must be >= 0")
        if self.reps < 1:
            raise InvalidBound(f"reps must be >= 1, got {self.reps}")


def generate_invalid_tcp_ocp_data(config: SimConfig, rep_index: int) -> Dataset:
    """Draw one replication with ``p_w`` OCP columns (first ``s_w`` invalid).

    Deterministic given ``(config.seed, rep_index)``; the draw order is
    fixed (confounder, TCP noise, treatment noise, OCP noise, outcome
    noise), so identical inputs yield bit-identical datasets.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((int(config.seed), STREAM_DATASET, int(rep_index)))
    )
    n, p_z, p_w = config.n, config.p_z, config.p_w
    c = config.intercept

    u = rng.normal(0.0, config.u_sd, n)
    z = c + u[:, None] + rng.normal(0.0, config.z_noise_sd, (n, p_z))

    xi_z = np.full(p_z, config.xi_z_valid)
    xi_z[: config.s_z] = config.xi_z_invalid
    d = (
        c
        + config.confounder_loading_d * u
        + z @ xi_z
        + rng.normal(0.0, config.d_noise_sd, n)
    )

    xi_w = np.zeros(p_w)
    xi_w[: config.s_w] = config.xi_w_invalid
    w = (
        c
        + u[:, None]
        + d[:, None] * xi_w[None, :]
        + rng.normal(0.0, config.w_noise_sd, (n, p_w))
    )

    alpha = np.zeros(p_z)
    alpha[: config.s_z] = config.alpha_invalid
    y = (
        c
        + config.beta_true * d
        + config.confounder_loading_y * u
        + z @ alpha
        + rng.normal(0.0, config.y_noise_sd, n)
    )
    return Dataset(Y=y, D=d, Z=z, W=w, X=None)


def generate_invalid_tcp_data(config: SimConfig, rep_index: int) -> Dataset:
    """Single-valid-OCP replication; requires ``p_w = 1`` and ``s_w = 0``."""
    if config.p_w != 1 or config.s_w != 0:
        raise InvalidBound(
            f"the single-OCP generator needs p_w = 1 and s_w = 0, "
            f"got p_w={config.p_w}, s_w={config.s_w}"
        )
    return generate_invalid_tcp_ocp_data(config, rep_index)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsampleCiConfig:
    """Subsampling settings for methods without a closed-form interval."""

    n_subsamples: int = 200
    b: int | None = None
    recenter: bool = False


@dataclass(frozen=True)
class MethodMetrics:
    """Replication summary for one method.

    ``se`` is the standard deviation of the point estimates across
    replications (NaN when fewer than two succeed); ``rmse`` is the root
    mean squared error against the true effect, so
    ``rmse^2 = bias^2 + se^2 * (n_used - 1) / n_used`` exactly. ``coverage``
    and ``ci_length`` are NaN when the method ran without an interval.
    """

    coverage: float
    ci_length: float
    bias: float
    se: float
    rmse: float
    n_used: int
    n_failed: int


@dataclass(frozen=True)
class MonteCarloReport:
    """Per-method metrics plus the exact configuration that produced them."""

    methods: dict[str, MethodMetrics]
    reps: int
    n_failed: int
    config: SimConfig


def _oracle_ocp_index(config: SimConfig) -> int:
    # The oracle may know which OCP columns are valid; hand it the first one.
    return config.s_w if config.s_w < config.p_w else 0


def _closed_form(core, name: str, config: SimConfig, est_config: EstimationConfig):
    """The refit of closed-form method ``name`` on every dataset of
    ``core``, one problem each: the fit of ``estimate_invalid_tcp(data, 0)``,
    ``oracle_p2sls`` with the true invalid set, ``naive_p2sls`` or
    ``ols_baseline``, with each problem's first error."""
    ds = np.arange(len(core.fail))
    if name == "adaptive":
        return _pipeline(core, ds, np.zeros_like(ds), est_config, True)
    sel = np.zeros((ds.size, config.p_z), dtype=bool)
    if name == "oracle":
        sel[:, : config.s_z] = True
        ocps = [_oracle_ocp_index(config)]
    else:  # naive enters every fitted OCP column; ols none
        ocps = range(config.p_w) if name == "naive" else []
    fit = _refit(core, ds, sel, np.tile(np.array(ocps, dtype=int), (ds.size, 1)))
    errors = _first_stage_error(core, ds)
    _keep(errors, fit.errors)
    return fit._replace(errors=errors)


def _median_adaptive(
    data: Dataset,
    config: SimConfig,
    est_config: EstimationConfig,
    ci_config: SubsampleCiConfig | None,
    rep_index: int,
) -> tuple[float, float, float]:
    """The median aggregate on one replication, with its subsampling
    interval when ``ci_config`` is given; returns (estimate, lower, upper)."""
    est = estimate_invalid_tcp_ocp(data, est_config)
    if ci_config is None:
        return est.beta_hat, math.nan, math.nan
    sub_seed = int(
        np.random.SeedSequence(
            (int(config.seed), STREAM_REP_SEED, int(rep_index))
        ).generate_state(1)[0]
    )
    lo, hi = subsample_ci(
        data,
        est_config,
        n_subsamples=ci_config.n_subsamples,
        b=ci_config.b,
        seed=sub_seed,
        recenter=ci_config.recenter,
        center=est.beta_hat,
    )
    return est.beta_hat, lo, hi


def _fit_block(
    block: range,
    methods: Sequence[str],
    config: SimConfig,
    est_config: EstimationConfig,
    ci_config: SubsampleCiConfig | None,
):
    """Yield ``(method, r, (estimate, lower, upper))``, or ``(method, r,
    error)`` for a failed fit, for every method and replication ``r`` of
    ``block``; the block's datasets and factors go with the generator."""
    datasets = [generate_invalid_tcp_ocp_data(config, r) for r in block]
    # Keep Q for the adaptive stack's cv folds; median_adaptive reuses it.
    core = _factor_datasets(datasets, _is_cv(est_config) and "adaptive" in methods)
    for m in methods:
        if m == "median_adaptive":
            for r, data in zip(block, datasets):
                try:
                    out = _median_adaptive(data, config, est_config, ci_config, r)
                except ProxselError as exc:
                    out = exc
                yield m, r, out
            continue
        fit = _closed_form(core, m, config, est_config)
        for i, r in enumerate(block):
            est = _estimate(fit, i, config.n, est_config.alpha_level, m)
            yield m, r, (est if isinstance(est, ProxselError)
                         else (est.beta_hat, est.ci_lower, est.ci_upper))


def run_monte_carlo(
    config: SimConfig,
    methods: Sequence[str] = ("adaptive", "oracle", "naive", "ols"),
    ci_config: SubsampleCiConfig | None = None,
    est_config: EstimationConfig | None = None,
    n_jobs: int = 1,
) -> MonteCarloReport:
    """Evaluate the named methods over ``config.reps`` fresh replications.

    Failed replications (rank deficiency, selection failures, subsampling
    failures under extreme configurations) are dropped from a method's
    metrics and counted; the run aborts with
    :class:`~proxsel.exceptions.AggregateFailure` when any method loses more
    than 10% of its replications. ``ci_config`` controls the subsampling
    interval of the ``median_adaptive`` method; without it that method
    reports NaN coverage and length (point metrics are unaffected).
    Replications are drawn, each on its own counter-keyed RNG stream, and
    fitted in blocks of up to 20: one stacked factorization per block, and
    one stacked fit per closed-form method (``adaptive``, ``oracle``,
    ``naive``, ``ols``); ``median_adaptive`` and its interval run per
    replication, on the replication's slice of its block's factor. The
    report does not depend on the blocking. ``n_jobs`` is accepted for
    compatibility, must be at least 1 and has no effect.
    """
    est_config = est_config or EstimationConfig()
    for name in methods:
        if name not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {name!r}; available: {', '.join(METHOD_NAMES)}"
            )
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    reps = config.reps
    beta = {m: np.full(reps, math.nan) for m in methods}
    lo = {m: np.full(reps, math.nan) for m in methods}
    hi = {m: np.full(reps, math.nan) for m in methods}
    failed = {m: 0 for m in methods}
    for first in range(0, reps, _SUBSAMPLE_BLOCK):
        block = range(first, min(first + _SUBSAMPLE_BLOCK, reps))
        for m, r, out in _fit_block(block, methods, config, est_config, ci_config):
            if isinstance(out, ProxselError):
                failed[m] += 1
            else:
                beta[m][r], lo[m][r], hi[m][r] = out

    rows: dict[str, MethodMetrics] = {}
    for m in methods:
        if failed[m] > 0.1 * reps:
            raise AggregateFailure(
                f"method {m!r} failed on {failed[m]} of {reps} replications "
                f"(more than 10%)",
                n_failed=failed[m],
                n_total=reps,
            )
        rows[m] = _summarize(
            beta[m], lo[m], hi[m], config.beta_true, failed[m]
        )
    return MonteCarloReport(
        methods=rows,
        reps=reps,
        n_failed=sum(failed.values()),
        config=config,
    )


def _summarize(
    beta: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    beta_true: float,
    n_failed: int,
) -> MethodMetrics:
    ok = np.isfinite(beta)
    used = beta[ok]
    n_used = int(used.size)
    if n_used == 0:
        return MethodMetrics(
            math.nan, math.nan, math.nan, math.nan, math.nan, 0, n_failed
        )
    bias = float(np.mean(used) - beta_true)
    se = float(np.std(used, ddof=1)) if n_used >= 2 else math.nan
    rmse = float(math.sqrt(np.mean((used - beta_true) ** 2)))
    has_ci = ok & np.isfinite(lo) & np.isfinite(hi)
    if np.any(has_ci):
        covered = (lo[has_ci] <= beta_true) & (beta_true <= hi[has_ci])
        coverage = float(np.mean(covered))
        ci_length = float(np.mean(hi[has_ci] - lo[has_ci]))
    else:
        coverage = math.nan
        ci_length = math.nan
    return MethodMetrics(
        coverage=coverage,
        ci_length=ci_length,
        bias=bias,
        se=se,
        rmse=rmse,
        n_used=n_used,
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# Benchmark studies
# ---------------------------------------------------------------------------


def run_study(
    study: str,
    scale: str = "desk",
    seed: int = 0,
    est_config: EstimationConfig | None = None,
) -> dict[str, MonteCarloReport]:
    """Run one benchmark grid and return a report per grid cell.

    Studies: ``single_ocp_n`` sweeps the sample size with one valid OCP;
    ``single_ocp_sz`` sweeps the invalid-TCP count at fixed n (selection
    breaks down once a majority of TCPs is invalid); ``multi_ocp_n`` sweeps
    the sample size with 10 OCP columns, 3 invalid, scoring the median
    aggregator with its subsampling interval; ``multi_ocp_grid`` crosses
    invalid TCP and OCP counts to map the breakdown region (point metrics
    only). ``desk`` scale uses 200 replications (and 200 subsamples);
    ``full`` uses 500 replications (and 1000 subsamples).
    """
    if study not in STUDY_NAMES:
        raise ValueError(
            f"unknown study {study!r}; available: {', '.join(STUDY_NAMES)}"
        )
    if scale not in ("desk", "full"):
        raise ValueError(f"scale must be 'desk' or 'full', got {scale!r}")
    reps = 200 if scale == "desk" else 500
    cells, methods, with_ci = _STUDIES[study]
    ci_config = SubsampleCiConfig(n_subsamples=200 if scale == "desk" else 1000)
    return {
        label: run_monte_carlo(SimConfig(**fields, reps=reps, seed=seed), methods,
                               ci_config if with_ci else None, est_config)
        for label, fields in cells
    }
