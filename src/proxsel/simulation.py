"""Synthetic data generators and Monte Carlo studies for the estimators.

The generator produces a linear-Gaussian system with one hidden confounder
``U``: every proxy column loads on ``U`` with unit coefficient, the treatment
picks up ``U`` and all TCPs, and the outcome picks up the treatment, ``U``,
and the *invalid* TCPs. Invalid OCP columns additionally load on the
treatment. All noise scales are standard deviations.

``run_monte_carlo`` evaluates named estimation methods over independent
replications and reports coverage / interval length / bias / SE / RMSE per
method. It fits blocks of up to 20 replications at a time, each block with
one stacked factorization and each method as one stack of problems on it
(per replication, or per replication and OCP for the median); only the
median's subsampling interval runs per replication. ``run_study`` packages
the benchmark grids (sample-size sweeps, invalid-count sweeps, and the
two-sided invalid grid) at a quick "desk" scale or the heavier "full" scale.

Determinism: replication ``r`` draws from a dedicated RNG stream keyed by
``(seed, STREAM_DATASET, r)``, and subsampling inside replication ``r`` is
keyed by a seed derived from ``(seed, STREAM_REP_SEED, r)``. Every problem
of a stack is computed on its own, so reports are bit-reproducible from the
config alone and do not depend on the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .estimators import (
    _SUBSAMPLE_BLOCK,
    Dataset,
    EstimationConfig,
    _factor_datasets,
    _given,
    _medians,
    _pipeline,
    _subsample_size,
    _zscore,
    subsample_ci,
)

# Unused here, but the benchmark's traced runs wrap these names in this
# module (bench/workloads.py), so they stay bound.
from .estimators import estimate_invalid_tcp, estimate_invalid_tcp_ocp  # noqa: F401
from .estimators import naive_p2sls, ols_baseline, oracle_p2sls  # noqa: F401
from .exceptions import AggregateFailure, InvalidBound, ProxselError
from .linalg import as_flag, as_index, as_real, keep_first

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
    the treatment with ``xi_w_invalid``. Int fields are integers, float fields
    finite reals, neither bools, with ``p_z, p_w, reps >= 1``, ``s_z`` in
    ``[0, p_z]``, ``s_w`` in ``[0, p_w]`` and ``seed >= 0`` (:class:`InvalidBound`).
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
        for f in fields(self):  # in order: p_z and p_w are read before s_z and s_w
            value = getattr(self, f.name)
            if f.type == "int":
                lo, hi = {"n": (None, None), "s_z": (0, self.p_z), "s_w": (0, self.p_w),
                          "seed": (0, None)}.get(f.name, (1, None))
                object.__setattr__(self, f.name, as_index(value, f.name, lo, hi))
            elif f.type == "float" and not math.isfinite(as_real(value, f.name)):
                raise InvalidBound(f"{f.name} must be finite, got {value}")
        if self.n <= self.p_z + self.p_w + 1:  # below it, no draw is a Dataset
            raise InvalidBound(
                f"need n > p_z + p_w + 1 = {self.p_z + self.p_w + 1}, got n = {self.n}")
        for name in ("u_sd", "z_noise_sd", "w_noise_sd", "d_noise_sd"):
            if getattr(self, name) <= 0:
                raise InvalidBound(f"{name} must be > 0")
        if self.y_noise_sd < 0:
            raise InvalidBound("y_noise_sd must be >= 0")


def generate_invalid_tcp_ocp_data(config: SimConfig, rep_index: int) -> Dataset:
    """Draw one replication with ``p_w`` OCP columns (first ``s_w`` invalid).

    Deterministic given ``(config.seed, rep_index)``; the draw order is
    fixed (confounder, TCP noise, treatment noise, OCP noise, outcome
    noise), so identical inputs yield bit-identical datasets. ``rep_index``
    must be an integer, at least 0 and not a bool (:class:`InvalidBound`).
    """
    rep_index = as_index(rep_index, "rep_index", 0)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, STREAM_DATASET, rep_index)))
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
    """Subsampling settings for methods without a closed-form interval;
    ``n_subsamples >= 1`` and ``b`` are integers, not bools; ``recenter`` a bool."""

    n_subsamples: int = 200
    b: int | None = None
    recenter: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_subsamples", as_index(self.n_subsamples, "n_subsamples", 1))
        if self.b is not None:
            object.__setattr__(self, "b", as_index(self.b, "b"))
        object.__setattr__(self, "recenter", as_flag(self.recenter, "recenter"))


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
    if name == "adaptive":
        ds = np.arange(len(core.r))
        return _pipeline(core, ds, np.zeros_like(ds), est_config, True)
    if name == "oracle":
        return _given(core, range(config.s_z), [_oracle_ocp_index(config)])
    # naive enters every fitted OCP column; ols none
    return _given(core, (), range(config.p_w) if name == "naive" else ())


def _fit_block(
    block: range,
    methods: Sequence[str],
    config: SimConfig,
    est_config: EstimationConfig,
    ci_config: SubsampleCiConfig | None,
):
    """Yield each method with its ``(estimate, lower, upper)`` arrays over
    the replications of ``block``, all NaN where a replication failed, and
    each replication's error or None. The block is factored once, and each
    method is one stack on that factor: a problem per replication, or per
    (replication, OCP) for the median, whose subsampling interval (for
    ``ci_config``) is then drawn per replication."""
    datasets = [generate_invalid_tcp_ocp_data(config, r) for r in block]
    core = _factor_datasets(datasets)
    for m in methods:
        if m != "median_adaptive":
            fit = _closed_form(core, m, config, est_config)
            half = _zscore(est_config.alpha_level) * np.sqrt(fit.variance / config.n)
            yield m, (fit.beta, fit.beta - half, fit.beta + half), fit.errors
            continue
        _, beta, errors = _medians(core, est_config, True)
        lo, hi = np.full((2, len(block)), math.nan)
        for i in np.flatnonzero(np.isfinite(beta)) if ci_config else ():
            seed = np.random.SeedSequence((config.seed, STREAM_REP_SEED, block[i]))
            try:
                lo[i], hi[i] = subsample_ci(
                    datasets[i], est_config, n_subsamples=ci_config.n_subsamples,
                    b=ci_config.b, seed=int(seed.generate_state(1)[0]),
                    recenter=ci_config.recenter, center=beta[i])
            except ProxselError as exc:
                beta[i] = math.nan
                keep_first(errors, [exc], at=[i])
        yield m, (beta, lo, hi), errors


def run_monte_carlo(
    config: SimConfig,
    methods: Sequence[str] = ("adaptive", "oracle", "naive", "ols"),
    ci_config: SubsampleCiConfig | None = None,
    est_config: EstimationConfig | None = None,
    n_jobs: int = 1,
) -> MonteCarloReport:
    """Evaluate the named methods, at least one and each named once (else a
    ``ValueError`` before any draw), over ``config.reps`` fresh replications.

    Failed replications (rank deficiency, selection failures, subsampling
    failures under extreme configurations) are dropped from a method's
    metrics and counted; the run aborts with
    :class:`~proxsel.exceptions.AggregateFailure` when any method loses more
    than 10% of its replications. ``ci_config`` controls the subsampling
    interval of the ``median_adaptive`` method (a size ``b`` outside ``(p_z
    + p_w + 1, n)`` is an :class:`~proxsel.exceptions.InvalidBound` before
    any draw); without it that method reports NaN coverage and length.
    Replications are drawn, each on its own counter-keyed RNG stream, and
    fitted in blocks of up to 20: one stacked factorization per block, and
    one stacked fit per method on it (``median_adaptive`` stacks every
    replication's OCPs); only the median's interval runs per replication.
    The report does not depend on the blocking. ``n_jobs`` is accepted for
    compatibility, must be at least 1 and has no effect.
    """
    est_config = est_config or EstimationConfig()
    if not methods:
        raise ValueError("no method given")
    for i, name in enumerate(methods):
        if name not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {name!r}; available: {', '.join(METHOD_NAMES)}"
            )
        if name in methods[:i]:
            raise ValueError(f"method {name!r} is listed twice")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if ci_config is not None and "median_adaptive" in methods:
        _subsample_size(ci_config.b, config.n, config.p_z + config.p_w + 1)
    reps = config.reps
    blocks: dict[str, list] = {m: [] for m in methods}
    causes: dict[str, list] = {m: [] for m in methods}  # each replication's error
    for first in range(0, reps, _SUBSAMPLE_BLOCK):
        block = range(first, min(first + _SUBSAMPLE_BLOCK, reps))
        for m, fit, errors in _fit_block(block, methods, config, est_config, ci_config):
            blocks[m].append(fit)
            causes[m] += errors

    rows: dict[str, MethodMetrics] = {}
    for m in methods:
        beta, lo, hi = np.concatenate(blocks[m], axis=1)
        failed = int(np.sum(np.isnan(beta)))
        if failed > 0.1 * reps:
            cause = causes[m][int(np.flatnonzero(np.isnan(beta))[0])]
            raise AggregateFailure(
                f"method {m!r} failed on {failed} of {reps} replications "
                f"(more than 10%); first failure: {type(cause).__name__}: {cause}",
                n_failed=failed,
                n_total=reps,
            )
        rows[m] = _summarize(beta, lo, hi, config.beta_true, failed)
    return MonteCarloReport(
        methods=rows,
        reps=reps,
        n_failed=sum(row.n_failed for row in rows.values()),
        config=config,
    )


def _summarize(beta: np.ndarray, lo: np.ndarray, hi: np.ndarray, beta_true: float,
               n_failed: int) -> MethodMetrics:
    """A method's metrics over its finite estimates, of which there is at
    least one: :func:`run_monte_carlo`'s 10% gate fails an all-NaN method."""
    ok = np.isfinite(beta)
    used = beta[ok]
    n_used = int(used.size)
    bias = float(np.mean(used) - beta_true)
    se = float(np.std(used, ddof=1)) if n_used >= 2 else math.nan
    rmse = float(math.sqrt(np.mean((used - beta_true) ** 2)))
    has_ci = ok & np.isfinite(lo) & np.isfinite(hi)
    coverage = ci_length = math.nan
    if np.any(has_ci):
        coverage = float(np.mean((lo[has_ci] <= beta_true) & (beta_true <= hi[has_ci])))
        ci_length = float(np.mean(hi[has_ci] - lo[has_ci]))
    return MethodMetrics(coverage, ci_length, bias, se, rmse, n_used, n_failed)


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
