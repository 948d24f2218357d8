"""The R-factor core against the n-row reference pipeline in ``oracle.py``.

Every entry point must agree with its n-row reference to 1e-10 relative on
estimates, variances and interval bounds, select the same invalid TCPs, and
fail with the same exception type where the reference fails.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import oracle
from proxsel import estimators as est
from proxsel.estimators import Dataset, EstimationConfig, ProxyEstimate
from proxsel.exceptions import AssumptionViolation, ProxselError
from proxsel.simulation import SimConfig, generate_invalid_tcp_ocp_data

RTOL = 1e-10


def _rel(new, old) -> float:
    """Largest difference relative to the reference's largest magnitude."""
    new, old = np.asarray(new, float), np.asarray(old, float)
    if np.array_equal(np.isnan(new), np.isnan(old)) and np.all(np.isnan(old)):
        return 0.0
    scale = np.max(np.abs(old[np.isfinite(old)]), initial=0.0)
    diff = np.max(np.abs(new - old), initial=0.0)
    return 0.0 if diff == 0.0 else diff / scale


def assert_same_outcome(new, old):
    """Two fits agree, or the same error type (and indices) was raised."""
    if isinstance(old, ProxselError):
        assert type(new) is type(old), (new, old)
        if isinstance(old, AssumptionViolation):
            assert new.indices == old.indices
        return
    assert isinstance(new, ProxyEstimate), new
    assert new.selected_invalid_tcps == old.selected_invalid_tcps
    assert new.method == old.method
    for field in ("beta_hat", "gamma_hat", "variance", "ci_lower", "ci_upper"):
        assert _rel(getattr(new, field), getattr(old, field)) <= RTOL, field
    assert _rel(new.alpha_hat, old.alpha_hat) <= RTOL
    if old.per_ocp_fits is not None:
        for a, b in zip(new.per_ocp_fits, old.per_ocp_fits, strict=True):
            assert_same_outcome(a, b)


def outcome(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args, **kwargs)
        except ProxselError as exc:
            return exc


def median_design(seed=1, n=2500):
    return generate_invalid_tcp_ocp_data(
        SimConfig(n=n, p_z=10, s_z=3, p_w=10, s_w=3, seed=seed), 0
    )


def with_columns(data, **changes):
    arrays = dict(Y=data.Y, D=data.D, Z=data.Z, W=data.W, X=data.X)
    arrays.update(changes)
    return Dataset(**arrays)


def _covariates():
    data = median_design(seed=2, n=600)
    x = np.random.default_rng(5).normal(size=(data.n, 2))
    return with_columns(data, X=x, Y=data.Y + x @ [0.3, -0.2], D=data.D + 0.5 * x[:, 0])


def _ocp_is_treatment():
    data = median_design()
    w = data.W.copy()
    w[:, 5] = data.D
    return with_columns(data, W=w)


def _ocp_misses_a_tcp():
    data = median_design(seed=3, n=800)
    w = data.W.copy()
    w[:, 7] = data.Z[:, 1:].sum(axis=1) + data.D  # no weight on TCP 0
    return with_columns(data, W=w)


DESIGNS = {
    "median-ci": median_design,
    "mc-single": lambda: generate_invalid_tcp_ocp_data(
        SimConfig(n=2500, p_z=10, s_z=3, p_w=1, seed=1_000_001), 0
    ),
    "n200": lambda: median_design(seed=4, n=200),
    "p_x=2": _covariates,
    "w6=D": _ocp_is_treatment,
    "zero-tcp-coefficient": _ocp_misses_a_tcp,
}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def design(request):
    return DESIGNS[request.param]()


def test_single_ocp_fits_match(design):
    for j in range(design.p_w):
        assert_same_outcome(
            outcome(est.estimate_invalid_tcp, design, j),
            outcome(oracle.estimate_invalid_tcp, design, j),
        )


def test_median_over_ocps_matches(design):
    assert_same_outcome(
        outcome(est.estimate_invalid_tcp_ocp, design),
        outcome(oracle.estimate_invalid_tcp_ocp, design),
    )


def test_refits_match(design):
    for fn, args in (
        ("oracle_p2sls", ((0, 1, 2),)),
        ("oracle_p2sls", ((0, 1, 2), 0.1, design.p_w - 1)),
        ("naive_p2sls", ()),
        ("naive_p2sls", (None,)),
        ("ols_baseline", ()),
        ("post_adaptive_2sls", (0, (4,))),
    ):
        assert_same_outcome(
            outcome(getattr(est, fn), design, *args),
            outcome(getattr(oracle, fn), design, *args),
        )


def test_fixed_penalty_stages_match(design):
    for lam in (0.0, 5.0, 60.0):
        new = outcome(est.lasso_proximal, design, 0, lam)
        old = outcome(oracle.lasso_proximal, design, 0, lam)
        if isinstance(old, ProxselError):
            assert type(new) is type(old)
            continue
        assert _rel(new[0], old[0]) <= RTOL and _rel(new[1], old[1]) <= RTOL
        new = outcome(est.adaptive_lasso_proximal, design, 0, lam)
        old = outcome(oracle.adaptive_lasso_proximal, design, 0, lam)
        if isinstance(old, ProxselError):
            assert type(new) is type(old)
            continue
        assert new[1] == old[1] and _rel(new[0], old[0]) <= RTOL


@pytest.mark.parametrize("recenter", [False, True])
@pytest.mark.parametrize("name", sorted(set(DESIGNS) - {"mc-single"}))
def test_subsample_intervals_match(name, recenter):
    data = DESIGNS[name]()
    new = outcome(est.subsample_ci, data, n_subsamples=30, seed=2, recenter=recenter)
    old = outcome(oracle.subsample_ci, data, n_subsamples=30, seed=2, recenter=recenter)
    if isinstance(old, ProxselError):
        assert type(new) is type(old)
    else:
        assert _rel(new, old) <= RTOL


def test_cv_mode_matches():
    data = generate_invalid_tcp_ocp_data(
        SimConfig(n=300, p_z=6, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0, seed=4), 0
    )
    config = EstimationConfig(lambda_mode="cv")
    for j in range(data.p_w):
        assert outcome(est.select_lambda, data, j) == pytest.approx(
            outcome(oracle.select_lambda, data, j), rel=RTOL
        )
    assert_same_outcome(
        outcome(est.estimate_invalid_tcp_ocp, data, config),
        outcome(oracle.estimate_invalid_tcp_ocp, data, config),
    )


def subsample_problems(data, n_subsamples, seed, config=None):
    """Every (subsample, OCP) problem of ``subsample_ci``'s blocks, with the
    reference's fit of the same rows; yields ``(new, old)`` outcomes."""
    config = config or EstimationConfig()
    b = est.default_subsample_size(data.n)
    for block, fit in est._subsample_fits(data, config, n_subsamples, b, seed):
        for s, i in enumerate(block):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, est.STREAM_SUBSAMPLE, i))
            )
            sub = data.take_rows(np.sort(rng.choice(data.n, size=b, replace=False)))
            for j in range(data.p_w):
                new = est._estimate(fit, s * data.p_w + j, b, config.alpha_level,
                                    "post_adaptive_2sls")
                yield new, outcome(oracle.estimate_invalid_tcp, sub, j, config)


def test_every_subsample_problem_of_the_benchmark_design_matches():
    # 200 subsamples x 10 OCPs: the subsampling work of one median-ci run.
    count = 0
    for new, old in subsample_problems(median_design(), 200, seed=1):
        assert_same_outcome(new, old)
        count += 1
    assert count == 2000
