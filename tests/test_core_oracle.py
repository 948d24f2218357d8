"""The R-factor core against the n-row reference pipeline in ``oracle.py``.

Every entry point must agree with its n-row reference to 1e-10 relative on
estimates, variances and interval bounds, select the same invalid TCPs, and
fail with the same exception type where the reference fails.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from proxsel import estimators as est
from proxsel.lasso import lasso_gram
from proxsel.estimators import Dataset, EstimationConfig, ProxyEstimate
from proxsel.exceptions import AssumptionViolation, ProxselError
from proxsel.simulation import SimConfig, generate_invalid_tcp_ocp_data
from test_lasso import _recorded_stacks, assert_same_lassos, oracle_lassos

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


def _wide_covariates():
    # 40 covariates that the TCPs and the outcome load on.
    data = median_design(seed=5, n=600)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(data.n, 40))
    return with_columns(data, X=x, Z=data.Z + x @ rng.normal(0.0, 0.3, (40, data.p_z)),
                        Y=data.Y + x @ rng.normal(0.0, 0.3, 40))


def _covariate_is(column):
    # One covariate equal to a column of the data: W_2, D or Z_4.
    def build():
        data = median_design(seed=6, n=600)
        return with_columns(data, X=column(data)[:, None])
    return build


def _binary_covariates():
    data = median_design(seed=8, n=600)
    x = (np.random.default_rng(9).random((data.n, 3)) < [0.2, 0.5, 0.9]).astype(float)
    return with_columns(data, X=x, Y=data.Y + x @ [0.4, -0.3, 0.2], D=data.D + x[:, 1])


DESIGNS = {
    "median-ci": median_design,
    "mc-single": lambda: generate_invalid_tcp_ocp_data(
        SimConfig(n=2500, p_z=10, s_z=3, p_w=1, seed=1_000_001), 0
    ),
    "n200": lambda: median_design(seed=4, n=200),
    "p_x=2": _covariates,
    "p_x=40": _wide_covariates,
    "x=W2": _covariate_is(lambda data: data.W[:, 2]),
    "x=D": _covariate_is(lambda data: data.D),
    "x=Z4": _covariate_is(lambda data: data.Z[:, 4]),
    "binary-x": _binary_covariates,
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
    # A failed first stage wins over every refit, the OLS baseline's too
    # (TestErrorPrecedence in test_estimators); the reference's baseline
    # skips it.
    first = outcome(oracle.first_stage, design)
    for fn, args in (
        ("oracle_p2sls", ((0, 1, 2),)),
        ("oracle_p2sls", ((0, 1, 2), 0.1, design.p_w - 1)),
        ("naive_p2sls", ()),
        ("naive_p2sls", (None,)),
        ("ols_baseline", ()),
        ("post_adaptive_2sls", (0, (4,))),
    ):
        old = first if isinstance(first, ProxselError) else outcome(
            getattr(oracle, fn), design, *args)
        assert_same_outcome(outcome(getattr(est, fn), design, *args), old)


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
    for block, fit, _, _ in est._subsample_fits(data, config, n_subsamples, b, seed):
        for s, i in enumerate(block):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, est.STREAM_SUBSAMPLE, i))
            )
            sub = oracle.take_rows(data, np.sort(rng.choice(data.n, size=b, replace=False)))
            for j in range(data.p_w):
                new = est._estimate(fit, s * data.p_w + j, b, config.alpha_level,
                                    "post_adaptive_2sls")
                yield new, outcome(oracle.estimate_invalid_tcp, sub, j, config)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_subsample_problem_of_the_benchmark_design_matches(seed, monkeypatch):
    # 200 subsamples x 10 OCPs: the subsampling work of one median-ci run at
    # this seed. Each block's weighted lassos also match the
    # coordinate-descent oracle: the same supports, values within 1e-12.
    data, pairs = median_design(seed), []
    stacks = _recorded_stacks(
        monkeypatch, lambda: pairs.extend(subsample_problems(data, 200, seed=seed))
    )
    for new, old in pairs:
        assert_same_outcome(new, old)
    assert len(pairs) == 2000
    assert [len(xty) for _, xty, _, _ in stacks] == [200] * 10
    for stack in stacks:
        assert_same_lassos(lasso_gram(*stack), oracle_lassos(*stack))


def test_every_cv_fold_problem_of_the_cv_median_matches(monkeypatch):
    # The cv median of the median-ci design: 10 OCPs x 10 folds, each with
    # 50 grid penalties read off one path, then each OCP's weighted lasso.
    config = EstimationConfig(lambda_mode="cv")
    stacks = _recorded_stacks(
        monkeypatch, lambda: outcome(est.estimate_invalid_tcp_ocp, median_design(), config)
    )
    assert [t.shape for _, _, t, _ in stacks] == [(100, 50, 10), (10, 10)]
    for stack in stacks:
        assert_same_lassos(lasso_gram(*stack), oracle_lassos(*stack))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p_x=st.integers(0, 2),
    near_x=st.sampled_from([1e-13, 1e-4, 1.0]),
    near_d=st.sampled_from([1e-9, 1e-3]),
    tiny=st.sampled_from([1e-9, 1.0]),
)
def test_covariance_form_is_the_n_row_reduced_design(seed, p_x, near_x, near_d, tiny):
    # OCP 0 is generic, OCP 1's fit lies within near_x of (X, 1), and OCP 2's
    # within near_d of the treatment; one TCP coefficient is scaled by tiny.
    rng = np.random.default_rng(seed)
    n, p_z = 80, 4
    z, x = rng.standard_normal((n, p_z)), rng.standard_normal((n, p_x))
    d = z @ rng.uniform(0.5, 1.0, p_z) + rng.standard_normal(n)
    delta = rng.uniform(0.5, 1.5, p_z) * rng.choice([-1.0, 1.0], p_z)
    delta[rng.integers(p_z)] *= tiny
    w = np.column_stack([
        z @ delta + 0.5 * d + rng.standard_normal(n),
        x @ rng.standard_normal(p_x) + 2.0 + near_x * (z @ delta),
        d + near_d * (z @ delta),
    ])
    data = Dataset(Y=d + z[:, 0] + rng.standard_normal(n), D=d, Z=z, W=w, X=x)
    core, ds = est._single(data), np.zeros(3, dtype=int)
    errors = est._ledger(core, ds)
    red = est._reduced_design(core, ds, np.arange(3), errors)
    zp = oracle.residual_project(np.column_stack([d, x, np.ones(n)]), z)
    s_norm = np.linalg.norm(zp.T @ zp, 2)
    at = {int(j): k for k, j in enumerate(red.on)}  # red holds the surviving problems
    for j in range(3):
        try:
            g, _ = oracle._reduced_design(data, oracle.first_stage(data, j).what)
        except ProxselError as exc:
            assert type(errors[j]) is type(exc), (j, errors[j], exc)
            continue
        assert errors[j] is None, (j, errors[j])
        np.testing.assert_allclose(red.gram[at[j]], g.T @ g, rtol=0, atol=1e-10 * s_norm)
        np.testing.assert_allclose(
            red.xty[at[j]], g.T @ data.Y, rtol=0,
            atol=1e-10 * math.sqrt(s_norm) * np.linalg.norm(data.Y),
        )
