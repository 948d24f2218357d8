"""Invariances of the estimates under changes to the data that mean nothing.

Adding ``X B`` plus constants to Z, D and W leaves the span of every
regression's design unchanged once (X, 1) are adjusted for, so every
selection, estimate, variance and interval must stay put. Y is left out: the
rate rule reads the raw ``std(Y)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from proxsel import estimators as est
from proxsel.estimators import EstimationConfig
from test_core_oracle import RTOL, _rel, assert_same_outcome, median_design, outcome, with_columns

CONFIGS = {
    "rate": EstimationConfig(),
    "cv": EstimationConfig(lambda_mode="cv"),
    "fixed": EstimationConfig(lambda_n=5.0),
}


def _with_covariates(seed):
    data = median_design(seed=seed, n=600)
    x = np.random.default_rng(seed).normal(size=(data.n, 3))
    return with_columns(data, X=x, Y=data.Y + x @ [0.5, -0.4, 0.3], D=data.D + x[:, 0])


def _shifted(data, seed):
    """``data`` with ``X B`` plus a constant added to every Z, D and W column."""
    rng = np.random.default_rng(seed + 100)

    def shift(a):
        return a + data.X @ rng.normal(0.0, 1.0, (data.p_x, a.shape[1])) + rng.normal(
            0.0, 3.0, a.shape[1])

    return with_columns(data, Z=shift(data.Z), D=shift(data.D[:, None])[:, 0], W=shift(data.W))


@pytest.mark.parametrize("mode", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 2])
def test_covariate_shifts_of_z_d_and_w_change_nothing(seed, mode):
    config, data = CONFIGS[mode], _with_covariates(seed)
    moved = _shifted(data, seed)
    base = outcome(est.estimate_invalid_tcp_ocp, data, config)
    assert not isinstance(base, Exception)
    assert_same_outcome(outcome(est.estimate_invalid_tcp_ocp, moved, config), base)
    for j in range(data.p_w):
        assert_same_outcome(outcome(est.estimate_invalid_tcp, moved, j, config),
                            outcome(est.estimate_invalid_tcp, data, j, config))
    ci = est.subsample_ci(data, config, n_subsamples=20, seed=seed)
    assert _rel(est.subsample_ci(moved, config, n_subsamples=20, seed=seed), ci) <= RTOL
