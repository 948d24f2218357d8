"""End-to-end estimator pipeline: pilots, selection, refit, intervals."""

from __future__ import annotations

import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsel.estimators import (
    STREAM_SUBSAMPLE,
    Dataset,
    EstimationConfig,
    FirstStage,
    ProxyEstimate,
    adaptive_lasso_proximal,
    alpha_median,
    default_subsample_size,
    estimate_invalid_tcp,
    estimate_invalid_tcp_ocp,
    first_stage,
    lasso_proximal,
    median_gamma,
    naive_p2sls,
    ols_baseline,
    oracle_p2sls,
    post_adaptive_2sls,
    select_lambda,
    subsample_ci,
)
import proxsel.estimators as estimators_module
from proxsel.exceptions import (
    AggregateFailure,
    AssumptionViolation,
    InvalidBound,
    ProxselError,
    RankDeficient,
    WeakProxyWarning,
)
from proxsel.linalg import ols
from proxsel.simulation import (
    SimConfig,
    generate_invalid_tcp_data,
    generate_invalid_tcp_ocp_data,
)

from conftest import make_exact_dataset, population_first_stage
from oracle import residual_project, take_rows

BLOCK = estimators_module._SUBSAMPLE_BLOCK


def ratio_first_stage(gamma_block, delta_block) -> FirstStage:
    g = np.asarray(gamma_block, float)
    d = np.asarray(delta_block, float)
    return FirstStage(what=np.zeros(2), gamma_hat_vec=g, delta_hat_vec=d)


class TestFirstStage:
    def test_fitted_ocp_is_the_projection_on_the_augmented_design(self):
        data = generate_invalid_tcp_data(SimConfig(n=300, p_z=5, s_z=2), 0)
        fs = first_stage(data)
        m = np.concatenate(
            [data.Z, data.D[:, None], data.X, np.ones((data.n, 1))], axis=1
        )
        fitted = m @ np.linalg.lstsq(m, data.W[:, 0], rcond=None)[0]
        np.testing.assert_allclose(fs.what, fitted, atol=1e-8)

    def test_coefficient_vectors_match_direct_least_squares(self):
        data = generate_invalid_tcp_data(SimConfig(n=300, p_z=5, s_z=2), 1)
        fs = first_stage(data)
        m = np.concatenate(
            [data.Z, data.D[:, None], data.X, np.ones((data.n, 1))], axis=1
        )
        delta = np.linalg.lstsq(m, data.W[:, 0], rcond=None)[0]
        gamma = np.linalg.lstsq(m, data.Y, rcond=None)[0]
        np.testing.assert_allclose(fs.delta_hat_vec, delta[:5], atol=1e-8)
        np.testing.assert_allclose(fs.gamma_hat_vec, gamma[:5], atol=1e-8)

    def test_ocp_index_out_of_range(self):
        data = generate_invalid_tcp_data(SimConfig(n=100, p_z=3, s_z=1), 0)
        with pytest.raises(IndexError):
            first_stage(data, ocp_index=1)

    def test_dataset_arrays_are_read_only_copies(self):
        y = np.arange(20.0)
        rng = np.random.default_rng(0)
        data = Dataset(
            Y=y, D=rng.normal(size=20), Z=rng.normal(size=(20, 2)),
            W=rng.normal(size=(20, 1)),
        )
        for arr in (data.Y, data.D, data.Z, data.W, data.X, data.A):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        y[0] = 5.0  # the caller's own array stays writable ...
        assert data.Y[0] == 0.0  # ... and the dataset does not see it

    def test_dataset_fields_are_read_only_views_of_one_column_major_a(self):
        rng = np.random.default_rng(1)
        y, d, z, w, x = (rng.normal(size=s) for s in (20, 20, (20, 3), (20, 2), (20, 2)))
        data = Dataset(Y=y, D=d, Z=z, W=w, X=x)
        assert data.A.flags.f_contiguous
        np.testing.assert_array_equal(data.A, np.column_stack([x, np.ones(20), z, d, w, y]))
        for arr in (data.X, data.Z, data.D, data.W, data.Y):
            assert np.shares_memory(arr, data.A)
        bare = Dataset(Y=y, D=d, Z=z, W=w)
        assert bare.A.shape == (20, 8) and bare.A.flags.f_contiguous and bare.X.shape == (20, 0)
        for built in (data, bare):  # a pickle is rebuilt as built
            clone = pickle.loads(pickle.dumps(built))
            assert clone.A.flags.f_contiguous and not clone.A.flags.writeable
            assert all(np.shares_memory(arr, clone.A) for arr in (clone.Z, clone.D, clone.Y))
            np.testing.assert_array_equal(clone.A, built.A)

    def test_writing_the_source_arrays_leaves_the_estimate_alone(self):
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=5, s_z=2, p_w=2, s_w=0, y_noise_sd=1.0), 0
        )
        y, d, z, w = (a.copy() for a in (base.Y, base.D, base.Z, base.W))
        data = Dataset(Y=y, D=d, Z=z, W=w)
        before = estimate_invalid_tcp(data, 1)  # fitted before the writes below
        y += 3.0 * d
        z[:, 0] = (z[:, 0] - z[:, 0].mean()) / z[:, 0].std()
        w *= 2.0
        d -= 1.0
        after = estimate_invalid_tcp(data, 1)
        fresh = estimate_invalid_tcp(
            Dataset(Y=base.Y, D=base.D, Z=base.Z, W=base.W), 1
        )
        for est in (after, fresh):
            assert est.beta_hat == before.beta_hat
            assert est.variance == before.variance
            assert est.selected_invalid_tcps == before.selected_invalid_tcps

    def test_fitting_leaves_the_dataset_unchanged(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=5, s_z=2, p_w=2, s_w=0, y_noise_sd=1.0), 0
        )
        before = pickle.dumps(data)
        estimate_invalid_tcp(data, 0)
        assert pickle.dumps(data) == before

    def test_every_entry_point_factors_its_data_once_per_call(self, monkeypatch):
        calls = []
        factor = estimators_module._factor

        def counting_factor(data, design, size):
            calls.append([design(i).shape for i in range(size)])
            return factor(data, design, size)

        monkeypatch.setattr(estimators_module, "_factor", counting_factor)
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=5, s_z=2, p_w=2, s_w=0, y_noise_sd=1.0), 0
        )
        estimate_invalid_tcp(data, 0)
        estimate_invalid_tcp(data, 1)
        oracle_p2sls(data, (0, 1))
        naive_p2sls(data)
        first_stage(data, 1)
        # each call takes one thin QR of A = [X, 1, Z, D, W, Y], 0 + 1 + 5
        # + 1 + 2 + 1 columns, and keeps nothing on the dataset
        assert calls == [[(300, 10)]] * 5

    def test_threads_racing_on_a_fresh_dataset_agree(self):
        # Fits keep no state on the dataset, so threads racing on one fresh
        # dataset must each see the serial numbers.
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=5, s_z=2, p_w=3, s_w=0, y_noise_sd=1.0), 0
        )
        expected = [estimate_invalid_tcp(base, k).beta_hat for k in range(3)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=base.W)
                barrier = threading.Barrier(6)

                def run(i):
                    barrier.wait(timeout=30)
                    return estimate_invalid_tcp(data, i % 3).beta_hat

                with ThreadPoolExecutor(max_workers=6) as pool:
                    got = list(pool.map(run, range(6), timeout=60))
                assert got == [expected[i % 3] for i in range(6)]
        finally:
            sys.setswitchinterval(old)


class TestMedianPilots:
    def test_odd_count_takes_the_middle_ratio(self):
        fs = ratio_first_stage([1.0, 1.0, 1.0, 5.0, 9.0], np.ones(5))
        assert median_gamma(fs) == 1.0

    def test_even_count_averages_the_central_ratios(self):
        fs = ratio_first_stage([1.0, 2.0, 5.0, 9.0], np.ones(4))
        assert median_gamma(fs) == pytest.approx(3.5, abs=1e-15)

    def test_ratio_uses_componentwise_division(self):
        fs = ratio_first_stage([2.0, 6.0, -4.0], [1.0, 2.0, -2.0])
        # ratios (2, 3, 2) -> median 2
        assert median_gamma(fs) == pytest.approx(2.0, abs=1e-15)

    def test_population_ratio_recovers_the_confounder_loading(self):
        config = SimConfig(p_z=10, s_z=3, p_w=1, s_w=0)
        fs = population_first_stage(config)
        assert median_gamma(fs) == pytest.approx(0.2, abs=1e-12)

    def test_population_pilot_effects_match_the_generating_pattern(self):
        config = SimConfig(p_z=10, s_z=3, p_w=1, s_w=0)
        fs = population_first_stage(config)
        pilot = alpha_median(fs, median_gamma(fs))
        expected = np.where(np.arange(10) < 3, 0.8, 0.0)
        np.testing.assert_allclose(pilot, expected, atol=1e-10)

    def test_zero_denominator_raises_with_indices(self):
        fs = ratio_first_stage([1.0, 1.0, 1.0], [1.0, 0.0, 1.0])
        with pytest.raises(AssumptionViolation) as err:
            median_gamma(fs)
        assert err.value.indices == [1]
        with pytest.raises(AssumptionViolation):
            alpha_median(fs, 1.0)

    def test_weak_relevance_warns_but_computes(self):
        fs = ratio_first_stage(
            [1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1e-4]
        )
        with pytest.warns(WeakProxyWarning):
            value = median_gamma(fs)
        assert math.isfinite(value)

    def test_weak_relevance_warns_at_the_callers_line(self):
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=600, p_z=6, s_z=1, p_w=3, s_w=0, y_noise_sd=1.0, seed=2), 0
        )
        z = base.Z.copy()
        z[:, 5] = 100 * np.random.default_rng(0).standard_normal(base.n)  # delta ~ 1e-5
        data = Dataset(Y=base.Y, D=base.D, Z=z, W=base.W)
        for call in (
            lambda: median_gamma(first_stage(data)),
            lambda: adaptive_lasso_proximal(data, 0, 1.0),
            lambda: estimate_invalid_tcp(data),
            lambda: estimate_invalid_tcp_ocp(data),
        ):
            with pytest.warns(WeakProxyWarning) as caught:
                call()
            assert [w.filename for w in caught] == [__file__] * len(caught)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_corrupt=st.integers(0, 3),
        shift=st.floats(-1e9, 1e9, allow_nan=False),
    )
    def test_median_moves_at_most_the_clean_spread(
        self, seed, n_corrupt, shift
    ):
        # corrupting a minority of entries cannot drag the median outside
        # the range of the clean ones
        rng = np.random.default_rng(seed)
        clean = rng.normal(0.0, 1.0, 7)
        corrupted = clean.copy()
        corrupted[:n_corrupt] += shift
        med = float(np.median(corrupted, axis=-1))
        assert clean.min() - 1e-12 <= med <= clean.max() + 1e-12


class TestExactRecovery:
    def test_noiseless_pipeline_recovers_all_coefficients(self):
        data, (beta, gamma, alpha0) = make_exact_dataset()
        est = estimate_invalid_tcp(data)
        assert est.selected_invalid_tcps == (0,)
        assert est.beta_hat == pytest.approx(beta, abs=1e-8)
        assert est.gamma_hat == pytest.approx(gamma, abs=1e-8)
        assert est.alpha_hat[0] == pytest.approx(alpha0, abs=1e-8)
        np.testing.assert_allclose(est.alpha_hat[1:], 0.0)
        assert est.ci_lower <= est.beta_hat <= est.ci_upper

    def test_selected_set_equals_the_support_of_alpha(self):
        data, _ = make_exact_dataset()
        est = estimate_invalid_tcp(data)
        assert est.selected_invalid_tcps == tuple(
            int(j) for j in np.nonzero(est.alpha_hat)[0]
        )

    def test_naive_is_exact_when_every_tcp_is_valid(self):
        data, (beta, _, _) = make_exact_dataset(alpha0=0.0)
        est = naive_p2sls(data)
        assert est.beta_hat == pytest.approx(beta, abs=1e-8)


class TestEmptySelectionReduction:
    def test_huge_penalty_reduces_to_the_naive_estimator(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=400, p_z=6, s_z=2, y_noise_sd=1.0), 0
        )
        est = estimate_invalid_tcp(data, 0, EstimationConfig(lambda_n=1e12))
        naive = naive_p2sls(data)
        assert est.selected_invalid_tcps == ()
        assert est.beta_hat == naive.beta_hat
        assert est.variance == naive.variance
        assert est.ci_lower == naive.ci_lower
        assert est.ci_upper == naive.ci_upper


class TestOracleReduction:
    @pytest.mark.parametrize("rep", range(10))
    def test_refit_on_the_true_set_is_bit_identical_to_the_oracle(self, rep):
        config = SimConfig(n=500, p_z=8, s_z=3, seed=11, y_noise_sd=1.0)
        data = generate_invalid_tcp_data(config, rep)
        manual = post_adaptive_2sls(data, 0, (0, 1, 2))
        oracle = oracle_p2sls(data, (0, 1, 2))
        assert manual.beta_hat == oracle.beta_hat
        assert manual.variance == oracle.variance
        assert manual.ci_lower == oracle.ci_lower
        assert manual.ci_upper == oracle.ci_upper
        np.testing.assert_array_equal(manual.alpha_hat, oracle.alpha_hat)

    def test_oracle_with_every_tcp_marked_invalid_is_degenerate(self):
        data = generate_invalid_tcp_data(SimConfig(n=300, p_z=4, s_z=4), 0)
        with pytest.raises(RankDeficient):
            oracle_p2sls(data, (0, 1, 2, 3))

    @pytest.mark.parametrize("sel, refit", [
        ((), ols_baseline),
        ((0, 2), lambda data: oracle_p2sls(data, (0, 2))),
        ((), lambda data: naive_p2sls(data, ocp_index=None)),
    ], ids=["ols", "oracle-two-tcps", "naive-every-ocp"])
    @pytest.mark.parametrize("gap, degenerate", [(1e-7, True), (1e-5, False)])
    def test_refit_gate_is_on_the_residual_treatment(self, gap, degenerate, sel, refit):
        # The refit refuses a treatment whose residual on the other
        # regressors has squared norm at most DEGENERATE_TREATMENT_RTOL
        # (1e-12) of D'D, i.e. ||P_perp D|| / ||D|| <= 1e-6: the same gate
        # the selection stage applies. D lies `gap` (relative) off the span
        # of (the selected TCPs, X, 1), along a direction orthogonal to
        # (Z, X, 1), which the fitted OCPs take almost none of; the first
        # stage stays full rank.
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=4, s_z=1, p_w=3, s_w=1, y_noise_sd=1.0), 0
        )
        rng = np.random.default_rng(1)
        x = rng.normal(size=(base.n, 2))
        others = np.column_stack([base.Z[:, list(sel)], x, np.ones(base.n)])
        span = others @ rng.normal(size=others.shape[1])
        noise = residual_project(np.column_stack([base.Z, x, np.ones(base.n)]),
                                 rng.normal(size=base.n))
        d = span + gap * np.linalg.norm(span) / np.linalg.norm(noise) * noise
        data = Dataset(Y=base.Y, D=d, Z=base.Z, W=base.W, X=x)
        if degenerate:
            with pytest.raises(RankDeficient, match="collinear with the other refit regressors"):
                refit(data)
        else:
            est = refit(data)
            assert math.isfinite(est.beta_hat)
            assert math.isfinite(est.variance) and est.variance > 0


def collinear_tcp_dataset(n):
    """A dataset whose augmented design (Z, D, X, 1) is rank deficient."""
    rng = np.random.default_rng(5)
    z = rng.standard_normal((n, 3))
    z[:, 2] = 2.0 * z[:, 1]
    d = z @ [0.5, 0.4, 0.3] + rng.standard_normal(n)
    w = rng.standard_normal((n, 2))
    return Dataset(Y=0.5 * d + rng.standard_normal(n), D=d, Z=z, W=w)


class TestFirstStageFailure:
    @pytest.mark.parametrize(
        "call",
        [
            lambda data: first_stage(data, 1),
            lambda data: lasso_proximal(data, 1, 0.3),
            lambda data: adaptive_lasso_proximal(data, 1, 0.3),
            lambda data: select_lambda(data, 1, mode="cv"),
            lambda data: select_lambda(data, 1, mode="rate"),
            lambda data: estimators_module._reduced_rows(data, 1),
            lambda data: post_adaptive_2sls(data, 1, (0,)),
            lambda data: estimate_invalid_tcp(data, 1),
            lambda data: estimate_invalid_tcp(data, 1, EstimationConfig(lambda_mode="cv")),
        ],
        ids=["first_stage", "lasso", "adaptive", "select_lambda", "select_rate", "reduced_rows",
             "refit", "rate", "cv"],
    )
    def test_every_single_ocp_entry_point_raises_rank_deficient(self, call):
        with pytest.raises(RankDeficient):
            call(collinear_tcp_dataset(60))

    def test_cv_mode_refuses_a_small_sample_before_the_first_stage(self):
        data = collinear_tcp_dataset(12)
        with pytest.raises(InvalidBound, match="n >= 20"):
            estimate_invalid_tcp(data, 1, EstimationConfig(lambda_mode="cv"))
        with pytest.raises(RankDeficient):
            estimate_invalid_tcp(data, 1)


RELEVANCE = re.escape(
    "OCP reduced-form coefficient is numerically zero at TCP indices "
    "[0, 1, 2, 3, 4, 5]; the ratio pilot estimator is undefined there"
)


class TestErrorPrecedence:
    """A problem that fails at several stages reports the first, in the one
    order that ``estimators._ledger`` sets out for every penalty mode:
    relevance before the reduced design, and the first stage before the
    refit."""

    @staticmethod
    def with_ocp_1(column):
        base = generate_invalid_tcp_ocp_data(SimConfig(n=300, p_z=6, s_z=2, p_w=3, seed=3), 0)
        w = base.W.copy()
        w[:, 1] = column(base)
        return Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w)

    # A constant OCP fails relevance (all its TCP coefficients are zero) and
    # the design (what is constant, so (what, X, 1) has rank 1) at once; an
    # OCP equal to the treatment up to 1e-14 fails relevance and leaves the
    # treatment degenerate.
    failing_columns = pytest.mark.parametrize(
        "column",
        [lambda b: np.ones(b.n), lambda b: b.D + 1e-14 * b.Z[:, 0]],
        ids=["constant", "treatment"],
    )

    @pytest.mark.parametrize(
        "config",
        [EstimationConfig(), EstimationConfig(lambda_n=1.0), EstimationConfig(lambda_mode="cv")],
        ids=["rate", "fixed", "cv"],
    )
    @failing_columns
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a failed OCP is not computed on
    def test_a_column_failing_two_stages_reports_the_first(self, column, config):
        fits = estimate_invalid_tcp_ocp(self.with_ocp_1(column), config).per_ocp_fits
        assert type(fits[1]) is AssumptionViolation
        assert re.fullmatch(RELEVANCE, str(fits[1]))
        assert all(isinstance(f, ProxyEstimate) for f in (fits[0], fits[2]))
        with pytest.raises(AssumptionViolation) as single:
            estimate_invalid_tcp(self.with_ocp_1(column), 1, config)
        assert str(single.value) == str(fits[1])

    @pytest.mark.parametrize("mode", ["rate", "cv"])
    @failing_columns
    def test_select_lambda_fails_as_the_pipeline_does(self, column, mode):
        data = self.with_ocp_1(column)
        with pytest.raises(ProxselError) as pipeline:
            estimate_invalid_tcp(data, 1, EstimationConfig(lambda_mode=mode))
        with pytest.raises(ProxselError) as penalty:
            select_lambda(data, 1, mode)
        assert type(penalty.value) is type(pipeline.value) is AssumptionViolation
        assert str(penalty.value) == str(pipeline.value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda data: oracle_p2sls(data, (1, 2)),  # its own refit is singular too
            lambda data: naive_p2sls(data),
            lambda data: naive_p2sls(data, None),
            lambda data: ols_baseline(data),  # (D, 1) alone is full rank
        ],
        ids=["oracle", "naive", "naive-all", "ols"],
    )
    def test_a_failed_first_stage_wins_over_the_refit(self, call):
        data = collinear_tcp_dataset(60)
        with pytest.raises(RankDeficient) as first:
            first_stage(data)
        with pytest.raises(RankDeficient) as refit:
            call(data)
        assert str(refit.value) == str(first.value)

    def test_an_overflowing_ocp_fails_its_reduced_design(self):
        # OCP 1 scaled by 1e307 overflows its fitted column, so the bordered
        # R11 of its reduced design has non-finite entries: rank deficient,
        # not a lasso that fails its certificate on NaN. No later stage
        # computes on it, so numpy does not warn.
        base = generate_invalid_tcp_ocp_data(SimConfig(n=400, p_z=6, s_z=2, p_w=3, seed=0), 0)
        w = base.W.copy()
        w[:, 1] *= 1e307
        data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient, match="non-finite entries$") as single:
                estimate_invalid_tcp(data, 1)
            fits = estimate_invalid_tcp_ocp(data).per_ocp_fits
            subsample_ci(data, n_subsamples=20, seed=0)
        assert type(fits[1]) is RankDeficient and str(fits[1]) == str(single.value)
        clean = estimate_invalid_tcp_ocp(base).per_ocp_fits
        for k in (0, 2):  # the other OCPs keep their bits
            assert_same_fit(fits[k], clean[k])

    def test_a_zero_penalty_fails_naming_it_not_the_refit(self):
        # Least squares selects every TCP, and the refit on all of them and
        # the fitted OCP would leave no treatment variation.
        data = generate_invalid_tcp_ocp_data(SimConfig(n=300, p_z=6, s_z=2, p_w=3, seed=3), 0)
        message = ("all 6 TCPs were selected as invalid at lambda_n=0.0; no valid TCP is "
                   "left to identify the effect")
        with pytest.raises(AssumptionViolation) as single:
            estimate_invalid_tcp(data, 0, EstimationConfig(lambda_n=0.0))
        assert str(single.value) == message
        with pytest.raises(AggregateFailure):
            estimate_invalid_tcp_ocp(data, EstimationConfig(lambda_n=0.0))
        # the selection itself is still returned
        alpha, selected = adaptive_lasso_proximal(data, 0, 0.0)
        assert selected == tuple(range(6))


class TestInvariances:
    def test_treatment_effect_shift_moves_the_estimate_one_for_one(self):
        # at a fixed penalty, adding c*D to the outcome changes nothing
        # upstream of the refit: the selection design is orthogonal to D
        base_cfg = SimConfig(n=400, p_z=6, s_z=2, beta_true=0.5, y_noise_sd=1.0)
        shift_cfg = SimConfig(n=400, p_z=6, s_z=2, beta_true=2.0, y_noise_sd=1.0)
        fixed = EstimationConfig(lambda_n=60.0)
        for rep in range(5):
            a = generate_invalid_tcp_data(base_cfg, rep)
            b = generate_invalid_tcp_data(shift_cfg, rep)
            np.testing.assert_allclose(b.Y - a.Y, 1.5 * a.D, atol=1e-12)
            ea = estimate_invalid_tcp(a, 0, fixed)
            eb = estimate_invalid_tcp(b, 0, fixed)
            assert eb.selected_invalid_tcps == ea.selected_invalid_tcps
            assert eb.beta_hat - ea.beta_hat == pytest.approx(1.5, abs=1e-9)

    def test_outcome_scaling_with_quadratic_penalty_scaling(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=400, p_z=6, s_z=2, y_noise_sd=1.0), 2
        )
        lam = 40.0
        base = estimate_invalid_tcp(data, 0, EstimationConfig(lambda_n=lam))
        for c in (0.1, 5.0):
            scaled_data = Dataset(
                Y=c * data.Y, D=data.D, Z=data.Z, W=data.W
            )
            scaled = estimate_invalid_tcp(
                scaled_data, 0, EstimationConfig(lambda_n=c * c * lam)
            )
            assert scaled.selected_invalid_tcps == base.selected_invalid_tcps
            assert scaled.beta_hat == pytest.approx(
                c * base.beta_hat, rel=1e-9
            )


class TestVariancePlugin:
    def test_plugin_collapses_to_residual_treatment_variation(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=500, p_z=6, s_z=2, y_noise_sd=1.0), 4
        )
        est = estimate_invalid_tcp(data)
        sel = list(est.selected_invalid_tcps)
        what = first_stage(data).what
        design = np.concatenate(
            [
                data.D[:, None],
                data.Z[:, sel],
                what[:, None],
                data.X,
                np.ones((data.n, 1)),
            ],
            axis=1,
        )
        coef = ols(design, data.Y).coefficients
        raw_design = design.copy()
        raw_design[:, 1 + len(sel)] = data.W[:, 0]
        resid = data.Y - raw_design @ coef
        sigma2_eps = float(resid @ resid) / data.n
        d_res = residual_project(design[:, 1:], data.D)
        expected = sigma2_eps / (float(d_res @ d_res) / data.n)
        assert est.variance == pytest.approx(expected, rel=1e-10)

    def test_interval_is_centered_with_the_normal_quantile(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=500, p_z=6, s_z=2, y_noise_sd=1.0), 5
        )
        est = estimate_invalid_tcp(data)
        half = 1.959963984540054 * math.sqrt(est.variance / data.n)
        assert est.ci_lower == pytest.approx(est.beta_hat - half, rel=1e-12)
        assert est.ci_upper == pytest.approx(est.beta_hat + half, rel=1e-12)

    def test_level_is_configurable(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=500, p_z=6, s_z=2, y_noise_sd=1.0), 5
        )
        wide = estimate_invalid_tcp(data, 0, EstimationConfig(alpha_level=0.01))
        narrow = estimate_invalid_tcp(data, 0, EstimationConfig(alpha_level=0.32))
        assert wide.ci_upper - wide.ci_lower > narrow.ci_upper - narrow.ci_lower


def assert_same_fit(a, b):
    """Field-for-field equality of two single-OCP fits (fits compare by
    identity)."""
    assert a.beta_hat == b.beta_hat
    assert a.gamma_hat == b.gamma_hat
    np.testing.assert_array_equal(a.alpha_hat, b.alpha_hat)
    assert a.selected_invalid_tcps == b.selected_invalid_tcps
    assert a.variance == b.variance
    assert (a.ci_lower, a.ci_upper) == (b.ci_lower, b.ci_upper)
    assert a.method == b.method
    assert a.per_ocp_fits is None and b.per_ocp_fits is None


class TestPipelineComposition:
    @pytest.mark.filterwarnings("ignore::proxsel.exceptions.WeakProxyWarning")
    @pytest.mark.parametrize(
        "cfg",
        [
            EstimationConfig(alpha_level=0.1),
            EstimationConfig(lambda_mode="cv"),
            EstimationConfig(lambda_n=4.0, adaptive_floor=1e-4),
        ],
        ids=["rate", "cv", "fixed"],
    )
    def test_pipeline_is_its_public_stages_composed(self, cfg):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=200, p_z=6, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0), 4
        )
        agg = estimate_invalid_tcp_ocp(data, cfg)
        for j in range(data.p_w):
            lam = cfg.lambda_n
            if lam is None:
                lam = select_lambda(data, j, cfg.lambda_mode)
            _, selected = adaptive_lasso_proximal(
                data, j, lam, adaptive_floor=cfg.adaptive_floor
            )
            composed = post_adaptive_2sls(data, j, selected, cfg.alpha_level)
            assert_same_fit(estimate_invalid_tcp(data, j, cfg), composed)
            assert_same_fit(agg.per_ocp_fits[j], composed)


class TestSelectionStage:
    def test_qr_factorizations_do_not_grow_with_the_ocp_count(self, monkeypatch):
        # The reduced design takes no QR: (X, 1) are partialled out in R22,
        # and D leaves the TCP block by a rank-one step.
        factored = {}
        qr = np.linalg.qr
        for p_w in (1, 3, 9):
            data = generate_invalid_tcp_ocp_data(
                SimConfig(n=300, p_z=5, s_z=1, p_w=p_w, s_w=0, y_noise_sd=1.0), 0
            )
            core = estimators_module._single(data)
            matrices = []

            def counting(a, *args, **kwargs):
                matrices.append(int(np.prod(np.shape(a)[:-2])))  # the stack's size
                return qr(a, *args, **kwargs)

            monkeypatch.setattr(estimators_module.np.linalg, "qr", counting)
            ds, config = np.zeros(p_w, dtype=int), EstimationConfig()
            errors = estimators_module._ledger(core, ds, config)
            estimators_module._select(core, ds, np.arange(p_w), config, False, errors)
            monkeypatch.undo()
            assert errors == [None] * p_w
            factored[p_w] = sum(matrices)
        assert factored[1] == factored[3] == factored[9] == 0


class TestFactor:
    def test_every_n_row_qr_keeps_only_r(self, monkeypatch):
        # Only the factor of A takes more rows than A has columns; it keeps R
        # alone, and cv folds rebuild their rows from A.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=5, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0), 0
        )
        k = data.p_z + 1 + data.p_x + 1 + data.p_w + 1
        calls, qr = [], np.linalg.qr

        def recording(a, mode="reduced"):
            calls.append((np.shape(a)[-2], mode))
            return qr(a, mode)

        monkeypatch.setattr(estimators_module.np.linalg, "qr", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakProxyWarning)
            for mode in ("rate", "cv"):
                config = EstimationConfig(lambda_mode=mode)
                estimate_invalid_tcp(data, 1, config)
                estimate_invalid_tcp_ocp(data, config)
                subsample_ci(data, config, n_subsamples=3, seed=1)
                select_lambda(data, 2, mode)
            estimators_module._reduced_rows(data, 0)
            first_stage(data, 1)
            lasso_proximal(data, 0, 0.3)
            naive_p2sls(data, None)
        monkeypatch.undo()
        tall = [mode for rows, mode in calls if rows > k]
        assert len(tall) > 10 and set(tall) == {"r"}

    def test_a_full_sample_fit_factors_the_datasets_own_a(self, monkeypatch):
        # No fit rebuilds A: the factor, first_stage's fitted OCP and the cv
        # folds' rows all read the dataset's one copy.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=5, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0), 0
        )
        inputs, qr = [], np.linalg.qr

        def recording(a, *args, **kwargs):
            inputs.append(a)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        estimate_invalid_tcp(data, 1)
        estimate_invalid_tcp_ocp(data, EstimationConfig(lambda_mode="cv"))
        first_stage(data, 2)
        monkeypatch.undo()
        tall = [a for a in inputs if np.shape(a)[-2] == data.n]
        assert len(tall) == 3 and all(a is data.A for a in tall)
        assert estimators_module._single(data).design(0) is data.A

    def test_a_block_factor_peaks_at_a_few_designs_not_the_block(self):
        datasets = [
            generate_invalid_tcp_ocp_data(
                SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), r
            )
            for r in range(20)
        ]
        estimators_module._factor_datasets(datasets)  # warm-up
        tracemalloc.start()
        try:
            core = estimators_module._factor_datasets(datasets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Keeping each dataset's n-row Q would hold 20 designs' worth.
        a_bytes = datasets[0].A.nbytes
        assert peak < 4 * a_bytes
        assert all(2500 not in f.shape for f in core if isinstance(f, np.ndarray))

    def test_cv_folds_keep_a_small_working_set(self):
        # The median-ci design in cv mode: every fold's training sums come
        # from the validation blocks, not from copies of the training rows.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), 0
        )
        config = EstimationConfig(lambda_mode="cv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakProxyWarning)
            estimate_invalid_tcp_ocp(data, config)  # warm-up
            tracemalloc.start()
            try:
                estimate_invalid_tcp_ocp(data, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 6.5e6

    def test_cv_folds_rebuild_the_reduced_rows_from_a(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=6, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0), 0
        )
        g, d_tilde, what = estimators_module._reduced_rows(data, 1)
        fs = first_stage(data, 1)
        assert what.tobytes() == fs.what.tobytes()  # one factor, the same bits
        others = np.column_stack([fs.what, np.ones(data.n), data.D])
        expected = residual_project(others, data.Z)
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-10 * np.abs(expected).max())
        d_expected = residual_project(others[:, :2], data.D)
        np.testing.assert_allclose(d_tilde, d_expected, rtol=0,
                                   atol=1e-10 * np.abs(d_expected).max())


class TestIdentityEquality:
    def test_fits_datasets_and_first_stages_compare_by_identity(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=200, p_z=4, s_z=1, p_w=2, s_w=0, y_noise_sd=1.0), 0
        )
        fit, again = estimate_invalid_tcp(data, 0), estimate_invalid_tcp(data, 0)
        assert_same_fit(fit, again)
        assert fit != again  # distinct equal fits compare without raising
        assert fit == fit
        agg = estimate_invalid_tcp_ocp(data)
        assert agg == agg and agg != estimate_invalid_tcp_ocp(data)
        twin = Dataset(Y=data.Y, D=data.D, Z=data.Z, W=data.W)
        assert first_stage(data) != first_stage(twin)
        assert data != twin
        assert {data, twin, data} == {data, twin}


class TestMedianOverOcps:
    def test_single_ocp_aggregate_matches_the_single_pipeline(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=400, p_z=6, s_z=2, y_noise_sd=1.0), 6
        )
        single = estimate_invalid_tcp(data)
        agg = estimate_invalid_tcp_ocp(data)
        assert agg.beta_hat == single.beta_hat
        assert agg.method == "median_over_ocps"
        assert math.isnan(agg.variance)
        assert math.isnan(agg.ci_lower) and math.isnan(agg.ci_upper)
        np.testing.assert_array_equal(agg.per_ocp_estimates, [single.beta_hat])

    def test_aggregate_is_the_median_of_the_per_ocp_estimates(self):
        config = SimConfig(
            n=600, p_z=6, s_z=2, p_w=4, s_w=1, y_noise_sd=1.0
        )
        data = generate_invalid_tcp_ocp_data(config, 0)
        agg = estimate_invalid_tcp_ocp(data)
        per = agg.per_ocp_estimates
        assert per.size == 4
        assert np.all(np.isfinite(per))
        assert agg.beta_hat == pytest.approx(float(np.median(per)), abs=1e-15)

    def test_failed_columns_are_nan_and_majority_still_aggregates(self):
        rng = np.random.default_rng(10)
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=5, s_z=2, p_w=5, s_w=0, y_noise_sd=1.0), 1
        )
        w = base.W.copy()
        w[:, 1] = base.D  # an OCP equal to the treatment cannot be used
        w[:, 3] = 2.0 * base.D + 1.0
        data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w, X=base.X)
        agg = estimate_invalid_tcp_ocp(data)
        assert np.isnan(agg.per_ocp_estimates[1])
        assert np.isnan(agg.per_ocp_estimates[3])
        finite = agg.per_ocp_estimates[np.isfinite(agg.per_ocp_estimates)]
        assert finite.size == 3
        assert agg.beta_hat == pytest.approx(float(np.median(finite)), abs=1e-15)

    def test_failed_columns_keep_their_error(self):
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=5, s_z=2, p_w=3, s_w=0, y_noise_sd=1.0), 1
        )
        w = base.W.copy()
        w[:, 1] = base.D
        data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w, X=base.X)
        agg = estimate_invalid_tcp_ocp(data)
        first, failed, last = agg.per_ocp_fits
        assert isinstance(failed, AssumptionViolation)
        assert failed.__traceback__ is None
        for k, fit in ((0, first), (2, last)):
            direct = estimate_invalid_tcp(data, k)
            assert fit.beta_hat == direct.beta_hat
            assert fit.ci_lower == direct.ci_lower
            assert fit.selected_invalid_tcps == direct.selected_invalid_tcps
        with pytest.raises(ProxselError) as err:
            estimate_invalid_tcp(data, 1)
        assert str(err.value) == str(failed)

    def test_majority_failure_aborts(self):
        rng = np.random.default_rng(11)
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=5, s_z=2, p_w=5, s_w=0, y_noise_sd=1.0), 2
        )
        w = base.W.copy()
        for j, c in zip((0, 2, 4), (1.0, 2.0, -1.0)):
            w[:, j] = c * base.D + 0.5
        data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w, X=base.X)
        with pytest.raises(AggregateFailure) as err:
            estimate_invalid_tcp_ocp(data)
        assert err.value.n_failed == 3
        assert err.value.n_total == 5

    def test_a_failed_median_names_its_first_failed_ocp(self):
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), 0
        )
        w = base.W.copy()
        w[:, 4:] = base.D[:, None]
        data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w)
        with pytest.raises(AggregateFailure) as err:
            estimate_invalid_tcp_ocp(data)
        assert str(err.value).startswith(
            "only 4 of 10 per-OCP runs succeeded; need at least 6; OCP 4 failed with "
            "AssumptionViolation: OCP reduced-form coefficient is numerically zero")
        assert (err.value.n_failed, err.value.n_total) == (6, 10)

    @pytest.mark.parametrize("p_w", [3, 4, 10, 24])
    def test_the_median_has_the_bits_of_nanmedian(self, p_w, monkeypatch):
        # Effects over ten orders of magnitude, each failed OCP's NaN: every
        # dataset a strict majority of its OCPs backs gets np.nanmedian's bits.
        rng = np.random.default_rng(p_w)
        beta = rng.standard_normal((500, p_w)) * 10.0 ** rng.uniform(-5, 5, (500, 1))
        beta[rng.random(beta.shape) < rng.random((500, 1))] = math.nan
        errors = [None if np.isfinite(b) else RankDeficient("failed") for b in beta.flat]
        refit = estimators_module._Refit(beta.ravel(), beta.ravel(), np.zeros((beta.size, 1)),
                                         beta.ravel(), errors)
        monkeypatch.setattr(estimators_module, "_pipeline", lambda *args: refit)
        core = SimpleNamespace(r=np.zeros((500, 0, 0)), p_w=p_w)
        medians = estimators_module._medians(core, EstimationConfig(), False)[1]
        kept = np.isfinite(beta).sum(axis=1) > p_w // 2
        assert kept.any() and not kept.all() and np.isnan(beta[kept]).any()
        assert medians[kept].tobytes() == np.nanmedian(beta[kept], axis=1).tobytes()
        assert np.isnan(medians[~kept]).all()


class TestSubsampleCi:
    def test_default_size_follows_the_four_fifths_rule(self):
        assert default_subsample_size(2500) == 522
        assert default_subsample_size(200) == 69
        assert default_subsample_size(2) == 1

    def test_interval_is_deterministic_in_the_seed(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=4, s_z=1, p_w=2, s_w=0, y_noise_sd=1.0), 0
        )
        a = subsample_ci(data, n_subsamples=20, seed=3)
        b = subsample_ci(data, n_subsamples=20, seed=3)
        c = subsample_ci(data, n_subsamples=20, seed=4)
        assert a == b
        assert a != c

    def test_a_negative_seed_is_an_invalid_bound_before_any_fit(self, monkeypatch):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=4, s_z=1, p_w=2, s_w=0, y_noise_sd=1.0), 0
        )
        monkeypatch.setattr(estimators_module, "_factor", None)  # any fit would fail
        with pytest.raises(InvalidBound, match="seed must be >= 0, got -1"):
            subsample_ci(data, n_subsamples=20, seed=-1)

    def test_failed_subsamples_name_the_first_and_its_cause(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=6, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0, seed=3), 0
        )
        with pytest.raises(AggregateFailure) as failure:
            subsample_ci(data, EstimationConfig(lambda_n=0.0), n_subsamples=30, seed=5)
        assert str(failure.value) == (
            "30 of 30 subsample runs failed (more than 20%); subsample 0 failed with "
            "AggregateFailure: only 0 of 3 per-OCP runs succeeded; need at least 2; "
            "OCP 0 failed with AssumptionViolation: all 6 TCPs were selected as invalid "
            "at lambda_n=0.0; no valid TCP is left to identify the effect")
        assert (failure.value.n_failed, failure.value.n_total) == (30, 30)

    def test_noiseless_data_yields_a_degenerate_interval(self):
        data, (beta, _, _) = make_exact_dataset(n=400)
        lo, hi = subsample_ci(data, n_subsamples=15, seed=0)
        assert lo == pytest.approx(beta, abs=1e-8)
        assert hi == pytest.approx(beta, abs=1e-8)

    def test_recentering_flips_the_quantile_roles(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=4, s_z=1, p_w=2, s_w=0, y_noise_sd=1.0), 1
        )
        raw = subsample_ci(data, n_subsamples=30, seed=5)
        pivot = subsample_ci(data, n_subsamples=30, seed=5, recenter=True)
        assert raw != pivot
        assert pivot[0] < pivot[1]

    @pytest.mark.filterwarnings("ignore::proxsel.exceptions.WeakProxyWarning")
    @pytest.mark.parametrize("recenter", [False, True])
    def test_level_comes_from_the_config(self, recenter):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(
                n=600, p_z=6, s_z=2, p_w=3, s_w=0, y_noise_sd=1.0, seed=3
            ),
            0,
        )
        config = EstimationConfig(alpha_level=0.5)
        b = default_subsample_size(data.n)
        estimates = []
        for i in range(20):
            rng = np.random.default_rng(
                np.random.SeedSequence((3, STREAM_SUBSAMPLE, i))
            )
            idx = np.sort(rng.choice(data.n, size=b, replace=False))
            sub = estimate_invalid_tcp_ocp(take_rows(data, idx), config)
            estimates.append(sub.beta_hat)
        estimates = np.array(estimates)
        interval = subsample_ci(
            data, config, n_subsamples=20, seed=3, recenter=recenter
        )
        if recenter:
            center = estimate_invalid_tcp_ocp(data, config).beta_hat
            roots = math.sqrt(b) * (estimates - center)
            r_lo, r_hi = np.quantile(roots, [0.25, 0.75])
            scale = math.sqrt(data.n)
            expected = (center - r_hi / scale, center - r_lo / scale)
        else:
            expected = tuple(np.quantile(estimates, [0.25, 0.75]))
        assert interval == expected

    @pytest.mark.filterwarnings("ignore::proxsel.exceptions.WeakProxyWarning")
    @pytest.mark.parametrize("n_subsamples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_give_the_interval_of_one_subsample_at_a_time(
        self, n_subsamples
    ):
        # Subsamples are fitted in blocks; counts below, at and across the
        # block size must give the quantiles of the one-by-one recomputation.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=6, s_z=2, p_w=5, s_w=1, y_noise_sd=1.0), 2
        )
        b = default_subsample_size(data.n)
        estimates = []
        for i in range(n_subsamples):
            rng = np.random.default_rng(
                np.random.SeedSequence((8, STREAM_SUBSAMPLE, i))
            )
            idx = np.sort(rng.choice(data.n, size=b, replace=False))
            estimates.append(estimate_invalid_tcp_ocp(take_rows(data, idx)).beta_hat)
        expected = np.quantile(estimates, [0.025, 0.975])
        interval = subsample_ci(data, n_subsamples=n_subsamples, seed=8)
        np.testing.assert_allclose(interval, expected, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore::proxsel.exceptions.WeakProxyWarning")
    @pytest.mark.parametrize("n, b", [
        (400, None),  # numpy's Floyd branch
        (10_050, 150),  # n > 10 000, b <= n // 50: Floyd
        (10_050, 400),  # n // 50 < b <= n // 20: tail shuffle
        (10_050, 600),  # b > n // 20: tail shuffle
    ])
    def test_subsamples_are_the_shuffled_draws_sorted(self, n, b):
        # Generator.choice(..., shuffle=False) moves numpy's switch from Floyd
        # to the tail shuffle from b > n // 50 to b > n // 20, so for n > 10 000
        # it draws other rows in between, though each draw is sorted anyway.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=n, p_z=6, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0), 2
        )
        size = default_subsample_size(n) if b is None else b
        estimates = []
        for i in range(5):
            rng = np.random.default_rng(np.random.SeedSequence((8, STREAM_SUBSAMPLE, i)))
            idx = np.sort(rng.choice(n, size=size, replace=False))
            estimates.append(estimate_invalid_tcp_ocp(take_rows(data, idx)).beta_hat)
        expected = tuple(np.quantile(estimates, [0.025, 0.975]))
        assert subsample_ci(data, n_subsamples=5, b=b, seed=8) == expected

    def test_blocks_keep_a_small_working_set(self):
        # The median-ci design: 200 subsamples of 2500 rows, 10 TCPs, 10 OCPs.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), 0
        )
        tracemalloc.start()
        try:
            subsample_ci(data, n_subsamples=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6

    def test_one_unusable_ocp_leaves_every_subsample_a_majority(self):
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), 0
        )
        w = base.W.copy()
        w[:, 5] = base.D
        data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w)
        lo, hi = subsample_ci(data, n_subsamples=23, seed=1)
        full = estimate_invalid_tcp_ocp(data)
        assert isinstance(full.per_ocp_fits[5], AssumptionViolation)
        assert lo <= full.beta_hat <= hi
        b = default_subsample_size(data.n)
        failed = [
            [j for j in range(10) if fit.errors[s * 10 + j] is not None]
            for block, fit, _, _ in estimators_module._subsample_fits(
                data, EstimationConfig(), 23, b, 1
            )
            for s in range(len(block))
        ]
        assert failed == [[5]] * 23  # only the copy of D, in every subsample

    def test_a_majority_of_unusable_ocps_fails_every_subsample(self):
        base = generate_invalid_tcp_ocp_data(
            SimConfig(n=2500, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), 0
        )
        w = base.W.copy()
        w[:, 4:] = base.D[:, None]
        data = Dataset(Y=base.Y, D=base.D, Z=base.Z, W=w)
        with pytest.raises(AggregateFailure) as err:
            subsample_ci(data, n_subsamples=23, seed=1)
        assert err.value.n_failed == err.value.n_total == 23

    def test_subsample_fits_take_no_svd_and_column_major_qr_inputs(self, monkeypatch):
        # Every rank certificate is settled by its condition bound, and A and
        # each subsample's rows of it reach the QR without a transposing copy.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=6, s_z=2, p_w=3, s_w=0, y_noise_sd=1.0), 0
        )
        b, svd_calls, qr_inputs = default_subsample_size(data.n), [], []
        svd, qr = np.linalg.svd, np.linalg.qr

        def counting_svd(a, *args, **kwargs):
            svd_calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def recording_qr(a, *args, **kwargs):
            qr_inputs.append((np.shape(a), a.flags.f_contiguous))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        subsample_ci(data, n_subsamples=30, seed=3, recenter=True)  # factors A too
        monkeypatch.undo()
        assert svd_calls == []
        k = 6 + 3 + 3  # A = [X, 1, Z, D, W, Y]
        assert [f for shape, f in qr_inputs if shape in ((b, k), (400, k))] == [True] * 31

    def test_subsample_size_bounds_are_enforced(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=4, s_z=1, p_w=2, s_w=0, y_noise_sd=1.0), 2
        )
        with pytest.raises(InvalidBound):
            subsample_ci(data, b=0, n_subsamples=5)
        with pytest.raises(InvalidBound):
            subsample_ci(data, b=300, n_subsamples=5)
        with pytest.raises(InvalidBound):
            subsample_ci(data, n_subsamples=0)

    @pytest.mark.parametrize("name, value", [
        ("seed", 2.9), ("seed", 2.0), ("b", 99.99), ("n_subsamples", 5.5), ("n_subsamples", "5"),
    ])
    def test_a_non_integer_count_is_an_invalid_bound(self, name, value):
        # seed=2.9 used to draw seed 2's subsamples and b=99.99 b=99's rows;
        # n_subsamples=5.5 died in numpy with a TypeError.
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=300, p_z=4, s_z=1, p_w=2, s_w=0, y_noise_sd=1.0), 2
        )
        with pytest.raises(InvalidBound, match=f"^{name} must be an integer"):
            subsample_ci(data, **{"n_subsamples": 5, name: value})
        numpy_ints = subsample_ci(data, n_subsamples=np.int64(5), b=np.int32(99),
                                  seed=np.uint8(2))
        assert numpy_ints == subsample_ci(data, n_subsamples=5, b=99, seed=2)

    def test_subsample_size_must_exceed_the_dataset_minimum(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=200, p_z=10, s_z=3, p_w=10, s_w=3, seed=1), 0
        )
        for b in (15, 21):
            with pytest.raises(InvalidBound, match="= 21 < b"):
                subsample_ci(data, b=b, n_subsamples=20)


class TestBaselines:
    def test_ols_baseline_has_no_ocp_coefficient(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=300, p_z=4, s_z=1, y_noise_sd=1.0), 0
        )
        est = ols_baseline(data)
        assert math.isnan(est.gamma_hat)
        assert est.selected_invalid_tcps == ()

    def test_ols_baseline_matches_direct_regression(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=300, p_z=4, s_z=1, y_noise_sd=1.0), 1
        )
        est = ols_baseline(data)
        design = np.column_stack([data.D, np.ones(data.n)])
        direct = np.linalg.lstsq(design, data.Y, rcond=None)[0]
        assert est.beta_hat == pytest.approx(float(direct[0]), rel=1e-10)

    def test_confounding_biases_ols_but_not_the_adaptive_pipeline(self):
        config = SimConfig(n=2000, p_z=10, s_z=3, reps=1, y_noise_sd=1.0)
        ols_err = []
        ad_err = []
        for rep in range(20):
            data = generate_invalid_tcp_data(config, rep)
            ols_err.append(ols_baseline(data).beta_hat - config.beta_true)
            ad_err.append(
                estimate_invalid_tcp(data).beta_hat - config.beta_true
            )
        assert abs(float(np.mean(ols_err))) > 0.02
        assert abs(float(np.mean(ad_err))) < 0.02

    def test_multi_ocp_naive_uses_every_column(self):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=5, s_z=2, p_w=3, s_w=0, y_noise_sd=1.0), 3
        )
        joint = naive_p2sls(data, ocp_index=None)
        single = naive_p2sls(data, ocp_index=0)
        assert joint.beta_hat != single.beta_hat
