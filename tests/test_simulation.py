"""Synthetic data generation and the Monte Carlo harness."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from proxsel import estimators, simulation
from proxsel.estimators import EstimationConfig
from proxsel.exceptions import AggregateFailure, InvalidBound, WeakProxyWarning
from proxsel.simulation import (
    METHOD_NAMES,
    STUDY_NAMES,
    MonteCarloReport,
    SimConfig,
    SubsampleCiConfig,
    generate_invalid_tcp_data,
    generate_invalid_tcp_ocp_data,
    run_monte_carlo,
    run_study,
)

from conftest import PopulationMoments
from oracle import run_monte_carlo_serial


def assert_metrics_equal(a: MonteCarloReport, b: MonteCarloReport) -> None:
    assert set(a.methods) == set(b.methods)
    for name in a.methods:
        ma, mb = a.methods[name], b.methods[name]
        for field in ("coverage", "ci_length", "bias", "se", "rmse"):
            va, vb = getattr(ma, field), getattr(mb, field)
            assert (math.isnan(va) and math.isnan(vb)) or va == vb, (
                name,
                field,
            )
        assert ma.n_used == mb.n_used
        assert ma.n_failed == mb.n_failed


class TestConfigValidation:
    def test_counts_must_be_consistent(self):
        with pytest.raises(InvalidBound):
            SimConfig(p_z=4, s_z=5)
        with pytest.raises(InvalidBound):
            SimConfig(p_w=2, s_w=3)
        with pytest.raises(InvalidBound):
            SimConfig(n=0)
        with pytest.raises(InvalidBound):
            SimConfig(reps=0)

    @pytest.mark.parametrize("n", [5, 12])
    def test_too_few_rows_for_a_dataset_is_an_invalid_bound(self, n):
        # It used to be accepted and fail at the first draw with a ValueError.
        with pytest.raises(InvalidBound, match=rf"need n > p_z \+ p_w \+ 1 = 12, got n = {n}$"):
            SimConfig(n=n, p_z=10, p_w=1)

    def test_the_fewest_rows_a_dataset_takes_are_accepted(self):
        report = run_monte_carlo(SimConfig(n=13, p_z=10, p_w=1, reps=2), ("ols",))
        assert report.methods["ols"].n_used == 2

    def test_a_negative_seed_is_an_invalid_bound(self):
        # numpy's stream keys refuse it too, but only at the first draw
        with pytest.raises(InvalidBound, match="seed must be >= 0, got -2"):
            SimConfig(seed=-2)

    def test_scales_must_be_positive(self):
        with pytest.raises(InvalidBound):
            SimConfig(u_sd=0.0)
        with pytest.raises(InvalidBound):
            SimConfig(y_noise_sd=-1.0)
        SimConfig(y_noise_sd=0.0)  # exactly zero outcome noise is allowed

    FLOAT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type == "float"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_floats_are_invalid_bounds(self, field, value):
        # Accepted, each would fail later under another name (a NaN outcome
        # as a bare ValueError from Dataset).
        with pytest.raises(InvalidBound, match=f"{field} must be finite"):
            SimConfig(**{field: value})

    def test_the_list_holds_every_float_field(self):
        assert len(self.FLOAT_FIELDS) == 13

    INT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type == "int"]

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_non_integer_counts_are_invalid_bounds(self, field, value):
        # reps=2.5 used to be accepted, and run_monte_carlo then raised a bare TypeError.
        with pytest.raises(InvalidBound, match=f"^{field} must be an integer"):
            SimConfig(**{field: value})
        config = SimConfig(**{field: np.int64(getattr(SimConfig(), field))})
        assert config == SimConfig() and type(getattr(config, field)) is int

    def test_the_list_holds_every_int_field(self):
        assert self.INT_FIELDS == ["n", "p_z", "p_w", "s_z", "s_w", "reps", "seed"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_adaptive_floor_is_an_invalid_bound(self, value):
        # NaN used to fail as NoConvergence, inf as RankDeficient.
        with pytest.raises(InvalidBound, match="adaptive_floor"):
            EstimationConfig(adaptive_floor=value)
        assert EstimationConfig(lambda_n=math.inf).lambda_n == math.inf  # a defined penalty

    def test_single_ocp_generator_requires_one_valid_column(self):
        with pytest.raises(InvalidBound):
            generate_invalid_tcp_data(SimConfig(p_w=2), 0)
        with pytest.raises(InvalidBound):
            generate_invalid_tcp_data(SimConfig(p_w=1, s_w=1), 0)


class TestSubsampleSettings:
    """A bad subsampling setting is an InvalidBound up front, not a failure
    of every median_adaptive replication (AggregateFailure)."""

    def test_no_subsamples_is_an_invalid_bound(self):
        with pytest.raises(InvalidBound, match="n_subsamples must be >= 1, got 0"):
            SubsampleCiConfig(n_subsamples=0)

    @pytest.mark.parametrize("value", [2.5, 30.0, "30"])
    @pytest.mark.parametrize("field", ["n_subsamples", "b"])
    def test_a_non_integer_count_is_an_invalid_bound(self, field, value):
        with pytest.raises(InvalidBound, match=f"^{field} must be an integer"):
            SubsampleCiConfig(**{field: value})
        config = SubsampleCiConfig(**{field: np.int64(30)})
        assert getattr(config, field) == 30 and type(getattr(config, field)) is int

    @pytest.mark.parametrize("b", [5, 10, 300, 301])
    def test_a_size_out_of_range_fails_before_any_draw(self, b, monkeypatch):
        drawn = []
        draw = simulation.generate_invalid_tcp_ocp_data
        monkeypatch.setattr(simulation, "generate_invalid_tcp_ocp_data",
                            lambda *args: drawn.append(args) or draw(*args))
        config = SimConfig(n=300, p_z=6, p_w=3, reps=3)
        with pytest.raises(InvalidBound, match=rf"= 10 < b < n = 300, got b = {b}$"):
            run_monte_carlo(config, ("adaptive", "median_adaptive"), SubsampleCiConfig(b=b))
        assert drawn == []

    def test_the_size_binds_only_where_the_interval_runs(self):
        config = SimConfig(n=300, p_z=6, p_w=3, reps=3)
        report = run_monte_carlo(config, ("adaptive",), SubsampleCiConfig(b=5))
        assert set(report.methods) == {"adaptive"}


class TestGenerator:
    def test_identical_inputs_give_bit_identical_draws(self):
        config = SimConfig(n=200, p_z=4, s_z=1, p_w=3, s_w=1, seed=9)
        a = generate_invalid_tcp_ocp_data(config, 5)
        b = generate_invalid_tcp_ocp_data(config, 5)
        for field in ("Y", "D", "Z", "W"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_replications_differ(self):
        config = SimConfig(n=200, p_z=4, s_z=1, seed=9)
        a = generate_invalid_tcp_data(config, 0)
        b = generate_invalid_tcp_data(config, 1)
        assert not np.array_equal(a.Y, b.Y)

    def test_seeds_differ(self):
        a = generate_invalid_tcp_data(SimConfig(n=200, p_z=4, s_z=1, seed=1), 0)
        b = generate_invalid_tcp_data(SimConfig(n=200, p_z=4, s_z=1, seed=2), 0)
        assert not np.array_equal(a.Y, b.Y)

    def test_single_ocp_generator_matches_the_general_one(self):
        config = SimConfig(n=150, p_z=3, s_z=1, p_w=1, s_w=0, seed=4)
        a = generate_invalid_tcp_data(config, 2)
        b = generate_invalid_tcp_ocp_data(config, 2)
        for field in ("Y", "D", "Z", "W"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_sample_moments_match_the_structural_equations(self):
        config = SimConfig(
            n=100_000, p_z=3, s_z=1, p_w=2, s_w=1, y_noise_sd=1.0, seed=0
        )
        data = generate_invalid_tcp_ocp_data(config, 0)
        pm = PopulationMoments(config)
        sample = np.column_stack([data.Z, data.D, data.W, data.Y])
        loads = np.vstack(
            [pm.loadings["Z"], pm.loadings["D"], pm.loadings["W"], pm.loadings["Y"]]
        )
        consts = np.concatenate(
            [
                pm.const["Z"],
                [pm.const["D"]],
                pm.const["W"],
                [pm.const["Y"]],
            ]
        )
        np.testing.assert_allclose(sample.mean(axis=0), consts, atol=0.05)
        np.testing.assert_allclose(
            np.cov(sample, rowvar=False), pm.cov(loads, loads), atol=0.08
        )

    def test_confounder_scale_is_a_standard_deviation(self):
        # the shared confounder contributes its variance, u_sd**2, to the
        # covariance of any two distinct TCP columns
        config = SimConfig(n=200_000, p_z=2, s_z=0, u_sd=0.5, seed=1)
        data = generate_invalid_tcp_data(config, 0)
        cov = float(np.cov(data.Z[:, 0], data.Z[:, 1])[0, 1])
        assert cov == pytest.approx(0.25, abs=0.01)

    def test_dataset_shapes(self):
        config = SimConfig(n=120, p_z=5, s_z=2, p_w=4, s_w=2)
        data = generate_invalid_tcp_ocp_data(config, 0)
        assert data.n == 120
        assert data.p_z == 5
        assert data.p_w == 4
        assert data.p_x == 0


class TestPopulationRefit:
    """Why criterion 4's median sits near ``beta - 0.16``, not below -1.

    ``W_k = c + U + xi_w D + e_k`` and ``Y`` loads on ``U`` with
    ``confounder_loading_y``, so ``E[W_k | Z, D] = c + E[U | Z, D] + xi_w
    D`` and ``E[Y | Z, D] = (beta - confounder_loading_y xi_w) D +
    confounder_loading_y E[W_k | Z, D] + Z alpha + const`` exactly. The
    population refit of Y on (D, the invalid TCPs, fitted ``W_k``) therefore
    converges to ``beta - confounder_loading_y xi_w_invalid`` for an invalid
    OCP, even with the true invalid TCP set, and to ``beta`` for a valid one.
    """

    @pytest.mark.parametrize("xi_w, loading", [(0.8, 0.2), (3.0, 0.4)])
    def test_an_invalid_ocp_shifts_the_refit_by_its_confounding(self, xi_w, loading):
        config = SimConfig(n=2500, p_z=10, s_z=5, p_w=10, s_w=6,
                           xi_w_invalid=xi_w, confounder_loading_y=loading)
        pm = PopulationMoments(config)
        m = np.vstack([pm.loadings["Z"], pm.loadings["D"]])
        for k in range(config.p_w):
            delta = np.linalg.solve(pm.cov(m, m), pm.cov(m, pm.loadings["W"][k]))
            regressors = np.vstack(
                [pm.loadings["D"], pm.loadings["Z"][: config.s_z], delta.T @ m]
            )
            coef = np.linalg.solve(
                pm.cov(regressors, regressors), pm.cov(regressors, pm.loadings["Y"])
            )
            shift = loading * xi_w if k < config.s_w else 0.0
            assert abs(coef[0, 0] - (config.beta_true - shift)) <= 1e-10, k


class TestRunMonteCarlo:
    def test_report_structure_and_determinism(self):
        config = SimConfig(n=200, p_z=4, s_z=1, reps=5, y_noise_sd=1.0)
        a = run_monte_carlo(config, ("adaptive", "ols"))
        b = run_monte_carlo(config, ("adaptive", "ols"))
        assert set(a.methods) == {"adaptive", "ols"}
        assert a.reps == 5
        assert_metrics_equal(a, b)

    def test_thread_count_does_not_change_the_report(self):
        config = SimConfig(n=200, p_z=4, s_z=1, reps=8, y_noise_sd=1.0)
        serial = run_monte_carlo(config, ("adaptive", "naive"))
        threaded = run_monte_carlo(config, ("adaptive", "naive"), n_jobs=4)
        assert_metrics_equal(serial, threaded)

    def test_worker_count_does_not_change_the_warnings(self):
        # subsample_ci silences the warnings of its subsample fits through
        # the process-wide filter list, so replications must not overlap.
        config = SimConfig(n=800, p_z=10, s_z=3, p_w=10, s_w=3, reps=6, seed=7)
        ci_config = SubsampleCiConfig(n_subsamples=30)
        counts = []
        for n_jobs in (1, 4):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                filters = list(warnings.filters)
                run_monte_carlo(
                    config, ("median_adaptive",), ci_config, n_jobs=n_jobs
                )
                assert warnings.filters == filters
            counts.append(
                sum(issubclass(w.category, WeakProxyWarning) for w in caught)
            )
        assert counts[0] == counts[1]

    def test_single_replication_reports_absolute_bias_as_rmse(self):
        config = SimConfig(n=200, p_z=4, s_z=1, reps=1, y_noise_sd=1.0)
        report = run_monte_carlo(config, ("adaptive",))
        m = report.methods["adaptive"]
        assert m.n_used == 1
        assert math.isnan(m.se)
        assert m.rmse == pytest.approx(abs(m.bias), rel=1e-12)

    def test_error_decomposition_identity(self):
        config = SimConfig(n=200, p_z=4, s_z=1, reps=10, y_noise_sd=1.0)
        report = run_monte_carlo(config, ("adaptive", "naive", "ols"))
        for m in report.methods.values():
            decomposed = m.bias**2 + m.se**2 * (m.n_used - 1) / m.n_used
            assert m.rmse**2 == pytest.approx(decomposed, rel=1e-12)

    def test_methods_without_intervals_report_nan_coverage(self):
        config = SimConfig(
            n=200, p_z=4, s_z=1, p_w=3, s_w=0, reps=3, y_noise_sd=1.0
        )
        report = run_monte_carlo(config, ("median_adaptive",))
        m = report.methods["median_adaptive"]
        assert math.isnan(m.coverage) and math.isnan(m.ci_length)
        assert math.isfinite(m.bias)

    def test_subsampling_config_attaches_intervals_to_the_median_method(self):
        config = SimConfig(
            n=200, p_z=4, s_z=1, p_w=3, s_w=0, reps=3, y_noise_sd=1.0
        )
        report = run_monte_carlo(
            config,
            ("median_adaptive",),
            SubsampleCiConfig(n_subsamples=10),
        )
        m = report.methods["median_adaptive"]
        assert math.isfinite(m.coverage)
        assert m.ci_length > 0.0

    def test_a_failed_interval_drops_its_replication(self):
        # cv mode needs 20 rows, so every subsample of 19 fails, and with
        # them each replication's interval; its estimate goes too.
        config = SimConfig(n=200, p_z=4, s_z=1, p_w=3, reps=2, y_noise_sd=1.0)
        with pytest.raises(AggregateFailure) as failure:
            run_monte_carlo(config, ("median_adaptive",), SubsampleCiConfig(n_subsamples=4, b=19),
                            EstimationConfig(lambda_mode="cv"))
        assert failure.value.n_failed == 2

    def test_recentred_interval_fits_the_full_sample_once(self, monkeypatch):
        # The median comes from the block's stack, so the recentring centre
        # needs no per-replication fit and the full sample one factorization.
        config = SimConfig(n=300, p_z=4, s_z=1, p_w=3, reps=1)
        medians, full_size = [], []
        factor, median = estimators._factor, estimators.estimate_invalid_tcp_ocp

        def counting_factor(data, design, size):
            full_size.extend(design(i).shape[0] == config.n for i in range(size))
            return factor(data, design, size)

        def counting_median(*args, **kwargs):
            medians.append(args)
            return median(*args, **kwargs)

        monkeypatch.setattr(estimators, "_factor", counting_factor)
        monkeypatch.setattr(simulation, "estimate_invalid_tcp_ocp", counting_median)
        monkeypatch.setattr(estimators, "estimate_invalid_tcp_ocp", counting_median)
        ci_config = SubsampleCiConfig(n_subsamples=5, recenter=True)
        report = run_monte_carlo(config, ("median_adaptive",), ci_config)
        assert medians == [] and sum(full_size) == 1
        assert math.isfinite(report.methods["median_adaptive"].ci_length)

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError):
            run_monte_carlo(SimConfig(reps=1), ("bootstrap",))
        assert "bootstrap" not in METHOD_NAMES

    @pytest.mark.parametrize("methods, message", [
        (("adaptive", "adaptive", "ols"), "method 'adaptive' is listed twice"),
        ((), "no method given"),
    ], ids=["duplicate", "empty"])
    def test_a_duplicate_or_empty_method_list_fails_before_any_draw(
        self, methods, message, monkeypatch
    ):
        # A duplicate used to pool its replications twice: n_used=10 of 5.
        drawn = []
        draw = simulation.generate_invalid_tcp_ocp_data
        monkeypatch.setattr(simulation, "generate_invalid_tcp_ocp_data",
                            lambda *args: drawn.append(args) or draw(*args))
        config = SimConfig(n=300, p_z=5, s_z=1, reps=5, y_noise_sd=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_monte_carlo(config, methods)
        assert drawn == []

    def test_systematic_failures_abort_the_run(self):
        # marking every TCP invalid leaves the oracle refit rank-deficient
        config = SimConfig(n=100, p_z=4, s_z=4, reps=5, y_noise_sd=1.0)
        with pytest.raises(AggregateFailure):
            run_monte_carlo(config, ("oracle",))

    def test_an_aborted_run_names_its_first_failure(self):
        # At a zero penalty every TCP is selected, so no replication of the
        # adaptive methods has a valid TCP left.
        config = SimConfig(n=300, p_z=6, p_w=3, reps=23)
        with pytest.raises(AggregateFailure) as failure:
            run_monte_carlo(config, METHOD_NAMES, None, EstimationConfig(lambda_n=0.0))
        assert str(failure.value) == (
            "method 'adaptive' failed on 23 of 23 replications (more than 10%); first "
            "failure: AssumptionViolation: all 6 TCPs were selected as invalid at "
            "lambda_n=0.0; no valid TCP is left to identify the effect")

    def test_interval_methods_cover_at_moderate_scale(self):
        config = SimConfig(n=800, p_z=6, s_z=2, reps=30, y_noise_sd=1.0)
        report = run_monte_carlo(config, ("adaptive", "oracle"))
        assert report.methods["adaptive"].coverage >= 0.8
        assert report.methods["oracle"].coverage >= 0.8
        assert abs(report.methods["adaptive"].bias) < 0.05


def run_recorded(run, config, methods, ci_config=None, est_config=None):
    """A run's report, every float as its exact bits (NaN-aware), or its
    error; and the multiset of the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = run(config, methods, ci_config, est_config)
            result = (report.reps, report.n_failed, report.config, {
                name: tuple(v.hex() if isinstance(v, float) else v
                            for v in dataclasses.astuple(metrics))
                for name, metrics in report.methods.items()
            })
        except AggregateFailure as exc:
            result = (type(exc), str(exc), exc.n_failed, exc.n_total)
    return result, Counter((w.category, str(w.message)) for w in caught)


def test_a_failed_monte_carlo_median_names_the_per_ocp_cause():
    # Every OCP selects every TCP at a zero penalty; the run used to say only
    # "only 0 of 3 per-OCP runs succeeded; need at least 2".
    with pytest.raises(AggregateFailure) as err:
        run_monte_carlo(SimConfig(n=300, p_z=6, p_w=3, reps=23), ("median_adaptive",),
                        None, EstimationConfig(lambda_n=0.0))
    assert str(err.value).endswith(
        "need at least 2; OCP 0 failed with AssumptionViolation: all 6 TCPs were "
        "selected as invalid at lambda_n=0.0; no valid TCP is left to identify the effect")


class TestBlockedReplications:
    """Replications are fitted in blocks of 20 as stacks; the report and
    warnings must be those of one replication and one method at a time."""

    CELLS = {  # SimConfig fields, methods, subsampling, estimation config
        "p_w=1": (dict(n=200, p_z=4, s_z=1, y_noise_sd=1.0), METHOD_NAMES, None, None),
        "criterion-1 design": (dict(n=300, p_z=10, s_z=3), METHOD_NAMES, None, None),
        "p_w=3, interval": (dict(n=200, p_z=6, s_z=2, p_w=3, s_w=1, y_noise_sd=1.0),
                            METHOD_NAMES, SubsampleCiConfig(n_subsamples=8), None),
        "p_w=3, recentred": (dict(n=200, p_z=6, s_z=2, p_w=3, s_w=1), METHOD_NAMES,
                             SubsampleCiConfig(n_subsamples=8, recenter=True), None),
        # some OCPs fail relevance: medians over a bare majority, or none
        "median alone, recentred": (dict(n=100, p_z=4, s_z=1, p_w=4, y_noise_sd=1.0,
                                         u_sd=1e-12, w_noise_sd=2e-8), ("median_adaptive",),
                                    SubsampleCiConfig(n_subsamples=8, recenter=True), None),
        "median alone, cv": (dict(n=200, p_z=6, s_z=2, p_w=4, s_w=1, y_noise_sd=1.0),
                             ("median_adaptive",), None, EstimationConfig(lambda_mode="cv")),
        # every TCP invalid: each oracle refit is rank-deficient
        "failing oracle": (dict(n=100, p_z=4, s_z=4), ("adaptive", "oracle"), None, None),
        # OCP coefficients near DELTA_FLOOR: some replications fail relevance
        "relevance failures": (dict(n=100, p_z=4, s_z=1, y_noise_sd=1.0, u_sd=1e-12,
                                    w_noise_sd=6e-8), METHOD_NAMES, None, None),
    }

    @pytest.mark.parametrize("reps", [1, 19, 20, 21, 43])
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_blocks_give_the_one_at_a_time_report(self, cell, reps):
        fields, methods, ci_config, est_config = self.CELLS[cell]
        config = SimConfig(**fields, reps=reps, seed=reps)
        args = (config, methods, ci_config, est_config)
        assert run_recorded(run_monte_carlo, *args) == run_recorded(
            run_monte_carlo_serial, *args)

    def test_cv_mode_gives_the_one_at_a_time_report(self):
        config = SimConfig(n=200, p_z=6, s_z=2, y_noise_sd=1.0, reps=5)
        args = (config, METHOD_NAMES, None, EstimationConfig(lambda_mode="cv"))
        assert run_recorded(run_monte_carlo, *args) == run_recorded(
            run_monte_carlo_serial, *args)

    def test_cv_mode_factors_each_block_once_and_keeps_no_rows(self, monkeypatch):
        cores = []
        factor = estimators._factor

        def recording_factor(data, design, size):
            cores.append(factor(data, design, size))
            return cores[-1]

        monkeypatch.setattr(estimators, "_factor", recording_factor)
        config = SimConfig(n=300, p_z=5, s_z=2, reps=4, y_noise_sd=1.0)
        cv = EstimationConfig(lambda_mode="cv")
        for methods in (("adaptive", "median_adaptive"), ("median_adaptive",)):
            cores.clear()
            run_monte_carlo(config, methods, None, cv)
            # one factor of the block's 4 datasets; the folds rebuild their
            # rows from the datasets, so the factor holds no n-row array
            assert [core.r.shape[0] for core in cores] == [4]
            shapes = [f.shape for f in cores[0] if isinstance(f, np.ndarray)]
            assert shapes and all(config.n not in shape for shape in shapes)
            assert cores[0].design(3).shape == (300, 9)

    def test_the_grid_exercises_failures_and_warnings(self):
        def run(cell, reps):
            fields, methods, ci_config, est_config = self.CELLS[cell]
            return run_recorded(run_monte_carlo, SimConfig(**fields, reps=reps, seed=reps),
                                methods, ci_config, est_config)

        _, caught = run("criterion-1 design", 43)
        assert caught and {category for category, _ in caught} == {WeakProxyWarning}
        failure, _ = run("failing oracle", 21)
        assert failure[0] is AggregateFailure and failure[2] == 21
        (_, n_failed, _, methods), _ = run("relevance failures", 43)
        assert 0 < n_failed == sum(m[-1] for m in methods.values())

    def test_one_factorization_per_block(self, monkeypatch):
        calls = []
        factor = estimators._factor

        def counting_factor(data, design, size):
            calls.append([design(i).shape for i in range(size)])
            return factor(data, design, size)

        monkeypatch.setattr(estimators, "_factor", counting_factor)
        config = SimConfig(n=300, p_z=5, s_z=2, reps=4, y_noise_sd=1.0)
        run_monte_carlo(config, ("adaptive", "oracle", "naive", "ols"))
        # A = [X, 1, Z, D, W, Y] has 0 + 1 + 5 + 1 + 1 + 1 columns
        assert calls == [[(300, 9)] * 4]
        calls.clear()
        # the median fits on its block's one factor too
        run_monte_carlo(SimConfig(n=300, p_z=5, s_z=2, reps=45), METHOD_NAMES)
        assert [len(c) for c in calls] == [20, 20, 5]

    def test_the_working_set_grows_with_the_block_not_the_replications(self):
        # 200 replications of 300 rows x 22 columns would hold about 10 MB
        # of datasets and factors at once; one block of 20 holds a tenth.
        methods = ("adaptive", "oracle", "naive", "ols")
        fields = dict(n=300, p_z=10, s_z=3, p_w=10, s_w=3)
        run_monte_carlo(SimConfig(**fields, reps=1), methods)  # warm-up
        peaks = []
        for reps in (20, 200):
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", WeakProxyWarning)
                    run_monte_carlo(SimConfig(**fields, reps=reps), methods)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class TestRunStudy:
    def test_unknown_study_is_rejected(self):
        with pytest.raises(ValueError):
            run_study("exhaustive")
        with pytest.raises(ValueError):
            run_study(STUDY_NAMES[0], scale="huge")

    def test_study_names_are_exported(self):
        assert set(STUDY_NAMES) == {
            "single_ocp_n",
            "single_ocp_sz",
            "multi_ocp_n",
            "multi_ocp_grid",
        }

    def test_each_study_runs_its_cells_methods_and_interval(self, monkeypatch):
        calls = []

        def record(config, methods, ci_config=None, est_config=None, n_jobs=1):
            calls.append((config, tuple(methods), ci_config, est_config))
            return len(calls)

        monkeypatch.setattr(simulation, "run_monte_carlo", record)
        grid = [(f"s_z={a},s_w={b}", 2500, a, 10, b) for a in (3, 4, 5, 6) for b in (3, 4, 5, 6)]
        assert [label for label, *_ in grid] == (
            "s_z=3,s_w=3 s_z=3,s_w=4 s_z=3,s_w=5 s_z=3,s_w=6 "
            "s_z=4,s_w=3 s_z=4,s_w=4 s_z=4,s_w=5 s_z=4,s_w=6 "
            "s_z=5,s_w=3 s_z=5,s_w=4 s_z=5,s_w=5 s_z=5,s_w=6 "
            "s_z=6,s_w=3 s_z=6,s_w=4 s_z=6,s_w=5 s_z=6,s_w=6"
        ).split()
        studies = {  # cells as (label, n, s_z, p_w, s_w), methods, interval
            "single_ocp_n": (
                [("n=1500", 1500, 3, 1, 0), ("n=2500", 2500, 3, 1, 0),
                 ("n=5000", 5000, 3, 1, 0)],
                ("adaptive", "oracle", "naive", "ols"), False,
            ),
            "single_ocp_sz": (
                [(f"s_z={k}", 2500, k, 1, 0) for k in (1, 2, 3, 4, 5, 6, 7, 8)],
                ("adaptive", "naive"), False,
            ),
            "multi_ocp_n": (
                [("n=1500", 1500, 3, 10, 3), ("n=2500", 2500, 3, 10, 3),
                 ("n=5000", 5000, 3, 10, 3)],
                ("median_adaptive", "oracle", "naive", "ols"), True,
            ),
            "multi_ocp_grid": (grid, ("median_adaptive",), False),
        }
        est_config = EstimationConfig(lambda_n=3.0)
        for scale, reps, n_sub in (("desk", 200, 200), ("full", 500, 1000)):
            for study, (cells, methods, with_ci) in studies.items():
                calls.clear()
                reports = run_study(study, scale, seed=5, est_config=est_config)
                assert list(reports) == [label for label, *_ in cells]
                assert list(reports.values()) == list(range(1, len(cells) + 1))
                ci = SubsampleCiConfig(n_subsamples=n_sub) if with_ci else None
                assert calls == [
                    (SimConfig(n=n, p_z=10, s_z=s_z, p_w=p_w, s_w=s_w, reps=reps, seed=5),
                     methods, ci, est_config)
                    for _, n, s_z, p_w, s_w in cells
                ]
