"""Penalized-regression solver: optimality, oracles, penalty selection."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxsel.estimators as estimators
from proxsel import lasso
from proxsel.estimators import (
    Dataset,
    EstimationConfig,
    adaptive_lasso_proximal,
    estimate_invalid_tcp,
    estimate_invalid_tcp_ocp,
    kkt_violation,
    lasso_proximal,
    lasso_solve,
    select_lambda,
)
from proxsel.exceptions import InvalidBound, NoConvergence
from proxsel.lasso import KKT_TOL, lasso_gram
from proxsel.linalg import inner, matvec, swap
from proxsel.simulation import (
    SimConfig,
    generate_invalid_tcp_data,
    generate_invalid_tcp_ocp_data,
)

import oracle
from conftest import make_exact_dataset


# --- independent solvers used as oracles ----------------------------------


def fista_lasso(x, y, lam, weights=None, tol=1e-12, max_iter=500_000):
    """Accelerated proximal-gradient solver, run to a tiny duality gap."""
    n, p = x.shape
    w = np.ones(p) if weights is None else np.asarray(weights, float)
    lip = float(np.linalg.eigvalsh(x.T @ x)[-1])
    lip = max(lip, 1e-12)
    a = np.zeros(p)
    v = a.copy()
    t = 1.0
    y_sq = max(float(y @ y), 1e-300)
    for _ in range(max_iter):
        grad = x.T @ (x @ v - y)
        step = v - grad / lip
        a_new = np.sign(step) * np.maximum(np.abs(step) - lam * w / lip, 0.0)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        v = a_new + ((t - 1.0) / t_new) * (a_new - a)
        a, t = a_new, t_new
        # Fenchel duality gap of the weighted-lasso objective
        r = y - x @ a
        corr = np.abs(x.T @ r)
        over = corr / np.maximum(lam * w, 1e-300)
        s = 1.0 / max(1.0, float(np.max(over, initial=0.0)))
        nu = s * r
        primal = 0.5 * float(r @ r) + lam * float(w @ np.abs(a))
        dual = float(nu @ y) - 0.5 * float(nu @ nu)
        if primal - dual <= tol * y_sq:
            return a
    raise AssertionError("reference solver failed to converge")


def cvxpy_lasso(x, y, lam, weights=None):
    cvxpy = pytest.importorskip("cvxpy")
    p = x.shape[1]
    w = np.ones(p) if weights is None else np.asarray(weights, float)
    a = cvxpy.Variable(p)
    objective = 0.5 * cvxpy.sum_squares(y - x @ a) + lam * cvxpy.sum(
        cvxpy.multiply(w, cvxpy.abs(a))
    )
    problem = cvxpy.Problem(cvxpy.Minimize(objective))
    problem.solve(solver="CLARABEL")
    assert problem.status == "optimal"
    return np.asarray(a.value).ravel()


def objective(x, y, a, lam, w=None):
    w = np.ones(x.shape[1]) if w is None else np.asarray(w, float)
    r = y - x @ a
    return 0.5 * float(r @ r) + lam * float(w @ np.abs(a))


def random_instance(seed, n=40, p=12, weighted=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    truth = np.zeros(p)
    truth[: p // 3] = rng.uniform(0.5, 2.0, p // 3)
    y = x @ truth + 0.3 * rng.standard_normal(n)
    lam = float(rng.uniform(0.1, 0.6)) * float(np.max(np.abs(x.T @ y)))
    w = rng.uniform(0.2, 5.0, p) if weighted else None
    return x, y, lam, w


# --- solver correctness ----------------------------------------------------


class TestLassoSolve:
    def test_zero_penalty_reduces_to_least_squares(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        sol = lasso_solve(x, y, 0.0)
        ls = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(sol, ls, atol=1e-6)

    def test_zero_penalty_singular_design_minimum_norm(self):
        col = np.linspace(1.0, 2.0, 10)
        x = np.column_stack([col, col])
        sol = lasso_solve(x, 3.0 * col, 0.0)
        ls = np.linalg.lstsq(x, 3.0 * col, rcond=None)[0]
        np.testing.assert_allclose(sol, ls, atol=1e-8)

    def test_penalty_at_gradient_norm_zeroes_solution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((25, 6))
        y = rng.standard_normal(25)
        lam_max = float(np.max(np.abs(x.T @ y)))
        sol = lasso_solve(x, y, lam_max)
        assert np.all(sol == 0.0)
        sol = lasso_solve(x, y, 2.0 * lam_max)
        assert np.all(sol == 0.0)

    def test_exact_zeros_off_support(self):
        x, y, lam, _ = random_instance(2)
        sol = lasso_solve(x, y, lam)
        assert np.any(sol == 0.0)  # sparse at this penalty, with exact zeros

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_accelerated_gradient_oracle(self, seed):
        x, y, lam, w = random_instance(seed, weighted=seed % 2 == 1)
        sol = lasso_solve(x, y, lam, w)
        ref = fista_lasso(x, y, lam, w)
        np.testing.assert_allclose(sol, ref, atol=1e-6)
        assert objective(x, y, sol, lam, w) <= objective(
            x, y, ref, lam, w
        ) + 1e-9 * float(y @ y)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_interior_point_oracle(self, seed):
        x, y, lam, w = random_instance(100 + seed, weighted=True)
        sol = lasso_solve(x, y, lam, w)
        ref = cvxpy_lasso(x, y, lam, w)
        np.testing.assert_allclose(sol, ref, atol=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_stationarity_certificate_holds(self, seed):
        x, y, lam, w = random_instance(
            200 + seed, n=30, p=40, weighted=seed % 3 == 0
        )
        sol = lasso_solve(x, y, lam, w)
        assert kkt_violation(x, y, sol, lam, w) <= 1e-6

    def test_response_and_penalty_scaling_scales_solution(self):
        x, y, lam, w = random_instance(5, weighted=True)
        base = lasso_solve(x, y, lam, w)
        for c in (0.01, 7.5, -3.0):
            scaled = lasso_solve(x, c * y, abs(c) * lam, w)
            np.testing.assert_allclose(scaled, c * base, atol=1e-8 * abs(c))

    def test_a_path_past_its_step_cap_raises(self, monkeypatch):
        # The zero-start guess fails on this design, so the path must run;
        # with no steps allowed it fails by name.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 30))
        x[:, 1] = 0.95 * x[:, 0] + 0.05 * x[:, 1]
        y = x @ (np.arange(30) % 3 == 0).astype(float)
        assert kkt_violation(x, y, lasso_solve(x, y, 1.0), 1.0) <= KKT_TOL
        monkeypatch.setattr(lasso, "PATH_STEPS_PER_COLUMN", 0)
        with pytest.raises(NoConvergence, match="did not reach its penalty"):
            lasso_solve(x, y, 1.0)

    def test_a_singular_block_on_the_path_fails_its_problem_alone(self):
        # Problem 0's second column has X'X = 0 but X'y = 1, so the path
        # enters it into a singular block; problem 1 is regular.
        gram = np.array([[[1.0, 0.0], [0.0, 0.0]], [[2.0, 0.5], [0.5, 1.0]]])
        xty = np.array([[1.0, 1.0], [1.0, -1.0]])
        sols, errors = lasso_gram(gram, xty, np.full((2, 2), 0.1), None)
        assert isinstance(errors[0], NoConvergence) and "singular" in str(errors[0])
        assert errors[1] is None
        want = np.linalg.solve(gram[1], xty[1] - 0.1 * np.sign(xty[1]))
        np.testing.assert_allclose(sols[1], want, rtol=1e-14)

    def test_a_duplicated_column_problem_fails_or_passes_on_its_own(self):
        # Problem 0 has two identical columns, so its polishing systems are
        # singular whenever both are on the support; problem 1 is regular.
        x, y, lam, w = random_instance(7, weighted=True)
        dup = x.copy()
        dup[:, 1] = dup[:, 0]
        thresh = lam * np.stack([np.ones(12), w])
        xs, ys = np.stack([dup, x]), np.stack([y, y])
        sols, errors = lasso_gram(swap(xs) @ xs, matvec(swap(xs), ys), thresh,
                                  lambda i: (xs[i], ys[i]))
        for i, design in enumerate((dup, x)):
            if errors[i] is None:
                assert kkt_violation(design, y, sols[i], 1.0, thresh[i]) <= KKT_TOL
            else:
                assert isinstance(errors[i], NoConvergence)
        assert errors[1] is None
        np.testing.assert_array_equal(sols[1], lasso_solve(x, y, lam, w))

    @pytest.mark.parametrize("seed", range(8))
    def test_polished_solution_is_the_fixed_point(self, seed):
        x, y, lam, w = random_instance(seed, weighted=seed % 2 == 1)
        polished = lasso_solve(x, y, lam, w)
        fixed_point = oracle.lasso_solve(x, y, lam, w)  # sweeps to a fixed point
        np.testing.assert_array_equal(polished != 0, fixed_point != 0)
        np.testing.assert_allclose(polished, fixed_point, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lam", [-0.1, math.nan], ids=["negative", "nan"])
    def test_negative_or_nan_penalty_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            lasso_solve(np.eye(3), np.ones(3), lam)

    @pytest.mark.parametrize("lam", [-1.0, math.nan], ids=["negative", "nan"])
    def test_the_certificate_rejects_a_negative_or_nan_penalty(self, lam):
        x, y, _, _ = random_instance(8)
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            kkt_violation(x, y, np.zeros(12), lam)

    def test_an_infinite_penalty_gives_zeros_without_warnings(self):
        x, y, _, w = random_instance(9, weighted=True)
        x[:, 4] = 0.0  # a zero column: X'y = 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = lasso_solve(x, y, math.inf, w)
            assert kkt_violation(x, y, sol, math.inf, w) == 0.0
        assert np.all(sol == 0.0)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            lasso_solve(np.eye(3), np.ones(3), 1.0, weights=[1.0, 0.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lasso_solve(np.eye(3), np.ones(4), 1.0)


# --- two-step penalized estimators vs the joint problem ---------------------


def joint_penalized_oracle(data, lam):
    """Jointly penalized regression solved by an interior-point method."""
    cvxpy = pytest.importorskip("cvxpy")
    n = data.n
    alpha = cvxpy.Variable(data.p_z)
    beta = cvxpy.Variable()
    gamma = cvxpy.Variable()
    c = cvxpy.Variable()
    from proxsel.estimators import first_stage

    what = first_stage(data).what
    resid = (
        data.Y
        - data.Z @ alpha
        - beta * data.D
        - gamma * what
        - c * np.ones(n)
    )
    problem = cvxpy.Problem(
        cvxpy.Minimize(0.5 * cvxpy.sum_squares(resid) + lam * cvxpy.norm1(alpha))
    )
    problem.solve(solver="CLARABEL")
    assert problem.status == "optimal"
    return np.asarray(alpha.value).ravel(), float(beta.value)


class TestTwoStepEqualsJoint:
    @pytest.mark.parametrize("seed", range(3))
    def test_plain_lasso_profile_equals_joint_minimizer(self, seed):
        config = SimConfig(n=120, p_z=6, s_z=2, reps=1, seed=seed, y_noise_sd=1.0)
        data = generate_invalid_tcp_data(config, 0)
        lam = 0.3 * float(np.max(np.abs(data.Z.T @ data.Y)))
        alpha_two, beta_two = lasso_proximal(data, 0, lam)
        alpha_joint, beta_joint = joint_penalized_oracle(data, lam)
        np.testing.assert_allclose(alpha_two, alpha_joint, atol=1e-5)
        assert beta_two == pytest.approx(beta_joint, abs=1e-5)


class TestAdaptiveLasso:
    def test_huge_penalty_selects_nothing(self):
        data, _ = make_exact_dataset()
        alpha, selected = adaptive_lasso_proximal(data, 0, 1e12)
        assert selected == ()
        assert np.all(alpha == 0.0)

    def test_exact_pilot_selects_exactly_the_invalid_proxy(self):
        data, _ = make_exact_dataset()
        _, selected = adaptive_lasso_proximal(
            data, 0, select_lambda(data, mode="rate")
        )
        assert selected == (0,)

    @pytest.mark.parametrize("lam", [-1.0, math.nan], ids=["negative", "nan"])
    def test_negative_or_nan_penalty_is_an_invalid_bound(self, lam):
        data, _ = make_exact_dataset()
        with pytest.raises(InvalidBound, match="lambda_n"):
            lasso_proximal(data, 0, lam)
        with pytest.raises(InvalidBound, match="lambda_n"):
            adaptive_lasso_proximal(data, 0, lam)
        with pytest.raises(InvalidBound, match="lambda_n"):
            EstimationConfig(lambda_n=lam)

    def test_an_infinite_penalty_selects_nothing_without_warnings(self):
        data, _ = make_exact_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, selected = adaptive_lasso_proximal(data, 0, math.inf)
            est = estimate_invalid_tcp(data, 0, EstimationConfig(lambda_n=math.inf))
        assert selected == () and np.all(alpha == 0.0)
        assert est.selected_invalid_tcps == () and np.all(est.alpha_hat == 0.0)

    def test_zero_penalty_ignores_weights(self):
        data, _ = make_exact_dataset()
        alpha, _ = adaptive_lasso_proximal(data, 0, 0.0)
        plain, _ = lasso_proximal(data, 0, 0.0)
        np.testing.assert_allclose(alpha, plain, atol=1e-8)


# --- penalty selection ------------------------------------------------------


class TestSelectLambda:
    def test_rate_formula(self):
        rng = np.random.default_rng(7)
        config = SimConfig(n=2500, p_z=4, s_z=1, reps=1)
        data = generate_invalid_tcp_data(config, 0)
        # normalize the outcome so its sample deviation is exactly one
        y = data.Y - data.Y.mean()
        y /= np.std(y, ddof=1)
        unit = Dataset(Y=y, D=data.D, Z=data.Z, W=data.W)
        lam = select_lambda(unit, mode="rate")
        assert lam == pytest.approx(math.sqrt(2500) / math.log(2500), rel=1e-12)
        assert lam == pytest.approx(6.39, abs=0.01)

    def test_rate_matches_formula_on_raw_data(self):
        data = generate_invalid_tcp_data(SimConfig(n=800, p_z=5, s_z=2), 3)
        lam = select_lambda(data, mode="rate")
        expected = float(
            np.std(data.Y, ddof=1) * math.sqrt(800) / math.log(800)
        )
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_unknown_mode_rejected(self):
        data, _ = make_exact_dataset()
        with pytest.raises(InvalidBound):
            select_lambda(data, mode="oracle")

    @pytest.mark.parametrize("mode", ["rate", "cv"])
    def test_ocp_index_is_checked_in_both_modes(self, mode):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=200, p_z=4, s_z=1, p_w=2, y_noise_sd=1.0), 0
        )
        with pytest.raises(IndexError, match="ocp_index"):
            select_lambda(data, 99, mode)
        with pytest.raises(IndexError, match="ocp_index"):
            select_lambda(data, -1, mode)
        assert select_lambda(data, 1, mode) > 0

    def test_cv_needs_enough_rows(self):
        rng = np.random.default_rng(8)
        tiny = Dataset(
            Y=rng.standard_normal(12),
            D=rng.standard_normal(12),
            Z=rng.standard_normal((12, 2)),
            W=rng.standard_normal((12, 1)),
        )
        with pytest.raises(InvalidBound):
            select_lambda(tiny, mode="cv")

    def test_cv_mode_builds_one_reduced_design_per_ocp(self, monkeypatch):
        built = []
        reduced_design = estimators._reduced_design

        def counting(*args):
            built.append(len(args[1]))  # the problems built in this call
            return reduced_design(*args)

        monkeypatch.setattr(estimators, "_reduced_design", counting)
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=200, p_z=5, s_z=1, p_w=3, s_w=0, y_noise_sd=1.0), 0
        )
        config = EstimationConfig(lambda_mode="cv")
        estimate_invalid_tcp(data, 1, config)
        assert sum(built) == 1
        built.clear()
        estimate_invalid_tcp_ocp(data, config)
        assert sum(built) == data.p_w

    def test_cv_on_pure_noise_prefers_the_empty_model(self):
        rng = np.random.default_rng(9)
        n = 200
        data = Dataset(
            Y=rng.standard_normal(n),
            D=rng.standard_normal(n),
            Z=rng.standard_normal((n, 5)),
            W=rng.standard_normal((n, 1)),
        )
        lam = select_lambda(data, mode="cv")
        alpha, _ = lasso_proximal(data, 0, lam)
        assert np.all(alpha == 0.0)

    def test_cv_scales_with_the_response(self):
        data = generate_invalid_tcp_data(
            SimConfig(n=300, p_z=5, s_z=2, y_noise_sd=1.0), 1
        )
        lam = select_lambda(data, mode="cv")
        scaled = Dataset(Y=4.0 * data.Y, D=data.D, Z=data.Z, W=data.W)
        assert select_lambda(scaled, mode="cv") == pytest.approx(
            4.0 * lam, rel=1e-12
        )

    def test_cv_recovers_the_invalid_set(self):
        hits = 0
        for rep in range(10):
            config = SimConfig(n=5000, p_z=10, s_z=3, seed=77, y_noise_sd=1.0)
            data = generate_invalid_tcp_data(config, rep)
            lam = select_lambda(data, mode="cv")
            _, selected = adaptive_lasso_proximal(data, 0, lam)
            hits += selected == (0, 1, 2)
        assert hits >= 9

    def test_rate_mode_selection_is_consistent(self):
        hits = 0
        reps = 50
        for rep in range(reps):
            config = SimConfig(n=5000, p_z=10, s_z=3, seed=5, y_noise_sd=1.0)
            data = generate_invalid_tcp_data(config, rep)
            est = estimate_invalid_tcp(data, 0, EstimationConfig(lambda_mode="rate"))
            hits += est.selected_invalid_tcps == (0, 1, 2)
        assert hits / reps >= 0.95


# --- support blocks and the polish before the first sweep ------------------


def _stack(seeds, p=12, n=40):
    """Weighted-lasso instances in covariance form, one per seed."""
    inst = [random_instance(s, n=n, p=p, weighted=True) for s in seeds]
    x = np.stack([i[0] for i in inst])
    y = np.stack([i[1] for i in inst])
    thresh = np.stack([i[2] * i[3] for i in inst])
    return x, y, swap(x) @ x, matvec(swap(x), y), thresh


class TestSupportSolve:
    @pytest.mark.parametrize("seed", range(6))
    def test_support_blocks_match_the_padded_systems(self, seed):
        # Half the supports and signs are each problem's lasso solution (the
        # polish succeeds), half are random (it mostly fails).
        rng = np.random.default_rng(seed)
        x, y, gram, xty, thresh = _stack(range(10 * seed, 10 * seed + 40))
        sols, _ = lasso_gram(gram, xty, thresh, lambda i: (x[i], y[i]))
        on, sign = sols != 0, np.sign(sols)
        rand = rng.random(on.shape) < rng.uniform(0.0, 1.0, (len(on), 1))
        on[::2], sign[::2] = rand[::2], np.where(rng.random(on.shape) < 0.5, -1.0, 1.0)[::2]
        sol, ok = lasso._support_solve(gram, xty, thresh, on, sign)
        want, want_ok = oracle.support_solve(gram, xty, thresh, on, sign)
        np.testing.assert_array_equal(ok, want_ok)
        assert ok[1::2].all() and not ok[::2].all()
        np.testing.assert_allclose(sol, want, rtol=1e-12, atol=0)

    def test_a_singular_support_fails_alone(self):
        # The duplicated-column problem of TestLassoSolve: with both copies on
        # the support its block is singular, whatever the other problems do.
        x, y, lam, w = random_instance(7, weighted=True)
        dup = x.copy()
        dup[:, 1] = dup[:, 0]
        xs, ys = np.stack([dup, x, dup]), np.stack([y, y, y])
        gram, xty = swap(xs) @ xs, matvec(swap(xs), ys)
        thresh = lam * np.stack([np.ones(12), w, np.ones(12)])
        on = np.zeros((3, 12), dtype=bool)
        on[:, :3] = True
        on[2, 1] = False  # one copy only: regular
        sign = np.ones((3, 12))
        sol, ok = lasso._support_solve(gram, xty, thresh, on, sign)
        want, want_ok = oracle.support_solve(gram, xty, thresh, on, sign)
        np.testing.assert_array_equal(ok, want_ok)
        assert not ok[0] and np.isnan(sol[0, :3]).all() and np.isnan(want[0]).all()
        np.testing.assert_allclose(sol[1:], want[1:], rtol=1e-12, atol=0)


def _recorded_stacks(monkeypatch, run):
    """The inputs of every ``lasso_gram`` call that ``run`` makes."""
    stacks = []
    solve = lasso.lasso_gram

    def recording(gram, xty, thresh, rows):
        stacks.append((np.array(gram), np.array(xty), np.array(thresh), rows))
        return solve(gram, xty, thresh, rows)

    monkeypatch.setattr(lasso, "lasso_gram", recording)
    monkeypatch.setattr(estimators, "lasso_gram", recording)
    run()
    monkeypatch.undo()
    return stacks


def oracle_lassos(gram, xty, thresh, rows, max_sweeps=oracle.DEFAULT_MAX_SWEEPS):
    """The coordinate-descent oracle on one ``lasso_gram`` stack: one
    penalty per problem, or a grid solved with warm starts. Its duality gap
    needs ``y'y``, which the covariance form leaves out; ``y'P y``, the part
    of it that the design explains, takes its place (at a solution the gap
    does not depend on it)."""
    yy = inner(xty, matvec(np.linalg.pinv(gram, hermitian=True), xty))
    if thresh.ndim == 3:
        return oracle.cd_grid(gram, xty, yy, thresh)
    return oracle.cd_lasso_gram(gram, xty, yy, thresh, rows, max_sweeps=max_sweeps)


def assert_same_lassos(new, old, rtol=1e-12):
    """Two solvers' outputs on one stack: the same problems fail, and the
    others have the same supports and signs, with values within ``rtol`` of
    each problem's largest magnitude."""
    (sol, errors), (want, want_errors) = new, old
    assert [e is None for e in errors] == [e is None for e in want_errors]
    for i in np.flatnonzero([e is None for e in errors]):
        np.testing.assert_array_equal(np.sign(sol[i]), np.sign(want[i]))
        scale = np.max(np.abs(want[i]), initial=0.0)
        assert np.max(np.abs(sol[i] - want[i]), initial=0.0) <= rtol * scale


class TestPolishFirst:
    def _same_supports(self, stacks):
        for gram, xty, thresh, rows in stacks:
            assert_same_lassos(lasso_gram(gram, xty, thresh, rows),
                               oracle_lassos(gram, xty, thresh, rows))

    @pytest.mark.filterwarnings("ignore::proxsel.exceptions.WeakProxyWarning")
    def test_selection_and_cv_stacks_keep_their_supports_and_signs(self, monkeypatch):
        data = generate_invalid_tcp_ocp_data(
            SimConfig(n=400, p_z=10, s_z=3, p_w=5, s_w=1, y_noise_sd=1.0), 0
        )
        stacks = _recorded_stacks(monkeypatch, lambda: (
            estimators.subsample_ci(data, n_subsamples=40, seed=2),
            select_lambda(data, 0, "cv"),
        ))
        # two subsample blocks, then the cv grid and the weighted lasso
        assert [t.ndim for _, _, t, _ in stacks] == [2, 2, 3, 2]
        self._same_supports(stacks)

    def test_random_weighted_lassos_keep_their_supports_and_signs(self):
        x, y, gram, xty, thresh = _stack(range(100, 140))
        self._same_supports([(gram, xty, thresh, lambda i: (x[i], y[i]))])

    def test_the_zero_start_guess_settles_most_problems(self, monkeypatch):
        _, _, gram, xty, thresh = _stack(range(200, 240))
        walked = []
        path = lasso._path

        def counting(gram, xty, thresh, stops):
            walked.append(len(xty))
            return path(gram, xty, thresh, stops)

        monkeypatch.setattr(lasso, "_path", counting)
        lasso_gram(gram, xty, thresh, None)
        assert walked[0] < len(xty) / 2  # 13 of 40 on these seeds


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 12),
    scale=st.floats(-7.5, 7.5),
)
# The oracle puts weight on the costlier twin here, within KKT_TOL.
@example(seed=309, p=12, scale=-7.0)
@example(seed=250, p=11, scale=-7.0)
def test_random_stacks_match_the_coordinate_descent_oracle(seed, p, scale):
    # Eight weighted lassos: problem 0 has a duplicated column, problem 1 a
    # zero column, and each problem's thresholds spread over a decade around
    # 10**scale times its own max |X'y|, so over 1e-8 to 1e8 in all. Problem
    # 0's exact solution leaves the twin with the larger threshold at 0; the
    # oracle's sweeps may not, so there only its objective is compared.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 30, p))
    x[0, :, 1] = x[0, :, 0]
    x[1, :, 2] = 0.0
    y = x[:, :, : p // 2] @ rng.uniform(0.5, 2.0, p // 2) + rng.standard_normal((8, 30))
    gram, xty = swap(x) @ x, matvec(swap(x), y)
    exponents = scale + rng.uniform(-0.5, 0.5, (8, p))
    thresh = np.max(np.abs(xty), axis=1, keepdims=True) * 10.0 ** exponents

    def rows(i):
        return x[i], y[i]

    sols, errors = lasso_gram(gram, xty, thresh, rows)
    want, want_errors = oracle_lassos(gram, xty, thresh, rows, max_sweeps=300)
    for i in range(8):
        assert errors[i] is None
        assert kkt_violation(x[i], y[i], sols[i], 1.0, thresh[i]) <= KKT_TOL
        if i == 0:
            assert sols[0, np.argmax(thresh[0, :2])] == 0.0
        if i == 0 or want_errors[i] is not None:  # the oracle's sweeps crawl
            assert objective(x[i], y[i], sols[i], 1.0, thresh[i]) <= objective(
                x[i], y[i], want[i], 1.0, thresh[i]) * (1.0 + 1e-12)
        else:
            assert_same_lassos((sols[i:i + 1], [None]), (want[i:i + 1], [None]), rtol=1e-9)
