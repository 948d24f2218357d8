"""Projection and least-squares primitives."""

from __future__ import annotations

import fractions

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsel.exceptions import InvalidBound, RankDeficient
from proxsel.linalg import (
    RANK_TOL, as_flag, as_matrix, as_real, as_vector, ols, orthonormal_basis, project,
    solve_upper,
)

import oracle


class TestCoercions:
    def test_a_matrix_has_two_dimensions_and_a_row(self):
        with pytest.raises(ValueError, match="^x must be 1- or 2-dimensional, got ndim=3$"):
            as_matrix(np.zeros((2, 2, 2)), "x")
        with pytest.raises(ValueError, match="^x must have at least one row$"):
            as_matrix(np.zeros((0, 3)), "x")
        assert as_matrix([1.0, 2.0]).shape == (2, 1)

    def test_a_vector_is_one_column_at_most(self):
        np.testing.assert_array_equal(as_vector(np.array([[1.0], [2.0]])), [1.0, 2.0])
        with pytest.raises(ValueError, match=r"^v must be 1-dimensional, got shape \(2, 2\)$"):
            as_vector(np.eye(2), "v")

    @pytest.mark.parametrize("value", [0.5, 2, np.float32(0.25), np.int64(3), np.float16("nan"),
                                       fractions.Fraction(1, 4), -np.inf])
    def test_a_real_number_is_read_as_a_float(self, value):
        out = as_real(value, "x")
        assert type(out) is float
        assert out == float(value) or (np.isnan(out) and np.isnan(value))

    @pytest.mark.parametrize("value", [True, np.False_, "0.5", None, 1j, np.array(0.5), [0.5]])
    def test_anything_else_is_refused_by_name(self, value):
        with pytest.raises(InvalidBound, match=r"^x must be a real number, got "):
            as_real(value, "x")

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_a_flag_is_read_as_a_bool(self, value):
        out = as_flag(value, "x")
        assert type(out) is bool and out == value

    @pytest.mark.parametrize("value", ["no", "", 0, 1, np.int64(1), 1.0, None, np.array(True)])
    def test_anything_else_is_not_a_flag(self, value):
        with pytest.raises(InvalidBound, match=r"^x must be a bool, got "):
            as_flag(value, "x")


class TestProject:
    def test_projects_onto_first_axis(self):
        design = np.array([[1.0], [0.0]])
        target = np.array([3.0, 4.0])
        np.testing.assert_allclose(project(design, target), [3.0, 0.0])

    def test_identity_design_reproduces_target(self):
        design = np.eye(2)
        target = np.array([5.0, -2.0])
        np.testing.assert_allclose(project(design, target), target)

    def test_idempotent_on_random_input(self):
        rng = np.random.default_rng(0)
        design = rng.standard_normal((5, 2))
        target = rng.standard_normal(5)
        once = project(design, target)
        twice = project(design, once)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_matrix_target_projects_columnwise(self):
        rng = np.random.default_rng(1)
        design = rng.standard_normal((8, 3))
        targets = rng.standard_normal((8, 4))
        full = project(design, targets)
        for j in range(4):
            np.testing.assert_allclose(
                full[:, j], project(design, targets[:, j]), atol=1e-12
            )

    def test_duplicate_columns_raise(self):
        col = np.arange(4.0)
        design = np.column_stack([col, col])
        with pytest.raises(RankDeficient):
            project(design, np.ones(4))

    def test_nearly_dependent_columns_raise(self):
        col = np.arange(5.0)
        design = np.column_stack([col, col * (1 + 1e-14)])
        with pytest.raises(RankDeficient):
            project(design, np.ones(5))

    def test_a_target_with_other_rows_raises(self):
        with pytest.raises(ValueError, match="^target has 3 rows but design has 4$"):
            project(np.ones((4, 1)), np.ones(3))

    def test_symmetric_as_an_operator(self):
        rng = np.random.default_rng(2)
        design = rng.standard_normal((7, 3))
        u = rng.standard_normal(7)
        v = rng.standard_normal(7)
        assert project(design, u) @ v == pytest.approx(
            u @ project(design, v), abs=1e-10
        )


class TestOrthonormalBasis:
    def test_columns_are_orthonormal(self):
        rng = np.random.default_rng(5)
        q = orthonormal_basis(rng.standard_normal((12, 4)))
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)

    def test_span_is_preserved(self):
        rng = np.random.default_rng(6)
        design = rng.standard_normal((10, 3))
        q = orthonormal_basis(design)
        # every original column lies in the span of the basis
        recon = q @ (q.T @ design)
        np.testing.assert_allclose(recon, design, atol=1e-10)


class TestOls:
    def test_single_column_exact_fit(self):
        fit = ols(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_identity_design_returns_response(self):
        y = np.array([1.0, -3.0, 2.5])
        fit = ols(np.eye(3), y)
        np.testing.assert_allclose(fit.coefficients, y, atol=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(7)
        design = rng.standard_normal((50, 3))
        fit = ols(design, rng.standard_normal(50))
        np.testing.assert_allclose(design.T @ fit.residuals, 0.0, atol=1e-8)

    def test_coefficients_plus_residuals_reconstruct_response(self):
        rng = np.random.default_rng(8)
        design = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        fit = ols(design, y)
        np.testing.assert_allclose(
            design @ fit.coefficients + fit.residuals, y, atol=1e-10
        )

    def test_rank_deficient_raises(self):
        col = np.linspace(0.0, 1.0, 6)
        with pytest.raises(RankDeficient):
            ols(np.column_stack([col, 2 * col]), np.ones(6))

    def test_a_response_with_other_rows_raises(self):
        with pytest.raises(ValueError, match="^response has 5 rows but design has 4$"):
            ols(np.eye(4), np.ones((5, 2)))

    def test_more_columns_than_rows_raises(self):
        design = np.random.default_rng(0).normal(size=(3, 5))
        with pytest.raises(RankDeficient, match="more columns"):
            ols(design, np.ones(3))

    def test_a_design_without_columns_fits_nothing(self):
        y = np.array([1.0, -0.0, 2.5])
        fit = ols(np.zeros((3, 0)), y)
        assert fit.coefficients.shape == (0,)
        np.testing.assert_array_equal(fit.residuals, y)
        assert orthonormal_basis(np.zeros((3, 0))).shape == (3, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(
            min_value=1e-3,
            max_value=1e3,
            allow_nan=False,
            allow_infinity=False,
        ),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_column_rescaling_rescales_coefficient(self, seed, scale, sign):
        rng = np.random.default_rng(seed)
        design = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        c = sign * scale
        base = ols(design, y).coefficients
        scaled_design = design.copy()
        scaled_design[:, 1] *= c
        scaled = ols(scaled_design, y).coefficients
        assert scaled[1] * c == pytest.approx(base[1], rel=1e-8, abs=1e-12)
        assert scaled[0] == pytest.approx(base[0], rel=1e-8, abs=1e-12)


def _verdicts(errors):
    """Each factor's error message, or None when it is full rank."""
    return [None if e is None else str(e) for e in errors]


def _certify(r):
    """The rank certificate of each factor of ``r``, solving nothing."""
    return solve_upper(r, r[:, :, :0])[1]


@st.composite
def triangular_stacks(draw):
    """Upper-triangular QR factors with prescribed singular-value ratios,
    some of them defective."""
    p = draw(st.integers(1, 7))
    ratios = draw(st.lists(st.one_of(
        st.floats(-14.0, 0.0).map(lambda e: 10.0**e),
        st.floats(-1e-3, 1e-3).map(lambda d: RANK_TOL * (1.0 + d)),  # the cutoff
    ), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    factors = []
    for ratio in ratios:
        u = np.linalg.qr(rng.standard_normal((p, p)))[0]
        v = np.linalg.qr(rng.standard_normal((p, p)))[0]
        s = scale * np.geomspace(1.0, ratio, p)
        r = np.linalg.qr((u * s) @ v, mode="r")
        defect = draw(st.sampled_from(["none"] * 4 + ["zero", "nan", "inf"]))
        i, j = rng.integers(p), rng.integers(p)
        if defect == "zero":
            r[i, i] = 0.0
        elif defect != "none":  # an entry on or above the diagonal
            r[min(i, j), j] = np.nan if defect == "nan" else rng.choice([-np.inf, np.inf])
        factors.append(r)
    return np.array(factors).reshape(len(factors), p, p)


class TestRankErrors:
    """The rank certificate of :func:`solve_upper` against one SVD of every
    factor (``oracle.rank_errors``)."""

    @settings(max_examples=300, deadline=None)
    @given(r=triangular_stacks())
    def test_same_verdicts_and_messages_as_the_svd(self, r):
        finite = np.all(np.isfinite(r), axis=(1, 2))
        verdicts = _verdicts(_certify(r))
        assert [v for v, f in zip(verdicts, finite) if f] == _verdicts(
            oracle.rank_errors(r[finite]))
        for i in np.flatnonzero(~finite):
            assert verdicts[i].endswith("non-finite entries")

    def test_well_conditioned_triangular_factors_take_no_svd(self, monkeypatch):
        r = np.linalg.qr(np.random.default_rng(1).standard_normal((200, 15, 5)), mode="r")
        svd_calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert _certify(r) == [None] * 200
        assert _certify(r[:0]) == []
        assert svd_calls == []
        r[1, 2, 2], r[3, 0, 4] = 0.0, np.inf  # in doubt: one SVD, of the finite factor
        assert [e is None for e in _certify(r[:4])] == [True, False, True, False]
        assert svd_calls == [(1, 5, 5)]

    def test_factors_without_columns_are_full_rank(self):
        # The refit design of ols_baseline once (X, 1) are partialled out.
        assert _certify(np.zeros((2, 0, 0))) == [None] * 2


def _qr_factors(seed, n, p):
    """R factors of ``n`` random 15 x ``p`` designs."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 15, p)), mode="r")


class TestSolveUpper:
    @pytest.mark.parametrize("p", [1, 2, 5, 9])
    def test_solution_and_inverse_match_lapack(self, p):
        r = _qr_factors(p, 30, p)
        b = np.random.default_rng(100 + p).standard_normal((30, p, 3))
        x, errors = solve_upper(r, b)
        inv = solve_upper(r, np.broadcast_to(np.eye(p), r.shape))[0]
        assert errors == [None] * 30
        for got, want in ((x, np.linalg.solve(r, b)), (inv, np.linalg.inv(r))):
            err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
            assert np.max(err) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(r=triangular_stacks())
    def test_verdicts_are_those_of_rank_errors_on_finite_factors(self, r):
        finite = np.all(np.isfinite(r), axis=(1, 2))
        x, errors = solve_upper(r, np.ones(r.shape[:2] + (2,)))
        assert np.all(np.isfinite(x))
        assert _verdicts(errors[i] for i in np.flatnonzero(finite)) == _verdicts(
            oracle.rank_errors(r[finite]))
        for i in np.flatnonzero(~finite):
            assert str(errors[i]).endswith("non-finite entries")

    @pytest.mark.parametrize("defect", ["zero", "nan", "inf"])
    def test_a_defective_factor_gets_a_finite_placeholder(self, defect):
        r = _qr_factors(3, 4, 3)
        if defect == "zero":
            r[2, 1, 1] = 0.0
        else:
            r[2, 0, 2] = np.nan if defect == "nan" else np.inf
        b = np.ones((4, 3, 2))
        x, errors = solve_upper(r, b)
        assert isinstance(errors[2], RankDeficient)
        assert [e is None for e in errors] == [True, True, False, True]
        np.testing.assert_array_equal(x[2], 0.0)
        keep = [0, 1, 3]
        np.testing.assert_array_equal(x[keep], solve_upper(r[keep], b[keep])[0])

    def test_factors_without_columns(self):
        x, errors = solve_upper(np.zeros((3, 0, 0)), np.zeros((3, 0, 2)))
        assert x.shape == (3, 0, 2) and errors == [None] * 3
        x, errors = solve_upper(np.zeros((0, 4, 4)), np.zeros((0, 4, 1)))
        assert x.shape == (0, 4, 1) and errors == []

    def test_a_slice_solves_as_it_does_alone(self):
        r = _qr_factors(5, 12, 6)
        r[4] *= 1e-200  # scaled far from the rest: still the same bits
        r[7, 3, 3] = 0.0
        b = np.random.default_rng(6).standard_normal((12, 6, 4))
        x, errors = solve_upper(r, b)
        for i in range(12):
            alone, error = solve_upper(r[i : i + 1], b[i : i + 1])
            np.testing.assert_array_equal(x[i], alone[0])
            assert str(errors[i]) == str(error[0])

    def test_scaling_a_factor_and_its_right_side_by_a_power_of_two_changes_no_bit(self):
        r, b = _qr_factors(7, 5, 4), np.random.default_rng(8).standard_normal((5, 4, 2))
        x = solve_upper(r, b)[0]
        for k in (-600, -30, 40, 600):
            np.testing.assert_array_equal(solve_upper(np.ldexp(r, k), np.ldexp(b, k))[0], x)

