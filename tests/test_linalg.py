"""Projection, least-squares, and Gram-extreme primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsel.exceptions import RankDeficient
from proxsel.linalg import (
    gram_support_extremes,
    ols,
    orthonormal_basis,
    project,
    residual_project,
)

from conftest import angular_sweep_extremes


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

    def test_symmetric_as_an_operator(self):
        rng = np.random.default_rng(2)
        design = rng.standard_normal((7, 3))
        u = rng.standard_normal(7)
        v = rng.standard_normal(7)
        assert project(design, u) @ v == pytest.approx(
            u @ project(design, v), abs=1e-10
        )


class TestResidualProject:
    def test_removes_span_component(self):
        design = np.array([[1.0], [0.0]])
        target = np.array([3.0, 4.0])
        np.testing.assert_allclose(
            residual_project(design, target), [0.0, 4.0]
        )

    def test_orthogonal_target_unchanged(self):
        design = np.array([[1.0], [0.0], [0.0]])
        target = np.array([0.0, 2.0, -1.0])
        np.testing.assert_allclose(
            residual_project(design, target), target, atol=1e-12
        )

    def test_additive_decomposition(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((9, 4))
        target = rng.standard_normal(9)
        recon = project(design, target) + residual_project(design, target)
        np.testing.assert_allclose(recon, target, atol=1e-10)

    def test_pythagorean_split(self):
        rng = np.random.default_rng(4)
        design = rng.standard_normal((30, 5))
        target = rng.standard_normal(30)
        fit = project(design, target)
        resid = residual_project(design, target)
        lhs = float(target @ target)
        rhs = float(fit @ fit) + float(resid @ resid)
        assert lhs == pytest.approx(rhs, rel=1e-8)


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
        assert fit.residual_variance == pytest.approx(
            float(fit.residuals @ fit.residuals) / 20, rel=1e-12
        )

    def test_rank_deficient_raises(self):
        col = np.linspace(0.0, 1.0, 6)
        with pytest.raises(RankDeficient):
            ols(np.column_stack([col, 2 * col]), np.ones(6))

    def test_more_columns_than_rows_raises(self):
        design = np.random.default_rng(0).normal(size=(3, 5))
        with pytest.raises(RankDeficient, match="more columns"):
            ols(design, np.ones(3))

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


class TestGramSupportExtremes:
    def test_orthonormal_columns_give_unit_extremes(self):
        q = orthonormal_basis(np.random.default_rng(9).standard_normal((9, 3)))
        lo, hi = gram_support_extremes(q, [0, 1, 2])
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_single_column_returns_squared_norm(self):
        col = np.array([1.0, 2.0, 2.0])
        lo, hi = gram_support_extremes(col[:, None], [0])
        assert lo == pytest.approx(9.0, abs=1e-12)
        assert hi == pytest.approx(9.0, abs=1e-12)

    def test_pair_support_matches_angular_sweep(self):
        rng = np.random.default_rng(10)
        design = rng.standard_normal((6, 4))
        support = [1, 3]
        lo, hi = gram_support_extremes(design, support)
        gram = design[:, support].T @ design[:, support]
        sweep_lo, sweep_hi = angular_sweep_extremes(gram)
        assert lo == pytest.approx(sweep_lo, abs=1e-6 * max(1.0, hi))
        assert hi == pytest.approx(sweep_hi, abs=1e-6 * max(1.0, hi))

    def test_extremes_bound_arbitrary_unit_vectors(self):
        rng = np.random.default_rng(11)
        design = rng.standard_normal((8, 5))
        support = [0, 2, 4]
        lo, hi = gram_support_extremes(design, support)
        sub = design[:, support]
        for _ in range(200):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            q = float(np.sum((sub @ v) ** 2))
            assert lo - 1e-9 <= q <= hi + 1e-9
