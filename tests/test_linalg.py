"""Projection and least-squares primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsel.exceptions import RankDeficient
from proxsel.linalg import RANK_TOL, ols, orthonormal_basis, project, rank_errors

import oracle


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


def _verdicts(certify, r):
    """Each factor's error message (None when full rank), or the type of
    the exception the whole stack raised."""
    try:
        return [None if e is None else str(e) for e in certify(r)]
    except np.linalg.LinAlgError as exc:  # an SVD of non-finite entries
        return type(exc)


@st.composite
def triangular_stacks(draw):
    """Upper-triangular (or, with fewer rows than columns, trapezoidal) QR
    factors with prescribed singular-value ratios, some of them defective."""
    p = draw(st.integers(1, 7))
    rows = draw(st.integers(1, p - 1)) if p > 1 and draw(st.booleans()) else p
    ratios = draw(st.lists(st.one_of(
        st.floats(-14.0, 0.0).map(lambda e: 10.0**e),
        st.floats(-1e-3, 1e-3).map(lambda d: RANK_TOL * (1.0 + d)),  # the cutoff
    ), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    factors = []
    for ratio in ratios:
        u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((p, p)))[0]
        s = scale * np.geomspace(1.0, ratio, rows)
        r = np.linalg.qr((u * s) @ v[:rows], mode="r")
        defect = draw(st.sampled_from(["none"] * 4 + ["zero", "nan", "inf"]))
        i, j = rng.integers(rows), rng.integers(p)
        if defect == "zero":
            r[i, i] = 0.0
        elif defect != "none":  # an entry on or above the diagonal
            r[min(i, j), j] = np.nan if defect == "nan" else rng.choice([-np.inf, np.inf])
        factors.append(r)
    return np.array(factors).reshape(len(factors), rows, p)


class TestRankErrors:
    @settings(max_examples=300, deadline=None)
    @given(r=triangular_stacks())
    def test_same_verdicts_and_messages_as_the_svd(self, r):
        assert _verdicts(rank_errors, r) == _verdicts(oracle.rank_errors, r)

    def test_well_conditioned_triangular_factors_take_no_svd(self, monkeypatch):
        r = np.linalg.qr(np.random.default_rng(1).standard_normal((200, 15, 5)), mode="r")
        svd_calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert rank_errors(r) == [None] * 200
        assert rank_errors(r[:0]) == []
        assert svd_calls == []
        rank_errors(r[:3, :4])  # trapezoidal: no bound applies
        rank_errors(np.array([[[2.0, 1.0], [1.0, 2.0]]]))  # square, not triangular
        assert svd_calls == [(3, 4, 5), (1, 2, 2)]
