"""Identifiability checks and selection-stage diagnostics."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsel.exceptions import (
    AssumptionViolation,
    CombinatorialBlowup,
    EmptySupport,
    InvalidBound,
    SingularBlock,
)
from proxsel.identification import (
    check_identification,
    check_majority_rule,
    irrepresentable_diagnostic,
    rip_constants,
    rip_recovery_margin,
)
from proxsel.linalg import orthonormal_basis

from conftest import angular_sweep_extremes


class TestMajorityRule:
    def test_bound_at_half_is_enough(self):
        assert check_majority_rule(10, 5) is True

    def test_bound_above_half_is_not(self):
        assert check_majority_rule(10, 6) is False

    def test_odd_count_uses_real_half(self):
        assert check_majority_rule(9, 4) is True
        assert check_majority_rule(9, 5) is False

    def test_bound_must_be_positive(self):
        with pytest.raises(InvalidBound):
            check_majority_rule(10, 0)

    def test_bound_cannot_exceed_proxy_count(self):
        with pytest.raises(InvalidBound):
            check_majority_rule(10, 11)


class TestCheckIdentification:
    def test_three_agreeing_pairs_identify(self):
        report = check_identification(
            [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 8.0], invalid_bound=3
        )
        assert report.identified is True
        assert report.distinct_q_count == 1
        assert report.method == "subset_enumeration"
        subsets = {s: q for s, q in report.subsets}
        assert set(subsets) == {(0, 1), (0, 2), (1, 2)}
        for q in subsets.values():
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_two_ratio_clusters_fail(self):
        report = check_identification(
            [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 6.0, 8.0], invalid_bound=3
        )
        assert report.identified is False
        assert report.distinct_q_count == 2
        subsets = {s: q for s, q in report.subsets}
        assert subsets[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert subsets[(2, 3)] == pytest.approx(2.0, abs=1e-12)

    def test_proportional_vectors_identify_with_common_ratio(self):
        rng = np.random.default_rng(0)
        delta = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        gamma = -0.75 * delta
        report = check_identification(delta, gamma, invalid_bound=3)
        assert report.identified is True
        assert len(report.subsets) == math.comb(6, 4)
        for _, q in report.subsets:
            assert q == pytest.approx(-0.75, rel=1e-10)

    def test_zero_consistent_subsets_count_as_identified(self):
        # no common ratio anywhere: vacuously at most one distinct ratio
        report = check_identification(
            [1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], invalid_bound=1
        )
        assert report.identified is True
        assert report.distinct_q_count == 0
        assert report.subsets == []

    def test_near_zero_delta_raises_with_indices(self):
        with pytest.raises(AssumptionViolation) as err:
            check_identification(
                [1.0, 1e-9, 2.0], [1.0, 1.0, 2.0], invalid_bound=1
            )
        assert err.value.indices == [1]

    def test_bound_out_of_range_raises(self):
        with pytest.raises(InvalidBound):
            check_identification([1.0, 2.0], [1.0, 2.0], invalid_bound=0)
        with pytest.raises(InvalidBound):
            check_identification([1.0, 2.0], [1.0, 2.0], invalid_bound=3)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_identification([1.0, 2.0], [1.0], invalid_bound=1)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tolerance_outside_zero_to_infinity_raises(self, tol):
        # NaN used to make every subset consistent and every ratio distinct, a
        # negative tol gave a vacuous verdict, and inf a relevance failure.
        with pytest.raises(InvalidBound, match="tol must lie in"):
            check_identification([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 8.0], 3, tol=tol)
        assert check_identification([1.0, 2.0], [1.0, 2.0], 1, tol=0.0).identified

    def test_many_proxies_list_every_subset_and_ratio(self):
        report = check_identification(
            [1.0] * 15, [1.0] * 5 + [2.0] * 5 + [3.0] * 5, invalid_bound=11
        )
        assert report.identified is False
        assert report.distinct_q_count == 3
        assert [s for s, _ in report.subsets] == [
            tuple(range(0, 5)), tuple(range(5, 10)), tuple(range(10, 15))
        ]

    def test_combinatorial_guard_refuses(self):
        with pytest.raises(CombinatorialBlowup) as err:
            check_identification([1.0] * 30, [1.0] * 30, invalid_bound=15)
        assert err.value.n_combinations == math.comb(30, 16)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_joint_rescaling_preserves_verdict_and_ratios(
        self, seed, scale, sign
    ):
        rng = np.random.default_rng(seed)
        delta = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        gamma = 1.3 * delta
        gamma[:2] += rng.uniform(0.5, 1.5, 2)  # two invalid proxies
        base = check_identification(delta, gamma, invalid_bound=2)
        c = sign * scale
        scaled = check_identification(c * delta, c * gamma, invalid_bound=2)
        assert scaled.identified == base.identified
        assert scaled.distinct_q_count == base.distinct_q_count
        for (s_a, q_a), (s_b, q_b) in zip(base.subsets, scaled.subsets):
            assert s_a == s_b
            assert q_b == pytest.approx(q_a, rel=1e-9)

    def test_minority_invalid_always_identifies(self):
        # bounded invalid count below half the proxies pins a unique ratio
        rng = np.random.default_rng(42)
        for _ in range(200):
            p_z = int(rng.integers(3, 9))
            bound = int(rng.integers(1, p_z // 2 + 1))
            n_invalid = int(rng.integers(0, bound))
            delta = rng.uniform(0.5, 2.0, p_z) * rng.choice([-1.0, 1.0], p_z)
            q_true = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            gamma = q_true * delta
            bad = rng.choice(p_z, size=n_invalid, replace=False)
            gamma[bad] += rng.uniform(0.5, 2.0, n_invalid) * rng.choice(
                [-1.0, 1.0], n_invalid
            )
            report = check_identification(delta, gamma, invalid_bound=bound)
            assert report.identified is True
            assert check_majority_rule(p_z, bound) is True
            # the surviving ratio is the true one
            valid = tuple(sorted(set(range(p_z)) - set(bad.tolist())))
            qs = [q for s, q in report.subsets if set(s) <= set(valid)]
            assert qs and all(
                q == pytest.approx(q_true, rel=1e-9) for q in qs
            )


class TestIrrepresentable:
    def test_orthogonal_design_value_zero(self):
        q = orthonormal_basis(np.random.default_rng(1).standard_normal((9, 4)))
        report = irrepresentable_diagnostic(q, [0, 1])
        assert report.irrepresentable_value == pytest.approx(0.0, abs=1e-10)
        assert report.irrepresentable_holds is True

    def test_duplicated_column_sits_exactly_at_one(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(20)
        other = rng.standard_normal(20)
        design = np.column_stack([col, col, other])
        report = irrepresentable_diagnostic(design, [0])
        assert report.irrepresentable_value == pytest.approx(1.0, abs=1e-12)
        assert report.irrepresentable_holds is False

    def test_strong_cross_loading_exceeds_one(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(200)
        shadow = 2.0 * base + 0.05 * rng.standard_normal(200)
        design = np.column_stack([base, shadow, rng.standard_normal(200)])
        report = irrepresentable_diagnostic(design, [0])
        assert report.irrepresentable_value > 1.0
        assert report.irrepresentable_holds is False
        # agree with the direct matrix formula
        c = design.T @ design / 200
        direct = np.max(np.abs(c[[1, 2], :][:, [0]] @ np.linalg.solve(c[[0]][:, [0]], [1.0])))
        assert report.irrepresentable_value == pytest.approx(direct, rel=1e-12)

    def test_sign_flip_symmetry_for_singleton_set(self):
        rng = np.random.default_rng(4)
        design = rng.standard_normal((50, 4))
        plus = irrepresentable_diagnostic(design, [1], sign_vector=[1.0])
        minus = irrepresentable_diagnostic(design, [1], sign_vector=[-1.0])
        assert plus.irrepresentable_value == pytest.approx(
            minus.irrepresentable_value, rel=1e-12
        )

    def test_empty_set_raises(self):
        with pytest.raises(EmptySupport):
            irrepresentable_diagnostic(np.eye(3), [])

    def test_full_set_raises(self):
        with pytest.raises(InvalidBound):
            irrepresentable_diagnostic(np.eye(3), [0, 1, 2])

    def test_singular_block_raises(self):
        col = np.arange(6.0)
        design = np.column_stack([col, col, np.ones(6)])
        with pytest.raises(SingularBlock):
            irrepresentable_diagnostic(design, [0, 1])

    def test_bad_sign_entries_raise(self):
        with pytest.raises(ValueError):
            irrepresentable_diagnostic(np.eye(3), [0], sign_vector=[0.5])


class TestRipConstants:
    def test_orthonormal_columns_are_perfectly_isometric(self):
        q = orthonormal_basis(np.random.default_rng(5).standard_normal((9, 4)))
        for k in (1, 2, 3, 4):
            lo, hi = rip_constants(q, k)
            assert lo == pytest.approx(1.0, abs=1e-10)
            assert hi == pytest.approx(1.0, abs=1e-10)

    def test_order_one_gives_column_norm_range(self):
        design = np.diag([1.0, 2.0, 3.0])
        lo, hi = rip_constants(design, 1)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(9.0, abs=1e-12)

    def test_pairwise_order_matches_angular_sweep(self):
        rng = np.random.default_rng(6)
        design = rng.standard_normal((8, 5)) / np.sqrt(8)
        lo, hi = rip_constants(design, 2)
        sweep_lo, sweep_hi = math.inf, -math.inf
        for support in combinations(range(5), 2):
            sub = design[:, support]
            s_lo, s_hi = angular_sweep_extremes(sub.T @ sub)
            sweep_lo = min(sweep_lo, s_lo)
            sweep_hi = max(sweep_hi, s_hi)
        assert lo == pytest.approx(sweep_lo, abs=1e-6)
        assert hi == pytest.approx(sweep_hi, abs=1e-6)

    def test_extremes_widen_with_order(self):
        rng = np.random.default_rng(7)
        design = rng.standard_normal((12, 6)) / np.sqrt(12)
        prev_lo, prev_hi = rip_constants(design, 1)
        for k in (2, 3, 4):
            lo, hi = rip_constants(design, k)
            assert lo <= prev_lo + 1e-12
            assert hi >= prev_hi - 1e-12
            prev_lo, prev_hi = lo, hi

    def test_duplicated_column_collapses_lower_constant(self):
        col = np.random.default_rng(8).standard_normal(10)
        design = np.column_stack([col, col, np.random.default_rng(9).standard_normal(10)])
        lo, _ = rip_constants(design, 2)
        assert lo == pytest.approx(0.0, abs=1e-10)

    def test_combinatorial_guard_refuses(self):
        design = np.random.default_rng(10).standard_normal((40, 30))
        with pytest.raises(CombinatorialBlowup) as err:
            rip_constants(design, 10)
        assert err.value.n_combinations == math.comb(30, 10)

    def test_order_out_of_range_raises(self):
        with pytest.raises(InvalidBound):
            rip_constants(np.eye(3), 0)
        with pytest.raises(InvalidBound):
            rip_constants(np.eye(3), 4)

    # With k = p there is one support, so the constants are the extreme
    # eigenvalues of the Gram matrix of ``design[:, S]``.

    def test_full_support_of_orthonormal_columns_gives_unit_extremes(self):
        q = orthonormal_basis(np.random.default_rng(9).standard_normal((9, 3)))
        lo, hi = rip_constants(q[:, [0, 1, 2]], 3)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_single_column_returns_squared_norm(self):
        col = np.array([1.0, 2.0, 2.0])
        lo, hi = rip_constants(col[:, None], 1)
        assert lo == pytest.approx(9.0, abs=1e-12)
        assert hi == pytest.approx(9.0, abs=1e-12)

    def test_pair_support_matches_angular_sweep(self):
        rng = np.random.default_rng(10)
        design = rng.standard_normal((6, 4))
        support = [1, 3]
        lo, hi = rip_constants(design[:, support], len(support))
        gram = design[:, support].T @ design[:, support]
        sweep_lo, sweep_hi = angular_sweep_extremes(gram)
        assert lo == pytest.approx(sweep_lo, abs=1e-6 * max(1.0, hi))
        assert hi == pytest.approx(sweep_hi, abs=1e-6 * max(1.0, hi))

    def test_full_support_extremes_bound_arbitrary_unit_vectors(self):
        rng = np.random.default_rng(11)
        design = rng.standard_normal((8, 5))
        support = [0, 2, 4]
        lo, hi = rip_constants(design[:, support], len(support))
        sub = design[:, support]
        for _ in range(200):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            q = float(np.sum((sub @ v) ** 2))
            assert lo - 1e-9 <= q <= hi + 1e-9


class TestRipRecoveryMargin:
    def test_orthonormal_proxies_with_orthogonal_targets(self):
        q = orthonormal_basis(
            np.random.default_rng(11).standard_normal((20, 6))
        )
        z, what, d_tilde = q[:, :4], q[:, 4], q[:, 5]
        report = rip_recovery_margin(z, what, d_tilde, s_z=1)
        assert report.recovery_margin == pytest.approx(1.0, abs=1e-10)
        assert report.rip["tcp"] == pytest.approx((1.0, 1.0), abs=1e-10)
        assert report.rip["ocp_fit"][1] == pytest.approx(0.0, abs=1e-10)
        assert report.rip["treatment_resid"][1] == pytest.approx(
            0.0, abs=1e-10
        )

    def test_duplicated_proxy_column_breaks_the_condition(self):
        rng = np.random.default_rng(12)
        col = rng.standard_normal(20)
        z = np.column_stack([col, col, rng.standard_normal(20)])
        report = rip_recovery_margin(
            z, rng.standard_normal(20), rng.standard_normal(20), s_z=1
        )
        assert report.recovery_margin < 0.0

    def test_margin_recomposes_from_reported_constants(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((40, 6)) / np.sqrt(40)
        report = rip_recovery_margin(
            z, rng.standard_normal(40), rng.standard_normal(40), s_z=2
        )
        lo_z, hi_z = report.rip["tcp"]
        recomposed = (
            2.0 * lo_z
            - hi_z
            - 2.0 * report.rip["ocp_fit"][1]
            - 2.0 * report.rip["treatment_resid"][1]
        )
        assert report.recovery_margin == pytest.approx(recomposed, abs=1e-12)

    def test_sparsity_above_half_raises(self):
        with pytest.raises(InvalidBound):
            rip_recovery_margin(
                np.eye(4), np.ones(4), np.ones(4), s_z=3
            )
