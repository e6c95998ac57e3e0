import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stablenash as sn
from stablenash.core import raw_regrets
from stablenash.errors import PayoffRangeWarning, ShapeError, ValidationError

from conftest import naive_regrets, random_simplex


def profile(p, q):
    return sn.StrategyProfile.from_vectors(p, q)


class TestBimatrixGame:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sn.BimatrixGame([[1, 0]], [[1], [0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            sn.BimatrixGame([[np.nan, 0], [0, 1]], [[0, 1], [1, 0]])

    def test_out_of_range_flagged_not_rejected(self):
        with pytest.warns(PayoffRangeWarning):
            g = sn.BimatrixGame([[-0.2, 0.5], [0.5, 1.0]], [[0, 1], [1, 0]])
        assert g.range_violations() == 1

    def test_wider_declared_range_silences_flag(self):
        g = sn.BimatrixGame(
            [[-0.2, 0.5], [0.5, 1.0]], [[0, 1], [1, 0]], nominal_range=(-0.5, 1.5)
        )
        assert g.range_violations() == 0

    def test_matrices_are_read_only(self, matching_pennies):
        with pytest.raises(ValueError):
            matching_pennies.R[0, 0] = 2.0


class TestMixedStrategy:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            sn.MixedStrategy.from_probs([0.5, 0.6, -0.1])

    def test_bad_mass_rejected(self):
        with pytest.raises(ValidationError):
            sn.MixedStrategy.from_probs([0.4, 0.4])

    def test_dust_truncated_and_renormalized(self):
        ms = sn.MixedStrategy.from_probs([0.5, 0.5 - 1e-12, 1e-12])
        assert ms.support == (0, 1)
        assert ms.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_support_matches_threshold(self):
        ms = sn.MixedStrategy.from_probs([0.3, 0.7, 0.0])
        assert ms.support == (0, 1)


class TestExpectedPayoffs:
    def test_matching_pennies_center(self, matching_pennies):
        vals = sn.expected_payoffs(matching_pennies, profile([0.5, 0.5], [0.5, 0.5]))
        assert vals == (0.5, 0.5)

    def test_meeting_home(self, meeting3):
        vals = sn.expected_payoffs(meeting3, profile([1, 0, 0], [1, 0, 0]))
        assert vals == (0.5, 0.5)

    def test_gap_game_row_payoff(self, gap_game):
        # row 0 pays 1 against any q; p = e_0 realizes it
        for q in ([1, 0], [0, 1], [0.3, 0.7]):
            row_val, _ = sn.expected_payoffs(gap_game, profile([1, 0], q))
            assert row_val == pytest.approx(1.0, abs=1e-15)

    def test_shape_error(self, matching_pennies):
        with pytest.raises(ShapeError):
            sn.expected_payoffs(matching_pennies, profile([1, 0, 0], [1, 0]))


class TestVariationDistance:
    def test_disjoint_supports(self):
        a = sn.MixedStrategy.from_probs([1, 0])
        b = sn.MixedStrategy.from_probs([0, 1])
        assert sn.variation_distance(a, b) == 1.0

    def test_identity(self):
        a = sn.MixedStrategy.from_probs([0.25, 0.75])
        assert sn.variation_distance(a, a) == 0.0

    def test_direct_formula(self):
        a = sn.MixedStrategy.from_probs([0.7, 0.3])
        b = sn.MixedStrategy.from_probs([0.4, 0.6])
        assert sn.variation_distance(a, b) == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            sn.variation_distance(
                sn.MixedStrategy.from_probs([1, 0]),
                sn.MixedStrategy.from_probs([1, 0, 0]),
            )

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_metric_axioms(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b, c = (
            sn.MixedStrategy.from_probs(random_simplex(rng, n)) for _ in range(3)
        )
        dab = sn.variation_distance(a, b)
        assert dab == pytest.approx(sn.variation_distance(b, a), abs=1e-12)
        assert 0.0 <= dab <= 1.0
        assert sn.variation_distance(a, a) <= 1e-9
        assert dab <= sn.variation_distance(a, c) + sn.variation_distance(c, b) + 1e-12


class TestProfileDistance:
    def test_identical(self):
        a = profile([0.5, 0.5], [1, 0])
        assert sn.profile_distance(a, a) == 0.0

    def test_max_of_sides(self):
        a = profile([0.8, 0.2], [0.6, 0.4])
        b = profile([0.5, 0.5], [0.5, 0.5])
        assert sn.profile_distance(a, b) == pytest.approx(0.3)

    def test_pure_swap(self):
        a = profile([1, 0], [1, 0])
        b = profile([0, 1], [1, 0])
        assert sn.profile_distance(a, b) == 1.0


class TestRegrets:
    def test_exact_equilibrium_zero(self, matching_pennies):
        rep = sn.regrets(matching_pennies, profile([0.5, 0.5], [0.5, 0.5]))
        assert max(rep.max_regret, rep.max_ws_gap) <= 1e-9

    def test_gap_game_half_mix(self, gap_game):
        rep = sn.regrets(gap_game, profile([0.5, 0.5], [0.5, 0.5]))
        assert rep.row_regret == pytest.approx(0.05, abs=1e-12)
        assert rep.row_ws_gap == pytest.approx(0.1, abs=1e-12)

    def test_meeting_unbalanced_mix(self, meeting3):
        p = [0.0, 0.55, 0.45]
        rep = sn.regrets(meeting3, profile(p, p))
        ref = naive_regrets(meeting3.R, meeting3.C, p, p)
        assert rep.row_ws_gap == pytest.approx(0.1, abs=1e-12)
        assert rep.row_ws_gap == pytest.approx(ref["row_ws_gap"], abs=1e-12)
        assert rep.col_ws_gap == pytest.approx(ref["col_ws_gap"], abs=1e-12)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        g = sn.random_game(rows, cols, int(rng.integers(1 << 30)))
        p = random_simplex(rng, rows)
        q = random_simplex(rng, cols)
        rep = sn.regrets(g, profile(p, q))
        ref = naive_regrets(g.R, g.C, p, q)
        for name in ("row_regret", "col_regret", "row_ws_gap", "col_ws_gap"):
            assert getattr(rep, name) == pytest.approx(ref[name], abs=1e-9)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_well_supported_implies_plain(self, seed):
        rng = np.random.default_rng(seed)
        g = sn.random_game(3, 3, seed)
        p = random_simplex(rng, 3)
        q = random_simplex(rng, 3)
        rep = sn.regrets(g, profile(p, q))
        assert rep.max_regret <= rep.max_ws_gap + 1e-9

    @settings(max_examples=30, derandomize=True)
    @given(st.integers(0, 10_000), st.sampled_from([0.5, 2.0, 7.5]))
    def test_scaling_scales_all_fields(self, seed, lam):
        rng = np.random.default_rng(seed)
        g = sn.random_game(3, 3, seed)
        scaled = g.scaled(lam)
        p = random_simplex(rng, 3)
        q = random_simplex(rng, 3)
        rep = sn.regrets(g, profile(p, q))
        rep_scaled = sn.regrets(scaled, profile(p, q))
        for name in ("row_regret", "col_regret", "row_ws_gap", "col_ws_gap"):
            assert getattr(rep_scaled, name) == pytest.approx(
                lam * getattr(rep, name), abs=1e-9
            )


FIELDS = ("row_regret", "col_regret", "row_ws_gap", "col_ws_gap")


def _threshold_stack(rng, m, n, zero):
    """m strategy vectors whose entries are ordinary, exactly 0, exactly
    ``zero`` or the next float above it; each keeps its largest entry, so
    every vector has a support."""
    V = rng.dirichlet(np.ones(n), size=m)
    kind = rng.integers(0, 4, size=(m, n))
    kind[np.arange(m), V.argmax(axis=1)] = 0
    V[kind == 1] = 0.0
    V[kind == 2] = zero
    V[kind == 3] = np.nextafter(zero, 1.0)
    return V


class TestRawRegretsStack:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(1, 64),
        st.sampled_from([1e-9, 0.0, 1e-3]),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_naive_reference(self, rows, cols, m, zero, seed):
        rng = np.random.default_rng(seed)
        R = rng.uniform(-1.0, 1.0, size=(rows, cols))
        C = rng.uniform(-1.0, 1.0, size=(rows, cols))
        P = _threshold_stack(rng, m, rows, zero)
        Q = _threshold_stack(rng, m, cols, zero)
        stack = raw_regrets(R, C, P, Q, zero)
        for measure in stack:
            assert measure.shape == (m,)
        for k in range(m):
            ref = naive_regrets(R, C, P[k], Q[k], zero)
            for name, measure in zip(FIELDS, stack):
                assert measure[k] == pytest.approx(ref[name], abs=1e-12)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_regrets_is_the_one_row_view(self, rows, cols, m, seed):
        rng = np.random.default_rng(seed)
        g = sn.random_game(rows, cols, seed)
        zero = sn.DEFAULT_TOLS.zero
        profiles = [
            profile(p / p.sum(), q / q.sum())
            for p, q in zip(
                _threshold_stack(rng, m, rows, zero), _threshold_stack(rng, m, cols, zero)
            )
        ]
        P = np.array([pr.row.probs for pr in profiles])
        Q = np.array([pr.col.probs for pr in profiles])
        stack = raw_regrets(g.R, g.C, P, Q, zero)
        for k, pr in enumerate(profiles):
            rep = sn.regrets(g, pr)
            ref = naive_regrets(g.R, g.C, pr.row.probs, pr.col.probs, 0.0)
            for name, measure in zip(FIELDS, stack):
                assert getattr(rep, name) == pytest.approx(measure[k], abs=1e-12)
                assert getattr(rep, name) == pytest.approx(ref[name], abs=1e-12)


class TestCloseToEquilibriumIsApproximate:
    # a profile alpha-close to an exact equilibrium is a 3*alpha-equilibrium
    @settings(max_examples=25, derandomize=True)
    @given(st.integers(0, 5_000))
    def test_three_alpha_bound(self, seed):
        rng = np.random.default_rng(seed)
        g = sn.random_game(3, 3, seed)
        eqs = sn.enumerate_equilibria(g)
        eq = eqs.equilibria[int(rng.integers(len(eqs)))]
        alpha = float(rng.uniform(0.0, 0.2))
        tp = random_simplex(rng, 3)
        tq = random_simplex(rng, 3)
        tP = min(1.0, alpha / max(1e-12, 0.5 * np.abs(eq.row.probs - tp).sum()))
        tQ = min(1.0, alpha / max(1e-12, 0.5 * np.abs(eq.col.probs - tq).sum()))
        near = profile(
            (1 - tP) * eq.row.probs + tP * tp, (1 - tQ) * eq.col.probs + tQ * tq
        )
        assert sn.profile_distance(near, eq) <= alpha + 1e-9
        rep = sn.regrets(g, near)
        assert rep.max_regret <= 3 * alpha + 1e-9


class TestPerturbationWithin:
    def test_self(self, matching_pennies):
        assert sn.is_perturbation_within(matching_pennies, matching_pennies, 0.0)

    def test_single_entry(self, matching_pennies):
        R = matching_pennies.R.copy()
        R[0, 0] += 0.05
        g2 = sn.BimatrixGame(R, matching_pennies.C, (0, 1.05))
        assert sn.is_perturbation_within(matching_pennies, g2, 0.05)
        assert not sn.is_perturbation_within(matching_pennies, g2, 0.01)
