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

    @settings(max_examples=40, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 10_000))
    def test_rows_match_one_vector_at_a_time(self, n, m, seed):
        rng = np.random.default_rng(seed)
        V = rng.dirichlet(np.ones(n), size=m)
        V[rng.random((m, n)) < 0.2] *= 1e-11  # dust below the threshold
        V /= V.sum(axis=1, keepdims=True)
        stacked = sn.MixedStrategy.from_rows(V)
        assert len(stacked) == m
        for v, got in zip(V, stacked):
            want = sn.MixedStrategy.from_probs(v)
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.support == want.support
            assert not got.probs.flags.writeable

    def test_rows_reject_any_invalid_row(self):
        good = [0.5, 0.5]
        for bad in ([0.4, 0.4], [1.5, -0.5], [np.nan, 1.0]):
            with pytest.raises(ValidationError):
                sn.MixedStrategy.from_rows([good, bad, good])
        assert sn.MixedStrategy.from_rows(np.empty((0, 3))) == []

    def test_rows_name_the_first_bad_mass(self):
        # one array comparison finds the first row off mass 1, as a loop does
        tol = sn.DEFAULT_TOLS.sum
        rows = [[0.5, 0.5], [0.5, 0.5 + 0.5 * tol], [0.4, 0.4], [0.3, 0.3]]
        with pytest.raises(ValidationError, match=r"^strategy mass 0\.8 is not 1"):
            sn.MixedStrategy.from_rows(rows)
        assert len(sn.MixedStrategy.from_rows(rows[:2])) == 2


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

    def test_predicates_on_matching_pennies(self, matching_pennies):
        # against q = (1/2, 1/2) both rows earn 1/2; against p = (3/4, 1/4)
        # the columns earn 1/4 and 3/4 at value 1/2, so the regrets are
        # (0, 1/4) and the well-supported gaps (0, 1/2)
        rep = sn.regrets(matching_pennies, profile([0.75, 0.25], [0.5, 0.5]))
        assert (rep.max_regret, rep.max_ws_gap) == (0.25, 0.5)
        assert rep.is_epsilon_equilibrium(0.25)
        assert not rep.is_epsilon_equilibrium(0.125)
        assert rep.is_epsilon_equilibrium(0.125, slack=0.125)
        assert not rep.is_well_supported(0.25)
        assert rep.is_well_supported(0.5)
        assert rep.is_well_supported(0.25, slack=0.25)

    def test_predicates_on_dominant_row(self):
        # row 0 earns 1 and row 1 earns 0 whatever the column does; the
        # column player's payoff does not depend on its own action
        g = sn.BimatrixGame([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
        mixed = sn.regrets(g, profile([0.75, 0.25], [0.5, 0.5]))
        assert (mixed.row_regret, mixed.col_regret) == (0.25, 0.0)
        assert (mixed.row_ws_gap, mixed.col_ws_gap) == (1.0, 0.0)
        assert mixed.is_epsilon_equilibrium(0.25)
        assert not mixed.is_epsilon_equilibrium(0.125)
        assert not mixed.is_well_supported(0.5)
        assert mixed.is_well_supported(0.5, slack=0.5)
        pure = sn.regrets(g, profile([1.0, 0.0], [0.25, 0.75]))
        assert pure.is_epsilon_equilibrium(0.0)
        assert pure.is_well_supported(0.0)

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


def test_public_api_is_pinned():
    # a name leaves or joins the public API only on purpose
    assert sorted(sn.__all__) == [
        "BimatrixGame", "DEFAULT_TOLS", "EmbeddedGame", "EquilibriumSet",
        "HeavyLightSplit", "LinearProgram", "LpOutcome", "MinimaxSolution",
        "MixedStrategy", "RegretReport", "SearchResult", "StabilityReport",
        "StrategyProfile", "StrongStabilityCertificate", "Tolerances", "Witness",
        "check_constant_sum", "distance_to_set", "dominance_gap_game", "embed",
        "enumerate_equilibria", "estimate_approximation_stability",
        "estimate_perturbation_stability", "expected_payoffs", "extract",
        "find_well_supported", "heavy_light_partition", "internal_deviation",
        "is_perturbation_within", "lmm_sample", "matching_pennies", "meeting_game",
        "minimax_solve", "modified_matching_pennies", "perturbation_witness",
        "profile_distance", "public_goods", "random_constant_sum_game",
        "random_game", "random_modified_matching_pennies", "random_split_deviation",
        "random_split_probe", "regrets", "sample_approximate_equilibria",
        "small_support_approximation", "solve_lp", "strong_stability_parameters",
        "variation_distance", "well_supported_feasible",
        "well_supported_stability_parameters",
    ]
    assert all(hasattr(sn, name) for name in sn.__all__)


def _row_major_raw_regrets(R, C, p, q, zero):
    """The kernel as it reduced before it went actions-major: every
    maximum and minimum along rows."""
    P = p.reshape(-1, R.shape[0])
    Q = q.reshape(-1, R.shape[1])
    row_payoffs = Q @ R.T
    col_payoffs = P @ C
    row_best = row_payoffs.max(axis=1)
    col_best = col_payoffs.max(axis=1)
    row_value = (P * row_payoffs).sum(axis=1)
    col_value = (Q * col_payoffs).sum(axis=1)
    row_supported_min = row_payoffs.min(axis=1, where=P > zero, initial=np.inf)
    col_supported_min = col_payoffs.min(axis=1, where=Q > zero, initial=np.inf)
    return (
        np.maximum(0.0, row_best - row_value),
        np.maximum(0.0, col_best - col_value),
        np.maximum(0.0, row_best - row_supported_min),
        np.maximum(0.0, col_best - col_supported_min),
    )


def _signed_zero_stack(rng, shape, zero):
    """Entries that are ordinary, +0, -0, exactly ``zero`` or just above it,
    with whole rows at or below ``zero``."""
    V = rng.dirichlet(np.ones(shape[1]), size=shape[0])
    kind = rng.integers(0, 5, size=shape)
    V[kind == 1] = 0.0
    V[kind == 2] = -0.0
    V[kind == 3] = zero
    V[kind == 4] = np.nextafter(zero, 1.0)
    # rows with no mass above zero, the first of every stack of two or
    # more among them: their supported minimum is inf
    empty = rng.random(shape[0]) < 0.1
    empty[0] = shape[0] > 1
    V[empty] = zero
    return V


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    st.integers(1, 400),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([0.0, 1e-9, 1e-3]),
    st.integers(0, 2**32 - 1),
)
def test_raw_regrets_bytes_match_row_major_kernel(m, rows, cols, zero, seed):
    # the actions-major maxima and minima, and the row-wise sums, give the
    # row-major kernel's bytes, signed zeros and 8+ actions included
    rng = np.random.default_rng(seed)
    R, C = (rng.choice([0.0, -0.0, 0.25, -0.5, 1.0], size=(rows, cols))
            + rng.choice([0.0, 1.0], size=(rows, cols)) * rng.uniform(-1, 1, (rows, cols))
            for _ in range(2))
    P = _signed_zero_stack(rng, (m, rows), zero)
    Q = _signed_zero_stack(rng, (m, cols), zero)
    got = raw_regrets(R, C, P, Q, zero)
    want = _row_major_raw_regrets(R, C, P, Q, zero)
    for a, b in zip(got, want):
        assert a.shape == (m,)
        assert a.tobytes() == b.tobytes()
