import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stablenash as sn
from stablenash.errors import DomainError, ParameterError, ResourceBudgetError
from stablenash.lp import OPTIMAL, LinearProgram, solve_lp
from stablenash.stability import partition_sweep

from conftest import random_simplex


def dominant_row_game():
    R = np.array([[1.0, 1.0], [0.0, 0.0]])
    return sn.BimatrixGame(R, 1.0 - R)


class TestCheckConstantSum:
    def test_matching_pennies(self, matching_pennies):
        assert sn.check_constant_sum(matching_pennies) == 1.0

    def test_meeting_game_is_not(self, meeting3):
        assert sn.check_constant_sum(meeting3) is None

    def test_arbitrary_constant(self):
        R = sn.random_game(3, 4, 5).R
        g = sn.BimatrixGame(R, 0.3 - R, nominal_range=(-1, 1))
        assert sn.check_constant_sum(g) == pytest.approx(0.3, abs=1e-12)


class TestMinimaxSolve:
    def test_matching_pennies(self, matching_pennies):
        mm = sn.minimax_solve(matching_pennies)
        assert mm.v_R == pytest.approx(0.5, abs=1e-8)
        assert mm.p_star.probs == pytest.approx([0.5, 0.5], abs=1e-8)
        assert mm.q_star.probs == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_dominant_row(self):
        mm = sn.minimax_solve(dominant_row_game())
        assert mm.v_R == pytest.approx(1.0, abs=1e-8)
        assert mm.p_star.probs == pytest.approx([1.0, 0.0], abs=1e-8)

    def test_non_constant_sum_rejected(self, meeting3):
        with pytest.raises(DomainError):
            sn.minimax_solve(meeting3)

    @settings(max_examples=25, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_values_sum_to_constant(self, seed):
        g = sn.random_constant_sum_game(5, seed)
        mm = sn.minimax_solve(g)
        assert mm.v_R + mm.v_C == pytest.approx(mm.constant, abs=1e-7)
        # the guarantees hold against every pure response
        assert (mm.p_star.probs @ g.R).min() >= mm.v_R - 1e-7
        assert (g.R @ mm.q_star.probs).max() <= mm.v_R + 1e-7


class TestStrongStabilityParameters:
    def test_matching_pennies_radius(self, matching_pennies):
        # value guarantees pin each coordinate to [0.4, 0.6] at alpha = 0.1,
        # so the farthest feasible point sits 0.1 from the uniform anchor
        cert = sn.strong_stability_parameters(matching_pennies, 0.1, seed=0)
        assert cert.delta == pytest.approx(0.1, abs=1e-6)
        assert cert.max_objective == pytest.approx(0.2, abs=1e-6)
        assert cert.sandwich["stable"] == {
            "eps": 0.05,
            "delta": cert.delta * 2,
        }

    def test_dominant_row_radius_spans_the_simplex(self):
        # the column player's payoffs do not depend on its own action, so
        # every q satisfies the value constraint and the radius reaches the
        # opposite simplex corner
        g = dominant_row_game()
        cert = sn.strong_stability_parameters(g, 0.1, seed=0)
        anchor_q = cert.q_prime.probs
        expected = 1.0 - float(anchor_q.min())
        assert cert.delta == pytest.approx(expected, abs=1e-6)
        assert cert.delta == pytest.approx(1.0, abs=1e-6)

    def test_alpha_domain(self, matching_pennies):
        with pytest.raises(ParameterError):
            sn.strong_stability_parameters(matching_pennies, 0.0)
        with pytest.raises(ParameterError):
            sn.strong_stability_parameters(matching_pennies, 1.0)

    def test_anchor_is_alpha_nash(self, matching_pennies):
        cert = sn.strong_stability_parameters(matching_pennies, 0.1, seed=0)
        prof = sn.StrategyProfile(cert.p_prime, cert.q_prime)
        assert sn.regrets(matching_pennies, prof).max_regret <= 0.1 + 1e-7

    def test_sampling_branch_produces_small_anchor(self):
        # at alpha = 0.9 the target support drops below the fully mixed
        # minimax support, forcing the resampling path
        R = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [1.0, 0.0, 0.5]])
        g = sn.BimatrixGame(R, 1.0 - R)
        mm = sn.minimax_solve(g)
        assert len(mm.p_star.support) == 3
        cert = sn.strong_stability_parameters(g, 0.9, seed=12)
        assert len(cert.p_prime.support) <= 2
        prof = sn.StrategyProfile(cert.p_prime, cert.q_prime)
        assert sn.regrets(g, prof).max_regret <= 0.9 + 1e-7

    def test_feasible_points_are_alpha_nash_against_q_star(self):
        # any p meeting the value constraints forms an alpha-Nash with the
        # opponent's minimax strategy
        alpha = 0.2
        g = sn.random_constant_sum_game(4, 77)
        mm = sn.minimax_solve(g)
        rng = np.random.default_rng(5)
        for _ in range(20):
            lp = LinearProgram(4)
            lp.add_constraint(np.ones(4), "=", 1.0)
            for j in range(4):
                lp.add_constraint(g.R[:, j], ">=", mm.v_R - alpha)
            lp.set_objective(rng.uniform(-1, 1, size=4))
            out = solve_lp(lp)
            assert out.status == OPTIMAL
            prof = sn.StrategyProfile.from_vectors(out.solution, mm.q_star.probs)
            assert sn.regrets(g, prof).max_regret <= alpha + 1e-7

    def test_value_violators_are_never_near_equilibria(self):
        # if some column drives p below v_R - alpha, no pairing makes the
        # profile an alpha/2-equilibrium
        alpha = 0.2
        g = sn.random_constant_sum_game(4, 99)
        mm = sn.minimax_solve(g)
        rng = np.random.default_rng(6)
        found = 0
        for _ in range(200):
            p = random_simplex(rng, 4)
            if (p @ g.R).min() < mm.v_R - alpha - 1e-9:
                found += 1
                for _ in range(10):
                    q = random_simplex(rng, 4)
                    prof = sn.StrategyProfile.from_vectors(p, q)
                    assert sn.regrets(g, prof).max_regret > alpha / 2
        assert found > 0

    def test_partition_objective_equals_twice_distance(self, matching_pennies):
        # re-derive one partition LP by hand, and run the sweep itself, and
        # compare each objective with the variation distance of its optimizer
        mm = sn.minimax_solve(matching_pennies)
        anchor = mm.p_star.probs
        alpha = 0.1
        region = [(np.ones(2), "=", 1.0)]
        region += [(matching_pennies.R[:, j], ">=", mm.v_R - alpha) for j in range(2)]
        lp = LinearProgram(2)
        for coeffs, rel, rhs in region:
            lp.add_constraint(coeffs, rel, rhs)
        lp.add_constraint([1.0, 0.0], ">=", anchor[0])  # index 0 in the plus part
        lp.add_constraint([0.0, 1.0], "<=", anchor[1])
        lp.set_objective([1.0, -1.0])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        by_hand = (out.objective_value - anchor[0] + anchor[1], out.solution)
        (sweep,) = partition_sweep(region, 2, [(anchor, None)], 4, sn.DEFAULT_TOLS)
        assert len(sweep) == 4  # every sign partition is feasible here
        for objective, vertex in [by_hand] + sweep:
            dist = 0.5 * np.abs(vertex - anchor).sum()
            assert objective == pytest.approx(2 * dist, abs=1e-8)

    def test_partition_budget_is_never_skipped(self, matching_pennies):
        # an upper-bound certificate may not skip a partition: the anchor's
        # support of 2 needs 4 partitions per side
        with pytest.raises(ResourceBudgetError):
            sn.strong_stability_parameters(matching_pennies, 0.1, partition_budget=3)
        with pytest.raises(ResourceBudgetError):
            sn.well_supported_stability_parameters(
                matching_pennies, 0.1, partition_budget=3
            )


class TestWellSupportedParameters:
    def test_matching_pennies_full_support_unchanged(self, matching_pennies):
        # the minimax support is full, so the added zero constraints are
        # vacuous and both radii agree
        delta_l, delta_h = sn.well_supported_stability_parameters(
            matching_pennies, 0.1, seed=0
        )
        assert delta_l == pytest.approx(0.1, abs=1e-6)
        assert delta_h == pytest.approx(0.1, abs=1e-6)

    def test_dominant_row_pins_restricted_radius(self):
        delta_l, delta_h = sn.well_supported_stability_parameters(
            dominant_row_game(), 0.1, seed=0
        )
        assert delta_l == pytest.approx(0.0, abs=1e-6)
        assert delta_h == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.integers(0, 5_000))
    def test_restricted_radius_never_larger(self, seed):
        g = sn.random_constant_sum_game(3, seed)
        delta_l, delta_h = sn.well_supported_stability_parameters(g, 0.15, seed=0)
        assert delta_l <= delta_h + 1e-9


def test_radius_capped_at_one():
    # the sweep's LP optimum plus the partition constant rounds to
    # 2.000000000000003 here, while no variation distance exceeds 1
    cert = sn.strong_stability_parameters(sn.random_constant_sum_game(14, 140), 0.1)
    assert cert.max_objective > 2.0
    assert cert.delta == 1.0
    assert cert.sandwich["stable"]["delta"] == 2.0


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.integers(0, 5_000))
def test_interchangeability(seed):
    g = sn.random_constant_sum_game(3, seed)
    eqs = sn.enumerate_equilibria(g)
    for a in eqs.equilibria:
        for b in eqs.equilibria:
            crossed = sn.StrategyProfile(a.row, b.col)
            rep = sn.regrets(g, crossed)
            assert max(rep.max_regret, rep.max_ws_gap) <= 1e-7
