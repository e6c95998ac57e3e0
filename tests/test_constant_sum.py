import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stablenash as sn
from stablenash import lp, stability
from stablenash.config import DEFAULT_PARTITION_BUDGET
from stablenash.errors import DomainError, ParameterError, ResourceBudgetError
from stablenash.lp import OPTIMAL, LinearProgram, _solve_stack, solve_lp
from stablenash.stability import max_distance, subset_sweep
from stablenash.support import lmm_sample

from conftest import random_simplex, region_arrays, subset_max_distance


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
        # re-derive one subset LP by hand, min x(M) for M = {0}, and run the
        # sweep itself: twice g(M) = anchor(M) - min x(M) is the L1 distance
        # of its optimizer, which the sweep lists for mask 1
        mm = sn.minimax_solve(matching_pennies)
        anchor = mm.p_star.probs
        alpha = 0.1
        rows = [(np.ones(2), "=", 1.0)]
        rows += [(matching_pennies.R[:, j], ">=", mm.v_R - alpha) for j in range(2)]
        lp = LinearProgram(2)
        for coeffs, rel, rhs in rows:
            lp.add_constraint(coeffs, rel, rhs)
        lp.set_objective([-1.0, 0.0])
        out = solve_lp(lp)
        assert out.status == OPTIMAL
        g = anchor[0] + out.objective_value
        assert 2 * g == pytest.approx(np.abs(out.solution - anchor).sum(), abs=1e-12)
        (sweep,) = subset_sweep([(*region_arrays(rows), anchor, None)], 4, sn.DEFAULT_TOLS)
        assert len(sweep) == 4  # every subset LP is feasible here
        assert sweep[1][0] == pytest.approx(2 * g, abs=1e-12)
        np.testing.assert_allclose(sweep[1][1], out.solution, atol=1e-12)
        assert max(d for d, _ in sweep) == pytest.approx(0.2, abs=1e-12)  # radius 0.1

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
    # the largest distance rounds to 2.0000000000000004 here, while no
    # variation distance exceeds 1
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


def _value_regions(game, mm, alpha):
    """Each side's value region (as the certifier states it), as arrays,
    and its minimax strategy."""
    for payoff_cols, value, optimal in (
        (game.R, mm.v_R, mm.p_star),
        (np.ascontiguousarray(game.C.T), mm.v_C, mm.q_star),
    ):
        n, k = payoff_cols.shape
        region = [(np.ones(n), "=", 1.0)]
        region += [(payoff_cols[:, j], ">=", value - alpha) for j in range(k)]
        yield region_arrays(region), n, optimal


def _circulant(n, rng):
    """R[i, j] = v[(j - i) mod n]: the uniform strategies are minimax, so
    both supports are full."""
    return rng.uniform(size=n)[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


@st.composite
def _certifier_cases(draw):
    kind = draw(st.sampled_from(["random", "rectangular", "ties", "circulant", "dominant_row"]))
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    n = draw(st.integers(2, 6))
    if kind == "random":
        R = sn.random_constant_sum_game(n, int(rng.integers(2**31))).R
    elif kind == "rectangular":
        R = rng.uniform(size=(n, draw(st.integers(2, 6))))
    elif kind == "ties":
        R = rng.integers(0, 3, size=(n, n)) / 2.0
    elif kind == "circulant":
        R = _circulant(n, rng)
    else:
        R = np.array([[1.0, 1.0], [0.0, 0.0]])
    anchor = draw(st.sampled_from(["minimax", "resampled", "foreign"]))
    return sn.BimatrixGame(R, 1.0 - R), draw(st.sampled_from([0.05, 0.1, 0.3])), anchor, rng


class TestPrunedMaximum:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_certifier_cases())
    def test_matches_every_subset_and_the_full_sweep(self, case):
        # the pruned maximum over both sides' plain and restricted regions,
        # in one call, equals one scalar LP per subset and the farthest
        # vertex of the full subset sweep; "resampled" anchors sit below the
        # minimax support and "foreign" ones put mass where the restriction
        # forbids it while it allows more than the minimax support
        game, alpha, anchor_kind, rng = case
        mm = sn.minimax_solve(game)
        requests = []
        for region, n, optimal in _value_regions(game, mm, alpha):
            ref = optimal.probs
            if anchor_kind == "resampled":
                ref = lmm_sample(optimal, max(1, len(optimal.support) - 1), rng).probs
            elif anchor_kind == "foreign":
                ref = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
                ref[rng.integers(n)] += 0.1
                ref /= ref.sum()
            upper = np.zeros(n)
            if anchor_kind == "foreign":  # a superset of the minimax support
                upper[rng.random(n) < 0.5] = np.inf
            upper[list(optimal.support)] = np.inf
            requests += [(*region, ref, None), (*region, ref, upper)]
        got = max_distance(requests, DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS)
        sweeps = subset_sweep(requests, DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS)
        for request, value, sweep in zip(requests, got, sweeps):
            assert value == pytest.approx(max([0.0] + [d for d, _ in sweep]), abs=1e-12)
            assert value == pytest.approx(
                subset_max_distance(*request, sn.DEFAULT_TOLS), abs=1e-12
            )

    @pytest.mark.parametrize("seed, rounds", [(0, 4), (1, 5), (40, 6)])
    def test_rounds_past_the_first_batch_match_every_subset(self, monkeypatch, seed, rounds):
        # full-support 6x6 anchors whose bounds stay above the incumbent
        # for several rounds of at most 2k subsets each
        game = sn.BimatrixGame(R := _circulant(6, np.random.default_rng(seed)), 1.0 - R)
        mm = sn.minimax_solve(game)
        stacks = []

        def counting(A, *rest):
            stacks.append(len(A))
            return _solve_stack(A, *rest)

        monkeypatch.setattr(stability, "_solve_stack", counting)
        region, _, optimal = next(_value_regions(game, mm, 0.05))
        request = (*region, optimal.probs, None)
        (got,) = max_distance([request], DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS)
        assert len(stacks) == rounds and max(stacks) <= 12
        assert got == pytest.approx(subset_max_distance(*request, sn.DEFAULT_TOLS), abs=1e-12)

    def test_phase_one_runs_once_per_region_per_call(self, monkeypatch):
        # both sides' value regions of a 6x6 circulant game, each under two
        # references: the bound-and-prune rounds solve their subset LPs in
        # several stacks, but phase 1 runs once per region in each call
        game = sn.BimatrixGame(R := _circulant(6, np.random.default_rng(40)), 1.0 - R)
        mm = sn.minimax_solve(game)
        rng = np.random.default_rng(0)
        requests = []
        for region, n, optimal in _value_regions(game, mm, 0.05):
            requests += [(*region, optimal.probs, None), (*region, rng.dirichlet(np.ones(n)), None)]
        stacks, phase_one = [], []
        real_stack, real_phase_one = _solve_stack, lp._phase_one

        def counting(A, *rest):
            stacks.append(len(A))
            return real_stack(A, *rest)

        def counted(A, *rest):
            phase_one.append(len(A))
            return real_phase_one(A, *rest)

        monkeypatch.setattr(stability, "_solve_stack", counting)
        monkeypatch.setattr(lp, "_phase_one", counted)
        for _ in range(2):
            stacks.clear()
            phase_one.clear()
            got = max_distance(requests, DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS)
            assert len(stacks) >= 3 and phase_one == [2]
        for request, value in zip(requests, got):
            assert value == pytest.approx(subset_max_distance(*request, sn.DEFAULT_TOLS), abs=1e-12)

    def test_empty_region_reads_zero(self):
        region = region_arrays(
            [(np.ones(3), "=", 1.0), (np.array([1.0, 1.0, 1.0]), ">=", 2.0)]
        )
        ref = np.array([0.5, 0.5, 0.0])
        pinned = np.array([0.0, np.inf, np.inf])  # nothing left movable but 1
        assert max_distance(
            [(*region, ref, None), (*region, ref, pinned)],
            DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS,
        ) == [0.0, 0.0]

    def test_budget_raises_before_any_lp(self, matching_pennies, monkeypatch):
        # the pruned maximum ranks every subset's bound, so 2^k above the
        # budget raises before its first LP, in the kernel as in the
        # certifier; at the budget the first LP is reached
        def no_lp(*args):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(stability, "_solve_stack", no_lp)
        region = region_arrays([(np.ones(3), "=", 1.0)])
        ref = np.array([0.5, 0.25, 0.25])
        pinned = np.array([0.0, np.inf, np.inf])  # leaves two movable entries
        for zero_upper, budget in ((None, 8), (pinned, 4)):
            with pytest.raises(ResourceBudgetError):
                max_distance([(*region, ref, zero_upper)], budget - 1, sn.DEFAULT_TOLS)
            with pytest.raises(AssertionError):
                max_distance([(*region, ref, zero_upper)], budget, sn.DEFAULT_TOLS)
        for certify in (sn.strong_stability_parameters, sn.well_supported_stability_parameters):
            with pytest.raises(ResourceBudgetError):
                certify(matching_pennies, 0.1, partition_budget=3)

    def test_lp_count_on_audit_shaped_game(self, monkeypatch):
        # a 12x12 game with minimax support 5 on both sides, the shape of the
        # benchmark's certify-zs games: the full sweep solves 2^5 LPs per
        # side and variant (128); bound and prune solves 43, in two stacks
        # that hold both sides
        game = sn.random_constant_sum_game(12, 0)
        mm = sn.minimax_solve(game)
        assert len(mm.p_star.support) == len(mm.q_star.support) == 5
        stacks = []

        def counting(A, *rest):
            stacks.append(len(A))
            return _solve_stack(A, *rest)

        monkeypatch.setattr(stability, "_solve_stack", counting)
        sn.well_supported_stability_parameters(game, 0.1)
        assert stacks == [20, 23]
