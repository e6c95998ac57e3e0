import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stablenash as sn
from stablenash import oracle
from stablenash.config import DEFAULT_TOLS
from stablenash.errors import DomainError, ResourceBudgetError


def test_matching_pennies_unique(matching_pennies):
    eqs = sn.enumerate_equilibria(matching_pennies)
    assert len(eqs) == 1
    assert eqs.complete
    eq = eqs.equilibria[0]
    assert eq.row.probs == pytest.approx([0.5, 0.5], abs=1e-9)
    assert eq.col.probs == pytest.approx([0.5, 0.5], abs=1e-9)


def test_meeting_game_census(meeting3):
    eqs = sn.enumerate_equilibria(sn.meeting_game(4))
    assert len(eqs) == 10  # 4 pure matches plus C(4,2) half-half pairs
    assert sn.enumerate_equilibria(meeting3).complete
    for eq in eqs.equilibria:
        rep = sn.regrets(sn.meeting_game(4), eq)
        assert max(rep.max_regret, rep.max_ws_gap) <= 1e-7


def test_public_goods_unique_zero_contribution():
    eqs = sn.enumerate_equilibria(sn.public_goods(3))
    assert len(eqs) == 1
    eq = eqs.equilibria[0]
    assert eq.row.probs == pytest.approx([1, 0, 0], abs=1e-9)
    assert eq.col.probs == pytest.approx([1, 0, 0], abs=1e-9)


def test_all_equilibria_verify(meeting3):
    eqs = sn.enumerate_equilibria(meeting3)
    for eq in eqs.equilibria:
        rep = sn.regrets(meeting3, eq)
        assert max(rep.max_regret, rep.max_ws_gap) <= 1e-7


@settings(max_examples=20, derandomize=True)
@given(st.integers(0, 5_000))
def test_constant_sum_equilibria_hit_the_value(seed):
    g = sn.random_constant_sum_game(3, seed)
    mm = sn.minimax_solve(g)
    for eq in sn.enumerate_equilibria(g).equilibria:
        row_val, _ = sn.expected_payoffs(g, eq)
        assert row_val == pytest.approx(mm.v_R, abs=1e-7)


@settings(max_examples=20, derandomize=True)
@given(st.integers(0, 5_000))
def test_action_permutation_permutes_equilibria(seed):
    g = sn.random_game(3, 3, seed)
    rng = np.random.default_rng(seed + 7)
    rp = rng.permutation(3)
    cp = rng.permutation(3)
    permuted = sn.BimatrixGame(g.R[np.ix_(rp, cp)], g.C[np.ix_(rp, cp)])
    eqs = sn.enumerate_equilibria(g)
    eqs_perm = sn.enumerate_equilibria(permuted)
    assert len(eqs) == len(eqs_perm)
    for eq in eqs.equilibria:
        moved = sn.StrategyProfile.from_vectors(eq.row.probs[rp], eq.col.probs[cp])
        assert min(
            sn.profile_distance(moved, other) for other in eqs_perm.equilibria
        ) <= 1e-6


class TestDistanceToSet:
    def test_member_distance_zero(self, meeting3):
        eqs = sn.enumerate_equilibria(meeting3)
        assert sn.distance_to_set(eqs.equilibria[0], eqs) == 0.0

    def test_matching_pennies_offset(self, matching_pennies):
        eqs = sn.enumerate_equilibria(matching_pennies)
        probe = sn.StrategyProfile.from_vectors([0.6, 0.4], [0.5, 0.5])
        assert sn.distance_to_set(probe, eqs) == pytest.approx(0.1, abs=1e-9)

    def test_pure_meeting_point_is_member(self, meeting3):
        eqs = sn.enumerate_equilibria(meeting3)
        probe = sn.StrategyProfile.from_vectors([0, 1, 0], [0, 1, 0])
        assert sn.distance_to_set(probe, eqs) == 0.0

    def test_empty_set_rejected(self, meeting3):
        empty = sn.EquilibriumSet((), True, {})
        probe = sn.StrategyProfile.from_vectors([1, 0, 0], [1, 0, 0])
        with pytest.raises(DomainError):
            sn.distance_to_set(probe, empty)


def _closed_form_2x2(R, C):
    """All equilibria of a generic 2x2 game by direct case analysis."""
    found = []
    for i in range(2):
        for j in range(2):
            if R[i][j] >= R[1 - i][j] and C[i][j] >= C[i][1 - j]:
                p = [0.0, 0.0]
                q = [0.0, 0.0]
                p[i] = 1.0
                q[j] = 1.0
                found.append((p, q))
    dp = (C[0][0] - C[0][1]) - (C[1][0] - C[1][1])
    dq = (R[0][0] - R[1][0]) - (R[0][1] - R[1][1])
    if abs(dp) > 1e-12 and abs(dq) > 1e-12:
        p0 = (C[1][1] - C[1][0]) / dp
        q0 = (R[1][1] - R[0][1]) / dq
        if 1e-9 < p0 < 1 - 1e-9 and 1e-9 < q0 < 1 - 1e-9:
            found.append(([p0, 1 - p0], [q0, 1 - q0]))
    return found


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 20_000))
def test_generic_games_have_odd_equilibrium_counts(seed):
    # generic bimatrix games have finitely many and an odd number of
    # equilibria, so an even census from a complete enumeration means a
    # missed equilibrium
    g = sn.random_game(3, 3, seed)
    eqs = sn.enumerate_equilibria(g)
    if eqs.complete:
        assert len(eqs) % 2 == 1


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 20_000))
def test_two_by_two_matches_closed_form(seed):
    g = sn.random_game(2, 2, seed)
    expected = _closed_form_2x2(g.R.tolist(), g.C.tolist())
    eqs = sn.enumerate_equilibria(g)
    assert len(eqs) == len(expected)
    for p, q in expected:
        probe = sn.StrategyProfile.from_vectors(p, q)
        assert sn.distance_to_set(probe, eqs) <= 1e-6


def test_budget_guard():
    with pytest.raises(ResourceBudgetError):
        sn.enumerate_equilibria(sn.meeting_game(5), budget=10)


def test_degenerate_game_flagged_incomplete():
    # the column player is indifferent whenever row 0 is played, so the
    # equilibria form a continuum and the census cannot be complete
    R = np.array([[1.0, 1.0], [0.0, 0.0]])
    g = sn.BimatrixGame(R, 1.0 - R)
    eqs = sn.enumerate_equilibria(g)
    assert not eqs.complete
    assert len(eqs) >= 2


def test_capped_support_marks_incomplete(matching_pennies):
    eqs = sn.enumerate_equilibria(matching_pennies, max_support=1)
    assert not eqs.complete
    assert len(eqs) == 0


def _lp_path(game, max_support=None):
    """The enumeration with the batched pass disabled: the LP loop alone."""
    with mock.patch.object(oracle, "_batched_pass", lambda *args: None):
        return sn.enumerate_equilibria(game, max_support)


def _assert_same_census(fast, slow):
    assert len(fast) == len(slow)
    assert fast.complete == slow.complete
    assert fast.method == slow.method
    for a, b in zip(fast.equilibria, slow.equilibria):
        assert a.row.support == b.row.support
        assert a.col.support == b.col.support
        assert np.abs(a.row.probs - b.row.probs).max() <= 1e-12
        assert np.abs(a.col.probs - b.col.probs).max() <= 1e-12


_SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_SHAPES, st.integers(0, 20_000))
def test_batched_pass_matches_lp_loop_on_random_games(shape, seed):
    g = sn.random_game(*shape, seed)
    _assert_same_census(sn.enumerate_equilibria(g), _lp_path(g))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_SHAPES, st.integers(0, 20_000))
def test_batched_pass_matches_lp_loop_on_small_integer_games(shape, seed):
    # payoffs in {0, 1/2, 1} tie often, so many of these games are degenerate
    rng = np.random.default_rng(seed)
    R, C = rng.integers(0, 3, size=(2, *shape)) / 2.0
    g = sn.BimatrixGame(R, C)
    _assert_same_census(sn.enumerate_equilibria(g), _lp_path(g))


@pytest.mark.parametrize(
    "game, max_support",
    [(sn.meeting_game(n), None) for n in (3, 4, 5)]
    + [(sn.public_goods(n), None) for n in (3, 4, 5)]
    + [
        (sn.BimatrixGame([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]), None),
        (sn.random_game(5, 5, 3), 2),
    ],
    ids=["meeting3", "meeting4", "meeting5", "public_goods3", "public_goods4",
         "public_goods5", "dominant_row", "random5_capped"],
)
def test_batched_pass_matches_lp_loop_on_families(game, max_support):
    _assert_same_census(
        sn.enumerate_equilibria(game, max_support), _lp_path(game, max_support)
    )


def test_chunked_stacks_give_the_same_census():
    g = sn.random_game(6, 6, 5)
    with mock.patch.object(oracle, "_CHUNK", 7):
        chunked = sn.enumerate_equilibria(g)
    _assert_same_census(chunked, sn.enumerate_equilibria(g))
    with mock.patch.object(oracle, "_CHUNK", 7):
        assert oracle._batched_pass(sn.meeting_game(5), 5, DEFAULT_TOLS) is None


def test_public_goods_takes_batched_pass_meeting_falls_back():
    # public goods has parallel payoff rows, so every mixed tie system is
    # singular but inconsistent: infeasible, not degenerate
    pg = sn.public_goods(4)
    assert oracle._batched_pass(pg, 4, DEFAULT_TOLS) is not None
    assert oracle._batched_pass(sn.meeting_game(4), 4, DEFAULT_TOLS) is None
    with mock.patch.object(oracle, "solve_lp", side_effect=AssertionError):
        assert len(sn.enumerate_equilibria(pg)) == 1


def test_tie_solver_separates_singular_systems():
    # rows (M, -1) over the mass row (1, 1, 0); equal tie rows leave a line
    # of solutions, tie rows that differ by a constant leave none
    consistent = [[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 0.0]]
    inconsistent = [[1.0, 0.0, -1.0], [0.5, -0.5, -1.0], [1.0, 1.0, 0.0]]
    regular = [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]]
    assert oracle._solve_ties(np.array([regular, consistent]), DEFAULT_TOLS) is None
    sol, singular = oracle._solve_ties(np.array([inconsistent, regular]), DEFAULT_TOLS)
    assert singular.tolist() == [True, False]
    assert sol[1] == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)


def test_degenerate_game_over_budget_fails_fast():
    # 48,619 equal-size pairs pass the guard, but meeting_game(9) is
    # degenerate and its LP loop would visit (2^9 - 1)^2 = 261,121 pairs
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError):
        sn.enumerate_equilibria(sn.meeting_game(9))
    assert time.perf_counter() - start < 1.0


def test_nondegenerate_nine_by_nine_within_default_budget():
    eqs = sn.enumerate_equilibria(sn.random_game(9, 9, 3))
    assert eqs.complete
    assert len(eqs) % 2 == 1
