import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import stablenash as sn
from stablenash import oracle, stability, support
from stablenash.config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS
from stablenash.errors import DomainError, ResourceBudgetError
from stablenash.stability import perturbation_battery

from conftest import loop_midpoint_component, profile_bytes, scalar_admit, unscreened_lp_pass


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
        with pytest.raises(DomainError):
            oracle.distances_to_set([probe], empty)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(0, 12), st.integers(1, 6))
    def test_stack_matches_loop_of_profile_distances(self, seed, count, listed):
        # each entry is bitwise the minimum of a Python loop over
        # profile_distance, the way one profile was measured before
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))

        def profile():
            return sn.StrategyProfile.from_vectors(
                rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols))
            )

        eqs = sn.EquilibriumSet(tuple(profile() for _ in range(listed)), True, {})
        profiles = [profile() for _ in range(count)]
        got = oracle.distances_to_set(profiles, eqs)
        assert got.shape == (count,)
        for profile, d in zip(profiles, got.tolist()):
            want = min(sn.profile_distance(profile, e) for e in eqs.equilibria)
            assert d == want
            assert sn.distance_to_set(profile, eqs) == want


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
    with mock.patch.object(oracle, "_batched_pass", lambda games, *args: [None] * len(games)):
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
        meeting5 = sn.meeting_game(5)
        assert oracle._batched_pass([meeting5], 5, DEFAULT_ENUM_BUDGET, DEFAULT_TOLS) == [None]


def test_public_goods_takes_batched_pass_meeting_falls_back():
    # public goods has parallel payoff rows, so every mixed tie system is
    # singular but inconsistent: infeasible, not degenerate
    pg = sn.public_goods(4)
    assert oracle._batched_pass([pg], 4, DEFAULT_ENUM_BUDGET, DEFAULT_TOLS)[0] is not None
    meeting4 = sn.meeting_game(4)
    assert oracle._batched_pass([meeting4], 4, DEFAULT_ENUM_BUDGET, DEFAULT_TOLS) == [None]
    with mock.patch.object(oracle, "solve_lp", side_effect=AssertionError), \
            mock.patch.object(oracle, "solve_stack", side_effect=AssertionError):
        assert len(sn.enumerate_equilibria(pg)) == 1


def test_tie_solver_separates_singular_systems():
    # rows (M, -1) over the mass row (1, 1, 0); equal tie rows leave a line
    # of solutions, tie rows that differ by a constant leave none
    consistent = [[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 0.0]]
    inconsistent = [[1.0, 0.0, -1.0], [0.5, -0.5, -1.0], [1.0, 1.0, 0.0]]
    regular = [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]]
    _, singular, witness = oracle._solve_ties(np.array([regular, consistent]), 2, DEFAULT_TOLS)
    assert singular.tolist() == [False, True]
    assert witness.tolist() == [False, True]
    sol, singular, witness = oracle._solve_ties(
        np.array([inconsistent, regular]), 2, DEFAULT_TOLS
    )
    assert singular.tolist() == [True, False]
    assert witness.tolist() == [False, False]
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


def _best_response_value(payoff, S, i):
    """max over distributions x on S of min over a of (payoff[i] - payoff[a]) x."""
    k, n_opp = len(S), payoff.shape[0]
    # variables: x on S, then t; maximize t subject to t <= (payoff[i] - payoff[a]) x
    A_ub = np.hstack([-(payoff[i] - payoff)[:, list(S)], np.ones((n_opp, 1))])
    res = linprog(
        np.r_[np.zeros(k), -1.0], A_ub=A_ub, b_ub=np.zeros(n_opp),
        A_eq=np.r_[np.ones(k), 0.0][None], b_eq=[1.0],
        bounds=[(0, None)] * k + [(None, None)], method="highs",
    )
    assert res.status == 0
    return -res.fun


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 5), st.integers(0, 20_000),
    st.sampled_from([0.0, 0.01, 0.25]),
)
def test_best_response_screen_matches_brute_force(n_opp, n_own, seed, eps):
    # quarter-step payoffs keep every W + eps at 0 or at least 0.01 away
    # from it, so the screen's margin cannot show
    rng = np.random.default_rng(seed)
    payoff = rng.integers(0, 5, size=(n_opp, n_own)) / 4.0
    for k in range(1, n_own + 1):
        own = np.array(list(itertools.combinations(range(n_own), k)))
        ok = oracle.best_response_screen(payoff, own, eps, DEFAULT_TOLS)
        assert ok.shape == (len(own), n_opp)
        for m, S in enumerate(own.tolist()):
            for i in range(n_opp):
                w = min(
                    max(payoff[i][j] - payoff[a][j] for j in S) for a in range(n_opp)
                )
                assert ok[m, i] == (w >= -eps)
                # the screen only drops actions that no distribution on S
                # makes eps-best
                if _best_response_value(payoff, S, i) >= -eps - 1e-9:
                    assert ok[m, i]


def _admission_rows(game, rng):
    """Candidate rows for one admission, shuffled: the game's equilibria,
    each twice and once nudged by a twentieth of ``tol.dedup``, every pure
    profile and a few random mixtures, which need not verify."""
    rows = []
    for e in sn.enumerate_equilibria(game).equilibria:
        p, q = e.row.probs, e.col.probs
        nudged = p.copy()
        top = int(p.argmax())
        nudged[top] -= DEFAULT_TOLS.dedup / 20
        nudged[(top + 1) % p.size] += DEFAULT_TOLS.dedup / 20
        rows += [(p, q), (nudged, q), (p, q)]
    rows += [(p, q) for p in np.eye(game.rows) for q in np.eye(game.cols)]
    rows += [(rng.dirichlet(np.ones(game.rows)), rng.dirichlet(np.ones(game.cols)))] * 2
    order = rng.permutation(len(rows))
    return np.array([rows[k][0] for k in order]), np.array([rows[k][1] for k in order])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_SHAPES, st.integers(0, 20_000), st.booleans())
def test_batched_admission_matches_scalar_loop(shape, seed, listed):
    # degenerate integer games; with ``listed`` the first equilibrium is on
    # the list before the batch. The admission runs whole and one candidate
    # per block
    rng = np.random.default_rng(seed)
    R, C = rng.integers(0, 3, size=(2, *shape)) / 2.0
    game = sn.BimatrixGame(R, C)
    P, Q = _admission_rows(game, rng)
    start = list(sn.enumerate_equilibria(game).equilibria[:1]) if listed else []
    want_found = list(start)
    want = [scalar_admit(game, want_found, p, q) for p, q in zip(P, Q)]
    candidates = sn.StrategyProfile.from_rows(P, Q)
    with pytest.MonkeyPatch.context() as mp:
        for floats in (oracle.STACK_FLOATS, 1):
            mp.setattr(oracle, "STACK_FLOATS", floats)
            found = list(start)
            admitted = oracle._admit(game, found, candidates, DEFAULT_TOLS)
            assert admitted.tolist() == np.flatnonzero(want).tolist()
            assert [profile_bytes(e) for e in found] == [profile_bytes(e) for e in want_found]


def test_admission_merges_candidates_within_dedup_in_order():
    # every (e_1, q) is an equilibrium of the dominant-row game. The second
    # candidate lies 8e-7 from the first; the third lies 8e-7 from the
    # second, which is not admitted, and 1.6e-6 from the first. The fourth
    # is far from all, and the fifth is no equilibrium
    game = sn.BimatrixGame([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
    P = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]])
    up = np.array([1.0, -1.0])
    Q = np.array([[0.5, 0.5], 0.5 + 8e-7 * up, 0.5 + 1.6e-6 * up, [0.9, 0.1], [0.5, 0.5]])
    found, want_found = [], []
    candidates = sn.StrategyProfile.from_rows(P, Q)
    admitted = oracle._admit(game, found, candidates, DEFAULT_TOLS)
    want = [scalar_admit(game, want_found, p, q) for p, q in zip(P, Q)]
    assert want == [True, False, True, True, False]
    assert admitted.tolist() == [0, 2, 3]
    assert [profile_bytes(e) for e in found] == [profile_bytes(e) for e in want_found]
    # the first two alone, and the second alone after the first is listed
    assert oracle._admit(game, [], candidates[:2], DEFAULT_TOLS).tolist() == [0]
    assert oracle._admit(game, found[:1], candidates[1:2], DEFAULT_TOLS).size == 0


def _assert_same_lp_pass(game):
    max_support = min(game.shape)
    [(found, degenerate)] = oracle._lp_pass(
        [game], max_support, DEFAULT_ENUM_BUDGET, DEFAULT_TOLS
    )
    ref, ref_degenerate = unscreened_lp_pass(game, max_support)
    assert degenerate == ref_degenerate
    assert [profile_bytes(e) for e in found] == [profile_bytes(e) for e in ref]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_SHAPES, st.integers(0, 20_000))
def test_screened_lp_loop_matches_unscreened_on_small_integer_games(shape, seed):
    rng = np.random.default_rng(seed)
    R, C = rng.integers(0, 3, size=(2, *shape)) / 2.0
    _assert_same_lp_pass(sn.BimatrixGame(R, C))


def test_screened_lp_loop_matches_unscreened_on_meeting_battery():
    # the battery's games sit 0.02 away from the degenerate meeting game,
    # so many pairs are screened by a small W
    for _, game in perturbation_battery(sn.meeting_game(3), 0.02):
        _assert_same_lp_pass(game)


def test_screened_lp_loop_matches_unscreened_on_meeting_games():
    # their column LPs span every support size in one padded stack
    for n in (3, 4, 5):
        _assert_same_lp_pass(sn.meeting_game(n))


@pytest.mark.parametrize("n, lps", [(3, 16), (4, 36), (5, 74)])
def test_lp_loop_solves_only_screened_pairs(n, lps, monkeypatch):
    # 70, 288 and 1,124 LPs without the screen; a stack counts its members.
    # All of them go into two stacks, the column player's and then the row
    # player's, whatever their support sizes
    calls = _kernel_calls(monkeypatch)
    stacks = []
    counted = oracle.solve_stack
    monkeypatch.setattr(
        oracle, "solve_stack", lambda A, *rest: stacks.append(len(A)) or counted(A, *rest)
    )
    eqs = sn.enumerate_equilibria(sn.meeting_game(n))
    assert len(eqs) == n * (n + 1) // 2
    assert calls.count("solve_lp") + calls.count("solve_stack") == lps
    assert len(stacks) == 2 and sum(stacks) == lps


def _assert_same_midpoint_check(game):
    # the stacked check against the per-pair loop, on the listed equilibria
    # whatever the LP loop reported, and the census it yields against one
    # rebuilt around the loop
    max_support = min(game.shape)
    [found] = oracle._batched_pass([game], max_support, DEFAULT_ENUM_BUDGET, DEFAULT_TOLS)
    degenerate = False
    if found is None:
        [(found, degenerate)] = oracle._lp_pass(
            [game], max_support, DEFAULT_ENUM_BUDGET, DEFAULT_TOLS
        )
    component = loop_midpoint_component(game, found)
    assert oracle._midpoint_component(game, found, DEFAULT_TOLS) == component
    eqs = sn.enumerate_equilibria(game)
    assert eqs.complete == (not degenerate and not component)
    assert [profile_bytes(e) for e in eqs.equilibria] == [profile_bytes(e) for e in found]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_SHAPES, st.integers(0, 20_000))
def test_stacked_midpoint_check_matches_loop_on_small_integer_games(shape, seed):
    rng = np.random.default_rng(seed)
    R, C = rng.integers(0, 3, size=(2, *shape)) / 2.0
    _assert_same_midpoint_check(sn.BimatrixGame(R, C))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_SHAPES, st.integers(0, 20_000))
def test_stacked_midpoint_check_matches_loop_on_random_games(shape, seed):
    _assert_same_midpoint_check(sn.random_game(*shape, seed))


def test_stacked_midpoint_check_matches_loop_on_families():
    games = [sn.meeting_game(n) for n in (2, 3, 4, 5)]
    games += [sn.public_goods(n) for n in (3, 4)]
    games.append(sn.BimatrixGame([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]))
    games += [game for _, game in perturbation_battery(sn.meeting_game(3), 0.02)]
    for game in games:
        _assert_same_midpoint_check(game)


def _kernel_calls(monkeypatch):
    """Calls of every LP and of the batched tie-system kernel, recorded; a
    stack of LPs records one call per member."""
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    def stacked(A, *args, **kwargs):
        calls.extend(["solve_stack"] * len(A))
        return real_stack(A, *args, **kwargs)

    for module in (oracle, support, stability):
        monkeypatch.setattr(module, "solve_lp", counted(module.solve_lp))
    real_stack = oracle.solve_stack
    monkeypatch.setattr(oracle, "solve_stack", stacked)
    monkeypatch.setattr(oracle, "_side_pass", counted(oracle._side_pass))
    return calls


_GAME_2X3 = sn.random_game(2, 3, 4)
_BASE_2X3 = sn.enumerate_equilibria(_GAME_2X3)


@pytest.mark.parametrize(
    "walk, pairs",
    [
        # equal-size pairs: C(2,1) C(3,1) + C(2,2) C(3,2)
        (lambda b: oracle._batched_pass([_GAME_2X3], 2, b, DEFAULT_TOLS), 9),
        # every pair of sizes up to 2: (2 + 1) (3 + 3)
        (lambda b: oracle._lp_pass([_GAME_2X3], 2, b, DEFAULT_TOLS), 18),
        (lambda b: sn.find_well_supported(_GAME_2X3, 0.0, budget=b), 18),
        # every declared support pair: (2^2 - 1) (2^3 - 1)
        (lambda b: stability._ws_candidates(_GAME_2X3, 0.05, _BASE_2X3, b, DEFAULT_TOLS), 21),
    ],
    ids=["batched_pass", "lp_pass", "find_well_supported", "ws_candidates"],
)
def test_support_pair_budget_boundary(walk, pairs, monkeypatch):
    # the walk raises before any kernel call one pair below its count, and
    # runs at it
    calls = _kernel_calls(monkeypatch)
    message = f"^{pairs} support pairs exceed the budget {pairs - 1}$"
    with pytest.raises(ResourceBudgetError, match=message):
        walk(pairs - 1)
    assert calls == []
    walk(pairs)
    assert calls


# --- a battery of games as one stack ------------------------------------------

_DOMINANT_ROW = sn.BimatrixGame([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])


def _battery_games(game, eps, trials=2, seed=5):
    """The games ``estimate_perturbation_stability`` enumerates: the
    battery, then ``trials`` uniform perturbations drawn as it draws them."""
    games = [g for _, g in perturbation_battery(game, eps)]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        dR = rng.uniform(-eps, eps, size=game.shape)
        dC = rng.uniform(-eps, eps, size=game.shape)
        games.append(stability._perturbed(game, dR, dC, eps))
    return games


def _assert_stack_is_per_game(games, max_support=None):
    stacked = oracle.enumerate_stack(games, max_support)
    assert len(stacked) == len(games)
    for game, eqs in zip(games, stacked):
        alone = sn.enumerate_equilibria(game, max_support)
        assert eqs.complete == alone.complete
        assert eqs.method == alone.method
        assert [profile_bytes(e) for e in eqs.equilibria] == [
            profile_bytes(e) for e in alone.equilibria
        ]


@pytest.mark.parametrize(
    "game, eps",
    [
        (sn.meeting_game(3), 0.02),
        (sn.meeting_game(4), 0.02),
        (sn.public_goods(3), 0.02),
        (sn.public_goods(3), 1 / 12 + 0.01),
        (sn.public_goods(4), 0.02),
        (sn.dominance_gap_game(0.1), 0.05),
        (_DOMINANT_ROW, 0.05),
    ]
    + [(sn.random_game(4, 4, s), 0.02) for s in range(3)],
    ids=["meeting3", "meeting4", "public_goods3", "public_goods3_big", "public_goods4",
         "dominance_gap", "dominant_row", "random4_0", "random4_1", "random4_2"],
)
def test_enumerate_stack_matches_per_game_on_batteries(game, eps):
    _assert_stack_is_per_game(_battery_games(game, eps))


def test_stack_mixing_singular_and_regular_chunks_matches_per_game():
    # public goods' size-2 tie systems are exactly singular, so inverting a
    # stack that holds them fails; the random games' invert
    pg = sn.public_goods(3)
    regular = [sn.random_game(3, 3, s) for s in (1, 2)]
    P = np.array(list(itertools.combinations(range(3), 2)))
    ip, iq = np.divmod(np.arange(9), 3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(oracle._tie_systems(pg.R[None], P[iq], P[ip]))
    for g in regular:
        np.linalg.inv(oracle._tie_systems(g.R[None], P[iq], P[ip]))
        np.linalg.inv(oracle._tie_systems(np.ascontiguousarray(g.C.T)[None], P[ip], P[iq]))
    games = [regular[0], pg, regular[1]] + _battery_games(pg, 0.02)
    _assert_stack_is_per_game(games)


def test_stack_packs_whole_chunks():
    # with 7 pairs per chunk, the size-1 and size-2 pairs of a 3x3 game come
    # in chunks of 7 and 2, and a stack holds one or three of them, the size-3
    # pair seven; the LP loop's groups are cut into stacks of 7 members
    games = _battery_games(sn.random_game(3, 3, 1), 0.02)
    games += _battery_games(sn.meeting_game(3), 0.02)
    with mock.patch.object(oracle, "_CHUNK", 7):
        _assert_stack_is_per_game(games)
        _assert_stack_is_per_game(games, max_support=2)


def test_stack_of_mixed_shapes_is_rejected():
    with pytest.raises(DomainError):
        oracle.enumerate_stack([sn.meeting_game(3), sn.meeting_game(4)])
    assert oracle.enumerate_stack([]) == []


def test_battery_over_budget_raises_before_any_lp(monkeypatch):
    # 19 equal-size pairs fit the budget, the 49 pairs of all sizes of a
    # degenerate game do not
    games = _battery_games(sn.meeting_game(3), 0.02)
    message = "^49 support pairs exceed the budget 30$"
    with pytest.raises(ResourceBudgetError, match=message):
        sn.enumerate_equilibria(sn.meeting_game(3), budget=30)
    calls = _kernel_calls(monkeypatch)
    with pytest.raises(ResourceBudgetError, match=message):
        oracle.enumerate_stack(games, budget=30)
    assert "_side_pass" in calls
    assert calls.count("solve_lp") + calls.count("solve_stack") == 0
