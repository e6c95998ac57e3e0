import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import stablenash as sn
from stablenash import oracle, support
from stablenash.config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS
from stablenash.embedding import embed
from stablenash.errors import DomainError, ParameterError, ResourceBudgetError
from stablenash.lp import LinearProgram, solve_lp
from stablenash.support import light_sample_size

from conftest import (
    naive_heavy_light_partition,
    profile_bytes,
    random_simplex,
    region_arrays,
    unscreened_find_well_supported,
    ws_region_rows,
)


def _counted_side_lps(monkeypatch):
    """The side LPs of the well-supported search, recorded."""
    calls = []
    real = support.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(support, "solve_lp", counted)
    return calls


def _side_lp_row_by_row(payoff, own_support, opp_support, eps):
    """The side LP of the well-supported search, one row at a time: the mass
    row, then each declared opponent action i against each other action a,
    less the slack s, which is maximized."""
    k = len(own_support)
    sub = payoff[:, list(own_support)]
    lp = LinearProgram(k + 1)
    lp.lower[k] = -(2.0 * float(np.abs(payoff).max()) + abs(eps) + 1.0)
    lp.upper[k] = eps
    mass = np.zeros(k + 1)
    mass[:k] = 1.0
    lp.add_constraint(mass, "=", 1.0)
    for i in opp_support:
        for a in range(payoff.shape[0]):
            if a != i:
                row = np.zeros(k + 1)
                row[:k] = sub[i] - sub[a]
                row[k] = -1.0
                lp.add_constraint(row, ">=", -eps)
    objective = np.zeros(k + 1)
    objective[k] = 1.0
    lp.set_objective(objective)
    return lp


def _outcome_bytes(out):
    return (
        out.status,
        None if out.solution is None else out.solution.tobytes(),
        None if out.objective_value is None else np.float64(out.objective_value).tobytes(),
    )


class TestWellSupportedFeasible:
    def test_meeting_pair_support_exact(self, meeting3):
        prof = sn.well_supported_feasible(meeting3, (1, 2), (1, 2), 0.0)
        assert prof is not None
        assert prof.row.probs == pytest.approx([0, 0.5, 0.5], abs=1e-8)
        assert prof.col.probs == pytest.approx([0, 0.5, 0.5], abs=1e-8)

    def test_gap_game_full_support_infeasible_below_gap(self, gap_game):
        assert sn.well_supported_feasible(gap_game, (0, 1), (0, 1), 0.05) is None

    def test_gap_game_full_support_feasible_above_gap(self, gap_game):
        # supported payoffs differ by exactly the 0.1 gap for every profile
        for q0 in np.linspace(0, 1, 51):
            q = np.array([q0, 1 - q0])
            assert (gap_game.R[0] - gap_game.R[1]) @ q == pytest.approx(0.1)
        prof = sn.well_supported_feasible(gap_game, (0, 1), (0, 1), 0.2)
        assert prof is not None
        assert sn.regrets(gap_game, prof).max_ws_gap <= 0.2 + 1e-8

    def test_negative_eps_infeasible(self, gap_game):
        # the slack cap eps lies below any payoff spread here, which leaves
        # no feasible slack rather than an invalid program
        assert sn.well_supported_feasible(gap_game, (0,), (0,), -2.0) is None

    def test_empty_support_rejected(self, gap_game):
        with pytest.raises(DomainError):
            sn.well_supported_feasible(gap_game, (), (0,), 0.1)

    @settings(max_examples=25, derandomize=True)
    @given(st.integers(0, 5_000))
    def test_monotone_in_eps(self, seed):
        rng = np.random.default_rng(seed)
        g = sn.random_game(3, 3, seed)
        S_p = tuple(sorted(rng.choice(3, size=2, replace=False).tolist()))
        S_q = tuple(sorted(rng.choice(3, size=2, replace=False).tolist()))
        eps = float(rng.uniform(0.0, 0.3))
        if sn.well_supported_feasible(g, S_p, S_q, eps) is not None:
            assert sn.well_supported_feasible(g, S_p, S_q, eps + 0.1) is not None


    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 5), st.integers(1, 5), st.booleans())
    def test_ws_region_and_side_lp_match_row_by_row(self, seed, n_opp, n, real):
        # the library's region against the nested loop, row order included
        # (Bland's rule depends on it), and the side LP built on it against
        # the same LP added one row at a time
        rng = np.random.default_rng(seed)
        if real:
            payoff = rng.uniform(-1.0, 1.0, (n_opp, n))
        else:
            payoff = rng.integers(-2, 3, (n_opp, n)) / 2.0
        opp_support = tuple(np.flatnonzero(rng.random(n_opp) < 0.6).tolist()) or (0,)
        own_support = tuple(np.flatnonzero(rng.random(n) < 0.6).tolist()) or (n - 1,)
        eps = float(rng.choice([0.0, 0.25, rng.uniform(-0.2, 0.4)]))
        got = support.ws_region(payoff, opp_support, eps)
        want = region_arrays(ws_region_rows(payoff, opp_support, eps))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        seen = []

        def recording(*args, **kwargs):
            seen.append(solve_lp(*args, **kwargs))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(support, "solve_lp", recording)
            x = support._side_lp(payoff, own_support, opp_support, eps, DEFAULT_TOLS)
        want = _side_lp_row_by_row(payoff, own_support, opp_support, eps).solve()
        assert [_outcome_bytes(out) for out in seen] == [_outcome_bytes(want)]
        assert (x is None) == (want.objective_value < -DEFAULT_TOLS.lp)
        if x is not None:
            assert x[list(own_support)].tobytes() == want.solution[:-1].tobytes()


class TestFindWellSupported:
    def test_matching_pennies_needs_full_support(self, matching_pennies):
        # every pure profile has a well-supported gap of 1
        for i in range(2):
            for j in range(2):
                prof = sn.StrategyProfile(
                    sn.MixedStrategy.point_mass(i, 2),
                    sn.MixedStrategy.point_mass(j, 2),
                )
                assert sn.regrets(matching_pennies, prof).max_ws_gap == 1.0
        res = sn.find_well_supported(matching_pennies, 0.1)
        assert res is not None
        assert res.support_sizes == (2, 2)
        assert res.profile.row.probs == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_meeting_pure_found_first(self, meeting3):
        res = sn.find_well_supported(meeting3, 0.0)
        assert res.support_sizes == (1, 1)
        assert res.supports_tried == 1

    @settings(max_examples=15, derandomize=True)
    @given(st.integers(0, 5_000))
    def test_eps_one_accepts_first_pure(self, seed):
        g = sn.random_game(3, 4, seed)
        res = sn.find_well_supported(g, 1.0)
        assert res.support_sizes == (1, 1)
        assert res.supports_tried == 1

    @settings(max_examples=15, derandomize=True)
    @given(st.integers(0, 5_000))
    def test_eps_zero_finds_an_exact_equilibrium(self, seed):
        g = sn.random_game(3, 3, seed)
        assert len(sn.enumerate_equilibria(g)) >= 1
        res = sn.find_well_supported(g, 0.0)
        assert res is not None
        rep = sn.regrets(g, res.profile)
        assert rep.max_ws_gap <= 1e-7

    def test_none_when_unreachable(self, matching_pennies):
        assert sn.find_well_supported(matching_pennies, 0.1, max_support=1) is None

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(st.integers(0, 20_000))
    def test_screened_search_matches_unscreened_on_embedded_games(self, seed):
        emb = embed(sn.random_game(3, 3, seed), 0.0002)
        for eps in (0.0, emb.delta**4 / 8, 0.01, 0.25):
            got = sn.find_well_supported(emb.game, eps)
            want = unscreened_find_well_supported(emb.game, eps)
            assert (got is None) == (want is None)
            if got is not None:
                assert profile_bytes(got.profile) == profile_bytes(want.profile)
                assert got.support_sizes == want.support_sizes
                assert got.supports_tried == want.supports_tried
                assert got.epsilon == want.epsilon

    def test_embedded_search_solves_only_screened_pairs(self, monkeypatch):
        # 100 LPs over the same 81 visited pairs without the screen, and 3
        # with a screen that tests each declared action alone
        calls = _counted_side_lps(monkeypatch)
        emb = embed(sn.random_game(3, 3, 1), 0.0002)
        res = sn.find_well_supported(emb.game, emb.delta**4 / 8)
        assert res.support_sizes == (2, 2)
        assert res.supports_tried == 81
        assert len(calls) == 2

    def test_embedded_searches_solve_pinned_side_lps(self, monkeypatch):
        # 200 searches solve 594 side LPs (2,727 when the screen tested each
        # declared action alone) and return the results they returned then,
        # byte for byte
        calls = _counted_side_lps(monkeypatch)
        digest = hashlib.sha256()
        for seed in range(200):
            emb = embed(sn.random_game(3, 3, seed), 0.0002)
            res = sn.find_well_supported(emb.game, emb.delta**4 / 8)
            digest.update(repr((
                profile_bytes(res.profile), res.support_sizes, res.supports_tried,
                res.epsilon.hex(),
            )).encode())
        assert len(calls) == 594
        assert digest.hexdigest() == (
            "df9f38cd88fe8dc9e4f53befd41ca64488d6d1c5e8652cbc49ca19dac3000737"
        )

    def test_exactly_eps_best_action_stays_unscreened(self):
        # each player's action 1 trails action 0 by exactly 0.25 against
        # every opponent action, so it is exactly 0.25-best on any support
        g = sn.dominance_gap_game(0.25)
        own = np.array([[0, 1]])
        for payoff in (g.R, g.C.T):
            for eps, kept in ((0.25, [[True, True]]), (0.25 - 1e-3, [[True, False]])):
                lo, hi = oracle.best_response_windows(payoff, own, eps, DEFAULT_TOLS)
                assert (lo <= hi).tolist() == kept
        pairs = oracle.screened_pairs(g, [(2, 2)], 0.25, DEFAULT_ENUM_BUDGET, DEFAULT_TOLS)
        [(visited, S_p, S_q)] = pairs
        assert (visited.tolist(), S_p.tolist(), S_q.tolist()) == ([1], [[0, 1]], [[0, 1]])
        prof = sn.well_supported_feasible(g, (0, 1), (0, 1), 0.25)
        assert prof is not None
        assert sn.regrets(g, prof).max_ws_gap <= 0.25 + 1e-12

    def test_guard_counts_every_size_pair(self):
        # at 10x10 with max_support=3 there are 16,525 equal-size pairs but
        # 175^2 = 30,625 pairs of all sizes, and the search visits the latter
        g = sn.random_game(10, 10, 123)
        with pytest.raises(ResourceBudgetError):
            sn.find_well_supported(g, 0.0, max_support=3, budget=20_000)
        assert len(sn.enumerate_equilibria(g, max_support=3, budget=20_000)) >= 1


class TestHeavyLightPartition:
    def test_flat_distribution_terminates_immediately(self):
        split = sn.heavy_light_partition(sn.MixedStrategy.uniform(4), 2, 0.01)
        assert split.heavy == ()
        assert split.terminated_by == "light-threshold"
        assert split.beta == 0.0

    def test_descending_distribution_s2(self):
        # every entry already sits at or below Pr[L]/S = 0.5, so the greedy
        # loop stops before moving anything
        p = sn.MixedStrategy.from_probs([0.4, 0.3, 0.2, 0.1])
        split = sn.heavy_light_partition(p, 2, 0.001)
        assert split.heavy == ()
        assert split.terminated_by == "light-threshold"

    def test_spiked_distribution_mass_threshold(self):
        split = sn.heavy_light_partition(
            sn.MixedStrategy.from_probs([0.95, 0.05]), 4, 0.01
        )
        assert split.heavy == (0,)
        assert split.terminated_by == "mass-threshold"
        assert split.beta == pytest.approx(0.95)

    def test_light_threshold_after_one_move(self):
        p = sn.MixedStrategy.from_probs([0.4, 0.15, 0.15, 0.15, 0.15])
        split = sn.heavy_light_partition(p, 4, 0.01)
        assert split.heavy == (0,)
        assert split.light == (1, 2, 3, 4)
        assert split.terminated_by == "light-threshold"

    def test_parameter_validation(self):
        p = sn.MixedStrategy.uniform(3)
        with pytest.raises(ParameterError):
            sn.heavy_light_partition(p, 0.0, 0.01)
        with pytest.raises(ParameterError):
            sn.heavy_light_partition(p, 2.0, 0.2)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000), st.floats(0.001, 0.125), st.floats(0.5, 40.0))
    def test_matches_reference_greedy(self, seed, delta, S):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        p = sn.MixedStrategy.from_probs(random_simplex(rng, n))
        split = sn.heavy_light_partition(p, S, delta)
        # independent re-derivation of the greedy loop
        order = sorted(p.support, key=lambda i: (-p.probs[i], i))
        heavy = []
        while True:
            light = [i for i in order if i not in heavy]
            lm = sum(p.probs[i] for i in light)
            if not light or all(p.probs[i] <= lm / S + 1e-9 for i in light):
                expected = "light-threshold"
                break
            if 1.0 - lm >= 1.0 - 8.0 * delta - 1e-9:
                expected = "mass-threshold"
                break
            heavy.append(order[len(heavy)])
        assert split.heavy == tuple(sorted(heavy))
        assert split.terminated_by == expected
        # mass conservation and the sorted-prefix property
        light_mass = sum(p.probs[i] for i in split.light)
        assert split.beta + light_mass == pytest.approx(1.0, abs=1e-9)
        if split.heavy and split.light:
            assert min(p.probs[list(split.heavy)]) >= max(
                p.probs[list(split.light)]
            ) - 1e-12
        # the declared stopping rule must hold in the final state
        if split.terminated_by == "light-threshold":
            assert all(p.probs[i] <= light_mass / S + 1e-9 for i in split.light)
        else:
            assert split.beta >= 1.0 - 8.0 * delta - 1e-9


    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 300),
        st.sampled_from(["dirichlet", "ties", "flat", "spiked"]),
        st.floats(0.001, 0.125),
        st.floats(0.5, 200.0),
        st.booleans(),
        st.integers(-3, 3),
    )
    def test_bitwise_naive_reference(self, seed, n, shape, delta, S, edge, ulps):
        # ties and flat inputs exercise the index tie-break and the first
        # test of the loop; the split must be bitwise the naive one's. An
        # edge case moves the stopping test that decides the naive split to
        # within a few ulps of its threshold, at the prefix where it stops:
        # delta from that light part's exact mass, or S from its
        # entry-to-mass ratio. The partition's rounding band must send
        # these prefixes to the exact sum.
        rng = np.random.default_rng(seed)
        if shape == "dirichlet":
            v = random_simplex(rng, n)
        elif shape == "ties":
            v = rng.integers(0, 4, size=n).astype(float)
            v[int(rng.integers(n))] += 1.0
        elif shape == "flat":
            v = np.ones(n)
        else:
            v = np.full(n, 0.01)
            v[rng.permutation(n)[: max(1, n // 5)]] = 1.0
        p = sn.MixedStrategy.from_probs(v / v.sum())
        if edge:
            split = naive_heavy_light_partition(p, S, delta)
            order = sorted(p.support, key=lambda i: (-p.probs[i], i))
            pos = len(split.heavy)
            assume(pos < len(order))
            mass = float(p.probs[order[pos:]].sum())
            step = np.inf if ulps > 0 else 0.0
            if split.terminated_by == "mass-threshold":
                # 1 - mass >= 1 - 8*delta - tol.zero
                delta = (mass - DEFAULT_TOLS.zero) / 8.0
                for _ in range(abs(ulps)):
                    delta = float(np.nextafter(delta, step))
                assume(0.0 < delta <= 0.125)
            else:
                # head <= mass / S + tol.zero
                gap = p.probs[order[pos]] - DEFAULT_TOLS.zero
                assume(gap > 0)
                S = mass / gap
                for _ in range(abs(ulps)):
                    S = float(np.nextafter(S, step))
        got = sn.heavy_light_partition(p, S, delta)
        want = naive_heavy_light_partition(p, S, delta)
        assert got == want
        assert repr(got.beta) == repr(want.beta)


class TestLmmSample:
    def test_point_mass_fixed(self):
        p = sn.MixedStrategy.point_mass(2, 5)
        out = sn.lmm_sample(p, 7, seed=1)
        assert out.probs == pytest.approx(p.probs)

    def test_multiples_of_one_over_k(self):
        p = sn.MixedStrategy.uniform(6)
        out = sn.lmm_sample(p, 25, seed=3)
        assert out.probs.sum() == 1.0
        assert np.allclose(out.probs * 25, np.round(out.probs * 25), atol=1e-12)

    def test_deterministic_per_seed(self):
        p = sn.MixedStrategy.from_probs([0.2, 0.5, 0.3])
        a = sn.lmm_sample(p, 40, seed=11)
        b = sn.lmm_sample(p, 40, seed=11)
        assert np.array_equal(a.probs, b.probs)

    def test_payoff_concentration_across_seeds(self, matching_pennies):
        # Hoeffding: 200 draws keep each column payoff within 0.15 of its
        # mean except with probability ~2e-9, so at least 95 of 100 seeds
        # must stay inside the band.
        p = sn.MixedStrategy.from_probs([0.5, 0.5])
        hits = 0
        for seed in range(100):
            sampled = sn.lmm_sample(p, 200, seed=seed)
            dev = np.abs(
                sampled.probs @ matching_pennies.C - p.probs @ matching_pennies.C
            ).max()
            if dev <= 0.15:
                hits += 1
        assert hits >= 95

    def test_law_of_the_multinomial(self):
        # each entry of k draws is Binomial(k, p_i)/k, so its mean over 200
        # seeds lies within 4 standard errors sqrt(p_i (1 - p_i) / (200 k))
        p = sn.MixedStrategy.from_probs([0.5, 0.0, 0.3, 0.15, 0.05, 0.0])
        k, seeds = 37, 200
        outs = [sn.lmm_sample(p, k, seed=seed) for seed in range(seeds)]
        for out in outs:
            counts = np.rint(out.probs * k)
            assert np.abs(out.probs * k - counts).max() <= 1e-9
            assert counts.sum() == k  # so the counts/k sum to exactly 1
            assert abs(out.probs.sum() - 1.0) <= 1e-15
            assert set(out.support) <= set(p.support)
        mean = np.mean([out.probs for out in outs], axis=0)
        se = np.sqrt(p.probs * (1.0 - p.probs) / (seeds * k))
        assert (np.abs(mean - p.probs) <= 4.0 * se).all()
        with pytest.raises(ParameterError):
            sn.lmm_sample(p, 0, seed=0)

    def test_one_multinomial_draw(self):
        class Counting(np.random.Generator):
            def __init__(self, bit_generator):
                super().__init__(bit_generator)
                self.calls = []

            def multinomial(self, *args, **kwargs):
                self.calls.append("multinomial")
                return super().multinomial(*args, **kwargs)

            def choice(self, *args, **kwargs):
                self.calls.append("choice")
                return super().choice(*args, **kwargs)

        rng = Counting(np.random.PCG64(4))
        sn.lmm_sample(sn.MixedStrategy.uniform(30), 50_000, rng)
        assert rng.calls == ["multinomial"]


class TestSmallSupportApproximation:
    def test_point_mass_unchanged(self, meeting3):
        eq = sn.StrategyProfile.from_vectors([0, 1, 0], [0, 1, 0])
        out = sn.small_support_approximation(meeting3, eq, 0.1, 0.125, seed=5)
        assert np.array_equal(out.row.probs, eq.row.probs)
        assert np.array_equal(out.col.probs, eq.col.probs)

    def test_concentrated_profile_unchanged(self, matching_pennies):
        eq = sn.enumerate_equilibria(matching_pennies).equilibria[0]
        out = sn.small_support_approximation(matching_pennies, eq, 0.05, 0.1, seed=5)
        # both entries are heavy at this sample size, nothing to resample
        assert np.array_equal(out.row.probs, eq.row.probs)

    def test_parameter_order_enforced(self, matching_pennies):
        eq = sn.enumerate_equilibria(matching_pennies).equilibria[0]
        with pytest.raises(ParameterError):
            sn.small_support_approximation(matching_pennies, eq, 0.3, 0.1, seed=5)

    def test_random_game_distance_bound(self):
        eps, delta = 0.1, 0.2
        g = sn.random_game(10, 10, 123)
        eq = sn.enumerate_equilibria(g, max_support=3).equilibria[0]
        S = light_sample_size(10, eps, delta, 56.0**2)
        for seed in range(20):
            out = sn.small_support_approximation(g, eq, eps, delta, seed=seed)
            assert sn.profile_distance(out, eq) <= 8 * delta + 0.05
            assert len(out.row.support) <= len(eq.row.support) + math.ceil(S)
