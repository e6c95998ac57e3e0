import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stablenash as sn
from stablenash.errors import DomainError, ParameterError, ResourceBudgetError
from stablenash.support import light_sample_size

from conftest import random_simplex


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
