import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stablenash as sn
from stablenash.errors import (
    DegenerateInputError,
    DomainError,
    ParameterError,
    PreconditionError,
)
from stablenash import stability
from stablenash.stability import MODE_PLAIN, MODE_WELL_SUPPORTED, perturbation_battery
from stablenash.support import heavy_light_partition, light_sample_size

from conftest import scalar_sampler


class TestPerturbationStability:
    def test_zero_eps_zero_displacement(self, matching_pennies):
        rep = sn.estimate_perturbation_stability(matching_pennies, 0.0, trials=2)
        assert rep.delta_hat == 0.0

    def test_battery_contains_single_entry_hits(self, meeting3):
        labels = [label for label, _ in perturbation_battery(meeting3, 0.05)]
        assert "entry:R:+:1,0" in labels
        assert "shift:both:-" in labels

    def test_public_goods_small_eps_rigid(self):
        pg = sn.public_goods(3)
        rep = sn.estimate_perturbation_stability(pg, 0.02, trials=3, seed=1)
        assert rep.delta_hat == 0.0

    def test_public_goods_large_eps_breaks(self):
        pg = sn.public_goods(3)
        rep = sn.estimate_perturbation_stability(pg, 1 / 12 + 0.01, trials=0)
        assert rep.delta_hat == 1.0
        assert rep.witnesses[0].perturbed_game is not None

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(st.integers(0, 2_000))
    def test_perturbed_equilibria_are_well_supported_in_base(self, seed):
        # every equilibrium of an eps-perturbed game is a well-supported
        # 2*eps equilibrium of the base game
        eps = 0.05
        g = sn.random_game(3, 3, seed)
        rng = np.random.default_rng(seed + 1)
        dR = rng.uniform(-eps, eps, size=(3, 3))
        dC = rng.uniform(-eps, eps, size=(3, 3))
        gp = sn.BimatrixGame(g.R + dR, g.C + dC, (-eps, 1 + eps))
        for eq in sn.enumerate_equilibria(gp).equilibria:
            rep = sn.regrets(g, eq)
            assert rep.max_ws_gap <= 2 * eps + 1e-7


class TestApproximationStability:
    def test_gap_game_separation(self, gap_game):
        ws = sn.estimate_approximation_stability(
            gap_game, 0.05, MODE_WELL_SUPPORTED, trials=16, seed=3
        )
        plain = sn.estimate_approximation_stability(
            gap_game, 0.05, "plain", trials=16, seed=3
        )
        assert ws.delta_hat <= 1e-6
        assert plain.delta_hat >= 0.5 - 1e-6

    def test_gap_game_exact_radius_and_parameter_range(self):
        # the half-gap profile is the farthest eps-equilibrium, at eps/gap;
        # the radius found satisfies 3*delta >= eps
        for gap, eps in ((0.1, 0.05), (0.2, 0.05), (0.4, 0.1)):
            g = sn.dominance_gap_game(gap)
            rep = sn.estimate_approximation_stability(g, eps, trials=8, seed=5)
            assert rep.delta_hat == pytest.approx(eps / gap, abs=1e-6)
            assert 3 * rep.delta_hat >= eps - 1e-9

    def test_meeting_well_supported_radius(self, meeting3):
        rep = sn.estimate_approximation_stability(
            meeting3, 0.05, MODE_WELL_SUPPORTED, trials=32, seed=9
        )
        assert rep.delta_hat <= 0.1 + 1e-6

    def test_witnesses_verify(self, meeting3):
        rep = sn.estimate_approximation_stability(
            meeting3, 0.05, MODE_PLAIN, trials=16, seed=2
        )
        w = rep.witnesses[0]
        assert sn.regrets(meeting3, w.profile).max_regret <= 0.05 + 1e-7
        assert w.distance == rep.delta_hat

    def test_mode_validation(self, meeting3):
        with pytest.raises(ParameterError):
            sn.estimate_approximation_stability(meeting3, 0.05, "bogus")


class TestSampler:
    def test_samples_satisfy_predicate(self, meeting3):
        samples = sn.sample_approximate_equilibria(meeting3, 0.05, 50, seed=4)
        for s in samples:
            assert sn.regrets(meeting3, s).max_regret <= 0.05 + 1e-9

    def test_ws_samples(self, meeting3):
        samples = sn.sample_approximate_equilibria(
            meeting3, 0.05, 30, seed=4, mode=MODE_WELL_SUPPORTED
        )
        for s in samples:
            assert sn.regrets(meeting3, s).max_ws_gap <= 0.05 + 1e-9

    def test_deterministic(self, meeting3):
        a = sn.sample_approximate_equilibria(meeting3, 0.05, 10, seed=8)
        b = sn.sample_approximate_equilibria(meeting3, 0.05, 10, seed=8)
        for x, y in zip(a, b):
            assert np.array_equal(x.row.probs, y.row.probs)


def _dominant_row():
    R = np.array([[1.0, 1.0], [0.0, 0.0]])
    return sn.BimatrixGame(R, 1.0 - R)


SAMPLER_GAMES = {
    "meeting3": (lambda: sn.meeting_game(3), 0.05),
    "gap": (lambda: sn.dominance_gap_game(0.1), 0.05),
    "dominant_row": (_dominant_row, 0.05),
    **{
        f"mmp{s}": (lambda s=s: sn.random_modified_matching_pennies(3, 0.1, s), 0.01)
        for s in range(4)
    },
}


class TestLockstepSampler:
    @pytest.mark.parametrize("mode", [MODE_PLAIN, MODE_WELL_SUPPORTED])
    @pytest.mark.parametrize("name", sorted(SAMPLER_GAMES))
    def test_matches_scalar_reference(self, name, mode):
        make, eps = SAMPLER_GAMES[name]
        g = make()
        eqs = sn.enumerate_equilibria(g)
        for seed in (0, 1):
            samples = sn.sample_approximate_equilibria(g, eps, 40, seed, mode=mode, eqs=eqs)
            ref = scalar_sampler(g, eps, 40, seed, mode == MODE_WELL_SUPPORTED, eqs)
            assert len(samples) == len(ref)
            for s, (p, q) in zip(samples, ref):
                want = sn.StrategyProfile.from_vectors(p, q)
                assert s.row.support == want.row.support
                assert s.col.support == want.col.support
                np.testing.assert_allclose(s.row.probs, want.row.probs, rtol=0, atol=1e-12)
                np.testing.assert_allclose(s.col.probs, want.col.probs, rtol=0, atol=1e-12)

    def test_final_verification_drops_failing_targets(self, matching_pennies):
        # a target that is no equilibrium: samples bisected all the way to
        # it fail the final check and are dropped, as one at a time
        bad = sn.StrategyProfile.from_vectors([1.0, 0.0], [1.0, 0.0])
        eqs = sn.EquilibriumSet(equilibria=(bad,), complete=False, method={})
        samples = sn.sample_approximate_equilibria(matching_pennies, 0.05, 40, 2, eqs=eqs)
        ref = scalar_sampler(matching_pennies, 0.05, 40, 2, False, eqs)
        assert len(samples) == len(ref) < 40
        for s in samples:
            assert sn.regrets(matching_pennies, s).max_regret <= 0.05

    @pytest.mark.parametrize("count", [10, 1000])
    def test_kernel_calls_bounded_by_steps(self, count, monkeypatch):
        g = sn.random_modified_matching_pennies(3, 0.1, 0)
        eqs = sn.enumerate_equilibria(g)
        calls = []
        kernel = stability.raw_regrets

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(stability, "raw_regrets", counted)
        steps = 48
        samples = sn.sample_approximate_equilibria(g, 0.01, count, 3, eqs=eqs, steps=steps)
        assert samples
        assert calls[0] == count  # every starting point in one call
        assert 2 < len(calls) <= steps + 2

    def test_generator_passes_through(self, meeting3):
        a = sn.sample_approximate_equilibria(meeting3, 0.05, 20, seed=6)
        b = sn.sample_approximate_equilibria(meeting3, 0.05, 20, seed=np.random.default_rng(6))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.row.probs, y.row.probs)
            assert np.array_equal(x.col.probs, y.col.probs)


class TestPerturbationWitness:
    def test_meeting_mix_shifts(self, meeting3):
        prof = sn.StrategyProfile.from_vectors([0, 0.55, 0.45], [0, 0.55, 0.45])
        out = sn.perturbation_witness(meeting3, prof, 0.05)
        shifts = out.R - meeting3.R
        assert shifts[1] == pytest.approx([-0.05] * 3, abs=1e-12)
        assert shifts[2] == pytest.approx([0.05] * 3, abs=1e-12)
        assert shifts[0] == pytest.approx([0.0] * 3, abs=1e-12)
        rep = sn.regrets(out, prof)
        assert max(rep.max_regret, rep.max_ws_gap) <= 1e-9
        assert sn.is_perturbation_within(meeting3, out, 0.05)

    def test_exact_equilibrium_zero_eps_unchanged(self, matching_pennies):
        eq = sn.enumerate_equilibria(matching_pennies).equilibria[0]
        out = sn.perturbation_witness(matching_pennies, eq, 0.0)
        assert np.array_equal(out.R, matching_pennies.R)
        assert np.array_equal(out.C, matching_pennies.C)

    def test_precondition_enforced(self, gap_game):
        bad = sn.StrategyProfile.from_vectors([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(PreconditionError):
            sn.perturbation_witness(gap_game, bad, 0.01)  # gap 0.1 > 2*0.01

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.integers(0, 2_000))
    def test_postconditions_on_sampled_profiles(self, seed):
        eps = 0.05
        g = sn.random_game(3, 3, seed)
        samples = sn.sample_approximate_equilibria(
            g, 2 * eps, 3, seed=seed, mode=MODE_WELL_SUPPORTED
        )
        for prof in samples:
            out = sn.perturbation_witness(g, prof, eps)
            assert sn.is_perturbation_within(g, out, eps)
            rep = sn.regrets(out, prof)
            assert max(rep.max_regret, rep.max_ws_gap) <= 1e-6

    def test_ws_witness_realizable_as_perturbed_equilibrium(self, meeting3):
        # any well-supported 2*eps witness can be promoted to an exact
        # equilibrium of some eps-perturbation, so the well-supported radius
        # at 2*eps never exceeds the true perturbation radius at eps
        eps = 0.05
        rep = sn.estimate_approximation_stability(
            meeting3, 2 * eps, MODE_WELL_SUPPORTED, trials=16, seed=6
        )
        witness = rep.witnesses[0].profile
        perturbed = sn.perturbation_witness(meeting3, witness, eps)
        prep = sn.regrets(perturbed, witness)
        assert max(prep.max_regret, prep.max_ws_gap) <= 1e-6


class TestInternalDeviation:
    def test_matching_pennies_shift(self, matching_pennies):
        eq = sn.enumerate_equilibria(matching_pennies).equilibria[0]
        out = sn.internal_deviation(matching_pennies, eq, 0.1)
        assert out.row.probs == pytest.approx([0.6, 0.4], abs=1e-12)
        rep = sn.regrets(matching_pennies, out)
        assert rep.col_ws_gap <= 0.2 + 1e-9

    def test_zero_alpha_unchanged(self, matching_pennies):
        eq = sn.enumerate_equilibria(matching_pennies).equilibria[0]
        out = sn.internal_deviation(matching_pennies, eq, 0.0)
        assert out is eq

    def test_meeting_mixed_equilibrium(self, meeting3):
        eq = sn.StrategyProfile.from_vectors([0, 0.5, 0.5], [0, 0.5, 0.5])
        out = sn.internal_deviation(meeting3, eq, 0.1)
        assert out.row.probs == pytest.approx([0, 0.6, 0.4], abs=1e-12)
        assert sn.regrets(meeting3, out).max_ws_gap <= 0.2 + 1e-9

    def test_pure_strategy_rejected(self, meeting3):
        eq = sn.StrategyProfile.from_vectors([1, 0, 0], [1, 0, 0])
        with pytest.raises(DomainError):
            sn.internal_deviation(meeting3, eq, 0.05)

    def test_non_equilibrium_rejected(self, meeting3):
        prof = sn.StrategyProfile.from_vectors([0.4, 0.3, 0.3], [0.4, 0.3, 0.3])
        with pytest.raises(PreconditionError):
            sn.internal_deviation(meeting3, prof, 0.05)

    def test_alpha_beyond_movable_mass_rejected(self, matching_pennies):
        eq = sn.enumerate_equilibria(matching_pennies).equilibria[0]
        with pytest.raises(ParameterError):
            sn.internal_deviation(matching_pennies, eq, 0.7)


class TestRandomSplitDeviation:
    def _spiked(self):
        p = sn.MixedStrategy.from_probs([0.4, 0.15, 0.15, 0.15, 0.15])
        split = sn.heavy_light_partition(p, 4, 0.01)
        assert split.heavy == (0,)
        return p, split

    def test_heavy_entries_bitwise_unchanged(self):
        p, split = self._spiked()
        out = sn.random_split_deviation(p, split, 0.01, seed=2)
        assert out.probs[0] == p.probs[0]

    def test_distance_is_three_delta(self):
        p, split = self._spiked()
        out = sn.random_split_deviation(p, split, 0.01, seed=2)
        assert sn.variation_distance(p, out) == pytest.approx(0.03, abs=1e-9)
        assert set(out.support) <= set(p.support)

    def test_output_is_valid_strategy(self):
        p, split = self._spiked()
        for seed in range(10):
            out = sn.random_split_deviation(p, split, 0.015, seed=seed)
            assert (out.probs >= 0).all()
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_light_atom_degenerate(self):
        p = sn.MixedStrategy.from_probs([0.9, 0.1])
        split = sn.HeavyLightSplit(heavy=(0,), light=(1,), beta=0.9, terminated_by="mass-threshold")
        with pytest.raises((DegenerateInputError, PreconditionError)):
            sn.random_split_deviation(p, split, 0.01, seed=0)

    def test_light_mass_precondition(self):
        p = sn.MixedStrategy.from_probs([0.9, 0.05, 0.05])
        split = sn.HeavyLightSplit(heavy=(0,), light=(1, 2), beta=0.9, terminated_by="mass-threshold")
        with pytest.raises(PreconditionError):
            sn.random_split_deviation(p, split, 0.05, seed=0)  # needs mass 0.4


class TestRandomSplitProbe:
    def test_concentrated_profile_yields_no_deviations(self, meeting3):
        report = sn.random_split_probe(
            meeting3, eps=0.3, delta=0.02, trials=20, seed=1
        )
        for side in ("row", "col"):
            assert report[side]["trials"] == 20
            assert report[side]["deviations"] == 0
            assert report[side]["concentrated"] == 20
        assert report["reference_family"]["pure_difference_vectors"] == 18

    def test_flat_equilibrium_deviations_respect_guarantees(self):
        # generalized matching pennies on 64 actions has the uniform
        # equilibrium; its flat strategy is all-light at the honest sample
        # size, so the 3*delta deviation fires and stays within the
        # payoff-drift budget
        n = 64
        R = np.eye(n)
        g = sn.BimatrixGame(R, 1.0 - R)
        uniform = sn.StrategyProfile(
            sn.MixedStrategy.uniform(n), sn.MixedStrategy.uniform(n)
        )
        report = sn.random_split_probe(
            g, eps=0.1, delta=0.007, trials=30, seed=1,
            profile=uniform, references=[uniform],
        )
        for side in ("row", "col"):
            assert report[side]["deviations"] == 30
            assert report[side]["payoff_violations"] == 0
            assert report[side]["distance_violations"] == 0
            assert report[side]["max_payoff_drift"] <= 0.1

    def test_probe_requires_positive_parameters(self, meeting3):
        with pytest.raises(ParameterError):
            sn.random_split_probe(meeting3, eps=0.0, delta=0.1)


def _per_trial_probe(game, eps, delta, trials, seed, profile=None, references=None):
    """The probe with the partition and reference distances recomputed in
    every trial, as a reference for the per-side version."""
    tol = sn.DEFAULT_TOLS
    if profile is None or references is None:
        eqs = sn.enumerate_equilibria(game)
        if profile is None:
            profile = eqs.equilibria[0]
        if references is None:
            references = list(eqs.equilibria)
    rng = np.random.default_rng(seed)
    rows, cols = game.shape

    def side(strategy, payoff, refs, n):
        S = max(light_sample_size(n, eps, delta, sn.config.LIGHT_SAMPLE_COEFF), 1.0)
        out = dict.fromkeys(
            ("concentrated", "degenerate", "deviations", "payoff_violations",
             "distance_violations"), 0)
        out.update(trials=trials, sample_size=S, max_payoff_drift=0.0)
        for _ in range(trials):
            split = heavy_light_partition(strategy, S, min(delta, 0.125), tol)
            if not split.light or 1.0 - split.beta < 8.0 * delta - tol.zero:
                out["concentrated"] += 1
                continue
            try:
                dev = sn.random_split_deviation(strategy, split, delta, rng, tol)
            except DegenerateInputError:
                out["degenerate"] += 1
                continue
            out["deviations"] += 1
            shift = (dev.probs - strategy.probs) @ payoff
            drift = float(shift.max() - shift.min())
            out["max_payoff_drift"] = max(out["max_payoff_drift"], drift)
            out["payoff_violations"] += drift > eps + tol.zero
            out["distance_violations"] += any(
                sn.variation_distance(dev, r)
                <= sn.variation_distance(strategy, r) - delta
                for r in refs
            )
        return out

    row = side(profile.row, game.C, [r.row for r in references], rows)
    col = side(profile.col, game.R.T, [r.col for r in references], cols)
    return row, col


class TestSplitProbeSharesThePartition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_gmp(self, seed):
        n = 100
        g = sn.BimatrixGame(np.eye(n), 1.0 - np.eye(n))
        uniform = sn.StrategyProfile(sn.MixedStrategy.uniform(n), sn.MixedStrategy.uniform(n))
        report = sn.random_split_probe(
            g, 0.05, 0.01, 40, seed, profile=uniform, references=[uniform]
        )
        row, col = _per_trial_probe(g, 0.05, 0.01, 40, seed, uniform, [uniform])
        assert report["row"] == row and report["col"] == col
        assert row["deviations"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_meeting3(self, meeting3, seed):
        eqs = sn.enumerate_equilibria(meeting3)
        mixed = max(eqs.equilibria, key=lambda e: len(e.row.support))
        # the default pure profile is concentrated; the mixed one at
        # eps = 0.5 is all light and deviates in every trial
        for profile, eps in ((None, 0.1), (mixed, 0.5)):
            report = sn.random_split_probe(meeting3, eps, 0.01, 20, seed, profile=profile)
            row, col = _per_trial_probe(meeting3, eps, 0.01, 20, seed, profile)
            assert report["row"] == row and report["col"] == col
        assert row["deviations"] == 20
