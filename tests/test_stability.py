import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stablenash as sn
from stablenash.errors import (
    DegenerateInputError,
    DomainError,
    ParameterError,
    PreconditionError,
    ResourceBudgetError,
)
from stablenash import lp, oracle, stability
from stablenash.config import DEFAULT_ENUM_BUDGET, DEFAULT_PARTITION_BUDGET, SPLIT_RETRY_LIMIT
from stablenash.serialize import canonical_dumps
from stablenash.embedding import embed
from stablenash.lp import INFEASIBLE, OPTIMAL, LpOutcome, _solve_stack, solve_lp
from stablenash.stability import MODE_PLAIN, MODE_WELL_SUPPORTED, perturbation_battery
from stablenash.support import heavy_light_partition, light_sample_size

from conftest import (
    profile_bytes,
    region_arrays,
    scalar_estimate_witness,
    scalar_sampler,
    scalar_split_coins,
    scalar_split_deviation,
    scalar_split_from_coins,
    scalar_split_probe,
    subset_max_distance,
    unscreened_ws_candidates,
)


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


    def test_meeting_battery_lp_count(self, meeting3, monkeypatch):
        # the battery's 57 games solve as many LPs as 57 enumerations one by
        # one: 808, counting a stack's members and lone solve_lp calls (871
        # when the screen tested each declared action alone)
        lps, stacks = [], []
        real_lp, real_stack = oracle.solve_lp, oracle.solve_stack

        def counted(*args, **kwargs):
            lps.append(1)
            return real_lp(*args, **kwargs)

        def stacked(A, *rest):
            stacks.append(len(A))
            return real_stack(A, *rest)

        monkeypatch.setattr(oracle, "solve_lp", counted)
        monkeypatch.setattr(oracle, "solve_stack", stacked)
        sn.estimate_perturbation_stability(meeting3, 0.02, trials=2, seed=5)
        assert len(lps) + sum(stacks) == 808
        assert min(stacks) > 1

    def test_battery_is_measured_by_one_array_distance(self, meeting3, monkeypatch):
        calls = []
        real = stability.distances_to_set

        def counted(profiles, eqs):
            calls.append(len(profiles))
            return real(profiles, eqs)

        monkeypatch.setattr(stability, "distances_to_set", counted)
        monkeypatch.setattr(stability, "distance_to_set", None)  # not reached
        rep = sn.estimate_perturbation_stability(meeting3, 0.02, trials=2, seed=1)
        assert len(calls) == 1 and calls[0] > len(perturbation_battery(meeting3, 0.02))
        assert rep.delta_hat > 0.0

    def test_battery_is_one_enumerate_stack_call(self, meeting3, monkeypatch):
        calls = []
        real = stability.enumerate_stack

        def counted(games, *args):
            calls.append(len(games))
            return real(games, *args)

        monkeypatch.setattr(stability, "enumerate_stack", counted)
        rep = sn.estimate_perturbation_stability(meeting3, 0.02, trials=2, seed=5)
        assert calls == [len(perturbation_battery(meeting3, 0.02)) + 2]
        assert rep.delta_hat > 0.0


class TestApproximationStability:
    @pytest.mark.parametrize("mode", [MODE_PLAIN, MODE_WELL_SUPPORTED])
    @pytest.mark.parametrize(
        "game",
        [
            sn.meeting_game(3),
            sn.dominance_gap_game(0.1),
            sn.random_game(3, 3, 1),
            sn.random_game(3, 3, 2),
            sn.BimatrixGame([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]),
        ],
        ids=["meeting3", "dominance_gap", "random3_1", "random3_2", "dominant_row"],
    )
    def test_witness_matches_scalar_loop(self, game, mode):
        # the benchmark audit's approx and ws games at its eps and trials:
        # one stacked regrets call and one distances_to_set call pick the
        # witness that checking the candidates one at a time picks
        for seed in (0, 5):
            rep = sn.estimate_approximation_stability(game, 0.05, mode, trials=64, seed=seed)
            want = scalar_estimate_witness(game, 0.05, mode, 64, seed)
            got = [(w.distance, w.label, profile_bytes(w.profile)) for w in rep.witnesses]
            assert got == ([] if want is None else [(*want[:2], profile_bytes(want[2]))])
            assert rep.delta_hat == (0.0 if want is None else want[0])

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

    def test_ws_search_guard_raises_before_any_lp(self):
        # a 3x3 game has (2^3 - 1)^2 = 49 declared-support pairs
        g = sn.random_game(3, 3, 0)
        with pytest.raises(ResourceBudgetError):
            sn.estimate_approximation_stability(
                g, 0.05, MODE_WELL_SUPPORTED, trials=0, budget=48
            )
        rep = sn.estimate_approximation_stability(g, 0.05, MODE_PLAIN, trials=0, budget=48)
        assert rep.mode == MODE_PLAIN

    def test_partition_budget_raises_before_any_lp(self, meeting3, monkeypatch):
        # the subset sweep bounds its subsets: above its budget it raises
        # before its first LP, in the estimators as in the certifier
        calls = []  # one entry per stack member, each an LP

        def infeasible(A, *rest):
            calls.extend(A)
            return [LpOutcome(INFEASIBLE)] * len(A)

        monkeypatch.setattr(stability, "_solve_stack", infeasible)
        region = region_arrays([(np.ones(3), "=", 1.0)])
        ref = np.array([0.5, 0.25, 0.25])
        pinned = np.array([0.0, np.inf, np.inf])  # leaves two movable entries
        for zero_upper, budget in ((None, 8), (pinned, 4)):
            request = [(*region, ref, zero_upper)]
            with pytest.raises(ResourceBudgetError):
                stability.subset_sweep(request, budget - 1, sn.DEFAULT_TOLS)
            assert calls == []
            assert stability.subset_sweep(request, budget, sn.DEFAULT_TOLS) == [[]]
            assert len(calls) == budget
            calls.clear()
        monkeypatch.setattr(stability, "DEFAULT_PARTITION_BUDGET", 1)
        with pytest.raises(ResourceBudgetError):
            sn.estimate_approximation_stability(meeting3, 0.05, MODE_PLAIN, trials=0)
        assert calls == []


_WS_EPS = (0.0, 0.01, 0.05, 0.25)


def _assert_same_ws_candidates(game, eps_values=_WS_EPS):
    base = sn.enumerate_equilibria(game)
    for eps in eps_values:
        got = stability._ws_candidates(game, eps, base, DEFAULT_ENUM_BUDGET, sn.DEFAULT_TOLS)
        want = unscreened_ws_candidates(game, eps, base)
        assert [(label, profile_bytes(p)) for label, p in got] == [
            (label, profile_bytes(p)) for label, p in want
        ]


class TestScreenedWsSearch:
    # the screen drops only pairs whose feasibility LPs fail, so the
    # candidates, their order and their bytes are those of the unscreened loop

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3)), st.integers(0, 20_000))
    def test_matches_unscreened_on_small_integer_games(self, shape, seed):
        rng = np.random.default_rng(seed)
        R, C = rng.integers(0, 3, size=(2, *shape)) / 2.0
        _assert_same_ws_candidates(sn.BimatrixGame(R, C))

    def test_matches_unscreened_on_exactly_eps_best_action(self):
        # action 1 trails action 0 by exactly eps on every opponent action
        _assert_same_ws_candidates(sn.dominance_gap_game(0.25), (0.25,))

    def test_matches_unscreened_on_embedded_game(self):
        _assert_same_ws_candidates(embed(sn.random_game(3, 3, 0), 0.0002).game)

    def test_meeting_feasibility_lp_count(self, meeting3, monkeypatch):
        # 72 feasibility LPs without the screen; the sweep stacks hold 115
        # LPs, each distinct sweep once (230 when every request was solved)
        calls = {"feasibility": 0, "sweep": 0}

        def counted(A, relations, rhs, lower, upper, objective=None, tol=sn.DEFAULT_TOLS):
            calls["feasibility" if objective is None else "sweep"] += 1
            return solve_lp(A, relations, rhs, lower, upper, objective, tol)

        def stacked(A, *rest):
            calls["sweep"] += len(A)
            return _solve_stack(A, *rest)

        monkeypatch.setattr(stability, "solve_lp", counted)
        monkeypatch.setattr(stability, "_solve_stack", stacked)
        rep = sn.estimate_approximation_stability(
            meeting3, 0.05, MODE_WELL_SUPPORTED, trials=0
        )
        assert rep.delta_hat == pytest.approx(0.1)
        assert calls == {"feasibility": 18, "sweep": 115}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.booleans())
def test_subset_sweep_matches_scalar_subset_lps(seed, n, pin):
    # one call holds an unrestricted request, a restricted one (pinning
    # ref's mass outside the allowed entries when ``pin``) and the first
    # again: the same subsets are feasible as with one scalar LP per subset,
    # each vertex realizes its subset's g(M), and the farthest vertex is at
    # the pruned maximum
    rng = np.random.default_rng(seed)
    allowed = rng.random(n) < 0.6
    allowed[rng.integers(n)] = True
    zero_upper = np.where(allowed, np.inf, 0.0)
    inner = np.where(allowed, rng.dirichlet(np.ones(n)), 0.0)
    inner /= inner.sum()  # a point of the restricted region
    ref = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    ref[rng.integers(n)] += 0.1
    if pin:
        ref[np.flatnonzero(~allowed)] += 0.1
    ref /= ref.sum()
    rows = [(np.ones(n), "=", 1.0)]
    for _ in range(rng.integers(1, 4)):
        a = rng.uniform(-1.0, 1.0, n)
        slack = rng.uniform(0.0, 0.2)
        if rng.random() < 0.5:
            rows.append((a, ">=", float(a @ inner) - slack))
        else:
            rows.append((a, "<=", float(a @ inner) + slack))
    region = region_arrays(rows)
    requests = [(*region, ref, None), (*region, ref, zero_upper), (*region, ref, None)]
    statuses = []

    def recording(*args):
        outs = _solve_stack(*args)
        statuses.extend(out.status for out in outs)
        return outs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_solve_stack", recording)
        sweeps = stability.subset_sweep(requests, DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS)
    assert [(d, v.tobytes()) for d, v in sweeps[2]] == [(d, v.tobytes()) for d, v in sweeps[0]]
    pruned = stability.max_distance(requests[:2], DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS)
    assert sweeps[1]  # the subsets hold the region's point
    for upper, sweep, largest in zip((None, zero_upper), sweeps, pruned):
        open_ = np.ones(n, dtype=bool) if upper is None else allowed
        movable = [int(i) for i in np.flatnonzero((ref != 0) & open_)]
        pinned = {int(i) for i in np.flatnonzero((ref != 0) & ~open_)}
        masks = range(2 ** len(movable))
        feasible = [mask for mask, status in zip(masks, statuses) if status == OPTIMAL]
        del statuses[: len(masks)]
        subsets = [
            tuple(sorted(pinned | {i for b, i in enumerate(movable) if mask >> b & 1}))
            for mask in feasible
        ]
        values = {}
        want = subset_max_distance(*region, ref, upper, sn.DEFAULT_TOLS, values)
        assert sorted(subsets) == sorted(M for M in values if pinned <= set(M))
        assert len(sweep) == len(subsets)
        for M, (distance, vertex) in zip(subsets, sweep):
            assert ref[list(M)].sum() - vertex[list(M)].sum() == pytest.approx(
                values[M], abs=1e-12
            )
            assert distance == np.abs(vertex - ref).sum()
        assert max([0.0] + [d for d, _ in sweep]) == pytest.approx(largest, abs=1e-12)
        assert largest == pytest.approx(want, abs=1e-12)
    assert statuses == []


def test_sweep_over_several_chunks_matches_one_stack(monkeypatch):
    # a stack larger than its float bound is solved chunk by chunk, with the
    # same bytes as in one piece
    region = region_arrays(
        [(np.ones(4), "=", 1.0), (np.array([1.0, -1.0, 0.5, 0.0]), ">=", -0.25)]
    )
    ref = np.array([0.4, 0.3, 0.2, 0.1])
    requests = [
        (*region, ref, None),
        (*region, ref, np.array([np.inf, np.inf, 0.0, np.inf])),
    ]

    def swept():
        sweeps = stability.subset_sweep(requests, DEFAULT_PARTITION_BUDGET, sn.DEFAULT_TOLS)
        return [[(np.float64(d).tobytes(), v.tobytes()) for d, v in s] for s in sweeps]

    whole = swept()
    chunks = []
    real_chunk = lp._solve_chunk

    def counted(*args):
        chunks.append(len(args[3]))
        return real_chunk(*args)

    monkeypatch.setattr(lp, "_solve_chunk", counted)
    monkeypatch.setattr(lp, "STACK_FLOATS", 600)
    assert swept() == whole
    assert sum(chunks) == 16 + 8 and len(chunks) > 1
    assert len(whole[0]) > 1 and len(whole[1]) > 1


_ESTIMATES = {
    "approximation": lambda: sn.estimate_approximation_stability(
        sn.meeting_game(3), 0.05, MODE_PLAIN, trials=8, seed=2
    ),
    "well_supported": lambda: sn.estimate_approximation_stability(
        sn.meeting_game(3), 0.05, MODE_WELL_SUPPORTED, trials=8, seed=2
    ),
    "perturbation": lambda: sn.estimate_perturbation_stability(sn.matching_pennies(), 0.05),
}


@pytest.mark.parametrize("estimate", sorted(_ESTIMATES))
@pytest.mark.parametrize("jump_at", [None, 3])
def test_witness_ignores_float_dust(estimate, jump_at, monkeypatch):
    # each candidate lies 1e-16 farther than the one before, which must not
    # displace the earliest witness; a lead of 1e-6 still must
    seen = []

    def distance(k):
        return 0.25 + 1e-16 * k + (1e-6 if k == jump_at else 0.0)

    def rising(profile, eqs):
        seen.append(profile)
        return distance(len(seen) - 1)

    def rising_stack(profiles, eqs):
        seen.extend(profiles)
        return np.array([distance(k) for k in range(len(seen) - len(profiles), len(seen))])

    # the approximation estimators measure one candidate at a time, the
    # perturbation estimator all perturbed equilibria at once
    monkeypatch.setattr(stability, "distance_to_set", rising)
    monkeypatch.setattr(stability, "distances_to_set", rising_stack)
    rep = _ESTIMATES[estimate]()
    assert len(seen) > 4
    first = 0 if jump_at is None else jump_at
    assert rep.witnesses[0].profile is seen[first]
    expected = 0.25 + 1e-16 * first + (1e-6 if first == jump_at else 0.0)
    assert rep.delta_hat == rep.witnesses[0].distance == expected


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

    @pytest.mark.parametrize("mode", [MODE_PLAIN, MODE_WELL_SUPPORTED])
    @pytest.mark.parametrize("name", sorted(SAMPLER_GAMES))
    def test_stacked_profiles_match_per_sample_from_vectors(self, name, mode, monkeypatch):
        # the accepted stack is validated once; each profile must be bitwise
        # what from_vectors makes of its own sample
        make, eps = SAMPLER_GAMES[name]
        g = make()
        eqs = sn.enumerate_equilibria(g)
        stacks = []
        real = sn.StrategyProfile.from_rows

        def spy(P, Q, tol):
            stacks.append((P.copy(), Q.copy()))
            return real(P, Q, tol)

        monkeypatch.setattr(sn.StrategyProfile, "from_rows", spy)
        samples = sn.sample_approximate_equilibria(g, eps, 60, 4, mode=mode, eqs=eqs)
        P = np.concatenate([P for P, _ in stacks])
        Q = np.concatenate([Q for _, Q in stacks])
        assert len(samples) == len(P) > 0
        want = [sn.StrategyProfile.from_vectors(p, q) for p, q in zip(P, Q)]
        assert [profile_bytes(s) for s in samples] == [profile_bytes(w) for w in want]

    def test_generator_passes_through(self, meeting3):
        a = sn.sample_approximate_equilibria(meeting3, 0.05, 20, seed=6)
        b = sn.sample_approximate_equilibria(meeting3, 0.05, 20, seed=np.random.default_rng(6))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.row.probs, y.row.probs)
            assert np.array_equal(x.col.probs, y.col.probs)

    def test_chunk_is_drawn_as_three_blocks(self, meeting3):
        class Counting(np.random.Generator):
            def __init__(self, bit_generator):
                super().__init__(bit_generator)
                self.calls = []

            def dirichlet(self, alpha, size=None):
                self.calls.append(("dirichlet", len(alpha), size))
                return super().dirichlet(alpha, size)

            def integers(self, *args, **kwargs):
                self.calls.append(("integers", kwargs.get("size")))
                return super().integers(*args, **kwargs)

        rng = Counting(np.random.PCG64(6))
        samples = sn.sample_approximate_equilibria(meeting3, 0.05, 50, seed=rng)
        # one chunk of 50: p0, q0, then the targets, one block call each
        assert rng.calls == [("dirichlet", 3, 50), ("dirichlet", 3, 50), ("integers", 50)]
        same = sn.sample_approximate_equilibria(meeting3, 0.05, 50, seed=6)
        assert [profile_bytes(s) for s in samples] == [profile_bytes(s) for s in same]


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


@st.composite
def _split_cases(draw):
    """A strategy, a light part carrying at least 8*delta mass, delta, a
    trial count and a seed."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 40))
    p = sn.MixedStrategy.from_probs(rng.dirichlet(np.full(n, draw(st.sampled_from([0.3, 1.0, 20.0])))))
    light = tuple(sorted(rng.choice(p.support, size=draw(st.integers(1, len(p.support))),
                                    replace=False).tolist()))
    heavy = tuple(i for i in p.support if i not in light)
    split = sn.HeavyLightSplit(heavy, light, float(p.probs[list(heavy)].sum()), "mass-threshold")
    light_mass = float(p.probs[list(light)].sum())
    delta = draw(st.floats(1e-4, 1.0)) * light_mass / 8.0
    return p, split, delta, draw(st.integers(0, 25)), seed


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_split_cases())
def test_stacked_split_deviations_match_per_trial(case):
    # the probe's stack of deviations, row by row, is bitwise what the
    # reference's attempt rounds and one from_probs per trial make, and one
    # random_split_deviation call per trial keeps the attempt-by-attempt
    # stream of the reference's lone trial
    p, split, delta, trials, seed = case
    tol = sn.DEFAULT_TOLS
    light, light_probs = stability._split_light(p, split, delta, tol)
    rng = np.random.default_rng(seed)
    draws = stability._split_coins(light_probs, delta, trials, rng, tol, SPLIT_RETRY_LIMIT)
    stacked = stability._split_deviations(p.probs, light, light_probs, *draws, delta, tol)
    rng = np.random.default_rng(seed)
    coins, _ = scalar_split_coins(light_probs, delta, trials, rng, tol, SPLIT_RETRY_LIMIT)
    scalar = [scalar_split_from_coins(p, light, c, delta, tol) for c in coins if c is not None]
    assert len(scalar) == len(stacked)
    for row, ref in zip(stacked, scalar):
        assert row.tobytes() == ref.probs.tobytes()
        assert tuple(np.flatnonzero(row).tolist()) == ref.support
    rng = np.random.default_rng(seed)
    per_trial = []
    for _ in range(trials):
        try:
            per_trial.append(sn.random_split_deviation(p, split, delta, rng, tol))
        except DegenerateInputError:
            per_trial.append(None)
    rng = np.random.default_rng(seed)
    lone = [scalar_split_deviation(p, split, delta, rng, tol) for _ in range(trials)]
    assert [dev is None for dev in per_trial] == [ref is None for ref in lone]
    for dev, ref in zip(per_trial, lone):
        if dev is not None:
            assert dev.probs.tobytes() == ref.probs.tobytes()
            assert dev.support == ref.support


@st.composite
def _probe_cases(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    rows, cols = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    game = sn.BimatrixGame(rng.random((rows, cols)), rng.random((rows, cols)))

    def strategy(n):
        kind = draw(st.sampled_from(["uniform", "dirichlet", "spiked"]))
        if kind == "uniform":
            return np.full(n, 1.0 / n)
        return rng.dirichlet(np.full(n, 5.0 if kind == "dirichlet" else 0.5))

    profiles = [sn.StrategyProfile.from_vectors(strategy(rows), strategy(cols))
                for _ in range(draw(st.integers(1, 3)))]
    eps = draw(st.sampled_from([0.05, 0.1, 0.3]))
    delta = draw(st.sampled_from([0.005, 0.01, 0.02, 0.05]))
    coeff = draw(st.sampled_from([1.0, 10.0, 100.0, sn.config.LIGHT_SAMPLE_COEFF]))
    return game, eps, delta, draw(st.integers(0, 40)), seed, profiles, coeff


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_probe_cases())
def test_probe_reports_match_scalar_reference_bytes(case):
    # the stacked probe's report is byte for byte the one-trial-at-a-time
    # reference's, drifts from one vector @ matrix per deviation included
    game, eps, delta, trials, seed, profiles, coeff = case
    profile, refs = profiles[0], profiles
    try:
        want = scalar_split_probe(game, eps, delta, trials, seed, profile, refs, coeff)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            sn.random_split_probe(game, eps, delta, trials, seed, profile, refs, coeff)
        return
    got = sn.random_split_probe(game, eps, delta, trials, seed, profile, refs, coeff)
    assert canonical_dumps(got) == canonical_dumps(want)


class TestSplitRetryPath:
    """Light parts of two and three atoms at delta = 0.12, near the 8*delta
    legality limit: the tails must carry 0.36, so half or more of the draws
    are illegal and most sides have trials that retry."""

    DELTA = 0.12
    PROFILE = ([0.5, 0.3, 0.2], [0.6, 0.4])

    def _probe_args(self, seed):
        # at coeff 1 the sample size is 1, so the whole support is light
        prof = sn.StrategyProfile.from_vectors(*self.PROFILE)
        return (sn.random_game(3, 2, seed), 0.3, self.DELTA, 4, seed, prof, [prof], 1.0)

    def test_probe_matches_scalar_reference_bytes(self):
        retried = 0
        for seed in range(12):
            args = self._probe_args(seed)
            got = canonical_dumps(sn.random_split_probe(*args))
            assert got == canonical_dumps(scalar_split_probe(*args))
            # each coin is one draw of the stream, so the rounds use the
            # same legal rows as one trial after another, and the report,
            # which does not depend on the trial order, stays the same
            assert got == canonical_dumps(scalar_split_probe(*args, per_trial=True))
            # the row side draws first: did its trials take more than one round
            _, rounds = scalar_split_coins(
                np.array(self.PROFILE[0]), self.DELTA, 4, np.random.default_rng(seed)
            )
            retried += rounds > 1
        assert retried >= 8

    def test_rounds_decide_which_trials_run_out(self, monkeypatch):
        # with two attempts, trials run out: the rounds give the pending
        # trials their second attempt after every trial's first
        monkeypatch.setattr(stability, "SPLIT_RETRY_LIMIT", 2)
        moved = degenerate = 0
        for seed in range(12):
            args = self._probe_args(seed)
            got = sn.random_split_probe(*args)
            assert canonical_dumps(got) == canonical_dumps(scalar_split_probe(*args, retries=2))
            old = scalar_split_probe(*args, per_trial=True, retries=2)
            moved += canonical_dumps(got) != canonical_dumps(old)
            degenerate += got["row"]["degenerate"] + got["col"]["degenerate"]
        assert degenerate and moved

    def test_one_trial_stream_is_unchanged_on_retries(self):
        # one random_split_deviation call draws attempt by attempt, as the
        # reference's lone trial does, also when its first draws are illegal
        p = sn.MixedStrategy.uniform(3)
        split = sn.HeavyLightSplit((), (0, 1, 2), 0.0, "light-threshold")
        retried = 0
        for seed in range(30):
            first = np.random.default_rng(seed).integers(0, 2, size=3)
            retried += int(first.sum() != 1)
            got = sn.random_split_deviation(p, split, self.DELTA, seed)
            want = scalar_split_deviation(p, split, self.DELTA, np.random.default_rng(seed))
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.support == want.support
        assert retried >= 10



def _state_bytes(state):
    """A bit generator's state as comparable bytes (MT19937 holds an array)."""
    if isinstance(state, dict):
        return b"".join(k.encode() + _state_bytes(v) for k, v in sorted(state.items()))
    return np.asarray(state).tobytes() if isinstance(state, np.ndarray) else repr(state).encode()


class TestSplitCoinReplay:
    """The coins come from one block replayed round by round, then the
    generator is rewound and redraws the rows the rounds took."""

    # (light entries, trials, retries, share of the light mass the tails
    # must carry, 32-bit words drawn first: odd ones leave a half word
    # buffered in the 64-bit generators)
    CASES = [
        (8, 40, SPLIT_RETRY_LIMIT, 0.3, 1),  # the montecarlo workload's side
        (3, 12, SPLIT_RETRY_LIMIT, 0.9, 3),  # mostly illegal: the block grows
        (2, 5, 2, 0.95, 1),  # two rounds, trials run out
        (3, 6, 1, 0.8, 0),
        (4, 6, 0, 0.5, 1),  # no round, no draw
        (5, 0, SPLIT_RETRY_LIMIT, 0.5, 1),  # no trial
        (1, 4, 3, 0.2, 1),  # one light atom: no row is ever legal
        (1, 3, SPLIT_RETRY_LIMIT, 0.2, 0),
        (12, 25, SPLIT_RETRY_LIMIT, 0.5, 2),  # classes of 8 or more coins
        (20, 10, 2, 0.99, 3),
    ]

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
        np.random.SFC64,
    ])
    def test_matches_reference_rounds_bitwise(self, bit_generator):
        tol = sn.DEFAULT_TOLS
        exhausted = 0
        for case, (width, trials, retries, share, words) in enumerate(self.CASES):
            for seed in range(4):
                light_probs = np.random.default_rng([case, seed]).dirichlet(np.ones(width))
                delta = share * light_probs.sum() / 3.0

                def generator():
                    rng = np.random.Generator(bit_generator(seed))
                    rng.integers(0, 2**32, size=words, dtype=np.uint32)
                    return rng

                rng = generator()
                coins, up, down = stability._split_coins(
                    light_probs, delta, trials, rng, tol, retries
                )
                ref = generator()
                want, _ = scalar_split_coins(light_probs, delta, trials, ref, tol, retries)
                legal = [c for c in want if c is not None]
                exhausted += trials - len(legal) if retries else 0
                assert coins.dtype == np.int64 and coins.shape == (len(legal), width)
                for row, c, u, d in zip(coins, legal, up, down):
                    assert row.tobytes() == c.tobytes()
                    assert u.tobytes() == light_probs[c == 1].sum().tobytes()
                    assert d.tobytes() == light_probs[c == 0].sum().tobytes()
                assert _state_bytes(rng.bit_generator.state) == _state_bytes(ref.bit_generator.state)
        assert exhausted

    def test_probe_side_draws_a_bounded_number_of_blocks(self):
        # one side of the montecarlo probe (flat 100-action strategy, 8
        # light atoms, 40 trials) takes several rounds, yet draws its coins
        # in at most three calls: the block, at most one extension, and the
        # redraw after the rewind
        class Counting(np.random.Generator):
            def __init__(self, bit_generator):
                super().__init__(bit_generator)
                self.calls = 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return super().integers(*args, **kwargs)

        tol = sn.DEFAULT_TOLS
        p = sn.MixedStrategy.uniform(100)
        S = max(light_sample_size(100, 0.05, 0.01, sn.config.LIGHT_SAMPLE_COEFF), 1.0)
        light, light_probs = stability._split_light(
            p, heavy_light_partition(p, S, 0.01, tol), 0.01, tol
        )
        assert len(light) == 8
        rounds = []
        for seed in range(20):
            rng = Counting(np.random.PCG64(seed))
            coins, _, _ = stability._split_coins(light_probs, 0.01, 40, rng, tol, SPLIT_RETRY_LIMIT)
            assert len(coins) == 40
            assert rng.calls <= 3
            _, n = scalar_split_coins(light_probs, 0.01, 40, np.random.default_rng(seed), tol)
            rounds.append(n)
        assert min(rounds) >= 3


class TestLightMassBoundary:
    """``1 - beta`` and the light entries' own sum can round to opposite
    sides of the 8*delta threshold; the probe decides by the sum, as one
    deviation does. Both strategies are Dirichlet(1) draws and each delta
    puts ``8*delta - tol.zero`` between the two values."""

    def _probe(self, seed, n, delta):
        p = sn.MixedStrategy.from_probs(np.random.default_rng(seed).dirichlet(np.ones(n)))
        profile = sn.StrategyProfile(p, sn.MixedStrategy.uniform(4))
        args = (sn.random_game(n, 4, 7), 0.05, delta, 5, 0, profile, [profile], 1e6)
        S = max(light_sample_size(n, 0.05, delta, 1e6), 1.0)
        split = heavy_light_partition(p, S, delta)
        sum_mass = float(p.probs[list(split.light)].sum())
        got = sn.random_split_probe(*args)
        assert canonical_dumps(got) == canonical_dumps(scalar_split_probe(*args))
        return 1.0 - split.beta, sum_mass, 8.0 * delta - sn.DEFAULT_TOLS.zero, got["row"]

    def test_sum_below_threshold_is_concentrated(self):
        # 1 - beta passes the threshold and the sum does not: the side is
        # concentrated, not a PreconditionError from the sum's own check
        beta_mass, sum_mass, threshold, row = self._probe(3, 5, 0.023722516081863407)
        assert sum_mass < threshold <= beta_mass
        assert row["concentrated"] == row["trials"] == 5

    def test_sum_at_threshold_draws_coins(self):
        # 1 - beta falls short and the sum does not: the trials draw coins
        beta_mass, sum_mass, threshold, row = self._probe(1, 3, 0.005706246236532104)
        assert beta_mass < threshold <= sum_mass
        assert row["concentrated"] == 0
        assert row["deviations"] + row["degenerate"] == 5

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
            light_mass = float(strategy.probs[list(split.light)].sum())
            if not split.light or light_mass < 8.0 * delta - tol.zero:
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_raise(bad, matching_pennies):
    # NaN slips past a plain "< 0" check, and an infinite eps or delta
    # would make non-finite perturbations, LP rows or report fields
    game = matching_pennies
    eq = sn.enumerate_equilibria(game).equilibria[0]
    p = sn.MixedStrategy.from_probs([0.4, 0.15, 0.15, 0.15, 0.15])
    split = sn.heavy_light_partition(p, 4, 0.01)
    calls = [
        lambda: sn.estimate_perturbation_stability(game, bad),
        lambda: sn.estimate_approximation_stability(game, bad),
        lambda: sn.sample_approximate_equilibria(game, bad, 4),
        lambda: sn.perturbation_witness(game, eq, bad),
        lambda: sn.internal_deviation(game, eq, bad),
        lambda: sn.random_split_deviation(p, split, bad, seed=0),
        lambda: sn.random_split_probe(game, bad, 0.1),
        lambda: sn.random_split_probe(game, 0.1, bad),
        lambda: sn.find_well_supported(game, bad),
        lambda: embed(game, bad),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_negative_trials_raise(matching_pennies):
    for call in (
        sn.estimate_perturbation_stability,
        sn.estimate_approximation_stability,
        lambda game, eps, trials: sn.random_split_probe(game, eps, eps, trials),
    ):
        with pytest.raises(ParameterError):
            call(matching_pennies, 0.05, trials=-1)


def test_negative_sample_count_raises(matching_pennies):
    # count=-3 would otherwise return [] as if nothing passed
    with pytest.raises(ParameterError):
        sn.sample_approximate_equilibria(matching_pennies, 0.05, -3)


def test_negative_bisection_steps_raise(matching_pennies):
    # steps=-4 would otherwise skip the bisection without a word
    with pytest.raises(ParameterError):
        sn.sample_approximate_equilibria(matching_pennies, 0.05, 10, steps=-4)
