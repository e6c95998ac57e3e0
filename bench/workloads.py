"""The benchmark's workloads: seeded inputs, one public call per operation,
and the independent check of each call's output.

``build(name, seed, workdir)`` makes a workload's operations from its seed.
An operation's ``call`` looks its target up on the stablenash module at call
time, so the traced run's rebinding applies; its ``check`` returns a list of
problems found by the numpy-only code in ``checks``.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import stablenash as sn
import stablenash.cli
import stablenash.stability
import stablenash.support
from stablenash.serialize import canonical_dumps, game_to_dict

WORKLOADS = ("census", "audit", "montecarlo")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False
    follows: bool = False  # must run right after the operation before it


def _seeds(seed: int, workload: str):
    """Independent integer seeds for one workload's inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        yield int(rng.integers(2**31))


def _profiles(profiles):
    return [(e.row.probs, e.col.probs) for e in profiles]


# --- census: one enumerate_equilibria call per operation -------------------

# (size, games per round). Most operations are 4x4, so the median and the
# tail percentile both fall among them whatever the seed.
CENSUS_RANDOM = ((4, 30), (5, 3), (6, 1))
CENSUS_FAMILY_SIZES = (3, 4, 5)


def _census(seed: int, workdir: Path) -> list[Op]:
    seeds = _seeds(seed, "census")
    ops = []

    def enumerate_op(game):
        return lambda: sn.enumerate_equilibria(game)

    for n, count in CENSUS_RANDOM:
        for _ in range(count):
            g = sn.random_game(n, n, next(seeds))
            ref = checks.reference_equilibria(g.R, g.C)
            ops.append(Op(
                f"random{n}", enumerate_op(g),
                lambda eqs, g=g, ref=ref: checks.check_census_random(
                    g.R, g.C, _profiles(eqs.equilibria), eqs.complete, ref),
            ))
    for n in CENSUS_FAMILY_SIZES:
        g = sn.meeting_game(n)
        ops.append(Op(
            f"meeting{n}", enumerate_op(g),
            lambda eqs, g=g, n=n: checks.check_census_meeting(n, g.R, g.C, _profiles(eqs.equilibria)),
        ))
        g = sn.public_goods(n)
        ops.append(Op(
            f"public_goods{n}", enumerate_op(g),
            lambda eqs, g=g: checks.check_census_public_goods(g.R, g.C, _profiles(eqs.equilibria)),
        ))
    return ops


# --- audit: one in-process CLI call per operation --------------------------

AUDIT_EPS = 0.05
ZS_ALPHA = 0.1
ZS_SIZES = (12, 12, 12, 13, 13, 13, 13, 14, 14, 14)
# Minimax support size of every constant-sum game. With 5 the sweeps cost
# 0.27-0.33 s each, a tight group in which the tail percentile falls.
ZS_SUPPORT = 5
EMBED_EPS = 0.0002
ROUND_TRIPS = 32  # their embed and extract calls hold the median
# The heaviest operations (the perturbation batteries and the certify-zs
# sweeps) take games that do not depend on the seed. Battery costs on six
# seeded 4x4 games spanned 8.9-11.4 s, and sweeps on seeded games with
# minimax support 6 spanned 0.53-1.0 s. They fill the round's wall time and
# its tail percentile, so seeded games would move both metrics from seed to
# seed by more than their bounds.
FIXED_SEED = 0


def _cli(argv: list[str], stdin) -> tuple[int, str, str]:
    """``stablenash.cli.run(argv)`` with ``stdin`` (text, or a function
    giving it) on standard input; returns (exit code, stdout, stderr)."""
    text = stdin() if callable(stdin) else stdin
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = sn.cli.run(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _cli_op(label, call, check, known_fault=False, first=None, follows=False) -> Op:
    """A CLI operation. Its check requires exit code 0 and the same stdout
    bytes as the first call sharing ``first``, then applies ``check`` to the
    parsed JSON document."""
    first = [] if first is None else first

    def full_check(result):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        if not first:
            first.append(out)
        elif out != first[0]:
            return ["output bytes differ from the first identical call"]
        return check(json.loads(out))

    return Op(label, call, full_check, known_fault, follows)


def _run(argv: list[str], stdin):
    return lambda: _cli(argv, stdin)


def _game_json(game) -> str:
    return canonical_dumps(game_to_dict(game))


def _expect(name, value, ok) -> list[str]:
    return [] if ok else [f"{name} = {value!r}"]


def _constant_sum_games(seeds, sizes, support) -> list:
    """Random constant-sum games whose minimax strategies both have
    ``support`` actions, so each certify-zs sweep covers 2^support sign
    partitions whatever the seed."""
    games = []
    for n in sizes:
        while True:
            g = sn.random_constant_sum_game(n, next(seeds))
            mm = sn.minimax_solve(g)
            if len(mm.p_star.support) == len(mm.q_star.support) == support:
                games.append(g)
                break
    return games


def _audit(seed: int, workdir: Path) -> list[Op]:
    seeds = _seeds(seed, "audit")
    ops: list[Op] = []
    eps = AUDIT_EPS

    pg = sn.public_goods(3)
    e0 = np.eye(3)[0]
    for p_eps, want in ((0.02, 0.0), (1 / 24 - 1e-5, 0.0), (1 / 12 + 0.01, 1.0)):
        ops.append(_cli_op(
            f"perturb public_goods3 eps={p_eps:.5f}",
            _run(["certify", "--mode", "perturb", "--eps", repr(p_eps), "--trials", "0"],
                 _game_json(pg)),
            lambda r, e=p_eps, want=want: checks.check_perturbation_report(
                pg.R, pg.C, e, r, base=[(e0, e0)])
            + _expect("delta_hat", r["delta_hat"], r["delta_hat"] == want),
        ))

    meeting = sn.meeting_game(3)
    ops.append(_cli_op(
        "perturb meeting3",
        _run(["certify", "--mode", "perturb", "--eps", "0.02", "--trials", "2",
              "--seed", str(next(seeds))], _game_json(meeting)),
        lambda r: checks.check_perturbation_report(meeting.R, meeting.C, 0.02, r),
    ))
    battery = sn.random_game(4, 4, FIXED_SEED)
    battery_ref = checks.reference_equilibria(battery.R, battery.C)
    ops.append(_cli_op(
        "perturb random4",
        _run(["certify", "--mode", "perturb", "--eps", "0.02", "--trials", "0"],
             _game_json(battery)),
        lambda r: checks.check_perturbation_report(
            battery.R, battery.C, 0.02, r, base=battery_ref),
    ))
    rand = sn.random_game(3, 3, next(seeds))
    rand_ref = checks.reference_equilibria(rand.R, rand.C)

    gap = sn.dominance_gap_game(0.1)
    gap_eq = [(np.eye(2)[0], np.eye(2)[0])]
    approx_cases = [
        ("meeting3", meeting, None, (lambda mode, r: [])),
        ("dominance_gap", gap, gap_eq, lambda mode, r: (
            _expect("ws delta_hat", r["delta_hat"], r["delta_hat"] <= 1e-6) if mode == "ws"
            else _expect("plain delta_hat", r["delta_hat"], r["delta_hat"] >= 0.5 - 1e-6))),
        ("random3", rand, rand_ref, (lambda mode, r: [])),
    ]
    for name, game, base, closed_form in approx_cases:
        for mode in ("approx", "ws"):
            argv = ["certify", "--mode", mode, "--eps", repr(eps), "--trials", "64",
                    "--seed", str(next(seeds))]
            first = []
            ops.append(_cli_op(
                f"{mode} {name}", _run(argv, _game_json(game)),
                lambda r, g=game, mode=mode, base=base, cf=closed_form:
                    checks.check_approximation_report(g.R, g.C, eps, mode == "ws", r, base)
                    + cf(mode, r),
                first=first,
            ))
            if name == "dominance_gap" and mode == "approx":
                # The same argv and input twice in one round: identical bytes.
                ops.append(_cli_op(f"{mode} {name} (repeat)", ops[-1].call,
                                   lambda r: [], first=first, follows=True))

    # Known fault: distance_to_set measures to the listed vertices only, so on
    # this degenerate game (equilibrium set {e_1} x simplex) the reported
    # lower bound exceeds the true radius, which is at most eps: every
    # eps-equilibrium has p[0] >= 1 - eps.
    dom = sn.BimatrixGame(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]]))
    ops.append(_cli_op(
        "approx dominant_row",
        _run(["certify", "--mode", "approx", "--eps", repr(eps), "--seed", "0"],
             _game_json(dom)),
        lambda r: checks.check_approximation_report(dom.R, dom.C, eps, False, r)
        + _expect("delta_hat (sound bound <= eps)", r["delta_hat"], r["delta_hat"] <= eps + 1e-9),
        known_fault=True,
    ))

    zs_argv = ["certify-zs", "--alpha", repr(ZS_ALPHA), "--well-supported"]
    mp = sn.matching_pennies()
    ops.append(_cli_op(
        "certify-zs matching_pennies", _run(zs_argv, _game_json(mp)),
        lambda r: checks.check_certificate(mp.R, mp.C, ZS_ALPHA, r)
        + _expect("delta", r["delta"], abs(r["delta"] - ZS_ALPHA) <= 1e-9),
    ))
    for g in _constant_sum_games(_seeds(FIXED_SEED, "audit"), ZS_SIZES, ZS_SUPPORT):
        ops.append(_cli_op(
            f"certify-zs constant_sum{g.rows}", _run(zs_argv, _game_json(g)),
            lambda r, g=g: checks.check_certificate(g.R, g.C, ZS_ALPHA, r),
        ))

    delta = (8.0 * EMBED_EPS) ** 0.25
    solve_eps = delta**4 / 8.0
    for k in range(ROUND_TRIPS):
        source = sn.random_game(3, 3, next(seeds))
        pipe: dict[str, str] = {}
        profile_file = workdir / f"solve{k}.json"

        def embed(text=_game_json(source), pipe=pipe):
            result = _cli(["embed", "--eps", repr(EMBED_EPS)], text)
            pipe["embedded"] = result[1]
            return result

        def solve(pipe=pipe, path=profile_file):
            result = _cli(["solve", "--eps", repr(solve_eps)], pipe["embedded"])
            path.write_text(result[1], encoding="utf-8")  # read by extract
            return result

        ops.append(_cli_op("embed", embed, lambda r: _expect(
            "meta.delta", r["meta"]["delta"], abs(r["meta"]["delta"] - delta) <= 1e-12)))
        ops.append(_cli_op("solve", solve,
                           lambda r, pipe=pipe: _check_solve(pipe["embedded"], solve_eps, r),
                           follows=True))
        ops.append(_cli_op(
            "extract",
            _run(["extract", "--profile", str(profile_file)], lambda pipe=pipe: pipe["embedded"]),
            lambda r, s=source: checks.check_round_trip(s.R, s.C, EMBED_EPS, r["p"], r["q"]),
            follows=True,
        ))
    return ops


def _check_solve(embedded_json: str, eps: float, result: dict) -> list[str]:
    if not result["found"]:
        return ["no well-supported profile found"]
    emb = json.loads(embedded_json)
    _, gap = checks.regrets(emb["R"], emb["C"], result["profile"]["p"], result["profile"]["q"])
    return _expect("solve ws gap", gap, gap <= eps + checks.EQ_TOL)


# --- montecarlo: sampler, split probe and small-support compression --------

MMP_N, MMP_DELTA = 3, 0.1
MMP_GAMES = 4
SAMPLES = 300
PROBE_N, PROBE_EPS, PROBE_DELTA, PROBE_TRIALS, PROBES = 100, 0.05, 0.01, 40, 6
SSA_N, SSA_EPS, SSA_DELTA, SSA_OPS = 60, 0.05, 0.1, 4


def _montecarlo(seed: int, workdir: Path) -> list[Op]:
    seeds = _seeds(seed, "montecarlo")
    ops: list[Op] = []
    eps = MMP_DELTA**2
    window = (MMP_N, MMP_DELTA / 2, 4 * MMP_DELTA)
    for _ in range(MMP_GAMES):
        g = sn.random_modified_matching_pennies(MMP_N, MMP_DELTA, next(seeds))
        eqs = sn.enumerate_equilibria(g)
        for mode in (sn.stability.MODE_PLAIN, sn.stability.MODE_WELL_SUPPORTED):
            s = next(seeds)
            ops.append(Op(
                f"sample {mode}",
                lambda g=g, eqs=eqs, mode=mode, s=s: sn.stability.sample_approximate_equilibria(
                    g, eps, SAMPLES, s, mode=mode, eqs=eqs),
                lambda out, g=g, mode=mode: (["no sample returned"] if not out else [])
                + checks.check_samples(g.R, g.C, eps, mode == sn.stability.MODE_WELL_SUPPORTED,
                                       _profiles(out), window),
            ))

    # Flat generalized matching pennies: its only equilibrium is uniform, so
    # the heavy/light split leaves exactly 8*delta of light mass.
    eye = np.eye(PROBE_N)
    gmp = sn.BimatrixGame(eye, 1.0 - eye)
    uniform = sn.StrategyProfile(sn.MixedStrategy.uniform(PROBE_N), sn.MixedStrategy.uniform(PROBE_N))
    for _ in range(PROBES):
        s = next(seeds)
        ops.append(Op(
            "probe gmp",
            lambda s=s: sn.stability.random_split_probe(
                gmp, PROBE_EPS, PROBE_DELTA, PROBE_TRIALS, s, profile=uniform,
                references=[uniform]),
            lambda rep: checks.check_probe(PROBE_EPS, rep),
        ))

    coeff = sn.config.LIGHT_SAMPLE_COEFF
    for _ in range(SSA_OPS):
        rng = np.random.default_rng(next(seeds))
        game = sn.random_game(SSA_N, SSA_N, next(seeds))
        eq = sn.StrategyProfile.from_vectors(_heavy_light(rng, SSA_N), _heavy_light(rng, SSA_N))
        s = next(seeds)
        ops.append(Op(
            "small_support",
            lambda game=game, eq=eq, s=s: sn.support.small_support_approximation(
                game, eq, SSA_EPS, SSA_DELTA, s),
            lambda out, eq=eq: [
                f"{side}: {m}"
                for side, a, b in (("row", eq.row, out.row), ("col", eq.col, out.col))
                for m in checks.check_small_support(a.probs, b.probs, SSA_EPS, SSA_DELTA, coeff)
            ],
        ))
    return ops


def _heavy_light(rng, n: int) -> np.ndarray:
    """Three heavy atoms holding 60% of the mass, the rest spread thinly."""
    v = np.zeros(n)
    idx = rng.permutation(n)
    v[idx[:3]] = 0.6 * rng.dirichlet([5.0, 3.0, 2.0])
    v[idx[3:]] = 0.4 * rng.dirichlet(np.ones(n - 3))
    return v / v.sum()


_BUILDERS = {"census": _census, "audit": _audit, "montecarlo": _montecarlo}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operations in round order.

    Operations of one kind are spread over the round instead of running back
    to back: the machine's speed drifts by tens of percent within seconds,
    and a percentile that falls among them then averages that drift over the
    round instead of sampling a few seconds of it. The order is the same for
    every seed.
    """
    groups: list[list[Op]] = []
    for op in _BUILDERS[name](seed, workdir):
        if op.follows:
            groups[-1].append(op)
        else:
            groups.append([op])
    order = np.random.default_rng(0).permutation(len(groups))
    return [op for i in order for op in groups[i]]


def tail_percentile(ops_per_round: int) -> tuple[int, int]:
    """(rounds a run makes at least, percentile for op_tail_ms).

    A run makes enough rounds for 40 operations; the percentile is the
    highest whole one that leaves at least ten of those operations above it.
    """
    min_rounds = math.ceil(40 / ops_per_round)
    n = min_rounds * ops_per_round
    return min_rounds, math.floor(100 * (1 - 10 / n))
