"""Stability measurement and constructive witnesses.

Reported stability radii are explicit lower bounds: they are realized by a
recorded witness (a perturbed game whose equilibrium moved, or a verified
approximate equilibrium far from the exact set). Exact upper-bound
certification is only available for constant-sum games (see
:mod:`stablenash.constant_sum`), because general-game verification would
require enumerating equilibria of every admissible perturbation.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TOLS,
    LIGHT_SAMPLE_COEFF,
    PROBE_REFERENCE_COEFF,
    SPLIT_RETRY_LIMIT,
    Tolerances,
)
from .core import (
    BimatrixGame,
    MixedStrategy,
    StrategyProfile,
    is_perturbation_within,
    raw_regrets,
    regrets,
    variation_distance,
)
from .errors import (
    CertificateError,
    DegenerateInputError,
    DomainError,
    ParameterError,
    PreconditionError,
)
from .lp import FEASIBLE, OPTIMAL, LinearProgram, solve_lp
from .oracle import EquilibriumSet, distance_to_set, enumerate_equilibria
from .support import HeavyLightSplit, heavy_light_partition, light_sample_size

log = logging.getLogger(__name__)

MODE_PERTURBATION = "perturbation"
MODE_PLAIN = "approximation"
MODE_WELL_SUPPORTED = "well_supported"

_PARTITION_CAP = 18  # skip 2^k partition sweeps beyond this support size
# Probabilities per stacked sampler pass, which bounds the stack's memory.
_STACK_FLOATS = 1 << 18


@dataclass(frozen=True)
class Witness:
    """One recorded worst case: the profile achieving the distance and,
    for perturbation mode, the perturbed game it is an equilibrium of."""

    distance: float
    profile: StrategyProfile
    label: str
    perturbed_game: Optional[BimatrixGame] = None


@dataclass(frozen=True)
class StabilityReport:
    """Measured stability parameters; ``delta_hat`` is a lower bound."""

    epsilon: float
    delta_hat: float
    mode: str
    trials: int
    witnesses: tuple[Witness, ...]


def _perturbed(game: BimatrixGame, dR, dC, eps: float) -> BimatrixGame:
    lo, hi = game.nominal_range
    lo = min(lo, float(game.R.min()), float(game.C.min()))
    hi = max(hi, float(game.R.max()), float(game.C.max()))
    return BimatrixGame(game.R + dR, game.C + dC, (lo - eps, hi + eps))


def perturbation_battery(
    game: BimatrixGame, eps: float
) -> list[tuple[str, BimatrixGame]]:
    """Deterministic targeted perturbations: every single entry of R and C
    shifted by +/-eps, every row-player action slice (row of R) and
    column-player action slice (column of C), and uniform shifts.

    Targeted single-entry perturbations matter because games can be robust
    to diffuse noise yet flip their equilibrium when one payoff cell moves.
    """
    rows, cols = game.shape
    out: list[tuple[str, BimatrixGame]] = []
    zR = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            for sign, s in ((1.0, "+"), (-1.0, "-")):
                d = zR.copy()
                d[i, j] = sign * eps
                out.append((f"entry:R:{s}:{i},{j}", _perturbed(game, d, zR, eps)))
                out.append((f"entry:C:{s}:{i},{j}", _perturbed(game, zR, d, eps)))
    for i in range(rows):
        for sign, s in ((1.0, "+"), (-1.0, "-")):
            d = zR.copy()
            d[i, :] = sign * eps
            out.append((f"row:R:{s}:{i}", _perturbed(game, d, zR, eps)))
    for j in range(cols):
        for sign, s in ((1.0, "+"), (-1.0, "-")):
            d = zR.copy()
            d[:, j] = sign * eps
            out.append((f"col:C:{s}:{j}", _perturbed(game, zR, d, eps)))
    full = np.full((rows, cols), eps)
    for sign, s in ((1.0, "+"), (-1.0, "-")):
        out.append((f"shift:both:{s}", _perturbed(game, sign * full, sign * full, eps)))
        out.append((f"shift:R:{s}", _perturbed(game, sign * full, zR, eps)))
        out.append((f"shift:C:{s}", _perturbed(game, zR, sign * full, eps)))
    return out


def estimate_perturbation_stability(
    game: BimatrixGame,
    eps: float,
    trials: int = 0,
    seed=0,
    max_support: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    tol: Tolerances = DEFAULT_TOLS,
) -> StabilityReport:
    """Largest observed equilibrium displacement under eps-perturbations.

    Enumerates the equilibria of every battery game plus ``trials`` i.i.d.
    entrywise uniform [-eps, eps] perturbations, and records the worst
    distance from a perturbed-game equilibrium to the original equilibrium
    set. Ties keep the earliest witness, so output is seed-deterministic.
    """
    if eps < 0:
        raise ParameterError("eps must be non-negative")
    base = enumerate_equilibria(game, max_support, budget, tol)
    candidates = perturbation_battery(game, eps)
    rng = np.random.default_rng(seed)
    rows, cols = game.shape
    for t in range(trials):
        dR = rng.uniform(-eps, eps, size=(rows, cols))
        dC = rng.uniform(-eps, eps, size=(rows, cols))
        candidates.append((f"random:{t}", _perturbed(game, dR, dC, eps)))

    best: Optional[Witness] = None
    for label, g_prime in candidates:
        eqs = enumerate_equilibria(g_prime, max_support, budget, tol)
        for eq in eqs.equilibria:
            d = distance_to_set(eq, base)
            if best is None or d > best.distance:
                best = Witness(d, eq, label, g_prime)
    witnesses = (best,) if best is not None else ()
    return StabilityReport(
        epsilon=eps,
        delta_hat=best.distance if best else 0.0,
        mode=MODE_PERTURBATION,
        trials=trials,
        witnesses=witnesses,
    )


def sample_approximate_equilibria(
    game: BimatrixGame,
    eps: float,
    count: int,
    seed=0,
    mode: str = MODE_PLAIN,
    eqs: Optional[EquilibriumSet] = None,
    steps: int = 48,
    tol: Tolerances = DEFAULT_TOLS,
) -> list[StrategyProfile]:
    """Verified eps-equilibria sampled by repairing random profiles.

    Each sample interpolates a random profile toward a random exact
    equilibrium and bisects for the farthest point along the segment that
    still passes the mode's regret predicate; every returned profile has
    its predicate re-verified, so callers receive genuine eps-equilibria.

    The samples move in lockstep: the starting points and targets are drawn
    sample by sample (p0, q0, then the target index), then one
    :func:`raw_regrets` call checks every starting point, one call per
    bisection step checks the midpoints of the samples that failed it, and
    one final call verifies their repaired points. Samples are returned in
    the order they were drawn; at most ``_STACK_FLOATS`` probabilities are
    stacked at a time.
    """
    if eps < tol.eq:
        raise ParameterError("eps below the equilibrium verification tolerance")
    if eqs is None:
        eqs = enumerate_equilibria(game, tol=tol)
    if len(eqs) == 0:
        raise DomainError("no exact equilibria available as repair targets")
    rng = np.random.default_rng(seed)
    rows, cols = game.shape
    R, C = game.R, game.C
    well_supported = mode == MODE_WELL_SUPPORTED
    targets_p = np.array([e.row.probs for e in eqs.equilibria])
    targets_q = np.array([e.col.probs for e in eqs.equilibria])

    def ok(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        row_regret, col_regret, row_gap, col_gap = raw_regrets(R, C, P, Q, tol.zero)
        if well_supported:
            return np.maximum(row_gap, col_gap) <= eps
        return np.maximum(row_regret, col_regret) <= eps

    out: list[StrategyProfile] = []
    chunk = max(1, _STACK_FLOATS // (rows + cols))
    for start in range(0, count, chunk):
        m = min(chunk, count - start)
        P = np.empty((m, rows))
        Q = np.empty((m, cols))
        target = np.empty(m, dtype=np.intp)
        for k in range(m):
            P[k] = rng.dirichlet(np.ones(rows))
            Q[k] = rng.dirichlet(np.ones(cols))
            target[k] = rng.integers(len(eqs))
        passed = ok(P, Q)
        active = np.flatnonzero(~passed)
        if active.size:
            p0, q0 = P[active], Q[active]
            tp, tq = targets_p[target[active]], targets_q[target[active]]
            lo = np.zeros(active.size)
            hi = np.ones(active.size)
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                w = mid[:, None]
                good = ok((1 - w) * p0 + w * tp, (1 - w) * q0 + w * tq)
                hi = np.where(good, mid, hi)
                lo = np.where(good, lo, mid)
            w = hi[:, None]
            P[active] = (1 - w) * p0 + w * tp
            Q[active] = (1 - w) * q0 + w * tq
            # a sample whose hi stayed at 1.0 sits on its target, which
            # must pass too
            passed[active] = ok(P[active], Q[active])
        out.extend(
            StrategyProfile.from_vectors(P[k], Q[k], tol) for k in np.flatnonzero(passed)
        )
    return out


def _distance_maximizers(
    base_lp_rows: list[tuple[np.ndarray, str, float]],
    n: int,
    ref: np.ndarray,
    zero_upper: Optional[np.ndarray],
    tol: Tolerances,
) -> list[np.ndarray]:
    """Vertices maximizing variation distance to ``ref`` over a polytope.

    One LP per sign partition of ref's support: entries forced above ref
    count positively, entries forced below count their shortfall, and mass
    outside ref's support always counts. The partition constraints make the
    objective equal twice the variation distance, so the sweep's best vertex
    attains the true maximum distance.
    """
    support = [int(i) for i in np.nonzero(ref)[0]]
    movable = [i for i in support if zero_upper is None or zero_upper[i] > 0.0]
    fixed_minus = [i for i in support if i not in movable]
    if len(movable) > _PARTITION_CAP:
        return []
    outside = np.ones(n, dtype=bool)
    outside[support] = False
    results: list[np.ndarray] = []
    for mask in range(2 ** len(movable)):
        plus = [movable[b] for b in range(len(movable)) if mask >> b & 1]
        minus = [i for i in movable if i not in plus] + fixed_minus
        lp = LinearProgram(n, upper=zero_upper.copy() if zero_upper is not None else None)
        for coeffs, rel, rhs in base_lp_rows:
            lp.add_constraint(coeffs, rel, rhs)
        obj = np.where(outside, 1.0, 0.0)
        for i in plus:
            row = np.zeros(n)
            row[i] = 1.0
            lp.add_constraint(row, ">=", float(ref[i]))
            obj[i] = 1.0
        for i in minus:
            row = np.zeros(n)
            row[i] = 1.0
            lp.add_constraint(row, "<=", float(ref[i]))
            obj[i] = -1.0
        lp.set_objective(obj, maximize=True)
        out = solve_lp(lp, tol)
        if out.status == OPTIMAL:
            results.append(out.solution)
    return results


def _simplex_rows(n: int) -> list[tuple[np.ndarray, str, float]]:
    return [(np.ones(n), "=", 1.0)]


def _plain_candidates(
    game: BimatrixGame, eps: float, base: EquilibriumSet, tol: Tolerances
) -> list[tuple[str, StrategyProfile]]:
    """Far eps-equilibria with one side pinned to an exact equilibrium.

    With q fixed, both players' eps-best-response conditions are linear in
    p, so distance to each reference equilibrium can be maximized exactly
    by the partition sweep; symmetrically with p fixed.
    """
    rows, cols = game.shape
    R, C = game.R, game.C
    out: list[tuple[str, StrategyProfile]] = []
    for a_idx, anchor in enumerate(base.equilibria):
        q_star = anchor.col.probs
        rq = R @ q_star
        cq = C @ q_star
        p_rows = _simplex_rows(rows)
        p_rows.append((rq.copy(), ">=", float(rq.max()) - eps))
        for j in range(cols):
            p_rows.append((C[:, j] - cq, "<=", eps))
        for r_idx, ref in enumerate(base.equilibria):
            for p_cand in _distance_maximizers(p_rows, rows, ref.row.probs, None, tol):
                out.append(
                    (
                        f"lp:fix-q:{a_idx}:ref:{r_idx}",
                        StrategyProfile.from_vectors(p_cand, q_star, tol),
                    )
                )
        p_star = anchor.row.probs
        cp = p_star @ C
        rp = p_star @ R
        q_rows = _simplex_rows(cols)
        q_rows.append((cp.copy(), ">=", float(cp.max()) - eps))
        for i in range(rows):
            q_rows.append((R[i, :] - rp, "<=", eps))
        for r_idx, ref in enumerate(base.equilibria):
            for q_cand in _distance_maximizers(q_rows, cols, ref.col.probs, None, tol):
                out.append(
                    (
                        f"lp:fix-p:{a_idx}:ref:{r_idx}",
                        StrategyProfile.from_vectors(p_star, q_cand, tol),
                    )
                )
    return out


def _ws_region_rows(
    payoff: np.ndarray, opp_support: tuple[int, ...], eps: float
) -> list[tuple[np.ndarray, str, float]]:
    n = payoff.shape[1]
    rows = _simplex_rows(n)
    for i in opp_support:
        for a in range(payoff.shape[0]):
            if a == i:
                continue
            rows.append((payoff[i, :] - payoff[a, :], ">=", -eps))
    return rows


def _ws_candidates(
    game: BimatrixGame,
    eps: float,
    base: EquilibriumSet,
    budget: int,
    tol: Tolerances,
) -> list[tuple[str, StrategyProfile]]:
    """Far well-supported eps-profiles via declared-support enumeration.

    A profile built from any points of the two per-side regions is
    well-supported at eps: the declared supports over-approximate the
    realized ones, and the constraints quantify over the declared sets.
    """
    rows, cols = game.shape
    CT = np.ascontiguousarray(game.C.T)
    out: list[tuple[str, StrategyProfile]] = []
    pair_count = 0
    for S_p in _nonempty_subsets(rows):
        for S_q in _nonempty_subsets(cols):
            pair_count += 1
            if pair_count > budget:
                return out
            q_rows = _ws_region_rows(game.R, S_p, eps)
            q_upper = np.zeros(cols)
            q_upper[list(S_q)] = np.inf
            q_feas = _feasible_point(q_rows, cols, q_upper, tol)
            if q_feas is None:
                continue
            p_rows = _ws_region_rows(CT, S_q, eps)
            p_upper = np.zeros(rows)
            p_upper[list(S_p)] = np.inf
            p_feas = _feasible_point(p_rows, rows, p_upper, tol)
            if p_feas is None:
                continue
            label = f"ws-lp:{S_p}:{S_q}"
            out.append((label, StrategyProfile.from_vectors(p_feas, q_feas, tol)))
            for r_idx, ref in enumerate(base.equilibria):
                p_cands = _distance_maximizers(p_rows, rows, ref.row.probs, p_upper, tol)
                q_cands = _distance_maximizers(q_rows, cols, ref.col.probs, q_upper, tol)
                p_far = max(
                    p_cands,
                    key=lambda v: float(np.abs(v - ref.row.probs).sum()),
                    default=p_feas,
                )
                q_far = max(
                    q_cands,
                    key=lambda v: float(np.abs(v - ref.col.probs).sum()),
                    default=q_feas,
                )
                out.append(
                    (
                        f"{label}:ref:{r_idx}",
                        StrategyProfile.from_vectors(p_far, q_far, tol),
                    )
                )
    return out


def _nonempty_subsets(n: int):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


def _feasible_point(
    constraint_rows: list[tuple[np.ndarray, str, float]],
    n: int,
    upper: Optional[np.ndarray],
    tol: Tolerances,
) -> Optional[np.ndarray]:
    lp = LinearProgram(n, upper=upper)
    for coeffs, rel, rhs in constraint_rows:
        lp.add_constraint(coeffs, rel, rhs)
    out = solve_lp(lp, tol)
    return out.solution if out.status == FEASIBLE else None


def estimate_approximation_stability(
    game: BimatrixGame,
    eps: float,
    mode: str = MODE_PLAIN,
    trials: int = 100,
    seed=0,
    max_support: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    tol: Tolerances = DEFAULT_TOLS,
) -> StabilityReport:
    """Largest observed distance from a (well-supported) eps-equilibrium to
    the exact equilibrium set.

    Searches with (i) LP distance maximization per support/sign pattern and
    (ii) random sampling with repair; every candidate is re-verified against
    the mode's regret predicate before it can contribute.
    """
    if mode == "plain":
        mode = MODE_PLAIN
    if mode not in (MODE_PLAIN, MODE_WELL_SUPPORTED):
        raise ParameterError(f"unknown mode {mode!r}")
    if eps < 0:
        raise ParameterError("eps must be non-negative")
    base = enumerate_equilibria(game, max_support, budget, tol)

    candidates: list[tuple[str, StrategyProfile]] = []
    if mode == MODE_PLAIN:
        candidates.extend(_plain_candidates(game, eps, base, tol))
    else:
        candidates.extend(_ws_candidates(game, eps, base, budget, tol))
    if trials > 0 and eps >= tol.eq:
        samples = sample_approximate_equilibria(
            game, eps, trials, seed, mode=mode, eqs=base, tol=tol
        )
        candidates.extend((f"sample:{i}", s) for i, s in enumerate(samples))

    well_supported = mode == MODE_WELL_SUPPORTED
    best: Optional[Witness] = None
    for label, profile in candidates:
        rep = regrets(game, profile, tol)
        measure = rep.max_ws_gap if well_supported else rep.max_regret
        if measure > eps + tol.eq:
            log.debug("discarding candidate %s with measure %.3g", label, measure)
            continue
        d = distance_to_set(profile, base)
        if best is None or d > best.distance:
            best = Witness(d, profile, label)
    return StabilityReport(
        epsilon=eps,
        delta_hat=best.distance if best else 0.0,
        mode=mode if mode == MODE_WELL_SUPPORTED else MODE_PLAIN,
        trials=trials,
        witnesses=(best,) if best else (),
    )


def perturbation_witness(
    game: BimatrixGame,
    profile: StrategyProfile,
    eps: float,
    tol: Tolerances = DEFAULT_TOLS,
) -> BimatrixGame:
    """A game within eps of ``game`` in which ``profile`` is an exact
    equilibrium.

    Each supported row is shifted by the constant bringing its payoff to
    (best - eps); unsupported rows are lowered, by at most eps, to at most
    that level; symmetrically for columns. A well-supported 2*eps profile
    admits exactly these shifts within [-eps, eps].
    """
    if eps < 0:
        raise ParameterError("eps must be non-negative")
    rep = regrets(game, profile, tol)
    if rep.max_ws_gap > 2.0 * eps + tol.eq:
        raise PreconditionError(
            f"profile has well-supported gap {rep.max_ws_gap:.3g}, "
            f"exceeding 2*eps = {2 * eps:.3g}"
        )
    p, q = profile.row.probs, profile.col.probs
    row_pay = game.R @ q
    col_pay = p @ game.C
    row_shift = np.minimum(0.0, (row_pay.max() - eps) - row_pay)
    row_shift[list(profile.row.support)] = (row_pay.max() - eps) - row_pay[
        list(profile.row.support)
    ]
    col_shift = np.minimum(0.0, (col_pay.max() - eps) - col_pay)
    col_shift[list(profile.col.support)] = (col_pay.max() - eps) - col_pay[
        list(profile.col.support)
    ]
    row_shift = np.clip(row_shift, -eps, eps)
    col_shift = np.clip(col_shift, -eps, eps)
    lo, hi = game.nominal_range
    out = BimatrixGame(
        game.R + row_shift[:, None],
        game.C + col_shift[None, :],
        (lo - eps, hi + eps),
    )
    if not is_perturbation_within(game, out, eps, tol):
        raise CertificateError("constructed game exceeds the perturbation radius")
    out_rep = regrets(out, profile, tol)
    if max(out_rep.max_regret, out_rep.max_ws_gap) > 10.0 * tol.eq:
        raise CertificateError(
            "profile fails to be an equilibrium of the constructed game"
        )
    return out


def internal_deviation(
    game: BimatrixGame,
    profile: StrategyProfile,
    alpha: float,
    tol: Tolerances = DEFAULT_TOLS,
) -> StrategyProfile:
    """Move ``alpha`` probability mass inside the row support.

    Adds alpha to the lowest supported row and drains it from the highest
    supported rows, keeping the support contained in the original. Against
    the unchanged column strategy the result is a well-supported 2*alpha
    equilibrium (verified before returning).
    """
    if alpha < 0:
        raise ParameterError("alpha must be non-negative")
    rep = regrets(game, profile, tol)
    if max(rep.max_regret, rep.max_ws_gap) > tol.eq:
        raise PreconditionError("profile must be an exact equilibrium")
    supp = profile.row.support
    if len(supp) < 2:
        raise DomainError("row strategy is pure; no internal deviation exists")
    if alpha == 0:
        return profile
    v = profile.row.probs.copy()
    movable = float(v[list(supp[1:])].sum())
    if alpha > movable + tol.zero:
        raise ParameterError(
            f"alpha {alpha:.3g} exceeds the movable supported mass {movable:.3g}"
        )
    v[supp[0]] += alpha
    remaining = alpha
    for i in reversed(supp[1:]):
        take = min(float(v[i]), remaining)
        v[i] -= take
        remaining -= take
        if remaining <= 0:
            break
    deviated = MixedStrategy.from_probs(v, tol)
    moved = variation_distance(profile.row, deviated)
    if abs(moved - alpha) > 10.0 * tol.zero:
        raise CertificateError(f"deviation moved {moved:.3g} instead of {alpha:.3g}")
    out = StrategyProfile(deviated, profile.col)
    out_rep = regrets(game, out, tol)
    if out_rep.max_ws_gap > 2.0 * alpha + tol.eq:
        raise CertificateError(
            f"deviation is not well-supported at 2*alpha: gap {out_rep.max_ws_gap:.3g}"
        )
    return out


def random_split_deviation(
    p: MixedStrategy,
    split: HeavyLightSplit,
    delta: float,
    seed,
    tol: Tolerances = DEFAULT_TOLS,
    retries: int = SPLIT_RETRY_LIMIT,
) -> MixedStrategy:
    """Fair-coin reweighting of the light part moving exactly 3*delta mass.

    Light entries with heads absorb 3*delta extra mass pro rata; tails
    entries shed it pro rata. Heavy entries are untouched (bitwise). Draws
    are rejected until both coin classes can support the transfer, so with
    a single light atom the construction always fails.
    """
    if delta <= 0:
        raise ParameterError("delta must be positive")
    light = list(split.light)
    if not light:
        raise PreconditionError("light part is empty")
    light_probs = p.probs[light]
    light_mass = float(light_probs.sum())
    if light_mass < 8.0 * delta - tol.zero:
        raise PreconditionError(
            f"light mass {light_mass:.3g} below the 8*delta threshold {8 * delta:.3g}"
        )
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        coins = rng.integers(0, 2, size=len(light))
        up_mass = float(light_probs[coins == 1].sum())
        down_mass = float(light_probs[coins == 0].sum())
        # legality: the tails class must be able to shed 3*delta
        if up_mass <= tol.zero or down_mass < 3.0 * delta + tol.zero:
            continue
        v = p.probs.copy()
        adj = 3.0 * delta * light_probs * (
            coins / up_mass - (1 - coins) / down_mass
        )
        v[light] += adj
        out = MixedStrategy.from_probs(v, tol, renormalize=False)
        moved = variation_distance(p, out)
        if abs(moved - 3.0 * delta) > 10.0 * tol.zero:
            raise CertificateError(
                f"split deviation moved {moved:.3g} instead of {3 * delta:.3g}"
            )
        return out
    raise DegenerateInputError(
        f"no legal coin split after {retries} draws (light part too small)"
    )


def random_split_probe(
    game: BimatrixGame,
    eps: float,
    delta: float,
    trials: int = 50,
    seed=0,
    profile: Optional[StrategyProfile] = None,
    references: Optional[list[StrategyProfile]] = None,
    coeff: float = LIGHT_SAMPLE_COEFF,
    tol: Tolerances = DEFAULT_TOLS,
) -> dict:
    """Monte-Carlo check of the randomized split deviation's guarantees.

    For each side, partitions the strategy once at sample size
    S = coeff * (delta/eps)^2 * log(n) and measures its distance to each
    reference once; each trial then attempts the 3*delta split (its moved
    mass checked per trial by :func:`random_split_deviation`) and counts
    violations of (a) the payoff-drift bound over every pure
    payoff-difference direction (their maximum is the spread of the drift
    vector, so the full n^2 family is covered exactly) and (b) the distance
    floor against the reference profiles, defaulting to the enumerated
    equilibria. The references are far fewer than the theoretical family
    size bound, whose log is reported for context; the probe samples the
    construction, it does not reproduce the full counting argument.
    """
    if eps <= 0 or delta <= 0:
        raise ParameterError("eps and delta must be positive")
    if profile is None or references is None:
        eqs = enumerate_equilibria(game, tol=tol)
        if len(eqs) == 0:
            raise DomainError("no equilibrium available to probe")
        if profile is None:
            profile = eqs.equilibria[0]
        if references is None:
            references = list(eqs.equilibria)
    rng = np.random.default_rng(seed)
    rows, cols = game.shape

    def side_report(strategy: MixedStrategy, payoff: np.ndarray,
                    refs: list[MixedStrategy], n: int) -> dict:
        S = max(light_sample_size(n, eps, delta, coeff), 1.0)
        degenerate = 0
        deviations = 0
        payoff_violations = 0
        distance_violations = 0
        max_drift = 0.0
        # The partition and the reference distances depend only on the
        # strategy, so all trials share them; only the coins differ.
        split = heavy_light_partition(strategy, S, min(delta, 0.125), tol)
        light_mass = 1.0 - split.beta
        concentrated = 0
        if not split.light or light_mass < 8.0 * delta - tol.zero:
            concentrated = trials
        floors = [variation_distance(strategy, ref) for ref in refs]
        for _ in range(trials - concentrated):
            try:
                dev = random_split_deviation(strategy, split, delta, rng, tol)
            except DegenerateInputError:
                degenerate += 1
                continue
            deviations += 1
            shift = (dev.probs - strategy.probs) @ payoff
            drift = float(shift.max() - shift.min())
            max_drift = max(max_drift, drift)
            if drift > eps + tol.zero:
                payoff_violations += 1
            for ref, floor in zip(refs, floors):
                if variation_distance(dev, ref) <= floor - delta:
                    distance_violations += 1
                    break
        return {
            "trials": trials,
            "sample_size": S,
            "concentrated": concentrated,
            "degenerate": degenerate,
            "deviations": deviations,
            "payoff_violations": payoff_violations,
            "distance_violations": distance_violations,
            "max_payoff_drift": max_drift,
        }

    report = {
        "eps": eps,
        "delta": delta,
        "row": side_report(
            profile.row, game.C, [r.row for r in references], rows
        ),
        "col": side_report(
            profile.col, np.ascontiguousarray(game.R.T),
            [r.col for r in references], cols
        ),
        "reference_family": {
            "pure_difference_vectors": rows * rows + cols * cols,
            "reference_distributions": len(references),
            "log_reference_bound": PROBE_REFERENCE_COEFF
            * (delta / eps) ** 2
            * math.log(max(rows, cols)),
        },
    }
    return report
