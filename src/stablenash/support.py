"""Well-supported equilibrium search and support-compression tools.

The well-supported condition decouples: the constraints certifying the row
player's supported actions involve only q, and the column player's only p.
Each candidate support pair therefore reduces to two independent feasibility
LPs, solved here with a max-slack objective so near-ties at the epsilon
boundary surface as feasible with tiny slack instead of flapping on
round-off.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS, LIGHT_SAMPLE_COEFF, Tolerances
from .core import BimatrixGame, MixedStrategy, StrategyProfile, regrets
from .errors import DomainError, ParameterError, ResourceBudgetError
from .lp import OPTIMAL, LinearProgram, solve_lp
from .oracle import all_pairs_cost

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchResult:
    """Certified well-supported profile found by increasing-support search."""

    profile: StrategyProfile
    support_sizes: tuple[int, int]
    supports_tried: int
    epsilon: float


@dataclass(frozen=True)
class HeavyLightSplit:
    """Greedy split of a distribution's support into heavy and light parts.

    ``terminated_by`` records which stopping rule fired: ``light-threshold``
    when every remaining light entry fell to at most Pr[L]/S, or
    ``mass-threshold`` once the heavy mass reached 1 - 8*delta.
    """

    heavy: tuple[int, ...]
    light: tuple[int, ...]
    beta: float
    terminated_by: str


def _side_lp(
    payoff: np.ndarray,
    own_support: tuple[int, ...],
    opp_support: tuple[int, ...],
    eps: float,
    tol: Tolerances,
) -> Optional[np.ndarray]:
    """Distribution on ``own_support`` making every opponent action in
    ``opp_support`` an eps-best response, or None.

    ``payoff[a, :]`` is opponent action a's payoff as a function of our
    distribution. Maximizes the worst constraint slack s; the support pair
    is declared feasible when s >= -lp tolerance.
    """
    k = len(own_support)
    cols = list(own_support)
    sub = payoff[:, cols]
    n_opp = payoff.shape[0]
    nv = k + 1  # probabilities then the slack s
    lp = LinearProgram(nv)
    spread = float(np.abs(payoff).max())
    lp.lower[k] = -(2.0 * spread + eps + 1.0)  # finite, never binding
    mass = np.zeros(nv)
    mass[:k] = 1.0
    lp.add_constraint(mass, "=", 1.0)
    for i in opp_support:
        for a in range(n_opp):
            if a == i:
                continue
            row = np.zeros(nv)
            row[:k] = sub[i] - sub[a]
            row[k] = -1.0
            lp.add_constraint(row, ">=", -eps)
    # bound s by eps so the objective cannot run away on loose instances
    s_cap = np.zeros(nv)
    s_cap[k] = 1.0
    lp.add_constraint(s_cap, "<=", eps)
    obj = np.zeros(nv)
    obj[k] = 1.0
    lp.set_objective(obj, maximize=True)
    out = solve_lp(lp, tol)
    if out.status != OPTIMAL or out.objective_value < -tol.lp:
        return None
    full = np.zeros(payoff.shape[1])
    full[cols] = out.solution[:k]
    return full


def well_supported_feasible(
    game: BimatrixGame,
    S_p: tuple[int, ...],
    S_q: tuple[int, ...],
    eps: float,
    tol: Tolerances = DEFAULT_TOLS,
) -> Optional[StrategyProfile]:
    """Profile on the declared supports where every declared action is an
    eps-best response, or None when either side's LP is infeasible."""
    if len(S_p) == 0 or len(S_q) == 0:
        raise DomainError("supports must be nonempty")
    rows, cols = game.shape
    if any(not 0 <= i < rows for i in S_p) or any(not 0 <= j < cols for j in S_q):
        raise DomainError("support indices outside the game's dimensions")
    q = _side_lp(game.R, tuple(S_q), tuple(S_p), eps, tol)
    if q is None:
        return None
    p = _side_lp(np.ascontiguousarray(game.C.T), tuple(S_p), tuple(S_q), eps, tol)
    if p is None:
        return None
    return StrategyProfile.from_vectors(p, q, tol)


def _size_pairs(k: int) -> list[tuple[int, int]]:
    return sorted(
        (a, b) for a in range(1, k + 1) for b in range(1, k + 1) if max(a, b) == k
    )


def find_well_supported(
    game: BimatrixGame,
    eps: float,
    max_support: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    tol: Tolerances = DEFAULT_TOLS,
) -> Optional[SearchResult]:
    """First well-supported eps-profile over supports of increasing size.

    Support pairs are visited by max(row size, col size), then
    lexicographically, so the smallest certificate is found first. Returns
    None when nothing is feasible up to ``max_support``.
    """
    if eps < 0:
        raise ParameterError("eps must be non-negative")
    rows, cols = game.shape
    cap = min(rows, cols)
    if max_support is None:
        max_support = cap
    max_support = min(max_support, cap)
    if all_pairs_cost(rows, cols, max_support) > budget:
        raise ResourceBudgetError(f"support search guard exceeds budget {budget}")

    tried = 0
    for k in range(1, max_support + 1):
        for kp, kq in _size_pairs(k):
            if kp > rows or kq > cols:
                continue
            for S_p in itertools.combinations(range(rows), kp):
                for S_q in itertools.combinations(range(cols), kq):
                    tried += 1
                    profile = well_supported_feasible(game, S_p, S_q, eps, tol)
                    if profile is None:
                        continue
                    report = regrets(game, profile, tol)
                    return SearchResult(
                        profile=profile,
                        support_sizes=(
                            len(profile.row.support),
                            len(profile.col.support),
                        ),
                        supports_tried=tried,
                        epsilon=report.max_ws_gap,
                    )
    return None


def heavy_light_partition(
    p: MixedStrategy, S: float, delta: float, tol: Tolerances = DEFAULT_TOLS
) -> HeavyLightSplit:
    """Greedily peel the largest entries of ``p`` into the heavy set.

    Stops as soon as (a) every remaining light entry is at most Pr[L]/S, or
    (b) the heavy mass reaches 1 - 8*delta; the conditions are tested before
    each move, so a distribution that is already flat terminates immediately
    with an empty heavy set. Ties move the lowest index first.
    """
    if not S > 0:
        raise ParameterError("S must be positive")
    if not 0 < delta <= 0.125 + 1e-12:
        raise ParameterError("delta must lie in (0, 1/8]")
    probs = p.probs
    order = sorted(p.support, key=lambda i: (-probs[i], i))
    heavy: list[int] = []
    pos = 0
    mass_target = 1.0 - 8.0 * delta
    while True:
        light = order[pos:]
        light_mass = float(probs[light].sum()) if light else 0.0
        if not light or max(probs[i] for i in light) <= light_mass / S + tol.zero:
            terminated = "light-threshold"
            break
        if 1.0 - light_mass >= mass_target - tol.zero:
            terminated = "mass-threshold"
            break
        heavy.append(order[pos])
        pos += 1
    light = order[pos:]
    beta = float(probs[heavy].sum()) if heavy else 0.0
    return HeavyLightSplit(
        heavy=tuple(sorted(heavy)),
        light=tuple(sorted(light)),
        beta=beta,
        terminated_by=terminated,
    )


def lmm_sample(p: MixedStrategy, k: int, seed) -> MixedStrategy:
    """Empirical distribution of k i.i.d. draws from ``p``.

    Every output entry is a multiple of 1/k and the mass is exactly 1;
    deterministic given the seed.
    """
    if k < 1:
        raise ParameterError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(p), size=k, p=p.probs)
    counts = np.bincount(idx, minlength=len(p))
    return MixedStrategy.from_probs(counts / float(k))


def light_sample_size(n: int, eps: float, delta: float, coeff: float) -> float:
    return coeff * (delta / eps) ** 2 * math.log(n) if n > 1 else 0.0


def _compress_side(
    strategy: MixedStrategy,
    eps: float,
    delta: float,
    rng: np.random.Generator,
    coeff: float,
    tol: Tolerances,
) -> MixedStrategy:
    n = len(strategy)
    S = light_sample_size(n, eps, delta, coeff)
    if S <= 0:
        return strategy
    split = heavy_light_partition(strategy, S, min(delta, 0.125), tol)
    if not split.light:
        return strategy
    light = list(split.light)
    light_mass = float(strategy.probs[light].sum())
    if light_mass <= tol.zero:
        return strategy
    light_dist = np.zeros(n)
    light_dist[light] = strategy.probs[light] / light_mass
    sampled = lmm_sample(MixedStrategy.from_probs(light_dist, tol), int(math.ceil(S)), rng)
    blended = strategy.probs.copy()
    blended[light] = 0.0
    blended += light_mass * sampled.probs
    return MixedStrategy.from_probs(blended, tol)


def small_support_approximation(
    game: BimatrixGame,
    eq: StrategyProfile,
    eps: float,
    delta: float,
    seed,
    coeff: float = LIGHT_SAMPLE_COEFF,
    tol: Tolerances = DEFAULT_TOLS,
) -> StrategyProfile:
    """Splice each strategy's heavy part with a resampled light part.

    Keeps the heavy entries verbatim and replaces the light remainder by the
    empirical distribution of ceil(S) draws from it, S = coeff *
    (delta/eps)^2 * log(n). A side whose light part is empty is returned
    unchanged. The partition's delta is capped at 1/8, above which the whole
    distribution counts as light and this degenerates to plain resampling.
    """
    if not 0 < eps <= delta <= 1.0:
        raise ParameterError("need 0 < eps <= delta <= 1")
    rng = np.random.default_rng(seed)
    row = _compress_side(eq.row, eps, delta, rng, coeff, tol)
    col = _compress_side(eq.col, eps, delta, rng, coeff, tol)
    out = StrategyProfile(row, col)
    report = regrets(game, out, tol)
    log.debug(
        "small-support splice: supports (%d, %d), ws gaps (%.3g, %.3g)",
        len(row.support),
        len(col.support),
        report.row_ws_gap,
        report.col_ws_gap,
    )
    return out
