"""Well-supported equilibrium search and support-compression tools.

The well-supported condition decouples: the constraints certifying the row
player's supported actions involve only q, and the column player's only p.
Each candidate support pair is therefore screened, then reduces to two
independent feasibility LPs over the region :func:`ws_region` states, the
only code that states it: the well-supported estimator in
:mod:`stablenash.stability` sweeps the same rows. The pairs come from the one
support-pair walk, :func:`stablenash.oracle.screened_pairs`, which enforces
``budget`` and drops a pair when no distribution on one side's declared
support makes all the opponent's declared actions eps-best: exactly so
when that support has one or two actions, and for larger supports when
one declared action can be eps-best against none. The LPs are
solved with a max-slack objective so near-ties at the epsilon boundary
surface as feasible with tiny slack instead of flapping on round-off.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS, LIGHT_SAMPLE_COEFF, Tolerances
from .core import BimatrixGame, MixedStrategy, StrategyProfile, regrets
from .errors import DomainError, ParameterError
from .lp import OPTIMAL, solve_lp
from .oracle import screened_pairs

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


def ws_region(
    payoff: np.ndarray, opp_support: tuple[int, ...], eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(A, rel, b)`` of the distributions x under which every action
    in ``opp_support`` is an eps-best response, ``payoff[a] @ x`` being
    opponent action a's payoff: the mass row first, then ``(payoff[i] -
    payoff[a]) @ x >= -eps`` for each i in ``opp_support`` and each other a.
    """
    others = np.asarray(opp_support, dtype=int)[:, None] != np.arange(payoff.shape[0])
    diffs = (payoff[list(opp_support), None, :] - payoff)[others]
    A = np.vstack((np.ones(payoff.shape[1]), diffs))
    rel = np.array(["="] + [">="] * len(diffs))
    b = np.array([1.0] + [-eps] * len(diffs))
    return A, rel, b


def _side_lp(
    payoff: np.ndarray,
    own_support: tuple[int, ...],
    opp_support: tuple[int, ...],
    eps: float,
    tol: Tolerances,
) -> Optional[np.ndarray]:
    """Distribution on ``own_support`` making every opponent action in
    ``opp_support`` an eps-best response, or None.

    The rows are :func:`ws_region`'s on the support's columns, each
    best-response row less a slack s. Maximizes the worst constraint slack
    s; the support pair is declared feasible when s >= -lp tolerance.
    """
    k = len(own_support)
    cols = list(own_support)
    A, rel, b = ws_region(payoff, opp_support, eps)
    slack = np.where(rel == "=", 0.0, -1.0)[:, None]
    lower = np.zeros(k + 1)  # probabilities then the slack s
    upper = np.full(k + 1, np.inf)
    spread = float(np.abs(payoff).max())
    # finite, never binding, and below the cap eps even when eps < 0
    lower[k] = -(2.0 * spread + abs(eps) + 1.0)
    upper[k] = eps  # so the objective cannot run away on loose instances
    obj = np.zeros(k + 1)
    obj[k] = 1.0
    out = solve_lp(np.hstack((A[:, cols], slack)), rel, b, lower, upper, obj, tol)
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
    lexicographically, so the smallest certificate is found first; only the
    pairs that pass the best-response window screen reach the LPs, and
    ``supports_tried`` counts every pair visited, screened or not. Returns
    None when nothing is feasible up to ``max_support``, which must be at
    least 1, and raises :class:`ResourceBudgetError` before any LP when
    those pairs exceed ``budget``.
    """
    if not 0.0 <= eps < math.inf:
        raise ParameterError("eps must be finite and non-negative")
    cap = min(game.shape)
    max_support = cap if max_support is None else min(max_support, cap)
    if max_support < 1:
        raise DomainError("max_support must be at least 1")
    sizes = [pair for k in range(1, max_support + 1) for pair in _size_pairs(k)]
    for visited, P, Q in screened_pairs(game, sizes, eps, budget, tol):
        for tried, S_p, S_q in zip(visited.tolist(), P.tolist(), Q.tolist()):
            profile = well_supported_feasible(game, S_p, S_q, eps, tol)
            if profile is None:
                continue
            report = regrets(game, profile, tol)
            return SearchResult(
                profile=profile,
                support_sizes=(len(profile.row.support), len(profile.col.support)),
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

    Pr[L] is the light part's own sum ``probs[light].sum()``, and the split
    is bitwise the one of a loop that recomputes it before every move. Both
    tests are evaluated for every prefix at once from one suffix-sum array
    ``c`` (a cumsum from the smallest entry up); only the prefixes whose
    outcome ``c`` cannot settle are re-decided with the exact sum. The band
    is rigorous. Any order of adding k nonnegative doubles lands within
    gamma_(k-1) * T of their true sum T, with gamma_j = j*u / (1 - j*u) and
    u = 2^-53 (a sum that ends subnormal is exact). ``c`` and the exact sum
    both do, so for m support entries the exact sum lies in
    c * [1 - 4*m*u, 1 + 4*m*u], and ``c * (1 - w)`` and ``c * (1 + w)``
    with w = 8*m*u (both factors exact) still bracket that interval after
    their own rounding. Each test is a chain of rounded operations monotone
    in Pr[L] (division by S > 0, adding tol.zero, subtracting from 1), so
    it holds at the exact sum when it holds at the bracket end worse for
    it, fails when it fails at the better end, and only in between is the
    exact sum taken.
    """
    if not S > 0:
        raise ParameterError("S must be positive")
    if not 0 < delta <= 0.125 + 1e-12:
        raise ParameterError("delta must lie in (0, 1/8]")
    probs = p.probs
    support = np.asarray(p.support, dtype=np.intp)
    # descending by probability; the stable sort keeps ties in index order
    order = support[np.argsort(-probs[support], kind="stable")]
    head = probs[order]  # head[pos] is the largest entry of the light part order[pos:]
    suffix = np.cumsum(head[::-1])[::-1]
    w = 8.0 * order.size * 2.0**-53
    lo, hi = suffix * (1.0 - w), suffix * (1.0 + w)
    mass_floor = 1.0 - 8.0 * delta - tol.zero
    light_sure = head <= lo / S + tol.zero
    light_maybe = head <= hi / S + tol.zero
    mass_sure = 1.0 - hi >= mass_floor
    mass_maybe = 1.0 - lo >= mass_floor
    for pos in np.flatnonzero(light_maybe | mass_maybe).tolist():
        is_light, is_mass = light_sure[pos], mass_sure[pos]
        if is_light != light_maybe[pos] or is_mass != mass_maybe[pos]:
            light_mass = float(probs[order[pos:]].sum())
            is_light = head[pos] <= light_mass / S + tol.zero
            is_mass = 1.0 - light_mass >= mass_floor
        if is_light:
            terminated = "light-threshold"
            break
        if is_mass:
            terminated = "mass-threshold"
            break
    else:
        pos, terminated = order.size, "light-threshold"  # the light part is empty
    heavy = order[:pos]
    beta = float(probs[heavy].sum()) if heavy.size else 0.0
    return HeavyLightSplit(
        heavy=tuple(sorted(heavy.tolist())),
        light=tuple(sorted(order[pos:].tolist())),
        beta=beta,
        terminated_by=terminated,
    )


def lmm_sample(p: MixedStrategy, k: int, seed) -> MixedStrategy:
    """Empirical distribution of k i.i.d. draws from ``p``.

    The counts are one multinomial(k, p) draw over p's support, O(n) work
    rather than one draw per sample, so the support stays inside p's. The
    counts sum to k: every output entry is a multiple of 1/k and the mass
    is 1 up to rounding. Deterministic given the seed.
    """
    if k < 1:
        raise ParameterError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    support = list(p.support)
    counts = np.zeros(len(p))
    counts[support] = rng.multinomial(k, p.probs[support])
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
