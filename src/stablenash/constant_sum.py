"""Minimax solving and strong-stability certification for constant-sum games.

For constant-sum games the set of near-optimal strategies of each player is
a polytope cut out by the value guarantees, so the radius of the set of
alpha/2-equilibria around a small-support anchor can be computed exactly:
:func:`stablenash.stability.max_distance`, the subset-LP kernel the
stability estimators share, maximizes the variation distance to the anchor
over each side's region by bound and prune. The distance is the largest
anchor(M) - x(M) over the subsets M of the anchor's support, one LP per
subset; the singletons bound every other subset, and a subset is solved
only while its bound exceeds the best distance found. The certified
sandwich is (alpha/2, 2*delta) stable but not (alpha, delta/2) stable.
``partition_budget`` bounds the 2^k subsets of a k-action anchor support:
above it the certifier raises before any LP rather than certify from a
partial search. The well-supported variant's restricted radius adds zero
upper bounds outside the minimax support to the same regions, and every
plain and restricted request of both sides goes to one call, whose rounds
stack the two sides' LPs together when their regions have one shape
(every square game). The minimax LPs stay single
:func:`stablenash.lp.solve_lp` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (
    ANCHOR_RESAMPLE_LIMIT,
    ANCHOR_SUPPORT_MULTIPLIER,
    DEFAULT_PARTITION_BUDGET,
    DEFAULT_TOLS,
    Tolerances,
)
from .core import BimatrixGame, MixedStrategy, StrategyProfile, regrets
from .errors import CertificateError, DomainError, ParameterError, ResourceBudgetError
from .lp import OPTIMAL, solve_lp
from .stability import max_distance
from .support import lmm_sample


@dataclass(frozen=True)
class MinimaxSolution:
    """Value-optimal strategies; v_R + v_C equals the game's constant."""

    p_star: MixedStrategy
    q_star: MixedStrategy
    v_R: float
    v_C: float
    constant: float


@dataclass(frozen=True)
class StrongStabilityCertificate:
    """Certified radius around the small-support alpha-Nash anchor.

    ``sandwich`` states the two-sided conclusion: the game satisfies the
    (alpha/2, 2*delta) strong approximation stability condition and fails
    (alpha, delta/2). ``max_objective`` is the largest L1 distance found,
    twice the variation distance; delta is half of it, capped at 1 since
    no variation distance exceeds 1 (the computed one can, by rounding).
    """

    alpha: float
    delta: float
    p_prime: MixedStrategy
    q_prime: MixedStrategy
    sandwich: dict
    max_objective: float


def check_constant_sum(
    game: BimatrixGame, tol: Tolerances = DEFAULT_TOLS
) -> Optional[float]:
    """The common value of R + C when it is constant entrywise, else None."""
    s = game.R + game.C
    c = float(s.flat[0])
    if np.abs(s - c).max() <= tol.zero:
        return c
    return None


def _value_lp(payoff_cols: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, float]:
    """Maximize the guaranteed value: argmax_x min_k payoff_cols[:, k] . x."""
    n, k = payoff_cols.shape
    A = np.zeros((k + 1, n + 1))
    A[0, :n] = 1.0  # the mass, then each column's payoff at least v
    A[1:, :n] = payoff_cols.T
    A[1:, n] = -1.0
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0
    lower = np.zeros(n + 1)
    lower[n] = float(payoff_cols.min()) - 1.0
    obj = np.zeros(n + 1)
    obj[n] = 1.0
    out = solve_lp(A, ["="] + [">="] * k, rhs, lower, np.full(n + 1, np.inf), obj, tol)
    if out.status != OPTIMAL:
        raise CertificateError("minimax LP did not solve to optimality")
    return out.solution[:n], float(out.objective_value)


def minimax_solve(game: BimatrixGame, tol: Tolerances = DEFAULT_TOLS) -> MinimaxSolution:
    """Minimax-optimal strategies and values of a constant-sum game."""
    constant = check_constant_sum(game, tol)
    if constant is None:
        raise DomainError("game is not constant-sum")
    p_vec, v_R = _value_lp(game.R, tol)  # row player guarantees v_R
    q_vec, v_C = _value_lp(game.C.T, tol)  # column player guarantees v_C
    if abs(v_R + v_C - constant) > tol.eq:
        raise CertificateError(
            f"minimax values {v_R} + {v_C} do not sum to the constant {constant}"
        )
    return MinimaxSolution(
        p_star=MixedStrategy.from_probs(p_vec, tol),
        q_star=MixedStrategy.from_probs(q_vec, tol),
        v_R=v_R,
        v_C=v_C,
        constant=constant,
    )


def _anchor(
    game: BimatrixGame,
    mm: MinimaxSolution,
    alpha: float,
    seed,
    multiplier: float,
    tol: Tolerances,
) -> tuple[MixedStrategy, MixedStrategy]:
    """Small-support alpha-Nash anchor.

    When the minimax supports are already below the sampling target the
    minimax solution is used directly, keeping the certificate deterministic
    (the guarantee only needs an alpha-Nash of small support, not any
    particular one). Otherwise each side is resampled to the target support
    and verified, retrying on failure.
    """
    n = max(game.shape)
    target = max(1, math.ceil(math.log(max(n, 2)) / alpha**2 * multiplier))
    if (
        len(mm.p_star.support) <= target
        and len(mm.q_star.support) <= target
    ):
        return mm.p_star, mm.q_star
    rng = np.random.default_rng(seed)
    for _ in range(ANCHOR_RESAMPLE_LIMIT):
        p = lmm_sample(mm.p_star, target, rng)
        q = lmm_sample(mm.q_star, target, rng)
        rep = regrets(game, StrategyProfile(p, q), tol)
        if rep.max_regret <= alpha + tol.eq:
            return p, q
    raise ResourceBudgetError(
        f"no alpha-Nash anchor found in {ANCHOR_RESAMPLE_LIMIT} resampling rounds"
    )


def _max_objectives(
    game: BimatrixGame,
    mm: MinimaxSolution,
    p_prime: MixedStrategy,
    q_prime: MixedStrategy,
    alpha: float,
    well_supported: bool,
    partition_budget: int,
    tol: Tolerances,
) -> tuple[float, float]:
    """Largest plain and restricted L1 distances to the anchor, or 0.

    A player's region holds every distribution guaranteeing value - alpha
    against all opponent actions; its restriction also forbids mass outside
    the minimax support. One :func:`max_distance` call finds twice the
    largest variation distance to the anchor over each region of both sides
    by bound and prune, not one LP per subset. A side's restriction
    is requested only when ``well_supported`` and its minimax support is
    not full; otherwise its restricted distance is its plain one, since a
    full support forbids nothing.
    """
    requests = []
    sides = []  # the indices of each side's plain and restricted requests
    for payoff_cols, value, anchor, optimal in (
        (game.R, mm.v_R, p_prime, mm.p_star),
        (np.ascontiguousarray(game.C.T), mm.v_C, q_prime, mm.q_star),
    ):
        n, k = payoff_cols.shape
        region = (
            np.vstack((np.ones(n), payoff_cols.T)),
            np.array(["="] + [">="] * k),
            np.concatenate(([1.0], np.full(k, value - alpha))),
        )
        plain_at = len(requests)
        requests.append((*region, anchor.probs, None))
        if well_supported and len(optimal.support) < n:
            upper = np.zeros(n)
            upper[list(optimal.support)] = np.inf
            requests.append((*region, anchor.probs, upper))
        sides.append((plain_at, len(requests) - 1))
    best = max_distance(requests, partition_budget, tol)
    plain = max(best[at] for at, _ in sides)
    restricted = max(best[at] for _, at in sides)
    return plain, restricted


def _certify(
    game: BimatrixGame,
    alpha: float,
    seed,
    partition_budget: int,
    anchor_multiplier: float,
    well_supported: bool,
    tol: Tolerances,
) -> tuple[StrongStabilityCertificate, float]:
    """The certificate and the restricted radius delta_l (the plain radius
    unless ``well_supported``), from one pass over both players' sides."""
    if not 0 < alpha < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    mm = minimax_solve(game, tol)
    p_prime, q_prime = _anchor(game, mm, alpha, seed, anchor_multiplier, tol)
    anchor_rep = regrets(game, StrategyProfile(p_prime, q_prime), tol)
    if anchor_rep.max_regret > alpha + tol.eq:
        raise CertificateError("anchor is not an alpha-Nash profile")
    max_objective, restricted = _max_objectives(
        game, mm, p_prime, q_prime, alpha, well_supported, partition_budget, tol
    )
    # no variation distance exceeds 1; the computed one can, by rounding
    delta = min(1.0, max_objective / 2.0)
    return StrongStabilityCertificate(
        alpha=alpha,
        delta=delta,
        p_prime=p_prime,
        q_prime=q_prime,
        sandwich={
            "stable": {"eps": alpha / 2.0, "delta": 2.0 * delta},
            "not_stable": {"eps": alpha, "delta": delta / 2.0},
        },
        max_objective=max_objective,
    ), min(1.0, restricted / 2.0)


def strong_stability_parameters(
    game: BimatrixGame,
    alpha: float,
    seed=0,
    partition_budget: int = DEFAULT_PARTITION_BUDGET,
    anchor_multiplier: float = ANCHOR_SUPPORT_MULTIPLIER,
    tol: Tolerances = DEFAULT_TOLS,
) -> StrongStabilityCertificate:
    """Certified strong approximation-stability radius of a constant-sum game.

    Solves for minimax strategies, fixes a small-support alpha-Nash anchor,
    and finds on each side, by bound and prune over the subsets of the
    anchor's support, the largest variation distance any near-value
    strategy can reach from the anchor; the certificate's delta is the
    larger of the two, capped at 1, and ``max_objective`` is twice it
    before the cap.
    """
    return _certify(
        game, alpha, seed, partition_budget, anchor_multiplier, False, tol
    )[0]


def well_supported_certificate(
    game: BimatrixGame,
    alpha: float,
    seed=0,
    partition_budget: int = DEFAULT_PARTITION_BUDGET,
    anchor_multiplier: float = ANCHOR_SUPPORT_MULTIPLIER,
    tol: Tolerances = DEFAULT_TOLS,
) -> tuple[StrongStabilityCertificate, float]:
    """The plain certificate and the well-supported radius delta_l.

    The certificate is that of :func:`strong_stability_parameters`, and its
    delta is the well-supported variant's delta_h. delta_l comes from the
    same pass over the two sides, around the same anchor, with mass
    forbidden outside the minimax supports, which is exactly the extra
    restriction a well-supported deviation must satisfy; a side whose
    minimax support is full keeps its plain radius. The added bounds
    shrink the feasible region, so delta_l <= delta_h always.
    """
    return _certify(game, alpha, seed, partition_budget, anchor_multiplier, True, tol)


def well_supported_stability_parameters(
    game: BimatrixGame,
    alpha: float,
    seed=0,
    partition_budget: int = DEFAULT_PARTITION_BUDGET,
    anchor_multiplier: float = ANCHOR_SUPPORT_MULTIPLIER,
    tol: Tolerances = DEFAULT_TOLS,
) -> tuple[float, float]:
    """(delta_l, delta_h) for the well-supported variant of the certifier.

    delta_h is the plain radius and delta_l the radius with mass forbidden
    outside the minimax supports (see :func:`well_supported_certificate`).
    Certifies strong well-supported (alpha/2, 2*delta_h) stability and
    refutes (alpha, delta_l/2).
    """
    cert, delta_l = well_supported_certificate(
        game, alpha, seed, partition_budget, anchor_multiplier, tol
    )
    return delta_l, cert.delta
