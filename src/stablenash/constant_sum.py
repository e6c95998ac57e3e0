"""Minimax solving and strong-stability certification for constant-sum games.

For constant-sum games the set of near-optimal strategies of each player is
a polytope cut out by the value guarantees, so the radius of the set of
alpha/2-equilibria around a small-support anchor can be computed exactly:
one LP per sign partition of the anchor's support maximizes twice the
variation distance subject to staying within alpha of the game value. The
certified sandwich is (alpha/2, 2*delta) stable but not (alpha, delta/2)
stable.
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
from .lp import OPTIMAL, LinearProgram, solve_lp
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
    (alpha, delta/2). ``max_objective`` is the raw LP objective; delta is
    half of it, capped at 1 since no variation distance exceeds 1.
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
    lp = LinearProgram(n + 1)
    lp.lower[n] = float(payoff_cols.min()) - 1.0
    mass = np.zeros(n + 1)
    mass[:n] = 1.0
    lp.add_constraint(mass, "=", 1.0)
    for j in range(k):
        row = np.zeros(n + 1)
        row[:n] = payoff_cols[:, j]
        row[n] = -1.0
        lp.add_constraint(row, ">=", 0.0)
    obj = np.zeros(n + 1)
    obj[n] = 1.0
    lp.set_objective(obj, maximize=True)
    out = solve_lp(lp, tol)
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


def _side_radius(
    payoff_cols: np.ndarray,
    value: float,
    alpha: float,
    anchor: MixedStrategy,
    zero_outside: Optional[tuple[int, ...]],
    partition_budget: int,
    tol: Tolerances,
) -> float:
    """Max LP objective over sign partitions of the anchor's support.

    The feasible set is every distribution guaranteeing value - alpha
    against all opponent actions; each partition LP's objective equals
    twice the variation distance to the anchor at its optimum. Partitions
    with an empty side are included (they are valid sign patterns and catch
    one-sided drifts). Returns 0 when every partition is infeasible.
    """
    n, k = payoff_cols.shape
    support = list(anchor.support)
    if 2 ** len(support) > partition_budget:
        raise ResourceBudgetError(
            f"2^{len(support)} sign partitions exceed the budget {partition_budget}"
        )
    upper = None
    if zero_outside is not None:
        upper = np.full(n, np.inf)
        outside = np.ones(n, dtype=bool)
        outside[list(zero_outside)] = False
        upper[outside] = 0.0
    ref = anchor.probs
    outside_support = np.ones(n, dtype=bool)
    outside_support[support] = False
    best = 0.0
    for mask in range(2 ** len(support)):
        plus = [support[b] for b in range(len(support)) if mask >> b & 1]
        minus = [i for i in support if i not in plus]
        lp = LinearProgram(n, upper=upper.copy() if upper is not None else None)
        mass = np.ones(n)
        lp.add_constraint(mass, "=", 1.0)
        for j in range(k):
            lp.add_constraint(payoff_cols[:, j], ">=", value - alpha)
        obj = np.where(outside_support, 1.0, 0.0)
        constant = 0.0
        for i in plus:
            row = np.zeros(n)
            row[i] = 1.0
            lp.add_constraint(row, ">=", float(ref[i]))
            obj[i] = 1.0
            constant -= float(ref[i])
        for i in minus:
            row = np.zeros(n)
            row[i] = 1.0
            lp.add_constraint(row, "<=", float(ref[i]))
            obj[i] = -1.0
            constant += float(ref[i])
        lp.set_objective(obj, maximize=True)
        out = solve_lp(lp, tol)
        if out.status != OPTIMAL:
            continue
        value_at_opt = float(out.objective_value) + constant
        best = max(best, value_at_opt)
    return best


def _certify(
    game: BimatrixGame,
    alpha: float,
    seed,
    partition_budget: int,
    anchor_multiplier: float,
    tol: Tolerances,
) -> tuple[MinimaxSolution, StrongStabilityCertificate]:
    """The minimax solution and the certificate built on it."""
    if not 0 < alpha < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    mm = minimax_solve(game, tol)
    p_prime, q_prime = _anchor(game, mm, alpha, seed, anchor_multiplier, tol)
    anchor_rep = regrets(game, StrategyProfile(p_prime, q_prime), tol)
    if anchor_rep.max_regret > alpha + tol.eq:
        raise CertificateError("anchor is not an alpha-Nash profile")
    obj_p = _side_radius(game.R, mm.v_R, alpha, p_prime, None, partition_budget, tol)
    obj_q = _side_radius(
        np.ascontiguousarray(game.C.T), mm.v_C, alpha, q_prime, None,
        partition_budget, tol,
    )
    max_objective = max(obj_p, obj_q)
    # no variation distance exceeds 1; the LP optimum can, by rounding
    delta = min(1.0, max_objective / 2.0)
    return mm, StrongStabilityCertificate(
        alpha=alpha,
        delta=delta,
        p_prime=p_prime,
        q_prime=q_prime,
        sandwich={
            "stable": {"eps": alpha / 2.0, "delta": 2.0 * delta},
            "not_stable": {"eps": alpha, "delta": delta / 2.0},
        },
        max_objective=max_objective,
    )


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
    and sweeps sign-partition LPs on each side; the certificate's delta is
    half the largest objective, i.e. the largest variation distance any
    near-value strategy can reach from the anchor, capped at 1.
    """
    return _certify(game, alpha, seed, partition_budget, anchor_multiplier, tol)[1]


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
    delta is the well-supported variant's delta_h. delta_l re-runs only the
    partition sweep, around the same anchor, with mass forbidden outside
    the minimax supports, which is exactly the extra restriction a
    well-supported deviation must satisfy. The added constraints shrink the
    feasible region, so delta_l <= delta_h always.
    """
    mm, cert = _certify(game, alpha, seed, partition_budget, anchor_multiplier, tol)
    obj_p = _side_radius(
        game.R, mm.v_R, alpha, cert.p_prime, mm.p_star.support,
        partition_budget, tol,
    )
    obj_q = _side_radius(
        np.ascontiguousarray(game.C.T), mm.v_C, alpha, cert.q_prime,
        mm.q_star.support, partition_budget, tol,
    )
    return cert, min(1.0, max(obj_p, obj_q) / 2.0)


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
