"""Exact-equilibrium enumeration for small games.

Support enumeration. For a support pair (S_p, S_q) of equal size k, the
supported rows tie at the row player's best payoff u, which together with
the mass constraint is a square (k+1)x(k+1) linear system in (q, u); the
same holds for (p, v) with the roles swapped. The systems of every size-k
pair are stacked and solved in one batched call, and positivity and the
best-response inequalities are checked as array operations.

In a nondegenerate game every equilibrium has equal-size supports, so that
pass is the whole enumeration. A degeneracy witness sends the game to the
LP loop instead, which visits every (|S_p|, |S_q|) size pair with two small
LPs each, maximizing the minimum supported probability so that a declared
support carries mass. The witnesses are a singular tie system that is still
consistent, and an accepted side solution with more than k tied opponent
actions. They catch every degenerate strategy: if x has support S of size
k and best-response set B with |B| > k, then x solves the system of
(B', S) for any B' in B of size k, so that system is either singular and
consistent or has the unique solution x, with extra ties.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS, Tolerances
from .core import BimatrixGame, StrategyProfile, profile_distance, regrets
from .errors import DomainError, ResourceBudgetError
from .lp import OPTIMAL, LinearProgram, solve_lp

# Support pairs per stacked solve, which bounds the stack's memory.
_CHUNK = 2048
# Singular-value threshold below which a tie system counts as singular.
_RANK_TOL = 1e-9


@dataclass(frozen=True)
class EquilibriumSet:
    """Enumerated equilibria with the parameters that produced them.

    Degenerate games can have equilibrium components; those are represented
    by their discovered vertices only, with ``complete=False``, since any
    stability statement quantifying over all equilibria must disclose
    possible incompleteness.
    """

    equilibria: tuple[StrategyProfile, ...]
    complete: bool
    method: dict

    def __len__(self) -> int:
        return len(self.equilibria)


def enumeration_cost(rows: int, cols: int, max_support: int) -> int:
    """Equal-size support pairs: the systems the batched pass solves."""
    return sum(
        math.comb(rows, k) * math.comb(cols, k)
        for k in range(1, max_support + 1)
    )


def all_pairs_cost(rows: int, cols: int, max_support: int) -> int:
    """Support pairs of every pair of sizes up to ``max_support``."""
    sizes = range(1, max_support + 1)
    return sum(math.comb(rows, a) for a in sizes) * sum(
        math.comb(cols, b) for b in sizes
    )


def _support_lp(
    payoff: np.ndarray,
    own_support: tuple[int, ...],
    eq_rows: tuple[int, ...],
    tol: Tolerances,
):
    """Best-response-consistent distribution on ``own_support``, or None.

    ``payoff[k, :]`` is opponent action k's payoff as a function of our
    distribution. Actions in ``eq_rows`` must tie at the common level u,
    all others must not exceed it; the minimum supported probability t is
    maximized so the declared support is genuine.
    """
    k = len(own_support)
    n_opp = payoff.shape[0]
    cols = list(own_support)
    sub = payoff[:, cols]
    # variables: k probabilities, then the payoff level u, then t
    nv = k + 2
    lp = LinearProgram(nv)
    lp.lower[k] = float(payoff.min()) - 1.0  # u never binds below payoffs
    mass = np.zeros(nv)
    mass[:k] = 1.0
    lp.add_constraint(mass, "=", 1.0)
    eq_set = set(eq_rows)
    for a in range(n_opp):
        row = np.zeros(nv)
        row[:k] = sub[a]
        row[k] = -1.0
        lp.add_constraint(row, "=" if a in eq_set else "<=", 0.0)
    for j in range(k):
        row = np.zeros(nv)
        row[j] = 1.0
        row[k + 1] = -1.0
        lp.add_constraint(row, ">=", 0.0)
    obj = np.zeros(nv)
    obj[k + 1] = 1.0
    lp.set_objective(obj, maximize=True)
    out = solve_lp(lp, tol)
    if out.status != OPTIMAL or out.objective_value <= tol.zero:
        return None
    full = np.zeros(payoff.shape[1])
    full[cols] = out.solution[:k]
    return full


def _tieline_rank_deficient(
    payoff: np.ndarray, own_support: tuple[int, ...], eq_rows: tuple[int, ...]
) -> bool:
    """True when the tie system leaves the accepted distribution underpinned."""
    sub = payoff[np.ix_(list(eq_rows), list(own_support))]
    n = len(own_support) + 1
    system = np.zeros((len(eq_rows) + 1, n))
    system[: len(eq_rows), :-1] = sub
    system[: len(eq_rows), -1] = -1.0
    system[-1, :-1] = 1.0
    return np.linalg.matrix_rank(system, tol=_RANK_TOL) < n


def _admit(
    game: BimatrixGame,
    found: list[StrategyProfile],
    p: np.ndarray,
    q: np.ndarray,
    tol: Tolerances,
) -> bool:
    """Append (p, q) to ``found`` if it verifies and is not a near-duplicate."""
    profile = StrategyProfile.from_vectors(p, q, tol)
    report = regrets(game, profile, tol)
    if max(report.max_regret, report.max_ws_gap) > tol.eq:
        return False
    if any(profile_distance(profile, other) <= tol.dedup for other in found):
        return False
    found.append(profile)
    return True


def _lp_pass(
    game: BimatrixGame, max_support: int, tol: Tolerances
) -> tuple[list[StrategyProfile], bool]:
    """Equilibria from two LPs per support pair over every pair of sizes.

    Returns the equilibria in visit order, and whether the tie system of a
    found equilibrium is rank-deficient (which marks a component).
    """
    rows, cols = game.shape
    CT = np.ascontiguousarray(game.C.T)
    found: list[StrategyProfile] = []
    degenerate = False
    for kp in range(1, max_support + 1):
        for kq in range(1, max_support + 1):
            for S_p in itertools.combinations(range(rows), kp):
                for S_q in itertools.combinations(range(cols), kq):
                    q = _support_lp(game.R, S_q, S_p, tol)
                    if q is None:
                        continue
                    p = _support_lp(CT, S_p, S_q, tol)
                    if p is None:
                        continue
                    if not _admit(game, found, p, q, tol):
                        continue
                    if _tieline_rank_deficient(game.R, S_q, S_p) or (
                        _tieline_rank_deficient(CT, S_p, S_q)
                    ):
                        degenerate = True
    return found, degenerate


def _solve_ties(
    A: np.ndarray, tol: Tolerances
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Solutions of ``A[m] x = e_last`` for a stack of square tie systems.

    Returns the solutions and a mask of the singular systems, whose rows
    are meaningless, or None when a singular system is consistent. A
    system is singular when its smallest singular value is at most
    ``_RANK_TOL``. Inversion settles most systems: the spectral norm of the
    inverse is at most its Frobenius norm, so a Frobenius norm below
    ``1 / _RANK_TOL`` proves the system nonsingular. Only the rest, and
    stacks holding an exactly singular system, pay for an SVD.
    """
    m = A.shape[0]
    singular = np.zeros(m, dtype=bool)
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        sol = np.empty(A.shape[:2])
        unsure = np.ones(m, dtype=bool)
    else:
        sol = inv[:, :, -1]
        unsure = np.linalg.norm(inv, axis=(1, 2)) * _RANK_TOL >= 1.0
    if unsure.any():
        U, s, Vh = np.linalg.svd(A[unsure])
        null = s <= _RANK_TOL
        # e_last in the left singular basis is U's last row; its part along
        # null directions is the least-squares residual.
        rhs = U[:, -1, :]
        residual = np.sqrt((np.where(null, rhs, 0.0) ** 2).sum(axis=1))
        if np.any(null[:, -1] & (residual <= tol.lp)):
            return None
        coef = np.where(null, 0.0, rhs / np.where(null, 1.0, s))
        sol[unsure] = np.einsum("mj,mji->mi", coef, Vh)
        singular[unsure] = null[:, -1]
    return sol, singular


def _side_pass(
    payoff: np.ndarray, own: np.ndarray, opp: np.ndarray, tol: Tolerances
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """One player's side of a stack of size-k support pairs.

    Row m solves ``payoff[opp[m]][:, own[m]] x = u``, ``sum(x) = 1`` for a
    distribution x on ``own[m]`` that makes the opponent actions ``opp[m]``
    tie at level u. Returns the solutions x (m, k) and a mask of those that
    are positive and leave no opponent action above u, or None when a
    degeneracy witness shows.
    """
    m, k = own.shape
    A = np.zeros((m, k + 1, k + 1))
    A[:, :k, :k] = payoff[opp[:, :, None], own[:, None, :]]
    A[:, :k, k] = -1.0
    A[:, k, :k] = 1.0
    solved = _solve_ties(A, tol)
    if solved is None:
        return None
    sol, singular = solved
    x, u = sol[:, :k], sol[:, k]
    pay = np.einsum("amj,mj->ma", payoff[:, own], x)
    ok = ~singular & (x.min(axis=1) > tol.zero)
    ok &= pay.max(axis=1) <= u + tol.lp
    ties = (pay >= (u - tol.lp)[:, None]).sum(axis=1)
    if np.any(ok & (ties > k)):
        return None
    return x, ok


def _batched_pass(
    game: BimatrixGame, max_support: int, tol: Tolerances
) -> Optional[list[StrategyProfile]]:
    """Equilibria on equal-size supports from stacked tie systems.

    Pairs are visited by size k, then row and column subset in
    lexicographic order. Returns None on a degeneracy witness, when only
    the LP loop is complete.
    """
    rows, cols = game.shape
    CT = np.ascontiguousarray(game.C.T)
    found: list[StrategyProfile] = []
    for k in range(1, max_support + 1):
        P = np.array(list(itertools.combinations(range(rows), k)))
        Q = np.array(list(itertools.combinations(range(cols), k)))
        n_pairs = len(P) * len(Q)
        for start in range(0, n_pairs, _CHUNK):
            ip, iq = np.divmod(np.arange(start, min(start + _CHUNK, n_pairs)), len(Q))
            q_side = _side_pass(game.R, Q[iq], P[ip], tol)
            if q_side is None:
                return None
            p_side = _side_pass(CT, P[ip], Q[iq], tol)
            if p_side is None:
                return None
            (q_x, q_ok), (p_x, p_ok) = q_side, p_side
            for m in np.flatnonzero(q_ok & p_ok):
                p = np.zeros(rows)
                p[P[ip[m]]] = p_x[m]
                q = np.zeros(cols)
                q[Q[iq[m]]] = q_x[m]
                _admit(game, found, p, q, tol)
    return found


def enumerate_equilibria(
    game: BimatrixGame,
    max_support: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    tol: Tolerances = DEFAULT_TOLS,
) -> EquilibriumSet:
    """All equilibria of a small game found by support enumeration.

    Equilibria are listed in the order (row size, column size, row subset,
    column subset) of their supports; near-duplicate solutions are merged.
    Raises :class:`ResourceBudgetError` when the equal-size support pairs
    exceed ``budget``, or, in a degenerate game, when the support pairs of
    all sizes do.
    """
    rows, cols = game.shape
    cap = min(rows, cols)
    if max_support is None:
        max_support = cap
    max_support = min(max_support, cap)
    if max_support < 1:
        raise DomainError("max_support must be at least 1")
    if enumeration_cost(rows, cols, max_support) > budget:
        raise ResourceBudgetError(
            f"support enumeration guard exceeds budget {budget}"
        )

    found = _batched_pass(game, max_support, tol)
    degenerate = False
    if found is None:
        if all_pairs_cost(rows, cols, max_support) > budget:
            raise ResourceBudgetError(
                f"degenerate game: support enumeration over all size pairs "
                f"exceeds budget {budget}"
            )
        found, degenerate = _lp_pass(game, max_support, tol)

    # A strict convex combination of two listed equilibria that is itself an
    # equilibrium, yet far from every listed one, certifies a component.
    if not degenerate:
        for a, b in itertools.combinations(found, 2):
            mid = StrategyProfile.from_vectors(
                0.5 * (a.row.probs + b.row.probs),
                0.5 * (a.col.probs + b.col.probs),
                tol,
            )
            rep = regrets(game, mid, tol)
            if rep.max_regret > tol.eq or rep.max_ws_gap > tol.eq:
                continue
            if all(profile_distance(mid, e) > tol.dedup for e in found):
                degenerate = True
                break

    exhausted = max_support >= cap
    return EquilibriumSet(
        equilibria=tuple(found),
        complete=exhausted and not degenerate,
        method={
            "max_support": max_support,
            "budget": budget,
            "tol_eq": tol.eq,
            "tol_dedup": tol.dedup,
        },
    )


def distance_to_set(profile: StrategyProfile, eqs: EquilibriumSet) -> float:
    """Minimum profile distance from ``profile`` to the listed equilibria."""
    if len(eqs) == 0:
        raise DomainError("distance to an empty equilibrium set is undefined")
    return min(profile_distance(profile, e) for e in eqs.equilibria)
