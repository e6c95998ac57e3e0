"""Exact-equilibrium enumeration for small games.

Support enumeration. For a support pair (S_p, S_q) of equal size k, the
supported rows tie at the row player's best payoff u, which together with
the mass constraint is a square (k+1)x(k+1) linear system in (q, u); the
same holds for (p, v) with the roles swapped. The systems of every size-k
pair are stacked and solved in one batched call, and positivity and the
best-response inequalities are checked as array operations.

In a nondegenerate game every equilibrium has equal-size supports, so that
pass is the whole enumeration. A degeneracy witness sends the game to the
LP loop instead, which visits every (|S_p|, |S_q|) size pair: each pair is
screened, then solved with two small LPs, maximizing the minimum supported
probability so that a declared support carries mass. The screen
(:func:`best_response_screen`) drops a pair when some declared action cannot
be a best response to any distribution on the opponent's declared support.

One walk, :func:`_pair_chunks`, goes over support pairs and alone enforces
the support-pair budget. The batched pass uses it directly; the LP loop,
the well-supported search (:mod:`stablenash.support`) and the well-supported
estimator (:mod:`stablenash.stability`) use it through the screened
:func:`screened_pairs`.

The degeneracy witnesses are a singular tie system that is still
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
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS, Tolerances
from .core import BimatrixGame, StrategyProfile, profile_distance, raw_regrets, regrets
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


def best_response_screen(
    payoff: np.ndarray, own: np.ndarray, eps: float, tol: Tolerances
) -> np.ndarray:
    """Which opponent actions can be eps-best responses on each own support.

    ``payoff[i, j]`` is opponent action i's payoff against own action j, and
    ``own`` is a stack (m, k) of own supports. Entry [m, i] of the result is
    False only when no distribution x on ``own[m]`` makes i an eps-best
    response, that is (payoff[i] - payoff[a]) x >= -eps for every action a.
    Such an x averages the columns of its support, so the left side is at
    most max over j in ``own[m]`` of payoff[i, j] - payoff[a, j]; with W the
    minimum of that over a, the entry is ``W >= -eps - margin``.

    The margin keeps every pair that an LP of this module, of
    :mod:`stablenash.support` or of the well-supported estimator in
    :mod:`stablenash.stability` accepts. Let n = payoff.shape[1],
    B = max(1, 2 max|payoff|, eps) and s = 10 tol.lp scale,
    scale = max(1, max|solution|), the slack ``lp._verify`` grants per unit
    of row magnitude. An accepted x has entries >= -s and mass within s of
    1; the estimator's LP spans all n own actions and pins those off the
    support with an upper bound of 0, so they lie within s of 0. Its rows
    (magnitude <= B) give (payoff[i] - payoff[a]) x >= -eps - tol.lp - 2 s B.
    Splitting x into its positive and negative parts on the support and its
    entries off it gives W >= -eps - (tol.lp + 2 (n + 1) s B) / (1 - n s).
    While 40 (n + 1) B tol.lp <= 1, scale stays at most 2B and n s at most
    1/2, so margin = tol.lp (2 + 80 (n + 1) B^2) covers that; past it the
    margin exceeds the payoff spread 2 max|payoff| >= -W and nothing is
    screened.
    """
    m, n = own.shape[0], payoff.shape[1]
    bound = max(1.0, 2.0 * float(np.abs(payoff).max()), abs(eps))
    margin = tol.lp * (2.0 + 80.0 * (n + 1) * bound**2)
    cols = payoff[:, own]  # (opponent action, support, member)
    W = np.full((payoff.shape[0], m), np.inf)
    for a in range(payoff.shape[0]):
        np.minimum(W, (cols - cols[a]).max(axis=2), out=W)
    return (W >= -eps - margin).T


def _pair_chunks(
    shape: tuple[int, int], size_pairs: list[tuple[int, int]], budget: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The one walk over support pairs, and the one place that bounds it.

    Visits the (|S_p|, |S_q|) blocks of ``size_pairs`` in order, each by row
    subset, then column subset, in lexicographic order, ``_CHUNK`` pairs at
    a time. Yields ``(visited, P, Q, ip, iq)``: the pairs visited before the
    chunk, the block's row and column subset tables, and the chunk's row
    and column subset indices into them. Raises
    :class:`ResourceBudgetError` before building any table when the pairs
    of ``size_pairs`` exceed ``budget``.
    """
    rows, cols = shape
    total = sum(math.comb(rows, kp) * math.comb(cols, kq) for kp, kq in size_pairs)
    if total > budget:
        raise ResourceBudgetError(f"{total} support pairs exceed the budget {budget}")
    P = {k: np.array(list(itertools.combinations(range(rows), k))) for k, _ in size_pairs}
    Q = {k: np.array(list(itertools.combinations(range(cols), k))) for _, k in size_pairs}
    visited = 0
    for kp, kq in size_pairs:
        n_pairs = len(P[kp]) * len(Q[kq])
        for start in range(0, n_pairs, _CHUNK):
            ip, iq = np.divmod(np.arange(start, min(start + _CHUNK, n_pairs)), len(Q[kq]))
            yield visited + start, P[kp], Q[kq], ip, iq
        visited += n_pairs


def screened_pairs(
    game: BimatrixGame,
    size_pairs: list[tuple[int, int]],
    eps: float,
    budget: int,
    tol: Tolerances,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Support pairs on which every declared action can be eps-best.

    Walks ``size_pairs`` as :func:`_pair_chunks` does, budget included, and
    yields ``(visited, S_p, S_q)`` for the pairs whose row subset passes
    :func:`best_response_screen` against the column subset and vice versa.
    ``visited`` counts the pairs up to and including this one, screened or
    not. Each screen is built once per call, over all subsets of its size.
    """
    CT = np.ascontiguousarray(game.C.T)
    # row_ok[kq][m, i]: row i against column subset m of size kq; col_ok likewise
    row_ok: dict[int, np.ndarray] = {}
    col_ok: dict[int, np.ndarray] = {}
    for visited, P, Q, ip, iq in _pair_chunks(game.shape, size_pairs, budget):
        kp, kq = P.shape[1], Q.shape[1]
        if kq not in row_ok:
            row_ok[kq] = best_response_screen(game.R, Q, eps, tol)
        if kp not in col_ok:
            col_ok[kp] = best_response_screen(CT, P, eps, tol)
        S_p, S_q = P[ip], Q[iq]
        keep = row_ok[kq][iq[:, None], S_p].all(axis=1)
        keep &= col_ok[kp][ip[:, None], S_q].all(axis=1)
        for m in np.flatnonzero(keep).tolist():
            yield visited + m + 1, tuple(S_p[m].tolist()), tuple(S_q[m].tolist())


def _lp_pass(
    game: BimatrixGame, max_support: int, budget: int, tol: Tolerances
) -> tuple[list[StrategyProfile], bool]:
    """Equilibria from two LPs per screened support pair over every pair of sizes.

    Returns the equilibria in visit order, and whether a found equilibrium
    marks a component: its supports differ in size, so the side with more
    own actions than tied opponent actions is underdetermined, or one of
    its square tie systems is singular.
    """
    CT = np.ascontiguousarray(game.C.T)
    found: list[StrategyProfile] = []
    degenerate = False
    sizes = list(itertools.product(range(1, max_support + 1), repeat=2))
    for _, S_p, S_q in screened_pairs(game, sizes, 0.0, budget, tol):
        q = _support_lp(game.R, S_q, S_p, tol)
        if q is None:
            continue
        p = _support_lp(CT, S_p, S_q, tol)
        if p is None:
            continue
        if not _admit(game, found, p, q, tol):
            continue
        if len(S_p) != len(S_q):
            degenerate = True
            continue
        P, Q = np.array([S_p]), np.array([S_q])
        A = np.concatenate((_tie_systems(game.R, Q, P), _tie_systems(CT, P, Q)))
        if (np.linalg.matrix_rank(A, tol=_RANK_TOL) < len(S_p) + 1).any():
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


def _tie_systems(payoff: np.ndarray, own: np.ndarray, opp: np.ndarray) -> np.ndarray:
    """The square tie systems of a stack of size-k support pairs.

    Row m is the (k+1)x(k+1) matrix of ``payoff[opp[m]][:, own[m]] x - u``
    and ``sum(x)`` in the unknowns (x, u); its right-hand side is e_last.
    """
    m, k = own.shape
    A = np.zeros((m, k + 1, k + 1))
    A[:, :k, :k] = payoff[opp[:, :, None], own[:, None, :]]
    A[:, :k, k] = -1.0
    A[:, k, :k] = 1.0
    return A


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
    k = own.shape[1]
    solved = _solve_ties(_tie_systems(payoff, own, opp), tol)
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
    game: BimatrixGame, max_support: int, budget: int, tol: Tolerances
) -> Optional[list[StrategyProfile]]:
    """Equilibria on equal-size supports from stacked tie systems.

    Pairs are visited by size k, then row and column subset in
    lexicographic order. Returns None on a degeneracy witness, when only
    the LP loop is complete.
    """
    CT = np.ascontiguousarray(game.C.T)
    found: list[StrategyProfile] = []
    sizes = [(k, k) for k in range(1, max_support + 1)]
    for _, P, Q, ip, iq in _pair_chunks(game.shape, sizes, budget):
        S_p, S_q = P[ip], Q[iq]
        q_side = _side_pass(game.R, S_q, S_p, tol)
        if q_side is None:
            return None
        p_side = _side_pass(CT, S_p, S_q, tol)
        if p_side is None:
            return None
        (q_x, q_ok), (p_x, p_ok) = q_side, p_side
        for m in np.flatnonzero(q_ok & p_ok):
            p = np.zeros(game.rows)
            p[S_p[m]] = p_x[m]
            q = np.zeros(game.cols)
            q[S_q[m]] = q_x[m]
            _admit(game, found, p, q, tol)
    return found


def _midpoint_component(
    game: BimatrixGame, found: list[StrategyProfile], tol: Tolerances
) -> bool:
    """Whether the midpoint of two listed equilibria is an equilibrium
    farther than ``tol.dedup`` from every listed one, which certifies a
    component. The midpoints are cleaned as one stack and checked with one
    :func:`raw_regrets` call.
    """
    if len(found) < 2:
        return False
    P = np.array([e.row.probs for e in found])
    Q = np.array([e.col.probs for e in found])
    a, b = np.array(list(itertools.combinations(range(len(found)), 2))).T
    mids = StrategyProfile.from_rows(0.5 * (P[a] + P[b]), 0.5 * (Q[a] + Q[b]), tol)
    MP = np.array([m.row.probs for m in mids])
    MQ = np.array([m.col.probs for m in mids])
    eq = np.max(raw_regrets(game.R, game.C, MP, MQ, 0.0), axis=0) <= tol.eq
    dist = np.maximum(
        np.abs(MP[eq, None] - P).sum(axis=2), np.abs(MQ[eq, None] - Q).sum(axis=2)
    )
    return bool((0.5 * dist > tol.dedup).all(axis=1).any())


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
    cap = min(game.shape)
    max_support = cap if max_support is None else min(max_support, cap)
    if max_support < 1:
        raise DomainError("max_support must be at least 1")

    found = _batched_pass(game, max_support, budget, tol)
    degenerate = False
    if found is None:
        found, degenerate = _lp_pass(game, max_support, budget, tol)
    if not degenerate:
        degenerate = _midpoint_component(game, found, tol)

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
