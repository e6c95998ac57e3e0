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

Both passes work on a list of same-shape games at once, so a perturbation
battery is enumerated as one stack (:func:`enumerate_stack`;
:func:`enumerate_equilibria` is its one-game case). The batched pass stacks
the pair chunks of every game still in it, and a game leaves it at its
first degeneracy witness. The LP loop solves the column player's LPs of
the screened pairs of every game that fell back, whatever their sizes, as
one :func:`stablenash.lp.solve_stack` stack, each LP padded to the largest
support, then the row player's LPs as a second; a lone LP goes to
:func:`stablenash.lp.solve_lp`. Each game gets the equilibria, order and
completeness it gets alone, bit for bit.

Each pass admits a game's candidates once (:func:`_admit`). The batched
pass collects a game's candidate rows in visit order and admits them when
the pass ends; a game that falls back discards them. The LP loop admits a
game's solved pairs in pair order. A pass cleans all its candidates as one
stack; an admission checks a game's with one
:func:`stablenash.core.raw_regrets` call, then, in visit order, drops each
within ``tol.dedup`` of a listed equilibrium or of an earlier admitted
one. Each keeps the profiles, order and bytes that admitting one candidate
at a time gives.

The degeneracy witnesses are a singular tie system that is still
consistent, and an accepted side solution with more than k tied opponent
actions. They catch every degenerate strategy: if x has support S of size
k and best-response set B with |B| > k, then x solves the system of
(B', S) for any B' in B of size k, so that system is either singular and
consistent or has the unique solution x, with extra ties.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS, STACK_FLOATS, Tolerances
from .core import BimatrixGame, StrategyProfile, raw_regrets
from .core import regrets  # unused here; bench/spans.py traces it by this name
from .errors import DomainError, ResourceBudgetError
from .lp import OPTIMAL, LinearProgram, solve_lp, solve_stack

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


def _support_lps(
    payoffs: np.ndarray,
    game: np.ndarray,
    own: np.ndarray,
    ties: np.ndarray,
    tol: Tolerances,
) -> list[Optional[np.ndarray]]:
    """Best-response-consistent distributions on a stack of own supports.

    Member m asks for a distribution x on the own actions of the mask
    ``own[m]`` against ``payoffs[game[m]]``, whose row a is opponent action
    a's payoff as a function of x. The actions of the mask ``ties[m]`` must
    tie at a common level u, all others must not exceed it; the minimum
    supported probability t is maximized so the declared support is
    genuine. Returns each member's x over every own action, or None when
    its LP has no optimum with t above ``tol.zero``.

    Member m's own LP has the columns (x, u, t), x in the order of its k_m
    own actions, and the rows: the mass, one tie row per opponent action,
    then t <= x_j per own action. The LPs are built as arrays and solved as
    one :func:`stablenash.lp.solve_stack` stack, each padded to the stack's
    largest k: zero columns after its own, with objective 0 and bounds
    [0, inf), and ``0 <= 0`` rows after its own. A zero column with zero
    cost never prices as improving, a zero row never passes the ratio test,
    and the padding keeps the order of the real columns and rows, which is
    all Bland's choices compare; so each member's status, solution prefix
    and objective are bitwise those of its own LP. A single LP goes to
    :func:`stablenash.lp.solve_lp`, which is faster alone.
    """
    members, n_own = own.shape
    n_opp = payoffs.shape[1]
    k = own.sum(axis=1)
    width = int(k.max())
    each = np.arange(members)
    opp = np.arange(n_opp)
    mj, j = np.nonzero(own)
    col = (np.cumsum(own, axis=1) - 1)[mj, j]  # own action j's column in member mj
    A = np.zeros((members, 1 + n_opp + width, width + 2))
    A[mj, 0, col] = 1.0
    A[mj[:, None], 1 + opp, col[:, None]] = payoffs[game[mj][:, None], opp, j[:, None]]
    A[each[:, None], 1 + opp, k[:, None]] = -1.0
    A[mj, 1 + n_opp + col, col] = 1.0
    A[mj, 1 + n_opp + col, k[mj] + 1] = -1.0
    relations = np.concatenate(
        (
            np.full((members, 1), "="),
            np.where(ties, "=", "<="),
            np.where(np.arange(width) < k[:, None], ">=", "<="),
        ),
        axis=1,
    )
    rhs = np.zeros(A.shape[:2])
    rhs[:, 0] = 1.0
    lower = np.zeros((members, width + 2))
    lower[each, k] = payoffs.min(axis=(1, 2))[game] - 1.0  # u never binds below payoffs
    upper = np.full_like(lower, np.inf)
    objective = np.zeros_like(lower)
    objective[each, k + 1] = 1.0
    if members == 1:
        lp = LinearProgram(width + 2, objective[0], True, lower=lower[0], upper=upper[0])
        for row, relation, b in zip(A[0], relations[0], rhs[0]):
            lp.add_constraint(row, str(relation), b)
        outcomes = [solve_lp(lp, tol)]
    else:
        outcomes = solve_stack(A, relations, rhs, lower, upper, objective, tol)
    out: list[Optional[np.ndarray]] = []
    for m, lp_out in enumerate(outcomes):
        if lp_out.status != OPTIMAL or lp_out.objective_value <= tol.zero:
            out.append(None)
            continue
        full = np.zeros(n_own)
        full[own[m]] = lp_out.solution[: k[m]]
        out.append(full)
    return out


def _admit(
    game: BimatrixGame,
    found: list[StrategyProfile],
    candidates: list[StrategyProfile],
    tol: Tolerances,
) -> np.ndarray:
    """Append to ``found``, in order, each of the cleaned ``candidates``
    that verifies and lies farther than ``tol.dedup`` from every listed
    equilibrium and every earlier admitted candidate; returns the indices
    of the admitted ones.

    One :func:`raw_regrets` call checks every candidate.
    """
    if not candidates:
        return np.zeros(0, dtype=int)
    P = np.array([c.row.probs for c in candidates])
    Q = np.array([c.col.probs for c in candidates])
    regret = functools.reduce(np.maximum, raw_regrets(game.R, game.C, P, Q, 0.0))
    live = np.flatnonzero(regret <= tol.eq)
    if found or live.size > 1:  # else nothing is near the one candidate
        live = live[_apart(P[live], Q[live], found, tol.dedup)]
    found.extend(candidates[i] for i in live.tolist())
    return live


def _apart(
    P: np.ndarray, Q: np.ndarray, listed: list[StrategyProfile], dedup: float
) -> np.ndarray:
    """Which profiles of the stack (P, Q) lie farther than ``dedup`` from
    every profile in ``listed`` and every earlier one kept, in row order.

    Distances are half the sum of a row of absolute differences, bitwise
    :func:`profile_distance`, taken a block of rows at a time against the
    listed profiles and the rows before them, at most ``STACK_FLOATS``
    differences per block.
    """
    XP = np.concatenate((P, np.array([e.row.probs for e in listed]).reshape(-1, P.shape[1])))
    XQ = np.concatenate((Q, np.array([e.col.probs for e in listed]).reshape(-1, Q.shape[1])))
    keep = np.ones(len(XP), dtype=bool)
    index = np.arange(len(XP))
    step = max(1, STACK_FLOATS // (len(XP) * max(P.shape[1], Q.shape[1])))
    for start in range(0, len(P), step):
        block = np.arange(start, min(start + step, len(P)))
        dist = np.maximum(
            0.5 * np.abs(XP[block, None] - XP).sum(axis=2),
            0.5 * np.abs(XQ[block, None] - XQ).sum(axis=2),
        )
        # a row meets the listed profiles and the rows before it, which are
        # settled by then
        near = (dist <= dedup) & ((index < block[:, None]) | (index >= len(P)))
        for b in np.flatnonzero(near.any(axis=1)):
            keep[block[b]] = not (near[b] & keep).any()
    return keep[: len(P)]


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
    games: list[BimatrixGame], max_support: int, budget: int, tol: Tolerances
) -> list[tuple[list[StrategyProfile], bool]]:
    """Equilibria from two LPs per screened support pair over every pair of
    sizes, for each of a list of same-shape games.

    Every game's screened pairs are listed first, so the support-pair budget
    fires before any LP. The column player's LPs of all of them, whatever
    their sizes, are then solved as one padded stack (:func:`_support_lps`,
    ``_CHUNK`` pairs at a time), and the row player's LPs of the pairs whose
    column LP found a distribution as a second. The solutions are cleaned
    as one stack, and each game's are admitted in pair order by one
    :func:`_admit` call. Returns, per
    game, the equilibria in visit order and whether an admitted pair marks
    a component: its supports differ in size, so the side with more own
    actions than tied opponent actions is underdetermined, or one of its
    square tie systems is singular, tested with one rank computation per
    support size.
    """
    R = np.array([game.R for game in games])
    CT = np.array([game.C.T for game in games])
    sizes = list(itertools.product(range(1, max_support + 1), repeat=2))
    pairs = [
        (g, S_p, S_q)
        for g, game in enumerate(games)
        for _, S_p, S_q in screened_pairs(game, sizes, 0.0, budget, tol)
    ]
    at = np.array([g for g, _, _ in pairs], dtype=int)
    rows = np.zeros((len(pairs), R.shape[1]), dtype=bool)
    cols = np.zeros((len(pairs), R.shape[2]), dtype=bool)
    for i, (_, S_p, S_q) in enumerate(pairs):
        rows[i, list(S_p)] = True
        cols[i, list(S_q)] = True
    solved: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for start in range(0, len(pairs), _CHUNK):
        part = np.arange(start, min(start + _CHUNK, len(pairs)))
        qs = _support_lps(R, at[part], cols[part], rows[part], tol)
        kept = np.array([i for i, q in zip(part, qs) if q is not None], dtype=int)
        if not kept.size:
            continue
        ps = _support_lps(CT, at[kept], rows[kept], cols[kept], tol)
        for i, p in zip(kept.tolist(), ps):
            if p is not None:
                solved[i] = p, qs[i - start]

    found: list[list[StrategyProfile]] = [[] for _ in games]
    degenerate = [False] * len(games)
    order = sorted(solved)  # pair order, which lists the games in turn
    candidates = StrategyProfile.from_rows(
        np.array([solved[i][0] for i in order]).reshape(-1, R.shape[1]),
        np.array([solved[i][1] for i in order]).reshape(-1, R.shape[2]),
        tol,
    )
    by_game: dict[int, list[tuple[int, StrategyProfile]]] = {}
    for i, candidate in zip(order, candidates):
        by_game.setdefault(int(at[i]), []).append((i, candidate))
    for g, mine in by_game.items():
        admitted = _admit(games[g], found[g], [c for _, c in mine], tol)
        # the admitted pairs of equal sizes, by size; one of unequal sizes
        # marks a component at once
        square: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for i in np.array([i for i, _ in mine])[admitted].tolist():
            _, S_p, S_q = pairs[i]
            if len(S_p) != len(S_q):
                degenerate[g] = True
            else:
                square.setdefault(len(S_p), []).append((S_p, S_q))
        for k, supports in square.items():
            if degenerate[g]:
                break
            P, Q = (np.array(side) for side in zip(*supports))
            A = np.concatenate((_tie_systems(R[[g]], Q, P), _tie_systems(CT[[g]], P, Q)))
            degenerate[g] = bool((np.linalg.matrix_rank(A, tol=_RANK_TOL) < k + 1).any())
    return list(zip(found, degenerate))


def _inverse_column(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last column of each inverse of a stack, and a mask of the systems
    whose inverse's Frobenius norm (``np.linalg.norm``'s arithmetic) does
    not prove them nonsingular."""
    inv = np.linalg.inv(A)
    return inv[:, :, -1], np.sqrt((inv * inv).sum(axis=(1, 2))) * _RANK_TOL >= 1.0


def _solve_ties(
    A: np.ndarray, piece: int, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solutions of ``A[m] x = e_last`` for a stack of square tie systems.

    Returns the solutions, a mask of the singular systems, whose rows are
    meaningless, and a mask of the singular systems that are consistent,
    which are degeneracy witnesses. A system is singular when its smallest
    singular value is at most ``_RANK_TOL``. Inversion settles most systems:
    the spectral norm of the inverse is at most its Frobenius norm, so a
    Frobenius norm below ``1 / _RANK_TOL`` proves the system nonsingular.
    Only the rest pay for an SVD.

    One exactly singular system makes the inversion of the whole stack
    fail. The stack is then inverted again in runs of ``piece`` members,
    and every system of a run that still fails goes to the SVD, so each
    run gets the bits it gets when solved alone.
    """
    m = A.shape[0]
    try:
        sol, unsure = _inverse_column(A)
    except np.linalg.LinAlgError:
        sol = np.empty(A.shape[:2])
        unsure = np.ones(m, dtype=bool)
        for start in range(0, m, piece) if piece < m else ():
            run = slice(start, start + piece)
            try:
                sol[run], unsure[run] = _inverse_column(A[run])
            except np.linalg.LinAlgError:
                pass
    singular = np.zeros(m, dtype=bool)
    consistent = np.zeros(m, dtype=bool)
    if unsure.any():
        U, s, Vh = np.linalg.svd(A[unsure])
        null = s <= _RANK_TOL
        # e_last in the left singular basis is U's last row; its part along
        # null directions is the least-squares residual.
        rhs = U[:, -1, :]
        residual = np.sqrt((np.where(null, rhs, 0.0) ** 2).sum(axis=1))
        consistent[unsure] = null[:, -1] & (residual <= tol.lp)
        coef = np.where(null, 0.0, rhs / np.where(null, 1.0, s))
        sol[unsure] = np.einsum("mj,mji->mi", coef, Vh)
        singular[unsure] = null[:, -1]
    return sol, singular, consistent


def _tie_systems(payoffs: np.ndarray, own: np.ndarray, opp: np.ndarray) -> np.ndarray:
    """The square tie systems of a stack of size-k support pairs in each of
    a stack of payoff matrices.

    Member (g, m), at g * len(own) + m, is the (k+1)x(k+1) matrix of
    ``payoffs[g][opp[m]][:, own[m]] x - u`` and ``sum(x)`` in the unknowns
    (x, u); its right-hand side is e_last.
    """
    m, k = own.shape
    members = payoffs.shape[0] * m
    A = np.zeros((members, k + 1, k + 1))
    A[:, :k, :k] = payoffs[:, opp[:, :, None], own[:, None, :]].reshape(members, k, k)
    A[:, :k, k] = -1.0
    A[:, k, :k] = 1.0
    return A


def _side_pass(
    payoffs: np.ndarray, own: np.ndarray, opp: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One player's side of a stack of size-k support pairs in each game of
    a stack.

    Member (g, m), at g * len(own) + m, solves ``payoffs[g][opp[m]][:,
    own[m]] x = u``, ``sum(x) = 1`` for a distribution x on ``own[m]`` that
    makes the opponent actions ``opp[m]`` tie at level u. Returns the
    solutions x, a mask of those that are positive and leave no opponent
    action above u, and a mask of the degeneracy witnesses.
    """
    games, n_opp = payoffs.shape[:2]
    m, k = own.shape
    sol, singular, consistent = _solve_ties(_tie_systems(payoffs, own, opp), m, tol)
    x, u = sol[:, :k], sol[:, k]
    # (opponent action, member, own action), the layout of one game's payoff[:, own]
    cols = np.take(payoffs, own, axis=2).transpose(1, 0, 2, 3).reshape(n_opp, games * m, k)
    pay = np.einsum("amj,mj->ma", cols, x)
    ok = ~singular & (x.min(axis=1) > tol.zero)
    ok &= pay.max(axis=1) <= u + tol.lp
    ties = (pay >= (u - tol.lp)[:, None]).sum(axis=1)
    return x, ok, consistent | (ok & (ties > k))


def _batched_pass(
    games: list[BimatrixGame], max_support: int, budget: int, tol: Tolerances
) -> list[Optional[list[StrategyProfile]]]:
    """Equilibria on equal-size supports from stacked tie systems, for each
    of a list of same-shape games.

    Pairs are visited by size k, then row and column subset in
    lexicographic order, in the chunks of :func:`_pair_chunks`. The chunks
    of all games still in the pass are stacked, whole, up to ``_CHUNK``
    pairs at a time. A game's entry is None once a degeneracy witness
    shows among its pairs, when only the LP loop is complete for it; the
    game then leaves the pass. Once the pass ends, the other games'
    candidates are cleaned as one stack (:meth:`StrategyProfile.from_rows`)
    and admitted in visit order, one :func:`_admit` call per game.
    """
    rows, cols = games[0].shape
    # each game's candidate rows in visit order, None once it falls back
    found: list[Optional[list[tuple[np.ndarray, np.ndarray]]]] = [[] for _ in games]
    # the games still in the pass, and their payoff stacks
    live = list(range(len(games)))
    R = np.array([game.R for game in games])
    CT = np.array([game.C.T for game in games])
    sizes = [(k, k) for k in range(1, max_support + 1)]
    for _, P, Q, ip, iq in _pair_chunks((rows, cols), sizes, budget):
        S_p, S_q = P[ip], Q[iq]
        step = max(1, _CHUNK // len(ip))
        for start in range(0, len(live), step):
            batch = slice(start, start + step)
            q_x, q_ok, q_witness = _side_pass(R[batch], S_q, S_p, tol)
            p_x, p_ok, p_witness = _side_pass(CT[batch], S_p, S_q, tol)
            ok = q_ok & p_ok
            witness = q_witness | p_witness
            if witness.any():
                fell = witness.reshape(-1, len(ip)).any(axis=1)
                for b in np.flatnonzero(fell):
                    found[live[start + b]] = None
                ok &= ~np.repeat(fell, len(ip))
            m = np.flatnonzero(ok)
            if not m.size:
                continue
            b, pair = np.divmod(m, len(ip))
            p = np.zeros((m.size, rows))
            p[np.arange(m.size)[:, None], S_p[pair]] = p_x[m]
            q = np.zeros((m.size, cols))
            q[np.arange(m.size)[:, None], S_q[pair]] = q_x[m]
            for g in dict.fromkeys(b.tolist()):
                found[live[start + g]].append((p[b == g], q[b == g]))
        kept = [i for i, g in enumerate(live) if found[g] is not None]
        if len(kept) < len(live):
            if not kept:
                break
            live = [live[i] for i in kept]
            R, CT = R[kept], CT[kept]
    out: list[Optional[list[StrategyProfile]]] = [
        None if blocks is None else [] for blocks in found
    ]
    ready = [g for g, blocks in enumerate(found) if blocks]
    if ready:
        P, Q = (np.concatenate(side) for side in zip(*(b for g in ready for b in found[g])))
        candidates = iter(StrategyProfile.from_rows(P, Q, tol))
        for g in ready:
            mine = list(itertools.islice(candidates, sum(len(p) for p, _ in found[g])))
            _admit(games[g], out[g], mine, tol)
    return out


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


def enumerate_stack(
    games: list[BimatrixGame],
    max_support: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    tol: Tolerances = DEFAULT_TOLS,
) -> list[EquilibriumSet]:
    """:func:`enumerate_equilibria` of each of a list of same-shape games.

    The games go through each layer together: one batched pass over all of
    them, then one LP pass over those that fell back, each player's LPs
    solved as one padded stack across the games. Every set is the one
    :func:`enumerate_equilibria` returns for its game alone, and the budget
    raises as it would on the first game that exceeds it, before any LP.
    """
    if not games:
        return []
    shape = games[0].shape
    if any(game.shape != shape for game in games):
        raise DomainError("stacked games must share one shape")
    cap = min(shape)
    max_support = cap if max_support is None else min(max_support, cap)
    if max_support < 1:
        raise DomainError("max_support must be at least 1")

    found = _batched_pass(games, max_support, budget, tol)
    degenerate = [False] * len(games)
    fell = [g for g, eqs in enumerate(found) if eqs is None]
    if fell:
        lp_found = _lp_pass([games[g] for g in fell], max_support, budget, tol)
        for g, (eqs, component) in zip(fell, lp_found):
            found[g], degenerate[g] = eqs, component

    exhausted = max_support >= cap
    return [
        EquilibriumSet(
            equilibria=tuple(eqs),
            complete=exhausted
            and not (component or _midpoint_component(game, eqs, tol)),
            method={
                "max_support": max_support,
                "budget": budget,
                "tol_eq": tol.eq,
                "tol_dedup": tol.dedup,
            },
        )
        for game, eqs, component in zip(games, found, degenerate)
    ]


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
    return enumerate_stack([game], max_support, budget, tol)[0]


def distance_to_set(profile: StrategyProfile, eqs: EquilibriumSet) -> float:
    """Minimum profile distance from ``profile`` to the listed equilibria;
    the one-profile view of :func:`distances_to_set`."""
    return float(distances_to_set([profile], eqs)[0])


def distances_to_set(profiles: list[StrategyProfile], eqs: EquilibriumSet) -> np.ndarray:
    """Minimum profile distance from each of ``profiles`` to the listed
    equilibria, as one array.

    Each variation distance is half the sum of one row of absolute
    differences, so every entry is bitwise :func:`profile_distance`'s
    minimum over the list.
    """
    if len(eqs) == 0:
        raise DomainError("distance to an empty equilibrium set is undefined")

    def side(strategies, listed):
        E = np.array([s.probs for s in listed])
        X = np.array([s.probs for s in strategies]).reshape(-1, E.shape[1])
        return 0.5 * np.abs(X[:, None, :] - E).sum(axis=2)

    row = side([p.row for p in profiles], [e.row for e in eqs.equilibria])
    col = side([p.col for p in profiles], [e.col for e in eqs.equilibria])
    return np.maximum(row, col).min(axis=1)
