"""Exact-equilibrium enumeration for small games.

Support enumeration. For a support pair (S_p, S_q) of equal size k, the
supported rows tie at the row player's best payoff u, which together with
the mass constraint is a square (k+1)x(k+1) linear system in (q, u); the
same holds for (p, v) with the roles swapped. Both players' systems of a
chunk of size-k pairs, in every game of the pass, are gathered from the
games' payoff tables by the chunk's pair plan (:func:`_pair_plan`), solved
in one batched call, and checked for positivity and the best-response
inequalities as one stack. A plan depends only on the shape, k and the
chunk, so plans are kept across calls within a bound (:func:`_memo`).

In a nondegenerate game every equilibrium has equal-size supports, so that
pass is the whole enumeration. A degeneracy witness sends the game to the
LP loop instead, which visits every (|S_p|, |S_q|) size pair: each pair is
screened, then solved with two small LPs, maximizing the minimum supported
probability so that a declared support carries mass. The screen
(:func:`best_response_windows`) drops a pair when no distribution on one
side's declared support makes all the opponent's declared actions best
responses. On a support of one or two actions it reads where on the
segment each action is best, a window, and keeps the pair only when the
windows meet, which is exact; on a larger support it drops the pair only
when some declared action is best against no distribution on it.

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
stack of arrays; an admission checks a game's with one
:func:`stablenash.core.raw_regrets` call, then, in visit order, drops each
within ``tol.dedup`` of a listed equilibrium or of an earlier admitted
one, and builds profiles for the admitted rows only. Each keeps the
profiles, order and bytes that admitting one candidate at a time gives.

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
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT_ENUM_BUDGET, DEFAULT_TOLS, STACK_FLOATS, Tolerances
from .core import BimatrixGame, MixedStrategy, StrategyProfile, _clean, raw_regrets
from .core import regrets  # unused here; bench/spans.py traces it by this name
from .errors import DomainError, ResourceBudgetError
from .lp import OPTIMAL, solve_lp, solve_stack

# Support pairs, or tie systems, per stacked solve, which bounds the
# stack's memory.
_CHUNK = 2048
# Singular-value threshold below which a tie system counts as singular.
_RANK_TOL = 1e-9
# Subset tables and pair plans kept across calls, oldest first (_memo),
# and the lock that keeps their sum within the bound across threads.
_MEMO: dict[tuple, tuple] = {}
_MEMO_LOCK = threading.Lock()


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
        outcomes = [solve_lp(A[0], relations[0], rhs[0], lower[0], upper[0], objective[0], tol)]
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
    P: np.ndarray,
    Q: np.ndarray,
    tol: Tolerances,
) -> np.ndarray:
    """Append to ``found``, in order, the profile of each row pair of the
    cleaned stacks ``(P, Q)`` that verifies and lies farther than
    ``tol.dedup`` from every listed equilibrium and every earlier admitted
    row; returns the indices of the admitted rows.

    ``P`` and ``Q`` are read-only, as :func:`stablenash.core._clean`
    returns them. One :func:`raw_regrets` call checks every row, and only
    the admitted rows become profiles, bitwise those of
    :meth:`StrategyProfile.from_rows`.
    """
    if not len(P):
        return np.zeros(0, dtype=int)
    regret = functools.reduce(np.maximum, raw_regrets(game.R, game.C, P, Q, 0.0))
    live = np.flatnonzero(regret <= tol.eq)
    if found or live.size > 1:  # else nothing is near the one candidate
        live = live[_apart(P[live], Q[live], found, tol.dedup)]
    found.extend(StrategyProfile(_strategy(P[i]), _strategy(Q[i])) for i in live.tolist())
    return live


def _strategy(v: np.ndarray) -> MixedStrategy:
    """The strategy of a cleaned, read-only vector; its support is its
    nonzero entries, as :meth:`MixedStrategy.from_rows` reads them."""
    return MixedStrategy(v, tuple(v.nonzero()[0].tolist()))


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


def best_response_windows(
    payoff: np.ndarray, own: np.ndarray, eps: float, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Where on each own support each opponent action can be eps-best.

    ``payoff[i, j]`` is opponent action i's payoff against own action j, and
    ``own`` is a stack (m, k) of own supports. Returns ``(lo, hi)``, each of
    shape (m, n_opp): opponent action i can be an eps-best response on
    ``own[m]``, that is (payoff[i] - payoff[a]) x >= -eps for every action
    a, only at the x of the window [lo, hi] of a parameter t in [0, 1]. A
    window with lo > hi is empty, and a set of actions can all be eps-best
    at one x only when their windows meet: max lo <= min hi.

    On a support {a, b} of two actions every distribution is x = t e_a +
    (1 - t) e_b, and each row, d x >= -eps - margin with d = payoff[i] -
    payoff[c], is the half-line d_b + t (d_a - d_b) >= -eps - margin in t,
    so the window is exact up to the margin. On any other support the window
    is [0, 1] or empty, and it is empty only when W < -eps - margin: an x
    averages the columns of its support, so d x is at most max over j in
    ``own[m]`` of d_j, and W is the minimum of that over c. On one action
    that test is exact too; on three or more it is only necessary.

    The margin keeps every pair that an LP of this module, of
    :mod:`stablenash.support` or of the well-supported estimator in
    :mod:`stablenash.stability` accepts. Let n = payoff.shape[1],
    B = max(1, 2 max|payoff|, eps) and s = 10 tol.lp scale,
    scale = max(1, max|solution|), the slack ``lp._verify_stack`` grants
    per unit of row magnitude. An accepted x has entries >= -s and mass
    within s of 1; the estimator's LP spans all n own actions and pins
    those off the support with an upper bound of 0, so they lie within s
    of 0. Its rows (magnitude <= B) give (payoff[i] - payoff[a]) x >= -eps
    - tol.lp - 2 s B.
    Splitting x into its positive and negative parts on the support and its
    entries off it, the distribution y, the positive part on the support
    scaled to mass 1, meets every row with d y >= -eps - (tol.lp + 2 (n + 1)
    s B) / (1 - n s). While 40 (n + 1) B tol.lp <= 1, scale stays at most 2B
    and n s below 1/2, so margin = tol.lp (2 + 80 (n + 1) B^2) covers that
    with at least 40 B^2 tol.lp to spare; past it the margin exceeds the
    payoff spread 2 max|payoff| >= -W and every window is [0, 1]. All rows
    hold at the one y, so on two actions its weight t on a lies in every
    window, and W >= -eps - margin on any support.

    Each endpoint (-eps - margin - d_b) / (d_a - d_b) is one division of
    rounded differences of numbers at most 3B in size, off by at most
    20 u B / |d_a - d_b| with u = 2^-53, while the spare margin puts t at
    least 40 B^2 tol.lp / |d_a - d_b| inside the exact endpoint. So no
    further slack is needed for any tol.lp above u / 2, about 6e-17; at the
    default 1e-8 the spare margin is over 10^8 times the rounding error.
    """
    m, k = own.shape
    n_opp, n = payoff.shape
    bound = max(1.0, 2.0 * float(np.abs(payoff).max()), abs(eps))
    floor = -eps - tol.lp * (2.0 + 80.0 * (n + 1) * bound**2)
    cols = payoff[:, own]  # (opponent action, support, member)
    lo = np.zeros((n_opp, m))
    hi = np.ones((n_opp, m))
    for c in range(n_opp):
        d = cols - cols[c]
        hi[d.max(axis=2) < floor] = -np.inf
        if k == 2:
            slope = d[:, :, 0] - d[:, :, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (floor - d[:, :, 1]) / slope
            np.maximum(lo, t, out=lo, where=slope > 0)
            np.minimum(hi, t, out=hi, where=slope < 0)
    return lo.T, hi.T


def _pair_chunks(
    shape: tuple[int, int],
    size_pairs: list[tuple[int, int]],
    budget: int,
    chunk: Optional[int] = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The one walk over support pairs, and the one place that bounds it.

    Visits the (|S_p|, |S_q|) blocks of ``size_pairs`` in order, each by row
    subset, then column subset, in lexicographic order, ``chunk`` pairs
    (``_CHUNK`` by default) at a time. Yields ``(visited, P, Q, ip, iq)``:
    the pairs visited before the chunk, the block's row and column subset
    tables, and the chunk's row and column subset indices into them. The
    tables and indices are read-only and kept across calls (:func:`_memo`).
    Raises :class:`ResourceBudgetError` before building any table when the
    pairs of ``size_pairs`` exceed ``budget``.
    """
    rows, cols = shape
    total = sum(math.comb(rows, kp) * math.comb(cols, kq) for kp, kq in size_pairs)
    if total > budget:
        raise ResourceBudgetError(f"{total} support pairs exceed the budget {budget}")
    chunk = _CHUNK if chunk is None else chunk
    visited = 0
    for kp, kq in size_pairs:
        P, Q = _subsets(rows, kp), _subsets(cols, kq)
        n_pairs = len(P) * len(Q)
        for start in range(0, n_pairs, chunk):
            yield (visited + start, P, Q, *_chunk(len(P), len(Q), start, chunk))
        visited += n_pairs


def _subsets(n: int, k: int) -> np.ndarray:
    """The (C(n, k), k) table of the k-subsets of range(n) in lexicographic
    order, read-only and kept by :func:`_memo`."""

    def build():
        return (np.array(list(itertools.combinations(range(n), k))),)

    return _memo(("subsets", n, k), build)[0]


def _chunk(n_p: int, n_q: int, start: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The row and column subset indices of the pairs of an n_p x n_q block
    from ``start``, ``size`` of them at most, read-only and kept by
    :func:`_memo`."""

    def build():
        return np.divmod(np.arange(start, min(start + size, n_p * n_q)), n_q)

    return _memo(("chunk", n_p, n_q, start, size), build)


def _memo(key: tuple, build) -> tuple:
    """The arrays ``build()`` returns, read-only, kept for later calls.

    The kept arrays hold at most ``STACK_FLOATS`` entries in all: a new
    entry drops the oldest ones until it fits. An entry of more than an
    eighth of that is built again on every call, so a large game's plans,
    which cannot all stay, never push out the rest. An entry's key holds
    everything its arrays depend on.
    """
    kept = _MEMO.get(key)
    if kept is not None:
        return kept
    arrays = build()
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    size = _entries(arrays)
    if size <= STACK_FLOATS // 8:
        with _MEMO_LOCK:
            held = [(k, _entries(v)) for k, v in _MEMO.items()]
            total = sum(n for _, n in held)
            for old, n in held:
                if total + size <= STACK_FLOATS:
                    break
                del _MEMO[old]
                total -= n
            _MEMO[key] = arrays
    return arrays


def _entries(arrays: tuple) -> int:
    return sum(a.size for a in arrays if a is not None)


def screened_pairs(
    game: BimatrixGame,
    size_pairs: list[tuple[int, int]],
    eps: float,
    budget: int,
    tol: Tolerances,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Support pairs on which every declared action can be eps-best.

    Walks ``size_pairs`` as :func:`_pair_chunks` does, budget included, and
    keeps a pair when the :func:`best_response_windows` of its row subset's
    actions against its column subset meet, and vice versa. Yields, per
    chunk that keeps a pair, ``(visited, S_p, S_q)`` for its kept pairs in
    visit order: ``visited[m]`` counts the pairs up to and including pair
    m, screened or not, and ``S_p`` (m, |S_p|) and ``S_q`` (m, |S_q|) hold
    their subsets. Each window table is built once per call, over all
    subsets of its size.
    """
    CT = np.ascontiguousarray(game.C.T)
    # row_win[kq]: the rows' windows on each column subset of size kq; col_win likewise
    row_win: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    col_win: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for visited, P, Q, ip, iq in _pair_chunks(game.shape, size_pairs, budget):
        kp, kq = P.shape[1], Q.shape[1]
        if kq not in row_win:
            row_win[kq] = best_response_windows(game.R, Q, eps, tol)
        if kp not in col_win:
            col_win[kp] = best_response_windows(CT, P, eps, tol)
        S_p, S_q = P[ip], Q[iq]
        (lo, hi), at = row_win[kq], (iq[:, None], S_p)
        keep = lo[at].max(axis=1) <= hi[at].min(axis=1)
        (lo, hi), at = col_win[kp], (ip[:, None], S_q)
        keep &= lo[at].max(axis=1) <= hi[at].min(axis=1)
        m = np.flatnonzero(keep)
        if m.size:
            yield visited + m + 1, S_p[m], S_q[m]


def _masks(S: np.ndarray, n: int) -> np.ndarray:
    """The (m, n) boolean masks of a stack of subsets."""
    out = np.zeros((len(S), n), dtype=bool)
    out[np.arange(len(S))[:, None], S] = True
    return out


def _lp_pass(
    games: list[BimatrixGame], max_support: int, budget: int, tol: Tolerances
) -> list[tuple[list[StrategyProfile], bool]]:
    """Equilibria from two LPs per screened support pair over every pair of
    sizes, for each of a list of same-shape games.

    Every game's screened pairs are listed first, as support masks, so the
    support-pair budget fires before any LP. The column player's LPs of all
    of them, whatever their sizes, are then solved as one padded stack
    (:func:`_support_lps`, ``_CHUNK`` pairs at a time), and the row player's
    LPs of the pairs whose column LP found a distribution as a second. The
    solutions are cleaned as one stack, and each game's are admitted in pair
    order by one :func:`_admit` call. Returns, per
    game, the equilibria in visit order and whether an admitted pair marks
    a component: its supports differ in size, so the side with more own
    actions than tied opponent actions is underdetermined, or one of its
    square tie systems is singular, tested with one rank computation per
    support size.
    """
    R = np.array([game.R for game in games])
    CT = np.array([game.C.T for game in games])
    sizes = list(itertools.product(range(1, max_support + 1), repeat=2))
    # each game's screened pairs as its index and support masks, after an
    # empty block in case the screen keeps none
    at = [np.zeros(0, dtype=int)]
    rows = [np.zeros((0, R.shape[1]), dtype=bool)]
    cols = [np.zeros((0, R.shape[2]), dtype=bool)]
    for g, game in enumerate(games):
        for _, S_p, S_q in screened_pairs(game, sizes, 0.0, budget, tol):
            at.append(np.full(len(S_p), g))
            rows.append(_masks(S_p, R.shape[1]))
            cols.append(_masks(S_q, R.shape[2]))
    at, rows, cols = np.concatenate(at), np.concatenate(rows), np.concatenate(cols)
    solved: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for start in range(0, len(at), _CHUNK):
        part = np.arange(start, min(start + _CHUNK, len(at)))
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
    order = np.array(sorted(solved), dtype=int)  # pair order, which lists the games in turn
    ps = _clean(np.array([solved[i][0] for i in order]).reshape(-1, R.shape[1]), tol, True)
    qs = _clean(np.array([solved[i][1] for i in order]).reshape(-1, R.shape[2]), tol, True)
    ends = np.cumsum(np.bincount(at[order], minlength=len(games))).tolist()
    for g, lo, hi in zip(range(len(games)), [0] + ends, ends):
        if lo == hi:
            continue
        admitted = _admit(games[g], found[g], ps[lo:hi], qs[lo:hi], tol)
        # the admitted pairs; one of unequal sizes marks a component at once,
        # else the pairs of each size are tested as one stack
        mine_pairs = order[lo:hi][admitted]
        kp, kq = rows[mine_pairs].sum(axis=1), cols[mine_pairs].sum(axis=1)
        degenerate[g] = bool((kp != kq).any())
        for k in sorted(set(kp.tolist())) if not degenerate[g] else ():
            pick = mine_pairs[kp == k]
            P = np.nonzero(rows[pick])[1].reshape(-1, k)
            Q = np.nonzero(cols[pick])[1].reshape(-1, k)
            A = np.concatenate((_tie_systems(R[[g]], Q, P), _tie_systems(CT[[g]], P, Q)))
            if (np.linalg.matrix_rank(A, tol=_RANK_TOL) < k + 1).any():
                degenerate[g] = True
                break
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
    fail. A stack of one run goes to the SVD whole. A longer one gets one
    ``np.linalg.slogdet`` call, which marks those systems by sign 0, since
    its LU factorization meets the same zero pivot as the inversion's.
    Every system of a run of ``piece`` members that holds one goes to the
    SVD, and the others are inverted in one call. Each system is factorized
    on its own, so each run gets the bits it gets when solved alone. The
    batched pass stacks both players' systems of every game in one call,
    a run per game and player, so each player's systems of a game get the
    bits they get in a stack of their own.
    """
    m = A.shape[0]
    try:
        sol, unsure = _inverse_column(A)
    except np.linalg.LinAlgError:
        sol = np.empty(A.shape[:2])
        unsure = np.ones(m, dtype=bool)
        if piece < m:
            runs = np.arange(m) // piece
            held = np.zeros(runs[-1] + 1, dtype=bool)  # runs holding a singular system
            held[runs[np.linalg.slogdet(A)[0] == 0]] = True
            unsure = held[runs]
            sure = np.flatnonzero(~unsure)
            if sure.size:
                sol[sure], unsure[sure] = _inverse_column(A[sure])
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


def _pair_plan(
    rows: int,
    cols: int,
    visited: int,
    P: np.ndarray,
    Q: np.ndarray,
    ip: np.ndarray,
    iq: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The gather plan of one chunk of size-k pairs of the batched pass's
    walk (:func:`_pair_chunks` over the blocks (1, 1), (2, 2), ...) in a
    rows x cols game, kept by :func:`_memo` under the shape, k, the pairs
    visited before the chunk and its pair count, which fix it.

    The plan indexes a game's table (:func:`_tables`), whose rows are
    opponent actions and whose columns are the row player's own actions
    against R, then the column player's against C.T. Member m < c is the
    row player's side of pair m, which ties the rows ``S_p[m]`` with weights
    on the columns ``S_q[m]``; member c + m is the column player's, which
    ties the rows ``S_q[m]`` with weights on the columns ``n + S_p[m]``,
    n = max(rows, cols).

    Returns ``(S_p, S_q, systems, own, pad)``. ``S_p`` and ``S_q`` hold the
    chunk's c row and column subsets. ``systems`` (2c, k+1, k+1) holds the
    flat table index of each entry of each member's tie system: its tied
    rows on its own columns, then the column of -1 and the row of 1.
    ``own`` (2c, k) holds each member's own columns, whose first n table
    rows are every opponent action's payoffs; ``pad`` (n, 2c) marks the
    rows past each member's opponent action count, and is None in a square
    game.
    """
    k = P.shape[1]

    def build():
        S_p, S_q = P[ip], Q[iq]
        c, n = len(ip), max(rows, cols)
        # each member's table rows, then the row of 1, and its own columns,
        # then the column of -1
        opp = np.full((2 * c, k + 1), n)
        opp[:c, :k], opp[c:, :k] = S_p, S_q
        own = np.full((2 * c, k + 1), 2 * n)
        own[:c, :k], own[c:, :k] = S_q, S_p + n
        systems = (opp * (2 * n + 1))[:, :, None] + own[:, None, :]
        pad = None
        if rows != cols:
            pad = np.repeat(np.arange(n)[:, None] >= np.array([rows, cols]), c, axis=1)
        return S_p, S_q, systems, np.ascontiguousarray(own[:, :k]), pad

    return _memo((rows, cols, k, visited, len(ip)), build)


def _tables(games: list[BimatrixGame]) -> np.ndarray:
    """Each game's (n+1, 2n+1) table, n = max(rows, cols): R in the first n
    columns and C.T in the next n, each zero-padded to n rows, a last
    column of -1 and a last row of 1 that meet at 0."""
    rows, cols = games[0].shape
    n = max(rows, cols)
    out = np.zeros((len(games), n + 1, 2 * n + 1))
    out[:, :rows, :cols] = [game.R for game in games]
    out[:, :cols, n : n + rows] = [game.C.T for game in games]
    out[:, :n, 2 * n] = -1.0
    out[:, n, : 2 * n] = 1.0
    return out


def _tie_pass(
    tables: np.ndarray, plan: tuple, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both players' sides of a chunk of size-k support pairs in each game
    of a stack.

    ``tables`` holds each game's :func:`_tables` and ``plan`` is the chunk's
    :func:`_pair_plan`. Member (g, s, m) solves side s of pair m in game g:
    a distribution x on the player's own support of the pair that makes the
    opponent's declared actions tie at a level u. All members go to one
    :func:`_solve_ties` call, in runs of one game's side, and are checked as
    one stack. Returns the solutions x, (G, 2, c, k), where ``x[:, 0]`` is
    q on ``S_q``, which ties the row player's actions ``S_p``, and
    ``x[:, 1]`` is p on ``S_p``; a (G, c) mask of the pairs whose two sides
    are positive and leave no opponent action above its level; and a (G,)
    mask of the games with a degeneracy witness among their members.
    """
    S_p, S_q, systems, own, pad = plan
    games, n = len(tables), tables.shape[1] - 1
    c, k = S_p.shape
    A = tables.reshape(games, -1).take(systems, axis=1).reshape(-1, k + 1, k + 1)
    sol, singular, consistent = _solve_ties(A, c, tol)
    x, u = sol[:, :k], sol[:, k]
    # (opponent action, member, own action), the layout of one game's payoff[:, own]
    cols = tables[:, :n].take(own, axis=2).transpose(1, 0, 2, 3).reshape(n, -1, k)
    pay = np.einsum("amj,mj->ma", cols, x)
    # reduced over a leading axis, which numpy does several times faster
    # than rows of a few entries; min, max and counts are exact in any order
    by_action = np.ascontiguousarray(pay.T)
    if pad is not None:
        np.copyto(by_action.reshape(n, games, 2 * c), -np.inf, where=pad[:, None])
    ok = ~singular & (functools.reduce(np.minimum, x.T) > tol.zero)
    ok &= by_action.max(axis=0) <= u + tol.lp
    ties = (by_action >= u - tol.lp).sum(axis=0)
    witness = consistent | (ok & (ties > k))
    return (
        x.reshape(games, 2, c, k),
        ok.reshape(games, 2, c).all(axis=1),
        witness.reshape(games, -1).any(axis=1),
    )


def _batched_pass(
    games: list[BimatrixGame], max_support: int, budget: int, tol: Tolerances
) -> list[Optional[list[StrategyProfile]]]:
    """Equilibria on equal-size supports from stacked tie systems, for each
    of a list of same-shape games.

    Pairs are visited by size k, then row and column subset in
    lexicographic order, in the chunks of :func:`_pair_chunks`, ``_CHUNK //
    2`` pairs at a time. The chunks of all games still in the pass are
    stacked, whole, up to ``_CHUNK`` tie systems at a time, as many as each
    player's stack held when the players were solved apart, and each stack
    is one :func:`_tie_pass` over the chunk's :func:`_pair_plan`. A game's entry is None once a
    degeneracy witness shows among its pairs, when only the LP loop is
    complete for it; the game then leaves the pass. Once the pass ends, the
    other games' candidates are cleaned as one stack
    (:func:`stablenash.core._clean`) and admitted in visit order, one
    :func:`_admit` call per game.
    """
    rows, cols = games[0].shape
    tables = _tables(games)
    live = np.arange(len(games))  # the games still in the pass, in tables
    fell = np.zeros(len(games), dtype=bool)
    blocks = []  # each stack's candidates: their games, p and q, in visit order
    sizes = [(k, k) for k in range(1, max_support + 1)]
    chunk = max(1, _CHUNK // 2)  # two tie systems per pair
    for visited, P, Q, ip, iq in _pair_chunks((rows, cols), sizes, budget, chunk):
        plan = _pair_plan(rows, cols, visited, P, Q, ip, iq)
        S_p, S_q = plan[:2]
        step = max(1, chunk // len(ip))
        for start in range(0, len(live), step):
            x, ok, witness = _tie_pass(tables[start : start + step], plan, tol)
            if witness.any():
                fell[live[start : start + step][witness]] = True
                ok &= ~witness[:, None]
            b, pair = np.nonzero(ok)
            if b.size:
                each = np.arange(b.size)[:, None]
                p = np.zeros((b.size, rows))
                p[each, S_p[pair]] = x[b, 1, pair]
                q = np.zeros((b.size, cols))
                q[each, S_q[pair]] = x[b, 0, pair]
                blocks.append((live[start + b], p, q))
        kept = ~fell[live]
        if not kept.all():
            if not kept.any():
                break
            live, tables = live[kept], tables[kept]
    out: list[Optional[list[StrategyProfile]]] = [None if f else [] for f in fell.tolist()]
    if blocks:
        at, ps, qs = (np.concatenate(side) for side in zip(*blocks))
        keep = np.flatnonzero(~fell[at])
        keep = keep[np.argsort(at[keep], kind="stable")]  # by game, in visit order
        ps, qs = _clean(ps[keep], tol, True), _clean(qs[keep], tol, True)
        ends = np.cumsum(np.bincount(at[keep], minlength=len(games))).tolist()
        for g, lo, hi in zip(range(len(games)), [0] + ends, ends):
            if lo < hi:
                _admit(games[g], out[g], ps[lo:hi], qs[lo:hi], tol)
    return out


def _midpoint_component(
    game: BimatrixGame, found: list[StrategyProfile], tol: Tolerances
) -> bool:
    """Whether the midpoint of two listed equilibria is an equilibrium
    farther than ``tol.dedup`` from every listed one, which certifies a
    component. The midpoints are cleaned as one stack, the arithmetic of
    :meth:`StrategyProfile.from_rows`, and checked with one
    :func:`raw_regrets` call.
    """
    if len(found) < 2:
        return False
    P = np.array([e.row.probs for e in found])
    Q = np.array([e.col.probs for e in found])
    a, b = np.array(list(itertools.combinations(range(len(found)), 2))).T
    MP = _clean(0.5 * (P[a] + P[b]), tol, True)
    MQ = _clean(0.5 * (Q[a] + Q[b]), tol, True)
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
