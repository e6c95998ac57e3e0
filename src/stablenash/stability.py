"""Stability measurement and constructive witnesses.

Reported stability radii are explicit lower bounds: they are realized by a
recorded witness (a perturbed game whose equilibrium moved, or a verified
approximate equilibrium far from the exact set). Exact upper-bound
certification is only available for constant-sum games (see
:mod:`stablenash.constant_sum`), because general-game verification would
require enumerating equilibria of every admissible perturbation.

Every distance maximization here is one kernel. For x and ref on the
simplex, the variation distance is the largest ref(M) - x(M) over the
subsets M of ref's support, so the largest distance from ref over a
polytope is the largest ref(M) - min x(M): one LP per subset, which
:func:`_subset_round` solves as :func:`stablenash.lp.solve_stack` stacks. A
region stays the arrays ``(A, rel, b)`` that :func:`_pinned_region` or
:func:`stablenash.support.ws_region` makes, from the request ``(A, rel, b,
ref, zero_upper)`` to the stack. The constant-sum certifier needs only the
largest distance, which :func:`max_distance` finds exactly by bound and
prune over the subsets, usually with far fewer LPs. The estimators take
every subset LP's vertex as a witness candidate through
:func:`subset_sweep`, which solves each distinct request once. Both raise
before any LP when a request's 2^k subsets exceed their budget: the
certifier's ``partition_budget``, and ``DEFAULT_PARTITION_BUDGET`` in the
estimators. The well-supported estimator takes its declared support pairs
from :func:`stablenash.oracle.screened_pairs`, the one support-pair walk,
which screens them and enforces ``budget``.
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
    DEFAULT_PARTITION_BUDGET,
    DEFAULT_TOLS,
    LIGHT_SAMPLE_COEFF,
    PROBE_REFERENCE_COEFF,
    SPLIT_RETRY_LIMIT,
    STACK_FLOATS,
    Tolerances,
)
from .core import (
    BimatrixGame,
    MixedStrategy,
    StrategyProfile,
    _clean,
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
    ResourceBudgetError,
)
from .lp import FEASIBLE, OPTIMAL, _solve_stack, solve_lp
from .oracle import (  # distance_to_set is unused here; bench/spans.py traces it by this name
    EquilibriumSet,
    distance_to_set,
    distances_to_set,
    enumerate_equilibria,
    enumerate_stack,
    screened_pairs,
)
from .support import HeavyLightSplit, heavy_light_partition, light_sample_size, ws_region

log = logging.getLogger(__name__)

MODE_PERTURBATION = "perturbation"
MODE_PLAIN = "approximation"
MODE_WELL_SUPPORTED = "well_supported"


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
    entrywise uniform [-eps, eps] perturbations, all in one
    :func:`stablenash.oracle.enumerate_stack` call, and records the worst
    distance from a perturbed-game equilibrium to the original equilibrium
    set, all of them measured by one :func:`stablenash.oracle.distances_to_set`
    call. Ties keep the earliest witness, so output is seed-deterministic.
    """
    if not 0.0 <= eps < math.inf:
        raise ParameterError("eps must be finite and non-negative")
    if trials < 0:
        raise ParameterError("trials must be non-negative")
    base = enumerate_equilibria(game, max_support, budget, tol)
    candidates = perturbation_battery(game, eps)
    rng = np.random.default_rng(seed)
    rows, cols = game.shape
    for t in range(trials):
        dR = rng.uniform(-eps, eps, size=(rows, cols))
        dC = rng.uniform(-eps, eps, size=(rows, cols))
        candidates.append((f"random:{t}", _perturbed(game, dR, dC, eps)))

    sets = enumerate_stack([g_prime for _, g_prime in candidates], max_support, budget, tol)
    found = [(label, g_prime, eq) for (label, g_prime), eqs in zip(candidates, sets)
             for eq in eqs.equilibria]
    best: Optional[Witness] = None
    if found:
        distances = distances_to_set([eq for _, _, eq in found], base).tolist()
        for (label, g_prime, eq), d in zip(found, distances):
            if best is None or d > best.distance + tol.zero:
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

    The samples move in lockstep, a chunk of m at a time, at most
    ``STACK_FLOATS`` probabilities per chunk. Each chunk is drawn as three
    blocks, in this order: the m row starting points (one Dirichlet(1, ...,
    1) call with ``size=m``), the m column starting points, then the m
    target indices. Then one :func:`raw_regrets` call checks every starting
    point, one call per bisection step checks the midpoints of the samples
    that failed it, and one final call verifies their repaired points. The
    accepted points are cleaned and validated as one stack
    (:meth:`StrategyProfile.from_rows`). Samples are returned in the order
    they were drawn.
    """
    if not tol.eq <= eps < math.inf:
        raise ParameterError("eps must be finite and at least the equilibrium tolerance")
    if count < 0 or steps < 0:
        raise ParameterError("count and steps must be non-negative")
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
    chunk = max(1, STACK_FLOATS // (rows + cols))
    for start in range(0, count, chunk):
        m = min(chunk, count - start)
        P = rng.dirichlet(np.ones(rows), size=m)
        Q = rng.dirichlet(np.ones(cols), size=m)
        target = rng.integers(len(eqs), size=m)
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
        out.extend(StrategyProfile.from_rows(P[passed], Q[passed], tol))
    return out


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """``sums[M]``, the sum of ``values[i]`` over the set bits i of M, for
    every bit mask M below 2^len(values)."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


@dataclass
class _Search:
    """One request's subset-LP state: its region's rows as arrays, its
    upper bounds, its movable entries and pinned mass, the incumbent
    ``best`` (a variation distance) and, for bound and prune once the
    singletons are solved, every subset's ``bound`` in descending ``order``
    with ``taken`` of them solved or skipped."""

    A: np.ndarray
    rel: np.ndarray
    b: np.ndarray
    ref: np.ndarray
    upper: np.ndarray
    movable: np.ndarray
    pinned: float
    best: float = 0.0
    bound: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None
    taken: int = 0


_Request = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]


def _searches(requests: list[_Request], budget: int) -> list[_Search]:
    """One :class:`_Search` per request, as :func:`max_distance` reads it.

    ref's movable entries are those of its support whose upper bound is not
    zero. This is the one place that bounds the subset LPs: it raises
    :class:`ResourceBudgetError`, before any LP, when some request's 2^k
    subsets of its k movable entries exceed ``budget``.
    """
    searches = []
    for A, rel, b, ref, zero_upper in requests:
        upper = np.full(A.shape[1], np.inf) if zero_upper is None else zero_upper
        movable = np.flatnonzero((ref != 0) & (upper > 0.0))
        if 2 ** len(movable) > budget:
            raise ResourceBudgetError(f"2^{len(movable)} subsets exceed the budget {budget}")
        pinned = float(ref[(ref != 0) & (upper <= 0.0)].sum())
        searches.append(_Search(A, rel, b, ref, upper, movable, pinned))
    return searches


def max_distance(requests: list[_Request], budget: int, tol: Tolerances) -> list[float]:
    """The largest L1 distance from each request's ``ref`` to its region,
    found exactly by bound and prune.

    A request ``(A, rel, b, ref, zero_upper)`` names the region of x >= 0
    in R^n cut out by the rows ``A x rel b``, one relation and right-hand
    side per row of the (m, n) array ``A``, and the optional upper bounds
    ``zero_upper``, each 0 (mass forbidden) or +inf. For x and ref on the
    simplex, the variation distance is the largest ref(M) - x(M) over the
    subsets M of ref's support, so the largest distance over the region is
    the largest g(M) = ref(M) - min x(M): one LP per subset, minimizing x(M) over the region
    alone. An entry whose upper bound is zero always belongs to M (x is 0
    there), so only the k movable entries are branched on. min x(M) is
    superadditive, so g(M) - pinned mass is at most the smaller of ref(M)
    and the sum of its singletons' values; this is the classic branch and
    bound for convex maximization (Falk & Soland 1969). The worst case
    stays exponential.

    The k singletons are solved first. Every solved vertex x also raises
    the incumbent to its own distance, the sum of (ref - x)^+, a feasible
    point's and so a lower bound. Then each round solves, for every
    request, at most 2k of its subsets in descending bound order whose
    bound exceeds its incumbent; the maximum is exact once no bound does.
    Each round is one :func:`_subset_round`. A request whose region is
    empty reads 0. It raises :class:`ResourceBudgetError` before any LP
    when some request's 2^k subsets exceed ``budget``, since it ranks the
    bounds of all of them.
    """
    searches = _searches(requests, budget)
    kept: dict = {}  # each region's phase-1 result, for the rounds of this call
    # the singletons, or the empty set when nothing is movable
    todo = [
        1 << np.arange(len(s.movable)) if len(s.movable) else np.zeros(1, dtype=int)
        for s in searches
    ]
    for s, (values, _) in zip(searches, _subset_round(searches, todo, tol, kept)):
        k = len(s.movable)
        gain = (values - s.pinned)[:k]  # the empty set's value when k = 0 is dropped
        s.bound = s.pinned + np.minimum(_subset_sums(s.ref[s.movable]), _subset_sums(gain))
        s.bound[0] = -np.inf  # the empty set and the singletons are solved
        s.bound[1 << np.arange(k)] = -np.inf
        s.order = np.argsort(-s.bound, kind="stable")
    while True:
        todo = []
        for s in searches:
            top = s.order[s.taken : s.taken + 2 * len(s.movable)]
            top = top[: int((s.bound[top] > s.best).sum())]  # a prefix
            s.taken += top.size
            todo.append(top)
        if not any(masks.size for masks in todo):
            return [2.0 * s.best for s in searches]
        _subset_round(searches, todo, tol, kept)


def subset_sweep(
    requests: list[_Request], budget: int, tol: Tolerances
) -> list[list[tuple[float, np.ndarray]]]:
    """Every subset LP of each request, whose vertices the estimators take
    as witness candidates.

    Requests have :func:`max_distance`'s form. Each of the 2^k subsets M of
    a request's movable entries gets the LP min x(M) over its region, as
    there, and each feasible one yields (||x - ref||_1, x) for its vertex x,
    twice the vertex's variation distance to ref. Returns one such list per
    request, in subset (bit mask) order. Their largest is
    :func:`max_distance`'s value, since the vertex of the farthest subset M
    lies at least g(M) from ref.

    Requests are keyed by their arrays' bytes, so each distinct one is
    solved once, and all of them go to one :func:`_subset_round`. It raises
    :class:`ResourceBudgetError` before any LP, as :func:`max_distance`
    does.
    """
    keys = [tuple(None if a is None else a.tobytes() for a in request) for request in requests]
    distinct = dict(zip(keys, requests))
    searches = _searches(list(distinct.values()), budget)
    todo = [np.arange(2 ** len(s.movable)) for s in searches]
    sweeps = {
        key: [(float(np.abs(x - s.ref).sum()), x) for x in vertices if x is not None]
        for key, s, (_, vertices) in zip(distinct, searches, _subset_round(searches, todo, tol))
    }
    return [sweeps[key] for key in keys]


def _subset_round(
    searches: list[_Search],
    todo: list[np.ndarray],
    tol: Tolerances,
    kept: Optional[dict] = None,
) -> list[tuple[np.ndarray, list[Optional[np.ndarray]]]]:
    """Solve the subset LPs ``todo[i]`` (bit masks over the movable entries)
    of every search i, raising its incumbent; returns, per search, each
    LP's g(M), pinned mass included, and its vertex, -inf and None when it
    is infeasible.

    Members are grouped by region shape (rows, variables), and each group
    is one :func:`stablenash.lp.solve_stack` call with per-member rows. The
    subset LPs of one region differ only in their objectives, so the stack
    runs phase 1 once per region; ``kept`` holds those results across the
    rounds of one :func:`max_distance` call.
    """
    groups: dict = {}
    for i, masks in enumerate(todo):
        if masks.size:
            groups.setdefault(searches[i].A.shape, []).append(i)
    values = [np.full(masks.size, -np.inf) for masks in todo]
    vertices: list[list[Optional[np.ndarray]]] = [[None] * masks.size for masks in todo]
    for (_, n), members in groups.items():
        sizes = [todo[i].size for i in members]
        objective = np.zeros((sum(sizes), n))
        owners = []  # (search, mask position) per member
        for i in members:
            s, masks = searches[i], todo[i]
            bits = (masks[:, None] >> np.arange(len(s.movable))) & 1
            objective[len(owners) : len(owners) + masks.size, s.movable] = -bits
            owners += [(i, j) for j in range(masks.size)]
        A, rel, b, upper = (
            np.repeat(np.stack([getattr(searches[i], f) for i in members]), sizes, axis=0)
            for f in ("A", "rel", "b", "upper")
        )
        outcomes = _solve_stack(A, rel, b, np.zeros_like(objective), upper, objective, tol, kept)
        for (i, j), obj, out in zip(owners, objective, outcomes):
            if out.status == OPTIMAL:
                s = searches[i]
                values[i][j] = s.pinned - float(s.ref @ obj) + float(out.objective_value)
                vertices[i][j] = out.solution
                farthest = float(np.maximum(s.ref - out.solution, 0.0).sum())
                s.best = max(s.best, values[i][j], farthest)
    return list(zip(values, vertices))


def _pinned_region(
    gain: np.ndarray, deviations: np.ndarray, base: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(A, rel, b)`` of the x that are eps-best against the
    opponent's fixed strategy, which stays eps-best against x: ``gain`` is
    x's payoff vector, ``deviations[j] @ x`` the opponent's payoff from
    action j and ``base @ x`` from its fixed strategy."""
    A = np.vstack((np.ones(gain.size), gain, deviations - base))
    rel = np.array(["=", ">="] + ["<="] * len(deviations))
    b = np.concatenate(([1.0, float(gain.max()) - eps], np.full(len(deviations), eps)))
    return A, rel, b


def _plain_candidates(
    game: BimatrixGame, eps: float, base: EquilibriumSet, tol: Tolerances
) -> list[tuple[str, StrategyProfile]]:
    """Far eps-equilibria with one side pinned to an exact equilibrium.

    With q fixed, both players' eps-best-response conditions are linear in
    p, so distance to each reference equilibrium can be maximized exactly
    by the subset LPs of :func:`subset_sweep`; symmetrically with p fixed.
    Equilibria sharing a side pin the same region, and the sweep solves
    each distinct request once.
    """
    R, C = game.R, game.C
    requests = []
    pinned = []  # (label, p, q) with the swept side None
    for a_idx, anchor in enumerate(base.equilibria):
        q_star = anchor.col.probs
        p_region = _pinned_region(R @ q_star, C.T, C @ q_star, eps)
        for r_idx, ref in enumerate(base.equilibria):
            requests.append((*p_region, ref.row.probs, None))
            pinned.append((f"lp:fix-q:{a_idx}:ref:{r_idx}", None, q_star))
        p_star = anchor.row.probs
        q_region = _pinned_region(p_star @ C, R, p_star @ R, eps)
        for r_idx, ref in enumerate(base.equilibria):
            requests.append((*q_region, ref.col.probs, None))
            pinned.append((f"lp:fix-p:{a_idx}:ref:{r_idx}", p_star, None))
    sweeps = subset_sweep(requests, DEFAULT_PARTITION_BUDGET, tol)
    labels, P, Q = [], [], []
    for (label, p, q), sweep in zip(pinned, sweeps):
        for _, x in sweep:
            labels.append(label)
            P.append(x if p is None else p)
            Q.append(x if q is None else q)
    return _profiles(labels, P, Q, game.shape, tol)


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
    Only the pairs that pass :func:`stablenash.oracle.screened_pairs` at eps
    reach the LPs, visited by row subset, then column subset (by size, then
    lexicographically). A side's region depends only on the opponent's
    declared support, so every pair's requests go to one
    :func:`subset_sweep` call, which solves a request made twice once.
    """
    rows, cols = game.shape
    sizes = list(itertools.product(range(1, rows + 1), range(1, cols + 1)))
    pairs = [
        (tuple(S_p), tuple(S_q))
        for _, P, Q in screened_pairs(game, sizes, eps, budget, tol)
        for S_p, S_q in zip(P.tolist(), Q.tolist())
    ]
    pairs.sort(key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]))
    CT = np.ascontiguousarray(game.C.T)
    feasible = []
    requests = []
    for S_p, S_q in pairs:
        q_region = ws_region(game.R, S_p, eps)
        q_upper = np.zeros(cols)
        q_upper[list(S_q)] = np.inf
        q_feas = _feasible_point(*q_region, q_upper, tol)
        if q_feas is None:
            continue
        p_region = ws_region(CT, S_q, eps)
        p_upper = np.zeros(rows)
        p_upper[list(S_p)] = np.inf
        p_feas = _feasible_point(*p_region, p_upper, tol)
        if p_feas is None:
            continue
        feasible.append((f"ws-lp:{S_p}:{S_q}", p_feas, q_feas))
        for ref in base.equilibria:
            requests.append((*p_region, ref.row.probs, p_upper))
            requests.append((*q_region, ref.col.probs, q_upper))
    sweeps = iter(subset_sweep(requests, DEFAULT_PARTITION_BUDGET, tol))
    labels, P, Q = [], [], []
    for label, p_feas, q_feas in feasible:
        labels.append(label)
        P.append(p_feas)
        Q.append(q_feas)
        for r_idx in range(len(base.equilibria)):
            labels.append(f"{label}:ref:{r_idx}")
            P.append(_farthest(next(sweeps), p_feas))
            Q.append(_farthest(next(sweeps), q_feas))
    return _profiles(labels, P, Q, game.shape, tol)


def _profiles(
    labels: list[str],
    P: list[np.ndarray],
    Q: list[np.ndarray],
    shape: tuple[int, int],
    tol: Tolerances,
) -> list[tuple[str, StrategyProfile]]:
    """The labelled profiles of the row pairs (P[i], Q[i]), built by one
    :meth:`StrategyProfile.from_rows` call, bitwise ``from_vectors`` of each
    pair."""
    rows, cols = shape
    built = StrategyProfile.from_rows(
        np.array(P).reshape(-1, rows), np.array(Q).reshape(-1, cols), tol
    )
    return list(zip(labels, built))


def _farthest(
    sweep: list[tuple[float, np.ndarray]], fallback: np.ndarray
) -> np.ndarray:
    """The sweep's vertex at the largest distance (the first on ties), or
    ``fallback`` when no subset LP is feasible."""
    return max(sweep, key=lambda item: item[0], default=(0.0, fallback))[1]


def _feasible_point(
    A: np.ndarray, rel: np.ndarray, b: np.ndarray, upper: np.ndarray, tol: Tolerances
) -> Optional[np.ndarray]:
    out = solve_lp(A, rel, b, np.zeros(A.shape[1]), upper, tol=tol)
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

    Searches with (i) LP distance maximization per support pattern and
    (ii) random sampling with repair; every candidate is re-verified against
    the mode's regret predicate before it can contribute. All candidates
    are checked in one :func:`raw_regrets` call and the passing ones
    measured in one :func:`stablenash.oracle.distances_to_set` call; ties
    keep the earliest witness.
    """
    if mode == "plain":
        mode = MODE_PLAIN
    if mode not in (MODE_PLAIN, MODE_WELL_SUPPORTED):
        raise ParameterError(f"unknown mode {mode!r}")
    if not 0.0 <= eps < math.inf:
        raise ParameterError("eps must be finite and non-negative")
    if trials < 0:
        raise ParameterError("trials must be non-negative")
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

    best: Optional[Witness] = None
    if candidates:
        P = np.array([profile.row.probs for _, profile in candidates])
        Q = np.array([profile.col.probs for _, profile in candidates])
        row_regret, col_regret, row_gap, col_gap = raw_regrets(game.R, game.C, P, Q, 0.0)
        if mode == MODE_WELL_SUPPORTED:
            measure = np.maximum(row_gap, col_gap)
        else:
            measure = np.maximum(row_regret, col_regret)
        passing = measure <= eps + tol.eq
        for i in np.flatnonzero(~passing).tolist():
            log.debug("discarding candidate %s with measure %.3g", candidates[i][0], measure[i])
        passed = [candidates[i] for i in np.flatnonzero(passing).tolist()]
        if passed:
            distances = distances_to_set([profile for _, profile in passed], base).tolist()
            for (label, profile), d in zip(passed, distances):
                if best is None or d > best.distance + tol.zero:
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
    if not 0.0 <= eps < math.inf:
        raise ParameterError("eps must be finite and non-negative")
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
    if not 0.0 <= alpha < math.inf:
        raise ParameterError("alpha must be finite and non-negative")
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


def _split_light(
    p: MixedStrategy, split: HeavyLightSplit, delta: float, tol: Tolerances
) -> tuple[list[int], np.ndarray]:
    """The light indices of ``split`` and p's probabilities there, checked
    to carry the 8*delta mass a 3*delta split needs. That mass is the
    entries' own sum, the one the split divides; ``1 - split.beta`` can
    round to the other side of the threshold."""
    light = list(split.light)
    if not light:
        raise PreconditionError("light part is empty")
    light_probs = p.probs[light]
    light_mass = float(light_probs.sum())
    if light_mass < 8.0 * delta - tol.zero:
        raise PreconditionError(
            f"light mass {light_mass:.3g} below the 8*delta threshold {8 * delta:.3g}"
        )
    return light, light_probs


def _coin_masses(light_probs: np.ndarray, coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The heads and tails masses of each row of ``coins``, each bitwise
    ``light_probs[c].sum()`` over its class ``c``.

    A running sum over the row, with the other class's entries at +0.0,
    adds the class in index order, which is how numpy sums fewer than 8
    entries. A class of 8 or more is summed pairwise, so the rows with one
    take it as a row sum of the class alone, one group per heads count.
    """
    heads = light_probs * coins
    up = np.cumsum(heads, axis=1)[:, -1]
    down = np.cumsum(light_probs - heads, axis=1)[:, -1]
    n_heads = coins.sum(axis=1)
    long = np.flatnonzero((n_heads >= 8) | (light_probs.size - n_heads >= 8))
    if long.size:
        # each row's heads first, then its tails, both in index order
        ranked = light_probs[np.argsort(1 - coins[long], axis=1, kind="stable")]
        for j in set(n_heads[long].tolist()):
            rows = n_heads[long] == j
            up[long[rows]] = ranked[rows, :j].sum(axis=1)
            down[long[rows]] = ranked[rows, j:].sum(axis=1)
    return up, down


def _split_coins(
    light_probs: np.ndarray,
    delta: float,
    trials: int,
    rng: np.random.Generator,
    tol: Tolerances,
    retries: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fair coins for the light entries of ``trials`` independent trials.

    The coins come in attempt rounds: each round gives one row of coins to
    every trial whose rows so far were all illegal, in trial order; a row
    is legal when both classes can carry the transfer. After ``retries``
    rounds the trials still pending are degenerate. Returns
    ``(coins, up_mass, down_mass)`` for the trials with a legal row, in
    trial order: their coins ``(k, light)`` and their heads and tails
    masses ``(k,)`` (:func:`_coin_masses`).

    numpy draws each fair coin from one 32-bit output of the generator, so
    rows drawn in any blocks are the next rows of one coin stream. The
    rounds are therefore replayed rather than drawn: the generator's state
    is saved, one block of ``2 * trials`` rows (``trials`` for one round)
    is drawn and tested with one :func:`_coin_masses` call, and it doubles
    only if the replay runs past its end. Round r takes the next
    ``pending`` rows of the block, its legal rows going to its pending
    trials in trial order, and after at most ``retries`` rounds the
    generator is rewound to the saved state and redraws exactly the rows
    the rounds took. Coins, masses, trial order and the generator's
    final state are those of drawing round by round. Unless a trial runs
    out of rounds, the trials take the first ``trials`` legal rows of the
    stream and leave the generator where trials drawing one after another,
    attempt by attempt, would; only which trial takes which row differs.
    """
    def block(rows):
        coins = rng.integers(0, 2, size=(rows, light_probs.size))
        up, down = _coin_masses(light_probs, coins)
        # legality: the tails class must be able to shed 3*delta
        return coins, up, down, (up > tol.zero) & (down >= 3.0 * delta + tol.zero)

    saved = rng.bit_generator.state
    coins, up, down, legal = block(min(retries, 2) * trials)
    taken = np.full(trials, -1)  # the row of each trial's legal draw
    pending = np.arange(trials)
    used = 0
    for _ in range(retries):
        if not pending.size:
            break
        end = used + pending.size
        if end > len(coins):
            more = block(max(end, 2 * len(coins)) - len(coins))
            coins, up, down, legal = map(np.concatenate, zip((coins, up, down, legal), more))
        ok = legal[used:end]
        taken[pending[ok]] = used + np.flatnonzero(ok)
        pending = pending[~ok]
        used = end
    rng.bit_generator.state = saved
    rng.integers(0, 2, size=(used, light_probs.size))  # leaves the generator where the rounds do
    rows = taken[taken >= 0]
    return coins[rows], up[rows], down[rows]


def _split_deviations(
    probs: np.ndarray,
    light: list[int],
    light_probs: np.ndarray,
    coins: np.ndarray,
    up_mass: np.ndarray,
    down_mass: np.ndarray,
    delta: float,
    tol: Tolerances,
) -> np.ndarray:
    """The 3*delta split deviation of ``probs`` for each legal coin draw of
    :func:`_split_coins`, one cleaned row per draw (truncated, not
    renormalized, as :meth:`MixedStrategy.from_probs` with
    ``renormalize=False``).

    Each row's moved mass is checked to be 3*delta, raising
    :class:`CertificateError` otherwise.
    """
    V = np.tile(probs, (len(coins), 1))
    V[:, light] += (
        3.0 * delta * light_probs * (coins / up_mass[:, None] - (1 - coins) / down_mass[:, None])
    )
    V = _clean(V, tol, renormalize=False)
    moved = 0.5 * np.abs(probs - V).sum(axis=1)
    wrong = np.flatnonzero(np.abs(moved - 3.0 * delta) > 10.0 * tol.zero)
    if wrong.size:
        raise CertificateError(
            f"split deviation moved {moved[wrong[0]]:.3g} instead of {3 * delta:.3g}"
        )
    return V


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
    a single light atom the construction always fails. This is the one-trial
    view of the stacked kernels that :func:`random_split_probe` runs over
    all its trials: each attempt draws one light-sized row of coins, as a
    lone trial's attempt rounds do.
    """
    if not 0.0 < delta < math.inf:
        raise ParameterError("delta must be finite and positive")
    light, light_probs = _split_light(p, split, delta, tol)
    draw = _split_coins(light_probs, delta, 1, np.random.default_rng(seed), tol, retries)
    if not len(draw[0]):
        raise DegenerateInputError(
            f"no legal coin split after {retries} draws (light part too small)"
        )
    (v,) = _split_deviations(p.probs, light, light_probs, *draw, delta, tol)
    return MixedStrategy(v, tuple(np.flatnonzero(v).tolist()))


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
    reference once. A side is concentrated when its light part is empty
    or its entries sum to less than 8*delta (less ``tol.zero``), the sum
    :func:`random_split_deviation` checks. The side's trials then take
    their coins for the 3*delta split together (:func:`_split_coins`): in
    attempt rounds, each giving a row to every trial still without a legal
    draw, replayed from one block and then redrawn after a rewind, so the
    generator ends where drawing round by round leaves it. The trials take
    the legal draws that trials drawing one after another would take,
    unless a trial runs out of its ``SPLIT_RETRY_LIMIT`` attempts, and the
    report does not depend on which trial took which draw.
    The legal deviations of all trials are built, cleaned and checked (each
    row's moved mass) as one stack, and the probe counts
    violations of (a) the payoff-drift bound over every pure
    payoff-difference direction (their maximum is the spread of the drift
    vector, so the full n^2 family is covered exactly) and (b) the distance
    floor against the reference profiles, defaulting to the enumerated
    equilibria. The references are far fewer than the theoretical family
    size bound, whose log is reported for context; the probe samples the
    construction, it does not reproduce the full counting argument.
    """
    if not (0.0 < eps < math.inf and 0.0 < delta < math.inf):
        raise ParameterError("eps and delta must be finite and positive")
    if trials < 0:
        raise ParameterError("trials must be non-negative")
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
        # The partition and the reference distances depend only on the
        # strategy, so all trials share them; only the coins differ.
        split = heavy_light_partition(strategy, S, min(delta, 0.125), tol)
        # the light part's own sum decides, as it does for one deviation
        try:
            light, light_probs = _split_light(strategy, split, delta, tol)
            concentrated = 0
        except PreconditionError:
            concentrated = trials
        deviations = 0
        drift = np.zeros(0)
        distance_violations = 0
        if trials > concentrated:
            draws = _split_coins(
                light_probs, delta, trials - concentrated, rng, tol, SPLIT_RETRY_LIMIT
            )
            deviations = len(draws[0])
        if deviations:
            V = _split_deviations(strategy.probs, light, light_probs, *draws, delta, tol)
            # one vector @ matrix per row, as a lone deviation is measured
            shift = ((V - strategy.probs)[:, None, :] @ payoff)[:, 0, :]
            drift = shift.max(axis=1) - shift.min(axis=1)
            refs_probs = np.array([ref.probs for ref in refs]).reshape(len(refs), n)
            floors = 0.5 * np.abs(strategy.probs - refs_probs).sum(axis=1)
            gaps = 0.5 * np.abs(V[:, None, :] - refs_probs).sum(axis=2)
            distance_violations = int((gaps <= floors - delta).any(axis=1).sum())
        return {
            "trials": trials,
            "sample_size": S,
            "concentrated": concentrated,
            "degenerate": trials - concentrated - deviations,
            "deviations": deviations,
            "payoff_violations": int((drift > eps + tol.zero).sum()),
            "distance_violations": distance_violations,
            "max_payoff_drift": float(drift.max(initial=0.0)),
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
