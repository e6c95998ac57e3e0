"""Linear programs as arrays, and a dense two-phase simplex.

The solver is a primal tableau simplex with Bland's rule throughout, which
guarantees termination on the degenerate desk-scale problems this library
generates; robustness is preferred over speed here. An LP is given as
arrays: its rows with their relations and right-hand sides, finite lower
and possibly infinite upper bounds on its variables, and an objective to
maximize. Equality constraints are reduced to two inequalities, lower
bounds are shifted out and finite upper bounds become rows.

:func:`solve_lp` solves one LP and :func:`solve_stack` pivots a stack of
them in lockstep (after Gurung & Ray, "Simultaneous solving of batched
linear programs on a GPU", ICPE 2019), every array with one leading entry
per member. Both check their arrays with one validator, standardize them
with one tableau builder and verify each solution with one slack rule;
only the pivot loops differ, and they pivot with the same arithmetic. Each
member's tableau is padded to the stack's shape, and the padding never
changes a member's pivots, so every member's outcome is bitwise that of
:func:`solve_lp` on its own arrays. A stack of one costs more than
:func:`solve_lp`, so a caller holding a single LP calls :func:`solve_lp`.
:class:`LinearProgram` builds one LP row by row, with free variables and a
minimized objective if need be, and solves it with :func:`solve_lp`.

Members whose rows, relations, right-hand sides and bounds are the same
bytes form one region. Phase 1 never reads the objective, so the stack runs
it once per region and starts each member's phase 2 from a copy of the
region's tableau and basis, padded anew: every member's outcome stays
bitwise what it would be with a phase 1 of its own. The subset LPs of a
distance maximization differ only in their objectives, so most of their
phase-1 work goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULT_TOLS, STACK_FLOATS, Tolerances
from .errors import SolverError, ValidationError

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
_SIGNS = np.array([1.0, -1.0])  # a row as it is, then negated


@dataclass
class LinearProgram:
    """Objective plus linear constraints over bounded variables, built row
    by row and solved with :func:`solve_lp` by :meth:`solve`.

    Constraints are triples ``(coefficients, relation, rhs)`` with relation
    one of ``<=``, ``=``, ``>=``. Default variable bounds are ``[0, +inf)``;
    a lower bound of ``-inf`` makes the variable free. ``objective=None``
    requests a pure feasibility solve.
    """

    num_vars: int
    objective: Optional[np.ndarray] = None
    maximize: bool = True
    constraints: list[tuple[np.ndarray, str, float]] = field(default_factory=list)
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValidationError("linear program needs at least one variable")
        if self.lower is None:
            self.lower = np.zeros(self.num_vars)
        else:
            self.lower = np.asarray(self.lower, dtype=float).reshape(-1)
        if self.upper is None:
            self.upper = np.full(self.num_vars, np.inf)
        else:
            self.upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if self.lower.size != self.num_vars or self.upper.size != self.num_vars:
            raise ValidationError("bound vectors do not match num_vars")

    def add_constraint(self, coeffs, relation: str, rhs: float) -> None:
        c = np.asarray(coeffs, dtype=float).reshape(-1)
        if c.size != self.num_vars:
            raise ValidationError(
                f"constraint has {c.size} coefficients, expected {self.num_vars}"
            )
        if relation not in _RELATIONS:
            raise ValidationError(f"unknown relation {relation!r}")
        if not (np.isfinite(c).all() and np.isfinite(rhs)):
            raise ValidationError("constraint contains non-finite entries")
        self.constraints.append((c, relation, float(rhs)))

    def set_objective(self, coeffs, maximize: bool = True) -> None:
        c = np.asarray(coeffs, dtype=float).reshape(-1)
        if c.size != self.num_vars:
            raise ValidationError("objective length does not match num_vars")
        self.objective = c
        self.maximize = maximize

    def solve(self, tol: Tolerances = DEFAULT_TOLS) -> LpOutcome:
        """:func:`solve_lp` on this LP, the solution and objective value in
        its own variables. A minimized objective is negated. A free variable
        x becomes two columns x+ and x- in [0, inf), x = x+ - x-, in its
        place, and a cap on it a ``<=`` row after the constraints."""
        n = self.num_vars
        rows = [np.asarray(row, dtype=float).reshape(-1) for row, _, _ in self.constraints]
        c = None if self.objective is None else np.asarray(self.objective, dtype=float)
        if any(v.size != n for v in rows + ([] if c is None else [c.reshape(-1)])):
            raise ValidationError("constraint or objective length does not match num_vars")
        A = np.array(rows).reshape(-1, n)
        relations = [rel for _, rel, _ in self.constraints]
        rhs = np.array([b for _, _, b in self.constraints], dtype=float)
        objective = c if c is None or self.maximize else -c
        lower, upper = self.lower, self.upper
        free = lower == -np.inf
        split = None
        if free.any():
            reps = np.where(free, 2, 1)
            split = np.repeat(np.eye(n), reps, axis=1)
            split[:, np.cumsum(reps)[free] - 1] *= -1.0
            capped = free & (upper != np.inf)
            A = np.vstack((A, np.eye(n)[capped])) @ split
            relations += [LESS_EQUAL] * int(capped.sum())
            rhs = np.concatenate((rhs, upper[capped]))
            lower = np.repeat(np.where(free, 0.0, lower), reps)
            upper = np.repeat(np.where(free, np.inf, upper), reps)
            objective = None if c is None else objective @ split
        out = solve_lp(A, relations, rhs, lower, upper, objective, tol)
        if out.solution is None:
            return out
        x = out.solution if split is None else split @ out.solution
        value = None if c is None else float(c @ x)
        return LpOutcome(out.status, x, value)


@dataclass(frozen=True)
class LpOutcome:
    """Solve result; ``solution`` is in the original variable space."""

    status: str
    solution: Optional[np.ndarray] = None
    objective_value: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)


def _validate_stack(A, relations, rhs, lower, upper, objective):
    """A stack's arrays as floats, with its relations as indices into
    ``_RELATIONS``, once they pass every check: ``A`` is (members, m, n),
    ``relations`` and ``rhs`` are (members, m), ``lower``, ``upper`` and
    ``objective`` (None for a feasibility solve) are (members, n), n >= 1;
    every relation is known, every row, lower bound and objective entry is
    finite, and no upper bound is NaN or below its lower bound."""
    A = np.asarray(A, dtype=float)
    relations = np.asarray(relations, dtype=str)
    rhs = np.asarray(rhs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if objective is not None:
        objective = np.asarray(objective, dtype=float)
    shapes_ok = lower.ndim == 2 and upper.shape == lower.shape
    if not shapes_ok or objective is not None and objective.shape != lower.shape:
        raise ValidationError("lower, upper and objective do not match in shape")
    members, n = lower.shape
    if n < 1:
        raise ValidationError("linear program needs at least one variable")
    rows_ok = A.ndim == 3 and A.shape[::2] == (members, n)
    if not (rows_ok and relations.shape == rhs.shape == A.shape[:2]):
        raise ValidationError("rows, relations and rhs do not match the variables")
    eq, ge = relations == EQUAL, relations == GREATER_EQUAL
    known = eq | ge | (relations == LESS_EQUAL)
    if not known.all():
        raise ValidationError(f"unknown relation {str(relations[~known][0])!r}")
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValidationError("constraint contains non-finite entries")
    if not np.isfinite(lower).all():
        raise ValidationError("lower bounds must be finite")
    if np.isnan(upper).any():
        raise ValidationError("bounds contain NaN")
    if (lower > upper).any():
        raise ValidationError("a lower bound exceeds its upper bound")
    if objective is not None and not np.isfinite(objective).all():
        raise ValidationError("objective contains non-finite entries")
    return A, eq + 2 * ge, rhs, lower, upper, objective


def _validate(A, relations, rhs, lower, upper, objective):
    """One LP's arrays, checked as a stack of one member."""
    arrays = (A, relations, rhs, lower, upper, objective)
    return _validate_stack(*(None if a is None else np.asarray(a)[None] for a in arrays))


def _tableau(A, code, b, lower, upper):
    """Standardize a stack of LPs for phase 1.

    Member k's rows ``A[k]``, ``b[k]`` with relations ``code[k]`` (indices
    into ``_RELATIONS``) become ``<=`` rows over y = x - ``lower[k]`` >= 0:
    ``c <= b`` for a ``<=`` or ``=`` row, then ``-c <= -b`` for a ``>=`` or
    ``=`` row, then ``y_j <= upper - lower`` per finite upper bound. A row
    with a negative right-hand side is flipped, with a surplus column in
    place of its slack and an artificial basic variable. Returns the
    tableaus (the rows, then a zero reduced-cost row; the decision, slack
    and artificial columns, then the rhs), their bases, each member's
    phase-1 infeasibility scale and its own standardized row count; rows
    and artificial columns past a member's own are all zero.
    """
    K, n = lower.shape
    # a member's own rows, its row copies kept in order, fill the first m0
    # of its R; the rows of its finite upper bounds follow them
    keep = code[:, :, None] != np.array([2, 0])
    finite = np.isfinite(upper)
    m0 = keep.sum(axis=(1, 2))
    height = m0 + finite.sum(axis=1)
    R = int(height.max())
    n_real = n + R
    i = np.arange(R)
    own = i < m0[:, None]
    S = np.zeros((K, R, n))
    S[own] = (A[:, :, None] * _SIGNS[:, None])[keep]
    B = np.zeros((K, R))
    B[own] = (b[:, :, None] * _SIGNS)[keep]

    # each right-hand side less its row's 1-D dot with the lower bounds;
    # with at most one nonzero lower bound that dot is one exact product,
    # but for a zero's sign, which the abs below drops, so those members
    # are shifted at once
    dot = (S * lower[:, None, :]).sum(axis=2)
    for k in np.flatnonzero((lower != 0).sum(axis=1) > 1):
        dot[k, : m0[k]] = [float(row @ lower[k]) for row in S[k, : m0[k]]]
    B -= dot
    kk, jj = np.nonzero(finite)
    at = m0[kk] + (np.cumsum(finite, axis=1) - 1)[kk, jj]
    S[kk, at, jj] = 1.0
    B[kk, at] = upper[kk, jj] - lower[kk, jj]
    neg = B < 0
    B = np.abs(B)
    flip = np.where(neg, -1.0, 1.0)

    T = np.zeros((K, R + 1, n_real + int(neg.sum(axis=1).max()) + 1))
    T[:, :R, :n] = S * flip[:, :, None]
    T[:, i, n + i] = flip
    # each row's basic variable: its slack, or its artificial if flipped
    basis = np.where(neg, n_real - 1 + np.cumsum(neg, axis=1), n + i)
    T[np.arange(K)[:, None], i, basis] = 1.0
    T[:, :R, -1] = B
    return T, basis, np.maximum(1.0, B.max(axis=1, initial=0.0)), height


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    # explicit unit column kills accumulated roundoff
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, n_cols: int, tol: float) -> str:
    """Pivot until optimal or unbounded.

    T layout: m constraint rows then the reduced-cost row; columns are the
    n_cols decision columns then the rhs. Entering column is the lowest
    improving index, leaving row breaks ratio ties by lowest basic variable
    index (Bland's rule, so cycling cannot occur).
    """
    m = T.shape[0] - 1
    while True:
        improving = np.nonzero(T[-1, :n_cols] < -tol)[0]
        if improving.size == 0:
            return OPTIMAL
        entering = int(improving[0])
        col = T[:m, entering]
        pos = np.nonzero(col > tol)[0]
        if pos.size == 0:
            return UNBOUNDED
        ratios = T[pos, -1] / col[pos]
        tied = pos[ratios <= ratios.min() + tol]
        leaving = int(tied[np.argmin(basis[tied])])
        _pivot(T, basis, leaving, entering)


def _price_out(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Install the reduced-cost row for ``cost``, priced on the current basis."""
    m = T.shape[0] - 1
    T[-1, :] = 0.0
    T[-1, : cost.size] = -cost
    for i in range(m):
        cb = cost[basis[i]] if basis[i] < cost.size else 0.0
        if cb != 0.0:
            T[-1, :] += cb * T[i, :]


def solve_lp(
    A,
    relations,
    rhs,
    lower,
    upper,
    objective=None,
    tol: Tolerances = DEFAULT_TOLS,
) -> LpOutcome:
    """Maximize ``objective @ x`` subject to ``A[i] @ x`` ``relations[i]``
    ``rhs[i]`` (``<=``, ``=`` or ``>=``) for each row i of the (m, n) ``A``
    and ``lower <= x <= upper``, the lower bounds finite.

    With ``objective`` None it is a feasibility solve, ``feasible`` or
    ``infeasible``; else the status is ``optimal``, ``infeasible`` or
    ``unbounded``, exact up to the lp tolerance. The arrays are validated
    before any pivot, and a returned solution is verified against every
    row and bound. :class:`LinearProgram` adds free variables and minimizing.
    """
    A, code, rhs, lower, upper, objective = _validate(A, relations, rhs, lower, upper, objective)
    eps = tol.lp
    T, basis, scale, _ = _tableau(A, code, rhs, lower, upper)
    T, basis = T[0], basis[0]
    m, n = T.shape[0] - 1, lower.shape[1]
    n_real = n + m  # decision + slack columns

    if T.shape[1] - 1 > n_real:  # artificials, so phase 1
        cost = np.zeros(T.shape[1] - 1)
        cost[n_real:] = -1.0  # maximize minus the artificial mass
        _price_out(T, basis, cost)
        if _bland_iterate(T, basis, cost.size, eps) != OPTIMAL:
            raise SolverError("phase 1 cannot be unbounded")
        if -T[-1, -1] > eps * scale[0]:
            return LpOutcome(INFEASIBLE)
        # Drive leftover zero-value artificials out of the basis. A row whose
        # basic variable is an artificial holds that artificial's own surplus
        # column at exactly -1 (the two start as exact negatives and stay so
        # through every pivot), and Tolerances keeps tol.lp below 1, so every
        # such row offers a real pivot, which changes only that row's basic
        # variable.
        for i in np.flatnonzero(basis >= n_real):
            real = np.nonzero(np.abs(T[i, :n_real]) > eps)[0]
            _pivot(T, basis, i, int(real[0]))
        T = np.concatenate((T[:, :n_real], T[:, -1:]), axis=1)

    if objective is not None:
        cost = np.zeros(n_real)
        cost[:n] = objective[0]
        _price_out(T, basis, cost)
        if _bland_iterate(T, basis, n_real, eps) == UNBOUNDED:
            return LpOutcome(UNBOUNDED)
    y = np.zeros(n_real)
    inside = basis < n_real
    y[basis[inside]] = T[:m][inside, -1]
    x = lower[0] + y[:n]
    _verify_stack(A, code, rhs, x[None], lower, upper, eps)
    if objective is None:
        return LpOutcome(FEASIBLE, x)
    return LpOutcome(OPTIMAL, x, float(objective[0] @ x))


def _pivot_stack(
    T: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> None:
    """:func:`_pivot` on every member k of the stack at (rows[k], cols[k]),
    with the same arithmetic."""
    k = np.arange(T.shape[0])
    T[k, rows] /= T[k, rows, cols][:, None]
    colvals = T[k, :, cols]
    colvals[k, rows] = 0.0
    T -= colvals[:, :, None] * T[k, rows][:, None, :]
    T[k, :, cols] = 0.0
    T[k, rows, cols] = 1.0
    basis[k, rows] = cols


def _bland_stack(T: np.ndarray, basis: np.ndarray, n_cols: int, tol: float) -> np.ndarray:
    """:func:`_bland_iterate` on every member in lockstep; True where a
    member ends unbounded. A member leaves the lockstep once it stops."""
    m = T.shape[1] - 1
    unbounded = np.zeros(T.shape[0], dtype=bool)
    live = np.arange(T.shape[0])
    W, Wb = T, basis
    while live.size:
        improving = W[:, -1, :n_cols] < -tol
        optimal = ~improving.any(axis=1)
        entering = improving.argmax(axis=1)
        col = W[np.arange(live.size), :m, entering]
        pos = col > tol
        stuck = ~optimal & ~pos.any(axis=1)
        done = optimal | stuck
        if done.any():
            T[live[done]] = W[done]
            basis[live[done]] = Wb[done]
            unbounded[live[stuck]] = True
            go = ~done
            live, W, Wb = live[go], W[go], Wb[go]
            entering, col, pos = entering[go], col[go], pos[go]
            if not live.size:
                break
        ratios = np.full(pos.shape, np.inf)
        np.divide(W[:, :m, -1], col, out=ratios, where=pos)
        tied = pos & (ratios <= ratios.min(axis=1, keepdims=True) + tol)
        # the lowest basic index among the tied rows; the others rank last
        leaving = np.where(tied, Wb, np.iinfo(Wb.dtype).max).argmin(axis=1)
        _pivot_stack(W, Wb, leaving, entering)
    return unbounded


def _price_out_stack(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """:func:`_price_out` on every member, ``cost`` holding one row each:
    the same row-by-row sums, over the rows whose basic variable has a
    nonzero cost in some member."""
    width = cost.shape[1]
    k = np.arange(T.shape[0])[:, None]
    cb = np.where(basis < width, cost[k, np.minimum(basis, width - 1)], 0.0)
    T[:, -1, :] = 0.0
    T[:, -1, :width] = -cost
    for i in np.flatnonzero((cb != 0.0).any(axis=0)):
        priced = np.flatnonzero(cb[:, i] != 0.0)
        T[priced, -1, :] += cb[priced, i, None] * T[priced, i, :]


def solve_stack(
    A,
    relations,
    rhs,
    lower,
    upper,
    objective,
    tol: Tolerances = DEFAULT_TOLS,
) -> list[LpOutcome]:
    """Maximize a stack of LPs in lockstep.

    Member k has the rows ``A[k]`` (an (m, n) array), ``relations[k]`` and
    ``rhs[k]``, the bounds ``lower[k]`` and ``upper[k]`` and the objective
    ``objective[k]``: ``A`` is (members, m, n), ``relations`` and ``rhs``
    are (members, m), and ``lower``, ``upper`` and ``objective`` are
    (members, n), with finite lower bounds. Member k's outcome
    (``optimal``, ``infeasible`` or ``unbounded``) is bitwise that of
    ``solve_lp(A[k], relations[k], rhs[k], lower[k], upper[k],
    objective[k], tol)``: the same validation, standardization, entering
    and ratio-tie rules, pivot arithmetic, phase-1 scale test, drive-out
    and verification.

    Members whose rows, relations, right-hand sides and bounds have the
    same bytes form one region, and phase 1 runs once per region: it never
    reads the objective, so every member of a region would repeat the same
    pivots. Each member then runs phase 2 from a copy of its region's
    phase-1 tableau and basis. Regions are keyed by bytes, so ``-0.0`` and
    ``0.0`` never share one.

    The tableaus are padded to one shape. A member with fewer standardized
    rows (fewer equalities or finite upper bounds) gets all-zero rows after
    its own, each with its own slack basic at 0; one with fewer
    artificials gets all-zero artificial columns. No padding can enter,
    leave or price a pivot, so a region's phase-1 result may be padded
    anew for phase 2. Every input is validated before any pivot, and every
    solution is verified against its member's own rows and bounds. A stack
    is solved in chunks whose tableaus, working copies and pivot
    temporaries together hold fewer than ``STACK_FLOATS`` floats.
    """
    return _solve_stack(A, relations, rhs, lower, upper, objective, tol, None)


def _solve_stack(A, relations, rhs, lower, upper, objective, tol: Tolerances, kept):
    """:func:`solve_stack`, keeping each region's phase-1 result in the dict
    ``kept`` when one is given, so that later calls with the same dict reuse
    it (:func:`stablenash.stability.max_distance` keeps one for the length
    of its call). With ``kept`` None a result lives only while this call
    still has members of its region."""
    # a stack always has objectives: None fails the shape check as an array
    A, code, rhs, lower, upper, objective = _validate_stack(
        A, relations, rhs, lower, upper, np.asarray(objective, dtype=float)
    )
    members, n = lower.shape

    # a member's region: its shape and the bytes of its rows, relations,
    # right-hand sides and bounds
    flat = np.concatenate((A.reshape(members, A.shape[1] * n), code, rhs, lower, upper), axis=1)
    keys = [(A.shape[1], row.tobytes()) for row in flat]
    regions = {} if kept is None else kept
    last = {key: k for k, key in enumerate(keys)}

    # a member's standardized rows: one per inequality, two per equality,
    # one per finite upper bound
    height = A.shape[1] + (code == 1).sum(axis=1) + np.isfinite(upper).sum(axis=1)
    # a lockstep pass holds a chunk's tableau, a working copy and a pivot's
    # temporary at once; a quarter of STACK_FLOATS each keeps them below it
    top = int(height.max(initial=0))
    chunk = max(1, STACK_FLOATS // 4 // ((top + 1) * (n + 2 * top + 1)))
    out: list[LpOutcome] = []
    for start in range(0, members, chunk):
        part = slice(start, start + chunk)
        out += _solve_chunk(
            A[part], code[part], rhs[part], lower[part], upper[part], objective[part],
            keys[part], regions, tol.lp,
        )
        if kept is None:
            for key in keys[part]:
                if last[key] < start + chunk:
                    regions.pop(key, None)
    return out


class _PhaseOne(NamedTuple):
    """Phase-1 results of a stack of regions: the tableaus ``T`` with the
    artificial columns dropped (the rows, then the reduced-cost row; the
    decision and slack columns, then the rhs), their ``basis``, which
    regions are ``feasible`` and each one's own standardized row count
    ``height``."""

    T: np.ndarray
    basis: np.ndarray
    feasible: np.ndarray
    height: np.ndarray


def _phase_one(A, code, b, lower, upper, eps: float) -> _PhaseOne:
    """Run phase 1 in lockstep on the :func:`_tableau` of a stack of
    regions; each region's tableau rows past its own are padding."""
    T, basis, scale, height = _tableau(A, code, b, lower, upper)
    K, n_real = len(T), lower.shape[1] + T.shape[1] - 1
    feasible = np.ones(K, dtype=bool)
    if T.shape[2] - 1 > n_real:
        # a member without artificials is optimal at once in phase 1 and
        # left as it was, so phase 1 runs on the whole stack in place
        cost = np.zeros((K, T.shape[2] - 1))
        cost[:, n_real:] = -1.0  # maximize minus the artificial mass
        _price_out_stack(T, basis, cost)
        if _bland_stack(T, basis, T.shape[2] - 1, eps).any():
            raise SolverError("phase 1 cannot be unbounded")
        feasible = ~(-T[:, -1, -1] > eps * scale)
        # drive leftover zero-value artificials out, row by row as solve_lp
        # (a pivot changes only its own row's basic variable); as there,
        # every such row offers a real pivot
        left = feasible[:, None] & (basis >= n_real)
        for r in np.flatnonzero(left.any(axis=0)):
            need = np.flatnonzero(left[:, r])
            real = np.abs(T[need, r, :n_real]) > eps
            V, Vb = T[need], basis[need]
            _pivot_stack(V, Vb, np.full(need.size, r), real.argmax(axis=1))
            T[need], basis[need] = V, Vb
        T = np.concatenate((T[:, :, :n_real], T[:, :, -1:]), axis=2)
    return _PhaseOne(T, basis, feasible, height)


def _solve_chunk(
    A, code, b, lower, upper, objective, keys, regions, eps: float
) -> list[LpOutcome]:
    """One chunk of :func:`solve_stack`: phase 1 for the regions of
    ``keys`` not yet in ``regions`` (a dict from a key to its
    :class:`_PhaseOne` and index there), then phase 2 for every feasible
    member from its region's result, padded to the chunk's shape."""
    K, n = lower.shape
    new: dict = {}  # a region not yet solved, and its first member here
    for k, key in enumerate(keys):
        if key not in regions:
            new.setdefault(key, k)
    if new:
        first = list(new.values())
        result = _phase_one(A[first], code[first], b[first], lower[first], upper[first], eps)
        regions.update((key, (result, j)) for j, key in enumerate(new))
    records = [regions[key] for key in keys]
    live = np.array([k for k, (ph, j) in enumerate(records) if ph.feasible[j]], dtype=int)

    # each live member's phase-1 tableau, padded to this chunk's rows: the
    # rows and columns past a region's own are padding wherever it was solved
    blocks: dict = {}  # id of a _PhaseOne -> (it, positions in live, its indices)
    for pos, k in enumerate(live.tolist()):
        ph, j = records[k]
        _, at, idx = blocks.setdefault(id(ph), (ph, [], []))
        at.append(pos)
        idx.append(j)
    R = max((int(ph.height[idx].max()) for ph, _, idx in blocks.values()), default=0)
    n_real = n + R
    T = np.zeros((live.size, R + 1, n_real + 1))
    i = np.arange(R)
    T[:, i, n + i] = 1.0
    basis = np.tile(np.arange(n, n_real), (live.size, 1))
    for ph, pos, idx in blocks.values():
        r = min(ph.basis.shape[1], R)
        T[pos, :r, : n + r] = ph.T[idx, :r, : n + r]
        T[pos, :r, -1] = ph.T[idx, :r, -1]
        basis[pos, :r] = ph.basis[idx, :r]

    cost = np.zeros((live.size, n_real))
    cost[:, :n] = objective[live]
    _price_out_stack(T, basis, cost)
    unbounded = _bland_stack(T, basis, n_real, eps)

    y = np.zeros((live.size, n_real))
    kb, ib = np.nonzero(basis < n_real)
    y[kb, basis[kb, ib]] = T[kb, ib, -1]
    X = lower[live] + y[:, :n]
    solved = ~unbounded
    mine = live[solved]
    _verify_stack(A[mine], code[mine], b[mine], X[solved], lower[mine], upper[mine], eps)

    out = [LpOutcome(INFEASIBLE)] * K
    for j, k in enumerate(live):
        if unbounded[j]:
            out[k] = LpOutcome(UNBOUNDED)
        else:
            out[k] = LpOutcome(OPTIMAL, X[j], float(objective[k] @ X[j]))
    return out


def _verify_stack(
    A: np.ndarray,
    code: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    eps: float,
) -> None:
    """Check every row of ``X``, each against its own rows ``A``, ``code``
    and ``b`` and bounds ``lower`` and ``upper``, with a slack of 10 eps
    max(1, max|x|) per unit of max(1, max|row|, |rhs|), and per unit for a
    bound; raises :class:`SolverError` on the first violation."""
    scale = np.maximum(1.0, np.abs(X).max(axis=1, initial=0.0))
    slack = 10.0 * eps * scale
    v = np.einsum("krn,kn->kr", A, X)
    budget = slack[:, None] * np.maximum(np.maximum(1.0, np.abs(A).max(axis=2)), np.abs(b))
    bad = np.where(
        code == 0, v > b + budget, np.where(code == 2, v < b - budget, np.abs(v - b) > budget)
    )
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise SolverError(f"constraint violated: {v[k, i]} {_RELATIONS[code[k, i]]} {b[k, i]}")
    if (X < lower - slack[:, None]).any() or (X > upper + slack[:, None]).any():
        raise SolverError("bound violated in LP solution")
