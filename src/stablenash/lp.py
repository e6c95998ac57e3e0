"""Solver-neutral linear programs and a dense two-phase simplex.

The solver is a primal tableau simplex with Bland's rule throughout, which
guarantees termination on the degenerate desk-scale problems this library
generates; robustness is preferred over speed here. Equality constraints are
reduced to two inequalities, free variables are split into differences of
non-negative variables, and finite lower bounds are shifted out.

There are two paths over the same algorithm. :func:`solve_lp` solves one
:class:`LinearProgram`. :func:`solve_stack` pivots a stack of LPs in
lockstep (after Gurung & Ray, "Simultaneous solving of batched linear
programs on a GPU", ICPE 2019): the members share one constraint system and
differ in their variable bounds and objectives, as the sign partitions of
one distance sweep do. Each member's standardized tableau is padded to the
stack's shape, and the padding never changes a member's pivots, so every
member's outcome is bitwise that of :func:`solve_lp` on the same LP. A
stack of one costs more than :func:`solve_lp`, so callers holding a single
LP keep calling it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


@dataclass
class LinearProgram:
    """Objective plus linear constraints over bounded variables.

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


@dataclass(frozen=True)
class LpOutcome:
    """Solve result; ``solution`` is in the original variable space."""

    status: str
    solution: Optional[np.ndarray] = None
    objective_value: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)


def _validate(lp: LinearProgram) -> None:
    if lp.objective is not None:
        obj = np.asarray(lp.objective, dtype=float).reshape(-1)
        if obj.size != lp.num_vars:
            raise ValidationError("objective length does not match num_vars")
        if not np.isfinite(obj).all():
            raise ValidationError("objective contains non-finite entries")
    _check_rows(lp.constraints, lp.num_vars)
    _check_bounds(lp.lower, lp.upper)


def _check_rows(constraints, n: int) -> None:
    for c, rel, rhs in constraints:
        if c.size != n:
            raise ValidationError("constraint length does not match num_vars")
        if rel not in _RELATIONS:
            raise ValidationError(f"unknown relation {rel!r}")
        if not (np.isfinite(c).all() and np.isfinite(rhs)):
            raise ValidationError("constraint contains non-finite entries")


def _check_bounds(lower: np.ndarray, upper: np.ndarray) -> None:
    """Bounds of one LP, or of a stack at once."""
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValidationError("bounds contain NaN")
    if (lower > upper).any():
        raise ValidationError("a lower bound exceeds its upper bound")


def _standardize(lp: LinearProgram):
    """Rewrite as: maximize c.y subject to A y <= b, y >= 0.

    Returns (A, b, c, shift, transform); the original variables are
    x = shift + transform @ y, with transform None meaning identity.
    """
    n = lp.num_vars
    free = ~np.isfinite(lp.lower)
    shift = np.where(free, 0.0, lp.lower)
    has_shift = bool(shift.any())

    if free.any():
        cols: list[np.ndarray] = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            cols.append(e)
            if free[j]:
                cols.append(-e)
        transform = np.column_stack(cols)
    else:
        transform = None

    def to_std(c: np.ndarray) -> np.ndarray:
        return c @ transform if transform is not None else c

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def add_leq(coeffs: np.ndarray, b: float) -> None:
        rows.append(to_std(coeffs))
        rhs.append(b - float(coeffs @ shift) if has_shift else b)

    for c, rel, b in lp.constraints:
        if rel == LESS_EQUAL:
            add_leq(c, b)
        elif rel == GREATER_EQUAL:
            add_leq(-c, -b)
        else:  # equality as two inequalities
            add_leq(c, b)
            add_leq(-c, -b)
    for j in range(n):
        if np.isfinite(lp.upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            add_leq(e, lp.upper[j])

    n_std = transform.shape[1] if transform is not None else n
    A = np.vstack(rows) if rows else np.zeros((0, n_std))
    b = np.asarray(rhs, dtype=float)

    if lp.objective is None:
        c_std = None
    else:
        sense = 1.0 if lp.maximize else -1.0
        c_std = sense * to_std(np.asarray(lp.objective, dtype=float))
    return A, b, c_std, shift, transform


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


def solve_lp(lp: LinearProgram, tol: Tolerances = DEFAULT_TOLS) -> LpOutcome:
    """Solve a linear program; statuses are exact up to the lp tolerance.

    Feasibility-only programs report ``feasible``/``infeasible``; programs
    with an objective report ``optimal``/``infeasible``/``unbounded``. Any
    returned solution satisfies every constraint within the lp tolerance
    (verified before returning).
    """
    _validate(lp)
    A, b, c_std, shift, transform = _standardize(lp)
    m, n_std = A.shape
    eps = tol.lp

    # Orient rows so rhs >= 0; rows that were flipped get a surplus column
    # (slack with coefficient -1) and need an artificial basic variable.
    neg = b < 0
    A = np.where(neg[:, None], -A, A)
    b = np.abs(b)
    art_rows = np.nonzero(neg)[0]
    n_art = int(art_rows.size)

    n_real = n_std + m  # decision + slack columns
    T = np.zeros((m + 1, n_real + n_art + 1))
    T[:m, :n_std] = A
    T[:m, n_std:n_real] = np.diag(np.where(neg, -1.0, 1.0))
    for k, i in enumerate(art_rows):
        T[i, n_real + k] = 1.0
    T[:m, -1] = b

    basis = np.arange(n_std, n_real)
    for k, i in enumerate(art_rows):
        basis[i] = n_real + k

    if n_art:
        phase1_cost = np.zeros(n_real + n_art)
        phase1_cost[n_real:] = -1.0  # maximize minus the artificial mass
        _price_out(T, basis, phase1_cost)
        status = _bland_iterate(T, basis, n_real + n_art, eps)
        if status != OPTIMAL:
            raise SolverError("phase 1 cannot be unbounded")
        scale = max(1.0, float(np.abs(b).max()) if m else 1.0)
        if -T[-1, -1] > eps * scale:
            return LpOutcome(INFEASIBLE)
        # Drive leftover zero-value artificials out of the basis, dropping
        # redundant rows that offer no real pivot.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_real:
                real = np.nonzero(np.abs(T[i, :n_real]) > eps)[0]
                if real.size:
                    _pivot(T, basis, i, int(real[0]))
                else:
                    keep[i] = False
        if not keep.all():
            T = T[np.concatenate([np.nonzero(keep)[0], [m]])]
            basis = basis[keep]
            m = int(basis.size)
        T = np.delete(T, np.s_[n_real : n_real + n_art], axis=1)

    def extract() -> np.ndarray:
        y = np.zeros(n_real)
        inside = basis < n_real
        y[basis[inside]] = T[:m][inside, -1]
        y_dec = y[:n_std]
        x = transform @ y_dec if transform is not None else y_dec
        return shift + x

    if c_std is None:
        x = extract()
        _verify(lp, x, eps)
        return LpOutcome(FEASIBLE, x, None)

    cost = np.zeros(n_real)
    cost[:n_std] = c_std
    _price_out(T, basis, cost)
    status = _bland_iterate(T, basis, n_real, eps)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    x = extract()
    _verify(lp, x, eps)
    obj = float(np.asarray(lp.objective, dtype=float) @ x)
    return LpOutcome(OPTIMAL, x, obj)


def _verify(lp: LinearProgram, x: np.ndarray, eps: float) -> None:
    scale = max(1.0, float(np.abs(x).max()))
    slack = 10.0 * eps * scale
    for c, rel, rhs in lp.constraints:
        v = float(c @ x)
        budget = slack * max(1.0, float(np.abs(c).max()), abs(rhs))
        if rel == LESS_EQUAL and v > rhs + budget:
            raise SolverError(f"constraint violated: {v} <= {rhs}")
        if rel == GREATER_EQUAL and v < rhs - budget:
            raise SolverError(f"constraint violated: {v} >= {rhs}")
        if rel == EQUAL and abs(v - rhs) > budget:
            raise SolverError(f"constraint violated: {v} == {rhs}")
    if (x < lp.lower - slack).any() or (x > lp.upper + slack).any():
        raise SolverError("bound violated in LP solution")


# Basis index of a row a stack's drive-out drops: above every column, so the
# zeroed row is never priced, extracted or chosen to leave.
_DROPPED = np.iinfo(np.intp).max


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
        leaving = np.where(tied, Wb, _DROPPED).argmin(axis=1)
        _pivot_stack(W, Wb, leaving, entering)
    return unbounded


def _price_out_stack(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """:func:`_price_out` on every member, ``cost`` holding one row each."""
    k = np.arange(T.shape[0])
    width = cost.shape[1]
    T[:, -1, :] = 0.0
    T[:, -1, :width] = -cost
    for i in range(T.shape[1] - 1):
        b = basis[:, i]
        cb = np.where(b < width, cost[k, np.minimum(b, width - 1)], 0.0)
        priced = np.flatnonzero(cb != 0.0)
        if priced.size:
            T[priced, -1, :] += cb[priced, None] * T[priced, i, :]


def solve_stack(
    constraints: list[tuple[np.ndarray, str, float]],
    lower,
    upper,
    objective,
    tol: Tolerances = DEFAULT_TOLS,
) -> list[LpOutcome]:
    """Maximize a stack of LPs over one shared constraint system in lockstep.

    Member k is ``LinearProgram(n, objective[k], True, constraints,
    lower[k], upper[k])`` for (members, n) arrays ``lower``, ``upper`` and
    ``objective``; its lower bounds must be finite. Its outcome (``optimal``,
    ``infeasible`` or ``unbounded``) is bitwise that of :func:`solve_lp` on
    that LP: the same standardization, entering and ratio-tie rules, pivot
    arithmetic, phase-1 scale test and drive-out.

    The members' tableaus are padded to one shape. A member with fewer
    finite upper bounds gets all-zero rows, each with its own slack basic at
    0; one with fewer artificials gets all-zero artificial columns; a row
    the drive-out drops is zeroed and given a basis index above every
    column. No padding can enter, leave or price a pivot. The shared rows
    are validated once and the stacks in one vectorized check; every
    solution is verified with :func:`solve_lp`'s slack rule. A stack is
    solved in chunks whose tableaus, working copies and pivot temporaries
    together hold fewer than ``STACK_FLOATS`` floats.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    objective = np.asarray(objective, dtype=float)
    if lower.ndim != 2 or upper.shape != lower.shape or objective.shape != lower.shape:
        raise ValidationError("lower, upper and objective must be stacks of one shape")
    members, n = lower.shape
    if n < 1:
        raise ValidationError("linear program needs at least one variable")
    constraints = [
        (np.asarray(c, dtype=float).reshape(-1), rel, float(rhs))
        for c, rel, rhs in constraints
    ]
    _check_rows(constraints, n)
    _check_bounds(lower, upper)
    if not np.isfinite(objective).all():
        raise ValidationError("objective contains non-finite entries")
    if not np.isfinite(lower).all():
        raise ValidationError("stack members need finite lower bounds")

    # the shared rows in _standardize's order: c <= b, then -c <= -b
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for c, rel, b in constraints:
        if rel != GREATER_EQUAL:
            rows.append(c)
            rhs.append(b)
        if rel != LESS_EQUAL:
            rows.append(-c)
            rhs.append(-b)
    A = np.array(rows).reshape(-1, n)
    b = np.array(rhs, dtype=float)
    # a lockstep pass holds a chunk's tableau, a working copy and a pivot's
    # temporary at once; a quarter of STACK_FLOATS each keeps them below it
    height = A.shape[0] + int(np.isfinite(upper).sum(axis=1).max(initial=0))
    chunk = max(1, STACK_FLOATS // 4 // ((height + 1) * (n + 2 * height + 1)))
    out: list[LpOutcome] = []
    for start in range(0, members, chunk):
        part = slice(start, start + chunk)
        out += _solve_chunk(
            constraints, A, b, lower[part], upper[part], objective[part], tol.lp
        )
    return out


def _solve_chunk(
    constraints, A, b, lower, upper, objective, eps: float
) -> list[LpOutcome]:
    """One chunk of :func:`solve_stack`: ``A`` and ``b`` are the shared
    rows standardized as ``c <= b``; a member's rows past its own are
    padding."""
    K, n = lower.shape
    m0 = A.shape[0]
    finite = np.isfinite(upper)
    R = m0 + int(finite.sum(axis=1).max())
    n_real = n + R

    # right-hand sides as _standardize forms them, a 1-D dot per shared row
    shifted = lower.any(axis=1)
    B = np.zeros((K, R))
    B[:, :m0] = b
    for k in np.flatnonzero(shifted):
        B[k, :m0] = [bi - float(row @ lower[k]) for row, bi in zip(A, b)]
    kk, jj = np.nonzero(finite)
    at = m0 + (np.cumsum(finite, axis=1) - 1)[kk, jj]
    B[kk, at] = np.where(shifted[kk], upper[kk, jj] - lower[kk, jj], upper[kk, jj])
    neg = B < 0
    B = np.abs(B)

    n_art = neg.sum(axis=1)
    T = np.zeros((K, R + 1, n_real + int(n_art.max()) + 1))
    T[:, :m0, :n] = A
    T[kk, at, jj] = 1.0
    T[:, :R, :n] = np.where(neg[:, :, None], -T[:, :R, :n], T[:, :R, :n])
    i = np.arange(R)
    T[:, i, n + i] = np.where(neg, -1.0, 1.0)
    ka, ia = np.nonzero(neg)
    art = n_real + (np.cumsum(neg, axis=1) - 1)[ka, ia]
    T[ka, ia, art] = 1.0
    T[:, :R, -1] = B
    basis = np.tile(np.arange(n, n_real), (K, 1))
    basis[ka, ia] = art

    feasible = np.ones(K, dtype=bool)
    if n_art.any():
        # a member without artificials is optimal at once in phase 1 and
        # left as it was, so phase 1 runs on the whole stack in place
        cost = np.zeros((K, T.shape[2] - 1))
        cost[:, n_real:] = -1.0  # maximize minus the artificial mass
        _price_out_stack(T, basis, cost)
        if _bland_stack(T, basis, T.shape[2] - 1, eps).any():
            raise SolverError("phase 1 cannot be unbounded")
        scale = np.maximum(1.0, B.max(axis=1, initial=0.0))
        feasible = ~(-T[:, -1, -1] > eps * scale)
        # drive leftover zero-value artificials out, row by row as solve_lp
        for r in range(R):
            need = np.flatnonzero(feasible & (basis[:, r] >= n_real))
            if not need.size:
                continue
            real = np.abs(T[need, r, :n_real]) > eps
            has = real.any(axis=1)
            piv = need[has]
            if piv.size:
                V, Vb = T[piv], basis[piv]
                _pivot_stack(V, Vb, np.full(piv.size, r), real[has].argmax(axis=1))
                T[piv], basis[piv] = V, Vb
            drop = need[~has]
            T[drop, r, :] = 0.0
            basis[drop, r] = _DROPPED

    live = np.flatnonzero(feasible)
    T = np.concatenate((T[live, :, :n_real], T[live, :, -1:]), axis=2)
    basis = basis[live]
    cost = np.zeros((live.size, n_real))
    cost[:, :n] = objective[live]
    _price_out_stack(T, basis, cost)
    unbounded = _bland_stack(T, basis, n_real, eps)

    y = np.zeros((live.size, n_real))
    kb, ib = np.nonzero(basis < n_real)
    y[kb, basis[kb, ib]] = T[kb, ib, -1]
    X = lower[live] + y[:, :n]
    solved = ~unbounded
    _verify_stack(constraints, X[solved], lower[live[solved]], upper[live[solved]], eps)

    out = [LpOutcome(INFEASIBLE)] * K
    for j, k in enumerate(live):
        if unbounded[j]:
            out[k] = LpOutcome(UNBOUNDED)
        else:
            out[k] = LpOutcome(OPTIMAL, X[j], float(objective[k] @ X[j]))
    return out


def _verify_stack(
    constraints, X: np.ndarray, lower: np.ndarray, upper: np.ndarray, eps: float
) -> None:
    """:func:`_verify`'s slack rule on every row of ``X`` at once."""
    scale = np.maximum(1.0, np.abs(X).max(axis=1, initial=0.0))
    slack = 10.0 * eps * scale
    for c, rel, rhs in constraints:
        v = X @ c
        budget = slack * max(1.0, float(np.abs(c).max()), abs(rhs))
        if rel == LESS_EQUAL:
            bad = v > rhs + budget
        elif rel == GREATER_EQUAL:
            bad = v < rhs - budget
        else:
            bad = np.abs(v - rhs) > budget
        if bad.any():
            raise SolverError(f"constraint violated: {v[bad][0]} {rel} {rhs}")
    if (X < lower - slack[:, None]).any() or (X > upper + slack[:, None]).any():
        raise SolverError("bound violated in LP solution")
