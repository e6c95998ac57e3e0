"""Solver-neutral linear programs and a dense two-phase simplex.

The solver is a primal tableau simplex with Bland's rule throughout, which
guarantees termination on the degenerate desk-scale problems this library
generates; robustness is preferred over speed here. Equality constraints are
reduced to two inequalities, free variables are split into differences of
non-negative variables, and finite lower bounds are shifted out.

There are two paths over the same algorithm. :func:`solve_lp` solves one
:class:`LinearProgram`. :func:`solve_stack` pivots a stack of LPs in
lockstep (after Gurung & Ray, "Simultaneous solving of batched linear
programs on a GPU", ICPE 2019): each member has its own constraint rows,
relations, right-hand sides, variable bounds and objective, all given as
arrays with one leading entry per member. Each member's standardized
tableau is padded to the stack's shape, and the padding never changes a
member's pivots, so every member's outcome is bitwise that of
:func:`solve_lp` on the same LP. A stack of one costs more than
:func:`solve_lp`, so callers holding a single LP keep calling it.
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
    for c, rel, rhs in lp.constraints:
        if c.size != lp.num_vars:
            raise ValidationError("constraint length does not match num_vars")
        if rel not in _RELATIONS:
            raise ValidationError(f"unknown relation {rel!r}")
        if not (np.isfinite(c).all() and np.isfinite(rhs)):
            raise ValidationError("constraint contains non-finite entries")
    _check_bounds(lp.lower, lp.upper)


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
        # Drive leftover zero-value artificials out of the basis. A row whose
        # basic variable is an artificial holds that artificial's own surplus
        # column at exactly -1 (the two start as exact negatives and stay so
        # through every pivot), and Tolerances keeps tol.lp below 1, so every
        # such row offers a real pivot.
        for i in range(m):
            if basis[i] >= n_real:
                real = np.nonzero(np.abs(T[i, :n_real]) > eps)[0]
                _pivot(T, basis, i, int(real[0]))
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
    (members, n), with finite lower bounds. Member k is
    ``LinearProgram(n, objective[k], True, its rows, lower[k], upper[k])``,
    and its outcome (``optimal``, ``infeasible`` or ``unbounded``) is
    bitwise that of :func:`solve_lp` on that LP: the same standardization,
    entering and ratio-tie rules, pivot arithmetic, phase-1 scale test and
    drive-out.

    The members' tableaus are padded to one shape. A member with fewer
    standardized rows (fewer equalities or finite upper bounds) gets
    all-zero rows after its own, each with its own slack basic at 0; one
    with fewer artificials gets all-zero artificial columns. No padding can
    enter, leave or price a pivot. Every input is validated as an array,
    before any pivot; every solution is verified against its member's own
    rows with :func:`solve_lp`'s slack rule. A stack is solved in chunks
    whose tableaus, working copies and pivot temporaries together hold
    fewer than ``STACK_FLOATS`` floats.
    """
    A = np.asarray(A, dtype=float)
    relations = np.asarray(relations)
    rhs = np.asarray(rhs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    objective = np.asarray(objective, dtype=float)
    if lower.ndim != 2 or upper.shape != lower.shape or objective.shape != lower.shape:
        raise ValidationError("lower, upper and objective must be stacks of one shape")
    members, n = lower.shape
    if n < 1:
        raise ValidationError("linear program needs at least one variable")
    rows_ok = A.ndim == 3 and A.shape[::2] == (members, n)
    if not (rows_ok and relations.shape == rhs.shape == A.shape[:2]):
        raise ValidationError("rows, relations and rhs do not match the stack's members")
    eq, ge = relations == EQUAL, relations == GREATER_EQUAL
    known = eq | ge | (relations == LESS_EQUAL)
    if not known.all():
        raise ValidationError(f"unknown relation {str(relations[~known][0])!r}")
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValidationError("constraint contains non-finite entries")
    _check_bounds(lower, upper)
    if not np.isfinite(objective).all():
        raise ValidationError("objective contains non-finite entries")
    if not np.isfinite(lower).all():
        raise ValidationError("stack members need finite lower bounds")
    code = eq + 2 * ge  # relations as indices into _RELATIONS

    # a member's standardized rows: one per inequality, two per equality,
    # one per finite upper bound
    height = A.shape[1] + eq.sum(axis=1) + np.isfinite(upper).sum(axis=1)
    # a lockstep pass holds a chunk's tableau, a working copy and a pivot's
    # temporary at once; a quarter of STACK_FLOATS each keeps them below it
    top = int(height.max(initial=0))
    chunk = max(1, STACK_FLOATS // 4 // ((top + 1) * (n + 2 * top + 1)))
    out: list[LpOutcome] = []
    for start in range(0, members, chunk):
        part = slice(start, start + chunk)
        out += _solve_chunk(
            A[part], code[part], rhs[part], lower[part], upper[part], objective[part], tol.lp
        )
    return out


def _solve_chunk(
    A, code, b, lower, upper, objective, eps: float
) -> list[LpOutcome]:
    """One chunk of :func:`solve_stack`: member k's rows are ``A[k]``,
    ``b[k]`` with relations ``code[k]``, indices into ``_RELATIONS``; its
    tableau rows past its own are padding."""
    K, n = lower.shape
    # each member's rows as _standardize forms them: c <= b for a <= or =
    # row, then -c <= -b for a >= or = row
    keep = np.stack((code != 2, code != 0), axis=2).reshape(K, -1)
    rows = np.stack((A, -A), axis=2).reshape(K, -1, n)
    rhs = np.stack((b, -b), axis=2).reshape(K, -1)
    m0 = keep.sum(axis=1)
    finite = np.isfinite(upper)
    R = int((m0 + finite.sum(axis=1)).max())
    n_real = n + R
    kr, ir = np.nonzero(keep)
    at = (np.cumsum(keep, axis=1) - 1)[kr, ir]
    S = np.zeros((K, R, n))
    S[kr, at] = rows[kr, ir]
    B = np.zeros((K, R))
    B[kr, at] = rhs[kr, ir]

    # right-hand sides as _standardize forms them, b minus a 1-D dot per row;
    # with one nonzero lower bound that dot is one exact product, so those
    # members are shifted at once
    shifted = lower.any(axis=1)
    single = (lower != 0).sum(axis=1) == 1
    B[single] -= (S[single] * lower[single, None, :]).sum(axis=2)
    for k in np.flatnonzero(shifted & ~single):
        own = slice(m0[k])
        B[k, own] = [bi - float(row @ lower[k]) for row, bi in zip(S[k, own], B[k, own])]
    kk, jj = np.nonzero(finite)
    at = m0[kk] + (np.cumsum(finite, axis=1) - 1)[kk, jj]
    S[kk, at, jj] = 1.0
    B[kk, at] = np.where(shifted[kk], upper[kk, jj] - lower[kk, jj], upper[kk, jj])
    neg = B < 0
    B = np.abs(B)

    n_art = neg.sum(axis=1)
    T = np.zeros((K, R + 1, n_real + int(n_art.max()) + 1))
    T[:, :R, :n] = np.where(neg[:, :, None], -S, S)
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
        # (a pivot changes only its own row's basic variable); as there,
        # every such row offers a real pivot
        left = feasible[:, None] & (basis >= n_real)
        for r in np.flatnonzero(left.any(axis=0)):
            need = np.flatnonzero(left[:, r])
            real = np.abs(T[need, r, :n_real]) > eps
            V, Vb = T[need], basis[need]
            _pivot_stack(V, Vb, np.full(need.size, r), real.argmax(axis=1))
            T[need], basis[need] = V, Vb

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
    """:func:`_verify`'s slack rule on every row of ``X`` at once, each
    against its own rows ``A``, ``code`` and ``b``."""
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
