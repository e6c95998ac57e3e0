import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import stablenash
from stablenash import lp as lp_module
from stablenash.config import DEFAULT_TOLS, Tolerances
from stablenash.errors import ParameterError, SolverError, ValidationError
from stablenash.lp import (
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_lp,
    solve_stack,
)


def test_simple_maximum():
    lp = LinearProgram(1)
    lp.add_constraint([1.0], "<=", 3.0)
    lp.set_objective([1.0])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(3.0, abs=1e-8)
    assert out.solution[0] == pytest.approx(3.0, abs=1e-8)


def test_simple_infeasible():
    lp = LinearProgram(1)  # x >= 0 by default
    lp.add_constraint([1.0], "<=", -1.0)
    out = solve_lp(lp)
    assert out.status == INFEASIBLE


def test_unbounded():
    lp = LinearProgram(1)
    lp.set_objective([1.0])
    out = solve_lp(lp)
    assert out.status == UNBOUNDED


def test_feasibility_only_status():
    lp = LinearProgram(2)
    lp.add_constraint([1.0, 1.0], "=", 1.0)
    out = solve_lp(lp)
    assert out.status == FEASIBLE
    assert out.solution.sum() == pytest.approx(1.0, abs=1e-8)


def test_equality_and_free_variable():
    # maximize x - y with x + y = 1, y free but pinned by x <= 0.25
    lp = LinearProgram(2, lower=np.array([0.0, -np.inf]))
    lp.add_constraint([1.0, 1.0], "=", 1.0)
    lp.add_constraint([1.0, 0.0], "<=", 0.25)
    lp.set_objective([1.0, -1.0])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.solution == pytest.approx([0.25, 0.75], abs=1e-8)


def test_upper_bounds():
    lp = LinearProgram(2, upper=np.array([0.4, np.inf]))
    lp.add_constraint([1.0, 1.0], "<=", 1.0)
    lp.set_objective([3.0, 1.0])
    out = solve_lp(lp)
    assert out.objective_value == pytest.approx(3 * 0.4 + 0.6, abs=1e-8)


def test_minimize_direction():
    lp = LinearProgram(1, upper=np.array([5.0]))
    lp.add_constraint([1.0], ">=", 2.0)
    lp.set_objective([1.0], maximize=False)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(2.0, abs=1e-8)


def test_degenerate_cycling_instance_terminates():
    # Beale's example: Dantzig's rule cycles here, Bland's rule must not.
    lp = LinearProgram(4)
    lp.add_constraint([0.25, -60.0, -1.0 / 25.0, 9.0], "<=", 0.0)
    lp.add_constraint([0.5, -90.0, -1.0 / 50.0, 3.0], "<=", 0.0)
    lp.add_constraint([0.0, 0.0, 1.0, 0.0], "<=", 1.0)
    lp.set_objective([0.75, -150.0, 1.0 / 50.0, -6.0])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(0.05, abs=1e-8)


def test_validation_errors():
    lp = LinearProgram(2)
    with pytest.raises(ValidationError):
        lp.add_constraint([1.0], "<=", 1.0)
    with pytest.raises(ValidationError):
        lp.add_constraint([1.0, np.inf], "<=", 1.0)
    with pytest.raises(ValidationError):
        lp.add_constraint([1.0, 1.0], "~", 1.0)


def test_gap_game_full_support_tie_infeasible():
    # rows of the 0.1-gap game differ by 0.1 for every q, so requiring both
    # rows within 0.05 of each other has no solution; scan confirms.
    R = np.array([[1.0, 1.0], [0.9, 0.9]])
    for q0 in np.linspace(0, 1, 101):
        q = np.array([q0, 1 - q0])
        gap = (R[0] - R[1]) @ q
        assert gap > 0.05
    lp = LinearProgram(2)
    lp.add_constraint([1.0, 1.0], "=", 1.0)
    lp.add_constraint(R[0] - R[1], ">=", -0.05)  # row 1 within eps of row 0
    lp.add_constraint(R[1] - R[0], ">=", -0.05)  # row 0 within eps of row 1
    out = solve_lp(lp)
    assert out.status == INFEASIBLE


def _random_bounded_lp(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    A = rng.uniform(0.2, 1.5, size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    c = rng.uniform(0.1, 1.0, size=n)
    return A, b, c


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10_000))
def test_weak_duality_on_random_instances(seed):
    A, b, c = _random_bounded_lp(seed)
    primal = LinearProgram(A.shape[1])
    for row, rhs in zip(A, b):
        primal.add_constraint(row, "<=", rhs)
    primal.set_objective(c)
    dual = LinearProgram(A.shape[0])
    for col, rhs in zip(A.T, c):
        dual.add_constraint(col, ">=", rhs)
    dual.set_objective(b, maximize=False)
    p_out = solve_lp(primal)
    d_out = solve_lp(dual)
    assert p_out.status == OPTIMAL and d_out.status == OPTIMAL
    assert p_out.objective_value == pytest.approx(d_out.objective_value, abs=1e-7)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10_000))
def test_permutation_invariance(seed):
    A, b, c = _random_bounded_lp(seed)
    rng = np.random.default_rng(seed + 1)
    rows = rng.permutation(A.shape[0])
    cols = rng.permutation(A.shape[1])
    base = LinearProgram(A.shape[1])
    for row, rhs in zip(A, b):
        base.add_constraint(row, "<=", rhs)
    base.set_objective(c)
    permuted = LinearProgram(A.shape[1])
    for row, rhs in zip(A[rows][:, cols], b[rows]):
        permuted.add_constraint(row, "<=", rhs)
    permuted.set_objective(c[cols])
    out_a = solve_lp(base)
    out_b = solve_lp(permuted)
    assert out_a.objective_value == pytest.approx(out_b.objective_value, abs=1e-7)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10_000))
def test_against_scipy_linprog(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    b = rng.uniform(-0.3, 1.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    lp = LinearProgram(n, upper=np.full(n, 3.0))  # boundedness for comparison
    for row, rhs in zip(A, b):
        lp.add_constraint(row, "<=", rhs)
    lp.set_objective(c)
    mine = solve_lp(lp)
    ref = scipy.optimize.linprog(
        -c, A_ub=A, b_ub=b, bounds=[(0.0, 3.0)] * n, method="highs"
    )
    if ref.status == 2:
        assert mine.status == INFEASIBLE
    else:
        assert ref.status == 0
        assert mine.status == OPTIMAL
        assert mine.objective_value == pytest.approx(-ref.fun, abs=1e-6)


def test_every_solve_lp_caller_is_traced():
    # the traced benchmark rebinds solve_lp in each module of LP_CALLERS and
    # checks their counts against lp's own; a module missing from the list
    # would make that run report an incorrect count, and a listed module
    # that no longer binds solve_lp would stop it
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    traced = None
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LP_CALLERS" for t in node.targets
        ):
            traced = set(ast.literal_eval(node.value))
    assert traced
    callers = set()
    for info in pkgutil.iter_modules(stablenash.__path__):
        module = importlib.import_module(f"stablenash.{info.name}")
        if info.name != "lp" and getattr(module, "solve_lp", None) is solve_lp:
            callers.add(info.name)
    assert callers and callers == traced, sorted(callers ^ traced)


# --- the lockstep stack against the scalar path ------------------------------

def _random_stack(seed, real=False):
    """Shared constraints plus a stack of bounds and objectives. On a
    half-integer grid, degenerate, infeasible and unbounded members are
    common; with ``real`` entries the arithmetic rounds, so a changed
    summation order shows. Members differ in their finite upper bounds and
    artificials, so the stack pads them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7 if real else 5))
    if real:
        def draw(size):
            return rng.uniform(-1.0, 1.0, size)
    else:
        def draw(size):
            return rng.integers(-2, 3, size) / 2.0
    constraints = [
        (draw(n), ("<=", "=", ">=")[rng.integers(3)], float(draw(1)[0]))
        for _ in range(rng.integers(0, 6))
    ]
    members = int(rng.integers(1, 9))
    lower = np.where(rng.random((members, n)) < 0.5, 0.0, draw((members, n)))
    upper = np.where(rng.random((members, n)) < 0.5, np.inf, lower + np.abs(draw((members, n))))
    return constraints, lower, upper, draw((members, n))


def _random_member_stack(seed, real=False):
    """A stack whose members have their own rows: each row is either shared
    (the broadcast of one) or holds per-member coefficients, right-hand
    sides and relations, so equalities sit at different rows in different
    members and the members' standardized row counts differ."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7 if real else 5))
    if real:
        def draw(size):
            return rng.uniform(-1.0, 1.0, size)
    else:
        def draw(size):
            return rng.integers(-2, 3, size) / 2.0
    members = int(rng.integers(2, 9))
    constraints = []
    for _ in range(rng.integers(1, 6)):
        if rng.random() < 0.25:
            constraints.append((draw(n), ("<=", "=", ">=")[rng.integers(3)], float(draw(1)[0])))
        else:
            relations = np.array(["<=", "=", ">="])[rng.integers(3, size=members)]
            constraints.append((draw((members, n)), relations, draw(members)))
    lower = np.where(rng.random((members, n)) < 0.5, 0.0, draw((members, n)))
    upper = np.where(rng.random((members, n)) < 0.5, np.inf, lower + np.abs(draw((members, n))))
    return constraints, lower, upper, draw((members, n))


def _member_lp(constraints, lower, upper, objective, k):
    """Member k of a stack as one ``LinearProgram``."""
    members, n = lower.shape
    lp = LinearProgram(n, objective[k], True, lower=lower[k], upper=upper[k])
    for c, rel, rhs in constraints:
        lp.add_constraint(
            np.broadcast_to(c, (members, n))[k],
            str(np.broadcast_to(rel, (members,))[k]),
            np.broadcast_to(rhs, (members,))[k],
        )
    return lp


def _rows_of(constraints, part):
    """The stack's rows for the members ``part``; shared rows stay shared."""
    return [
        (
            c[part] if np.ndim(c) == 2 else c,
            rel[part] if np.ndim(rel) == 1 else rel,
            rhs[part] if np.ndim(rhs) == 1 else rhs,
        )
        for c, rel, rhs in constraints
    ]


def _outcome_bytes(out):
    return (
        out.status,
        None if out.solution is None else out.solution.tobytes(),
        None if out.objective_value is None else np.float64(out.objective_value).tobytes(),
    )


def _assert_stack_is_scalar(constraints, lower, upper, objective):
    """Each member bitwise as solve_lp, also when the stack is permuted or
    split; returns the statuses."""
    try:
        want = [
            _outcome_bytes(solve_lp(_member_lp(constraints, lower, upper, objective, k)))
            for k in range(len(lower))
        ]
    except SolverError:
        with pytest.raises(SolverError):
            solve_stack(constraints, lower, upper, objective)
        return []

    def solved(part):
        outs = solve_stack(_rows_of(constraints, part), lower[part], upper[part], objective[part])
        return [_outcome_bytes(out) for out in outs]

    everything = slice(None)
    assert solved(everything) == want
    perm = np.random.default_rng(len(want)).permutation(len(want))
    assert solved(perm) == [want[k] for k in perm]
    cut = len(want) // 2
    assert solved(slice(None, cut)) + solved(slice(cut, None)) == want
    return [status for status, _, _ in want]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_stack_matches_solve_lp_bitwise(seed, real):
    _assert_stack_is_scalar(*_random_stack(seed, real))


def test_random_stacks_reach_every_status():
    seen = set()
    for seed in range(60):
        seen.update(_assert_stack_is_scalar(*_random_stack(seed)))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_member_row_stack_matches_solve_lp_bitwise(seed, real):
    _assert_stack_is_scalar(*_random_member_stack(seed, real))


def _degenerate_vertex(lp, x):
    """Whether more constraints and bounds are active at x than there are
    variables."""
    active = sum(abs(float(c @ x) - rhs) <= 1e-12 for c, _, rhs in lp.constraints)
    active += int(np.sum(np.abs(x - lp.lower) <= 1e-12) + np.sum(np.abs(x - lp.upper) <= 1e-12))
    return active > lp.num_vars


def test_member_row_stacks_reach_every_status():
    seen = set()
    degenerate = 0
    for seed in range(60):
        stack = _random_member_stack(seed)
        seen.update(_assert_stack_is_scalar(*stack))
        for k in range(len(stack[1])):
            lp = _member_lp(*stack, k)
            out = solve_lp(lp)
            degenerate += out.status == OPTIMAL and _degenerate_vertex(lp, out.solution)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert degenerate > 0


@pytest.mark.parametrize(
    "constraints, upper",
    [
        # a redundant >= row: phase 1 ends with two artificials basic at 0,
        # which the drive-out pivots out
        ([([1.0, 1.0], "=", 1.0), ([1.0, 1.0], ">=", 1.0)], [np.inf, np.inf]),
        ([([1.0, 0.0], ">=", 1.0)], [0.5, np.inf]),  # infeasible
        ([([1.0, -1.0], "<=", 1.0)], [np.inf, np.inf]),  # unbounded
    ],
    ids=["drive_out", "infeasible", "unbounded"],
)
def test_stack_matches_solve_lp_on_each_phase_one_path(constraints, upper):
    # the same system under members of mixed shapes: pinned, shifted and
    # capped variables change the row and artificial counts
    lower = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, -1.0]])
    upper = np.array([upper, upper, [0.5, 0.5], [np.inf, 2.0]])
    objective = np.array([[1.0, -1.0], [1.0, 0.0], [-1.0, 1.0], [0.0, 1.0]])
    assert _assert_stack_is_scalar(constraints, lower, upper, objective)


@pytest.mark.parametrize("lp_tol", [1.0, 1.5, np.inf, np.nan])
def test_tolerances_reject_an_lp_tolerance_of_one_or_more(lp_tol):
    # a row whose basic variable is an artificial after phase 1 holds -1 in
    # that artificial's surplus column, so below 1 the drive-out always has
    # a real pivot; from 1 on it could have none
    with pytest.raises(ParameterError):
        Tolerances(lp=lp_tol)
    with pytest.raises(ParameterError):
        DEFAULT_TOLS.with_overrides(lp=lp_tol)
    assert Tolerances(lp=0.5).lp == 0.5


def test_chunked_stack_matches_one_stack(monkeypatch):
    constraints, lower, upper, objective = _random_stack(7)
    lower, upper, objective = (np.tile(a, (5, 1)) for a in (lower, upper, objective))
    whole = [_outcome_bytes(out) for out in solve_stack(constraints, lower, upper, objective)]
    monkeypatch.setattr(lp_module, "STACK_FLOATS", 1)  # one member per chunk
    chunked = [_outcome_bytes(out) for out in solve_stack(constraints, lower, upper, objective)]
    assert chunked == whole

def test_chunked_member_row_stack_matches_one_stack(monkeypatch):
    constraints, lower, upper, objective = _random_member_stack(7)
    picks = np.tile(np.arange(len(lower)), 5)
    constraints = _rows_of(constraints, picks)
    lower, upper, objective = lower[picks], upper[picks], objective[picks]
    whole = [_outcome_bytes(out) for out in solve_stack(constraints, lower, upper, objective)]
    monkeypatch.setattr(lp_module, "STACK_FLOATS", 1)  # one member per chunk
    chunked = [_outcome_bytes(out) for out in solve_stack(constraints, lower, upper, objective)]
    assert chunked == whole


def test_stack_rejects_malformed_members():
    rows = [(np.ones(2), "=", 1.0)]
    ok = np.zeros((3, 2)), np.full((3, 2), np.inf), np.ones((3, 2))
    assert len(solve_stack(rows, *ok)) == 3
    bad = {
        "shape": (np.zeros((3, 2)), np.full((2, 2), np.inf), np.ones((3, 2))),
        "free": (np.full((3, 2), -np.inf), np.full((3, 2), np.inf), np.ones((3, 2))),
        "crossed": (np.ones((3, 2)), np.zeros((3, 2)), np.ones((3, 2))),
        "objective": (np.zeros((3, 2)), np.full((3, 2), np.inf), np.full((3, 2), np.nan)),
    }
    for lower, upper, objective in bad.values():
        with pytest.raises(ValidationError):
            solve_stack(rows, lower, upper, objective)
    with pytest.raises(ValidationError):
        solve_stack([(np.ones(3), "=", 1.0)], *ok)
    with pytest.raises(ValidationError):
        solve_stack([(np.ones(2), "<", 1.0)], *ok)
    # per-member rows: one row, relation and right-hand side per member
    per_member = [(np.ones((3, 2)), np.array(["=", "<=", ">="]), np.ones(3))]
    assert len(solve_stack(per_member, *ok)) == 3
    for bad_row in (
        (np.ones((2, 2)), "=", 1.0),
        (np.ones(2), np.array(["=", "<="]), 1.0),
        (np.ones(2), "=", np.ones(4)),
        (np.ones(2), np.array(["=", "<", ">="]), 1.0),
        (np.array([[1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]]), "=", 1.0),
        (np.ones(2), "=", np.array([1.0, np.inf, 1.0])),
    ):
        with pytest.raises(ValidationError):
            solve_stack([bad_row], *ok)
