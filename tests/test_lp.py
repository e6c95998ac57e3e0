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
    LpOutcome,
    solve_lp,
    solve_stack,
)


def test_simple_maximum():
    lp = LinearProgram(1)
    lp.add_constraint([1.0], "<=", 3.0)
    lp.set_objective([1.0])
    out = lp.solve()
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(3.0, abs=1e-8)
    assert out.solution[0] == pytest.approx(3.0, abs=1e-8)


def test_simple_infeasible():
    lp = LinearProgram(1)  # x >= 0 by default
    lp.add_constraint([1.0], "<=", -1.0)
    out = lp.solve()
    assert out.status == INFEASIBLE


def test_unbounded():
    lp = LinearProgram(1)
    lp.set_objective([1.0])
    out = lp.solve()
    assert out.status == UNBOUNDED


def test_feasibility_only_status():
    lp = LinearProgram(2)
    lp.add_constraint([1.0, 1.0], "=", 1.0)
    out = lp.solve()
    assert out.status == FEASIBLE
    assert out.solution.sum() == pytest.approx(1.0, abs=1e-8)


def test_equality_and_free_variable():
    # maximize x - y with x + y = 1, y free but pinned by x <= 0.25
    lp = LinearProgram(2, lower=np.array([0.0, -np.inf]))
    lp.add_constraint([1.0, 1.0], "=", 1.0)
    lp.add_constraint([1.0, 0.0], "<=", 0.25)
    lp.set_objective([1.0, -1.0])
    out = lp.solve()
    assert out.status == OPTIMAL
    assert out.solution == pytest.approx([0.25, 0.75], abs=1e-8)


def test_upper_bounds():
    lp = LinearProgram(2, upper=np.array([0.4, np.inf]))
    lp.add_constraint([1.0, 1.0], "<=", 1.0)
    lp.set_objective([3.0, 1.0])
    out = lp.solve()
    assert out.objective_value == pytest.approx(3 * 0.4 + 0.6, abs=1e-8)


def test_minimize_direction():
    lp = LinearProgram(1, upper=np.array([5.0]))
    lp.add_constraint([1.0], ">=", 2.0)
    lp.set_objective([1.0], maximize=False)
    out = lp.solve()
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(2.0, abs=1e-8)


def test_degenerate_cycling_instance_terminates():
    # Beale's example: Dantzig's rule cycles here, Bland's rule must not.
    lp = LinearProgram(4)
    lp.add_constraint([0.25, -60.0, -1.0 / 25.0, 9.0], "<=", 0.0)
    lp.add_constraint([0.5, -90.0, -1.0 / 50.0, 3.0], "<=", 0.0)
    lp.add_constraint([0.0, 0.0, 1.0, 0.0], "<=", 1.0)
    lp.set_objective([0.75, -150.0, 1.0 / 50.0, -6.0])
    out = lp.solve()
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(0.05, abs=1e-8)


def test_validation_errors(monkeypatch):
    lp = LinearProgram(2)
    with pytest.raises(ValidationError):
        lp.add_constraint([1.0], "<=", 1.0)
    with pytest.raises(ValidationError):
        lp.add_constraint([1.0, np.inf], "<=", 1.0)
    with pytest.raises(ValidationError):
        lp.add_constraint([1.0, 1.0], "~", 1.0)
    lp.constraints.append((np.ones(3), "<=", 1.0))  # past add_constraint's check
    with pytest.raises(ValidationError):
        lp.solve()
    with pytest.raises(ValidationError):  # before a free variable is split
        LinearProgram(2, np.ones(3), lower=[-np.inf, 0.0]).solve()

    # empty feasible sets from the bounds alone, rejected before any pivot:
    # a lower bound of +inf, and a free variable capped at -inf
    def no_pivot(*args):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(lp_module, "_tableau", no_pivot)
    with pytest.raises(ValidationError):
        solve_lp(np.ones((1, 2)), ["<="], [1.0], [0.0, np.inf], [np.inf, np.inf], [1.0, 1.0])
    with pytest.raises(ValidationError):
        LinearProgram(1, np.ones(1), lower=[np.inf]).solve()
    with pytest.raises(ValidationError):
        LinearProgram(1, np.ones(1), lower=[-np.inf], upper=[-np.inf]).solve()


def test_validate_runs_once_per_solve_lp_and_never_in_a_stack(monkeypatch):
    # the traced benchmark counts lp._validate calls as solve_lp calls and
    # checks them against its per-module solve_lp spans
    calls = []
    real = lp_module._validate

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(lp_module, "_validate", counted)
    stack = _random_member_stack(7)
    assert len(stack[0]) > 1
    _solve_member(*stack, 0)
    assert len(calls) == 1
    solve_stack(*stack)
    assert len(calls) == 1
    LinearProgram(1, np.ones(1), upper=[1.0]).solve()
    assert len(calls) == 2


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
    out = lp.solve()
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
    p_out = primal.solve()
    d_out = dual.solve()
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
    out_a = base.solve()
    out_b = permuted.solve()
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
    mine = lp.solve()
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

def _shared(rows, members, n):
    """Rows ``(coefficients, relation, rhs)`` every member shares, as the
    broadcast arrays ``(A, relations, rhs)`` of a stack."""
    A = np.array([c for c, _, _ in rows], dtype=float).reshape(-1, n)
    relations = np.array([rel for _, rel, _ in rows], dtype=str)
    rhs = np.array([b for _, _, b in rows], dtype=float)
    return (
        np.broadcast_to(A, (members, *A.shape)),
        np.broadcast_to(relations, (members, relations.size)),
        np.broadcast_to(rhs, (members, rhs.size)),
    )


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
    return (*_shared(constraints, members, n), lower, upper, draw((members, n)))


def _random_member_stack(seed, real=False):
    """A stack whose members have their own rows: each row is either shared
    (one row set for every member) or holds per-member coefficients,
    right-hand sides and relations, so equalities sit at different rows in
    different members and the members' standardized row counts differ."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7 if real else 5))
    if real:
        def draw(size):
            return rng.uniform(-1.0, 1.0, size)
    else:
        def draw(size):
            return rng.integers(-2, 3, size) / 2.0
    members = int(rng.integers(2, 9))
    m = int(rng.integers(1, 6))
    A = np.empty((members, m, n))
    relations = np.empty((members, m), dtype="<U2")
    rhs = np.empty((members, m))
    for i in range(m):
        if rng.random() < 0.25:
            A[:, i], relations[:, i], rhs[:, i] = (
                draw(n), ("<=", "=", ">=")[rng.integers(3)], float(draw(1)[0])
            )
        else:
            relations[:, i] = np.array(["<=", "=", ">="])[rng.integers(3, size=members)]
            A[:, i], rhs[:, i] = draw((members, n)), draw(members)
    lower = np.where(rng.random((members, n)) < 0.5, 0.0, draw((members, n)))
    upper = np.where(rng.random((members, n)) < 0.5, np.inf, lower + np.abs(draw((members, n))))
    return A, relations, rhs, lower, upper, draw((members, n))


def _solve_member(A, relations, rhs, lower, upper, objective, k):
    """Member k of a stack, solved alone."""
    return solve_lp(A[k], relations[k], rhs[k], lower[k], upper[k], objective[k])


def _outcome_bytes(out):
    return (
        out.status,
        None if out.solution is None else out.solution.tobytes(),
        None if out.objective_value is None else np.float64(out.objective_value).tobytes(),
    )


def _assert_stack_is_scalar(*stack):
    """Each member of ``(A, relations, rhs, lower, upper, objective)``
    bitwise as solve_lp, also when the stack is permuted or split; returns
    the statuses."""
    try:
        want = [
            _outcome_bytes(_solve_member(*stack, k)) for k in range(len(stack[0]))
        ]
    except SolverError:
        with pytest.raises(SolverError):
            solve_stack(*stack)
        return []

    def solved(part):
        return [_outcome_bytes(out) for out in solve_stack(*(a[part] for a in stack))]

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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_members_agree_with_scipy_linprog(seed, real):
    # the scalar and stack paths share one standardization, so the bitwise
    # tests above cannot catch a fault in it: each member's status and
    # objective against scipy's, over mixed relations, shifted lower bounds
    # and finite caps. HiGHS's presolve can call an unbounded LP
    # infeasible, so a zero objective decides feasibility.
    A, relations, rhs, lower, upper, objective = _random_member_stack(seed, real)
    for k in range(len(A)):
        mine = _solve_member(A, relations, rhs, lower, upper, objective, k)
        le, eq, ge = (relations[k] == rel for rel in ("<=", "=", ">="))
        ub = np.concatenate((A[k][le], -A[k][ge])), np.concatenate((rhs[k][le], -rhs[k][ge]))
        rows = (*(ub if len(ub[0]) else (None, None)),
                *((A[k][eq], rhs[k][eq]) if eq.any() else (None, None)))
        bounds = list(zip(lower[k], upper[k]))
        ref = scipy.optimize.linprog(-objective[k], *rows, bounds=bounds)
        feasible = scipy.optimize.linprog(0 * objective[k], *rows, bounds=bounds).status == 0
        if not feasible:
            assert mine.status == INFEASIBLE
        elif ref.status == 0:
            assert mine.status == OPTIMAL
            assert mine.objective_value == pytest.approx(-ref.fun, abs=1e-7)
        else:
            assert mine.status == UNBOUNDED


_HALVES = st.integers(-4, 4).map(lambda v: v / 2.0)
_REALS = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _small_lps(draw, values):
    """One LP ``(A, relations, rhs, lower, upper, objective)`` with up to
    four rows of every relation and four variables, whose lower bounds are
    mostly nonzero and whose upper bounds are finite or not."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def vector(size, elements=values):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)

    lower = vector(n)
    gaps = vector(n, st.one_of(st.just(np.inf), _HALVES.map(abs)))
    return (
        vector(m * n).reshape(m, n),
        np.array(draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))),
        vector(m),
        lower,
        lower + gaps,
        vector(n),
    )


def _padded(lp, height, width):
    """``lp`` with zero columns (objective 0, bounds [0, inf)) and ``0 <= 0``
    rows after its own, to ``height`` rows and ``width`` columns."""
    A, relations, rhs, lower, upper, objective = lp
    rows, cols = height - A.shape[0], width - A.shape[1]
    return (
        np.pad(A, ((0, rows), (0, cols))),
        np.concatenate((relations, np.full(rows, "<="))),
        np.pad(rhs, (0, rows)),
        np.pad(lower, (0, cols)),
        np.pad(upper, (0, cols), constant_values=np.inf),
        np.pad(objective, (0, cols)),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from([_HALVES, _REALS]).flatmap(
        lambda values: st.lists(_small_lps(values), min_size=2, max_size=3)
    ),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_padded_members_match_their_own_lps_bitwise(lps, extra_rows, extra_cols):
    # members of different sizes padded to one shape, as the oracle pads its
    # support LPs: each member's status, solution prefix and objective are
    # those of solve_lp on its own LP, and its padding columns stay at 0
    height = max(lp[0].shape[0] for lp in lps) + extra_rows
    width = max(lp[0].shape[1] for lp in lps) + extra_cols
    stack = [np.stack(parts) for parts in zip(*(_padded(lp, height, width) for lp in lps))]
    try:
        want = [_outcome_bytes(solve_lp(*lp)) for lp in lps]
    except SolverError:
        with pytest.raises(SolverError):
            solve_stack(*stack)
        return
    got = []
    for lp, out in zip(lps, solve_stack(*stack)):
        n = lp[0].shape[1]
        if out.solution is not None:
            assert not out.solution[n:].any()
            out = LpOutcome(out.status, out.solution[:n], out.objective_value)
        got.append(_outcome_bytes(out))
    assert got == want


def _degenerate_vertex(A, rhs, lower, upper, x):
    """Whether more constraints and bounds are active at x than there are
    variables."""
    active = sum(abs(float(c @ x) - b) <= 1e-12 for c, b in zip(A, rhs))
    active += int(np.sum(np.abs(x - lower) <= 1e-12) + np.sum(np.abs(x - upper) <= 1e-12))
    return active > len(x)


def test_member_row_stacks_reach_every_status():
    seen = set()
    degenerate = 0
    for seed in range(60):
        stack = _random_member_stack(seed)
        seen.update(_assert_stack_is_scalar(*stack))
        A, _, rhs, lower, upper, _ = stack
        for k in range(len(A)):
            out = _solve_member(*stack, k)
            degenerate += out.status == OPTIMAL and _degenerate_vertex(
                A[k], rhs[k], lower[k], upper[k], out.solution
            )
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
    assert _assert_stack_is_scalar(*_shared(constraints, 4, 2), lower, upper, objective)


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


def _region_stack(seed):
    """A stack over a few regions, each under several objectives, with its
    members shuffled; returns it and the number of regions. The regions are
    drawn ones on the half-integer grid, an infeasible one, and a copy of
    the first whose first right-hand side is -0.0 where the first's is 0.0."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))

    def draw(size):
        return rng.integers(-2, 3, size) / 2.0

    regions = []
    for _ in range(rng.integers(1, 4)):
        lower = np.where(rng.random(n) < 0.5, 0.0, draw(n))
        upper = np.where(rng.random(n) < 0.5, np.inf, lower + np.abs(draw(n)))
        relations = np.array(["<=", "=", ">="])[rng.integers(3, size=m)]
        regions.append([draw((m, n)), relations, draw(m), lower, upper])
    regions[0][2][0] = 0.0
    signed = [a.copy() for a in regions[0]]
    signed[2][0] = -0.0
    infeasible = np.zeros((m, n))
    infeasible[0, 0] = 1.0  # x_0 >= 1.5 under x_0 <= 1
    regions += [
        signed,
        [infeasible, np.array([">="] + ["<="] * (m - 1)), np.eye(m)[0] * 1.5,
         np.zeros(n), np.ones(n)],
    ]
    members = [(r, draw(n)) for r in range(len(regions)) for _ in range(rng.integers(1, 5))]
    members = [members[k] for k in rng.permutation(len(members))]
    stack = [np.array([regions[r][i] for r, _ in members]) for i in range(5)]
    return (*stack, np.array([c for _, c in members])), len(regions)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 100_000))
def test_repeated_regions_match_solve_lp_bitwise(seed):
    # members sharing a region share its phase 1 and still get solve_lp's
    # bits; phase 1 runs once per region, and the -0.0 copy is its own
    stack, regions = _region_stack(seed)
    statuses = _assert_stack_is_scalar(*stack)
    assert INFEASIBLE in statuses or not statuses
    solved = []
    real = lp_module._phase_one

    def counted(A, *rest):
        solved.append(len(A))
        return real(A, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_phase_one", counted)
        try:
            solve_stack(*stack)
        except SolverError:
            return
    assert solved == [regions]


@pytest.mark.parametrize("value", [-1e-12, -1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["zero", "sum", "lp", "eq", "dedup"])
def test_tolerances_reject_negative_and_non_finite_values(name, value):
    with pytest.raises(ParameterError, match=f"the {name} tolerance"):
        Tolerances(**{name: value})
    with pytest.raises(ParameterError, match=f"the {name} tolerance"):
        DEFAULT_TOLS.with_overrides(**{name: value})
    assert getattr(Tolerances(**{name: 0.0}), name) == 0.0


def _assert_chunks_match(stack, monkeypatch):
    """The stack repeated five times, solved whole and one member per
    chunk, with the same bytes."""
    picks = np.tile(np.arange(len(stack[0])), 5)
    stack = [a[picks] for a in stack]
    whole = [_outcome_bytes(out) for out in solve_stack(*stack)]
    monkeypatch.setattr(lp_module, "STACK_FLOATS", 1)  # one member per chunk
    chunked = [_outcome_bytes(out) for out in solve_stack(*stack)]
    assert chunked == whole


def test_chunked_stack_matches_one_stack(monkeypatch):
    _assert_chunks_match(_random_stack(7), monkeypatch)


def test_chunked_member_row_stack_matches_one_stack(monkeypatch):
    _assert_chunks_match(_random_member_stack(7), monkeypatch)


def test_stack_rejects_malformed_members(monkeypatch):
    # each malformed input raises before any pivot: with the chunk solver
    # stubbed to fail, only validation can raise
    good = {
        "A": np.ones((3, 1, 2)),
        "relations": np.array([["="], ["<="], [">="]]),
        "rhs": np.ones((3, 1)),
        "lower": np.zeros((3, 2)),
        "upper": np.full((3, 2), np.inf),
        "objective": np.ones((3, 2)),
    }
    assert len(solve_stack(**good)) == 3
    nan_row = good["A"].copy()
    nan_row[1, 0, 0] = np.nan
    bad = {
        # too few members, too many variables, one row not given per member
        "A": [np.ones((2, 1, 2)), np.ones((3, 1, 3)), np.ones((1, 2)), nan_row],
        "relations": [
            np.array([["="], ["<="]]),
            np.full((3, 2), "="),
            np.array([["="], ["<"], [">="]]),
        ],
        "rhs": [np.ones(3), np.ones((3, 2)), np.array([[1.0], [np.inf], [1.0]])],
        "lower": [np.full((3, 2), -np.inf)],
        "upper": [np.full((2, 2), np.inf), np.full((3, 2), -1.0)],
        "objective": [np.full((3, 2), np.nan)],
    }

    def no_pivot(*args):
        raise AssertionError("a chunk was solved")

    monkeypatch.setattr(lp_module, "_solve_chunk", no_pivot)
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValidationError):
                solve_stack(**{**good, name: value})
