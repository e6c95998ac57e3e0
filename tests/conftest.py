import itertools

import numpy as np
import pytest

import stablenash as sn
from stablenash import oracle, stability, support
from stablenash.config import DEFAULT_PARTITION_BUDGET, DEFAULT_TOLS
from stablenash.lp import OPTIMAL, LinearProgram, solve_lp

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def matching_pennies():
    return sn.matching_pennies()


@pytest.fixture(scope="session")
def meeting3():
    return sn.meeting_game(3)


@pytest.fixture(scope="session")
def gap_game():
    return sn.dominance_gap_game(0.1)


def naive_regrets(R, C, p, q, zero=1e-9):
    """Reference regrets via direct loops, independent of the library path."""
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    rows, cols = R.shape
    row_pay = [sum(R[i][j] * q[j] for j in range(cols)) for i in range(rows)]
    col_pay = [sum(C[i][j] * p[i] for i in range(rows)) for j in range(cols)]
    rv = sum(p[i] * row_pay[i] for i in range(rows))
    cv = sum(q[j] * col_pay[j] for j in range(cols))
    row_supp = [i for i in range(rows) if p[i] > zero]
    col_supp = [j for j in range(cols) if q[j] > zero]
    return {
        "row_regret": max(0.0, max(row_pay) - rv),
        "col_regret": max(0.0, max(col_pay) - cv),
        "row_ws_gap": max(0.0, max(row_pay) - min(row_pay[i] for i in row_supp)),
        "col_ws_gap": max(0.0, max(col_pay) - min(col_pay[j] for j in col_supp)),
    }


def random_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


def scalar_sampler(game, eps, count, seed, well_supported, eqs, steps=48, zero=1e-9):
    """Reference sampler: one sample at a time, through ``naive_regrets``.

    Draws p0, q0 and the target index per sample in the library's order and
    bisects each failing sample on its own; returns (p, q) vectors before
    cleaning, in sample order.
    """
    rng = np.random.default_rng(seed)
    rows, cols = game.shape
    key = ("row_ws_gap", "col_ws_gap") if well_supported else ("row_regret", "col_regret")

    def ok(p, q):
        rep = naive_regrets(game.R, game.C, p, q, zero)
        return max(rep[key[0]], rep[key[1]]) <= eps

    out = []
    for _ in range(count):
        p0 = rng.dirichlet(np.ones(rows))
        q0 = rng.dirichlet(np.ones(cols))
        target = eqs.equilibria[int(rng.integers(len(eqs)))]
        tp, tq = target.row.probs, target.col.probs
        if ok(p0, q0):
            out.append((p0, q0))
            continue
        lo, hi = 0.0, 1.0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if ok((1 - mid) * p0 + mid * tp, (1 - mid) * q0 + mid * tq):
                hi = mid
            else:
                lo = mid
        p = (1 - hi) * p0 + hi * tp
        q = (1 - hi) * q0 + hi * tq
        if ok(p, q):
            out.append((p, q))
    return out


def region_arrays(rows):
    """A region given as ``(coefficients, relation, rhs)`` rows, as the
    arrays ``(A, rel, b)`` of a subset-LP request."""
    return (
        np.array([c for c, _, _ in rows], dtype=float),
        np.array([rel for _, rel, _ in rows]),
        np.array([rhs for _, _, rhs in rows], dtype=float),
    )


def ws_region_rows(payoff, opp_support, eps):
    """Reference well-supported region, row by row: the mass row, then
    ``payoff[i] - payoff[a] >= -eps`` for each declared opponent action i
    and each other action a."""
    rows = [(np.ones(payoff.shape[1]), "=", 1.0)]
    for i in opp_support:
        for a in range(payoff.shape[0]):
            if a != i:
                rows.append((payoff[i, :] - payoff[a, :], ">=", -eps))
    return rows


def subset_max_distance(A, rels, b, ref, zero_upper, tol, values=None):
    """Reference largest L1 distance from ref to a subset-LP request's
    region: one scalar LP per subset M of ref's whole support, minimizing
    x(M), and twice the largest g(M) = ref(M) - min x(M); 0 when the region
    is empty. A dict ``values`` receives g(M) for each feasible M, keyed by
    M's sorted tuple of indices."""
    n = A.shape[1]
    support = [int(i) for i in np.nonzero(ref)[0]]
    best = 0.0
    for size in range(len(support) + 1):
        for M in itertools.combinations(support, size):
            lp = LinearProgram(n, upper=zero_upper.copy() if zero_upper is not None else None)
            for coeffs, rel, rhs in zip(A, rels, b):
                lp.add_constraint(coeffs, str(rel), rhs)
            obj = np.zeros(n)
            obj[list(M)] = -1.0
            lp.set_objective(obj, maximize=True)
            out = solve_lp(lp, tol)
            if out.status == OPTIMAL:
                g = sum(float(ref[i]) for i in M) + out.objective_value
                best = max(best, 2.0 * g)
                if values is not None:
                    values[M] = g
    return best


def scalar_support_lp(payoff, own_support, eq_rows, tol=DEFAULT_TOLS):
    """Reference support LP, built row by row as one ``LinearProgram``.

    ``payoff[a, :]`` is opponent action a's payoff as a function of the
    distribution on ``own_support``; actions in ``eq_rows`` tie at level u,
    all others stay at or below it, and the minimum supported probability t
    is maximized. Returns the distribution over every own action, or None.
    """
    k = len(own_support)
    cols = list(own_support)
    sub = payoff[:, cols]
    nv = k + 2  # k probabilities, then u, then t
    lp = LinearProgram(nv)
    lp.lower[k] = float(payoff.min()) - 1.0
    mass = np.zeros(nv)
    mass[:k] = 1.0
    lp.add_constraint(mass, "=", 1.0)
    for a in range(payoff.shape[0]):
        row = np.zeros(nv)
        row[:k] = sub[a]
        row[k] = -1.0
        lp.add_constraint(row, "=" if a in eq_rows else "<=", 0.0)
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


def unscreened_lp_pass(game, max_support, tol=DEFAULT_TOLS):
    """Reference LP loop: both LPs on every support pair, no screen.

    Visits every (|S_p|, |S_q|) size pair in the library's order and
    returns (equilibria, degenerate) as ``oracle._lp_pass`` does.
    """
    rows, cols = game.shape
    CT = np.ascontiguousarray(game.C.T)
    found = []
    degenerate = False
    for kp in range(1, max_support + 1):
        for kq in range(1, max_support + 1):
            for S_p in itertools.combinations(range(rows), kp):
                for S_q in itertools.combinations(range(cols), kq):
                    q = scalar_support_lp(game.R, S_q, S_p, tol)
                    if q is None:
                        continue
                    p = scalar_support_lp(CT, S_p, S_q, tol)
                    if p is None:
                        continue
                    if not oracle._admit(game, found, p, q, tol):
                        continue
                    if kp != kq:
                        degenerate = True
                        continue
                    P, Q = np.array([S_p]), np.array([S_q])
                    A = np.concatenate((
                        oracle._tie_systems(game.R[None], Q, P),
                        oracle._tie_systems(CT[None], P, Q),
                    ))
                    if (np.linalg.matrix_rank(A, tol=oracle._RANK_TOL) < kp + 1).any():
                        degenerate = True
    return found, degenerate


def unscreened_find_well_supported(game, eps, max_support=None, tol=DEFAULT_TOLS):
    """Reference well-supported search: both LPs on every support pair.

    Visits pairs by max(row size, col size), then lexicographically, and
    returns the first feasible one as a ``SearchResult``, or None.
    """
    rows, cols = game.shape
    cap = min(rows, cols)
    max_support = cap if max_support is None else min(max_support, cap)
    tried = 0
    for k in range(1, max_support + 1):
        for kp, kq in support._size_pairs(k):
            for S_p in itertools.combinations(range(rows), kp):
                for S_q in itertools.combinations(range(cols), kq):
                    tried += 1
                    profile = support.well_supported_feasible(game, S_p, S_q, eps, tol)
                    if profile is None:
                        continue
                    return support.SearchResult(
                        profile=profile,
                        support_sizes=(len(profile.row.support), len(profile.col.support)),
                        supports_tried=tried,
                        epsilon=sn.regrets(game, profile, tol).max_ws_gap,
                    )
    return None


def loop_midpoint_component(game, found, tol=DEFAULT_TOLS):
    """Reference midpoint check: one profile and one ``regrets`` per pair.

    Returns whether the midpoint of two listed equilibria is an equilibrium
    farther than ``tol.dedup`` from every listed one, as
    ``oracle._midpoint_component`` does.
    """
    for a, b in itertools.combinations(found, 2):
        mid = sn.StrategyProfile.from_vectors(
            0.5 * (a.row.probs + b.row.probs),
            0.5 * (a.col.probs + b.col.probs),
            tol,
        )
        rep = sn.regrets(game, mid, tol)
        if rep.max_regret > tol.eq or rep.max_ws_gap > tol.eq:
            continue
        if all(sn.profile_distance(mid, e) > tol.dedup for e in found):
            return True
    return False


def unscreened_ws_candidates(game, eps, base, tol=DEFAULT_TOLS):
    """Reference declared-support search: both feasibility LPs on every pair.

    Visits every row subset (by size, then lexicographically), then every
    column subset, and returns the labelled candidates as
    ``stability._ws_candidates`` does.
    """
    rows, cols = game.shape
    CT = np.ascontiguousarray(game.C.T)

    def subsets(n):
        return [S for k in range(1, n + 1) for S in itertools.combinations(range(n), k)]

    out = []
    for S_p in subsets(rows):
        for S_q in subsets(cols):
            q_region = region_arrays(ws_region_rows(game.R, S_p, eps))
            q_upper = np.zeros(cols)
            q_upper[list(S_q)] = np.inf
            q_feas = stability._feasible_point(*q_region, q_upper, tol)
            if q_feas is None:
                continue
            p_region = region_arrays(ws_region_rows(CT, S_q, eps))
            p_upper = np.zeros(rows)
            p_upper[list(S_p)] = np.inf
            p_feas = stability._feasible_point(*p_region, p_upper, tol)
            if p_feas is None:
                continue
            label = f"ws-lp:{S_p}:{S_q}"
            out.append((label, sn.StrategyProfile.from_vectors(p_feas, q_feas, tol)))
            for r_idx, ref in enumerate(base.equilibria):
                (p_sweep,) = stability.subset_sweep(
                    [(*p_region, ref.row.probs, p_upper)], DEFAULT_PARTITION_BUDGET, tol
                )
                (q_sweep,) = stability.subset_sweep(
                    [(*q_region, ref.col.probs, q_upper)], DEFAULT_PARTITION_BUDGET, tol
                )
                p_far = stability._farthest(p_sweep, p_feas)
                q_far = stability._farthest(q_sweep, q_feas)
                out.append(
                    (f"{label}:ref:{r_idx}", sn.StrategyProfile.from_vectors(p_far, q_far, tol))
                )
    return out


def profile_bytes(profile):
    """A profile's probability bytes and supports, for bitwise comparison."""
    return (
        profile.row.probs.tobytes(),
        profile.row.support,
        profile.col.probs.tobytes(),
        profile.col.support,
    )
