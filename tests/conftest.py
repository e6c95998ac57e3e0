import itertools
import math

import numpy as np
import pytest

import stablenash as sn
from stablenash import oracle, stability, support
from stablenash.config import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_PARTITION_BUDGET,
    DEFAULT_TOLS,
    STACK_FLOATS,
)
from stablenash.errors import PreconditionError
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

    Draws each chunk as the library does, with the library's chunk size:
    the row starting points, the column starting points, then the target
    indices, one block call each. Then bisects each failing sample on its
    own; returns (p, q) vectors before cleaning, in sample order.
    """
    rng = np.random.default_rng(seed)
    rows, cols = game.shape
    key = ("row_ws_gap", "col_ws_gap") if well_supported else ("row_regret", "col_regret")
    chunk = max(1, STACK_FLOATS // (rows + cols))

    def ok(p, q):
        rep = naive_regrets(game.R, game.C, p, q, zero)
        return max(rep[key[0]], rep[key[1]]) <= eps

    out = []
    for start in range(0, count, chunk):
        m = min(chunk, count - start)
        P = rng.dirichlet(np.ones(rows), size=m)
        Q = rng.dirichlet(np.ones(cols), size=m)
        targets = rng.integers(len(eqs), size=m)
        for p0, q0, t in zip(P, Q, targets):
            target = eqs.equilibria[int(t)]
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


def naive_heavy_light_partition(p, S, delta, tol=DEFAULT_TOLS):
    """Reference heavy/light split: a Python sort and, before each move, a
    Python max over the whole light part (O(n^2) work). Returns the
    ``HeavyLightSplit`` the library's greedy rule makes."""
    probs = p.probs
    order = sorted(p.support, key=lambda i: (-probs[i], i))
    heavy = []
    pos = 0
    while True:
        light = order[pos:]
        light_mass = float(probs[light].sum()) if light else 0.0
        if not light or max(probs[i] for i in light) <= light_mass / S + tol.zero:
            terminated = "light-threshold"
            break
        if 1.0 - light_mass >= 1.0 - 8.0 * delta - tol.zero:
            terminated = "mass-threshold"
            break
        heavy.append(order[pos])
        pos += 1
    return support.HeavyLightSplit(
        heavy=tuple(sorted(heavy)),
        light=tuple(sorted(order[pos:])),
        beta=float(probs[heavy].sum()) if heavy else 0.0,
        terminated_by=terminated,
    )


def scalar_split_deviation(p, split, delta, rng, tol=DEFAULT_TOLS, retries=64):
    """Reference 3*delta split deviation, one coin draw per attempt and one
    ``from_probs`` per deviation; None when no draw is legal."""
    light = list(split.light)
    light_probs = p.probs[light]
    for _ in range(retries):
        coins = rng.integers(0, 2, size=len(light))
        up_mass = float(light_probs[coins == 1].sum())
        down_mass = float(light_probs[coins == 0].sum())
        if up_mass <= tol.zero or down_mass < 3.0 * delta + tol.zero:
            continue
        v = p.probs.copy()
        v[light] += 3.0 * delta * light_probs * (coins / up_mass - (1 - coins) / down_mass)
        out = sn.MixedStrategy.from_probs(v, tol, renormalize=False)
        assert abs(sn.variation_distance(p, out) - 3.0 * delta) <= 10.0 * tol.zero
        return out
    return None


def scalar_split_probe(game, eps, delta, trials, seed, profile, references, coeff,
                       tol=DEFAULT_TOLS):
    """Reference split probe: one deviation, one matvec and one
    ``variation_distance`` per reference at a time; returns the report
    ``random_split_probe`` makes."""
    rng = np.random.default_rng(seed)
    rows, cols = game.shape

    def side(strategy, payoff, refs, n):
        S = max(support.light_sample_size(n, eps, delta, coeff), 1.0)
        out = dict.fromkeys(("degenerate", "deviations", "payoff_violations",
                             "distance_violations"), 0)
        max_drift = 0.0
        split = naive_heavy_light_partition(strategy, S, min(delta, 0.125), tol)
        concentrated = 0
        if not split.light or 1.0 - split.beta < 8.0 * delta - tol.zero:
            concentrated = trials
        elif float(strategy.probs[list(split.light)].sum()) < 8.0 * delta - tol.zero and trials:
            raise PreconditionError("light mass below the 8*delta threshold")
        floors = [sn.variation_distance(strategy, ref) for ref in refs]
        for _ in range(trials - concentrated):
            dev = scalar_split_deviation(strategy, split, delta, rng, tol)
            if dev is None:
                out["degenerate"] += 1
                continue
            out["deviations"] += 1
            shift = (dev.probs - strategy.probs) @ payoff
            drift = float(shift.max() - shift.min())
            max_drift = max(max_drift, drift)
            out["payoff_violations"] += drift > eps + tol.zero
            out["distance_violations"] += any(
                sn.variation_distance(dev, ref) <= floor - delta
                for ref, floor in zip(refs, floors)
            )
        out.update(trials=trials, sample_size=S, concentrated=concentrated,
                   max_payoff_drift=max_drift)
        return out

    return {
        "eps": eps,
        "delta": delta,
        "row": side(profile.row, game.C, [r.row for r in references], rows),
        "col": side(profile.col, np.ascontiguousarray(game.R.T),
                    [r.col for r in references], cols),
        "reference_family": {
            "pure_difference_vectors": rows * rows + cols * cols,
            "reference_distributions": len(references),
            "log_reference_bound": sn.config.PROBE_REFERENCE_COEFF
            * (delta / eps) ** 2 * math.log(max(rows, cols)),
        },
    }


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


def scalar_admit(game, found, p, q, tol=DEFAULT_TOLS):
    """Reference admission of one candidate: append (p, q) to ``found`` if
    it verifies and is not within ``tol.dedup`` of a listed profile."""
    profile = sn.StrategyProfile.from_vectors(p, q, tol)
    report = sn.regrets(game, profile, tol)
    if max(report.max_regret, report.max_ws_gap) > tol.eq:
        return False
    if any(sn.profile_distance(profile, other) <= tol.dedup for other in found):
        return False
    found.append(profile)
    return True


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
                    if not scalar_admit(game, found, p, q, tol):
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


def scalar_estimate_witness(game, eps, mode, trials, seed, tol=DEFAULT_TOLS):
    """The approximation estimator's witness ``(distance, label, profile)``,
    or None, from its own candidates checked one at a time: one scalar
    ``regrets`` call and one ``distance_to_set`` call each, the earliest
    candidate kept on ties."""
    base = sn.enumerate_equilibria(game, tol=tol)
    if mode == stability.MODE_PLAIN:
        candidates = stability._plain_candidates(game, eps, base, tol)
    else:
        candidates = stability._ws_candidates(game, eps, base, DEFAULT_ENUM_BUDGET, tol)
    if trials > 0 and eps >= tol.eq:
        samples = stability.sample_approximate_equilibria(
            game, eps, trials, seed, mode=mode, eqs=base, tol=tol
        )
        candidates += [(f"sample:{i}", s) for i, s in enumerate(samples)]
    best = None
    for label, profile in candidates:
        rep = sn.regrets(game, profile, tol)
        measure = rep.max_ws_gap if mode == stability.MODE_WELL_SUPPORTED else rep.max_regret
        if measure > eps + tol.eq:
            continue
        d = oracle.distance_to_set(profile, base)
        if best is None or d > best[0] + tol.zero:
            best = (d, label, profile)
    return best


def profile_bytes(profile):
    """A profile's probability bytes and supports, for bitwise comparison."""
    return (
        profile.row.probs.tobytes(),
        profile.row.support,
        profile.col.probs.tobytes(),
        profile.col.support,
    )
