import numpy as np
import pytest

import stablenash as sn

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
