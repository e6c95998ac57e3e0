"""Output checks computed with numpy alone, independent of stablenash.

Every function here takes plain arrays and returns a list of problems (empty
when the check passes), so a check that fails says why. Nothing imports the
package under test: regrets, the equilibrium reference and the closed forms
are recomputed from the payoff matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Entries at or below this are outside a strategy's support; it is the
# package's documented default zero tolerance.
SUPPORT_TOL = 1e-9
EQ_TOL = 1e-7


def regrets(R, C, p, q) -> tuple[float, float]:
    """(regret, well-supported gap) of the profile (p, q), each the max over
    both players."""
    R, C = np.asarray(R, float), np.asarray(C, float)
    p, q = np.asarray(p, float), np.asarray(q, float)
    row_pay = R @ q
    col_pay = p @ C
    regret = max(row_pay.max() - p @ row_pay, col_pay.max() - col_pay @ q)
    gap = max(
        row_pay.max() - row_pay[p > SUPPORT_TOL].min(),
        col_pay.max() - col_pay[q > SUPPORT_TOL].min(),
    )
    return max(0.0, float(regret)), max(0.0, float(gap))


def profile_distance(p, q, p2, q2) -> float:
    """Max of the two players' variation distances."""
    return 0.5 * max(
        float(np.abs(np.subtract(p, p2)).sum()),
        float(np.abs(np.subtract(q, q2)).sum()),
    )


def _tie_solutions(M: np.ndarray, k: int):
    """For every k-subset pair (S_own, S_opp): the distribution x on S_own
    that makes the opponent's actions S_opp tie under ``M[S_opp, S_own]``,
    with the tie level. Square systems stacked and solved at once."""
    n_opp, n_own = M.shape
    opp_sets = list(itertools.combinations(range(n_opp), k))
    own_sets = list(itertools.combinations(range(n_own), k))
    pairs = list(itertools.product(opp_sets, own_sets))
    A = np.zeros((len(pairs), k + 1, k + 1))
    for idx, (S_opp, S_own) in enumerate(pairs):
        A[idx, :k, :k] = M[np.ix_(S_opp, S_own)]
    A[:, :k, k] = -1.0
    A[:, k, :k] = 1.0
    b = np.zeros((len(pairs), k + 1, 1))
    b[:, k, 0] = 1.0
    sol = np.linalg.solve(A, b)[:, :, 0]
    return pairs, sol[:, :k], sol[:, k]


def reference_equilibria(R, C) -> list[tuple[np.ndarray, np.ndarray]]:
    """All equilibria of a nondegenerate square game by equal-support
    enumeration. In a nondegenerate game every equilibrium has supports of
    equal size and is the unique solution of its square tie systems."""
    R, C = np.asarray(R, float), np.asarray(C, float)
    n, m = R.shape
    if n != m:
        raise ValueError("reference enumeration needs a square game")
    found = []
    for k in range(1, n + 1):
        pairs_q, qs, us = _tie_solutions(R, k)  # rows S_p tie under q on S_q
        pairs_p, ps, vs = _tie_solutions(C.T, k)  # cols S_q tie under p on S_p
        p_index = {pair: i for i, pair in enumerate(pairs_p)}
        for i, (S_p, S_q) in enumerate(pairs_q):
            if (qs[i] <= 0).any():
                continue
            j = p_index[(S_q, S_p)]
            if (ps[j] <= 0).any():
                continue
            q = np.zeros(m)
            q[list(S_q)] = qs[i]
            p = np.zeros(n)
            p[list(S_p)] = ps[j]
            if (R @ q).max() > us[i] + 1e-12 or (p @ C).max() > vs[j] + 1e-12:
                continue
            found.append((p, q))
    return found


def check_equilibria(R, C, profiles) -> list[str]:
    """Every profile is an exact equilibrium: regret and well-supported gap
    at most 1e-7."""
    problems = []
    for idx, (p, q) in enumerate(profiles):
        regret, gap = regrets(R, C, p, q)
        if max(regret, gap) > EQ_TOL:
            problems.append(f"profile {idx}: regret {regret:.3g}, ws gap {gap:.3g}")
    return problems


def check_census_random(R, C, profiles, complete, reference) -> list[str]:
    """A random game's census matches the reference enumerator, has an odd
    count and reports itself complete."""
    problems = check_equilibria(R, C, profiles)
    if len(profiles) != len(reference):
        problems.append(f"count {len(profiles)}, reference {len(reference)}")
    if len(profiles) % 2 == 0:
        problems.append(f"even equilibrium count {len(profiles)}")
    if not complete:
        problems.append("census of a nondegenerate game is not complete")
    for p_ref, q_ref in reference:
        if not any(
            max(np.abs(p - p_ref).max(), np.abs(q - q_ref).max()) <= 1e-6
            for p, q in profiles
        ):
            problems.append(f"reference equilibrium {p_ref.round(4)}, {q_ref.round(4)} missing")
    return problems


def check_census_meeting(n, R, C, profiles) -> list[str]:
    """The n-action meeting game has n + n(n-1)/2 equilibria."""
    problems = check_equilibria(R, C, profiles)
    want = n + n * (n - 1) // 2
    if len(profiles) != want:
        problems.append(f"meeting({n}): {len(profiles)} equilibria, want {want}")
    return problems


def check_census_public_goods(R, C, profiles) -> list[str]:
    """Public goods has the single equilibrium where nobody contributes."""
    problems = check_equilibria(R, C, profiles)
    e0 = np.eye(R.shape[0])[0]
    if len(profiles) != 1:
        problems.append(f"public goods: {len(profiles)} equilibria, want 1")
    elif profile_distance(*profiles[0], e0, e0) > 1e-9:
        problems.append("public goods equilibrium is not zero contribution")
    return problems


def check_perturbation_report(R, C, eps, report, base=None) -> list[str]:
    """The witness game lies within eps of the input, the witness profile is
    an exact equilibrium of it, and its distance is delta_hat; with ``base``
    (the input game's full equilibrium set) that distance is recomputed."""
    problems = []
    delta_hat = report["delta_hat"]
    if not report["witnesses"]:
        return ["perturbation report has no witness"]
    w = report["witnesses"][0]
    Rw = np.asarray(w["perturbed_game"]["R"], float)
    Cw = np.asarray(w["perturbed_game"]["C"], float)
    shift = max(np.abs(Rw - R).max(), np.abs(Cw - C).max())
    if shift > eps + 1e-12:
        problems.append(f"witness game moved {shift:.6g} > eps {eps:.6g}")
    p, q = np.asarray(w["profile"]["p"]), np.asarray(w["profile"]["q"])
    problems += [f"witness game: {m}" for m in check_equilibria(Rw, Cw, [(p, q)])]
    if abs(w["distance"] - delta_hat) > 1e-12:
        problems.append(f"witness distance {w['distance']} != delta_hat {delta_hat}")
    if base is not None:
        d = min(profile_distance(p, q, bp, bq) for bp, bq in base)
        if abs(d - delta_hat) > 1e-6:
            problems.append(f"witness is {d:.6g} from the equilibrium set, delta_hat {delta_hat:.6g}")
    return problems


def check_approximation_report(R, C, eps, well_supported, report, base=None) -> list[str]:
    """The witness passes the mode's eps test and realizes delta_hat; with
    ``base`` its distance to the full equilibrium set is recomputed."""
    problems = []
    delta_hat = report["delta_hat"]
    if not report["witnesses"]:
        return [] if delta_hat == 0.0 else ["positive delta_hat without a witness"]
    w = report["witnesses"][0]
    p, q = np.asarray(w["profile"]["p"]), np.asarray(w["profile"]["q"])
    regret, gap = regrets(R, C, p, q)
    measure = gap if well_supported else regret
    if measure > eps + EQ_TOL:
        problems.append(f"witness fails its eps test: {measure:.6g} > {eps:.6g}")
    if abs(w["distance"] - delta_hat) > 1e-12:
        problems.append(f"witness distance {w['distance']} != delta_hat {delta_hat}")
    if base is not None:
        d = min(profile_distance(p, q, bp, bq) for bp, bq in base)
        if abs(d - delta_hat) > 1e-6:
            problems.append(f"witness is {d:.6g} from the equilibrium set, delta_hat {delta_hat:.6g}")
    return problems


def check_certificate(R, C, alpha, cert) -> list[str]:
    """A certify-zs --well-supported report: the anchor is an alpha-Nash
    profile, 0 <= delta_l <= delta_h = delta <= 1 and max_objective is
    2*delta."""
    problems = []
    regret, _ = regrets(R, C, cert["p_prime"], cert["q_prime"])
    if regret > alpha + EQ_TOL:
        problems.append(f"anchor regret {regret:.6g} > alpha {alpha}")
    delta = cert["delta"]
    ws = cert["well_supported"]
    if not (-1e-12 <= ws["delta_l"] <= ws["delta_h"] + 1e-12):
        problems.append(f"delta_l {ws['delta_l']} outside [0, delta_h {ws['delta_h']}]")
    if abs(ws["delta_h"] - delta) > 1e-9 or not 0.0 <= delta <= 1.0 + 1e-9:
        problems.append(f"delta_h {ws['delta_h']} vs delta {delta}")
    if abs(cert["max_objective"] - 2.0 * delta) > 1e-9:
        problems.append(f"max_objective {cert['max_objective']} != 2*delta")
    return problems


def check_round_trip(R_source, C_source, eps, p, q) -> list[str]:
    """An extracted profile is a (8*eps)^(1/4)-equilibrium of the source."""
    delta = (8.0 * eps) ** 0.25
    regret, _ = regrets(R_source, C_source, p, q)
    if regret > delta + EQ_TOL:
        return [f"source regret {regret:.6g} > delta {delta:.6g}"]
    return []


def check_samples(R, C, eps, well_supported, samples, mass_window=None) -> list[str]:
    """Every sampled profile passes the mode's eps test; with ``mass_window``
    (n, lo, hi) each strategy keeps mass in [lo, hi] on its first n actions."""
    problems = []
    for idx, (p, q) in enumerate(samples):
        regret, gap = regrets(R, C, p, q)
        measure = gap if well_supported else regret
        if measure > eps + EQ_TOL:
            problems.append(f"sample {idx} fails its eps test: {measure:.6g}")
        if mass_window is not None:
            n, lo, hi = mass_window
            for mass in (float(np.sum(p[:n])), float(np.sum(q[:n]))):
                if not lo - 1e-9 <= mass <= hi + 1e-9:
                    problems.append(f"sample {idx} mass {mass:.6g} outside [{lo}, {hi}]")
    return problems[:5]


def check_probe(eps, report) -> list[str]:
    """The split deviation kept both guarantees on every trial and ran."""
    problems = []
    for side in ("row", "col"):
        r = report[side]
        if r["payoff_violations"] or r["distance_violations"]:
            problems.append(f"{side}: {r['payoff_violations']} payoff, "
                            f"{r['distance_violations']} distance violations")
        if r["max_payoff_drift"] > eps + 1e-12:
            problems.append(f"{side}: drift {r['max_payoff_drift']:.6g} > eps {eps}")
        if r["deviations"] < 1:
            problems.append(f"{side}: no deviation was attempted")
    return problems


def heavy_part(probs, sample_size: float, delta: float) -> list[int]:
    """Greedy heavy set: peel the largest entries (lowest index first on
    ties) until every light entry is at most Pr[L]/S or the heavy mass
    reaches 1 - 8*delta."""
    probs = np.asarray(probs, float)
    order = sorted(np.nonzero(probs)[0], key=lambda i: (-probs[i], i))
    heavy = []
    for pos in range(len(order) + 1):
        light = order[pos:]
        light_mass = float(probs[light].sum()) if light else 0.0
        if not light or max(probs[light]) <= light_mass / sample_size + SUPPORT_TOL:
            break
        if 1.0 - light_mass >= 1.0 - 8.0 * delta - SUPPORT_TOL:
            break
        heavy.append(order[pos])
    return heavy


def light_sample_size(n: int, eps: float, delta: float, coeff: float) -> float:
    return coeff * (delta / eps) ** 2 * math.log(n)


def check_small_support(p_in, p_out, eps, delta, coeff) -> list[str]:
    """The compressed strategy keeps the heavy entries, stays inside the
    input support and has mass 1."""
    p_in, p_out = np.asarray(p_in, float), np.asarray(p_out, float)
    S = light_sample_size(len(p_in), eps, delta, coeff)
    heavy = heavy_part(p_in, S, min(delta, 0.125))
    problems = []
    if heavy and np.abs(p_out[heavy] - p_in[heavy]).max() > 1e-12:
        problems.append("heavy entries changed")
    if abs(p_out.sum() - 1.0) > 1e-9:
        problems.append(f"mass {p_out.sum()!r}")
    if ((p_out > 0) & (p_in <= 0)).any():
        problems.append("mass outside the input support")
    return problems
