"""Each output check of the benchmark passes on a correct output and fails on
a broken one. Run with ``PYTHONPATH=src python3 -m pytest bench/test_checks.py``."""

import numpy as np

import checks

MP_R = np.array([[1.0, 0.0], [0.0, 1.0]])
MP_C = 1.0 - MP_R
HALF = np.array([0.5, 0.5])


def _random_game(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, n)), rng.uniform(size=(n, n))


def test_regrets_flag_a_non_equilibrium():
    assert checks.check_equilibria(MP_R, MP_C, [(HALF, HALF)]) == []
    bad = (np.array([0.7, 0.3]), HALF)
    assert checks.check_equilibria(MP_R, MP_C, [bad])
    regret, gap = checks.regrets(MP_R, MP_C, *bad)
    # q = 1/2 leaves the row player indifferent; the column player faces
    # payoffs (0.3, 0.7) and plays both.
    assert np.isclose(regret, 0.2) and np.isclose(gap, 0.4)


def test_well_supported_gap_sees_a_bad_supported_action():
    R = np.array([[1.0, 1.0], [0.9, 0.9]])
    regret, gap = checks.regrets(R, 1.0 - R, np.array([0.99, 0.01]), HALF)
    assert gap > 0.09 and regret < 0.01


def test_reference_enumerator_on_closed_forms():
    (p, q), = checks.reference_equilibria(MP_R, MP_C)
    assert np.allclose(p, HALF) and np.allclose(q, HALF)
    # Coordination: two pure equilibria and the mixed one.
    R = np.array([[2.0, 0.0], [0.0, 1.0]])
    eqs = checks.reference_equilibria(R, R)
    assert len(eqs) == 3
    assert any(np.allclose(p, [1 / 3, 2 / 3]) for p, _ in eqs)


def test_census_with_one_equilibrium_removed_fails():
    R, C = _random_game(4, 3)
    ref = checks.reference_equilibria(R, C)
    assert len(ref) >= 3
    assert checks.check_census_random(R, C, ref, True, ref) == []
    problems = checks.check_census_random(R, C, ref[1:], True, ref)
    assert any("count" in m for m in problems)
    assert any("missing" in m for m in problems)
    assert any("even" in m for m in problems)
    assert checks.check_census_random(R, C, ref, False, ref)


def test_family_closed_forms_fail_on_wrong_censuses():
    n = 3
    R = np.zeros((n, n))
    R[0, :] = 0.5
    R[1:, 1:] = np.eye(n - 1)
    e = np.eye(n)
    assert checks.check_census_meeting(n, R, R.T, [(e[0], e[0])])
    i, j = np.arange(n)[:, None], np.arange(n)[None, :]
    pg_R = (0.75 * j - 0.25 * i) / n
    pg_C = (0.75 * i - 0.25 * j) / n
    assert checks.check_census_public_goods(pg_R, pg_C, [(e[0], e[0])]) == []
    assert checks.check_census_public_goods(pg_R, pg_C, [(e[1], e[1])])


def _perturbation_report(R, C, Rw, Cw, p, q, distance):
    return {
        "delta_hat": distance,
        "witnesses": [{
            "distance": distance,
            "profile": {"p": list(p), "q": list(q)},
            "perturbed_game": {"R": Rw.tolist(), "C": Cw.tolist()},
        }],
    }


def test_witness_game_shifted_by_two_eps_fails():
    eps = 0.05
    R, C = MP_R, MP_C
    good = _perturbation_report(R, C, R + eps, C, HALF, HALF, 0.0)
    assert checks.check_perturbation_report(R, C, eps, good, base=[(HALF, HALF)]) == []
    shifted = _perturbation_report(R, C, R + 2 * eps, C, HALF, HALF, 0.0)
    assert any("moved" in m for m in checks.check_perturbation_report(R, C, eps, shifted))


def test_perturbation_witness_must_be_an_equilibrium_at_the_reported_distance():
    R, C = MP_R, MP_C
    pure = np.array([1.0, 0.0])
    not_eq = _perturbation_report(R, C, R, C, pure, pure, 0.5)
    assert any("witness game" in m for m in checks.check_perturbation_report(R, C, 0.01, not_eq))
    wrong_distance = _perturbation_report(R, C, R, C, HALF, HALF, 0.3)
    assert checks.check_perturbation_report(R, C, 0.01, wrong_distance, base=[(HALF, HALF)])


def test_approximation_witness_must_pass_its_eps_test():
    far = np.array([0.8, 0.2])
    report = {"delta_hat": 0.3, "witnesses": [
        {"distance": 0.3, "profile": {"p": list(far), "q": list(HALF)}}]}
    assert checks.check_approximation_report(MP_R, MP_C, 0.05, False, report)
    near = np.array([0.52, 0.48])
    report = {"delta_hat": 0.02, "witnesses": [
        {"distance": 0.02, "profile": {"p": list(near), "q": list(HALF)}}]}
    assert checks.check_approximation_report(MP_R, MP_C, 0.05, False, report, [(HALF, HALF)]) == []
    report["delta_hat"] = 0.01
    assert checks.check_approximation_report(MP_R, MP_C, 0.05, False, report)


def test_certificate_relations():
    cert = {
        "p_prime": list(HALF), "q_prime": list(HALF), "delta": 0.1, "max_objective": 0.2,
        "well_supported": {"delta_l": 0.1, "delta_h": 0.1},
    }
    assert checks.check_certificate(MP_R, MP_C, 0.1, cert) == []
    assert checks.check_certificate(MP_R, MP_C, 0.1, dict(cert, max_objective=0.3))
    assert checks.check_certificate(MP_R, MP_C, 0.1, dict(cert, p_prime=[1.0, 0.0]))
    ws = {"delta_l": 0.2, "delta_h": 0.1}
    assert checks.check_certificate(MP_R, MP_C, 0.1, dict(cert, well_supported=ws))


def test_round_trip_regret_bound():
    eps = 0.0002
    assert checks.check_round_trip(MP_R, MP_C, eps, HALF, HALF) == []
    assert checks.check_round_trip(MP_R, MP_C, eps, [1.0, 0.0], [0.0, 1.0])


def test_samples_outside_the_mass_window_fail():
    R, C = MP_R, MP_C
    assert checks.check_samples(R, C, 0.01, False, [(HALF, HALF)], (1, 0.4, 0.6)) == []
    assert checks.check_samples(R, C, 0.01, False, [(HALF, HALF)], (1, 0.05, 0.4))
    assert checks.check_samples(R, C, 0.01, True, [(np.array([0.9, 0.1]), HALF)])


def test_probe_violations_fail():
    side = {"payoff_violations": 0, "distance_violations": 0, "max_payoff_drift": 0.03,
            "deviations": 5}
    assert checks.check_probe(0.05, {"row": side, "col": side}) == []
    assert checks.check_probe(0.05, {"row": dict(side, payoff_violations=1), "col": side})
    assert checks.check_probe(0.05, {"row": side, "col": dict(side, max_payoff_drift=0.06)})
    assert checks.check_probe(0.05, {"row": side, "col": dict(side, deviations=0)})


def test_small_support_must_keep_heavy_entries():
    p = np.concatenate([[0.5], np.full(50, 0.01)])
    delta = 1 / 16  # peeling stops once the heavy mass reaches 1 - 8*delta = 1/2
    assert checks.heavy_part(p, 1000.0, delta) == [0]
    out = p.copy()
    out[1:] = 0.0
    out[1:11] = 0.05
    assert checks.check_small_support(p, out, 0.05, delta, 100.0) == []
    moved = out.copy()
    moved[0], moved[1] = 0.45, 0.1
    assert checks.check_small_support(p, moved, 0.05, delta, 100.0)
    assert checks.check_small_support(p, out * 1.01, 0.05, delta, 100.0)
