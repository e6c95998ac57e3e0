import io
import json

import numpy as np
import pytest

import stablenash as sn
from stablenash import serialize
from stablenash.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_USAGE, run


def run_cli(monkeypatch, capsys, args, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
    def test_game_round_trip(self, meeting3):
        d = serialize.game_to_dict(meeting3)
        back = serialize.game_from_dict(d)
        assert np.array_equal(back.R, meeting3.R)
        assert np.array_equal(back.C, meeting3.C)

    def test_profile_round_trip(self):
        prof = sn.StrategyProfile.from_vectors([0.25, 0.75], [1, 0])
        back = serialize.profile_from_dict(serialize.profile_to_dict(prof))
        assert np.array_equal(back.row.probs, prof.row.probs)

    def test_embedded_round_trip(self, matching_pennies):
        emb = sn.embed(matching_pennies, 0.0002)
        back = serialize.embedded_from_dict(serialize.embedded_to_dict(emb))
        assert back.delta == emb.delta
        assert back.source_shape == 2
        assert np.array_equal(back.game.R, emb.game.R)

    def test_canonical_dumps_sorts_keys(self):
        assert serialize.canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


class TestPipelines:
    def test_generate_then_oracle(self, monkeypatch, capsys):
        code, game_json, _ = run_cli(
            monkeypatch, capsys, ["generate", "--family", "meeting", "--n", "3"]
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(monkeypatch, capsys, ["oracle"], stdin_text=game_json)
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["count"] == 6
        assert result["complete"] is True

    def test_solve_with_loose_eps_returns_pure(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(
            monkeypatch, capsys, ["generate", "--family", "random", "--n", "4",
                                  "--seed", "5"]
        )
        code, out, _ = run_cli(
            monkeypatch, capsys, ["solve", "--eps", "1.0"], stdin_text=game_json
        )
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["found"] is True
        assert result["support_sizes"] == [1, 1]

    def test_certify_zs_matching_pennies(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(monkeypatch, capsys, ["generate", "--family", "mp"])
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["certify-zs", "--alpha", "0.1", "--well-supported"],
            stdin_text=game_json,
        )
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["delta"] == pytest.approx(0.1, abs=1e-6)
        assert result["well_supported"]["delta_l"] == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize(
        "game, expected",
        [
            (
                sn.matching_pennies(),
                '{"alpha":0.1,"delta":0.09999999999999998,'
                '"max_objective":0.19999999999999996,"p_prime":[0.5,0.5],'
                '"q_prime":[0.5,0.5],"sandwich":{"not_stable":'
                '{"delta":0.04999999999999999,"eps":0.1},"stable":'
                '{"delta":0.19999999999999996,"eps":0.05}},"well_supported":'
                '{"delta_h":0.09999999999999998,"delta_l":0.09999999999999998,'
                '"not_stable":{"delta":0.04999999999999999,"eps":0.1},'
                '"stable":{"delta":0.19999999999999996,"eps":0.05}}}\n',
            ),
            (
                sn.random_constant_sum_game(4, 11),
                '{"alpha":0.1,"delta":0.8009009308768142,'
                '"max_objective":1.6018018617536285,'
                '"p_prime":[0.19909906912318578,0.0,0.8009009308768142,0.0],'
                '"q_prime":[0.0,0.0,0.6749116289696638,0.3250883710303362],'
                '"sandwich":{"not_stable":{"delta":0.4004504654384071,"eps":0.1},'
                '"stable":{"delta":1.6018018617536285,"eps":0.05}},'
                '"well_supported":{"delta_h":0.8009009308768142,'
                '"delta_l":0.2553348807791561,"not_stable":'
                '{"delta":0.12766744038957806,"eps":0.1},"stable":'
                '{"delta":1.6018018617536285,"eps":0.05}}}\n',
            ),
        ],
        ids=["matching_pennies", "constant_sum4"],
    )
    def test_certify_zs_well_supported_bytes(self, monkeypatch, capsys, game, expected):
        # the well-supported report reuses the plain certificate's minimax
        # solution, anchor and radius; the bytes are those of two separate
        # certifier calls
        game_json = serialize.canonical_dumps(serialize.game_to_dict(game))
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["certify-zs", "--alpha", "0.1", "--well-supported"],
            stdin_text=game_json,
        )
        assert code == EXIT_OK
        assert out == expected

    def test_certify_modes(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(monkeypatch, capsys, ["generate", "--family", "mp"])
        for mode, expect_positive in (("perturb", True), ("approx", True), ("ws", True)):
            code, out, _ = run_cli(
                monkeypatch, capsys,
                ["certify", "--mode", mode, "--eps", "0.05", "--trials", "4",
                 "--seed", "1"],
                stdin_text=game_json,
            )
            assert code == EXIT_OK
            report = json.loads(out)
            assert report["delta_hat"] >= 0.0
            assert report["epsilon"] == 0.05

    def test_embed_extract_pipeline(self, monkeypatch, capsys, tmp_path):
        _, game_json, _ = run_cli(monkeypatch, capsys, ["generate", "--family", "mp"])
        code, embedded_json, _ = run_cli(
            monkeypatch, capsys, ["embed", "--eps", "0.0002"], stdin_text=game_json
        )
        assert code == EXIT_OK
        eps = json.loads(embedded_json)["meta"]["eps"]
        code, solved, _ = run_cli(
            monkeypatch, capsys, ["solve", "--eps", str(eps)],
            stdin_text=embedded_json,
        )
        assert code == EXIT_OK
        profile_file = tmp_path / "profile.json"
        profile_file.write_text(solved)
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["extract", "--profile", str(profile_file)],
            stdin_text=embedded_json,
        )
        assert code == EXIT_OK
        extracted = json.loads(out)
        assert extracted["p"] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_probe_smoke(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(
            monkeypatch, capsys, ["generate", "--family", "meeting", "--n", "3"]
        )
        code, out, _ = run_cli(
            monkeypatch, capsys,
            ["probe", "--eps", "0.3", "--delta", "0.02", "--trials", "5",
             "--seed", "3"],
            stdin_text=game_json,
        )
        assert code == EXIT_OK
        assert json.loads(out)["row"]["trials"] == 5


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["oracle", "--bogus"])
        assert code == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, ["frobnicate"])
        assert code == EXIT_USAGE

    def test_malformed_game_is_validation_error(self, monkeypatch, capsys):
        code, _, err = run_cli(
            monkeypatch, capsys, ["oracle"], stdin_text='{"R": [[0]]}'
        )
        assert code == EXIT_INVALID

    def test_bad_json_is_validation_error(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, ["oracle"], stdin_text="not json")
        assert code == EXIT_INVALID

    def test_budget_exhaustion(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(
            monkeypatch, capsys, ["generate", "--family", "meeting", "--n", "5"]
        )
        code, _, err = run_cli(
            monkeypatch, capsys, ["oracle", "--budget", "5"], stdin_text=game_json
        )
        assert code == EXIT_BUDGET

    def test_domain_error_maps_to_invalid(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(
            monkeypatch, capsys, ["generate", "--family", "meeting", "--n", "3"]
        )
        code, _, _ = run_cli(
            monkeypatch, capsys, ["certify-zs", "--alpha", "0.1"],
            stdin_text=game_json,
        )
        assert code == EXIT_INVALID  # meeting game is not constant-sum


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(
            monkeypatch, capsys, ["generate", "--family", "meeting", "--n", "3"]
        )
        args = ["certify", "--mode", "ws", "--eps", "0.05", "--trials", "8",
                "--seed", "42"]
        _, out_a, _ = run_cli(monkeypatch, capsys, args, stdin_text=game_json)
        _, out_b, _ = run_cli(monkeypatch, capsys, args, stdin_text=game_json)
        assert out_a == out_b

    def test_tolerance_flags_accepted(self, monkeypatch, capsys):
        _, game_json, _ = run_cli(monkeypatch, capsys, ["generate", "--family", "mp"])
        code, out, _ = run_cli(
            monkeypatch, capsys, ["oracle", "--tol-eq", "1e-6"],
            stdin_text=game_json,
        )
        assert code == EXIT_OK
        assert json.loads(out)["method"]["tol_eq"] == 1e-6
