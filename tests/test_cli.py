"""Parsers, serializers, round-trips, and the command-line runner."""

import json
import math
import os
import subprocess
import sys

import pytest

import ltpdr
from conftest import model_path
from ltpdr.cli import (
    DistributionError,
    ParseError,
    main,
    parse_kripke,
    parse_mdp,
    parse_mrm,
    serialize_kripke,
    serialize_mdp,
    serialize_mrm,
)


class TestParseKripke:
    def test_reference_model(self, k1):
        text = "states 3\ninit 0\nsafe 0 1\ntrans\n0 1\n1 1\n2 2\n"
        assert parse_kripke(text) == k1

    def test_empty_initial(self):
        K = parse_kripke("states 1\ninit\nsafe 0\ntrans\n")
        assert K.state_count == 1 and K.initial == 0

    def test_out_of_range_index(self):
        with pytest.raises(ParseError) as exc:
            parse_kripke("states 2\ninit 5\nsafe 0\ntrans\n")
        assert exc.value.line == 2

    def test_unsafe_complement(self):
        K = parse_kripke("states 3\ninit 0\nunsafe 2\ntrans\n")
        assert K.safe == 0b011

    def test_comments_and_blanks_ignored(self, k1):
        text = ("# header\nstates 3\n\ninit 0  # the start\nsafe 0 1\n"
                "trans\n0 1\n1 1\n2 2\n")
        assert parse_kripke(text) == k1

    def test_duplicate_transitions_deduplicated(self):
        K = parse_kripke("states 2\ninit 0\nsafe 0 1\ntrans\n0 1\n0 1\n")
        assert K.transitions == frozenset({(0, 1)})

    def test_missing_section(self):
        with pytest.raises(ParseError):
            parse_kripke("states 2\ninit 0\ntrans\n")


class TestParseMdp:
    SRC = ("states 3\nactions 1\ninit 0\nlambda 0.6\nsafe 0 1\ntrans\n"
           "0 0 -> 1:0.5 2:0.5\n1 0 -> 1:1\n2 0 -> 2:1\n")

    def test_reference_model(self):
        M = parse_mdp(self.SRC)
        assert M.state_count == 3 and M.threshold == 0.6
        assert M.delta[0][0] == ((1, 0.5), (2, 0.5))

    def test_fractions(self):
        M = parse_mdp(self.SRC.replace("1:0.5 2:0.5", "1:1/2 2:1/2"))
        assert M.delta[0][0] == ((1, 0.5), (2, 0.5))

    def test_bad_distribution_sum(self):
        with pytest.raises(DistributionError) as exc:
            parse_mdp(self.SRC.replace("1:0.5 2:0.5", "1:0.5 2:0.4"))
        assert exc.value.state == 0 and exc.value.action == 0

    def test_threshold_outside_unit_interval(self):
        with pytest.raises(ParseError):
            parse_mdp(self.SRC.replace("lambda 0.6", "lambda 1.5"))


class TestParseMrm:
    SRC = ("states 2\ninit 0\nlambda 1.5\nsafe 0\ntrans\n"
           "0 -> (1,0):1/4 (1,1):3/4\n1 -> (0,1):1\n")

    def test_reference_model(self):
        M = parse_mrm(self.SRC)
        assert M.delta[0] == (((1, 0), 0.25), ((1, 1), 0.75))
        assert M.threshold == 1.5

    def test_lambda_inf(self):
        M = parse_mrm(self.SRC.replace("lambda 1.5", "lambda inf"))
        assert math.isinf(M.threshold)

    def test_negative_reward_rejected(self):
        with pytest.raises(ParseError):
            parse_mrm(self.SRC.replace("(1,0)", "(-1,0)"))

    def test_missing_init_rejected(self):
        with pytest.raises(ParseError):
            parse_mrm("states 2\nlambda 1\nsafe 0\ntrans\n0 -> (0,0):1\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["k1.kr", "k1_unsafe.kr",
                                      "micro_latch.kr", "micro_counter.kr",
                                      "simple_trans.kr"])
    def test_kripke_corpus(self, name):
        with open(model_path(name)) as fh:
            model = parse_kripke(fh.read())
        assert parse_kripke(serialize_kripke(model)) == model

    @pytest.mark.parametrize("name", ["m1.mdp", "grid3x3.mdp"])
    def test_mdp_corpus(self, name):
        with open(model_path(name)) as fh:
            model = parse_mdp(fh.read())
        assert parse_mdp(serialize_mdp(model)) == model

    @pytest.mark.parametrize("name", ["die_by_coin.mrm",
                                      "die_by_coin_tight.mrm"])
    def test_mrm_corpus(self, name):
        with open(model_path(name)) as fh:
            model = parse_mrm(fh.read())
        assert parse_mrm(serialize_mrm(model)) == model


class TestRunner:
    def test_safe_kripke_exit_zero(self, capsys):
        code = main(["kripke-forward", model_path("k1.kr"),
                     "--validate-witness", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: True" in out
        assert "witness-valid: True" in out

    def test_unsafe_kripke_exit_ten(self, capsys):
        assert main(["kripke-forward", model_path("k1_unsafe.kr")]) == 10
        assert "RESULT: False" in capsys.readouterr().out

    def test_mrm_false_exit_ten(self):
        assert main(["mrm", model_path("die_by_coin_tight.mrm")]) == 10

    def test_budget_exhausted_exit_two(self):
        code = main(["kripke-forward", model_path("k1.kr"),
                     "--engine", "negative", "--budget", "50"])
        assert code == 2

    def test_parse_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.kr"
        bad.write_text("states 2\ninit 9\nsafe 0\ntrans\n")
        assert main(["kripke-forward", str(bad)]) == 1

    def test_missing_file_exit_one(self):
        assert main(["kripke-forward", "/nonexistent.kr"]) == 1

    def test_opdual_restricted_to_kripke(self):
        assert main(["mdp", model_path("m1.mdp"), "--engine", "opdual"]) == 1

    def test_opdual_on_kripke(self):
        assert main(["kripke-ibackward", model_path("k1.kr"),
                     "--engine", "opdual"]) == 0

    def test_json_schema_stable(self, capsys):
        for args, _expected in [
                (["kripke-forward", model_path("k1.kr")], 0),
                (["kripke-forward", model_path("k1_unsafe.kr")], 10),
                (["mdp", model_path("m1.mdp"), "--oracle"], 0),
                (["mrm", model_path("die_by_coin.mrm")], 0)]:
            main(args + ["--json"])
            report = json.loads(capsys.readouterr().out)
            assert set(report) == {"verdict", "witness", "stats", "oracle"}
            assert report["stats"] is not None

    @pytest.mark.parametrize("name, code", [("k1.kr", 0), ("k1_unsafe.kr", 10)])
    def test_opdual_witness_is_validated(self, name, code, capsys):
        # The certificate lives on the opposite lattice and is checked there.
        assert main(["kripke-forward", model_path(name), "--engine", "opdual",
                     "--validate-witness"]) == code
        assert "witness-valid: True" in capsys.readouterr().out

    def test_trace_flag(self, capsys):
        main(["kripke-forward", model_path("k1.kr"), "--trace"])
        out = capsys.readouterr().out
        assert "step=1 rule=" in out and "obligations=" in out

    def test_trace_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("LTPDR_TRACE", "1")
        main(["kripke-forward", model_path("k1.kr")])
        assert "step=1 rule=" in capsys.readouterr().out

    def test_positive_engine_on_mdp(self):
        assert main(["mdp", model_path("m1.mdp"), "--engine", "positive",
                     "--budget", "500"]) == 0


@pytest.mark.parametrize("kind, text", [
    ("mrm", "states 2\ninit 0\nlambda 1\nsafe 0\ntrans\n"
            "0 -> (1,0):nan\n1 -> (0,1):1\n"),
    ("mdp", "states 2\nactions 1\ninit 0\nlambda 0.5\nsafe 0\ntrans\n"
            "0 0 -> 0:nan 1:1\n1 0 -> 1:1\n"),
], ids=["mrm", "mdp"])
def test_nan_probability_exit_one(kind, text, tmp_path):
    # NaN compares false both ways, so a sum test written as
    # ``abs(total - 1) > tol`` let it through and the solve crashed.
    assert "nan" in rejected(kind, text, tmp_path)


def rejected(kind, text, tmp_path) -> str:
    """Run the command line on the model ``text``; it must exit 1 with an
    ``error:`` message and no traceback, which is returned."""
    path = tmp_path / f"model.{kind}"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ltpdr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "ltpdr.cli", kind, str(path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    return out.stderr


BIG = "9" * 400


@pytest.mark.parametrize("kind, text, message", [
    # int / int overflows a float: OverflowError, not ValueError.
    ("mrm", f"states 1\ninit 0\nlambda {BIG}/1\nsafe 0\ntrans\n0 -> (1,0):1\n",
     "bad threshold"),
    # Parsed as an int, the reward overflowed on the first F call.
    ("mrm", f"states 2\ninit 0\nlambda 1\nsafe 0\ntrans\n0 -> ({BIG},1):1\n"
            "1 -> (0,1):1\n", "too large"),
    # Rejected before parse_mdp allocates its states x actions table.
    ("mdp", f"states {BIG}\nactions 1\ninit 0\nlambda 0.5\nsafe 0\ntrans\n",
     "exceeds the limit"),
    ("mdp", f"states 1\nactions {BIG}\ninit 0\nlambda 0.5\nsafe 0\ntrans\n",
     "exceeds the limit"),
    ("kripke-forward", f"states {BIG}\ninit 0\nsafe 0\ntrans\n",
     "exceeds the limit"),
], ids=["lambda-overflow", "reward-overflow", "mdp-states", "mdp-actions",
        "kripke-states"])
def test_hostile_model_exit_one(kind, text, message, tmp_path):
    assert message in rejected(kind, text, tmp_path)


def test_library_import_loads_no_numpy():
    # The library has no runtime dependencies; numpy would add most of the
    # import time and memory of a command-line run.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ltpdr.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import ltpdr.cli, ltpdr.oracles; print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
