"""Parsers, serializers, round-trips, and the command-line runner."""

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import ltpdr
from conftest import model_path
from ltpdr import cli
from ltpdr.cli import (
    KINDS,
    ParseError,
    main,
    parse_kripke,
    parse_mdp,
    parse_mrm,
    serialize_kripke,
    serialize_mdp,
    serialize_mrm,
)
from ltpdr.kripke import KripkeStructure
from ltpdr.oracles import vi_max_reach
from util import random_kripke


def hostile_read(parse, text: str) -> str:
    """The message of the ParseError ``parse`` raises on ``text``, a large
    header with a short body, after checking that both the bulk decode and
    the checked read stay below 5 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    return str(exc.value)


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

    def test_hostile_header_allocates_no_table(self):
        text = "states 100000\ninit 0\nsafe 0\ntrans\n0 1\n1 100000\n"
        assert hostile_read(parse_kripke, text) == (
            "line 6: state index 100000 out of range (states 100000)")

    @pytest.mark.parametrize("text, line", [
        ("states 3\ninit 0 40000000\nsafe 0\ntrans\n0 1\n", 2),
        ("states 3\ninit 0\nsafe 1 40000000\ntrans\n0 1\n", 3),
    ], ids=["init", "safe"])
    def test_hostile_state_id_allocates_no_mask(self, text, line):
        # 1 << 40000000 is a 5 MB integer: the bulk decode checks each id
        # against the state count before it shifts.
        assert hostile_read(parse_kripke, text) == (
            f"line {line}: state index 40000000 out of range (states 3)")

    @pytest.mark.parametrize("text, error", [
        # Eight ends in range: only the arity check can reject them.
        ("states 3\ninit 0\nsafe 0\ntrans\n0 1\n1 2\n2 2 1\n1\n",
         "line 7: transition lines are 'src dst'"),
        ("states 3\ninit 0\nsafe 0\ntrans\n0 1\n# note\n1 x\n2 7\n",
         "line 7: bad state index 'x'"),
        ("states 3\ninit 0\nsafe 0\ntrans\n0 1\n\n1 2\n2 3\n2\n",
         "line 8: state index 3 out of range (states 3)"),
        ("states 3\ninit 0\nsafe 0\ntrans\n0 1\n-1 2\n",
         "line 6: state index -1 out of range (states 3)"),
        ("states 3\ninit 0 2 y 9\nsafe 0\ntrans\n", "line 2: bad state index 'y'"),
        ("states 3\ninit 0\nunsafe 1 2 3 z\ntrans\n",
         "line 3: state index 3 out of range (states 3)"),
    ], ids=["arity", "not-int", "out-of-range", "negative", "init", "unsafe"])
    def test_first_bad_line_is_reported(self, text, error):
        # The ids of a section are converted in bulk; the error must still
        # name the first bad line, with the message of a line-by-line read.
        with pytest.raises(ParseError) as exc:
            parse_kripke(text)
        assert str(exc.value) == error


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
        with pytest.raises(ValueError, match="distribution at state 0 action 0 sums to 0.9"):
            parse_mdp(self.SRC.replace("1:0.5 2:0.5", "1:0.5 2:0.4"))

    def test_threshold_outside_unit_interval(self):
        with pytest.raises(ParseError):
            parse_mdp(self.SRC.replace("lambda 0.6", "lambda 1.5"))

    def test_hostile_header_allocates_no_table(self):
        # A header alone must not make the parser allocate a states x
        # actions table, and the state left without a line is named at the
        # last line.
        text = ("states 100000\nactions 100\ninit 0\nlambda 0.5\nsafe 0\n"
                "trans\n0 0 -> 0:1\n")
        assert hostile_read(parse_mdp, text) == "line 7: state 1 has no available action"


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

    def test_hostile_header_allocates_no_table(self):
        text = "states 100000\ninit 0\nlambda 0.5\nsafe 0\ntrans\n0 -> (0,0):1\n"
        assert hostile_read(parse_mrm, text) == "line 6: state 1 has no distribution"


@pytest.mark.parametrize("name, parse, bulk", [
    ("k1.kr", parse_kripke, cli._kripke_bulk), ("m1.mdp", parse_mdp, cli._mdp_bulk),
    ("die_by_coin.mrm", parse_mrm, None)])  # fractions: the checked read
def test_crlf_and_commented_copies_parse_alike(name, parse, bulk):
    # Line ends and comments are read in the same pass as the tokens: a
    # copy with CRLF line ends, or with a comment after every line and a
    # comment line between any two, is the same model, and the bulk decode
    # reads it when it reads the plain text.
    with open(model_path(name)) as fh:
        text = fh.read()
    commented = "".join(f"{line}  # note {i}\n# {line}\n"
                        for i, line in enumerate(text.splitlines()))
    for copy in (text.replace("\n", "\r\n"), commented):
        assert parse(copy) == parse(text)
        assert bulk is None or bulk(copy) == parse(text)


@pytest.mark.parametrize("parse, text, line", [
    (parse_kripke, "states 2\ninit 0\nsafe 0\ntrans bogus\n0 1\n", 4),
    (parse_mdp, TestParseMdp.SRC.replace("trans", "trans bogus tokens"), 6),
    (parse_mrm, TestParseMrm.SRC.replace("trans", "trans x"), 5),
], ids=["kr", "mdp", "mrm"])
def test_trans_takes_no_arguments(parse, text, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"line {line}: 'trans' takes no arguments"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["k1.kr", "k1_unsafe.kr",
                                      "micro_latch.kr", "micro_counter.kr",
                                      "simple_trans.kr"])
    def test_kripke_corpus(self, name):
        with open(model_path(name)) as fh:
            model = parse_kripke(fh.read())
        assert parse_kripke(serialize_kripke(model)) == model

    @staticmethod
    def shapes(rng):
        """Random structures, then chains, rings and layered graphs."""
        for _ in range(300):
            yield random_kripke(rng, 12)
        for n in (1, 2, 9, 70):
            yield KripkeStructure(n, frozenset((i, min(i + 1, n - 1)) for i in range(n)),
                                  1, (1 << n) - 1 >> 1)
            yield KripkeStructure(n, frozenset((i, (i + 1) % n) for i in range(n)),
                                  1, (1 << n) - 1)
        for width, depth in ((3, 4), (8, 12)):
            edges = frozenset((d * width + i, (d + 1) * width + rng.randrange(width))
                              for d in range(depth - 1) for i in range(width))
            yield KripkeStructure(width * depth, edges, (1 << width) - 1,
                                  rng.getrandbits(width * depth))

    def test_kripke_property(self):
        # Comments, blank lines and an ``unsafe`` line in place of ``safe``
        # must not change the model; succ/pred are not dataclass fields, so
        # they are compared with masks built here.
        rng = random.Random(0)
        for K in self.shapes(rng):
            lines = serialize_kripke(K).splitlines()
            if rng.random() < 0.5:
                unsafe = K.full_mask & ~K.safe
                lines[2] = "unsafe " + " ".join(
                    str(s) for s in range(K.state_count) if unsafe >> s & 1)
            for _ in range(rng.randint(0, 4)):
                i = rng.randint(0, len(lines))
                lines.insert(i, rng.choice(["", "  # note", "\t"]))
            if rng.random() < 0.5:
                lines[-1] += "  # trailing comment"
            P = parse_kripke("\n".join(lines))
            assert P == K
            n = K.state_count
            assert P.succ == tuple(sum(1 << b for a, b in K.transitions if a == s)
                                   for s in range(n))
            assert P.pred == tuple(sum(1 << a for a, b in K.transitions if b == s)
                                   for s in range(n))

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
        code = main(["kripke-forward", model_path("k1.kr"), "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: True" in out

    def test_unsafe_kripke_exit_ten(self, capsys):
        assert main(["kripke-forward", model_path("k1_unsafe.kr")]) == 10
        assert "RESULT: False" in capsys.readouterr().out

    def test_mrm_false_exit_ten(self):
        assert main(["mrm", model_path("die_by_coin_tight.mrm")]) == 10

    def test_budget_exhausted_exit_two(self, capsys):
        # The positive engine proves die_by_coin.mrm, but not in 5 steps.
        code = main(["mrm", model_path("die_by_coin.mrm"),
                     "--engine", "positive", "--budget", "5"])
        assert code == 2
        assert "RESULT: BudgetExhausted" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, name", [
        ("kripke-forward", "k1_unsafe.kr"), ("kripke-forward", "micro_counter.kr"),
        ("kripke-ibackward", "k1_unsafe.kr"), ("kripke-ibackward", "micro_counter.kr"),
        ("mdp", "grid3x3.mdp"), ("mrm", "die_by_coin_tight.mrm")])
    def test_positive_engine_is_stuck_on_a_false_model(self, kind, name, capsys):
        # Once the last frame exceeds alpha and no Induction applies, no
        # rule is left: the run stops at once instead of spinning to the
        # default budget.
        code = main([kind, model_path(name), "--engine", "positive", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["verdict"] == "Stuck"
        assert report["stats"]["steps"] <= 10

    def test_negative_engine_is_stuck_on_a_safe_cycle(self, capsys):
        # The unsafe state of k1.kr has a self-loop but is unreachable: the
        # iterates repeat at once, and a search from that state cannot end.
        code = main(["kripke-forward", model_path("k1.kr"), "--engine", "negative",
                     "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["verdict"] == "Stuck"
        assert report["stats"]["steps"] <= 3

    def test_negative_engine_refutes_the_grid(self, capsys):
        # lambda 0.3 lies below the value 0.4096.
        code = main(["mdp", model_path("grid3x3.mdp"), "--engine", "negative"])
        assert code == 10
        assert "RESULT: False" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_a_usage_error(self, budget, capsys):
        # The engine raised ValueError on such a budget, after parsing the
        # model, and the command line ended in a traceback.
        with pytest.raises(SystemExit) as exc:
            main(["kripke-forward", model_path("k1.kr"), "--budget", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --budget: expected a positive integer" in err

    def test_parse_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.kr"
        bad.write_text("states 2\ninit 9\nsafe 0\ntrans\n")
        assert main(["kripke-forward", str(bad)]) == 1

    def test_missing_file_exit_one(self):
        assert main(["kripke-forward", "/nonexistent.kr"]) == 1

    def test_engine_opdual_is_a_usage_error(self, capsys):
        # The dual question is the kripke-opdual kind, not an engine.
        for kind in KINDS:
            with pytest.raises(SystemExit) as exc:
                main([kind, "/nonexistent", "--engine", "opdual"])
            assert exc.value.code == 2
            assert "argument --engine: invalid choice: 'opdual'" in capsys.readouterr().err

    def test_opdual_on_kripke(self):
        assert main(["kripke-opdual", model_path("k1.kr")]) == 0

    def test_json_schema_stable(self, capsys):
        for args, _expected in [
                (["kripke-forward", model_path("k1.kr")], 0),
                (["kripke-forward", model_path("k1_unsafe.kr")], 10),
                (["mdp", model_path("m1.mdp"), "--oracle"], 0),
                (["mrm", model_path("die_by_coin.mrm")], 0),
                (["mrm", model_path("die_by_coin_tight.mrm")], 10)]:
            main(args + ["--json"])
            report = json.loads(capsys.readouterr().out)
            assert set(report) == {"verdict", "witness", "stats", "oracle"}
            assert report["stats"] is not None
            if args[0] in ("mdp", "mrm"):
                # A pointwise element is a list of numbers, "inf" for infinity.
                witness = report["witness"]
                elements = witness["frames" if witness["type"] == "kt"
                                   else "obligations"]
                entries = [v for e in elements for v in e]
                assert entries and all(
                    v == "inf" or type(v) is float for v in entries)

    @pytest.mark.parametrize("args, code, checked", [
        (["mdp", model_path("m1.mdp")], 0, True),
        (["kripke-forward", model_path("k1_unsafe.kr")], 10, True),
        (["mrm", model_path("die_by_coin.mrm"), "--engine", "positive",
          "--budget", "5"], 2, None)])
    def test_json_reports_the_witness_check(self, args, code, checked, capsys):
        # The engine checks every True/False certificate before it answers,
        # so the report has no key for the check: it carries a witness
        # exactly when there was one to check (None: an undecided run).
        assert main(args + ["--json"]) == code
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"verdict", "witness", "stats", "oracle"}
        assert (report["witness"] is not None) is bool(checked)

    @pytest.mark.parametrize("name, code", [("k1.kr", 0), ("k1_unsafe.kr", 10)])
    def test_opdual_witness_is_validated(self, name, code, capsys):
        # The certificate lives on the opposite lattice, and the engine
        # checks it there before it answers.
        assert main(["kripke-opdual", model_path(name)]) == code
        assert f"RESULT: {code == 0}" in capsys.readouterr().out

    @pytest.mark.parametrize("name, safe", [("k1.kr", False), ("k1_unsafe.kr", True)])
    def test_oracle_mismatch_exits_three(self, name, safe, monkeypatch, capsys):
        # The oracles agree on the corpus, so a stub stands in for a wrong one.
        monkeypatch.setattr(ltpdr.cli, "_oracle_report",
                            lambda oracle, model: {"safe": safe})
        assert main(["kripke-forward", model_path(name), "--oracle"]) == 3
        assert "verdict disagrees with the oracle" in capsys.readouterr().err

    def test_validate_witness_is_a_usage_error(self, capsys):
        # The engine checks every certificate itself; no option asks again.
        with pytest.raises(SystemExit) as exc:
            main(["kripke-forward", model_path("k1.kr"), "--validate-witness"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --validate-witness" in capsys.readouterr().err

    def test_trace_flag(self, capsys):
        main(["kripke-forward", model_path("k1.kr"), "--trace"])
        out = capsys.readouterr().out
        assert "step=1 rule=" in out and "obligations=" in out

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_oracle_without_convergence_is_undecided(self, flags, tmp_path,
                                                     monkeypatch, capsys):
        # Value iteration creeps towards this leak's value 1 by 1e-7 a step
        # and does not converge within its cap; a cap of 1,000 iterations
        # ends the same way in a fraction of the time.
        path = tmp_path / "leak.mdp"
        path.write_text("states 2\nactions 1\ninit 0\nlambda 0.5\nsafe 0\ntrans\n"
                        "0 0 -> 0:0.9999999 1:0.0000001\n1 0 -> 1:1\n")
        monkeypatch.setattr(vi_max_reach, "__defaults__", (1e-12, 1000))
        code = main(["mdp", str(path), "--oracle", "--budget", "50"] + flags)
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        if flags:
            report = json.loads(out)
            assert report["verdict"] == "BudgetExhausted"
            oracle = report["oracle"]
        else:
            assert "RESULT: BudgetExhausted" in out
            oracle = json.loads(out.split("oracle: ", 1)[1])
        assert oracle == {"name": "vi_max_reach", "safe": None,
                          "reason": "no convergence within 1000 iterations"}

    @pytest.mark.parametrize("lam, code", [("5", 10), ("inf", 0)])
    def test_oracle_on_an_infinite_reward(self, lam, code, tmp_path, capsys):
        # State 0 pays 1 and returns forever: the oracle diverges, which
        # refutes every finite threshold and agrees with lambda inf.
        path = tmp_path / "loop.mrm"
        path.write_text(f"states 2\ninit 0\nlambda {lam}\nsafe 0\ntrans\n"
                        "0 -> (1,0):1\n1 -> (0,1):1\n")
        assert main(["mrm", str(path), "--oracle", "--json"]) == code
        assert json.loads(capsys.readouterr().out)["oracle"] == {
            "name": "vi_expected_reward", "safe": lam == "inf", "value": "inf"}

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
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
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
    # Rejected before parse_mdp allocates a slot per state.
    ("mdp", f"states {BIG}\nactions 1\ninit 0\nlambda 0.5\nsafe 0\ntrans\n",
     "exceeds the limit"),
    ("mdp", f"states 1\nactions {BIG}\ninit 0\nlambda 0.5\nsafe 0\ntrans\n",
     "exceeds the limit"),
    ("kripke-forward", f"states {BIG}\ninit 0\nsafe 0\ntrans\n",
     "exceeds the limit"),
    # NaN passed ``lam < 0`` and was rejected without a line number.
    ("mrm", "states 1\ninit 0\nlambda nan\nsafe 0\ntrans\n0 -> (1,0):1\n",
     "error: line 3: threshold must be nonnegative"),
    # A Latin-1 comment is not UTF-8; reading it raised UnicodeDecodeError.
    ("mdp", TestParseMdp.SRC.encode() + b"# caf\xe9\n", "can't decode byte 0xe9"),
], ids=["lambda-overflow", "reward-overflow", "mdp-states", "mdp-actions",
        "kripke-states", "lambda-nan", "not-utf8"])
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
