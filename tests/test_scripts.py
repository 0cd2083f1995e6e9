"""The corpus runner and the random differential check, run in-process."""

import importlib.util
import pathlib
from types import SimpleNamespace

import pytest

from ltpdr.engine import Verdict
from ltpdr.oracles import vi_expected_reward

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_corpus_agrees_with_oracles(capsys):
    assert load("run_corpus").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 19 and all(" agree=True " in line for line in lines)


def test_run_corpus_fails_on_an_undecided_run(capsys):
    # One step decides only a model whose first frames already collapse.
    assert load("run_corpus").main(["--budget", "1"]) == 1
    out, err = capsys.readouterr()
    assert " agree=- " in out and "undecided" in err


def test_random_differential_is_clean(capsys):
    # With the benchmark's budget of 500 steps, "budget exhausted: 0" also
    # says that every answer arrives within it, and "mismatches: 0" that the
    # negative engine refutes every false draw within it and the positive
    # engine is Stuck on exactly the false draws it does not run out on.
    code = load("random_differential").main(["--budget", "500"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "mismatches: 0" in out and "budget exhausted: 0" in out
    # The digests of every solve at seed 0: a change to the answers or to
    # the search shows here, and must be meant.
    digests = [line for line in out.splitlines() if "_sha256=" in line]
    assert digests == [
        "answers_sha256=56f44bf8caa40e0787c58a919f2fc6988f980a55bcff89bf450ec19e14b8bfaa",
        "search_sha256=85f2cb3eef9799990c46dbd0c073021882e6054dde34aac212b3f5bd48979289"]


@pytest.mark.usefixtures("compensated_builtin_sum")
def test_random_differential_is_clean_under_a_compensated_sum(capsys):
    # The same digests under the ``sum`` of Python 3.12 and later.
    test_random_differential_is_clean(capsys)


# The expected reward is infinite: state 0 pays 1 and returns forever.
LOOP_MRM = ("states 2\ninit 0\nlambda 5\nsafe 0\ntrans\n"
            "0 -> (1,0):1\n1 -> (0,1):1\n")


def test_run_corpus_refutes_an_infinite_reward(tmp_path, capsys):
    # The oracle's graph search reads the value as inf, above lambda 5.
    (tmp_path / "loop.mrm").write_text(LOOP_MRM)
    assert load("run_corpus").main(["--models", str(tmp_path)]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert "oracle=False " in line and " agree=True " in line


def test_run_corpus_fails_on_an_undecided_oracle(tmp_path, monkeypatch, capsys):
    # Capped at one sweep, value iteration does not converge on this finite
    # value, 2; the run is decided but cannot be judged, and no traceback
    # ends the script.  (An infinite value is answered at any cap.)
    (tmp_path / "half.mrm").write_text("states 2\ninit 0\nlambda 3\nsafe 0\ntrans\n"
                                       "0 -> (1,0):0.5 (0,1):0.5\n1 -> (0,1):1\n")
    monkeypatch.setattr(vi_expected_reward, "__defaults__", (1e-12, 1))
    assert load("run_corpus").main(["--models", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "oracle=None " in out and " agree=- " in out and "undecided" in err


def test_run_corpus_counts_a_rejected_file_and_goes_on(tmp_path, capsys):
    # State 1 has no transition line; the parser names the last line, the
    # script counts the file as a failure, and the good model still runs.
    (tmp_path / "bad.mdp").write_text("states 2\nactions 1\ninit 0\nlambda 0.5\n"
                                      "safe 0\ntrans\n0 0 -> 0:1\n")
    (tmp_path / "good.mrm").write_text(LOOP_MRM)
    assert load("run_corpus").main(["--models", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    bad, good = out.splitlines()
    assert bad == "bad.mdp error: line 7: state 1 has no available action"
    assert good.startswith("good.mrm ") and " agree=True " in good
    assert "1 file(s) unparsed" in err


def test_run_corpus_counts_an_unreadable_file_and_goes_on(tmp_path, capsys):
    # A directory named like a model cannot be read: one failure, with the
    # message the command line prints for it, and no traceback.
    (tmp_path / "bad.kr").mkdir()
    (tmp_path / "good.mrm").write_text(LOOP_MRM)
    assert load("run_corpus").main(["--models", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    bad, good = out.splitlines()
    assert bad.startswith("bad.kr error: [Errno 21] Is a directory: ")
    assert good.startswith("good.mrm ") and " agree=True " in good
    assert "1 file(s) unparsed" in err


def test_run_corpus_rejects_a_missing_directory(tmp_path, capsys):
    assert load("run_corpus").main(["--models", str(tmp_path / "none")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno 2] No such file or directory: ")


def test_true_summary_counts_answers_with_an_induction_step():
    def answer(verdict, steps, **rule_counts):
        return SimpleNamespace(verdict=verdict,
                               stats=SimpleNamespace(steps=steps, rule_counts=rule_counts))

    summary = load("random_differential").true_summary
    answers = [answer(Verdict.TRUE, 4, unfold=2, valid=1, induction=1),
               answer(Verdict.TRUE, 8, unfold=4, valid=1, induction=3),
               answer(Verdict.TRUE, 3, unfold=2, valid=1),
               answer(Verdict.FALSE, 5, unfold=2, induction=1, model=1)]
    assert summary(answers) == ("True answers: 3, steps median 4 max 8, "
                                "2 with an Induction step")
    assert summary(answers[3:]) == "no True answers"


@pytest.mark.parametrize("name, budget", [("run_corpus", "0"),
                                          ("random_differential", "-1")])
def test_budget_must_be_positive(name, budget, capsys):
    # Rejected by argparse (exit 2 with a usage line), not by a traceback
    # from the first solve.
    with pytest.raises(SystemExit) as exc:
        load(name).main(["--budget", budget])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
