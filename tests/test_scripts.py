"""The corpus runner and the random differential check, run in-process."""

import importlib.util
import pathlib

import pytest

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
    digest = [line for line in out.splitlines() if line.startswith("search_sha256=")]
    assert len(digest) == 1 and len(digest[0]) == len("search_sha256=") + 64


@pytest.mark.parametrize("name, budget", [("run_corpus", "0"),
                                          ("random_differential", "-1")])
def test_budget_must_be_positive(name, budget, capsys):
    # Rejected by argparse (exit 2 with a usage line), not by a traceback
    # from the first solve.
    with pytest.raises(SystemExit) as exc:
        load(name).main(["--budget", budget])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
