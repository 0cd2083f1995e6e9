"""Golden output of the command-line runner on the ``models/`` corpus.

Every model runs under each kind and engine that applies to it, with
``--json --budget 2000``.  The verdict, witness, step count, rule counts,
frame count and exit code must equal the rows of ``golden_cli.json``; the
wall time is left out.  Regenerate the file, after a change that is meant
to alter a row, with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from conftest import RUNS
from ltpdr.cli import main

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"


def runs():
    for path in sorted(MODELS.iterdir()):
        if path.suffix in RUNS:
            kinds, engines = RUNS[path.suffix]
            for kind in kinds:
                for engine in engines:
                    yield f"{kind} {path.name} {engine}"


def row(key) -> dict:
    kind, name, engine = key.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([kind, str(MODELS / name), "--engine", engine, "--json",
                     "--budget", "2000"])
    report = json.loads(out.getvalue())
    del report["stats"]["wall_time"]
    return {"exit": code, "verdict": report["verdict"],
            "witness": report["witness"], "stats": report["stats"]}


@pytest.mark.parametrize("key", list(runs()))
def test_cli_matches_golden(key):
    golden = json.loads(GOLDEN.read_text())
    assert row(key) == golden[key]


def test_golden_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(runs())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: row(key) for key in runs()}, indent=1,
                                 sort_keys=True) + "\n")
