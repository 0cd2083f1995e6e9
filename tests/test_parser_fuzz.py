"""Fuzzing the three parsers through the command line.

Each example mutates the tokens of a file in ``models/`` and runs every
engine of its kinds on the result.  A model the parsers reject must exit 1
with an ``error:`` line, and an accepted one must solve, validate its
witness and agree with the oracle; no run may end in a traceback.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from conftest import MODELS_DIR, RUNS
from ltpdr.cli import main

MODELS = sorted(os.listdir(MODELS_DIR))

# Tokens of the formats themselves plus hostile ones: out-of-range and
# malformed numbers, overflowing and non-finite values, stray punctuation.
TOKENS = ["0", "1", "2", "3", "-1", "1/2", "1/0", "0.5", "0.25", "1.5", "1e400",
          "nan", "inf", "-inf", "x", "", "->", ":", "(", ")", "(0,1):1", "(1,0):1/2",
          "(,):", "0:1", "1:0.5", "states", "actions", "init", "lambda", "safe",
          "unsafe", "trans", "#", "\n"]

mutation = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                     st.integers(0, 10**6), st.sampled_from(TOKENS))


def mutate(text: str, mutations) -> str:
    """``text`` with each mutation applied to a token, lines kept apart."""
    lines = [line.split(" ") for line in text.splitlines()]
    for op, where, token in mutations:
        places = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if not places:
            break
        i, j = places[where % len(places)]
        if op == "replace":
            lines[i][j] = token
        elif op == "insert":
            lines[i].insert(j, token)
        else:
            del lines[i][j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MODELS), st.lists(mutation, min_size=1, max_size=3))
def test_mutated_models_exit_cleanly(name, mutations):
    with open(os.path.join(MODELS_DIR, name)) as fh:
        text = mutate(fh.read(), mutations)
    ext = os.path.splitext(name)[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model" + ext)
        with open(path, "w") as fh:
            fh.write(text)
        for kind, engine in RUNS[ext]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([kind, path, "--engine", engine, "--budget", "300",
                             "--oracle"])
            assert code in (0, 1, 2, 10), (text, kind, engine, err.getvalue())
            assert (code == 1) == err.getvalue().startswith("error: ")
