#!/usr/bin/env python3
"""Run every model in the corpus through the solver and its oracle.

Prints one line per (model, engine) pair with the verdict, the oracle
verdict, whether the two agree, the step count and the wall time.  The
oracle verdict is the command line's ``--oracle`` report: an infinite
expected reward refutes every finite threshold, and an oracle that does not
converge is undecided (None).  Exits nonzero unless every run decides and
agrees with its oracle: a run that ends Stuck or BudgetExhausted, or whose
oracle is undecided, prints ``agree=-`` and counts as a failure.  A file the
parser rejects or that cannot be read prints ``<file> error: <message>`` in
place of its runs and counts as one failure, as the command line exits 1 on
it.  A ``--models`` directory that cannot be listed prints an error and
exits 1.

Usage: python scripts/run_corpus.py [--models DIR] [--budget N]
"""

import argparse
import pathlib
import sys
import time

from ltpdr.cli import (KINDS, SOLVE_ENGINES, ParseError, _oracle_report, _positive_int,
                       instance)
from ltpdr.engine import Verdict, solve


def runs(suffix: str) -> list:
    """The (label, kind, engine) runs on a model file, in the order printed:
    the combined engine of each kind that reads ``suffix``, labelled with the
    kind's name, then each engine of the first kind that builds its own
    instance (``opdual``), labelled with its own name.  That instance is the
    same for every kind of the suffix, so it runs once."""
    kinds = [kind for kind, spec in KINDS.items() if spec.suffix == suffix]
    out = [(KINDS[kind].name, kind, "combined") for kind in kinds]
    if kinds:
        out += [(engine, kinds[0], engine) for engine in KINDS[kinds[0]].engines
                if engine not in SOLVE_ENGINES]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--models", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "models"))
    ap.add_argument("--budget", type=_positive_int, default=100000)
    args = ap.parse_args(argv)

    try:
        paths = sorted(pathlib.Path(args.models).iterdir())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        file_runs = runs(path.suffix)
        if not file_runs:
            continue
        kind = KINDS[file_runs[0][1]]
        try:
            model = kind.parse(path.read_text())
        except (OSError, ParseError, ValueError) as exc:
            failures += 1
            print(f"{path.name} error: {exc}")
            continue
        expected = _oracle_report(kind.oracle, model)["safe"]
        for name, kind_name, engine in file_runs:
            t0 = time.perf_counter()
            ans = solve(*instance(kind_name, engine, model), budget=args.budget)
            dt = time.perf_counter() - t0
            agree = "-"
            if ans.verdict in (Verdict.TRUE, Verdict.FALSE) and expected is not None:
                agree = str((ans.verdict is Verdict.TRUE) == expected)
            if agree != "True":
                failures += 1
            print(f"{path.name:24s} {name:8s} {ans.verdict.value:16s} "
                  f"oracle={expected!s:8s} agree={agree:5s} "
                  f"steps={ans.stats.steps:6d} t={dt:.3f}s")
    if failures:
        print(f"{failures} file(s) unparsed or run(s) undecided or "
              "disagreeing with the oracle", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
