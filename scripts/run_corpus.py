#!/usr/bin/env python3
"""Run every model in the corpus through the solver and its oracle.

Prints one line per (model, kind) pair, run with the combined engine, with
the verdict, the oracle verdict, whether the two agree, the step count and
the wall time.  The ``.kr`` kinds include ``opdual``, the dual question on
the opposite lattice.  The oracle verdict is the command line's
``--oracle`` report: an infinite expected reward refutes every finite
threshold, and an oracle that does not converge is undecided (None).
Exits nonzero unless every run decides and agrees with its oracle: a run
that ends Stuck or BudgetExhausted, or whose oracle is undecided, prints
``agree=-`` and counts as a failure.  A file the parser rejects or that
cannot be read prints ``<file> error: <message>`` in place of its runs and
counts as one failure, as the command line exits 1 on it.  A ``--models``
directory that cannot be listed prints an error and exits 1.

Usage: python scripts/run_corpus.py [--models DIR] [--budget N]
"""

import argparse
import pathlib
import sys
import time

from ltpdr.cli import KINDS, ParseError, _oracle_report, _positive_int
from ltpdr.engine import Verdict, solve


def runs(suffix: str) -> list:
    """The kinds that read ``suffix``, in the order printed; each line is
    labelled with the kind's name (``fkr``, ``ibkr`` and ``opdual`` on a
    ``.kr`` file)."""
    return [spec for spec in KINDS.values() if spec.suffix == suffix]


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
        kinds = runs(path.suffix)
        if not kinds:
            continue
        try:
            model = kinds[0].parse(path.read_text())
        except (OSError, ParseError, ValueError) as exc:
            failures += 1
            print(f"{path.name} error: {exc}")
            continue
        expected = _oracle_report(kinds[0].oracle, model)["safe"]
        for kind in kinds:
            t0 = time.perf_counter()
            ans = solve(kind.build(model), budget=args.budget)
            dt = time.perf_counter() - t0
            agree = "-"
            if ans.verdict in (Verdict.TRUE, Verdict.FALSE) and expected is not None:
                agree = str((ans.verdict is Verdict.TRUE) == expected)
            if agree != "True":
                failures += 1
            print(f"{path.name:24s} {kind.name:8s} {ans.verdict.value:16s} "
                  f"oracle={expected!s:8s} agree={agree:5s} "
                  f"steps={ans.stats.steps:6d} t={dt:.3f}s")
    if failures:
        print(f"{failures} file(s) unparsed or run(s) undecided or "
              "disagreeing with the oracle", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
