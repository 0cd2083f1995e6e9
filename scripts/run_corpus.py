#!/usr/bin/env python3
"""Run every model in the corpus through the solver and its oracle.

Prints one line per (model, engine) pair with the verdict, the oracle
verdict, step count, and wall time.  Exits nonzero if any solver verdict
disagrees with its oracle.

Usage: python scripts/run_corpus.py [--models DIR] [--budget N]
"""

import argparse
import pathlib
import sys
import time

from ltpdr.cli import KINDS, instance
from ltpdr.engine import Verdict, solve

# (file suffix, label, command-line kind, engine), in the order printed.
RUNS = ((".kr", "fkr", "kripke-forward", "combined"),
        (".kr", "ibkr", "kripke-ibackward", "combined"),
        (".kr", "opdual", "kripke-forward", "opdual"),
        (".mdp", "ibmdp", "mdp", "combined"),
        (".mrm", "mrm", "mrm", "combined"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--models", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "models"))
    ap.add_argument("--budget", type=int, default=100000)
    args = ap.parse_args(argv)

    failures = 0
    for path in sorted(pathlib.Path(args.models).iterdir()):
        runs = [run for run in RUNS if run[0] == path.suffix]
        if not runs:
            continue
        parse, _build, oracle = KINDS[runs[0][2]]
        model = parse(path.read_text())
        expected = oracle(model).verdict
        for _suffix, name, kind, engine in runs:
            t0 = time.perf_counter()
            ans = solve(*instance(kind, engine, model), budget=args.budget)
            dt = time.perf_counter() - t0
            agree = "-"
            if ans.verdict in (Verdict.TRUE, Verdict.FALSE):
                agree = str((ans.verdict is Verdict.TRUE) == expected)
                if agree == "False":
                    failures += 1
            print(f"{path.name:24s} {name:8s} {ans.verdict.value:16s} "
                  f"oracle={expected!s:8s} agree={agree:5s} "
                  f"steps={ans.stats.steps:6d} t={dt:.3f}s")
    if failures:
        print(f"{failures} disagreement(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
