#!/usr/bin/env python3
"""Differential testing of the solvers against brute-force oracles on
randomly generated models.

Generates random transition systems, MDPs and Markov reward models, solves
each with every applicable engine in debug mode, and compares verdicts
with the oracle.  MDPs are probed 0.1 above and below their value,
reward models at 0.9 and 1.1 times theirs.  Every instance is also solved
by the two one-sided engines.  The negative engine must answer False
exactly on the unsafe ones and never True; on a safe one it may end Stuck
or out of budget.  The positive engine must never answer False, nor True
on an unsafe one, nor Stuck on a safe one.  It has no Optimistic Induction,
so a safe reward model can take it many steps; its runs that exhaust the
budget are listed, but they fail nothing.  Any mismatch, any combined MDP
or reward model run that exhausts its step budget and any reward model run
that raises is reported with a serialized reproducer and makes the exit
code non-zero.  Each phase also reports the median and maximum step counts
of its True answers and how many of them closed through Induction.  The
last line, ``search_sha256=``, digests every solve's phase, engine, verdict,
steps, frame count and rule counts in order: two versions of the library
searched alike on a seed exactly when their lines match.

Usage: python scripts/random_differential.py [--seed N] [--kripke N] [--mdp N]
                                             [--mrm N] [--budget N]
"""

import argparse
import dataclasses
import hashlib
import math
import random
import statistics
import sys
import time
import traceback

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "tests"))
from util import random_kripke, random_mdp, random_mrm  # noqa: E402

from ltpdr.cli import (_positive_int, serialize_kripke, serialize_mdp,  # noqa: E402
                       serialize_mrm)
from ltpdr.engine import Verdict, solve  # noqa: E402
from ltpdr.kripke import forward, inverse_backward  # noqa: E402
from ltpdr.mdp import max_reach  # noqa: E402
from ltpdr.mrm import expected_reward  # noqa: E402
from ltpdr.oracles import (NoConvergence, bfs_safe, vi_expected_reward,  # noqa: E402
                           vi_max_reach)


def true_summary(answers) -> str:
    """The step counts of the True answers among ``answers``, and how many
    of those closed through Induction."""
    trues = [a.stats for a in answers if a.verdict is Verdict.TRUE]
    if not trues:
        return "no True answers"
    steps = [stats.steps for stats in trues]
    induction = sum("induction" in stats.rule_counts for stats in trues)
    return (f"True answers: {len(trues)}, steps median {statistics.median(steps):g} "
            f"max {max(steps)}, {induction} through Induction")


def note(search, phase: str, engine: str, ans) -> None:
    """Add one solve to the search digest ``search``."""
    stats = ans.stats
    search.update(repr((phase, engine, ans.verdict.value, stats.steps,
                        stats.frame_count, sorted(stats.rule_counts.items())))
                  .encode())


def one_sided_mismatches(inst, safe: bool, budget: int, label: str, model: str,
                         out_of_budget: list, search) -> int:
    """Solve ``inst`` with the negative and the positive engine in debug
    mode; print a reproducer for each verdict the engine must not give and
    return how many there were.  A positive run that exhausts its budget is
    appended to ``out_of_budget``; every run is noted in ``search``."""
    mismatches = 0
    for engine in ("negative", "positive"):
        ans = solve(inst, engine, debug=True, budget=budget)
        note(search, label.split()[0], engine, ans)
        v = ans.verdict
        if engine == "negative":
            wrong = v is Verdict.TRUE or (v is Verdict.FALSE) == safe
        else:
            wrong = v is Verdict.FALSE or v is (Verdict.STUCK if safe else Verdict.TRUE)
            if v is Verdict.BUDGET_EXHAUSTED:
                out_of_budget.append(label)
        if wrong:
            mismatches += 1
            print(f"MISMATCH {label} engine={engine} got={v} "
                  f"steps={ans.stats.steps} expected={safe}\n{model}")
    return mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--kripke", type=int, default=200)
    ap.add_argument("--mdp", type=int, default=50)
    ap.add_argument("--mrm", type=int, default=100)
    ap.add_argument("--budget", type=_positive_int, default=100000,
                    help="step budget of every solve")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    mismatches = 0
    exhausted = 0
    raised = 0
    positive_exhausted: list = []
    search = hashlib.sha256()

    t0 = time.perf_counter()
    answers = []
    for i in range(args.kripke):
        K = random_kripke(rng)
        expected = bfs_safe(K).verdict
        for name, build in (("fkr", forward), ("ibkr", inverse_backward)):
            ans = solve(build(K), debug=True, budget=args.budget)
            note(search, "kripke", "combined", ans)
            answers.append(ans)
            got = ans.verdict is Verdict.TRUE
            if ans.verdict not in (Verdict.TRUE, Verdict.FALSE) or got != expected:
                mismatches += 1
                print(f"MISMATCH kripke #{i} engine={name} "
                      f"got={ans.verdict} expected={expected}\n{serialize_kripke(K)}")
            mismatches += one_sided_mismatches(build(K), expected, args.budget,
                                               f"kripke #{i} {name}",
                                               serialize_kripke(K), positive_exhausted,
                                               search)
    print(f"kripke: {args.kripke} models x 2 instances x 3 engines, "
          f"{time.perf_counter() - t0:.1f}s; {true_summary(answers)}")

    t0 = time.perf_counter()
    answers = []
    for i in range(args.mdp):
        M = random_mdp(rng)
        try:
            gt = vi_max_reach(M).value
        except NoConvergence:
            continue
        if gt <= 1e-6:
            continue
        for lam, expected in ((min(gt + 0.1, 1.0), True),
                              (gt - 0.1 if gt >= 0.1 else gt / 2, False)):
            Mx = dataclasses.replace(M, threshold=lam)
            mismatches += one_sided_mismatches(max_reach(Mx), expected, args.budget,
                                               f"mdp #{i} lambda={lam}", serialize_mdp(Mx),
                                               positive_exhausted, search)
            ans = solve(max_reach(Mx), debug=True, budget=args.budget)
            note(search, "mdp", "combined", ans)
            answers.append(ans)
            if ans.verdict is Verdict.BUDGET_EXHAUSTED:
                exhausted += 1
                print(f"EXHAUSTED mdp #{i} lambda={lam} "
                      f"steps={ans.stats.steps}\n{serialize_mdp(Mx)}")
                continue
            got = ans.verdict is Verdict.TRUE
            if got != expected:
                mismatches += 1
                print(f"MISMATCH mdp #{i} lambda={lam} "
                      f"got={ans.verdict} expected={expected}\n{serialize_mdp(Mx)}")
    print(f"mdp: {args.mdp} models x 2 thresholds x 3 engines, "
          f"{time.perf_counter() - t0:.1f}s; {true_summary(answers)}")

    t0 = time.perf_counter()
    answers = []
    for i in range(args.mrm):
        M = random_mrm(rng)
        try:
            gt = vi_expected_reward(M).value
        except NoConvergence:
            continue
        if not 1e-6 < gt < math.inf:
            continue
        for lam, expected in ((1.1 * gt, True), (0.9 * gt, False)):
            Mx = dataclasses.replace(M, threshold=lam)
            try:
                mismatches += one_sided_mismatches(
                    expected_reward(Mx), expected, args.budget, f"mrm #{i} lambda={lam}",
                    serialize_mrm(Mx), positive_exhausted, search)
                ans = solve(expected_reward(Mx), debug=True, budget=args.budget)
                note(search, "mrm", "combined", ans)
            except Exception:  # any raise is a finding; keep going
                raised += 1
                print(f"RAISED mrm #{i} lambda={lam}\n"
                      f"{traceback.format_exc()}{serialize_mrm(Mx)}")
                continue
            answers.append(ans)
            if ans.verdict is Verdict.BUDGET_EXHAUSTED:
                exhausted += 1
                print(f"EXHAUSTED mrm #{i} lambda={lam} "
                      f"steps={ans.stats.steps}\n{serialize_mrm(Mx)}")
                continue
            got = ans.verdict is Verdict.TRUE
            if got != expected:
                mismatches += 1
                print(f"MISMATCH mrm #{i} lambda={lam} "
                      f"got={ans.verdict} expected={expected}\n{serialize_mrm(Mx)}")
    print(f"mrm: {args.mrm} models x 2 thresholds x 3 engines, "
          f"{time.perf_counter() - t0:.1f}s; {true_summary(answers)}")

    print("mismatches:", mismatches)
    print("budget exhausted:", exhausted)
    print(f"positive engine out of budget (not counted): {len(positive_exhausted)}"
          + "".join(f"\n  {label}" for label in positive_exhausted))
    print("raised:", raised)
    print(f"search_sha256={search.hexdigest()}")
    return 1 if mismatches or exhausted or raised else 0


if __name__ == "__main__":
    sys.exit(main())
