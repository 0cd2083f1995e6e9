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
on an unsafe one, nor Stuck on a safe one.  It has no Induction proposer,
so a safe reward model can take it many steps; its runs that exhaust the
budget are listed, but they fail nothing.  Any mismatch, any combined MDP
or reward model run that exhausts its step budget and any MDP or reward
model solve that raises is reported with a serialized reproducer and makes
the exit code non-zero.  Each phase also reports the median and maximum
step counts of its True answers and how many of them took an Induction
step of any kind: a proposed lemma, the inductive bound or the canonical
one.  The last two lines digest every solve in order.  ``answers_sha256=``
takes its phase, engine, verdict, witness and frame count: two versions of
the library answered alike on a seed exactly when their lines match.
``search_sha256=`` takes the phase, engine, verdict, steps, frame count and
rule counts: the two versions also searched alike when these lines match.

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

from ltpdr.cli import (KINDS, _positive_int, serialize_kripke,  # noqa: E402
                       serialize_mdp, serialize_mrm)
from ltpdr.engine import Verdict, solve  # noqa: E402
from ltpdr.oracles import NoConvergence  # noqa: E402


def true_summary(answers) -> str:
    """The step counts of the True answers among ``answers``, and how many
    of those took at least one Induction step.  The rule counts do not say
    which lemma it applied, and the engine's canonical ``F(X_{n-2})`` lemma
    counts too, so this is no count of proofs a proposer closed."""
    trues = [a.stats for a in answers if a.verdict is Verdict.TRUE]
    if not trues:
        return "no True answers"
    steps = [stats.steps for stats in trues]
    induction = sum("induction" in stats.rule_counts for stats in trues)
    return (f"True answers: {len(trues)}, steps median {statistics.median(steps):g} "
            f"max {max(steps)}, {induction} with an Induction step")


def note(digests, phase: str, engine: str, ans) -> None:
    """Add one solve to ``digests``, the answers and the search digest."""
    answers, search = digests
    stats = ans.stats
    answers.update(repr((phase, engine, ans.verdict.value, ans.kt_witness,
                         ans.kleene_witness, stats.frame_count)).encode())
    search.update(repr((phase, engine, ans.verdict.value, stats.steps,
                        stats.frame_count, sorted(stats.rule_counts.items())))
                  .encode())


def one_sided_mismatches(inst, safe: bool, budget: int, label: str, model: str,
                         out_of_budget: list, digests) -> int:
    """Solve ``inst`` with the negative and the positive engine in debug
    mode; print a reproducer for each verdict the engine must not give and
    return how many there were.  A positive run that exhausts its budget is
    appended to ``out_of_budget``; every run is noted in ``digests``."""
    mismatches = 0
    for engine in ("negative", "positive"):
        ans = solve(inst, engine, debug=True, budget=budget)
        note(digests, label.split()[0], engine, ans)
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
    digests = (hashlib.sha256(), hashlib.sha256())  # answers, search

    t0 = time.perf_counter()
    answers = []
    kripke = [spec for spec in KINDS.values() if spec.suffix == ".kr"]
    for i in range(args.kripke):
        K = random_kripke(rng)
        expected = kripke[0].oracle(K).verdict
        for spec in kripke:
            ans = solve(spec.build(K), debug=True, budget=args.budget)
            note(digests, "kripke", "combined", ans)
            answers.append(ans)
            got = ans.verdict is Verdict.TRUE
            if ans.verdict not in (Verdict.TRUE, Verdict.FALSE) or got != expected:
                mismatches += 1
                print(f"MISMATCH kripke #{i} engine={spec.name} "
                      f"got={ans.verdict} expected={expected}\n{serialize_kripke(K)}")
            mismatches += one_sided_mismatches(spec.build(K), expected, args.budget,
                                               f"kripke #{i} {spec.name}",
                                               serialize_kripke(K), positive_exhausted,
                                               digests)
    print(f"kripke: {args.kripke} models x {len(kripke)} instances x 3 engines, "
          f"{time.perf_counter() - t0:.1f}s; {true_summary(answers)}")

    # kind, draws, generator, serialiser, and the thresholds (True side,
    # False side) around a value; the oracle and instance are the kind's
    phases = (("mdp", args.mdp, random_mdp, serialize_mdp,
               lambda v: (min(v + 0.1, 1.0), v - 0.1 if v >= 0.1 else v / 2)),
              ("mrm", args.mrm, random_mrm, serialize_mrm,
               lambda v: (1.1 * v, 0.9 * v)))
    for kind, count, draw, serialize, sides in phases:
        oracle, build = KINDS[kind].oracle, KINDS[kind].build
        t0 = time.perf_counter()
        answers = []
        for i in range(count):
            M = draw(rng)
            try:
                gt = oracle(M).value
            except NoConvergence:
                continue
            if not 1e-6 < gt < math.inf:
                continue
            for lam, expected in zip(sides(gt), (True, False)):
                Mx = dataclasses.replace(M, threshold=lam)
                label, model = f"{kind} #{i} lambda={lam}", serialize(Mx)
                try:
                    mismatches += one_sided_mismatches(build(Mx), expected, args.budget,
                                                       label, model, positive_exhausted,
                                                       digests)
                    ans = solve(build(Mx), debug=True, budget=args.budget)
                    note(digests, kind, "combined", ans)
                except Exception:  # any raise is a finding; keep going
                    raised += 1
                    print(f"RAISED {label}\n{traceback.format_exc()}{model}")
                    continue
                answers.append(ans)
                if ans.verdict is Verdict.BUDGET_EXHAUSTED:
                    exhausted += 1
                    print(f"EXHAUSTED {label} steps={ans.stats.steps}\n{model}")
                elif (ans.verdict is Verdict.TRUE) != expected:
                    mismatches += 1
                    print(f"MISMATCH {label} got={ans.verdict} expected={expected}\n{model}")
        print(f"{kind}: {count} models x 2 thresholds x 3 engines, "
              f"{time.perf_counter() - t0:.1f}s; {true_summary(answers)}")

    print("mismatches:", mismatches)
    print("budget exhausted:", exhausted)
    print(f"positive engine out of budget (not counted): {len(positive_exhausted)}"
          + "".join(f"\n  {label}" for label in positive_exhausted))
    print("raised:", raised)
    print(f"answers_sha256={digests[0].hexdigest()}")
    print(f"search_sha256={digests[1].hexdigest()}")
    return 1 if mismatches or exhausted or raised else 0


if __name__ == "__main__":
    sys.exit(main())
