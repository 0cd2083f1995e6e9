#!/usr/bin/env python3
"""The ltpdr benchmark: time to a checked verdict, split by module.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kripke-deep --seed 1 --seconds 20 --trace 0

One process, one closed loop: the workload's instances are solved one after
another, in whole passes, while the next pass still fits in ``--seconds``
(at least one pass always runs).  Every solve is checked against the oracle
verdict computed at set-up, and its certificate is re-checked.

``--trace 0`` prints the end-to-end metrics; their times are scaled to the
baseline machine's speed by a reference job timed alongside (``speed.py``),
and the plain wall times are printed too.  ``--trace 1`` is the separate
traced run: one plain pass, then passes with every layer boundary wrapped;
it prints the per-layer metrics and writes the coarse spans of the first
traced pass to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is the
number of instances and ``failed`` the number of them whose solve failed --
a raise, a wrong verdict, a certificate that does not re-check -- or whose
later passes did not repeat the first; both depend on the code and the seed
only, not on how many passes fit in ``--seconds``.  ``correct`` is false only
for the kinds in ``gate.INCORRECT``: all of these but a raise, and the
engine's invariant and contract errors.  The exit code is
0 unless the harness itself fails (no ``src/ltpdr`` in the checkout, a bad
argument, non-deterministic set-up); then no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("kripke-deep", "mdp-random", "mrm-random", "small-debug")
END_TO_END = (("solve_s", "s"), ("decided_frac", "ratio"), ("ok_frac", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Times the library import in a fresh interpreter (argument: the src dir).
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ltpdr.cli, ltpdr.oracles; "
                "print(time.perf_counter() - t)")


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def load_library() -> None:
    """Import ltpdr from this checkout's ``src/`` (never an installed copy)
    and the benchmark modules that use it."""
    src = ROOT / "src"
    if not (src / "ltpdr" / "__init__.py").is_file():
        raise HarnessError(f"no ltpdr sources under {src}")
    sys.path.insert(0, str(src))
    ltpdr = importlib.import_module("ltpdr")
    if Path(ltpdr.__file__).resolve().parent != (src / "ltpdr").resolve():
        raise HarnessError(f"imported ltpdr from {ltpdr.__file__}, not {src}")
    for name in ("workloads", "gate", "spans", "speed"):
        importlib.import_module(name)


def import_seconds(refs) -> float:
    """Median time to import the library, each time in a fresh interpreter.
    A machine-speed sample goes to ``refs`` before each import."""
    import speed
    times = []
    for _ in range(SETUP_REPEATS):
        refs.append(speed.sample())
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise HarnessError(f"import probe failed: {probe.stderr.strip()}")
        times.append(float(probe.stdout))
    return statistics.median(times)


def set_up(workload: str, seed: int, refs):
    """Build the instances ``SETUP_REPEATS`` times; return them with the
    median build time.  Every build must produce the same bytes.  A
    machine-speed sample goes to ``refs`` before each build."""
    import speed
    import workloads
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        refs.append(speed.sample())
        start = time.perf_counter()
        instances = workloads.build(workload, seed, ROOT)
        times.append(time.perf_counter() - start)
        digests.add(inputs_digest(instances))
    if len(digests) != 1:
        raise HarnessError("set-up is not deterministic: builds differ")
    return instances, statistics.median(times)


def inputs_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(repr((inst.name, inst.engine, inst.expected, inst.budget,
                       inst.debug)).encode())
        h.update(inst.text.encode())
    return h.hexdigest()


def counts_digest(outcomes) -> str:
    """Digest of the exact counts of one pass: verdicts, steps, rules."""
    return hashlib.sha256(repr([o.result() for o in outcomes]).encode()).hexdigest()


class Tally:
    """What a closed loop keeps: the first pass's outcomes, every solve time,
    each pass's speed factor and the failures by kind.  Later passes' outcomes
    are only compared with the first and then dropped, so that memory does
    not grow with the number of passes."""

    def __init__(self, n: int):
        self.first = []
        self.times = [array("d") for _ in range(n)]
        self.factors = array("d")  # speed.factor of each pass
        self.errors = Counter()  # failure kind -> instances
        self.failed = set()  # indices of the instances that failed
        self.passes = 0
        # Peak RSS once set-up and one pass are done: every instance has been
        # solved, and the time samples of later passes are not yet counted.
        self.peak_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def record(self, i: int, outcome) -> None:
        """Keep instance ``i``'s solve time; count a failure of its first
        solve, or a later solve that does not repeat the first."""
        self.times[i].append(outcome.seconds)
        if not self.passes:
            self.first.append(outcome)
            error = outcome.error
        elif outcome.result() != self.first[i].result():
            import gate
            error = gate.NONDETERMINISTIC
        else:
            return
        if error and i not in self.failed:
            self.failed.add(i)
            self.errors[error] += 1

    @property
    def pass_seconds(self) -> float:
        """Mean summed solve time of one pass, in wall seconds."""
        return sum(sum(t) for t in self.times) / self.passes

    def solve_seconds(self, normalised: bool) -> float:
        """Sum over instances of each instance's median solve time over the
        passes; ``normalised`` scales each pass's times by its speed
        factor first."""
        scale = self.factors if normalised else [1.0] * self.passes
        return sum(statistics.median(t * f for t, f in zip(times, scale))
                   for times in self.times)


def run_passes(instances, seconds: float, solve) -> Tally:
    """Closed loop of whole passes while the next one fits in ``seconds``.
    Machine-speed samples are taken between solves, outside their timing."""
    import speed
    tally = Tally(len(instances))
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        refs, last_ref = array("d"), -speed.EVERY_S
        for i, inst in enumerate(instances):
            if time.perf_counter() - last_ref >= speed.EVERY_S:
                refs.append(speed.sample())
                last_ref = time.perf_counter()
            tally.record(i, solve(inst))
        if not tally.passes:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.factors.append(speed.factor(refs))
        tally.passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return tally


def end_to_end(tally: Tally, setup_wall_s: float, setup_factor: float):
    """The end-to-end metrics, with times in seconds at the baseline
    machine's speed (``speed``), and report lines with the wall times and
    the per-solve latency: the median and the p90 of all solve times, with
    the sample counts."""
    n = len(tally.times)
    samples = sorted(t for times in tally.times for t in times)
    p90 = statistics.quantiles(samples, n=10)[8]
    metrics = {
        "solve_s": tally.solve_seconds(normalised=True),
        "decided_frac": sum(o.decided for o in tally.first) / n,
        "ok_frac": 1 - len(tally.failed) / n,
        "setup_s": setup_wall_s * setup_factor,
        "peak_rss_mb": tally.peak_rss_mb,
    }
    return metrics, (f"solve_wall_s = {tally.solve_seconds(normalised=False):.6g} s, "
                     f"setup_wall_s = {setup_wall_s:.6g} s, speed factors per pass "
                     f"{min(tally.factors):.4g}..{max(tally.factors):.4g}\n"
                     f"solve_p50_ms = {1000 * statistics.median(samples):.6g} ms, "
                     f"solve_p90_ms = {1000 * p90:.6g} ms: {len(samples)} samples, "
                     f"{sum(t > p90 for t in samples)} beyond p90")


def traced_run(instances, seconds: float, workload: str, seed: int):
    """One plain pass, then traced passes for the rest of ``seconds``;
    return the traced tally and the per-layer metrics (times per pass)."""
    import gate
    import spans
    import workloads
    untraced_s = run_passes(instances, 0, gate.solve).pass_seconds
    with spans.Tracer() as tracer:
        tracer.span("bench.setup", workloads.build, workload, seed, ROOT)
        oracle_calls = tracer.calls[("bench.setup", "oracles")]
        oracle_s = tracer.self_s[("bench.setup", "oracles")]
        tracer.reset()
        valid_calls = []  # Valid checks of each solve: one per engine step

        def solve(inst):
            tracer.instance = inst.name
            tracer.record = len(valid_calls) < len(instances)  # first pass only
            before = tracer.calls[("bench.solve", "engine.valid")]
            outcome = gate.solve(inst, around=tracer.span)
            valid_calls.append(tracer.calls[("bench.solve", "engine.valid")] - before)
            return outcome

        tally = run_passes(instances, seconds - untraced_s, solve)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{workload}-{seed}.jsonl")

    k = tally.passes
    first = tally.first

    def t(*names):
        return sum(tracer.self_s[("bench.solve", n)] for n in names) / k

    def c(name):
        return tracer.calls[("bench.solve", name)] // k

    # A run that raised has no stats; its steps are its Valid checks.
    steps = [o.steps if o.verdict != "raised" else v
             for o, v in zip(first, valid_calls)]
    rules = Counter()
    for o in first:
        rules.update(dict(o.rule_counts))
    simplex_solves = c("simplex")
    m = {
        "engine.steps": sum(steps),
        **{f"engine.rule.{r}": rules[r] for r in
           ("valid", "unfold", "candidate", "decide", "conflict", "model")},
        "engine.frames_max": max(o.frames for o in first),
        "engine.wasted_steps_frac":
            sum(s for o, s in zip(first, steps) if not o.decided) / max(sum(steps), 1),
        "engine.valid_s": t("engine.valid"),
        "engine.conflict_s": t("engine.conflict"),
        "engine.self_s": t("engine.run", "engine.unfold", "engine.induction",
                           "engine.candidate", "engine.decide", "engine.model"),
        "engine.final_check_s": t("engine.final_check"),
        "engine.debug_check_s": t("engine.debug_check"),
        "lattice.ops": c("lattice.op"),
        "lattice.s": t("lattice.op"),
        "lattice.cert_check_s": sum(
            v for (root, _), v in tracer.self_s.items() if root == "bench.cert_check") / k,
    }
    for layer in ("kripke", "mdp", "mrm"):
        m[f"{layer}.F_calls"] = c(f"{layer}.F")
        m[f"{layer}.F_s"] = t(f"{layer}.F")
        m[f"{layer}.heuristics_s"] = t(f"{layer}.heuristics")
    m.update({
        "simplex.solves": simplex_solves,
        "simplex.s": t("simplex"),
        "simplex.vars_mean": tracer.simplex_vars / k / max(simplex_solves, 1),
        "simplex.rows_mean": tracer.simplex_rows / k / max(simplex_solves, 1),
        "simplex.infeasible": tracer.simplex_infeasible // k,
        "cli.parse_calls": c("cli.parse"),
        "cli.parse_s": t("cli.parse"),
        "oracles.calls": oracle_calls,
        "oracles.s": oracle_s,
    })
    # Self times of the solve's layers; what they leave of the traced solve
    # time is the solve span's own glue plus anything not wrapped.
    layers = sum(v for key, v in m.items() if unit_of(key) == "s"
                 and key not in ("lattice.cert_check_s", "oracles.s"))
    solve_s = tally.pass_seconds
    m.update({"trace.solve_s": solve_s, "trace.uncovered_s": solve_s - layers,
              "trace.overhead_s": solve_s - untraced_s})
    return tally, m


def unit_of(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_library()
        import gate
        if args.trace:
            instances, _ = set_up(args.workload, args.seed, refs=[])
            tally, metrics = traced_run(instances, args.seconds, args.workload,
                                        args.seed)
            units = {name: unit_of(name) for name in metrics}
            note = "spans written to perfbench/out/"
        else:
            import speed
            refs = []
            import_s = import_seconds(refs)
            instances, build_s = set_up(args.workload, args.seed, refs)
            tally = run_passes(instances, args.seconds, gate.solve)
            metrics, note = end_to_end(tally, import_s + build_s, speed.factor(refs))
            units = dict(END_TO_END)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 2
    errors = tally.errors
    n = len(instances)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"instances={n} passes={tally.passes} "
          f"budget={sorted({i.budget for i in instances})}")
    print(f"inputs_sha256={inputs_digest(instances)}")
    print(f"counts_sha256={counts_digest(tally.first)}")
    print(note)
    print(f"error_frac = {len(tally.failed) / n:.6g}; failed instances by kind: "
          f"{dict(sorted(errors.items())) or 'none'}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": gate.all_correct(errors),
        "attempted": tally.attempted, "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
