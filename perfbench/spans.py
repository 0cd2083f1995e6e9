"""Spans recorded from outside the library, around calls into its modules.

:func:`install` replaces public boundaries of ``ltpdr`` with timing wrappers
for the life of a :class:`Tracer` context and restores them on exit; nothing
under ``src/`` is changed.  Every wrapped call is one span with a name, a
start, an end and the span that caused it.  A layer's self time is its
spans' durations minus the parts their child spans cover.

Hot spans (lattice operations, ``F``, rules) run millions of times per
workload, so they are folded into per-name call counts and self times as
they close.  Coarse spans -- each solve, parse, engine run, certificate
check and oracle call -- are also kept whole while ``Tracer.record`` is set,
with the id of the instance they belong to, and written out by
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from ltpdr import cli, engine, kripke, lattice, mdp, mrm, oracles
from ltpdr.engine import HeuristicsBundle
from ltpdr.simplex import Infeasible

# Span names kept as whole records; the rest are only aggregated.
COARSE = {"bench.solve", "bench.cert_check", "bench.setup", "cli.parse",
          "engine.run", "oracles"}


class Tracer:
    def __init__(self):
        # Keyed by (root span name, span name), so that work done for the
        # certificate re-check or the oracles is not charged to the solve.
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.records = []  # (name, start, end, parent name, instance id)
        self.simplex_vars = 0
        self.simplex_rows = 0
        self.simplex_infeasible = 0
        self.instance = None
        self.record = True  # keep coarse spans whole (else only aggregate)
        self._stack = []  # [name, start, covered-by-children]
        self._restore = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            key = (stack[0][0] if stack else name, name)
            self.calls[key] += 1
            self.self_s[key] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if self.record and name in COARSE:
                self.records.append((name, frame[1], end,
                                     stack[-1][0] if stack else None,
                                     self.instance))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def reset(self):
        """Forget everything recorded so far (the wrappers stay in place)."""
        self.calls.clear()
        self.self_s.clear()
        self.records.clear()
        self.simplex_vars = self.simplex_rows = self.simplex_infeasible = 0

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inst in self.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")


def _simplex(tracer, fn):
    def traced(costs, constraints, bounds):
        tracer.simplex_vars += len(costs)
        tracer.simplex_rows += len(constraints)
        try:
            return tracer.span("simplex", fn, costs, constraints, bounds)
        except Infeasible:
            tracer.simplex_infeasible += 1
            raise
    return traced


def _bundle(tracer, layer, factory):
    def traced(*args, **kwargs):
        b = factory(*args, **kwargs)
        name = f"{layer}.heuristics"
        return HeuristicsBundle(
            tracer.wrap(name, b.choose_candidate), tracer.wrap(name, b.choose_decide),
            tracer.wrap(name, b.choose_conflict),
            b.choose_induction and tracer.wrap(name, b.choose_induction))
    return traced


def _transformer_call(tracer, call):
    names = {}

    def traced(self, x):
        module = self.fn.__module__
        name = names.get(module)
        if name is None:
            name = names[module] = module.rsplit(".", 1)[-1] + ".F"
        return tracer.span(name, call, self, x)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries; :meth:`Tracer.__exit__` undoes this."""
    w = tracer.wrap
    for name in ("parse_kripke", "parse_mdp", "parse_mrm"):
        tracer.patch(cli, name, lambda f: w("cli.parse", f))
    for name in ("bfs_safe", "vi_max_reach", "vi_expected_reward"):
        tracer.patch(oracles, name, lambda f: w("oracles", f))
    for module in (kripke, mdp, mrm):
        tracer.patch(module, "run_combined", lambda f: w("engine.run", f))
    for rule in ("valid", "unfold", "induction", "candidate", "model",
                 "decide", "conflict"):
        tracer.patch(engine, f"rule_{rule}", lambda f, r=rule: w(f"engine.{r}", f))
    # The certificate check every True/False answer passes before it is
    # returned, and the per-step checker of debug mode.
    tracer.patch(engine, "_finalize", lambda f: w("engine.final_check", f))
    tracer.patch(engine._InvariantChecker, "check",
                 lambda f: w("engine.debug_check", f))
    for cls in (kripke.SubsetLattice, mdp.PointwiseLattice):
        for op in ("leq_info", "meet", "join"):
            tracer.patch(cls, op, lambda f: w("lattice.op", f))
    tracer.patch(lattice.Transformer, "__call__",
                 lambda f: _transformer_call(tracer, f))
    tracer.patch(kripke, "forward_bundle", lambda f: _bundle(tracer, "kripke", f))
    tracer.patch(kripke, "inverse_backward_bundle",
                 lambda f: _bundle(tracer, "kripke", f))
    tracer.patch(mdp, "mdp_bundle", lambda f: _bundle(tracer, "mdp", f))
    tracer.patch(mrm, "mrm_heuristics", lambda f: _bundle(tracer, "mrm", f))
    for module in (mdp, mrm):
        tracer.patch(module, "simplex_min", lambda f: _simplex(tracer, f))
