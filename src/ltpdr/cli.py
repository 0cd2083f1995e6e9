"""Model-file parsers, serializers, and the command-line runner.

Three line-oriented formats are supported (``#`` starts a comment, blank
lines are ignored):

``.kr``::

    states N
    init i ...
    safe i ...        # or: unsafe i ...
    trans
    a b               # one transition per line

``.mdp``::

    states N
    actions M
    init s
    lambda x          # x in [0,1], decimal or num/den
    safe i ...
    trans
    s a -> t:p t:p ...

``.mrm``::

    states N
    init s
    lambda x          # nonnegative decimal, num/den, or "inf"
    safe i ...
    trans
    s -> (c,t):p ...  # c = nonnegative integer reward

The three parsers share one line reader, ``_Lines``, which also reads the
header lines; state counts are capped at ``MAX_STATES`` and action counts
at ``MAX_ACTIONS``.  ``KINDS`` maps each command-line kind to its parser,
its ``Instance`` builder and its oracle; ``run_cli`` solves the instance
with ``engine.solve``, and ``scripts/run_corpus.py`` reads the same table.

Exit codes: 0 verdict True; 10 verdict False; 2 BudgetExhausted or Stuck;
3 witness-validation or oracle mismatch; 1 parse or I/O error (a model the
parsers reject never ends in a traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import kripke as kr
from . import mdp as mdp_mod
from . import mrm as mrm_mod
from .engine import Instance, Verdict, certificate_holds, solve
from .oracles import (DIVERGED, NoConvergence, bfs_safe, vi_expected_reward,
                      vi_max_reach)


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# ---------------------------------------------------------------------------
# Parsing.

# Far above any model the solvers finish on, and low enough that a hostile
# count cannot make ``parse_mdp`` allocate a huge states x actions table.
MAX_STATES = 100_000
MAX_ACTIONS = 100


class _Lines:
    """The lines of a model file that hold tokens, with comments stripped,
    read front to back as ``(line number, tokens)``."""

    def __init__(self, text: str):
        self.rows = []
        for no, raw in enumerate(text.splitlines(), start=1):
            toks = raw.split("#", 1)[0].split()
            if toks:
                self.rows.append((no, toks))
        self.pos = 0

    def __bool__(self) -> bool:
        return self.pos < len(self.rows)

    def next(self, keyword=None):
        if not self:
            last = self.rows[-1][0] + 1 if self.rows else 1
            raise ParseError(last, "unexpected end of file"
                             if keyword is None else f"missing '{keyword}' line")
        self.pos += 1
        return self.rows[self.pos - 1]

    def header(self, keyword: str, arg: Optional[str] = None):
        """The next line, which must start with ``keyword``; when ``arg``
        names its argument, it must have exactly one."""
        no, toks = self.next(keyword)
        if toks[0] != keyword:
            raise ParseError(no, f"expected '{keyword}' line")
        if arg is not None and len(toks) != 2:
            raise ParseError(no, f"'{keyword}' takes exactly one {arg}")
        return no, toks

    def section(self, keyword: str):
        """The lines after the next line, which must be ``keyword`` alone."""
        no, toks = self.header(keyword)
        if len(toks) != 1:
            raise ParseError(no, f"'{keyword}' takes no arguments")
        while self:
            yield self.next()

    def count(self, keyword: str, what: str, cap: int,
              positive: bool = False) -> int:
        """The argument of a ``keyword`` count line, at most ``cap``."""
        no, toks = self.header(keyword, "count")
        n = _int(toks[1], no, what)
        if positive and n <= 0:
            raise ParseError(no, f"{what} must be positive")
        if n > cap:
            raise ParseError(no, f"{what} {n} exceeds the limit {cap}")
        return n


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"bad {what} {tok!r}") from None


def _state(tok: str, n: int, no: int) -> int:
    s = _int(tok, no, "state index")
    if not 0 <= s < n:
        raise ParseError(no, f"state index {s} out of range (states {n})")
    return s


def _number(tok: str, no: int, what: str) -> float:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return int(num) / int(den)
        return float(tok)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(no, f"bad {what} {tok!r}") from None


def _state_set(rd: _Lines, n: int) -> frozenset:
    no, toks = rd.header("safe")
    return frozenset(_state(tok, n, no) for tok in toks[1:])


def _transitions(rd: _Lines, n: int, shape: str, m: int = 0):
    """The transition lines after ``trans``, ``s -> entry ...``, or ``s a ->
    entry ...`` for a model with ``m`` actions, as ``(line number, key,
    entry tokens)`` with ``key`` the state or ``(s, a)``; no key may appear
    twice."""
    arrow, seen = (2 if m else 1), set()
    for no, toks in rd.section("trans"):
        if len(toks) < arrow + 2 or toks[arrow] != "->":
            raise ParseError(no, f"transition lines are '{shape}'")
        key = s = _state(toks[0], n, no)
        if m:
            key = (s, _int(toks[1], no, "action index"))
            if not 0 <= key[1] < m:
                raise ParseError(no, f"action index {key[1]} out of range (actions {m})")
        if key in seen:
            raise ParseError(no, f"duplicate distribution for state {s}"
                             + (f" action {key[1]}" if m else ""))
        seen.add(key)
        yield no, key, toks[arrow + 1:]


def parse_kripke(text: str) -> kr.KripkeStructure:
    rd = _Lines(text)
    n = rd.count("states", "state count", MAX_STATES, positive=True)

    no, toks = rd.header("init")
    init = 0
    for tok in toks[1:]:
        init |= 1 << _state(tok, n, no)

    no, toks = rd.next("safe")
    if toks[0] not in ("safe", "unsafe"):
        raise ParseError(no, "expected 'safe' line")
    safe = 0
    for tok in toks[1:]:
        safe |= 1 << _state(tok, n, no)
    if toks[0] == "unsafe":
        safe = ((1 << n) - 1) & ~safe

    transitions = set()
    for no, toks in rd.section("trans"):
        if len(toks) != 2:
            raise ParseError(no, "transition lines are 'src dst'")
        transitions.add((_state(toks[0], n, no), _state(toks[1], n, no)))

    return kr.KripkeStructure(n, frozenset(transitions), init, safe)


def parse_mdp(text: str) -> mdp_mod.MDPModel:
    rd = _Lines(text)
    n = rd.count("states", "state count", MAX_STATES)
    m = rd.count("actions", "action count", MAX_ACTIONS, positive=True)
    no, toks = rd.header("init", "state")
    s0 = _state(toks[1], n, no)
    no, toks = rd.header("lambda", "value")
    lam = _number(toks[1], no, "threshold")
    if not 0.0 <= lam <= 1.0:
        raise ParseError(no, "threshold must lie in [0, 1]")
    safe = _state_set(rd, n)

    table: list[list] = [[None] * m for _ in range(n)]
    for no, (s, a), entries in _transitions(rd, n, "s a -> t:p ...", m):
        dist = []
        for tok in entries:
            if ":" not in tok:
                raise ParseError(no, f"bad transition entry {tok!r}")
            t_tok, p_tok = tok.rsplit(":", 1)
            dist.append((_state(t_tok, n, no), _number(p_tok, no, "probability")))
        table[s][a] = tuple(dist)

    return mdp_mod.MDPModel(n, m, tuple(tuple(row) for row in table),
                            s0, lam, safe)


def parse_mrm(text: str) -> mrm_mod.MRMModel:
    rd = _Lines(text)
    n = rd.count("states", "state count", MAX_STATES)
    no, toks = rd.header("init", "state")
    s0 = _state(toks[1], n, no)
    no, toks = rd.header("lambda", "value")
    lam = math.inf if toks[1] == "inf" else _number(toks[1], no, "threshold")
    if lam < 0:
        raise ParseError(no, "threshold must be nonnegative")
    safe = _state_set(rd, n)

    table: list = [None] * n
    for no, s, entries in _transitions(rd, n, "s -> (c,t):p ..."):
        dist = []
        for tok in entries:
            if ":" not in tok or not tok.startswith("("):
                raise ParseError(no, f"bad transition entry {tok!r}")
            pair_tok, p_tok = tok.rsplit(":", 1)
            if not pair_tok.endswith(")") or "," not in pair_tok:
                raise ParseError(no, f"bad transition entry {tok!r}")
            c_tok, t_tok = pair_tok[1:-1].split(",", 1)
            c = _int(c_tok, no, "reward")
            if c < 0:
                raise ParseError(no, "rewards must be nonnegative integers")
            if c > sys.float_info.max:
                raise ParseError(no, f"reward {c_tok} is too large")
            dist.append(((c, _state(t_tok, n, no)),
                         _number(p_tok, no, "probability")))
        table[s] = tuple(dist)
    for s in range(n):
        if table[s] is None:
            last = rd.rows[-1][0] if rd.rows else 1
            raise ParseError(last, f"state {s} has no distribution")

    return mrm_mod.MRMModel(n, tuple(table), s0, lam, safe)


# ---------------------------------------------------------------------------
# Serialization (round-trips through the parsers above).


def _mask_states(mask: int):
    out = []
    s = 0
    while mask:
        if mask & 1:
            out.append(s)
        mask >>= 1
        s += 1
    return out


def serialize_kripke(K: kr.KripkeStructure) -> str:
    lines = [f"states {K.state_count}",
             "init " + " ".join(str(s) for s in _mask_states(K.initial)),
             "safe " + " ".join(str(s) for s in _mask_states(K.safe)),
             "trans"]
    for a, b in sorted(K.transitions):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def serialize_mdp(M: mdp_mod.MDPModel) -> str:
    lines = [f"states {M.state_count}", f"actions {M.action_count}",
             f"init {M.initial_state}", f"lambda {M.threshold!r}",
             "safe " + " ".join(str(s) for s in sorted(M.safe)),
             "trans"]
    for s in range(M.state_count):
        for a, dist in enumerate(M.delta[s]):
            if dist is None:
                continue
            entries = " ".join(f"{t}:{p!r}" for t, p in dist)
            lines.append(f"{s} {a} -> {entries}")
    return "\n".join(lines) + "\n"


def serialize_mrm(M: mrm_mod.MRMModel) -> str:
    lam = "inf" if math.isinf(M.threshold) else repr(M.threshold)
    lines = [f"states {M.state_count}", f"init {M.initial_state}",
             f"lambda {lam}",
             "safe " + " ".join(str(s) for s in sorted(M.safe)),
             "trans"]
    for s in range(M.state_count):
        entries = " ".join(f"({c},{t}):{p!r}" for (c, t), p in M.delta[s])
        lines.append(f"{s} -> {entries}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Running.


def _element_jsonable(x):
    if isinstance(x, int):
        return _mask_states(x)
    return ["inf" if math.isinf(v) else v for v in x]


def _witness_jsonable(answer):
    if answer.kt_witness is not None:
        return {"type": "kt",
                "frames": [_element_jsonable(e) for e in answer.kt_witness.elements]}
    if answer.kleene_witness is not None:
        return {"type": "kleene",
                "start_index": answer.kleene_witness.start_index,
                "obligations": [_element_jsonable(e)
                                for e in answer.kleene_witness.elements]}
    return None


# kind -> (parser, Instance builder, oracle)
KINDS = {
    "kripke-forward": (parse_kripke, kr.forward, bfs_safe),
    "kripke-ibackward": (parse_kripke, kr.inverse_backward, bfs_safe),
    "mdp": (parse_mdp, mdp_mod.max_reach, vi_max_reach),
    "mrm": (parse_mrm, mrm_mod.expected_reward, vi_expected_reward),
}


def _oracle_report(oracle, model) -> dict:
    """The oracle's verdict; undecided (``safe`` None) if it does not converge."""
    try:
        res = oracle(model)
    except NoConvergence as exc:
        return {"name": oracle.__name__, "safe": None, "reason": str(exc)}
    if res.verdict == DIVERGED:  # an infinite expected reward
        return {"name": oracle.__name__, "safe": math.isinf(model.threshold),
                "value": "inf"}
    return {"name": oracle.__name__, "safe": bool(res.verdict), "value": res.value}


def instance(kind: str, engine: str, model) -> tuple[Instance, str]:
    """The ``Instance`` and ``solve`` engine a kind and ``--engine`` pair
    runs: ``opdual`` is the combined engine on ``kripke.opdual``."""
    if engine == "opdual":
        return kr.opdual(model), "combined"
    return KINDS[kind][1](model), engine


def run_cli(req: argparse.Namespace) -> int:
    """Run the request ``main`` parsed and report; returns the exit code."""
    try:
        with open(req.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    parse, _build, run_oracle = KINDS[req.kind]
    try:
        model = parse(text)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if req.engine == "opdual" and not req.kind.startswith("kripke"):
        print("error: the opdual engine requires a kind with a supplied join "
              "(kripke-forward or kripke-ibackward)", file=sys.stderr)
        return 1

    inst, engine = instance(req.kind, req.engine, model)
    answer = solve(inst, engine, budget=req.budget, trace=print if req.trace else None)

    decided = answer.verdict in (Verdict.TRUE, Verdict.FALSE)
    validation = (certificate_holds(answer, inst.F, inst.alpha)
                  if req.validate_witness and decided else None)

    oracle = _oracle_report(run_oracle, model) if req.oracle else None
    mismatch = validation is False or (
        decided and oracle is not None and oracle["safe"] is not None
        and (answer.verdict is Verdict.TRUE) != oracle["safe"])

    stats = answer.stats
    stats_obj = {"steps": stats.steps, "rule_counts": stats.rule_counts,
                 "frame_count": stats.frame_count,
                 "wall_time": stats.wall_time}

    if req.json_output:
        print(json.dumps({"verdict": answer.verdict.value,
                          "witness": _witness_jsonable(answer),
                          "stats": stats_obj,
                          "oracle": oracle}))
    else:
        print(f"RESULT: {answer.verdict.value}")
        witness = _witness_jsonable(answer)
        if witness is not None:
            print(f"witness: {json.dumps(witness)}")
        print(f"stats: {json.dumps(stats_obj)}")
        if validation is not None:
            print(f"witness-valid: {validation}")
        if oracle is not None:
            print(f"oracle: {json.dumps(oracle)}")

    if mismatch:
        print("error: verdict disagrees with validation/oracle (engine bug)",
              file=sys.stderr)
        return 3
    if answer.verdict is Verdict.TRUE:
        return 0
    if answer.verdict is Verdict.FALSE:
        return 10
    return 2


def _positive_int(tok: str) -> int:
    """The type of ``--budget``: an integer of at least 1."""
    try:
        if int(tok) >= 1:
            return int(tok)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {tok!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ltpdr",
        description="Property-directed reachability over complete lattices: "
                    "decide fixed-point bounds for transition systems, MDPs "
                    "and Markov reward models.")
    ap.add_argument("kind", choices=list(KINDS))
    ap.add_argument("model", help="path to a .kr/.mdp/.mrm model file")
    ap.add_argument("--engine", choices=["combined", "positive", "negative",
                                         "opdual"], default="combined")
    ap.add_argument("--budget", type=_positive_int, default=100000)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--validate-witness", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--json", action="store_true", dest="json_output")
    return run_cli(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
