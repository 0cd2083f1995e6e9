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

Exit codes: 0 verdict True; 10 verdict False; 2 BudgetExhausted or Stuck;
3 witness-validation or oracle mismatch; 1 parse or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import kripke as kr
from . import mdp as mdp_mod
from . import mrm as mrm_mod
from .engine import Verdict
from .lattice import check_kleene_witness, check_kt_witness, is_conclusive_kt
from .mdp import EpsValue
from .oracles import DIVERGED, bfs_safe, vi_expected_reward, vi_max_reach


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class DistributionError(Exception):
    def __init__(self, state: int, action: Optional[int], total: float):
        where = f"state {state}" + ("" if action is None else f" action {action}")
        super().__init__(f"distribution at {where} sums to {total}")
        self.state = state
        self.action = action
        self.total = total


@dataclass(frozen=True)
class RunRequest:
    kind: str  # kripke-forward | kripke-ibackward | mdp | mrm
    engine: str  # combined | positive | negative | opdual
    model_path: str
    budget: int = 100000
    schedule: str = "default"
    seed: Optional[int] = None
    trace: bool = False
    validate_witness: bool = False
    oracle: bool = False
    json_output: bool = False


# ---------------------------------------------------------------------------
# Parsing.


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _expect(tokens, keyword, no):
    if not tokens or tokens[0] != keyword:
        raise ParseError(no, f"expected '{keyword}' line")


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
    except (ValueError, ZeroDivisionError):
        raise ParseError(no, f"bad {what} {tok!r}") from None


def parse_kripke(text: str) -> kr.KripkeStructure:
    it = _lines(text)
    rows = list(it)
    pos = 0

    def next_line(keyword=None):
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] + 1 if rows else 1
            raise ParseError(last, "unexpected end of file"
                             if keyword is None else f"missing '{keyword}' line")
        no, line = rows[pos]
        pos += 1
        return no, line.split()

    no, toks = next_line("states")
    _expect(toks, "states", no)
    if len(toks) != 2:
        raise ParseError(no, "'states' takes exactly one count")
    n = _int(toks[1], no, "state count")
    if n <= 0:
        raise ParseError(no, "state count must be positive")

    no, toks = next_line("init")
    _expect(toks, "init", no)
    init = 0
    for tok in toks[1:]:
        init |= 1 << _state(tok, n, no)

    no, toks = next_line("safe")
    full = (1 << n) - 1
    if toks and toks[0] == "unsafe":
        bad = 0
        for tok in toks[1:]:
            bad |= 1 << _state(tok, n, no)
        safe = full & ~bad
    else:
        _expect(toks, "safe", no)
        safe = 0
        for tok in toks[1:]:
            safe |= 1 << _state(tok, n, no)

    no, toks = next_line("trans")
    _expect(toks, "trans", no)
    if len(toks) != 1:
        raise ParseError(no, "'trans' takes no arguments")

    transitions = set()
    while pos < len(rows):
        no, toks = next_line()
        if len(toks) != 2:
            raise ParseError(no, "transition lines are 'src dst'")
        transitions.add((_state(toks[0], n, no), _state(toks[1], n, no)))

    return kr.KripkeStructure(n, frozenset(transitions), init, safe)


def _parse_safe_set(toks, n, no) -> frozenset:
    _expect(toks, "safe", no)
    return frozenset(_state(tok, n, no) for tok in toks[1:])


def parse_mdp(text: str) -> mdp_mod.MDPModel:
    rows = list(_lines(text))
    pos = 0

    def next_line(keyword=None):
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] + 1 if rows else 1
            raise ParseError(last, "unexpected end of file"
                             if keyword is None else f"missing '{keyword}' line")
        no, line = rows[pos]
        pos += 1
        return no, line.split()

    no, toks = next_line("states")
    _expect(toks, "states", no)
    if len(toks) != 2:
        raise ParseError(no, "'states' takes exactly one count")
    n = _int(toks[1], no, "state count")
    no, toks = next_line("actions")
    _expect(toks, "actions", no)
    if len(toks) != 2:
        raise ParseError(no, "'actions' takes exactly one count")
    m = _int(toks[1], no, "action count")
    if m <= 0:
        raise ParseError(no, "action count must be positive")
    no, toks = next_line("init")
    _expect(toks, "init", no)
    if len(toks) != 2:
        raise ParseError(no, "'init' takes exactly one state")
    s0 = _state(toks[1], n, no)
    no, toks = next_line("lambda")
    _expect(toks, "lambda", no)
    if len(toks) != 2:
        raise ParseError(no, "'lambda' takes exactly one value")
    lam = _number(toks[1], no, "threshold")
    if not 0.0 <= lam <= 1.0:
        raise ParseError(no, "threshold must lie in [0, 1]")
    no, toks = next_line("safe")
    safe = _parse_safe_set(toks, n, no)
    no, toks = next_line("trans")
    _expect(toks, "trans", no)

    table: list[list] = [[None] * m for _ in range(n)]
    while pos < len(rows):
        no, toks = next_line()
        if len(toks) < 4 or toks[2] != "->":
            raise ParseError(no, "transition lines are 's a -> t:p ...'")
        s = _state(toks[0], n, no)
        a = _int(toks[1], no, "action index")
        if not 0 <= a < m:
            raise ParseError(no, f"action index {a} out of range (actions {m})")
        if table[s][a] is not None:
            raise ParseError(no, f"duplicate distribution for state {s} action {a}")
        dist = []
        for tok in toks[3:]:
            if ":" not in tok:
                raise ParseError(no, f"bad transition entry {tok!r}")
            t_tok, p_tok = tok.rsplit(":", 1)
            dist.append((_state(t_tok, n, no), _number(p_tok, no, "probability")))
        total = sum(p for _, p in dist)
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise DistributionError(s, a, total)
        table[s][a] = tuple(dist)

    return mdp_mod.MDPModel(n, m, tuple(tuple(row) for row in table),
                            s0, lam, safe)


def parse_mrm(text: str) -> mrm_mod.MRMModel:
    rows = list(_lines(text))
    pos = 0

    def next_line(keyword=None):
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] + 1 if rows else 1
            raise ParseError(last, "unexpected end of file"
                             if keyword is None else f"missing '{keyword}' line")
        no, line = rows[pos]
        pos += 1
        return no, line.split()

    no, toks = next_line("states")
    _expect(toks, "states", no)
    if len(toks) != 2:
        raise ParseError(no, "'states' takes exactly one count")
    n = _int(toks[1], no, "state count")
    no, toks = next_line("init")
    _expect(toks, "init", no)
    if len(toks) != 2:
        raise ParseError(no, "'init' takes exactly one state")
    s0 = _state(toks[1], n, no)
    no, toks = next_line("lambda")
    _expect(toks, "lambda", no)
    if len(toks) != 2:
        raise ParseError(no, "'lambda' takes exactly one value")
    lam = math.inf if toks[1] == "inf" else _number(toks[1], no, "threshold")
    if lam < 0:
        raise ParseError(no, "threshold must be nonnegative")
    no, toks = next_line("safe")
    safe = _parse_safe_set(toks, n, no)
    no, toks = next_line("trans")
    _expect(toks, "trans", no)

    table: list = [None] * n
    while pos < len(rows):
        no, toks = next_line()
        if len(toks) < 3 or toks[1] != "->":
            raise ParseError(no, "transition lines are 's -> (c,t):p ...'")
        s = _state(toks[0], n, no)
        if table[s] is not None:
            raise ParseError(no, f"duplicate distribution for state {s}")
        dist = []
        for tok in toks[2:]:
            if ":" not in tok or not tok.startswith("("):
                raise ParseError(no, f"bad transition entry {tok!r}")
            pair_tok, p_tok = tok.rsplit(":", 1)
            if not pair_tok.endswith(")") or "," not in pair_tok:
                raise ParseError(no, f"bad transition entry {tok!r}")
            c_tok, t_tok = pair_tok[1:-1].split(",", 1)
            c = _int(c_tok, no, "reward")
            if c < 0:
                raise ParseError(no, "rewards must be nonnegative integers")
            dist.append(((c, _state(t_tok, n, no)),
                         _number(p_tok, no, "probability")))
        total = sum(p for _, p in dist)
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise DistributionError(s, None, total)
        table[s] = tuple(dist)
    for s in range(n):
        if table[s] is None:
            last = rows[-1][0] if rows else 1
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
    if isinstance(x, tuple):
        out = []
        for v in x:
            if isinstance(v, EpsValue):
                base = "inf" if math.isinf(v.base) else v.base
                out.append({"base": base, "eps": v.eps})
            else:
                out.append(v)
        return out
    return str(x)


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


def _instance(req: RunRequest, model):
    """Return (F, alpha, runner) for the request's kind and engine."""
    kind, eng = req.kind, req.engine
    common = dict(budget=req.budget)
    if kind in ("kripke-forward", "kripke-ibackward"):
        forward = kind == "kripke-forward"
        F = (kr.forward_transformer if forward
             else kr.inverse_backward_transformer)(model)
        alpha = model.safe if forward else F.lattice.top & ~model.initial
        if eng == "combined":
            fn = kr.pdr_fkr if forward else kr.pdr_ibkr
            runner = lambda **kw: fn(model, schedule=req.schedule, seed=req.seed,
                                     **common, **kw)
        elif eng == "positive":
            fn = kr.pdr_fkr_positive if forward else kr.pdr_ibkr_positive
            runner = lambda **kw: fn(model, **common, **kw)
        elif eng == "negative":
            fn = kr.pdr_fkr_negative if forward else kr.pdr_ibkr_negative
            runner = lambda **kw: fn(model, **common, **kw)
        else:  # opdual
            runner = lambda **kw: kr.pdr_opdual(model, schedule=req.schedule,
                                                seed=req.seed, **common, **kw)
            F = None  # witness lives on the opposite lattice
            alpha = None
        return F, alpha, runner
    if kind == "mdp":
        F = mdp_mod.bellman(model)
        alpha = model.bound()
        fns = {"combined": lambda **kw: mdp_mod.pdr_ibmdp(
                   model, schedule=req.schedule, seed=req.seed, **common, **kw),
               "positive": lambda **kw: mdp_mod.pdr_mdp_positive(model, **common, **kw),
               "negative": lambda **kw: mdp_mod.pdr_mdp_negative(model, **common, **kw)}
        return F, alpha, fns[eng]
    if kind == "mrm":
        F = mrm_mod.reward_bellman(model)
        alpha = model.bound()
        fns = {"combined": lambda **kw: mrm_mod.pdr_mrm(
                   model, schedule=req.schedule, seed=req.seed, **common, **kw),
               "positive": lambda **kw: mrm_mod.pdr_mrm_positive(model, **common, **kw),
               "negative": lambda **kw: mrm_mod.pdr_mrm_negative(model, **common, **kw)}
        return F, alpha, fns[eng]
    raise ValueError(f"unknown kind {kind!r}")


def _run_oracle(req: RunRequest, model):
    if req.kind in ("kripke-forward", "kripke-ibackward"):
        res = bfs_safe(model)
        return {"name": "bfs_safe", "safe": res.verdict, "value": None}
    if req.kind == "mdp":
        res = vi_max_reach(model)
        return {"name": "vi_max_reach", "safe": bool(res.verdict),
                "value": res.value}
    res = vi_expected_reward(model)
    if res.verdict == DIVERGED:
        safe = math.isinf(model.threshold)
        return {"name": "vi_expected_reward", "safe": safe, "value": "inf"}
    return {"name": "vi_expected_reward", "safe": bool(res.verdict),
            "value": res.value}


def run_cli(req: RunRequest) -> int:
    try:
        with open(req.model_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    parser = {"kripke-forward": parse_kripke, "kripke-ibackward": parse_kripke,
              "mdp": parse_mdp, "mrm": parse_mrm}[req.kind]
    try:
        model = parser(text)
    except (ParseError, DistributionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if req.engine == "opdual" and not req.kind.startswith("kripke"):
        print("error: the opdual engine requires a kind with a supplied join "
              "(kripke-forward or kripke-ibackward)", file=sys.stderr)
        return 1

    trace_on = req.trace or os.environ.get("LTPDR_TRACE") == "1"
    sink = (lambda line: print(line)) if trace_on else None
    F, alpha, runner = _instance(req, model)
    answer = runner(trace=sink)

    validation = None
    if req.validate_witness and F is not None:
        if answer.verdict is Verdict.TRUE:
            j = is_conclusive_kt(answer.kt_witness, F.lattice)
            validation = j is not None and check_kt_witness(
                answer.kt_witness[j], F, alpha)
        elif answer.verdict is Verdict.FALSE:
            validation = check_kleene_witness(answer.kleene_witness, F, alpha)

    oracle = _run_oracle(req, model) if req.oracle else None
    mismatch = False
    if oracle is not None and answer.verdict in (Verdict.TRUE, Verdict.FALSE):
        mismatch = (answer.verdict is Verdict.TRUE) != oracle["safe"]
    if validation is False:
        mismatch = True

    stats = answer.stats
    stats_obj = {"steps": stats.steps, "rule_counts": stats.rule_counts,
                 "frame_count": stats.frame_count,
                 "wall_time": stats.wall_time} if stats else None

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
        if stats_obj is not None:
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ltpdr",
        description="Property-directed reachability over complete lattices: "
                    "decide fixed-point bounds for transition systems, MDPs "
                    "and Markov reward models.")
    ap.add_argument("kind", choices=["kripke-forward", "kripke-ibackward",
                                     "mdp", "mrm"])
    ap.add_argument("model", help="path to a .kr/.mdp/.mrm model file")
    ap.add_argument("--engine", choices=["combined", "positive", "negative",
                                         "opdual"], default="combined")
    ap.add_argument("--budget", type=int, default=100000)
    ap.add_argument("--schedule", choices=["default", "fuzz"], default="default")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--validate-witness", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--json", action="store_true", dest="json_output")
    args = ap.parse_args(argv)
    req = RunRequest(kind=args.kind, engine=args.engine, model_path=args.model,
                     budget=args.budget, schedule=args.schedule, seed=args.seed,
                     trace=args.trace, validate_witness=args.validate_witness,
                     oracle=args.oracle, json_output=args.json_output)
    return run_cli(req)


if __name__ == "__main__":
    sys.exit(main())
