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

Each parser decodes the whole file, comments, blank lines, CRLF line ends
and ``unsafe`` lines included, in one bulk pass that checks only keywords,
line shapes, transition keys, ``.kr`` state ids and, before allocating,
``MAX_STATES`` and ``MAX_ACTIONS``; every other range is left to the model
constructor.  Only when the decode or the constructor raises is the file
read again token by token with every check (``_Lines``), to name the first
bad line.
Both reads take a ``num/den`` number as ``int(num) / int(den)``.
``KINDS`` is the one table of the command-line kinds, ``kripke-opdual``
(the dual Kripke question) among them; each runs every engine of
``SOLVE_ENGINES``, and ``run_cli``, the scripts and the tests all read it.

Exit codes: 0 verdict True; 10 verdict False; 2 BudgetExhausted or Stuck;
3 oracle mismatch; 1 parse or I/O error (a model the parsers reject never
ends in a traceback).  Every engine checks a True or False answer's
certificate before it answers, so the runner does not check it again.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from operator import itemgetter
from typing import Optional

from . import kripke as kr
from . import mdp as mdp_mod
from . import mrm as mrm_mod
from .engine import Verdict, solve
from .oracles import (DIVERGED, NoConvergence, bfs_safe, vi_expected_reward,
                      vi_max_reach)


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# ---------------------------------------------------------------------------
# Parsing.

# Far above any model the solvers finish on.  The parsers allocate one slot
# per counted state up front, and the rest only as transition lines come.
MAX_STATES = 100_000
MAX_ACTIONS = 100


def _stripped(text: str):
    """The lines of ``text``, with comments stripped."""
    if "#" in text:
        return [line.partition("#")[0] for line in text.splitlines()]
    return text.splitlines()


def _bulk_rows(text: str, keys: list, alias: str = "") -> tuple:
    """The state count, at most ``MAX_STATES``, and the token lists of the
    header lines ``keys[1:]`` (the last may start with ``alias`` instead)
    and of the transition lines."""
    rows = list(filter(None, map(str.split, _stripped(text))))
    k = len(keys)
    heads = list(map(itemgetter(0), rows[:k]))
    if (heads != keys and heads != keys[:-1] + [alias] or rows[k] != ["trans"]
            or len(rows[0]) != 2 or int(rows[0][1]) > MAX_STATES):
        raise ValueError("not the header of this format")
    return int(rows[0][1]), rows[1:k], rows[k + 1:]


class _Lines:
    """The lines of a model file that hold tokens, read front to back as
    ``(line number, tokens)``."""

    def __init__(self, text: str):
        self.rows = list(filter(itemgetter(1), enumerate(map(str.split, _stripped(text)), 1)))
        self.pos = 0

    def next(self, keyword: str):
        if self.pos == len(self.rows):
            last = self.rows[-1][0] + 1 if self.rows else 1
            raise ParseError(last, f"missing '{keyword}' line")
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

    def section(self, keyword: str) -> list:
        """The lines after the next line, which must be ``keyword`` alone."""
        no, toks = self.header(keyword)
        if len(toks) != 1:
            raise ParseError(no, f"'{keyword}' takes no arguments")
        return self.rows[self.pos:]

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

    def covered(self, table: list, what: str) -> None:
        """Reject, at the last line, the first state left None in ``table``."""
        if None in table:
            raise ParseError(self.rows[-1][0], f"state {table.index(None)} has {what}")


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


def _ratio(tok: str) -> float:
    """A decimal or ``num/den`` token as a float, ``int(num) / int(den)``;
    ``ZeroDivisionError`` or ``OverflowError`` for a quotient it cannot be."""
    if "/" in tok:
        num, den = tok.split("/", 1)
        return int(num) / int(den)
    return float(tok)


def _number(tok: str, no: int, what: str) -> float:
    try:
        return _ratio(tok)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(no, f"bad {what} {tok!r}") from None


def _mask(toks, n: int, no: int) -> int:
    """The bitmask of the states ``toks``, each checked to lie below ``n``."""
    mask = 0
    for tok in toks:
        mask |= 1 << _state(tok, n, no)
    return mask


def _kripke_bulk(text: str) -> kr.KripkeStructure:
    n, headers, pairs = _bulk_rows(text, ["states", "init", "safe"], "unsafe")
    masks = []
    for key, *ids in headers:  # the init line, then the safe or unsafe line
        mask = 0
        for s in map(int, ids):
            if not 0 <= s < n:  # before the shift allocates a 1 << s
                raise ValueError("state index out of range")
            mask |= 1 << s
        masks.append(mask ^ ((1 << n) - 1) if key == "unsafe" else mask)  # the complement
    return kr.KripkeStructure(n, frozenset([(int(a), int(b)) for a, b in pairs]), *masks)


def _kripke_checked(text: str) -> kr.KripkeStructure:
    rd = _Lines(text)
    n = rd.count("states", "state count", MAX_STATES, positive=True)
    no, toks = rd.header("init")
    init = _mask(toks[1:], n, no)
    no, toks = rd.next("safe")
    if toks[0] not in ("safe", "unsafe"):
        raise ParseError(no, "expected 'safe' line")
    flip = (1 << n) - 1 if toks[0] == "unsafe" else 0  # an unsafe list's complement
    safe = _mask(toks[1:], n, no) ^ flip
    transitions = set()
    for no, toks in rd.section("trans"):
        if len(toks) != 2:
            raise ParseError(no, "transition lines are 'src dst'")
        transitions.add((_state(toks[0], n, no), _state(toks[1], n, no)))
    return kr.KripkeStructure(n, frozenset(transitions), init, safe)


def _key(toks: list, n: int, no: int, shape: str, m: int, table: list):
    """The checked ``(s, a)``, ``a`` None without actions, of a new line."""
    arrow = 2 if m else 1
    if len(toks) < arrow + 2 or toks[arrow] != "->":
        raise ParseError(no, f"transition lines are '{shape}'")
    s, a = _state(toks[0], n, no), None
    if m:
        a = _int(toks[1], no, "action index")
        if not 0 <= a < m:
            raise ParseError(no, f"action index {a} out of range (actions {m})")
    if table[s] is not None and (not m or table[s][a] is not None):
        raise ParseError(no, f"duplicate distribution for state {s}"
                         + (f" action {a}" if m else ""))
    return s, a


def _mdp_entry(tok: str, n: int, no: int) -> tuple:
    if ":" not in tok:
        raise ParseError(no, f"bad transition entry {tok!r}")
    t_tok, _, p_tok = tok.rpartition(":")
    return _state(t_tok, n, no), _number(p_tok, no, "probability")


def _mrm_entry(tok: str, n: int, no: int) -> tuple:
    pair_tok, _, p_tok = tok.rpartition(":")
    if not (pair_tok.startswith("(") and pair_tok.endswith(")") and "," in pair_tok):
        raise ParseError(no, f"bad transition entry {tok!r}")
    c_tok, t_tok = pair_tok[1:-1].split(",", 1)
    c = _int(c_tok, no, "reward")
    if c < 0:
        raise ParseError(no, "rewards must be nonnegative integers")
    if c > sys.float_info.max:
        raise ParseError(no, f"reward {c_tok} is too large")
    return (c, _state(t_tok, n, no)), _number(p_tok, no, "probability")


def _checked_head(rd: _Lines, n: int, top: float, bound: str) -> tuple:
    """The checked ``(init, lambda, safe)`` lines, the threshold in ``[0, top]``."""
    no, toks = rd.header("init", "state")
    s0 = _state(toks[1], n, no)
    no, toks = rd.header("lambda", "value")
    lam = _number(toks[1], no, "threshold")
    if not 0.0 <= lam <= top:  # NaN fails too
        raise ParseError(no, f"threshold must {bound}")
    no, toks = rd.header("safe")
    return s0, lam, frozenset(_state(tok, n, no) for tok in toks[1:])


def _mdp_bulk(text: str) -> mdp_mod.MDPModel:
    n, ((_, m), (_, s0), (_, lam), (_, *safe)), rows = _bulk_rows(
        text, ["states", "actions", "init", "lambda", "safe"])
    if (m := int(m)) > MAX_ACTIONS:
        raise ValueError(m)
    num = _ratio if "/" in text else float  # _ratio per token: 3-4% slower parses
    table: list = [None] * n  # a state's action row, made on its first line
    for toks in rows:
        s, a = int(toks[0]), int(toks[1])
        row = table[s] = table[s] or [None] * m  # IndexError for s >= n
        if toks[2] != "->" or s < 0 or a < 0 or row[a] is not None:  # or a >= m
            raise ValueError("a bad or duplicate key")
        dist = []
        for tok in toks[3:]:
            t, _, p = tok.rpartition(":")
            dist.append((int(t), num(p)))
        row[a] = tuple(dist)
    if None in table:
        raise ValueError("a state without a line")
    return mdp_mod.MDPModel(n, m, tuple(map(tuple, table)), int(s0), num(lam),
                            frozenset(map(int, safe)))


def _mdp_checked(text: str) -> mdp_mod.MDPModel:
    rd = _Lines(text)
    n = rd.count("states", "state count", MAX_STATES)
    m = rd.count("actions", "action count", MAX_ACTIONS, positive=True)
    s0, lam, safe = _checked_head(rd, n, 1.0, "lie in [0, 1]")
    table: list = [None] * n
    for no, toks in rd.section("trans"):
        s, a = _key(toks, n, no, "s a -> t:p ...", m, table)
        row = table[s] = table[s] or [None] * m
        row[a] = tuple([_mdp_entry(tok, n, no) for tok in toks[3:]])
    rd.covered(table, "no available action")
    return mdp_mod.MDPModel(n, m, tuple(map(tuple, table)), s0, lam, safe)


def _mrm_bulk(text: str) -> mrm_mod.MRMModel:
    n, ((_, s0), (_, lam), (_, *safe)), rows = _bulk_rows(
        text, ["states", "init", "lambda", "safe"])
    num = _ratio if "/" in text else float  # _ratio per token: 3-4% slower parses
    table: list = [None] * n
    for toks in rows:
        s = int(toks[0])
        if toks[1] != "->" or not 0 <= s < n or table[s] is not None:
            raise ValueError("a bad key")
        dist = []
        for tok in toks[2:]:
            pair, _, p = tok.rpartition(":")
            if pair[0] != "(" or pair[-1] != ")":
                raise ValueError("a bad entry")
            c, _, t = pair[1:-1].partition(",")
            dist.append(((int(c), int(t)), num(p)))
        table[s] = tuple(dist)
    if None in table:
        raise ValueError("a state without a line")
    return mrm_mod.MRMModel(n, tuple(table), int(s0), num(lam),
                            frozenset(map(int, safe)))


def _mrm_checked(text: str) -> mrm_mod.MRMModel:
    rd = _Lines(text)
    n = rd.count("states", "state count", MAX_STATES)
    s0, lam, safe = _checked_head(rd, n, math.inf, "be nonnegative")
    table: list = [None] * n
    for no, toks in rd.section("trans"):
        s = _key(toks, n, no, "s -> (c,t):p ...", 0, table)[0]
        table[s] = tuple([_mrm_entry(tok, n, no) for tok in toks[2:]])
    rd.covered(table, "no distribution")
    return mrm_mod.MRMModel(n, tuple(table), s0, lam, safe)


def parse_kripke(text: str) -> kr.KripkeStructure:
    try:
        return _kripke_bulk(text)
    except (ParseError, ValueError, IndexError):
        return _kripke_checked(text)


def parse_mdp(text: str) -> mdp_mod.MDPModel:
    try:
        return _mdp_bulk(text)
    except (ParseError, ValueError, IndexError, ZeroDivisionError, OverflowError):
        return _mdp_checked(text)


def parse_mrm(text: str) -> mrm_mod.MRMModel:
    try:
        return _mrm_bulk(text)
    except (ParseError, ValueError, IndexError, ZeroDivisionError, OverflowError):
        return _mrm_checked(text)


# ---------------------------------------------------------------------------
# Serialization (round-trips through the parsers above).


def _mask_states(mask: int) -> list:
    return [s for s in range(mask.bit_length()) if mask >> s & 1]


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
    lines = [f"states {M.state_count}", f"init {M.initial_state}",
             f"lambda {M.threshold!r}",
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


# kind -> its model-file suffix, the paper's name of its instance, parser,
# Instance builder and oracle.  Every kind runs every engine of ``solve``.
SOLVE_ENGINES = ("combined", "positive", "negative")
Kind = namedtuple("Kind", "suffix name parse build oracle")
KINDS = {
    "kripke-forward": Kind(".kr", "fkr", parse_kripke, kr.forward, bfs_safe),
    "kripke-ibackward": Kind(".kr", "ibkr", parse_kripke, kr.inverse_backward, bfs_safe),
    "kripke-opdual": Kind(".kr", "opdual", parse_kripke, kr.opdual, bfs_safe),
    "mdp": Kind(".mdp", "ibmdp", parse_mdp, mdp_mod.max_reach, vi_max_reach),
    "mrm": Kind(".mrm", "mrm", parse_mrm, mrm_mod.expected_reward, vi_expected_reward),
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


def run_cli(req: argparse.Namespace) -> int:
    """Run the request ``main`` parsed and report; returns the exit code."""
    import json  # here and below, so that importing the parsers costs less
    kind = KINDS[req.kind]
    try:
        with open(req.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        model = kind.parse(text)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    trace = (lambda line: print(line, file=sys.stderr)) if req.trace else None
    answer = solve(kind.build(model), req.engine, budget=req.budget, trace=trace)
    stats = answer.stats
    report = {"verdict": answer.verdict.value, "witness": _witness_jsonable(answer),
              "stats": {"steps": stats.steps, "rule_counts": stats.rule_counts,
                        "frame_count": stats.frame_count, "wall_time": stats.wall_time},
              "oracle": _oracle_report(kind.oracle, model) if req.oracle else None}
    if req.json_output:
        print(json.dumps(report))
    else:
        print(f"RESULT: {report.pop('verdict')}")
        for key, value in report.items():
            if value is not None:
                print(f"{key}: {json.dumps(value)}")

    code = {Verdict.TRUE: 0, Verdict.FALSE: 10}.get(answer.verdict, 2)
    safe = (report["oracle"] or {}).get("safe")
    if code != 2 and safe is not None and (code == 0) != safe:
        print("error: verdict disagrees with the oracle (engine bug)", file=sys.stderr)
        return 3
    return code


def _positive_int(tok: str) -> int:
    """The type of ``--budget``: an integer of at least 1."""
    import argparse
    try:
        if int(tok) >= 1:
            return int(tok)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {tok!r}")


def main(argv=None) -> int:
    import argparse
    ap = argparse.ArgumentParser(
        prog="ltpdr",
        description="Property-directed reachability over complete lattices: "
                    "decide fixed-point bounds for transition systems, MDPs "
                    "and Markov reward models.")
    ap.add_argument("kind", choices=list(KINDS))
    ap.add_argument("model", help="path to a .kr/.mdp/.mrm model file")
    ap.add_argument("--engine", default="combined", choices=SOLVE_ENGINES)
    ap.add_argument("--budget", type=_positive_int, default=100000)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--json", action="store_true", dest="json_output")
    return run_cli(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
