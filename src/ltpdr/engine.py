"""The generic PDR engines and their rewrite rules.

Three engines share the rule vocabulary:

* ``run_combined`` -- the full engine, interleaving frame strengthening with
  obligation-driven counterexample search (rules Valid, Unfold, Induction,
  Candidate, Model, Decide, Conflict);
* ``run_positive`` -- frames only (Valid, Unfold, Induction); can answer True
  or exhaust its budget, never False;
* ``run_negative`` -- obligations only (Candidate, Model, Decide); can answer
  False, get Stuck, or exhaust its budget, never True.

An ``Instance`` bundles one question ``mu F <= alpha`` with the choices the
engines need for it, and ``solve(instance, engine)`` runs one of the three
engines on it.  Each instance module builds its ``Instance`` values
(``kripke.forward``, ``kripke.inverse_backward``, ``kripke.opdual``,
``mdp.max_reach``, ``mrm.expected_reward``).

All rules are pure config-to-config steps; the runners add scheduling,
budgeting, statistics, optional per-step invariant checking (``debug=True``)
and an optional trace sink.  Heuristic outputs are always re-verified against
their contracts; instance code is never trusted.

Every instance's Conflict lemma is the paper's canonical ``x := F(X_{i-1})``
(``canonical_conflict``), which meets its contract by monotonicity.  A lemma
blocking only the part of the frame the obligation violates makes the
search take order ``n^2`` steps on a chain of depth ``n``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Optional

from .lattice import (
    InvolutionViolation,
    KTSequence,
    KleeneSequence,
    Lattice,
    OppositeLattice,
    Transformer,
    check_kleene_witness,
    check_kt_witness,
    is_conclusive_kt,
    is_kleene_sequence,
    is_kt_sequence,
)


class HeuristicViolation(Exception):
    """An instance heuristic returned a value breaking its contract."""


class ContractFailure(Exception):
    """A heuristic was invoked with its stated precondition violated."""


class EngineInvariantError(Exception):
    """A rule application produced an invalid configuration (engine bug)."""


class Verdict(Enum):
    TRUE = "True"
    FALSE = "False"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    STUCK = "Stuck"


@dataclass
class RunStats:
    rule_counts: dict[str, int] = field(default_factory=dict)
    steps: int = 0
    frame_count: int = 0
    wall_time: float = 0.0

    def count(self, rule: str) -> None:
        self.rule_counts[rule] = self.rule_counts.get(rule, 0) + 1


@dataclass(frozen=True)
class PDRAnswer:
    verdict: Verdict
    kt_witness: Optional[KTSequence] = None
    kleene_witness: Optional[KleeneSequence] = None
    stats: Optional[RunStats] = None


@dataclass(frozen=True)
class PDRConfig:
    """Engine state: the frame chain plus the pending obligation chain."""

    frames: KTSequence
    obligations: KleeneSequence


def canonical_conflict(x_prev, head, fx):
    """Conflict's canonical choice ``x := F(X_{i-1})``, which the engine
    passes in precomputed as ``fx``."""
    return fx


@dataclass(frozen=True)
class HeuristicsBundle:
    """Instance-supplied choice functions for the combined engine.

    Each function may return None ("no choice available"); any returned
    element is re-verified by the engine and a violation aborts the run.
    ``choose_decide``/``choose_conflict`` receive ``F(X_{i-1})`` precomputed.
    Conflict defaults to ``canonical_conflict``, which every instance uses.
    ``choose_induction`` is offered the frames before the other rules on
    every step and returns ``(k, x)``; ``rule_induction`` applies it when
    ``X_k !<= x`` and ``F(X_{k-1} /\\ x) <= x``.  The MDP and reward
    instances supply ``mdp.optimistic_induction``; the Kripke instance
    supplies none.
    """

    choose_candidate: Callable[[Any, Any, Any], Optional[Any]]
    choose_decide: Callable[[Any, Any, Any], Optional[Any]]
    choose_conflict: Callable[[Any, Any, Any], Optional[Any]] = canonical_conflict
    choose_induction: Optional[Callable[[KTSequence], Optional[tuple[int, Any]]]] = None


@dataclass(frozen=True)
class NegativeHeuristics:
    """Choice functions for the one-sided negative engine.

    Candidate here is unconstrained by frames: any ``x`` not below alpha.
    Decide must produce ``x`` with ``C_head <= F(x)``.
    """

    choose_candidate: Callable[[Any], Optional[Any]]
    choose_decide: Callable[[Any], Optional[Any]]


def _empty_obligations(n: int) -> KleeneSequence:
    return KleeneSequence((), n)


def initial_config(F: Transformer) -> PDRConfig:
    bot = F.lattice.bot
    return PDRConfig(KTSequence((bot, F(bot))), _empty_obligations(2))


# ---------------------------------------------------------------------------
# Rules (pure).  Each returns the successor config / answer, or None when its
# guard does not hold.


def rule_valid(cfg: PDRConfig, F: Transformer, alpha, lo: int = 0,
               hi: Optional[int] = None) -> Optional[PDRAnswer]:
    """Valid on the frame pairs ``(j, j+1)`` with ``lo <= j < hi``; every
    pair by default."""
    j = is_conclusive_kt(cfg.frames, F.lattice, lo, hi)
    if j is None:
        return None
    return PDRAnswer(Verdict.TRUE, kt_witness=cfg.frames)


def rule_unfold(cfg: PDRConfig, F: Transformer, alpha) -> Optional[PDRConfig]:
    lat = F.lattice
    xs = cfg.frames.elements
    if not lat.leq(xs[-1], alpha):
        return None
    frames = KTSequence(xs + (lat.top,))
    return PDRConfig(frames, _empty_obligations(len(frames)))


def rule_induction(cfg: PDRConfig, F: Transformer, alpha, k: int, x) -> Optional[PDRConfig]:
    """Induction, which the paper applies only with no obligations pending:
    strengthening a frame under a pending ``C_j`` could leave ``C_j !<= X_j``."""
    lat = F.lattice
    xs = cfg.frames.elements
    if not cfg.obligations.empty or not 2 <= k <= len(xs) - 1:
        return None
    if lat.leq(xs[k], x):
        return None
    if not lat.leq(F(lat.meet(xs[k - 1], x)), x):
        return None
    return PDRConfig(_strengthen(lat, xs, k, x), cfg.obligations)


def rule_candidate(cfg: PDRConfig, F: Transformer, alpha,
                   heuristics: HeuristicsBundle) -> Optional[PDRConfig]:
    lat = F.lattice
    if not cfg.obligations.empty:
        return None
    last = cfg.frames.elements[-1]
    ok, info = lat.leq_info(last, alpha)
    if ok:
        return None
    x = heuristics.choose_candidate(last, alpha, info)
    if x is None:
        return None
    if not lat.leq(x, last) or lat.leq(x, alpha):
        raise HeuristicViolation("candidate output must satisfy x <= X_{n-1} and x !<= alpha")
    n = len(cfg.frames)
    return PDRConfig(cfg.frames, KleeneSequence((x,), n - 1))


def rule_model(cfg: PDRConfig, F: Transformer, alpha) -> Optional[PDRAnswer]:
    ob = cfg.obligations
    if ob.empty or ob.start_index != 1:
        return None
    witness = KleeneSequence((F.lattice.bot,) + ob.elements, 0)
    return PDRAnswer(Verdict.FALSE, kleene_witness=witness)


def rule_decide(cfg: PDRConfig, F: Transformer, alpha, heuristics: HeuristicsBundle,
                fx=None) -> Optional[PDRConfig]:
    """Decide; ``fx`` is ``F(X_{i-1})`` when the caller has it already."""
    lat = F.lattice
    ob = cfg.obligations
    if ob.empty:
        return None
    i = ob.start_index
    head = ob.elements[0]
    x_prev = cfg.frames.elements[i - 1]
    if fx is None:
        fx = F(x_prev)
    if not lat.leq(head, fx):
        return None
    x = heuristics.choose_decide(x_prev, head, fx)
    if x is None:
        return None
    if not lat.leq(x, x_prev) or not lat.leq(head, F(x)):
        raise HeuristicViolation("decide output must satisfy x <= X_{i-1} and C_i <= F(x)")
    return PDRConfig(cfg.frames, KleeneSequence((x,) + ob.elements, i - 1))


def rule_conflict(cfg: PDRConfig, F: Transformer, alpha, heuristics: HeuristicsBundle,
                  fx=None) -> Optional[PDRConfig]:
    """Conflict; ``fx`` is ``F(X_{i-1})`` when the caller has it already.

    The guard is ``C_i !<= F(X_{i-1})``, Decide's negated; the lemma
    (``F(X_{i-1})`` by default) is re-checked against its contract.
    """
    lat = F.lattice
    ob = cfg.obligations
    if ob.empty:
        return None
    i = ob.start_index
    head = ob.elements[0]
    x_prev = cfg.frames.elements[i - 1]
    if fx is None:
        fx = F(x_prev)
    if lat.leq(head, fx):
        return None
    x = heuristics.choose_conflict(x_prev, head, fx)
    if x is None:
        return None
    if lat.leq(head, x) or not lat.leq(F(lat.meet(x_prev, x)), x):
        raise HeuristicViolation(
            "conflict output must satisfy C_i !<= x and F(X_{i-1} /\\ x) <= x")
    return PDRConfig(_strengthen(lat, cfg.frames.elements, i, x),
                     KleeneSequence(ob.elements[1:], i + 1))


def _strengthen(lat: Lattice, xs: tuple, k: int, x) -> KTSequence:
    """The frames with ``x`` met into ``X_2 .. X_k`` (Induction, Conflict).

    The chain ascends, so once ``X_j <= x`` every frame below ``X_j`` is
    below ``x`` too and the meet leaves it as it is.  Only the frames above
    the highest such ``X_j`` are met; ``X_0 .. X_j`` are kept as the same
    objects, which ``_fresh_pairs`` and the ``F`` cache of ``run_combined``
    rely on.
    """
    j = k
    while j >= 2 and not lat.leq(xs[j], x):
        j -= 1
    return KTSequence(xs[:j + 1] + tuple([lat.meet(e, x) for e in xs[j + 1:k + 1]])
                      + xs[k + 1:])


# ---------------------------------------------------------------------------
# Per-step invariant checking (debug mode).


class _InvariantChecker:
    """The configuration invariants of debug mode, checked after every step.

    Frames are immutable and ``_strengthen`` keeps unchanged ones as the same
    objects, so only the frame pairs and ``F^i(bot) <= X_i`` entries that
    touch a frame not identical to the one at its index in the last checked
    chain are re-tested.  ``X_{n-2} <= alpha``, the prefix and the
    obligations are re-tested on every step.
    """

    def __init__(self, F: Transformer, alpha, combined: bool):
        self.F = F
        self.alpha = alpha
        self.combined = combined
        self.chain = [F.lattice.bot, F(F.lattice.bot)]  # iterates of F from bottom
        self.frames: tuple = ()  # the last chain that passed

    def check(self, cfg: PDRConfig) -> None:
        F, lat = self.F, self.F.lattice
        xs, ob = cfg.frames.elements, cfg.obligations
        n = len(xs)
        old = self.frames
        changed = [i >= len(old) or x is not old[i] for i, x in enumerate(xs)]
        while len(self.chain) < n:
            self.chain.append(F(self.chain[-1]))
        if n < 2 or not lat.eq(xs[0], lat.bot) or not lat.leq(xs[n - 2], self.alpha):
            raise EngineInvariantError("frame chain invariant broken")
        for i in range(n - 1):
            if (changed[i] or changed[i + 1]) and not (
                    lat.leq(xs[i], xs[i + 1]) and lat.leq(F(xs[i]), xs[i + 1])):
                raise EngineInvariantError("frame chain invariant broken")
        if not is_kleene_sequence(ob, F, self.alpha):
            raise EngineInvariantError("obligation chain invariant broken")
        if not ob.empty:
            if ob.start_index + len(ob) != n:
                raise EngineInvariantError("obligation indexing out of sync with frames")
            for off, c in enumerate(ob.elements):
                if not lat.leq(c, xs[ob.start_index + off]):
                    raise EngineInvariantError("obligation not admissible (C_j !<= X_j)")
        if self.combined and not lat.eq(xs[1], self.chain[1]):
            raise EngineInvariantError("frame prefix (bot, F bot) not preserved")
        for i in range(n):
            if changed[i] and not lat.leq(self.chain[i], xs[i]):
                raise EngineInvariantError("frames no longer over-approximate F^i(bot)")
        self.frames = xs


# ---------------------------------------------------------------------------
# Runners.


def _stop(answer: PDRAnswer, stats: RunStats, started: float,
          frames_len: int) -> PDRAnswer:
    stats.wall_time = time.perf_counter() - started
    stats.frame_count = frames_len
    return replace(answer, stats=stats)


def _finalize(answer: PDRAnswer, stats: RunStats, F: Transformer, alpha,
              started: float, frames: Optional[KTSequence],
              debug: bool = False) -> PDRAnswer:
    """Stop with a True or False answer after re-checking its certificate;
    in debug mode also re-check the whole final frame chain (None for the
    negative engine)."""
    answer = _stop(answer, stats, started, 0 if frames is None else len(frames))
    if debug and frames is not None and not is_kt_sequence(frames, F, alpha):
        raise EngineInvariantError("frame chain invariant broken")
    lat = F.lattice
    if answer.verdict is Verdict.TRUE:
        j = is_conclusive_kt(answer.kt_witness, lat)
        if j is None or not check_kt_witness(answer.kt_witness[j], F, alpha):
            raise EngineInvariantError("True answer without a valid positive certificate")
    elif answer.verdict is Verdict.FALSE:
        if not check_kleene_witness(answer.kleene_witness, F, alpha):
            raise EngineInvariantError("False answer without a valid negative certificate")
    return answer


def _fresh_pairs(rule: str, old: KTSequence, cfg: PDRConfig,
                 k: Optional[int]) -> Optional[tuple[int, int]]:
    """The range ``(lo, hi)`` of frame pairs ``(j, j+1)``, ``lo <= j < hi``,
    on which Valid can newly hold after ``rule`` turned the frames ``old``
    into those of ``cfg``; None when the rule kept the frames.

    Valid failed on ``old``.  Unfold adds just the last pair.  Induction at
    ``k`` and Conflict at ``k`` (the obligation index, one below the new
    start) meet a new element into ``X_2 .. X_k``; ``_strengthen`` keeps the
    frames the meet leaves unchanged as the same objects, and since the
    chain ascends these are a prefix ``X_0 .. X_{j0}``.  A pair of two
    unchanged frames has already failed, and at ``j = k`` the pair would
    need ``X_{k+1} <= X_k`` already, so only ``j0 <= j < k`` are fresh.
    """
    if rule == "unfold":
        n = len(cfg.frames)
        return (n - 2, n - 1)
    if rule == "conflict":
        k = cfg.obligations.start_index - 1
    elif rule != "induction":
        return None
    xs, ys = old.elements, cfg.frames.elements
    j0 = k
    while j0 > 1 and xs[j0] is not ys[j0]:
        j0 -= 1
    return (j0, k)


def _image_at(F: Transformer, cache: dict, xs: tuple, j: int):
    """``F(X_j)`` through ``cache``, which maps ``j`` to ``(X_j, F(X_j))``.

    An entry is reused only while ``X_j`` is the very object it was computed
    for, so it goes stale exactly when the frame changes.
    """
    entry = cache.get(j)
    if entry is None or entry[0] is not xs[j]:
        entry = cache[j] = (xs[j], F(xs[j]))
    return entry[1]


def _emit(trace, step: int, rule: str, cfg: PDRConfig) -> None:
    if trace is not None:
        trace(f"step={step} rule={rule} frames={len(cfg.frames)} "
              f"obligations={len(cfg.obligations)}")


def run_combined(F: Transformer, alpha, heuristics: HeuristicsBundle, *,
                 budget: int = 100000, debug: bool = False,
                 trace: Optional[Callable[[str], None]] = None) -> PDRAnswer:
    """Run the full engine from the initial config (bot <= F(bot); ()).

    Each step applies Valid, then Model, then exactly one of the remaining
    rules, whose guards leave no choice.  With no obligations pending, the
    bundle's Induction proposer is asked first and its lemma applied when
    it passes the guard; otherwise Unfold needs ``X_{n-1} <= alpha`` and
    Candidate its negation.  With obligations pending, Decide needs
    ``C_i <= F(X_{i-1})`` and Conflict its negation; the two share one
    evaluation of ``F(X_{i-1})``.  The only freedom left is the Induction
    proposer and the element each rule picks.

    Valid is a function of the frames alone and has failed on every earlier
    chain, so each step re-checks it only on the frame pairs the last rule
    could have made conclusive (``_fresh_pairs``): none after Decide or
    Candidate, which keep the frames; the new last pair after Unfold; and
    after Induction or Conflict at index ``k``, pairs ``j0 .. k-1``, where
    ``X_{j0}`` is the highest frame the meet left unchanged.  Since the
    chain ascends, the meet changes only ``X_{j0+1} .. X_k``
    (``_strengthen``).  The certificate check at the end scans the whole
    chain.

    ``F(X_{i-1})`` for Decide and Conflict comes from a per-index cache of
    ``(X_j, F(X_j))`` (``_image_at``); an entry is reused only while its
    frame is the same object, so a Conflict or Induction that changes
    ``X_j`` makes it stale and every unchanged frame keeps its image.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cfg = initial_config(F)
    stats = RunStats()
    started = time.perf_counter()
    checker = _InvariantChecker(F, alpha, combined=True) if debug else None
    if checker:
        checker.check(cfg)
    fresh = (0, len(cfg.frames) - 1)  # the pairs Valid has not yet failed on
    images: dict = {}  # j -> (X_j, F(X_j))

    for step in range(1, budget + 1):
        stats.steps = step
        if fresh is not None:
            ans = rule_valid(cfg, F, alpha, *fresh)
            if ans is not None:
                stats.count("valid")
                _emit(trace, step, "valid", cfg)
                return _finalize(ans, stats, F, alpha, started, cfg.frames, debug)
        before = cfg.frames
        ans = rule_model(cfg, F, alpha)
        if ans is not None:
            stats.count("model")
            _emit(trace, step, "model", cfg)
            return _finalize(ans, stats, F, alpha, started, cfg.frames, debug)

        applied = k = None
        if cfg.obligations.empty:
            propose = heuristics.choose_induction
            prop = propose(cfg.frames) if propose is not None else None
            if prop is not None:
                nxt = rule_induction(cfg, F, alpha, prop[0], prop[1])
                if nxt is not None:
                    cfg, applied, k = nxt, "induction", prop[0]
            if applied is None:
                nxt = rule_unfold(cfg, F, alpha)
                if nxt is not None:
                    cfg, applied = nxt, "unfold"
                else:
                    nxt = rule_candidate(cfg, F, alpha, heuristics)
                    if nxt is not None:
                        cfg, applied = nxt, "candidate"
        else:
            fx = _image_at(F, images, cfg.frames.elements, cfg.obligations.start_index - 1)
            nxt = rule_decide(cfg, F, alpha, heuristics, fx)
            if nxt is not None:
                cfg, applied = nxt, "decide"
            else:
                nxt = rule_conflict(cfg, F, alpha, heuristics, fx)
                if nxt is not None:
                    cfg, applied = nxt, "conflict"

        if applied is None:
            return _stop(PDRAnswer(Verdict.STUCK), stats, started, len(cfg.frames))
        stats.count(applied)
        _emit(trace, step, applied, cfg)
        if checker:
            checker.check(cfg)
        fresh = _fresh_pairs(applied, before, cfg, k)

    return _stop(PDRAnswer(Verdict.BUDGET_EXHAUSTED), stats, started, len(cfg.frames))


def run_positive(F: Transformer, alpha,
                 induction_proposer: Optional[Callable[[KTSequence], Optional[tuple[int, Any]]]],
                 *, budget: int = 100000, debug: bool = False,
                 trace: Optional[Callable[[str], None]] = None) -> PDRAnswer:
    """One-sided engine: Valid, Unfold and Induction only; never answers False.

    When no rule fires the step is still consumed, so an unprovable instance
    exhausts its budget instead of concluding.  Valid is re-checked on the
    same frame pairs as in ``run_combined``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cfg = initial_config(F)
    stats = RunStats()
    started = time.perf_counter()
    checker = _InvariantChecker(F, alpha, combined=False) if debug else None
    fresh = (0, len(cfg.frames) - 1)  # the pairs Valid has not yet failed on

    for step in range(1, budget + 1):
        stats.steps = step
        if fresh is not None:
            ans = rule_valid(cfg, F, alpha, *fresh)
            if ans is not None:
                stats.count("valid")
                _emit(trace, step, "valid", cfg)
                return _finalize(ans, stats, F, alpha, started, cfg.frames, debug)
        before = cfg.frames
        applied, k = "unfold", None
        nxt = rule_unfold(cfg, F, alpha)
        if nxt is None:
            prop = induction_proposer(cfg.frames) if induction_proposer else None
            nxt = rule_induction(cfg, F, alpha, prop[0], prop[1]) if prop else None
            applied, k = ("induction", prop[0]) if nxt is not None else ("noop", None)
        stats.count(applied)
        if nxt is not None:
            cfg = nxt
            _emit(trace, step, applied, cfg)
            if checker:
                checker.check(cfg)
        fresh = _fresh_pairs(applied, before, cfg, k)

    return _stop(PDRAnswer(Verdict.BUDGET_EXHAUSTED), stats, started, len(cfg.frames))


def run_negative(F: Transformer, alpha, heuristics: NegativeHeuristics, *,
                 budget: int = 100000, debug: bool = False,
                 trace: Optional[Callable[[str], None]] = None) -> PDRAnswer:
    """One-sided engine: Candidate, Model and Decide only; never answers True.

    A failed Decide falls back to a fresh Candidate (resetting the chain);
    Stuck is reported only when no candidate exists at all (alpha = top).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lat = F.lattice
    elements: tuple = ()
    stats = RunStats()
    started = time.perf_counter()

    def restart(step: int) -> bool:
        nonlocal elements
        x = heuristics.choose_candidate(alpha)
        if x is None:
            return False
        if lat.leq(x, alpha):
            raise HeuristicViolation("negative candidate must not be below alpha")
        elements = (x,)
        stats.count("candidate")
        if trace is not None:
            trace(f"step={step} rule=candidate frames=0 obligations=1")
        return True

    for step in range(1, budget + 1):
        stats.steps = step
        if elements and lat.eq(elements[0], lat.bot):
            stats.count("model")
            if trace is not None:
                trace(f"step={step} rule=model frames=0 obligations={len(elements)}")
            witness = KleeneSequence(elements, 0)
            ans = PDRAnswer(Verdict.FALSE, kleene_witness=witness)
            return _finalize(ans, stats, F, alpha, started, None)
        if not elements:
            if not restart(step):
                return _stop(PDRAnswer(Verdict.STUCK), stats, started, 0)
            continue
        x = heuristics.choose_decide(elements[0])
        if x is not None:
            if not lat.leq(elements[0], F(x)):
                raise HeuristicViolation("negative decide must satisfy C_0 <= F(x)")
            elements = (x,) + elements
            stats.count("decide")
            if trace is not None:
                trace(f"step={step} rule=decide frames=0 obligations={len(elements)}")
            if debug and not is_kleene_sequence(KleeneSequence(elements, 0), F, alpha):
                raise EngineInvariantError("obligation chain invariant broken")
        elif not restart(step):
            return _stop(PDRAnswer(Verdict.STUCK), stats, started, 0)

    return _stop(PDRAnswer(Verdict.BUDGET_EXHAUSTED), stats, started, 0)


# ---------------------------------------------------------------------------
# Generic heuristics and dualization.


def canonical_heuristics(F: Transformer) -> HeuristicsBundle:
    """Lattice-agnostic choices: Candidate x := X_{n-1}, Decide x := X_{i-1},
    Conflict x := F(X_{i-1}).  Always contract-valid, never generalizing."""

    def candidate(last, alpha, info):
        return last

    def decide(x_prev, head, fx):
        return x_prev

    return HeuristicsBundle(candidate, decide)


def join_induction_proposer(F: Transformer):
    """Propose x := X_{k-1} v F(X_{k-1}) at the first index where it
    strengthens; needs a join on the instance lattice."""
    lat = F.lattice

    def propose(frames: KTSequence) -> Optional[tuple[int, Any]]:
        xs = frames.elements
        for k in range(2, len(xs)):
            x = lat.join(xs[k - 1], F(xs[k - 1]))
            if not lat.leq(xs[k], x):
                return (k, x)
        return None

    return propose


@dataclass(frozen=True)
class Instance:
    """One question ``mu F <= alpha`` with the choices the engines need.

    ``bundle`` serves the combined engine; ``negative``, when the instance
    has one, builds the choices of the negative engine on first use, so
    that building an instance costs no ``F`` call.  The positive engine
    needs only ``F``: it proposes ``join_induction_proposer(F)``.
    """

    F: Transformer
    alpha: Any
    bundle: HeuristicsBundle
    negative: Optional[Callable[[], NegativeHeuristics]] = None


def solve(inst: Instance, engine: str = "combined", *, budget: int = 100000,
          debug: bool = False,
          trace: Optional[Callable[[str], None]] = None) -> PDRAnswer:
    """Run ``engine`` (``combined``, ``positive`` or ``negative``) on ``inst``."""
    kw = dict(budget=budget, debug=debug, trace=trace)
    if engine == "combined":
        return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
    if engine == "positive":
        return run_positive(inst.F, inst.alpha, join_induction_proposer(inst.F), **kw)
    if engine == "negative" and inst.negative is not None:
        return run_negative(inst.F, inst.alpha, inst.negative(), **kw)
    raise ValueError(f"no {engine!r} engine for this instance")


def dualize(F: Transformer, alpha) -> tuple[Transformer, Any]:
    """Wrap the instance in its opposite lattice so that running the engine
    answers the dual under-approximation question ``alpha <= nu F``.

    Requires a join on the instance lattice (it realizes the dual meet).
    """
    lat = F.lattice
    lat.join(lat.bot, lat.bot)  # probe; raises UnsupportedDual if absent
    return Transformer(OppositeLattice(lat), F.fn), alpha


def involution_reduce(F_core: Transformer, iota, alpha, neg) -> tuple[Transformer, Any]:
    """Turn the under-approximation problem ``iota <= nu x. alpha /\\ F_core(x)``
    into an equivalent least-fixed-point bound via an order-reversing
    self-inverse ``neg``, yielding ``(x -> neg(alpha /\\ F_core(neg x)), neg iota)``.
    """
    lat = F_core.lattice
    for sample in (lat.bot, lat.top, iota, alpha):
        if not lat.eq(neg(neg(sample)), sample):
            raise InvolutionViolation("neg is not self-inverse on sampled elements")

    def fn(x):
        return neg(lat.meet(alpha, F_core(neg(x))))

    return Transformer(lat, fn), neg(iota)
