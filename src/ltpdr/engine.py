"""The generic PDR engines and their rewrite rules.

Two engines share the rule vocabulary:

* ``run_combined`` -- the full engine, interleaving frame strengthening with
  obligation-driven counterexample search (rules Valid, Unfold, Induction,
  Candidate, Model, Decide, Conflict);
* ``run_negative`` -- the Kleene iterates ``F^i(bot)`` as frames, then
  obligations (Candidate, Decide, Model) below them; can answer False, get
  Stuck, or exhaust its budget, never True.  On a false instance it ends
  with the combined engine's frames and counterexample.

The positive engine (Valid, Unfold, Induction; never False) is
``run_combined`` with no Candidate, which alone starts an obligation, and no
Induction proposer.  Its frames are the Kleene iterates: Unfold appends
``top`` and the engine's canonical Induction lowers it to ``F(X_{n-2})``
while that is below ``alpha``.  It is Stuck once it is not, unless
``alpha`` is inductive.

The combined engine, and so the positive one, first proposes ``alpha``
itself, as IC3/PDR first asks whether the property is inductive:
``run_combined`` evaluates ``F(alpha)`` once, where Candidate would first
start a search, and if ``F(alpha) <= alpha`` offers ``(n-1, alpha)`` ahead
of the bundle's proposer.  That is one image per solve, and an inductive
bound closes in five steps.

An ``Instance`` bundles one question ``mu F <= alpha`` with the one set of
choices the engines use, and ``solve(instance, engine)`` runs the combined,
positive or negative engine on it.  ``certificate_holds`` re-checks the
certificate of a True or False answer.  Each instance module builds
its ``Instance`` values (``kripke.forward``, ``kripke.inverse_backward``,
``kripke.opdual``, ``mdp.max_reach``, ``mrm.expected_reward``).

The run owns its configuration ``(X; C)``: two lists, the frames ``X_0 ..
X_{n-1}`` and the pending obligations ``C_{n-1} .. C_i``, head last, so
``i = len(frames) - len(obligations)``.  Each rule checks its guard and
re-checks what a heuristic chose, then edits the lists in place and returns
what it touched: Unfold appends ``top``, Candidate and Decide push an
obligation, Conflict pops one, and Induction and Conflict meet a lemma into
the frames.  The runners re-check Valid, refresh their ``F`` cache and run
debug mode's per-step checker (``debug=True``) on that edit alone, and add
scheduling, budgeting, statistics and an optional trace sink.  Only an
answer copies the lists, into the certificate ``KTSequence`` or
``KleeneSequence``.  Heuristic outputs are always re-verified against their
contracts; instance code is never trusted.

Every instance's Conflict lemma is the paper's canonical ``x := F(X_{i-1})``
(``canonical_conflict``), which meets its contract by monotonicity, so
``rule_conflict`` re-images only other lemmas.  A lemma blocking only the
part of the frame the obligation violates makes the search take order
``n^2`` steps on a chain of depth ``n``.  Where a Candidate would meet
that Conflict for sure, ``run_combined`` applies the lemma as Induction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from .lattice import (
    KTSequence,
    KleeneSequence,
    Lattice,
    OppositeLattice,
    Transformer,
    check_kleene_witness,
    check_kt_witness,
    is_conclusive_kt,
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


@dataclass(frozen=True)
class PDRAnswer:
    verdict: Verdict
    kt_witness: Optional[KTSequence] = None
    kleene_witness: Optional[KleeneSequence] = None
    stats: Optional[RunStats] = None


def canonical_decide(x_prev, head):
    """Decide's canonical choice ``x := X_{i-1}``, whose image Decide's
    guard has just tested."""
    return x_prev


def canonical_conflict(x_prev, head, fx):
    """Conflict's canonical choice ``x := F(X_{i-1})``, which the engine
    passes in precomputed as ``fx``."""
    return fx


@dataclass(frozen=True)
class HeuristicsBundle:
    """Instance-supplied choice functions for the combined engine.

    Each function may return None ("no choice available"); any returned
    element is re-verified by the engine and a violation aborts the run.
    Each takes only what its contract reads: ``choose_candidate(X_{n-1},
    alpha)`` and ``choose_decide(X_{i-1}, C_i)``; ``choose_conflict`` also
    receives ``F(X_{i-1})`` precomputed, which is its canonical lemma.
    Conflict defaults to ``canonical_conflict``, which every instance uses
    and whose lemma, the very ``F(X_{i-1})`` object the engine passed in, is
    not re-imaged; nor is ``canonical_decide``'s ``X_{i-1}``.
    ``choose_induction`` is offered a tuple snapshot of the frames, before the
    other rules on the step right after each Unfold, and returns
    ``(k, x)``; ``rule_induction`` applies it when ``X_k !<= x`` and
    ``F(X_{k-1} /\\ x) <= x``.  Once one of its lemmas has applied, the
    engine asks no more in that solve: the pointwise proposer's lemma is a
    prefixed point ``x`` below ``alpha``, so Unfold, the canonical lemma
    ``F(x)`` and Valid follow.  The engine's own lemma goes first: once it
    has found ``F(alpha) <= alpha``, at the cost of one image per solve, it
    proposes ``(n-1, alpha)`` and asks the bundle only when that fails.
    When the bundle declines too and Unfold does not apply, the engine
    applies ``(n-1, F(X_{n-2}))`` if it is below ``alpha``, before Candidate.
    The MDP instance supplies ``mdp.optimistic_induction``, the reward one
    ``mrm.value_induction``; the Kripke one none, and relies on the engine's.
    """

    choose_candidate: Callable[[Any, Any], Optional[Any]]
    choose_decide: Callable[[Any, Any], Optional[Any]]
    choose_conflict: Callable[[Any, Any, Any], Optional[Any]] = canonical_conflict
    choose_induction: Optional[Callable[[tuple], Optional[tuple[int, Any]]]] = None


def initial_config(F: Transformer) -> tuple[list, list]:
    """The frames and obligations ``(bot <= F(bot); ())`` of a new run."""
    bot = F.lattice.bot
    return [bot, F(bot)], []


# ---------------------------------------------------------------------------
# Rules.  Each takes the run's frames ``xs`` and obligations ``ob`` (head
# last), and returns None, changing nothing, when its guard does not hold.
# Valid and Model return the answer.  The others edit the lists in place and
# return the edit: Unfold, Induction and Conflict the index ``j >= 1`` of the
# highest frame they kept, having replaced ``X_{j+1} .. X_k`` (``k`` the new
# last frame, or the index they were applied at); Candidate and Decide
# ``PUSHED``, as they change no frame.

PUSHED = 0


def rule_valid(xs: list, ob: list, F: Transformer, alpha, lo: int = 0,
               hi: Optional[int] = None) -> Optional[PDRAnswer]:
    """Valid on the frame pairs ``(j, j+1)`` with ``lo <= j < hi``; every
    pair by default.  Only the answer copies the frames, as a certificate."""
    if is_conclusive_kt(xs, F.lattice, lo, hi) is None:
        return None
    return PDRAnswer(Verdict.TRUE, kt_witness=KTSequence(tuple(xs)))


def rule_unfold(xs: list, ob: list, F: Transformer, alpha) -> Optional[int]:
    lat = F.lattice
    if ob or not lat.leq(xs[-1], alpha):
        return None
    xs.append(lat.top)
    return len(xs) - 2


def rule_induction(xs: list, ob: list, F: Transformer, alpha, k: int, x,
                   fx=None) -> Optional[int]:
    """Induction, which the paper applies only with no obligations pending:
    strengthening a frame under a pending ``C_j`` could leave ``C_j !<= X_j``.

    ``fx`` is ``F(X_{k-1})`` when the caller has it already.  When the lemma
    is that very object, ``F(X_{k-1} /\\ x) <= x`` holds by monotonicity and
    is not re-imaged, as in ``rule_conflict``; debug mode's test of
    ``F(X_j) <= X_{j+1}`` on every changed frame pair implies it.
    """
    lat = F.lattice
    if ob or not 2 <= k <= len(xs) - 1:
        return None
    if lat.leq(xs[k], x):
        return None
    if x is not fx and not lat.leq(F(lat.meet(xs[k - 1], x)), x):
        return None
    return _strengthen(lat, xs, k, x)


def rule_candidate(xs: list, ob: list, F: Transformer, alpha,
                   heuristics: HeuristicsBundle) -> Optional[int]:
    lat = F.lattice
    if ob:
        return None
    last = xs[-1]
    if lat.leq(last, alpha):
        return None
    x = heuristics.choose_candidate(last, alpha)
    if x is None:
        return None
    if not lat.leq(x, last) or lat.leq(x, alpha):
        raise HeuristicViolation("candidate output must satisfy x <= X_{n-1} and x !<= alpha")
    ob.append(x)
    return PUSHED


def rule_model(xs: list, ob: list, F: Transformer, alpha) -> Optional[PDRAnswer]:
    """Model, once the head obligation is at index 1."""
    if len(ob) != len(xs) - 1:
        return None
    witness = KleeneSequence((F.lattice.bot, *reversed(ob)), 0)
    return PDRAnswer(Verdict.FALSE, kleene_witness=witness)


def rule_decide(xs: list, ob: list, F: Transformer, alpha,
                heuristics: HeuristicsBundle, fx=None) -> Optional[int]:
    """Decide; ``fx`` is ``F(X_{i-1})`` when the caller has it already."""
    lat = F.lattice
    if not ob:
        return None
    head = ob[-1]
    x_prev = xs[len(xs) - len(ob) - 1]
    if fx is None:
        fx = F(x_prev)
    if not lat.leq(head, fx):
        return None
    x = heuristics.choose_decide(x_prev, head)
    if x is None:
        return None
    if heuristics.choose_decide is not canonical_decide and (  # its F(x) is fx
            not lat.leq(x, x_prev) or not lat.leq(head, F(x))):
        raise HeuristicViolation("decide output must satisfy x <= X_{i-1} and C_i <= F(x)")
    ob.append(x)
    return PUSHED


def rule_conflict(xs: list, ob: list, F: Transformer, alpha,
                  heuristics: HeuristicsBundle, fx=None) -> Optional[int]:
    """Conflict; ``fx`` is ``F(X_{i-1})`` when the caller has it already.

    The guard is ``C_i !<= F(X_{i-1})``, Decide's negated.  A lemma other
    than the object ``fx`` is re-checked against its contract; for ``fx``
    the contract is the guard and monotonicity, and debug mode's test of
    ``F(X_j) <= X_{j+1}`` on every changed frame pair implies it.
    """
    lat = F.lattice
    if not ob:
        return None
    i = len(xs) - len(ob)
    head = ob[-1]
    x_prev = xs[i - 1]
    if fx is None:
        fx = F(x_prev)
    if lat.leq(head, fx):
        return None
    x = heuristics.choose_conflict(x_prev, head, fx)
    if x is None:
        return None
    if x is not fx and (lat.leq(head, x) or not lat.leq(F(lat.meet(x_prev, x)), x)):
        raise HeuristicViolation(
            "conflict output must satisfy C_i !<= x and F(X_{i-1} /\\ x) <= x")
    ob.pop()
    return _strengthen(lat, xs, i, x)


def _strengthen(lat: Lattice, xs: list, k: int, x) -> int:
    """Meet ``x`` into ``X_2 .. X_k`` in place (Induction, Conflict), and
    return the index ``j`` of the highest frame kept.

    The chain ascends, so once ``X_j <= x`` every frame below ``X_j`` is
    below ``x`` too and the meet leaves it as it is.  Only ``X_{j+1} ..
    X_k``, the frames above the highest such ``X_j`` (and above ``X_1``),
    are met and replaced; the rest are not touched.
    """
    j = k
    while j >= 2 and not lat.leq(xs[j], x):
        j -= 1
    for i in range(j + 1, k + 1):
        xs[i] = lat.meet(xs[i], x)
    return j


# ---------------------------------------------------------------------------
# Per-step invariant checking (debug mode).


class _InvariantChecker:
    """The configuration invariants of debug mode, checked after every step.

    The rules edit the frames in place, so the last configuration cannot
    show what changed; the runner passes each step's edit instead, as the
    fresh frame pairs ``(lo, hi)``: the frames ``X_{lo+1} .. X_hi`` are new,
    and ``(0, 0)`` names none.  An obligation is new when the chain grew
    since the last check at the same frame count.  A test is repeated only
    where it touches a new frame or obligation; ``X_{n-2} <= alpha`` and the
    prefix are re-tested on every step.  So debug mode trusts the edit a
    rule reports: a frame written outside it is seen only by ``_finalize``'s
    rescan, on a True or False answer.
    """

    def __init__(self, F: Transformer, alpha):
        self.F = F
        self.alpha = alpha
        self.chain = [F.lattice.bot, F(F.lattice.bot)]  # iterates of F from bottom
        self.sizes = (0, 0)  # the frame and obligation counts last checked

    def check(self, xs: list, ob: list, lo: int = 0, hi: Optional[int] = None) -> None:
        F, lat = self.F, self.F.lattice
        n, m = len(xs), len(ob)
        k, hi = n - m, n - 1 if hi is None else hi
        top = k + m - self.sizes[1] if self.sizes[0] == n else n  # C_k .. C_{top-1} are new
        self.sizes = (n, m)
        while len(self.chain) < n:
            self.chain.append(F(self.chain[-1]))
        if n < 2 or not lat.eq(xs[0], lat.bot) or not lat.leq(xs[n - 2], self.alpha):
            raise EngineInvariantError("frame chain invariant broken")
        for i in range(lo, min(hi + 1, n - 1)) if lo < hi else ():  # touching a new frame
            if not (lat.leq(xs[i], xs[i + 1]) and lat.leq(F(xs[i]), xs[i + 1])):
                raise EngineInvariantError("frame chain invariant broken")
        for j in range(k + 1, min(top + 1, n)):  # C_j or C_{j-1} is new
            if not lat.leq(ob[n - 1 - j], F(ob[n - j])):
                raise EngineInvariantError("obligation chain invariant broken")
        for j in [*range(k, top), *range(max(k, lo + 1), hi + 1)]:
            if not lat.leq(ob[n - 1 - j], xs[j]):
                raise EngineInvariantError("obligation not admissible (C_j !<= X_j)")
        if top == n and ob and lat.leq(ob[0], self.alpha):
            raise EngineInvariantError("obligation chain invariant broken")
        if not lat.eq(xs[1], self.chain[1]):
            raise EngineInvariantError("frame prefix (bot, F bot) not preserved")
        for i in range(lo + 1, hi + 1):
            if not lat.leq(self.chain[i], xs[i]):
                raise EngineInvariantError("frames no longer over-approximate F^i(bot)")


# ---------------------------------------------------------------------------
# Runners.


def _stop(answer: PDRAnswer, stats: RunStats, started: float,
          frames_len: int) -> PDRAnswer:
    stats.wall_time = time.perf_counter() - started
    stats.frame_count = frames_len
    return PDRAnswer(answer.verdict, answer.kt_witness, answer.kleene_witness, stats)


def certificate_holds(answer: PDRAnswer, F: Transformer, alpha) -> bool:
    """Whether a True or False answer carries a valid certificate: a
    conclusive frame chain whose stable frame ``x`` has ``F(x) <= x <=
    alpha``, or a conclusive obligation chain."""
    if answer.verdict is Verdict.TRUE:
        j = is_conclusive_kt(answer.kt_witness, F.lattice)
        return j is not None and check_kt_witness(answer.kt_witness[j], F, alpha)
    return answer.verdict is Verdict.FALSE and check_kleene_witness(
        answer.kleene_witness, F, alpha)


def _finalize(answer: PDRAnswer, stats: RunStats, F: Transformer, alpha,
              started: float, frames, debug: bool = False) -> PDRAnswer:
    """Stop with a True or False answer after re-checking its certificate;
    in debug mode also re-check the whole final frame chain."""
    answer = _stop(answer, stats, started, len(frames))
    if debug and not is_kt_sequence(frames, F, alpha):
        raise EngineInvariantError("frame chain invariant broken")
    if not certificate_holds(answer, F, alpha):
        raise EngineInvariantError(
            f"{answer.verdict.value} answer without a valid certificate")
    return answer


def _image_at(F: Transformer, cache: dict, xs: list, j: int):
    """``F(X_j)`` through ``cache``, which maps ``j`` to ``F(X_j)``; the
    runner drops the entries of the frames each edit replaces."""
    fx = cache.get(j)
    if fx is None:
        fx = cache[j] = F(xs[j])
    return fx


def _emit(trace, step: int, rule: str, xs: list, ob: list) -> None:
    trace(f"step={step} rule={rule} frames={len(xs)} obligations={len(ob)}")


def run_combined(F: Transformer, alpha, heuristics: HeuristicsBundle, *,
                 budget: int = 100000, debug: bool = False,
                 trace: Optional[Callable[[str], None]] = None) -> PDRAnswer:
    """Run the full engine from the initial config (bot <= F(bot); ()).

    Each step applies Valid, then Model (tried only once the head
    obligation is at index 1), then exactly one of the remaining rules,
    whose guards leave no choice.  With no obligations pending, the
    bundle's Induction proposer is asked first, on the step right after an
    Unfold until one of its lemmas has applied (``HeuristicsBundle``), and
    its lemma applied when it passes the guard; otherwise Unfold needs
    ``X_{n-1} <= alpha``, the canonical Induction below needs its negation
    and ``F(X_{n-2}) <= alpha``, and Candidate takes what is left.  The
    engine tests ``X_{n-1} <= alpha`` once per such step to choose the rules
    to call: the ``alpha`` lemma, the canonical Induction and Candidate when
    it fails, Unfold when it holds; each rule still re-checks its own guard.
    With obligations pending,
    Decide needs ``C_i <= F(X_{i-1})`` and Conflict its negation; the two
    share one evaluation of ``F(X_{i-1})``.  The only freedom left is the
    Induction proposer and the element each rule picks.

    The first Induction lemma offered is ``alpha`` itself, the largest
    candidate for a prefixed point below ``alpha``.  At the first step with
    no obligation pending, at least three frames and ``X_{n-1} !<= alpha``,
    where Candidate would otherwise start a counterexample search, the
    engine evaluates ``F(alpha)`` once and keeps whether ``F(alpha) <=
    alpha``.  If so, that step and every later one with no obligation
    pending offer ``(n-1, alpha)`` to ``rule_induction`` before the bundle's
    proposer, which is asked when the guard rejects it.  An inductive
    ``alpha`` thus closes in five steps (Unfold, Induction, Unfold,
    Induction, Valid); otherwise the search is the one without the test,
    plus one image.  A solve decided before that step never evaluates
    ``F(alpha)``.

    The Kleene side starts only where it can succeed.  A Candidate ``C``
    has ``C !<= alpha``, so if ``F(X_{n-2}) <= alpha`` Decide must refute
    it, and Conflict then meets ``F(X_{n-2})`` into ``X_2 .. X_{n-1}``.
    With ``n >= 3`` frames the engine applies that lemma at once, as
    Induction at ``k = n-1`` (IC3/PDR likewise asks first whether the last
    frame reaches a bad state): one step and the same frames in place of
    two, so verdicts, witnesses and frame counts stay those of the
    Candidate-Conflict search, and an unsafe chain of ``n`` states takes
    ``3n - 2`` steps.  Otherwise Candidate runs and Decide reuses the
    image.  Induction's own guard ``k >= 2`` spares a depth-1 refutation
    the image of ``X_0``.

    Valid is a function of the frames alone and has failed on every earlier
    chain, so each step re-checks it only on the frame pairs the last edit
    could have made conclusive: none after Decide or Candidate, which keep
    the frames; the new last pair after Unfold; and after Induction or
    Conflict at index ``k``, which return the highest frame ``X_j`` they
    kept, pairs ``j .. k-1``.  At ``k`` the pair would need ``X_{k+1} <=
    X_k`` already.  The certificate check at the end scans the whole chain.

    ``F(X_{i-1})`` for Decide and Conflict, and ``F(X_{n-2})`` for the
    canonical Induction, come from a per-index cache (``_image_at``); an
    edit that replaces ``X_j`` drops its entry, and every frame it kept
    keeps its image.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    xs, ob = initial_config(F)
    stats = RunStats()
    counts = stats.rule_counts  # in first-application order, as --json prints it
    started = time.perf_counter()
    fresh = (0, len(xs) - 1)  # the pairs Valid has not yet failed on
    checker = _InvariantChecker(F, alpha) if debug else None
    if checker:
        checker.check(xs, ob)
    images: dict = {}  # j -> F(X_j)
    leq = F.lattice.leq
    propose = heuristics.choose_induction  # None once its lemma has applied
    offer = None  # the proposer, on the step right after an Unfold
    inductive = None  # whether F(alpha) <= alpha; None until tested

    for step in range(1, budget + 1):
        if fresh is not None:
            ans = rule_valid(xs, ob, F, alpha, *fresh)
            if ans is not None:
                break
        if len(ob) == len(xs) - 1:
            ans = rule_model(xs, ob, F, alpha)
            break

        edit = k = None
        if not ob:
            below = leq(xs[-1], alpha)
            applied = "induction"  # unless Unfold or Candidate applies
            if not below:  # else Induction's guard X_{n-1} !<= alpha rejects alpha
                if inductive is None and len(xs) >= 3:
                    inductive = leq(F(alpha), alpha)
                if inductive:  # alpha first, then the bundle's lemma
                    k = len(xs) - 1
                    edit = rule_induction(xs, ob, F, alpha, k, alpha)
            if edit is None and offer is not None:
                prop = offer(tuple(xs))
                if prop is not None:
                    k = prop[0]
                    edit = rule_induction(xs, ob, F, alpha, k, prop[1])
                    if edit is not None:
                        propose = None
            offer = None
            if edit is None and below:
                edit, applied = rule_unfold(xs, ob, F, alpha), "unfold"
                k = len(xs) - 1
                offer = propose
            elif edit is None:
                k = len(xs) - 1
                if k >= 2:
                    fx = _image_at(F, images, xs, k - 1)
                    if leq(fx, alpha):  # Decide would refute any Candidate
                        edit = rule_induction(xs, ob, F, alpha, k, fx, fx)
                if edit is None:
                    edit, applied = rule_candidate(xs, ob, F, alpha, heuristics), "candidate"
        else:
            k = len(xs) - len(ob)  # the head's index
            fx = _image_at(F, images, xs, k - 1)
            edit, applied = rule_decide(xs, ob, F, alpha, heuristics, fx), "decide"
            if edit is None:
                edit, applied = rule_conflict(xs, ob, F, alpha, heuristics, fx), "conflict"

        if edit is None:
            stats.steps = step
            return _stop(PDRAnswer(Verdict.STUCK), stats, started, len(xs))
        counts[applied] = counts.get(applied, 0) + 1
        if trace is not None:
            _emit(trace, step, applied, xs, ob)
        if edit == PUSHED:
            fresh = None
        else:
            fresh = (edit, k)
            for j in range(edit + 1, k + 1):
                images.pop(j, None)
        if checker:
            checker.check(xs, ob, *(fresh or (0, 0)))
    else:
        stats.steps = budget
        return _stop(PDRAnswer(Verdict.BUDGET_EXHAUSTED), stats, started, len(xs))

    applied = "valid" if ans.verdict is Verdict.TRUE else "model"
    counts[applied] = 1
    stats.steps = step
    if trace is not None:
        _emit(trace, step, applied, xs, ob)
    return _finalize(ans, stats, F, alpha, started, xs, debug)


def run_negative(F: Transformer, alpha, heuristics: HeuristicsBundle, *,
                 budget: int = 100000, debug: bool = False,
                 trace: Optional[Callable[[str], None]] = None) -> PDRAnswer:
    """One-sided engine on the Kleene iterates; never answers True.

    The frames are ``F^i(bot)``, one more per step (rule ``iterate``), until
    ``F^n(bot) !<= alpha``; two equal iterates first mean ``mu F <= alpha``,
    and the run is Stuck.  Then Candidate picks ``C_n`` below ``F^n(bot)``,
    Decide at ``i`` picks ``C_{i-1}`` by ``choose_decide(F^{i-1}(bot), C_i)``,
    whose guard ``C_i <= F^i(bot)`` always holds, and Model
    closes the chain at index 1.  It ends with ``run_combined``'s frames and
    counterexample on a false instance, where a refuted Kripke Candidate can
    add choices; a rule with no choice is Stuck.  Debug mode runs the
    combined engine's ``_InvariantChecker`` after every step, and re-checks
    the whole chain at the end.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lat = F.lattice
    xs, ob = initial_config(F)
    stats = RunStats()
    counts = stats.rule_counts
    started = time.perf_counter()
    checker = _InvariantChecker(F, alpha) if debug else None
    if checker:
        checker.check(xs, ob)

    for step in range(1, budget + 1):
        ans = rule_model(xs, ob, F, alpha)
        if ans is not None:
            counts["model"] = 1
            stats.steps = step
            if trace is not None:
                _emit(trace, step, "model", xs, ob)
            return _finalize(ans, stats, F, alpha, started, xs, debug)
        if ob:
            fx = xs[len(xs) - len(ob)]  # X_i, which is F(X_{i-1})
            edit, applied = rule_decide(xs, ob, F, alpha, heuristics, fx), "decide"
        elif lat.leq(xs[-1], alpha):
            x, edit, applied = F(xs[-1]), None, "iterate"
            if not lat.eq(x, xs[-1]):
                xs.append(x)
                edit = len(xs) - 2
        else:
            edit, applied = rule_candidate(xs, ob, F, alpha, heuristics), "candidate"
        if edit is None:
            stats.steps = step
            return _stop(PDRAnswer(Verdict.STUCK), stats, started, len(xs))
        counts[applied] = counts.get(applied, 0) + 1
        if trace is not None:
            _emit(trace, step, applied, xs, ob)
        if checker:
            checker.check(xs, ob, *((0, 0) if edit == PUSHED else (edit, len(xs) - 1)))

    stats.steps = budget
    return _stop(PDRAnswer(Verdict.BUDGET_EXHAUSTED), stats, started, len(xs))


# ---------------------------------------------------------------------------
# Generic heuristics and dualization.


def canonical_heuristics() -> HeuristicsBundle:
    """Lattice-agnostic choices: Candidate x := X_{n-1}, Decide x := X_{i-1},
    Conflict x := F(X_{i-1}).  Always contract-valid, never generalizing."""
    return HeuristicsBundle(lambda last, alpha: last, canonical_decide)


@dataclass(frozen=True)
class Instance:
    """One question ``mu F <= alpha`` with the choices the engines need.

    ``bundle`` holds the instance's one set of choices; the combined and
    the negative engine both use its Candidate and Decide.  The positive
    engine needs only ``F`` and ``alpha``: it has no Candidate, Decide or
    proposer, and applies only the engine's own Induction lemmas.
    """

    F: Transformer
    alpha: Any
    bundle: HeuristicsBundle


def solve(inst: Instance, engine: str = "combined", *, budget: int = 100000,
          debug: bool = False,
          trace: Optional[Callable[[str], None]] = None) -> PDRAnswer:
    """Run ``engine`` (``combined``, ``positive`` or ``negative``) on ``inst``.
    The positive engine is ``run_combined`` with no Candidate, Decide or
    Induction proposer, so only the engine's own lemmas apply: ``alpha``
    when it is inductive, else the canonical ``F(X_{n-2})``."""
    kw = dict(budget=budget, debug=debug, trace=trace)
    if engine == "negative":
        return run_negative(inst.F, inst.alpha, inst.bundle, **kw)
    bundle = inst.bundle
    if engine == "positive":
        none = lambda *args: None
        bundle = HeuristicsBundle(none, none)
    elif engine != "combined":
        raise ValueError(f"no {engine!r} engine")
    return run_combined(inst.F, inst.alpha, bundle, **kw)


def dualize(F: Transformer, alpha) -> tuple[Transformer, Any]:
    """Wrap the instance in its opposite lattice so that running the engine
    answers the dual under-approximation question ``alpha <= nu F``.

    Requires a join on the instance lattice (it realizes the dual meet).
    """
    lat = F.lattice
    lat.join(lat.bot, lat.bot)  # probe; raises UnsupportedDual if absent
    return Transformer(OppositeLattice(lat), F.fn), alpha
