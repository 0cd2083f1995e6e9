"""Solve one instance through the library's public entry points and check
the answer.

The timed region runs from model text to verdict: the ``ltpdr.cli`` parser,
then ``pdr_fkr``/``pdr_ibkr``/``pdr_ibmdp``/``pdr_mrm`` -- the calls
``scripts/run_corpus.py`` makes.  The check outside it compares the verdict
with the set-up oracle and re-checks the certificate with the public
checkers.  A solve fails when it raises, contradicts the oracle, or carries a
certificate that does not re-check; failures are counted by kind, never
raised.  Some kinds mean a wrong answer or a broken engine rather than a
known crash (``INCORRECT``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ltpdr import cli, engine, kripke, lattice, mdp, mrm
from ltpdr.engine import Verdict

WRONG_VERDICT = "WrongVerdict"
BAD_CERTIFICATE = "BadCertificate"
# A later solve of an instance whose verdict, failure or counts differ from
# its first solve in the same run.
NONDETERMINISTIC = "Nondeterministic"
# Failure kinds that make a run incorrect: a wrong verdict, a certificate
# that does not re-check, a solve that does not repeat, and the engine's own
# contract and invariant errors (``_finalize`` raises
# ``EngineInvariantError`` for a certificate that fails its check, so a
# broken certificate usually surfaces as that raise).
INCORRECT = frozenset({WRONG_VERDICT, BAD_CERTIFICATE, NONDETERMINISTIC} | {
    exc.__name__ for exc in (engine.EngineInvariantError,
                             engine.HeuristicViolation, engine.ContractFailure)})


def all_correct(errors) -> bool:
    """Whether the failure counts ``errors`` (kind -> count) hold none of
    the ``INCORRECT`` kinds."""
    return not any(errors.get(kind) for kind in INCORRECT)

# entry -> (parse, solve, (F, alpha) of the certificate).  Looked up through
# the module attributes on every call, so traced runs see their wrappers.
ENTRY = {
    "fkr": (lambda text: cli.parse_kripke(text),
            lambda K, **kw: kripke.pdr_fkr(K, **kw),
            lambda K: (kripke.forward_transformer(K), K.safe)),
    "ibkr": (lambda text: cli.parse_kripke(text),
             lambda K, **kw: kripke.pdr_ibkr(K, **kw),
             lambda K: _ib_problem(K)),
    "mdp": (lambda text: cli.parse_mdp(text),
            lambda M, **kw: mdp.pdr_ibmdp(M, **kw),
            lambda M: (mdp.bellman(M), M.bound())),
    "mrm": (lambda text: cli.parse_mrm(text),
            lambda M, **kw: mrm.pdr_mrm(M, **kw),
            lambda M: (mrm.reward_bellman(M), M.bound())),
}


def _ib_problem(K):
    F = kripke.inverse_backward_transformer(K)
    return F, F.lattice.top & ~K.initial


@dataclass(frozen=True)
class Outcome:
    seconds: float  # parse + solve wall time
    verdict: str  # a Verdict value, or "raised"
    error: Optional[str]  # exception type name, WRONG_VERDICT, BAD_CERTIFICATE
    steps: int = 0
    frames: int = 0
    rule_counts: tuple = ()  # sorted (rule, count) pairs

    @property
    def decided(self) -> bool:
        return self.verdict in (Verdict.TRUE.value, Verdict.FALSE.value)

    def result(self) -> tuple:
        """What a repeated solve of the same instance must reproduce."""
        return self.verdict, self.error, self.steps, self.frames, self.rule_counts


def _call(name, fn):
    return fn()


def solve(inst, around=_call) -> Outcome:
    """Solve ``inst`` and classify the answer.

    ``around(name, fn)`` runs ``fn``: the solve under ``bench.solve`` and the
    certificate re-check under ``bench.cert_check``.  The traced run passes
    ``Tracer.span``.  Any exception from parsing or solving is a counted
    failure, reported by its type name.
    """
    parse, run, problem = ENTRY[inst.engine]

    def work():
        model = parse(inst.text)
        return model, run(model, budget=inst.budget, debug=inst.debug)

    start = time.perf_counter()
    try:
        model, answer = around("bench.solve", work)
    except Exception as exc:  # a failed solve is counted, not fatal
        return Outcome(time.perf_counter() - start, "raised", type(exc).__name__)
    seconds = time.perf_counter() - start
    stats = answer.stats
    error = None
    if answer.verdict in (Verdict.TRUE, Verdict.FALSE):
        if (answer.verdict is Verdict.TRUE) != inst.expected:
            error = WRONG_VERDICT
        elif not around("bench.cert_check", lambda: _recheck(answer, problem, model)):
            error = BAD_CERTIFICATE
    return Outcome(seconds, answer.verdict.value, error, stats.steps,
                   stats.frame_count, tuple(sorted(stats.rule_counts.items())))


def _recheck(answer, problem, model) -> bool:
    try:
        return certificate_holds(answer, *problem(model))
    except Exception:  # a malformed certificate is a failed check
        return False


def certificate_holds(answer, F, alpha) -> bool:
    """Re-check a True/False answer's certificate with the public checkers."""
    if answer.verdict is Verdict.TRUE:
        kt = answer.kt_witness
        j = None if kt is None else lattice.is_conclusive_kt(kt, F.lattice)
        return j is not None and lattice.check_kt_witness(kt[j], F, alpha)
    kleene = answer.kleene_witness
    return kleene is not None and lattice.check_kleene_witness(kleene, F, alpha)
