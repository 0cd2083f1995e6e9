"""Complete-lattice contract and the two certificate chains used by the solver.

A problem instance is a complete lattice ``L`` together with a monotone
transformer ``F: L -> L`` and a bound ``alpha``; the solver decides whether
the least fixed point of ``F`` is below ``alpha``.  Its answer carries one
of two certificates, copied from the engine's lists only for answers:

* a :class:`KTSequence` -- an ascending chain of frames whose stabilisation
  yields a Knaster-Tarski style positive certificate (an ``x`` with
  ``F(x) <= x <= alpha``);
* a :class:`KleeneSequence` -- a chain of obligations linked by
  ``C_j <= F(C_{j-1})`` whose head reaching bottom yields a negative
  certificate (an ``x <= F^n(bot)`` with ``x`` not below ``alpha``).

Transformers are assumed monotone and omega-continuous.  Continuity cannot be
checked mechanically; it is an obligation on whoever supplies the instance.
Monotonicity is spot-checked by the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


class LatticeError(Exception):
    pass


class UnsupportedDual(LatticeError):
    """The instance supplies no join, so it cannot be order-dualized."""


class Lattice:
    """Contract for a complete lattice restricted to a representable carrier.

    Subclasses set ``bot`` and ``top`` and implement ``leq``, the one order
    test, and ``meet``; ``join`` is optional and only needed for
    order-dualization (``engine.dualize``).
    """

    bot: Any
    top: Any

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def leq_info(self, a, b) -> tuple[bool, None]:
        """``(leq(a, b), None)``, kept only because ``perfbench/spans.py:157``
        wraps it by name; ROADMAP item 1a deletes it."""
        return (self.leq(a, b), None)

    def meet(self, a, b):
        raise NotImplementedError

    def join(self, a, b):
        raise UnsupportedDual(f"{type(self).__name__} supplies no join")

    def eq(self, a, b) -> bool:
        # Semantic equality: leq both ways, never representation equality.
        return self.leq(a, b) and self.leq(b, a)


class OppositeLattice(Lattice):
    """The order dual of a lattice; meet is realized by the base join."""

    def __init__(self, base: Lattice):
        self.base = base
        self.bot = base.top
        self.top = base.bot

    def leq(self, a, b):
        return self.base.leq(b, a)

    def meet(self, a, b):
        return self.base.join(a, b)

    def join(self, a, b):
        return self.base.meet(a, b)


@dataclass(frozen=True)
class Transformer:
    """A monotone function on a lattice, bundled with the lattice it lives in."""

    lattice: Lattice
    fn: Callable[[Any], Any]

    def __call__(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class KTSequence:
    """Ascending frame chain ``X_0 <= ... <= X_{n-1}``, ``n >= 2``."""

    elements: tuple

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


@dataclass(frozen=True)
class KleeneSequence:
    """Obligation chain ``(C_i, ..., C_{n-1})`` starting at ``start_index``."""

    elements: tuple
    start_index: int

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


def is_kt_sequence(xs, F: Transformer, alpha) -> bool:
    """Check the three frame-chain invariants: ascending, shifted prefixed
    point (``X_0 = bot`` and ``F(X_i) <= X_{i+1}``), and ``X_{n-2} <= alpha``.
    ``xs`` is a sequence of frames or a :class:`KTSequence`."""
    lat = F.lattice
    n = len(xs)
    if n < 2 or not lat.eq(xs[0], lat.bot):
        return False
    for i in range(n - 1):
        if not (lat.leq(xs[i], xs[i + 1]) and lat.leq(F(xs[i]), xs[i + 1])):
            return False
    return lat.leq(xs[n - 2], alpha)


def is_kleene_sequence(cs, F: Transformer, alpha) -> bool:
    """Check the obligation-chain invariants: consecutive elements satisfy
    ``C_j <= F(C_{j-1})`` and the tail is not below ``alpha``.  The empty
    chain passes vacuously.  ``cs`` is a sequence of obligations or a
    :class:`KleeneSequence`."""
    lat = F.lattice
    for j in range(1, len(cs)):
        if not lat.leq(cs[j], F(cs[j - 1])):
            return False
    return len(cs) == 0 or not lat.leq(cs[-1], alpha)


def is_conclusive_kt(xs, lattice: Lattice, lo: int = 0,
                     hi: Optional[int] = None) -> Optional[int]:
    """Smallest j with ``lo <= j < hi`` and ``X_{j+1} <= X_j``, or None.

    The default range is every pair of the chain, ``0 <= j < n-1``; ``xs``
    is a sequence of frames or a :class:`KTSequence`.
    """
    for j in range(lo, len(xs) - 1 if hi is None else hi):
        if lattice.leq(xs[j + 1], xs[j]):
            return j
    return None


def is_conclusive_kleene(C: KleeneSequence, lattice: Lattice) -> bool:
    """True iff the chain is nonempty, starts at index 0, and its head is bot."""
    return bool(C.elements) and C.start_index == 0 and lattice.eq(C.elements[0], lattice.bot)


def check_kt_witness(x, F: Transformer, alpha) -> bool:
    """Positive certificate check: ``F(x) <= x`` and ``x <= alpha``."""
    lat = F.lattice
    return lat.leq(F(x), x) and lat.leq(x, alpha)


def check_kleene_witness(C: KleeneSequence, F: Transformer, alpha) -> bool:
    """Negative certificate check: a conclusive, valid obligation chain.

    Its tail is then below ``F^{n-1}(bot)`` but not below ``alpha``, which
    refutes the fixed-point bound.
    """
    return is_conclusive_kleene(C, F.lattice) and is_kleene_sequence(C, F, alpha)
