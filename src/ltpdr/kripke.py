"""Explicit-state transition-system instance over the powerset lattice.

State sets are int bitmasks over ``range(state_count)``.  Three monotone
transformers are provided:

* forward: initial states plus successors (least fixed point = reachable set);
* backward: universal predecessors of a set;
* inverse-backward: unsafe states plus existential predecessors, whose least
  fixed point is the set of states that can reach an unsafe state.

Three ``Instance`` builders ask whether every reachable state is safe:
``forward`` bounds the forward transformer by the safe set;
``inverse_backward`` bounds the inverse-backward transformer by the
complement of the initial set; ``opdual`` asks the dual question on the
opposite lattice.  ``pdr_fkr`` and ``pdr_ibkr`` run the combined engine on
the first two.

All three transformers are built on one image function, ``_image``, the
union of per-state successor or predecessor masks (the backward one as the
complement of the existential pre-image of the complement).  The frames of
a solve are the Kleene iterates, each the previous one plus a frontier, so
``_image`` remembers its last argument and its image and, for a superset,
images only the states that are new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .engine import (
    HeuristicsBundle,
    Instance,
    PDRAnswer,
    Transformer,
    canonical_heuristics,
    dualize,
    run_combined,
)
from .lattice import Lattice


def _lowest_bit(mask: int) -> int:
    return mask & -mask


@dataclass(frozen=True)
class KripkeStructure:
    state_count: int
    transitions: frozenset  # of (src, dst) pairs
    initial: int  # bitmask
    safe: int  # bitmask

    def __post_init__(self):
        n = self.state_count
        if n <= 0:
            raise ValueError("state_count must be positive")
        full = (1 << n) - 1
        if self.initial & ~full or self.safe & ~full:
            raise ValueError("initial/safe sets exceed the state range")
        succ = [0] * n
        pred = [0] * n
        for (a, b) in self.transitions:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"transition ({a},{b}) out of range")
            succ[a] |= 1 << b
            pred[b] |= 1 << a
        object.__setattr__(self, "succ", tuple(succ))
        object.__setattr__(self, "pred", tuple(pred))

    @property
    def full_mask(self) -> int:
        return (1 << self.state_count) - 1


class SubsetLattice(Lattice):
    """Powerset of a finite state space, elements as bitmasks.

    ``leq_info`` reports the mask of states violating the inclusion, which
    the set heuristics use directly.
    """

    def __init__(self, state_count: int):
        self.bot = 0
        self.top = (1 << state_count) - 1

    def leq_info(self, a, b):
        diff = a & ~b
        return (diff == 0, diff)

    def leq(self, a, b):
        return not a & ~b

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b


def _image(masks: tuple) -> Callable[[int], int]:
    """Return ``A -> union of masks[s] for s in A``.

    The returned function keeps its last argument ``B`` and image.  For
    ``B <= A`` it adds the masks of ``A & ~B`` alone, as the union
    distributes over ``A = B | (A & ~B)``; any other argument is imaged from
    the empty set.  Either way the result depends on ``A`` only.
    """
    B = out = 0

    def image(A: int) -> int:
        nonlocal B, out
        if A & B != B:
            B = out = 0
        new = A & ~B
        while new:
            bit = new & -new
            out |= masks[bit.bit_length() - 1]
            new ^= bit
        B = A
        return out

    return image


def forward_transformer(K: KripkeStructure) -> Transformer:
    lat = SubsetLattice(K.state_count)
    post = _image(K.succ)
    return Transformer(lat, lambda A: K.initial | post(A))


def backward_transformer(K: KripkeStructure) -> Transformer:
    """``A -> {s : succ[s] <= A}``: the states with no successor outside
    ``A`` are those no state of ``top & ~A`` has as predecessor."""
    lat = SubsetLattice(K.state_count)
    top, pre_exists = lat.top, _image(K.pred)
    return Transformer(lat, lambda A: top & ~pre_exists(top & ~A))


def inverse_backward_transformer(K: KripkeStructure) -> Transformer:
    lat = SubsetLattice(K.state_count)
    unsafe = lat.top & ~K.safe
    pre_exists = _image(K.pred)
    return Transformer(lat, lambda A: unsafe | pre_exists(A))


def _path_decide(base_mask: int, contributor_masks: tuple):
    """Decide for transformers of shape F(A) = base | image(A), where
    ``contributor_masks[s]`` is the set of states whose presence in A puts
    ``s`` into image(A): one contributor in ``x_prev`` for each state of
    ``head`` outside ``base``, so a counterexample is a path; None when a
    state has none (never under the engines' Decide guard)."""

    def decide(x_prev, head, fx=None):
        x = 0
        m = head & ~base_mask
        while m:
            bit = _lowest_bit(m)
            preds = contributor_masks[bit.bit_length() - 1] & x_prev
            if preds == 0:
                return None
            x |= _lowest_bit(preds)
            m ^= bit
        return x

    return decide


def _set_heuristics(base_mask: int, contributor_masks: tuple) -> HeuristicsBundle:
    """The set instances' choices; Conflict is the engine's canonical one."""

    def candidate(last, alpha, diff):
        # diff is the violation mask X_{n-1} & ~alpha from leq_info.
        return _lowest_bit(diff)

    return HeuristicsBundle(candidate, _path_decide(base_mask, contributor_masks))


def forward_bundle(K: KripkeStructure) -> HeuristicsBundle:
    return _set_heuristics(K.initial, K.pred)


def inverse_backward_bundle(K: KripkeStructure) -> HeuristicsBundle:
    return _set_heuristics(K.full_mask & ~K.safe, K.succ)


def forward(K: KripkeStructure) -> Instance:
    """Are the reachable states, ``mu (initial | post)``, all safe?"""
    F = forward_transformer(K)
    return Instance(F, K.safe, forward_bundle(K))


def inverse_backward(K: KripkeStructure) -> Instance:
    """Is no initial state among those that can reach an unsafe state,
    ``mu (unsafe | pre)``?"""
    F = inverse_backward_transformer(K)
    return Instance(F, F.lattice.top & ~K.initial, inverse_backward_bundle(K))


def opdual(K: KripkeStructure) -> Instance:
    """Safety as the dual under-approximation problem: is the initial set
    below the greatest fixed point of ``x -> safe /\\ backward(x)``?

    The question is asked on the opposite lattice, with the canonical
    (lattice-agnostic) heuristics.
    """
    Fb = backward_transformer(K)
    G = Transformer(Fb.lattice, lambda A: K.safe & Fb(A))
    G_op, alpha_op = dualize(G, K.initial)
    return Instance(G_op, alpha_op, canonical_heuristics(G_op))


def pdr_fkr(K: KripkeStructure, **kw) -> PDRAnswer:
    """The combined engine on ``forward(K)``.  ``perfbench`` calls it and
    wraps ``run_combined`` in this module, hence no ``engine.solve``."""
    inst = forward(K)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)


def pdr_ibkr(K: KripkeStructure, **kw) -> PDRAnswer:
    """The combined engine on ``inverse_backward(K)``, as ``pdr_fkr``."""
    inst = inverse_backward(K)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
