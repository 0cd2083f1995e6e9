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

The forward and inverse-backward images are unions of per-state successor
or predecessor masks.  ``_image`` computes such a union a byte of the
argument at a time: each byte position of a state set owns a 256-slot
table, indexed by the byte's value, that holds the union of the masks of
the up to eight states the byte selects.  Slots are filled on first use,
so a solve pays only for the byte values it actually meets, and an image
costs one table lookup per non-zero byte instead of one step per state.
Structures of at most eight states keep the per-state loop (see
``_image``).
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
        for (a, b) in self.transitions:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"transition ({a},{b}) out of range")
        succ = [0] * n
        pred = [0] * n
        for (a, b) in self.transitions:
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

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b


def _image(masks: tuple) -> Callable[[int], int]:
    """Return ``A -> union of masks[s] for s in A``.

    ``A`` is read eight states at a time: byte ``p`` of ``A`` indexes a
    256-slot table of the unions of ``masks[8p .. 8p+7]``.  A slot is filled
    the first time its byte value is seen, so a solve pays only for the
    bytes it actually meets.  A structure of at most eight states is imaged
    one state at a time instead: its solves make a few dozen images, too
    few for the table to pay for its own fills.
    """

    def union(A: int) -> int:
        out = 0
        while A:
            bit = A & -A
            out |= masks[bit.bit_length() - 1]
            A ^= bit
        return out

    if len(masks) <= 8:
        return union
    size = (len(masks) + 7) // 8
    tables = [(8 * p, [None] * 256) for p in range(size)]

    def image(A: int) -> int:
        out = 0
        for (shift, table), byte in zip(tables, A.to_bytes(size, "little")):
            if byte:
                part = table[byte]
                if part is None:
                    part = table[byte] = union(byte << shift)
                out |= part
        return out

    return image


def forward_transformer(K: KripkeStructure) -> Transformer:
    lat = SubsetLattice(K.state_count)
    post = _image(K.succ)
    return Transformer(lat, lambda A: K.initial | post(A))


def backward_transformer(K: KripkeStructure) -> Transformer:
    lat = SubsetLattice(K.state_count)
    full = lat.top

    def fn(A):
        out = 0
        for s in range(K.state_count):
            if K.succ[s] & ~A == 0:
                out |= 1 << s
        return out & full

    return Transformer(lat, fn)


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
