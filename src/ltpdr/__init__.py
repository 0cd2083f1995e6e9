"""Property-directed reachability over complete lattices.

The generic engine decides whether the least fixed point of a monotone
transformer stays below a bound, producing a checkable certificate either
way.  Shipped instances: explicit-state transition systems (safety), Markov
decision processes (maximum reachability probability), and Markov reward
models (expected accumulated reward).
"""

from .engine import (
    ContractFailure,
    EngineInvariantError,
    HeuristicViolation,
    HeuristicsBundle,
    Instance,
    PDRAnswer,
    RunStats,
    Verdict,
    canonical_heuristics,
    dualize,
    run_combined,
    run_negative,
    solve,
)
from .kripke import (
    KripkeStructure,
    SubsetLattice,
    backward_transformer,
    forward_transformer,
    inverse_backward_transformer,
)
from .lattice import (
    KTSequence,
    KleeneSequence,
    Lattice,
    LatticeError,
    OppositeLattice,
    Transformer,
    UnsupportedDual,
    check_kleene_witness,
    check_kt_witness,
    is_conclusive_kleene,
    is_conclusive_kt,
    is_kleene_sequence,
    is_kt_sequence,
)
from .mdp import MDPModel, bellman, decide_lp
from .mrm import MRMModel, reward_bellman
from .oracles import (
    NoConvergence,
    OracleResult,
    bfs_safe,
    vi_expected_reward,
    vi_max_reach,
)
from .simplex import Infeasible, simplex_min

__version__ = "0.1.0"
