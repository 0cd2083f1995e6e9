import builtins
import os

import pytest

from ltpdr.cli import KINDS
from ltpdr.kripke import KripkeStructure
from util import compensated_sum

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")

# The command-line (kind, engine) pairs that run on each model-file suffix:
# the golden rows and the parser fuzz test both run every pair.
RUNS: dict = {}
for _kind, _spec in KINDS.items():
    RUNS.setdefault(_spec.suffix, []).extend((_kind, e) for e in _spec.engines)


def model_path(name: str) -> str:
    return os.path.join(MODELS_DIR, name)


@pytest.fixture
def k1() -> KripkeStructure:
    """Three states, transitions 0->1, 1->1, 2->2, initial {0}, safe {0,1}."""
    return KripkeStructure(3, frozenset({(0, 1), (1, 1), (2, 2)}),
                           initial=0b001, safe=0b011)


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """``builtins.sum`` as Python 3.12 and later compute it, for the test."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
