"""Aggregating categorical answers from heterogeneous agents.

The package answers one question: given N agents' answers to M
multiple-choice questions and no ground truth, which label should you
output per question? It provides majority and weighted voting,
peer-prediction rules built on second-order answer statistics, label-free
accuracy estimation, exact small-instance oracles, and generative
simulators, plus a CLI wrapping the lot.
"""

from . import aggregate, core, estimate, oracle, secondorder, simulate, verify
from .core import *  # noqa: F403
from .aggregate import *  # noqa: F403
from .secondorder import *  # noqa: F403
from .estimate import *  # noqa: F403
from .oracle import *  # noqa: F403
from .simulate import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package exports their union.
__all__ = [
    name
    for module in (core, aggregate, secondorder, estimate, oracle, simulate, verify)
    for name in module.__all__
]
