"""Aggregating categorical answers from heterogeneous agents.

The package answers one question: given N agents' answers to M
multiple-choice questions and no ground truth, which label should you
output per question? It provides majority and weighted voting,
peer-prediction rules built on second-order answer statistics, label-free
accuracy estimation, exact small-instance oracles, and generative
simulators, plus a CLI wrapping the lot.
"""

import os
import sys

# quorum's BLAS work comes in blocks of at most 768 KiB (core._BLOCK_CELLS),
# too small for a second OpenBLAS thread to help, and that thread busy-waits
# from the moment numpy loads. Load numpy with one thread unless it is already
# loaded or the user chose a count, then leave os.environ as it was.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
