"""qubofolio: multi-period friction-aware portfolio optimization compiled
to QUBO/BQP/Ising, with classical solvers, a statevector quantum
simulator, and an evaluation harness.

No module imports scipy: `quantum` optimizes QAOA angles with a
port of scipy 1.17.1's Nelder-Mead (BSD licence), pinned to scipy's
iterates by tests/test_quantum.py.

Each module's __all__ is its public API, republished here.
"""

from .evaluation import *
from .market_data import *
from .model import *
from .quantum import *
from .qubo import *
from .solvers import *
from .toy import *

__version__ = "0.1.0"
