"""Heralded n-qubit Dicke states from tunable two-qubit pair sources.

Exact small-n statevector simulation, closed-form success probabilities
(scalar ones finite for n of order 10^6, the full `distribution` so far only
to n of some hundreds), optimal-source bifurcation analysis, entanglement
bounds, and seeded Monte Carlo sampling.
"""

__version__ = "0.1.0"

from . import entanglement, optimize, probabilities, sampling, statevector
from .entanglement import *  # noqa: F403
from .optimize import *  # noqa: F403
from .probabilities import *  # noqa: F403
from .sampling import *  # noqa: F403
from .statevector import *  # noqa: F403

__all__ = ["__version__", *probabilities.__all__, *statevector.__all__, *optimize.__all__,
           *entanglement.__all__, *sampling.__all__]
