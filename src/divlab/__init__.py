"""divlab: an exact-arithmetic laboratory for multilinear-average divergence.

Constructs digit-expansion counterexample scenarios, verifies their finite
certificates (measures, superlevel sweeps, cube base-point checks, singular
integral lower bounds) in exact rational arithmetic, computes blow-up series
against closed-form thresholds, and classifies integer linear-forms matrices
into divergence scenarios.
"""

from . import averages, digitsets, hilbert, intervals, linforms, scenarios
from .intervals import *
from .digitsets import *
from .scenarios import *
from .averages import *
from .hilbert import *
from .linforms import *

__version__ = "0.1.0"

__all__ = (
    intervals.__all__
    + digitsets.__all__
    + scenarios.__all__
    + averages.__all__
    + hilbert.__all__
    + linforms.__all__
)
