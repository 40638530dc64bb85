"""Exact Age-of-Information distributions for a single-buffer sampling
system with time-varying Poisson arrivals and probabilistic preemption:
finite-time Volterra solver, stationary transforms with numerical Laplace
inversion, a validating discrete-event simulator, and a constrained
sampling-rate optimizer.

Each module lists its public names in its own `__all__`; the package
re-exports them, in module order.
"""

from . import errors, model, optimizer, simulator, stationary, tv_solver
from .errors import *
from .model import *
from .tv_solver import *
from .stationary import *
from .simulator import *
from .optimizer import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *model.__all__, *tv_solver.__all__,
           *stationary.__all__, *simulator.__all__, *optimizer.__all__,
           "__version__"]
