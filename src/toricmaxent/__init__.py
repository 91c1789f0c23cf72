"""Exact algebra and maximum-entropy fitting for discrete models.

The package has three layers: :mod:`toricmaxent.ratpoly` is an exact sparse
polynomial engine over the rationals with monomial orders, multivariate
division and reduced Groebner bases; :mod:`toricmaxent.toric` builds toric
parametrizations and their vanishing ideals from integer constraint
matrices; :mod:`toricmaxent.maxent` fits maximum-entropy and
minimum-divergence models, numerically or by solving exact polynomial
systems.  :mod:`toricmaxent.cli` wraps it all for the command line.
"""

from . import errors, maxent, ratpoly, toric
from .errors import *
from .maxent import *
from .ratpoly import *
from .toric import *

__version__ = "0.1.0"

__all__ = errors.__all__ + maxent.__all__ + ratpoly.__all__ + toric.__all__
