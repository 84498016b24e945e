"""Finite-space information geometry: measures, their fractional powers,
Markov kernels, parametrized measure models, and information loss.

The package works with measures on finite sample spaces (optionally carrying
grid coordinates and quadrature weights, so discretized continuous examples
fit the same types). On top of the measure algebra it provides Markov
kernels and statistics, parameter-indexed families of measures with their
Fisher metric and higher-order symmetric tensors, and the machinery for
sufficiency: information loss under kernels, the monotonicity theorem, and
Fisher-Neyman factorization checking.

``igk`` exports exactly the ``__all__`` of each core module imported below:
a new public name goes into its module's ``__all__`` and nowhere else.
"""

from .errors import *
from .measures import *
from .markov import *
from .models import *
from .infoloss import *
from . import dsl, families, serialize

__version__ = "0.1.0"
