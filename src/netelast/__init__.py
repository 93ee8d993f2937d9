"""Network elasticity toolkit.

Measures how gracefully a network's shortest-path throughput degrades as
nodes or links are removed (targeted or random, seeded), and provides the
companion diagnostics used to contextualize that score: Laplacian spectra
and algebraic connectivity, degree assortativity, and degree distributions.
"""

from . import attacks, engine, generators, graph, metrics, routing, spectral
from .attacks import *
from .engine import *
from .generators import *
from .graph import *
from .metrics import *
from .routing import *
from .spectral import *

__version__ = "0.1.0"

__all__ = sorted(attacks.__all__ + engine.__all__ + generators.__all__ + graph.__all__
                 + metrics.__all__ + routing.__all__ + spectral.__all__)
