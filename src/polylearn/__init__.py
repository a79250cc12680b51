"""polylearn: learning polytopes from approximate optimization oracles.

Library layout:

    geometry   hull distances, Hausdorff distance, diameters, separation
    oracles    direction-query oracles (exact, noisy, subset smoothing, needle)
    rsh        random separating hyperplanes and separation-from-optimization
    learner    random probes, hull learning, vertex list learning
    softhull   soft convex hulls and envelope extraction
    kolp       SVD projection and the full prune-to-k pipeline
    datagen    synthetic latent-polytope instances and fixed fixtures
    cli        file formats and the command-line interface
"""

from . import config, datagen, geometry, kolp, learner, oracles, rsh, softhull
from .config import *
from .datagen import *
from .geometry import *
from .kolp import *
from .learner import *
from .oracles import *
from .rsh import *
from .softhull import *

__version__ = "0.1.0"

# Each submodule's ``__all__`` is the one list of its public names.
__all__ = [
    name
    for module in (config, geometry, oracles, rsh, learner, softhull, kolp, datagen)
    for name in module.__all__
]
