"""muxkit: switch-network design and yield analysis for multiplexed photon sources.

Submodules:
    gmzi        abelian-group switch devices: classification, settings, stages, transfer matrices
    networks    composite mux topologies and their cost metrics
    patterns    photon-pattern routability searches over coupler layers
    analytics   closed-form success, yield and footprint formulas
    gridmux     shared-bank grid multiplexer routing and simulation
    temporal    time-bin schemes: rastering, sequence-driven delays, permutations
    logic       feedforward truth tables (priority encoding, wildcard reduction)
    simkit      seeded Monte-Carlo engine with reproducible substreams
    acceptance  self-check suite exercising the package end to end
"""

from . import (
    analytics,
    gmzi,
    gridmux,
    logic,
    networks,
    patterns,
    simkit,
    temporal,
)

__version__ = "0.1.0"

__all__ = [
    "analytics",
    "gmzi",
    "gridmux",
    "logic",
    "networks",
    "patterns",
    "simkit",
    "temporal",
    "__version__",
]
