"""cubelink: vertex-disjoint path linkages in hypercube graphs.

The package splits into five modules:

- ``cube_core``       the d-cube model (vertices, faces, directions and association)
- ``path_oracle``     exact oracles (max-flow routing, backtracking decision,
                      separator checks, linkage validation)
- ``linkage_engine``  the constructive solvers (cube linkage, strong linkage,
                      link-of-vertex linkage)
- ``certifier``       exhaustive/sampled certification harness
- ``cli``             the ``cubelink`` command
"""

from __future__ import annotations

__version__ = "0.1.0"

from .cube_core import CubeGraph, Face, link_graph
from .path_oracle import (
    DecideOutcome,
    Pairing,
    decide_linked,
    menger_disjoint_paths,
    pyramid2_quad,
    validate_linkage,
)
from .linkage_engine import (
    SolveResult,
    detect_config_3F,
    solve_link,
    solve_linkage,
    solve_strong,
)
from .certifier import CertificationJob, certify, property_suite

__all__ = [
    "__version__",
    "CubeGraph",
    "Face",
    "link_graph",
    "DecideOutcome",
    "Pairing",
    "decide_linked",
    "menger_disjoint_paths",
    "pyramid2_quad",
    "validate_linkage",
    "SolveResult",
    "detect_config_3F",
    "solve_link",
    "solve_linkage",
    "solve_strong",
    "CertificationJob",
    "certify",
    "property_suite",
]
