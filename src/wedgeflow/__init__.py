"""Self-similar compressible potential flow onto a wedge.

Library layout:

- ``gas``         polytropic thermodynamics and the Bernoulli closure
- ``shocks``      exact jump relations, shock polar, deflection and corner shocks
- ``pattern``     wave-pattern scaffold (states, shocks, sonic corners, arcs, wall)
- ``unsteady``    time-marching finite-volume solver on the wedge domain
- ``elliptic``    free-boundary fixed-point solver for the subsonic region
- ``diagnostics`` invariant checks on computed fields
- ``cli``         the ``wedge`` command line front end
"""

from .gas import GasModel, FlowState, VacuumError, WedgeError
from .shocks import ShockSolution

__all__ = [
    "GasModel",
    "FlowState",
    "VacuumError",
    "WedgeError",
    "ShockSolution",
]

__version__ = "0.1.0"
