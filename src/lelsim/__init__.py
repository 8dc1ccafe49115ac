"""Dynamic load models for large electronic loads (LELs).

Subpackages cover the stochastic duty-idle workload model, motor-driven
cooling and ZIP auxiliary loads, the grid-interfacing protection state
machine, contrastive pattern features, pattern-consistent calibration,
and a multi-machine transient grid simulator.
"""

from lelsim.errors import InvalidArgument, NoEquilibrium, SimulationCollapse

__all__ = ["InvalidArgument", "NoEquilibrium", "SimulationCollapse"]

__version__ = "0.1.0"
