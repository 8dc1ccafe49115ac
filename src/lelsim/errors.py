"""Exception types shared across the package, and the finite-value
check on parameter dataclasses that raises them."""

import math
from dataclasses import fields


class InvalidArgument(ValueError):
    """An argument violates an operation's precondition."""


class ValidationError(ValueError):
    """A parsed document or parameter set violates its invariants."""


def require_finite(params, error=InvalidArgument) -> None:
    """Raise `error` naming the first field of the parameter dataclass
    that is NaN or infinite."""
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise error(f"{f.name} must be finite")


class NoEquilibrium(RuntimeError):
    """No steady-state operating point exists for the requested conditions."""


class UndefinedMetric(ValueError):
    """A metric is mathematically undefined on the given inputs."""


class SimulationCollapse(RuntimeError):
    """Time-domain solve failed to converge; carries the partial result.

    Attributes
    ----------
    step : index of the failed step
    time : simulation time of the failed step
    residual : final Newton residual norm
    partial : SimResult truncated at the last converged step, or None
    """

    def __init__(self, step, time, residual, partial=None):
        super().__init__(
            f"Newton failed to converge at step {step} (t={time:.4f} s), "
            f"residual {residual:.3e}"
        )
        self.step = step
        self.time = time
        self.residual = residual
        self.partial = partial
