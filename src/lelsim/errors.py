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
    """Time-domain solve failed.  Carries `reason` (a key of CAUSES, named
    by the message), the failed `step` and its `time`, the final Newton
    `residual` (0 where no Newton solve failed) and `partial`, the
    SimResult truncated at the last converged step."""

    CAUSES = {
        "newton": "Newton failed to converge",
        "non_finite": "the step residual is not finite",
        "network_solve": "the network re-solve after an event failed",
        "islanding": "a branch trip split the network into islands",
        "angle_separation": "generator angles stayed more than pi apart",
    }

    def __init__(self, reason, step, time, residual, partial):
        detail = f", residual {residual:.3e}" if reason == "newton" else ""
        super().__init__(f"{self.CAUSES.get(reason, reason)} ({reason}) at step "
                         f"{step} (t={time:.4f} s){detail}")
        self.reason = reason
        self.step = step
        self.time = time
        self.residual = residual
        self.partial = partial
