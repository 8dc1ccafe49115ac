"""Exception types shared across the package: InvalidArgument for bad
input (CLI exit 1), NoEquilibrium and SimulationCollapse for numerical
failures (exit 2); and the finite-value check on parameter dataclasses."""

import math
from dataclasses import fields


class InvalidArgument(ValueError):
    """Bad input: an argument, parameter set or parsed file violates its
    preconditions or invariants.  The CLI exits 1 on it."""


def require_finite(params) -> None:
    """Raise InvalidArgument naming the first field of the parameter
    dataclass that is NaN or infinite."""
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise InvalidArgument(f"{f.name} must be finite")


class NoEquilibrium(RuntimeError):
    """No steady-state operating point exists for the requested conditions."""


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
