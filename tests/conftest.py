"""Shared fixtures: the grid engine on the two-bus case."""

import os

# one BLAS thread, set before numpy is first imported: two OpenBLAS
# threads on a 2-core host double the calibration criteria's time beside
# one other busy process and gain nothing alone
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import replace  # noqa: E402

import pytest  # noqa: E402

from lelsim.cases import bundled_case  # noqa: E402
from lelsim.grid import init_dynamics, power_flow  # noqa: E402


# acceptance criteria 3-7, the calibration and grid studies that take
# most of the suite's time; `pytest -m "not slow"` runs the rest
SLOW_CRITERIA = tuple(f"test_criterion_0{n}_" for n in range(3, 8))


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name.startswith(SLOW_CRITERIA):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def toy2_engine():
    """Build the grid engine for toy2 (one LEL, at bus 2) at its t=0
    equilibrium; `cool` replaces the LEL's cooling parameters."""
    def build(cool=None):
        case = bundled_case("toy2")
        if cool is not None:
            p = case.lels[0]
            case = case.with_lels((replace(p, params=replace(p.params, cool=cool)),))
        return init_dynamics(case, power_flow(case))
    return build
