"""Shared fixtures: the grid engine on the two-bus case."""

from dataclasses import replace

import pytest

from lelsim.cases import bundled_case
from lelsim.grid import init_dynamics, power_flow


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
