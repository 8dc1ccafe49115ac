"""Tests of the LEL inside the grid engine (on the two-bus case toy2) and
of the parameter-exchange file."""

from dataclasses import replace

import numpy as np
import pytest

from lelsim.cases import bundled_case
from lelsim.errors import InvalidArgument, ValidationError
from lelsim.grid import (
    PROT_MODE_ORD,
    V_FLOOR,
    SimConfig,
    fault_events,
    init_dynamics,
    power_flow,
    run_simulation,
)
from lelsim.lel import (
    Archetype,
    archetype_defaults,
    dump_lel_params,
    parse_lel_params,
)
from lelsim.protection import ProtectionMode
from lelsim.thermal_aux import MotorMode, aux_power
from lelsim.workload import workload_power

# a 0.3 s sag at the LEL bus of toy2: -2j holds |V| near 0.65 pu, below
# the protection band; -4j holds it near 0.47 pu, below V_stall as well
SAG_START, SAG_LENGTH = 0.2, 0.3


def toy2_with(archetype):
    case = bundled_case("toy2")
    p = case.lels[0]
    return case.with_lels((replace(p, params=archetype_defaults(archetype)),))


def sag_run(admittance):
    case = bundled_case("toy2")
    events = fault_events(2, SAG_START, SAG_LENGTH, admittance=admittance)
    return case, run_simulation(case, events, SimConfig(dt=0.005, horizon=1.0, seed=0))


def at(result, t):
    return int(np.searchsorted(result.time, t - 1e-9))


def assert_shed_by_end_of_sag(case, result):
    assert not result.collapsed
    k = at(result, SAG_START + SAG_LENGTH)
    assert result.lel_mode[k, 0] == PROT_MODE_ORD[ProtectionMode.SHED]
    assert result.lel_kappa[k, 0] == case.lels[0].params.prot.kappa_min


class TestArchetypes:
    @pytest.mark.parametrize("arch", list(Archetype))
    def test_presets_validate_and_initialize(self, arch):
        case = toy2_with(arch)
        lel = init_dynamics(case, power_flow(case)).lels[0]
        assert lel.params.archetype is arch
        assert lel.prot.mode is ProtectionMode.CONNECTED
        assert lel.motor.mode is MotorMode.RUNNING

    def test_presets_differ(self):
        dc = archetype_defaults(Archetype.DATACENTER)
        cm = archetype_defaults(Archetype.CRYPTO_MINING)
        assert dc.work.mu_eta != cm.work.mu_eta


class TestLelStep:
    """One LEL stepped by the grid engine."""

    def test_nominal_conditions_draw_positive_power(self):
        result = run_simulation(bundled_case("toy2"), [],
                                SimConfig(dt=0.01, horizon=0.05, seed=0))
        assert np.all(result.lel_p > 0.0)

    def test_deterministic_given_rng(self):
        case = toy2_with(Archetype.ELECTROLYZER)
        cfg = SimConfig(dt=0.01, horizon=0.1, seed=5)
        a = run_simulation(case, [], cfg)
        b = run_simulation(case, [], cfg)
        assert np.array_equal(a.lel_p, b.lel_p)
        assert np.array_equal(a.lel_q, b.lel_q)

    def test_sustained_undervoltage_sheds_load(self):
        assert_shed_by_end_of_sag(*sag_run(-2j))

    def test_shed_reduces_drawn_power(self):
        _, result = sag_run(-2j)
        p_before = result.lel_p[at(result, SAG_START), 0]
        # voltage has recovered but the load is still shed
        k = at(result, SAG_START + SAG_LENGTH + 0.2)
        assert result.v_mag[k].min() > 0.95
        assert result.lel_p[k, 0] < 0.6 * p_before

    def test_deep_sag_sheds_and_stall_trips_motor(self):
        _, shallow = sag_run(-2j)
        case, deep = sag_run(-4j)
        assert_shed_by_end_of_sag(case, deep)
        assert "motor_stall_trip" not in [e.kind for e in shallow.events]
        assert "motor_stall_trip" in [e.kind for e in deep.events]
        assert deep.motor_mode[-1, 0] == 1


class TestCurrentInjection:
    def test_injection_reproduces_power(self, toy2_engine):
        eng = toy2_engine()
        params = eng.dyn.lels[0].params
        v = complex(0.98, 0.05)
        i = eng.pe_injection(np.array([v]))[0]
        s = v * i.conjugate() * eng.s_base
        p_aux, q_aux = aux_power(abs(v), params.aux)
        assert s.real == pytest.approx(workload_power(params.work.mu_eta, params.work) + p_aux)
        assert s.imag == pytest.approx(q_aux)

    def test_low_voltage_guard(self, toy2_engine):
        # below V_FLOOR the constant-power current becomes the admittance
        # at the floor: continuous at V_FLOOR, then linear in V
        eng = toy2_engine()
        u = np.exp(0.3j)
        above, at_floor, below, half = eng.pe_injection(
            np.array([1 + 1e-9, 1.0, 1 - 1e-9, 0.5]) * V_FLOOR * u)
        assert abs(above - below) < 1e-6 * abs(at_floor)
        assert abs(at_floor - above) < 1e-6 * abs(at_floor)
        assert half == pytest.approx(0.5 * at_floor, rel=1e-12)


class TestParameterExchange:
    @pytest.mark.parametrize("arch", list(Archetype))
    def test_round_trip(self, arch):
        params = archetype_defaults(arch)
        assert parse_lel_params(dump_lel_params(params)) == params

    def test_missing_key_rejected(self):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        trimmed = "\n".join(line for line in doc.splitlines()
                            if not line.startswith("work.mu_eta"))
        with pytest.raises(ValidationError):
            parse_lel_params(trimmed)

    def test_wrong_schema_version_rejected(self):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        doc = doc.replace("schema_version = 1", "schema_version = 99")
        with pytest.raises(ValidationError):
            parse_lel_params(doc)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        line.split(" = ")[0]
        for line in dump_lel_params(archetype_defaults(Archetype.DATACENTER)).splitlines()
        if "." in line.split(" = ")[0]])
    def test_non_finite_value_rejected(self, key, bad):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        lines = [f"{key} = {bad}" if line.startswith(key + " ") else line
                 for line in doc.splitlines()]
        with pytest.raises((InvalidArgument, ValidationError), match="must be finite"):
            parse_lel_params("\n".join(lines))

    def test_unknown_archetype_rejected(self):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        doc = doc.replace("archetype = datacenter", "archetype = widget")
        with pytest.raises(ValidationError):
            parse_lel_params(doc)
