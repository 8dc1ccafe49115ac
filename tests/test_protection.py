"""Unit tests for the protection state machine and the disclosure form."""

import re
from dataclasses import astuple

import numpy as np
import pytest

from lelsim.errors import InvalidArgument
from lelsim.protection import (
    ProtectionMode,
    ProtectionParams,
    ProtectionState,
    dump_protection_disclosure,
    in_band,
    load_protection_disclosure,
    protection_step,
    protection_transition,
)


def make_params(**overrides):
    base = dict(V_ref=1.0, omega_ref=1.0, dV=0.08, dOmega=0.01,
                t_delay_trip=0.1, t_wait_recon=0.5, t_delay_recon=1.0,
                kappa_min=0.2, kappa_max=1.0, r_kappa=0.5)
    base.update(overrides)
    return ProtectionParams(**base)


def run_sequence(params, samples, dt):
    state = ProtectionState()
    history = []
    for v, w in samples:
        state = protection_step(state, v, w, dt, params)
        history.append(state)
    return history


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        dict(kappa_min=0.9, kappa_max=0.5), dict(kappa_min=0.0),
    ], ids=["min_above_max", "min_zero"])
    def test_rejects_bad_kappa_ordering(self, overrides):
        with pytest.raises(InvalidArgument, match="kappa_min"):
            make_params(**overrides)

    def test_rejects_negative_timer(self):
        with pytest.raises(InvalidArgument):
            make_params(t_delay_trip=-1.0)

    @pytest.mark.parametrize("name", ["dV", "dOmega", "r_kappa"])
    def test_rejects_nonpositive_band_or_ramp_rate(self, name):
        with pytest.raises(InvalidArgument, match=name):
            make_params(**{name: 0.0})

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvalidArgument):
            protection_step(ProtectionState(), 1.0, 1.0, 0.0, make_params())


class TestBand:
    def test_in_band_at_reference(self):
        assert in_band(1.0, 1.0, make_params())

    def test_band_edges_inclusive(self):
        # exactly representable half-widths so the edge comparison is exact
        params = make_params(dV=0.125, dOmega=0.015625)
        assert in_band(1.0 + params.dV, 1.0, params)
        assert not in_band(1.0 + params.dV + 1e-9, 1.0, params)
        assert in_band(1.0, 1.0 + params.dOmega, params)
        assert not in_band(1.0, 1.0 + params.dOmega + 1e-9, params)


class TestTripAndRecovery:
    def test_sustained_violation_sheds_to_kappa_min(self):
        params = make_params()
        history = run_sequence(params, [(0.5, 1.0)] * 12, dt=0.01)
        assert history[-1].mode is ProtectionMode.SHED
        assert history[-1].kappa == params.kappa_min

    def test_violation_shorter_than_delay_never_sheds(self):
        params = make_params()
        samples = [(0.5, 1.0)] * 9 + [(1.0, 1.0)] * 50
        history = run_sequence(params, samples, dt=0.01)
        assert all(s.mode is not ProtectionMode.SHED for s in history)
        assert history[-1].kappa == 1.0

    def test_recovery_requires_both_gates(self):
        params = make_params(t_delay_trip=0.02, t_wait_recon=0.1,
                             t_delay_recon=0.5)
        samples = [(0.5, 1.0)] * 3 + [(1.0, 1.0)] * 200
        history = run_sequence(params, samples, dt=0.01)
        ramp_start = next(i for i, s in enumerate(history)
                          if s.mode is ProtectionMode.RAMPING)
        # the 0.5 s since-trip gate dominates the 0.1 s dwell gate here
        assert ramp_start * 0.01 >= 0.5

    def test_ramp_rate_bounded(self):
        params = make_params(t_delay_trip=0.02, t_wait_recon=0.05,
                             t_delay_recon=0.1)
        samples = [(0.5, 1.0)] * 3 + [(1.0, 1.0)] * 400
        history = run_sequence(params, samples, dt=0.01)
        kappas = [s.kappa for s in history]
        for a, b in zip(kappas, kappas[1:]):
            assert b - a <= params.r_kappa * 0.01 + 1e-12

    def test_full_reconnection_resets_state(self):
        params = make_params(t_delay_trip=0.02, t_wait_recon=0.05,
                             t_delay_recon=0.1, r_kappa=2.0)
        samples = [(0.5, 1.0)] * 3 + [(1.0, 1.0)] * 400
        history = run_sequence(params, samples, dt=0.01)
        assert history[-1] == ProtectionState()

    def test_kappa_max_caps_restoration(self):
        params = make_params(t_delay_trip=0.02, t_wait_recon=0.05,
                             t_delay_recon=0.1, kappa_max=0.7, r_kappa=2.0)
        samples = [(0.5, 1.0)] * 3 + [(1.0, 1.0)] * 400
        history = run_sequence(params, samples, dt=0.01)
        assert history[-1].kappa == pytest.approx(0.7)
        assert history[-1].mode is ProtectionMode.RAMPING

    def test_reviolation_during_ramp_holds_kappa(self):
        params = make_params(t_delay_trip=0.1, t_wait_recon=0.05,
                             t_delay_recon=0.1, r_kappa=0.5)
        samples = ([(0.5, 1.0)] * 12 + [(1.0, 1.0)] * 30
                   + [(0.5, 1.0)] * 5 + [(1.0, 1.0)] * 5)
        history = run_sequence(params, samples, dt=0.01)
        kappa_before = history[41].kappa
        held = [s.kappa for s in history[42:47]]
        assert all(k == pytest.approx(kappa_before) for k in held)

    def test_determinism(self):
        params = make_params()
        rng = np.random.default_rng(4)
        samples = [(float(v), float(w)) for v, w in
                   zip(1.0 + 0.2 * rng.standard_normal(500),
                       1.0 + 0.02 * rng.standard_normal(500))]
        a = run_sequence(params, samples, dt=0.01)
        b = run_sequence(params, samples, dt=0.01)
        assert a == b


# sums of this step are exact, so each delay below ends on a whole step
DT = 1 / 64


def steps_to(params, ok, state, mode):
    """The number of steps, in band or not as ok says, that take state
    into mode (at most 100)."""
    for n in range(1, 101):
        state = protection_transition(*state, ok, DT, params)
        if state[0] is mode:
            return n, state
    raise AssertionError(f"{mode.name} not reached")


class TestExactBoundaries:
    def test_sheds_on_the_step_that_ends_the_trip_delay(self):
        params = make_params(t_delay_trip=0.0625)
        assert steps_to(params, False, astuple(ProtectionState()),
                        ProtectionMode.SHED)[0] == 4

    # in band from the step after the trip, so both clocks count alike
    @pytest.mark.parametrize("wait,since", [(0.25, 0.125), (0.0625, 0.25)],
                             ids=["dwell_gate", "since_trip_gate"])
    def test_ramps_on_the_step_that_ends_the_longer_recovery_delay(self, wait, since):
        params = make_params(t_delay_trip=0.0, t_wait_recon=wait, t_delay_recon=since)
        _, shed = steps_to(params, False, astuple(ProtectionState()), ProtectionMode.SHED)
        n, ramping = steps_to(params, True, shed, ProtectionMode.RAMPING)
        assert n == 16
        assert ramping == (ProtectionMode.RAMPING, params.kappa_min, 0.0, 0.0, 0.0)


class TestRetention:
    def test_scales_both_components(self, toy2_engine):
        # the grid engine applies kappa to the LEL's whole current draw
        eng = toy2_engine()
        v = eng.V0[eng.lbus]
        em = eng.em0
        s_full = v * np.conj(eng.kappa * eng.lel_currents(v, em))
        eng.kappa[:] = 0.5
        s_half = v * np.conj(eng.kappa * eng.lel_currents(v, em))
        assert s_half.real == pytest.approx(0.5 * s_full.real, rel=1e-12)
        assert s_half.imag == pytest.approx(0.5 * s_full.imag, rel=1e-12)


class TestDisclosureForm:
    def test_round_trip(self):
        params = make_params()
        doc = dump_protection_disclosure(params)
        assert load_protection_disclosure(doc) == params

    def test_missing_field_rejected(self):
        doc = dump_protection_disclosure(make_params())
        trimmed = "\n".join(line for line in doc.splitlines()
                            if not line.startswith("r_kappa"))
        with pytest.raises(InvalidArgument, match="^disclosure form missing r_kappa$"):
            load_protection_disclosure(trimmed)

    def test_blank_and_comment_lines_are_skipped_but_counted(self):
        doc = "# disclosure\n\n" + dump_protection_disclosure(make_params()) + "   # end\n\n"
        assert load_protection_disclosure(doc) == make_params()
        with pytest.raises(InvalidArgument, match="^line 15: expected 'key = value'$"):
            load_protection_disclosure(doc + "kappa_min 0.3")

    # lines appended to a full ten-line form
    @pytest.mark.parametrize("appended,message", [
        ("kappa_min 0.3", "line 11: expected 'key = value'"),
        ("kappa_min = 0.3", "line 11: key 'kappa_min' repeats line 8"),
        ("bogus = 1\nt_reclose: 2", "disclosure form has unknown key(s) bogus, t_reclose"),
    ], ids=["no_separator", "repeated_key", "unknown_keys"])
    def test_malformed_form_rejected(self, appended, message):
        doc = dump_protection_disclosure(make_params()) + appended
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            load_protection_disclosure(doc)
