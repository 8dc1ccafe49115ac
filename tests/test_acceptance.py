"""System-level acceptance suite.

Each test covers one numbered criterion and prints a single
"CRITERION n ...: PASS" line (visible with pytest -s; a failed assertion
marks the criterion FAIL).  Stated tolerances and runtime budgets are
asserted inside each test.  Everything is seeded, so reruns are
bit-identical.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import fsolve

from lelsim.calibration import CalibrationConfig, ObjectiveMode, calibrate, model_pattern
from lelsim.cases import LelPlacement, bundled_case
from lelsim.errors import SimulationCollapse
from lelsim.grid import (
    SimConfig,
    build_ybus,
    fault_events,
    penetration_sweep,
    place_lels,
    power_flow,
    regime_flags,
    run_simulation,
    sample_scenario,
)
from lelsim.metrics import cosine_similarity, dtw_distance, max_cross_correlation
from lelsim.protection import ProtectionMode, ProtectionParams, ProtectionState, protection_step
from lelsim.tcl import TrainConfig, init_encoder, loss_and_gradients
from lelsim.workload import WorkloadParams, WorkloadState, ou_step, simulate_workload


def report(n, label, detail=""):
    print(f"CRITERION {n} ({label}): PASS {detail}")


def strip_randomness(case):
    """Zero the stochastic workload terms of every attached LEL."""
    lels = tuple(
        LelPlacement(bus=p.bus, shares=p.shares,
                     params=replace(p.params, work=replace(
                         p.params.work, sigma_xi=0.0, lambda_burst=0.0)))
        for p in case.lels)
    return case.with_lels(lels)


# ---------------------------------------------------------------------------
# calibration experiment shared setup
# ---------------------------------------------------------------------------

CAL_TRUE = WorkloadParams(p_base=2.0, p_full=10.0, tau_eta=300.0, mu_eta=0.55,
                          sigma_xi=0.6, lambda_burst=0.02, lnA_mu=-3.0,
                          lnA_sigma=0.3)
# +/- 50 percent boxes around the generating values
CAL_BOUNDS = {"mu_eta": (0.275, 0.825), "tau_eta": (150.0, 450.0),
              "sigma_xi": (0.3, 0.9)}


def cal_config(**overrides):
    base = dict(base_params=CAL_TRUE, bounds=CAL_BOUNDS, subsystem="workload",
                mode=ObjectiveMode.PATTERN, max_evals=100, horizon=7200.0,
                dt=1.0, sim_seed=7, encoder_seed=3, optimizer_seed=0,
                window_length=5, train=TrainConfig(epochs=60), n_repeats=2)
    base.update(overrides)
    return CalibrationConfig(**base)


def smooth(x, w=60):
    # 60 s moving average isolates the slow structure before DTW
    return np.convolve(x, np.ones(w) / w, mode="valid")


def smoothed_dtw(a, b):
    return dtw_distance(smooth(a)[::10], smooth(b)[::10])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_ou_stationary_mean():
    t0 = time.monotonic()
    params = WorkloadParams(p_base=0.0, p_full=1.0, tau_eta=10.0, mu_eta=0.3,
                            sigma_xi=0.05, lambda_burst=0.002, lnA_mu=-3.0,
                            lnA_sigma=0.3)
    rng = np.random.default_rng(0)
    state = WorkloadState(params.mu_eta)
    n = 10**6
    total = total_sq = 0.0
    for _ in range(n):
        state = ou_step(state, params, 1.0, rng)
        total += state.eta
        total_sq += state.eta * state.eta
    mean = total / n
    var = total_sq / n - mean * mean
    target = params.mu_eta + params.lambda_burst * params.mean_burst_amplitude()
    # standard error corrected for OU autocorrelation (effective sample
    # size n / (2 tau / dt))
    se = math.sqrt(var) * math.sqrt(2 * params.tau_eta / n)
    elapsed = time.monotonic() - t0
    assert abs(mean - target) < 3 * se
    assert elapsed < 10.0
    report(1, "OU stationary mean",
           f"mean={mean:.6f} target={target:.6f} |z|={abs(mean-target)/se:.2f} "
           f"t={elapsed:.1f}s")


def test_criterion_02_encoder_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    encoder = init_encoder(5, 8, 4, rng)
    X1 = rng.standard_normal((8, 5))
    X2 = X1 + 0.05 * rng.standard_normal((8, 5))
    _, grads = loss_and_gradients(encoder, X1, X2, temperature=0.1)
    worst = 0.0
    eps = 1e-6
    for _ in range(5):
        name = ("W1", "b1", "W2", "b2")[rng.integers(4)]
        arr = getattr(encoder, name)
        idx = tuple(rng.integers(s) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + eps
        lp, _ = loss_and_gradients(encoder, X1, X2, temperature=0.1)
        arr[idx] = orig - eps
        lm, _ = loss_and_gradients(encoder, X1, X2, temperature=0.1)
        arr[idx] = orig
        fd = (lp - lm) / (2 * eps)
        g = grads[name][idx]
        worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-10))
    elapsed = time.monotonic() - t0
    assert worst < 1e-5
    assert elapsed < 1.0
    report(2, "encoder gradient check",
           f"worst rel err={worst:.2e} t={elapsed:.2f}s")


def test_criterion_03_calibration_recovery():
    t0 = time.monotonic()
    data = simulate_workload(CAL_TRUE, 7200.0, 1.0, seed=101)
    held = simulate_workload(CAL_TRUE, 7200.0, 1.0, seed=202)
    h = held.first_channel()
    cfg = cal_config()
    rng = np.random.default_rng(99)
    wins = 0
    for run in range(5):
        theta0 = {k: rng.uniform(lo, hi) for k, (lo, hi) in CAL_BOUNDS.items()}
        result = calibrate(theta0, data, replace(cfg, optimizer_seed=run))
        reduction = 1 - result.final_pattern_distance / result.initial_pattern_distance
        assert reduction >= 0.5, f"run {run}: reduction {reduction:.2%} < 50%"
        cal = simulate_workload(replace(CAL_TRUE, **result.theta_star),
                                7200.0, 1.0, seed=303)
        unc = simulate_workload(replace(CAL_TRUE, **theta0),
                                7200.0, 1.0, seed=303)
        if smoothed_dtw(h, cal.first_channel()) < smoothed_dtw(h, unc.first_channel()):
            wins += 1
    elapsed = time.monotonic() - t0
    assert wins >= 4
    assert elapsed < 300.0
    report(3, "calibration recovery",
           f"held-out DTW wins {wins}/5 t={elapsed:.0f}s")


def test_criterion_04_initialization_robustness():
    t0 = time.monotonic()
    data = simulate_workload(CAL_TRUE, 7200.0, 1.0, seed=101)
    cfg = cal_config()
    rng = np.random.default_rng(42)
    cal_patterns, unc_patterns = [], []
    for run in range(20):
        theta0 = {k: rng.uniform(lo, hi) for k, (lo, hi) in CAL_BOUNDS.items()}
        result = calibrate(theta0, data, replace(cfg, optimizer_seed=run))
        cal_patterns.append(model_pattern(result.theta_star, result.encoder, cfg))
        unc_patterns.append(model_pattern(theta0, result.encoder, cfg))
    s_cal = float(np.linalg.norm(np.std(cal_patterns, axis=0)))
    s_unc = float(np.linalg.norm(np.std(unc_patterns, axis=0)))
    elapsed = time.monotonic() - t0
    assert s_cal <= 0.5 * s_unc
    assert elapsed < 900.0
    report(4, "initialization robustness",
           f"pattern std ratio {s_cal / s_unc:.3f} (<= 0.5) t={elapsed:.0f}s")


def test_criterion_05_pattern_beats_mse():
    t0 = time.monotonic()
    cfg = cal_config(max_evals=120, n_repeats=3)
    rng = np.random.default_rng(7)
    wins = 0
    for trial in range(20):
        data = simulate_workload(CAL_TRUE, 7200.0, 1.0, seed=1000 + trial)
        theta0 = {k: rng.uniform(lo, hi) for k, (lo, hi) in CAL_BOUNDS.items()}
        trial_cfg = replace(cfg, sim_seed=10 + trial, optimizer_seed=trial)
        r_pat = calibrate(theta0, data, trial_cfg)
        r_mse = calibrate(theta0, data, replace(trial_cfg, mode=ObjectiveMode.MSE))

        # average held-out DTW over 3 held realizations x 2 model draws
        def heldout(theta):
            d = 0.0
            for i in range(3):
                h = smooth(simulate_workload(
                    CAL_TRUE, 7200.0, 1.0, seed=2000 + 100 * i + trial
                ).first_channel())[::10]
                for j in range(2):
                    s = smooth(simulate_workload(
                        replace(CAL_TRUE, **theta), 7200.0, 1.0,
                        seed=3000 + 100 * j + trial).first_channel())[::10]
                    d += dtw_distance(h, s)
            return d / 6

        if heldout(r_pat.theta_star) < heldout(r_mse.theta_star):
            wins += 1
    elapsed = time.monotonic() - t0
    assert wins >= 14, f"pattern won only {wins}/20 trials"
    assert elapsed < 1200.0
    report(5, "pattern vs MSE ablation", f"wins {wins}/20 t={elapsed:.0f}s")


def test_criterion_06_regime_taxonomy():
    # documented seed set: scanning seeds 0..39 of sample_scenario on the
    # 39-bus case covers all four regimes; coverage completes at seed 27
    t0 = time.monotonic()
    case = bundled_case("ieee39")
    cfg = SimConfig(dt=0.005, horizon=20.0, seed=0)
    found = {}
    for seed in range(40):
        placed, events = sample_scenario(case, 10, seed, t_fault=5.0,
                                         duration=0.1)
        try:
            result = run_simulation(placed, events, replace(cfg, seed=seed))
        except SimulationCollapse as exc:
            if exc.partial is None:
                found.setdefault("delayed_or_collapse", seed)
                continue
            result = exc.partial
        flags = regime_flags(result)
        for name, hit in flags.items():
            if hit and name not in found:
                found[name] = seed
        if len(found) == 4:
            break
    elapsed = time.monotonic() - t0
    assert len(found) == 4, f"only {sorted(found)} observed in 40 seeds"
    assert elapsed < 1800.0
    report(6, "grid regime taxonomy",
           f"first seeds {found} t={elapsed:.0f}s")


def test_criterion_07_penetration_monotonicity():
    t0 = time.monotonic()
    case = bundled_case("ieee39")
    cfg = SimConfig(dt=0.005, horizon=20.0, seed=0)
    rows = penetration_sweep(case, [2, 5, 10], n_trials=10, cfg=cfg,
                             base_seed=0, t_fault=5.0, fault_duration=0.1)
    overshoot = [r["overshoot_median"] for r in rows]
    nadir = [r["nadir_median"] for r in rows]
    elapsed = time.monotonic() - t0
    assert all(b >= a - 1e-12 for a, b in zip(overshoot, overshoot[1:])), overshoot
    assert all(b <= a + 1e-12 for a, b in zip(nadir, nadir[1:])), nadir
    assert elapsed < 2700.0
    report(7, "penetration monotonicity",
           f"overshoot={overshoot} nadir={nadir} t={elapsed:.0f}s")


def test_criterion_08a_no_event_frequency_invariance():
    case = strip_randomness(place_lels(bundled_case("ieee39"), 10, seed=0))
    cfg = SimConfig(dt=0.005, horizon=20.0, seed=0)
    result = run_simulation(case, [], cfg)
    dev = float(np.max(np.abs(result.gen_omega - 1.0)))
    assert dev < 1e-6
    report("8a", "no-event frequency invariance", f"max |dw|={dev:.2e}")


def test_criterion_08b_trapezoidal_convergence_order():
    # deterministic 2-bus system with protection and stall disabled by
    # wide bands so the trajectory is smooth across the comparison
    case = bundled_case("toy2")
    p = case.lels[0]
    params = replace(
        p.params,
        work=replace(p.params.work, sigma_xi=0.0, lambda_burst=0.0),
        cool=replace(p.params.cool, V_stall=0.01),
        prot=replace(p.params.prot, dV=0.5, dOmega=0.5))
    case = case.with_lels((LelPlacement(bus=p.bus, params=params,
                                        shares=p.shares),))
    events = fault_events(2, 1.0, 0.1, admittance=-1j)

    def run(dt):
        cfg = SimConfig(dt=dt, horizon=3.0, seed=0)
        result = run_simulation(case, events, cfg)
        return result.v_mag

    ref = run(0.00125)
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        v = run(dt)
        stride = round(dt / 0.00125)
        n = min(len(v), len(ref[::stride]))
        errors.append(float(np.max(np.abs(v[:n] - ref[::stride][:n]))))
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    # order-2 convergence: error ratio ~ 4 per dt halving, with slack for
    # the reference not being exact
    assert 2.8 < r1 < 5.7, (errors, r1, r2)
    assert 2.8 < r2 < 5.7, (errors, r1, r2)
    report("8b", "trapezoidal order",
           f"errors={['%.2e' % e for e in errors]} ratios={r1:.2f},{r2:.2f}")


def test_criterion_08c_power_flow_oracle():
    case = bundled_case("ieee39")
    V = power_flow(case)
    Y = build_ybus(case)
    n = case.n_bus
    kinds = [b.type for b in case.buses]
    p_sched = np.array([-b.p_load for b in case.buses]) / case.s_base
    q_sched = np.array([-b.q_load for b in case.buses]) / case.s_base
    vset = {}
    idx = case.bus_index()
    for g in case.generators:
        i = idx[g.bus]
        p_sched[i] += g.p_set / case.s_base
        vset[i] = g.v_set
    for i, b in enumerate(case.buses):
        if b.type == "slack":
            vset[i] = b.v_set

    def mismatch(x):
        vm, va = x[:n], x[n:]
        Vc = vm * np.exp(1j * va)
        S = Vc * np.conj(Y @ Vc)
        out = []
        for i in range(n):
            if kinds[i] == "slack":
                out += [vm[i] - vset[i], va[i]]
            elif i in vset:
                out += [S[i].real - p_sched[i], vm[i] - vset[i]]
            else:
                out += [S[i].real - p_sched[i], S[i].imag - q_sched[i]]
        return out

    x0 = np.concatenate([np.abs(V), np.angle(V)])  # warm start keeps fsolve honest on the same root
    sol = fsolve(mismatch, x0, xtol=1e-13)
    V_oracle = sol[:n] * np.exp(1j * sol[n:])
    err = float(np.max(np.abs(V - V_oracle)))
    assert err < 1e-6
    report("8c", "power flow vs independent oracle", f"max |dV|={err:.2e}")


def test_criterion_09_protection_interval_oracle():
    t0 = time.monotonic()
    dt = 1.0 / 64.0  # binary fraction: timer accumulation is exact
    rng = np.random.default_rng(2024)
    counterexamples = 0
    for _ in range(10**4):
        n_trip = int(rng.integers(1, 9))
        n_wait = int(rng.integers(1, 9))
        n_recon = int(rng.integers(0, 17))
        params = ProtectionParams(
            V_ref=1.0, omega_ref=1.0, dV=0.1, dOmega=0.02,
            t_delay_trip=n_trip * dt, t_wait_recon=n_wait * dt,
            t_delay_recon=n_recon * dt,
            kappa_min=float(rng.uniform(0.1, 0.5)), kappa_max=1.0,
            r_kappa=float(rng.uniform(0.5, 5.0)))
        steps = 60
        ok_seq = rng.random(steps) < 0.7
        state = ProtectionState()
        kappas, modes, oks = [], [], []
        for k in range(steps):
            v = 1.0 if ok_seq[k] else 0.5
            state = protection_step(state, v, 1.0, dt, params)
            kappas.append(state.kappa)
            modes.append(state.mode)
            oks.append(bool(ok_seq[k]))

        bad = False
        # 1. after n_trip consecutive violations the load is shed
        run_len = 0
        for k in range(steps):
            run_len = run_len + 1 if not oks[k] else 0
            if run_len >= n_trip and modes[k] is not ProtectionMode.SHED:
                bad = True
        # 2. shedding only after a full contiguous violation window
        prev_mode = ProtectionMode.CONNECTED
        trip_steps = []
        for k in range(steps):
            if modes[k] is ProtectionMode.SHED and prev_mode not in (
                    ProtectionMode.SHED, ProtectionMode.RECOVERY_WAIT):
                trip_steps.append(k)
                if k + 1 < n_trip or any(oks[k - j] for j in range(n_trip)):
                    bad = True
            prev_mode = modes[k]
        # 3. restoration rate bound
        for a, b in zip([1.0] + kappas, kappas):
            if b - a > params.r_kappa * dt + 1e-12:
                bad = True
        # 4. the first ramp entry after each trip respects both gates:
        # contiguous in-band dwell >= t_wait_recon and elapsed time since
        # the trip >= t_delay_recon (resumed ramps after brief interrupted
        # violations are not re-gated by design)
        for t_trip in trip_steps:
            for k in range(t_trip + 1, steps):
                if k in trip_steps:
                    break
                if modes[k] is ProtectionMode.RAMPING:
                    streak = 0
                    j = k
                    while j > t_trip and oks[j]:
                        streak += 1
                        j -= 1
                    if streak < n_wait or (k - t_trip) < n_recon:
                        bad = True
                    break
        if bad:
            counterexamples += 1
    elapsed = time.monotonic() - t0
    assert counterexamples == 0
    report(9, "protection interval oracle",
           f"0 counterexamples in 10^4 sequences t={elapsed:.0f}s")


def test_criterion_10_metric_identities():
    assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0],
                        normalize=False) == 0.0
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(8, 60)))
        assert dtw_distance(x, x) == 0.0
        assert cosine_similarity(x, x) == 1.0
        assert max_cross_correlation(x, x) == 1.0
    report(10, "metric identities", "100 random series + hand DTW exact")
