"""End-to-end tests of the command-line interface."""

import importlib.resources
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lelsim
from lelsim.cli import build_parser, cli_dispatch
from lelsim.traceio import Trace, read_trace, write_trace


def run(argv):
    return cli_dispatch(argv)


@pytest.fixture()
def workload_csv(tmp_path):
    path = tmp_path / "w.csv"
    rc = run(["simulate-load", "--model", "workload", "--horizon", "600",
              "--dt", "1.0", "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


class TestSimulateLoad:
    def test_writes_parseable_trace(self, workload_csv):
        trace = read_trace(workload_csv)
        assert len(trace) == 600
        assert trace.sample_period == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate-load", "--model", "aux", "--horizon", "300",
                        "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate-load", "--horizon", "300", "--seed", "1", "--out", str(a)])
        run(["simulate-load", "--horizon", "300", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestMetrics:
    def test_self_comparison_identities(self, workload_csv, capsys):
        assert run(["metrics", str(workload_csv), str(workload_csv)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "label,dtw,max_xcorr,cosine"
        _, dtw, xcorr, cosine = out[1].split(",")
        assert float(dtw) == 0.0
        assert float(xcorr) == 1.0
        assert float(cosine) == 1.0

    def test_missing_file_is_validation_error(self, tmp_path):
        assert run(["metrics", str(tmp_path / "no.csv"),
                    str(tmp_path / "no.csv")]) == 1

    def test_constant_trace_is_validation_error(self, workload_csv, tmp_path, capsys):
        const = tmp_path / "const.csv"
        write_trace(Trace(1.0, {"p": np.full(600, 2.0)}), const)
        rc = run(["metrics", str(const), str(workload_csv)])
        TestMalformedInput.assert_error_exit(rc, capsys)


class TestGridSim:
    def test_no_events_flat_run(self, tmp_path):
        prefix = str(tmp_path / "flat")
        rc = run(["grid-sim", "toy9", "--no-events", "--horizon", "0.5",
                  "--out-prefix", prefix])
        assert rc == 0
        result = read_trace(prefix + "_result.csv")
        omega = np.column_stack([result.channels[c] for c in result.channels
                                 if c.startswith("omega")])
        assert np.max(np.abs(omega - 1.0)) < 1e-6

    def test_unknown_case_is_validation_error(self, tmp_path):
        assert run(["grid-sim", "toy99", "--no-events",
                    "--out-prefix", str(tmp_path / "x")]) == 1

    def test_collapse_exits_2_and_writes_partial(self, tmp_path):
        # bolted fault on the small system drives a voltage collapse
        prefix = str(tmp_path / "col")
        rc = run(["grid-sim", "toy9", "--k", "2", "--fault-bus", "5",
                  "--t-fault", "0.5", "--horizon", "3",
                  "--out-prefix", prefix])
        assert rc == 2
        assert (tmp_path / "col_result.csv").exists()
        assert (tmp_path / "col_events.csv").exists()

    def test_fault_cleared_at_the_horizon_exits_1(self, tmp_path, capsys):
        rc = run(["grid-sim", "toy9", "--fault-bus", "5", "--t-fault", "0.4",
                  "--duration", "0.1", "--horizon", "0.5", "--dt", "0.01",
                  "--out-prefix", str(tmp_path / "late")])
        assert rc == 1
        assert "clear_fault at t=0.5 is at the horizon" in capsys.readouterr().err

    def test_non_finite_residual_exits_2_naming_the_cause(self, tmp_path, monkeypatch,
                                                          capsys):
        from lelsim.grid import _Engine

        residual = _Engine.residual

        def nan_residual(self, z, x0, f0, dt):
            return residual(self, z, x0, f0, dt) * np.nan

        monkeypatch.setattr(_Engine, "residual", nan_residual)
        rc = run(["grid-sim", "toy9", "--k", "2", "--no-events", "--horizon", "0.5",
                  "--out-prefix", str(tmp_path / "nan")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "residual is not finite (non_finite)" in err
        assert "Traceback" not in err

    def test_lel_share_its_block_cannot_carry_exits_1(self, tmp_path, capsys):
        case = tmp_path / "noncool.case"
        case.write_text("[SYSTEM]\ns_base,100.0\nf_base,60.0\n"
                        "[BUS]\n1,slack,1.00,0,0\n2,pq,1.00,100,25\n"
                        "[BRANCH]\n1,2,0.01,0.10,0.02\n"
                        "[GEN]\n1,5.0,100.0,0.20,0,1.00\n"
                        "[LEL]\n2,datacenter,0.7,0,0.3\n")
        rc = run(["grid-sim", str(case), "--no-events", "--horizon", "0.05",
                  "--dt", "0.01", "--out-prefix", str(tmp_path / "x")])
        assert rc == 1
        assert "LEL at bus 2: the cooling block" in capsys.readouterr().err
        assert not (tmp_path / "x_result.csv").exists()

    def test_one_bus_case_runs(self, tmp_path, capsys):
        case = tmp_path / "one.case"
        case.write_text("[SYSTEM]\ns_base,100.0\nf_base,60.0\n"
                        "[BUS]\n1,slack,1.0,0,0\n[GEN]\n1,5.0,1.0,0.2,0,1.0\n")
        prefix = str(tmp_path / "one")
        rc = run(["grid-sim", str(case), "--no-events", "--horizon", "0.05",
                  "--dt", "0.01", "--out-prefix", prefix])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err
        result = read_trace(prefix + "_result.csv")
        assert np.all(result.channels["v_mag_bus1"] == 1.0)

    def test_byte_identical_reruns(self, tmp_path):
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (pa, pb):
            rc = run(["grid-sim", "toy9", "--k", "2", "--fault-bus", "5",
                      "--t-fault", "0.5", "--duration", "0.05", "--horizon",
                      "1.5", "--dt", "0.005", "--seed", "4",
                      "--out-prefix", prefix])
        with open(pa + "_result.csv", "rb") as fa, \
                open(pb + "_result.csv", "rb") as fb:
            assert fa.read() == fb.read()



    def test_k_adds_to_the_case_lels(self, tmp_path):
        text = importlib.resources.files("lelsim.data").joinpath("ieee39.case").read_text()
        case = tmp_path / "ieee39_lel.case"
        case.write_text(text + "[LEL]\n3,datacenter\n")
        kappas = {}
        for k in (0, 2):
            prefix = str(tmp_path / f"k{k}")
            assert run(["grid-sim", str(case), "--k", str(k), "--no-events",
                        "--horizon", "0.02", "--dt", "0.01", "--out-prefix", prefix]) == 0
            header = (tmp_path / f"k{k}_result.csv").read_text().splitlines()[0]
            kappas[k] = [c for c in header.split(",") if c.startswith("kappa_")]
        assert kappas[0] == ["kappa_lel3"]
        assert kappas[2][0] == "kappa_lel3" and len(kappas[2]) == 3

    def test_negative_k_is_validation_error(self, tmp_path, capsys):
        rc = run(["grid-sim", "toy9", "--k", "-1", "--no-events",
                  "--out-prefix", str(tmp_path / "g")])
        TestMalformedInput.assert_error_exit(rc, capsys)


class TestCalibrateCommand:
    def test_calibrate_writes_result_file(self, workload_csv, tmp_path):
        out = tmp_path / "cal.txt"
        rc = run(["calibrate", str(workload_csv),
                  "--bound", "mu_eta=0.3:0.8",
                  "--max-evals", "10", "--epochs", "5", "--repeats", "1",
                  "--seed", "0", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "[theta_star]" in text
        assert "mu_eta=" in text

    @pytest.mark.parametrize("mode", ["pattern", "mse"])
    def test_trace_at_a_fractional_sample_period(self, tmp_path, mode):
        # 43 rows at 0.1 s: the model is simulated for 43 samples, not 42
        data = tmp_path / "d.csv"
        p = 5.0 + np.random.default_rng(0).standard_normal(43)
        write_trace(Trace(sample_period=0.1, channels={"p": p}), str(data))
        rc = run(["calibrate", str(data), "--bound", "mu_eta=0.2:0.9",
                  "--mode", mode, "--max-evals", "4", "--epochs", "2",
                  "--repeats", "1", "--out", str(tmp_path / "cal.txt")])
        assert rc == 0

    @pytest.mark.parametrize("mode", ["mse", "pattern"])
    def test_optimum_at_the_upper_bound(self, tmp_path, mode):
        # the best mu_eta for this trace is the bound's upper end, which
        # the logit transform once overshot by one rounding
        data, out = tmp_path / "w.csv", tmp_path / "fit.txt"
        assert run(["simulate-load", "--archetype", "datacenter", "--model", "workload",
                    "--horizon", "1800", "--dt", "1", "--seed", "7", "--out", str(data)]) == 0
        rc = run(["calibrate", str(data), "--bound", "mu_eta=0.15:0.45", "--mode", mode,
                  "--epochs", "10", "--max-evals", "200", "--out", str(out)])
        assert rc == 0
        assert "\nmu_eta=0.45\n" in out.read_text()

    def test_bad_bound_spec_is_validation_error(self, workload_csv, tmp_path):
        rc = run(["calibrate", str(workload_csv), "--bound", "mu_eta=oops",
                  "--out", str(tmp_path / "cal.txt")])
        assert rc == 1


class TestSweepTcl:
    def test_grid_has_requested_rows(self, workload_csv, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = run(["sweep-tcl", str(workload_csv), "--L", "3,5", "--d", "4,8",
                  "--epochs", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "L,d,split_half_distance"
        assert len(lines) == 5


class TestSweepK:
    def test_writes_one_row_per_k(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep-k", "toy9", "--k", "1,2", "--trials", "1",
                  "--dt", "0.01", "--horizon", "8", "--seed", "0",
                  "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("k,median_voltage_nadir,"
                            "median_frequency_overshoot,"
                            "median_reconnection_delay")
        assert len(lines) == 3
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2"]

    def test_no_trials_is_validation_error(self, tmp_path, capsys):
        rc = run(["sweep-k", "toy9", "--k", "1", "--trials", "0",
                  "--out", str(tmp_path / "sweep.csv")])
        TestMalformedInput.assert_error_exit(rc, capsys)
        assert not (tmp_path / "sweep.csv").exists()

    def test_repeated_k_is_validation_error(self, tmp_path, capsys):
        rc = run(["sweep-k", "toy9", "--k", "1,1", "--trials", "1", "--horizon", "5.5",
                  "--dt", "0.01", "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and "k=1 repeated" in err
        assert not (tmp_path / "sweep.csv").exists()


class TestParamsFile:
    def test_non_finite_parameter_exits_1(self, tmp_path):
        from lelsim.lel import Archetype, archetype_defaults, dump_lel_params

        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        params = tmp_path / "p.lel"
        params.write_text(doc.replace("cool.R_s = 0.02", "cool.R_s = nan"))
        assert run(["simulate-load", "--model", "cooling", "--horizon", "60",
                    "--params", str(params), "--out", str(tmp_path / "c.csv")]) == 1
        assert not (tmp_path / "c.csv").exists()

    def test_motor_without_equilibrium_exits_2(self, tmp_path, capsys):
        # stator and rotor reactances of 1 pu leave the motor no slip that
        # carries its load torque along the excitation ride
        from lelsim.lel import Archetype, archetype_defaults, dump_lel_params

        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        params = tmp_path / "weak.txt"
        params.write_text(doc.replace("cool.X_s = 0.1", "cool.X_s = 1.0")
                          .replace("cool.X_r = 0.1", "cool.X_r = 1.0"))
        rc = run(["simulate-load", "--params", str(params), "--model", "cooling",
                  "--horizon", "60", "--dt", "1", "--out", str(tmp_path / "w.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numerical failure: torque 0.8000 pu above pull-out at |V|=")
        assert not (tmp_path / "w.csv").exists()


TWO_BUS = ("[SYSTEM]\ns_base,100.0\nf_base,60.0\n"
           "[BUS]\n1,slack,1.00,0,0\n2,pq,1.00,100,25\n"
           "[BRANCH]\n1,2,0.01,0.10,0.02\n"
           "[GEN]\n1,5.0,100.0,0.20,0,1.00\n")


class TestMalformedInput:
    """Malformed files and arguments end in one `error:` line and exit 1."""

    @staticmethod
    def assert_error_exit(rc, capsys):
        """Checks the exit and returns the error output."""
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("old,new", [
        ("2,pq,1.00,100,25", "2,pq,1.0,fifty,10"),
        ("s_base,100.0", "s_base"),
        ("[GEN]", "[LEL]\n2,steelmill\n[GEN]"),
    ], ids=["non_numeric_field", "system_row_without_value", "unknown_archetype"])
    def test_malformed_case_file(self, tmp_path, capsys, old, new):
        case = tmp_path / "bad.case"
        case.write_text(TWO_BUS.replace(old, new))
        rc = run(["grid-sim", str(case), "--no-events", "--horizon", "0.05",
                  "--dt", "0.01", "--out-prefix", str(tmp_path / "x")])
        self.assert_error_exit(rc, capsys)

    # toy2 with one field, key or header made impossible
    @pytest.mark.parametrize("old,new,named", [
        ("f_base,60.0", "f_base,-60.0", "f_base > 0"),
        ("s_base,100.0", "s_base,0", "s_base > 0"),
        ("s_base,100.0", "sbase,50", "unknown key 'sbase'"),
        ("[LEL]", "[LELS]", "unknown section [LELS]"),
        ("1,5.0,100.0,0.20,0,1.00", "1,-5.0,100.0,0.20,0,1.00", "need H > 0"),
        ("1,5.0,100.0,0.20,0,1.00", "1,0,100.0,0.20,0,1.00", "need H > 0"),
        ("1,5.0,100.0,0.20,0,1.00", "1,5.0,100.0,-0.2,0,1.00", "need xd_p > 0"),
        ("1,5.0,100.0,0.20,0,1.00", "1,5.0,100.0,0,0,1.00", "need xd_p > 0"),
        ("1,5.0,100.0,0.20,0,1.00", "1,5.0,-100,0.20,0,1.00", "need D >= 0"),
        ("1,5.0,100.0,0.20,0,1.00", "1,5.0,100.0,0.20,0,0", "need v_set > 0"),
        ("1,slack,1.00,0,0", "1,slack,-1.0,0,0", "bus 1: v_set must be > 0"),
        ("1,2,0.01,0.10,0.02", "1,2,0.01,0.10,0.02,-1.0", "branch 1-2: tap must be >= 0"),
        ("1,2,0.01,0.10,0.02", "1,2,0.01,0.10,0.02\n2,2,0.01,0.10,0.5",
         "branch 2-2: both ends at one bus"),
        ("s_base,100.0", "s_base,100.0\ns_base,50", "[SYSTEM] key 's_base' given more than once"),
        ("1,5.0,100.0,0.20,0,1.00", "1,5.0,100.0,0.20,0,1.05",
         "generator at bus 1: v_set 1.05 differs from the bus v_set 1.0"),
    ], ids=["f_base_negative", "s_base_zero", "system_key_typo", "unknown_section",
            "H_negative", "H_zero", "xd_p_negative", "xd_p_zero", "D_negative",
            "gen_v_set_zero", "slack_v_set_negative", "tap_negative", "self_loop_branch",
            "system_key_twice", "gen_v_set_differs_from_bus"])
    def test_impossible_case_data(self, tmp_path, capsys, old, new, named):
        text = importlib.resources.files("lelsim.data").joinpath("toy2.case").read_text()
        assert old in text
        case = tmp_path / "bad.case"
        case.write_text(text.replace(old, new))
        rc = run(["grid-sim", str(case), "--no-events", "--horizon", "0.05",
                  "--dt", "0.01", "--out-prefix", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and named in err
        assert not (tmp_path / "x_result.csv").exists()

    # every subcommand with a --seed, and the other arguments it needs
    @pytest.mark.parametrize("argv", [
        ["simulate-load", "--horizon", "10"],
        ["grid-sim", "toy2", "--no-events", "--horizon", "0.05"],
        ["sweep-k", "toy9", "--k", "2", "--trials", "1", "--horizon", "0.05"],
        ["calibrate", "{trace}", "--bound", "mu_eta=0.3:0.8", "--max-evals", "2"],
        ["robustness", "{trace}", "--bound", "mu_eta=0.3:0.8", "--inits", "1",
         "--max-evals", "2"],
        ["sweep-tcl", "{trace}", "--L", "5", "--d", "4", "--epochs", "1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_rejected(self, workload_csv, tmp_path, capsys, argv):
        out = (["--out-prefix", str(tmp_path / "g")] if argv[0] == "grid-sim"
               else ["--out", str(tmp_path / "out.csv")])
        capsys.readouterr()
        rc = run([arg.format(trace=workload_csv) for arg in argv] + ["--seed", "-1"] + out)
        err = capsys.readouterr().err
        assert rc == 1
        assert "argument --seed: must be a non-negative integer, got -1" in err
        assert "Traceback" not in err
        assert not any(tmp_path.glob("g_*")) and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("inits", ["0", "-1"])
    def test_robustness_without_inits_rejected(self, workload_csv, tmp_path, capsys, inits):
        capsys.readouterr()
        rc = run(["robustness", str(workload_csv), "--bound", "mu_eta=0.3:0.8",
                  "--inits", inits, "--out", str(tmp_path / "rob.csv")])
        self.assert_error_exit(rc, capsys)
        assert not (tmp_path / "rob.csv").exists()

    # the datacenter dump with the value of key replaced by bad, or with
    # the line bad appended where key is None
    @pytest.mark.parametrize("key,bad,named", [
        ("schema_version", "one", "schema_version: "),
        ("work.p_base", "twenty", "work.p_base: "),
        (None, "work.mu_eta = 0.9", "key 'work.mu_eta' repeats line 6"),
        (None, "work.bogus = 3", "unknown key(s) work.bogus"),
    ], ids=["schema_version-one", "work.p_base-twenty", "repeated_key", "unknown_key"])
    def test_malformed_params_file(self, tmp_path, capsys, key, bad, named):
        from lelsim.lel import Archetype, archetype_defaults, dump_lel_params

        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        lines = [f"{key} = {bad}" if line.startswith(f"{key} ") else line
                 for line in doc.splitlines()]
        params = tmp_path / "p.lel"
        params.write_text("\n".join(lines if key else lines + [bad]))
        rc = run(["simulate-load", "--model", "workload", "--horizon", "60",
                  "--params", str(params), "--out", str(tmp_path / "w.csv")])
        assert named in self.assert_error_exit(rc, capsys)
        assert not (tmp_path / "w.csv").exists()

    def test_output_path_that_is_a_directory(self, tmp_path, capsys):
        rc = run(["simulate-load", "--horizon", "10", "--out", str(tmp_path)])
        self.assert_error_exit(rc, capsys)

    @pytest.mark.parametrize("command", ["calibrate", "robustness"])
    def test_bound_on_unknown_parameter_fails_before_training(self, workload_csv, tmp_path,
                                                              capsys, monkeypatch, command):
        from lelsim import calibration

        def no_training(*args, **kwargs):
            raise AssertionError("the encoder was trained")

        monkeypatch.setattr(calibration, "train_encoder", no_training)
        capsys.readouterr()
        rc = run([command, str(workload_csv), "--bound", "mu_eta=0.3:0.8",
                  "--bound", "foo=0:1", "--out", str(tmp_path / "cal.txt")])
        self.assert_error_exit(rc, capsys)

    @pytest.mark.parametrize("inits", [["mu_eta=0.5", "foo=1"], ["mu_eta=0.5", "tau_eta=5"],
                                       ["mu_eta=0.5", "mu_eta=0.6"]],
                             ids=["unknown_name", "name_outside_bounds", "name_twice"])
    def test_init_outside_bounds_fails_before_training(self, workload_csv, tmp_path,
                                                       capsys, monkeypatch, inits):
        from lelsim import calibration

        def no_training(*args, **kwargs):
            raise AssertionError("the encoder was trained")

        monkeypatch.setattr(calibration, "train_encoder", no_training)
        capsys.readouterr()
        rc = run(["calibrate", str(workload_csv), "--bound", "mu_eta=0.3:0.8",
                  "--out", str(tmp_path / "cal.txt")]
                 + [arg for init in inits for arg in ("--init", init)])
        self.assert_error_exit(rc, capsys)

    # the arguments before the non-finite option, per command
    NON_FINITE_BASE = {"grid-sim": ["grid-sim", "toy9", "--k", "2", "--fault-bus", "5"],
                       "sweep-k": ["sweep-k", "toy9", "--k", "2", "--trials", "1"],
                       "workload": ["simulate-load", "--model", "workload"],
                       "cooling": ["simulate-load", "--model", "cooling"]}

    @pytest.mark.parametrize("command,option,value", [
        ("grid-sim", "--dt", "nan"), ("grid-sim", "--horizon", "nan"),
        ("grid-sim", "--horizon", "inf"), ("grid-sim", "--t-fault", "nan"),
        ("grid-sim", "--duration", "nan"), ("sweep-k", "--dt", "nan"),
        ("workload", "--horizon", "nan"), ("workload", "--horizon", "inf"),
        ("workload", "--dt", "nan"), ("cooling", "--horizon", "nan"),
        ("cooling", "--horizon", "inf"), ("cooling", "--dt", "nan")])
    def test_non_finite_time_rejected(self, tmp_path, capsys, command, option, value):
        out = (["--out-prefix", str(tmp_path / "g")] if command == "grid-sim"
               else ["--out", str(tmp_path / "x.csv")])
        rc = run(self.NON_FINITE_BASE[command] + [option, value] + out)
        self.assert_error_exit(rc, capsys)

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep-k", "--k", "two"), ("sweep-tcl", "--L", "a"), ("sweep-tcl", "--d", "4,")],
        ids=["k", "L", "d"])
    def test_non_integer_list_rejected(self, workload_csv, tmp_path, capsys, command, flag,
                                       value):
        source = "toy9" if command == "sweep-k" else str(workload_csv)
        rc = run([command, source, flag, value, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: bad {flag} list") and "Traceback" not in err

    # the arguments of each rejected run, before its output option
    @pytest.mark.parametrize("argv,message", [
        (["grid-sim", "toy9", "--k", "2", "--horizon", "1"],
         "--fault-bus is required unless --no-events"),
        (["grid-sim", "toy9", "--k", "2", "--fault-bus", "5", "--t-fault", "0.5",
          "--duration", "0", "--horizon", "1"],
         "clear_fault at t=0.5 is at the step of its fault at t=0.5"),
        (["calibrate", "{short}", "--bound", "mu_eta=0.2:0.9"], "data trace too short: 10 < 20"),
        (["calibrate", "{trace}", "--bound", "mu_eta=0.2:0.9", "--bound", "mu_eta=0.3:0.31",
          "--mode", "mse", "--max-evals", "5"], "bound 'mu_eta' given more than once"),
    ], ids=["no_fault_bus", "zero_length_fault", "trace_too_short", "bound_twice"])
    def test_rejected_run_names_the_fault(self, workload_csv, tmp_path, capsys, argv,
                                          message):
        short = tmp_path / "short.csv"
        short.write_text("t,p\n" + "".join(f"{i}.0,1.0\n" for i in range(10)))
        out = (["--out-prefix", str(tmp_path / "g")] if argv[0] == "grid-sim"
               else ["--out", str(tmp_path / "cal.txt")])
        capsys.readouterr()
        rc = run([arg.format(short=short, trace=workload_csv) for arg in argv] + out)
        assert message in self.assert_error_exit(rc, capsys)
        assert not any(tmp_path.glob("g_*")) and not (tmp_path / "cal.txt").exists()

    def test_clear_before_its_fault_rejected(self, tmp_path, capsys):
        # a negative duration puts the clear before the fault it clears
        rc = run(["grid-sim", "toy9", "--k", "2", "--fault-bus", "5", "--t-fault", "0.5",
                  "--duration", "-0.2", "--out-prefix", str(tmp_path / "g")])
        self.assert_error_exit(rc, capsys)


class TestReadme:
    """The README's examples stay runnable."""

    ROOT = Path(__file__).resolve().parents[1]

    def block(self, heading: str) -> str:
        """The first fenced block under a README heading."""
        text = (self.ROOT / "README.md").read_text()
        return text.split(f"## {heading}\n", 1)[1].split("```\n", 2)[1]

    def test_command_line_examples_parse(self):
        lines = self.block("Command line").replace("\\\n", " ").splitlines()
        commands = [line for line in lines if line.startswith("lelsim ")]
        assert commands
        parser = build_parser()
        for line in commands:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    def test_demo_examples_name_existing_files(self):
        demos = re.findall(r"^python (demos/\S+\.py)", self.block("Demos"), re.MULTILINE)
        assert demos
        for demo in demos:
            assert (self.ROOT / demo).is_file(), demo


class TestUsage:
    def test_unknown_subcommand_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_0(self):
        assert run(["--help"]) == 0

    def test_import_leaves_the_optimizer_unloaded(self):
        # only calibrate needs scipy.optimize, and it imports it when run
        src = str(Path(lelsim.__file__).resolve().parents[1])
        code = "import sys, lelsim.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"
