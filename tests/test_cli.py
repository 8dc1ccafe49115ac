"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from lelsim.cli import cli_dispatch
from lelsim.traceio import read_trace


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

        def nan_residual(self, z, xk, f0, dt):
            return residual(self, z, xk, f0, dt) * np.nan

        monkeypatch.setattr(_Engine, "residual", nan_residual)
        rc = run(["grid-sim", "toy9", "--k", "2", "--no-events", "--horizon", "0.5",
                  "--out-prefix", str(tmp_path / "nan")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "residual is not finite (non_finite)" in err
        assert "Traceback" not in err

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


class TestParamsFile:
    def test_non_finite_parameter_exits_1(self, tmp_path):
        from lelsim.lel import Archetype, archetype_defaults, dump_lel_params

        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        params = tmp_path / "p.lel"
        params.write_text(doc.replace("cool.R_s = 0.02", "cool.R_s = nan"))
        assert run(["simulate-load", "--model", "cooling", "--horizon", "60",
                    "--params", str(params), "--out", str(tmp_path / "c.csv")]) == 1
        assert not (tmp_path / "c.csv").exists()


class TestUsage:
    def test_unknown_subcommand_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_0(self):
        assert run(["--help"]) == 0
