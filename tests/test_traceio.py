"""Unit tests for the trace CSV reader."""

import re

import numpy as np
import pytest

from lelsim.errors import InvalidArgument
from lelsim.traceio import Trace, off_grid, read_trace, step_count, write_trace


def read_text(tmp_path, text):
    """read_trace of a file holding text."""
    path = tmp_path / "trace.csv"
    path.write_text(text)
    return read_trace(path)


class TestReadTrace:
    @pytest.mark.parametrize("text,message", [
        ("", "empty trace file"),
        ("time,p\n0.0,1.0\n1.0,2.0\n", "first column of a trace file must be 't'"),
        ("t\n0.0\n1.0\n", "no data channels"),
        ("t,p\n0.0,1.0\n1.0\n", "row 3: expected 2 fields, got 1"),
        ("t,p\n0.0,1.0\n1.0,high\n", "row 3: could not convert"),
        ("t,p\n0.0,1.0\n1.0,2.0\n1.0,3.0\n", "row 4: time column not strictly increasing"),
        ("t,p\n0.0,1.0\n1.0,2.0\n2.5,3.0\n", "row 4: non-uniform sample period"),
        ("t,p\n0.0,1.0\n1.0,2.0\n2.0,3.0\n2.5,4.0\n3.5,5.0\n",
         "row 5: non-uniform sample period"),
    ], ids=["empty", "first_column_not_t", "no_channels", "field_count", "non_number",
            "time_not_increasing", "non_uniform", "short_step"])
    def test_rejects_a_malformed_file_naming_the_fault(self, tmp_path, text, message):
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            read_text(tmp_path, text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value_with_row(self, tmp_path, value):
        text = f"t,p\n0.0,1.0\n1.0,{value}\n2.0,3.0\n"
        with pytest.raises(InvalidArgument, match="row 3: non-finite"):
            read_text(tmp_path, text)

    def test_rejects_a_repeated_channel_naming_it(self, tmp_path):
        text = "t,q,p,p\n0.0,1.0,5.0,2.0\n1.0,1.0,6.0,3.0\n"
        with pytest.raises(InvalidArgument, match="channel 'p' appears more than once"):
            read_text(tmp_path, text)

    @pytest.mark.parametrize("text,rows", [("t,p\n", 0), ("t,p\n0.0,1.0\n", 1)],
                             ids=["header_only", "one_row"])
    def test_rejects_fewer_than_two_rows_naming_the_count(self, tmp_path, text, rows):
        with pytest.raises(InvalidArgument, match=f"has {rows} data row"):
            read_text(tmp_path, text)

    def test_jitter_up_to_one_part_in_1e9_of_the_span_is_accepted(self, tmp_path):
        t = np.arange(101.0)
        t[50] += 5e-8
        text = "t,p\n" + "".join(f"{x!r},1.0\n" for x in t.tolist())
        assert read_text(tmp_path, text).sample_period == 1.0
        # steps a and S - a differ by exactly fl(1e-9 * S)
        a, S = 0.5107025908168694, 1.021405182655144
        assert (S - a) - a == 1e-9 * S
        assert read_text(tmp_path, f"t,p\n0.0,1.0\n{a!r},2.0\n{S!r},3.0\n").sample_period == a

    def test_two_rows_give_the_sample_period(self, tmp_path):
        trace = read_text(tmp_path, "t,p\n0.0,1.0\n0.25,2.0\n")
        assert len(trace) == 2 and trace.sample_period == 0.25


class TestWriteTrace:
    def test_round_trip_keeps_the_time_column(self, tmp_path):
        trace = Trace(sample_period=0.25, channels={"p": [1.0, 2.0, 3.0], "q": [0.0, -1.0, 5.5]})
        write_trace(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text().splitlines()[:3] == [
            "t,p,q", "0.0,1.0,0.0", "0.25,2.0,-1.0"]
        back = read_trace(tmp_path / "trace.csv")
        assert back.sample_period == 0.25
        assert {k: v.tolist() for k, v in back.channels.items()} == {
            k: v.tolist() for k, v in trace.channels.items()}


class TestOffGrid:
    def test_a_miss_of_exactly_the_tolerance_is_on_the_grid(self):
        # 1e-6 misses step 0 of dt = 1 by exactly dt * 1e-6
        assert not off_grid(1e-6, 1.0)
        assert off_grid(1.5e-6, 1.0)
        assert not off_grid(3 * 0.1, 0.1)


class TestStepCount:
    @pytest.mark.parametrize("horizon,dt,n", [(4.3, 0.1, 43), (43 * 0.1, 0.1, 43),
                                              (20.0, 0.005, 4000), (2.0, 1.0, 2)])
    def test_whole_number_of_steps(self, horizon, dt, n):
        assert step_count(horizon, dt) == n

    @pytest.mark.parametrize("horizon,dt", [(1.0, 1.0), (1.0, 0.0), (1.0, -0.1),
                                            (float("inf"), 1.0), (float("nan"), 1.0)])
    def test_rejects_horizon_not_above_dt(self, horizon, dt):
        with pytest.raises(InvalidArgument, match="need finite horizon > dt > 0"):
            step_count(horizon, dt)


class TestTrace:
    @pytest.mark.parametrize("period,channels,message", [
        (0.0, {"p": [1.0]}, "sample_period must be > 0"),
        (1.0, {}, "at least one channel"),
        (1.0, {"p": [1.0, 2.0], "q": [1.0]}, "same length"),
    ], ids=["zero_period", "no_channels", "unequal_lengths"])
    def test_rejects_an_impossible_trace(self, period, channels, message):
        with pytest.raises(InvalidArgument, match=message):
            Trace(sample_period=period, channels=channels)
