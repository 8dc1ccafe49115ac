"""Unit tests for the trace CSV reader."""

import io
import re

import pytest

from lelsim.errors import InvalidArgument
from lelsim.traceio import Trace, read_trace, step_count


class TestReadTrace:
    @pytest.mark.parametrize("text,message", [
        ("", "empty trace file"),
        ("time,p\n0.0,1.0\n1.0,2.0\n", "first column of a trace file must be 't'"),
        ("t\n0.0\n1.0\n", "no data channels"),
        ("t,p\n0.0,1.0\n1.0\n", "row 3: expected 2 fields, got 1"),
        ("t,p\n0.0,1.0\n1.0,high\n", "row 3: could not convert"),
        ("t,p\n0.0,1.0\n1.0,2.0\n1.0,3.0\n", "row 4: time column not strictly increasing"),
        ("t,p\n0.0,1.0\n1.0,2.0\n2.5,3.0\n", "row 4: non-uniform sample period"),
    ], ids=["empty", "first_column_not_t", "no_channels", "field_count", "non_number",
            "time_not_increasing", "non_uniform"])
    def test_rejects_a_malformed_file_naming_the_fault(self, text, message):
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            read_trace(io.StringIO(text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value_with_row(self, value):
        text = f"t,p\n0.0,1.0\n1.0,{value}\n2.0,3.0\n"
        with pytest.raises(InvalidArgument, match="row 3: non-finite"):
            read_trace(io.StringIO(text))

    def test_rejects_a_repeated_channel_naming_it(self):
        text = "t,q,p,p\n0.0,1.0,5.0,2.0\n1.0,1.0,6.0,3.0\n"
        with pytest.raises(InvalidArgument, match="channel 'p' appears more than once"):
            read_trace(io.StringIO(text))

    @pytest.mark.parametrize("text,rows", [("t,p\n", 0), ("t,p\n0.0,1.0\n", 1)],
                             ids=["header_only", "one_row"])
    def test_rejects_fewer_than_two_rows_naming_the_count(self, text, rows):
        with pytest.raises(InvalidArgument, match=f"has {rows} data row"):
            read_trace(io.StringIO(text))

    def test_two_rows_give_the_sample_period(self):
        trace = read_trace(io.StringIO("t,p\n0.0,1.0\n0.25,2.0\n"))
        assert len(trace) == 2 and trace.sample_period == 0.25


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
