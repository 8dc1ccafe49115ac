"""Unit tests for the trace CSV reader."""

import io

import pytest

from lelsim.errors import InvalidArgument, ValidationError
from lelsim.traceio import read_trace, step_count


class TestReadTrace:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value_with_row(self, value):
        text = f"t,p\n0.0,1.0\n1.0,{value}\n2.0,3.0\n"
        with pytest.raises(ValidationError, match="row 3: non-finite"):
            read_trace(io.StringIO(text))

    def test_rejects_a_repeated_channel_naming_it(self):
        text = "t,q,p,p\n0.0,1.0,5.0,2.0\n1.0,1.0,6.0,3.0\n"
        with pytest.raises(ValidationError, match="channel 'p' appears more than once"):
            read_trace(io.StringIO(text))

    @pytest.mark.parametrize("text,rows", [("t,p\n", 0), ("t,p\n0.0,1.0\n", 1)],
                             ids=["header_only", "one_row"])
    def test_rejects_fewer_than_two_rows_naming_the_count(self, text, rows):
        with pytest.raises(ValidationError, match=f"has {rows} data row"):
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
