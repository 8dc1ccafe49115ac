"""Unit tests for the trace CSV reader."""

import io

import pytest

from lelsim.errors import ValidationError
from lelsim.traceio import read_trace


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
