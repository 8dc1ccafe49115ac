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
