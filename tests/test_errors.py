"""The error contract: bad input raises InvalidArgument and exits 1, a
numerical failure raises NoEquilibrium or SimulationCollapse and exits 2."""

import ast
import importlib.resources
import inspect

import pytest

from lelsim import cli, errors
from lelsim.errors import InvalidArgument, NoEquilibrium, SimulationCollapse

# what a `raise` in the package may call: the two exception types,
# grid's collapse(...), which builds a SimulationCollapse with its
# partial, and in cli.py argparse's ArgumentTypeError, which parse_args
# turns into a usage error (exit 1)
RAISABLE = {"InvalidArgument", "NoEquilibrium", "collapse", "ArgumentTypeError"}
ONLY_IN = {"collapse": "grid.py", "ArgumentTypeError": "cli.py"}


def test_every_raise_is_a_type_the_cli_maps():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert defined == {"InvalidArgument", "NoEquilibrium", "SimulationCollapse"}
    seen = set()
    for path in importlib.resources.files("lelsim").iterdir():
        if not path.name.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                where = f"{path.name}:{node.lineno}"
                assert isinstance(node.exc, ast.Call), where
                func = node.exc.func
                name = func.attr if isinstance(func, ast.Attribute) else func.id
                assert name in RAISABLE, where
                assert ONLY_IN.get(name, path.name) == path.name, where
                seen.add(name)
    assert seen == RAISABLE


@pytest.mark.parametrize("exc,code,prefix", [
    (InvalidArgument("bad input"), 1, "error: "),
    (OSError("no such file"), 1, "error: "),
    (NoEquilibrium("no operating point"), 2, "numerical failure: "),
    (SimulationCollapse("newton", 3, 0.015, 1.0, None), 2, "numerical failure: "),
], ids=["InvalidArgument", "OSError", "NoEquilibrium", "SimulationCollapse"])
def test_each_exception_type_has_one_exit_code(monkeypatch, capsys, exc, code, prefix):
    def stub(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_simulate_load", stub)
    assert cli.cli_dispatch(["simulate-load", "--out", "unused.csv"]) == code
    assert capsys.readouterr().err == f"{prefix}{exc}\n"


def test_other_exceptions_propagate(monkeypatch):
    def stub(args):
        raise KeyError("programming error")

    monkeypatch.setattr(cli, "cmd_simulate_load", stub)
    with pytest.raises(KeyError):
        cli.cli_dispatch(["simulate-load", "--out", "unused.csv"])
