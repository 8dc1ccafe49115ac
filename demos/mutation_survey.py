"""Mutation survey: plant one small fault in a function, see if a test fails.

For each named `module:function` (a module of the lelsim package, and a
function or `Class.method` in it), every mutation site inside the
function's body gives one mutant, which changes that one site:

- a comparison: `<` and `<=`, `>` and `>=`, `==` and `!=`, `is` and
  `is not`, `in` and `not in` swap;
- an arithmetic operator, augmented assignments included: `+` and `-`,
  `*` and `/` swap;
- a boolean operator: every `and` of one expression becomes `or`, or
  every `or` becomes `and`.

Each mutant is written into a temporary copy of `src/`, where only the
operator's text changes, so line numbers stay.  Then pytest runs with
`-x` on the named tests in that temporary directory, beside a snapshot of
what the tests read, taken when the survey starts: `tests/`,
`pyproject.toml` (warnings are errors), `README.md`, `demos/` and
`perfbench/tracer.py`.  So a test edited during a survey does not judge
the mutants, and each run starts with an empty Hypothesis database: a
failing draw one mutant stores is not replayed on the next, and the
checkout's `.hypothesis/` is not written.  A mutant is killed when
pytest fails or runs five times as long as on the unmutated copy (at
least 60 s), and survives when every test passes.  The unmutated copy
must pass first.  One line per mutant, then the kill rate per function;
the exit status is 1 when a mutant survives.

Mutation testing is DeMillo, Lipton and Sayward (1978), "Hints on test
data selection", IEEE Computer 11(4).

Usage, from the root of a checkout (stdlib only; pytest must be
installed); tests are pytest arguments, files or node ids relative to
the root:

    python demos/mutation_survey.py grid:regime_flags \\
        --tests tests/test_grid.py tests/test_metrics.py
    python demos/mutation_survey.py protection:protection_transition \\
        thermal_aux:stall_transition --tests tests/test_protection.py \\
        tests/test_lel.py tests/test_acceptance.py::test_criterion_09_protection_interval_oracle
    python demos/mutation_survey.py grid:make_schedule
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lelsim"
# what the tests read besides the package, copied beside it
SNAPSHOT = ("tests", "pyproject.toml", "README.md", "demos", "perfbench/tracer.py")

# each operator, its source text and the operator it is swapped for
_COMPARE = {ast.Lt: ("<", ast.LtE), ast.LtE: ("<=", ast.Lt),
            ast.Gt: (">", ast.GtE), ast.GtE: (">=", ast.Gt),
            ast.Eq: ("==", ast.NotEq), ast.NotEq: ("!=", ast.Eq),
            ast.Is: ("is", ast.IsNot), ast.IsNot: ("is not", ast.Is),
            ast.In: ("in", ast.NotIn), ast.NotIn: ("not in", ast.In)}
_ARITH = {ast.Add: ("+", ast.Sub), ast.Sub: ("-", ast.Add),
          ast.Mult: ("*", ast.Div), ast.Div: ("/", ast.Mult)}
_BOOL = {ast.And: ("and", ast.Or), ast.Or: ("or", ast.And)}
_TEXT = {op: text for table in (_COMPARE, _ARITH, _BOOL) for op, (text, _) in table.items()}


def find_function(tree, qualname):
    """The FunctionDef of qualname ("f" or "Class.f") at the module's top level."""
    body = tree.body
    for part in qualname.split("."):
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            raise SystemExit(f"no {qualname} in module")
        body = node.body
    return node


def _operator_span(source, offsets, before, after, text):
    """(start, end) byte offsets of the operator text between the end of
    node before and the start of node after, outside comments."""
    start = offsets[before.end_lineno - 1] + before.end_col_offset
    end = offsets[after.lineno - 1] + after.col_offset
    gap = source[start:end].decode()
    pattern = re.escape(text).replace(r"\ ", r"\s+")
    if text[0].isalpha():
        pattern = rf"\b{pattern}\b"
    # blank out comments so an operator in one is not taken
    gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)
    match = re.search(pattern, gap)
    if match is None:
        raise SystemExit(f"no {text!r} at line {before.end_lineno}")
    head = len(gap[:match.start()].encode())
    return start + head, start + head + len(match.group().encode())


def mutation_sites(source: bytes, qualname: str):
    """[(line, [(start, end, replacement text)], description)] of every
    mutant in the function qualname of the module source, in source order."""
    tree = ast.parse(source)
    func = find_function(tree, qualname)
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    sites = []
    for node in ast.walk(func):
        pairs = []
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            pairs = [(op, operands[i], operands[i + 1], _COMPARE[type(op)][1])
                     for i, op in enumerate(node.ops)]
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            pairs = [(node.op, node.left, node.right, _ARITH[type(node.op)][1])]
        elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH:
            pairs = [(node.op, node.target, node.value, _ARITH[type(node.op)][1])]
        elif isinstance(node, ast.BoolOp):
            # one mutant swaps every operator of the expression
            new = _BOOL[type(node.op)][1]
            spans = [_operator_span(source, offsets, a, b, _TEXT[type(node.op)])
                     + (_TEXT[new],) for a, b in zip(node.values, node.values[1:])]
            sites.append((node.lineno, spans, f"{_TEXT[type(node.op)]} -> {_TEXT[new]}"))
            continue
        for op, before, after, new in pairs:
            text = _TEXT[type(op)]
            if isinstance(node, ast.AugAssign):
                text, replacement = text + "=", _TEXT[new] + "="
            else:
                replacement = _TEXT[new]
            span = _operator_span(source, offsets, before, after, text)
            sites.append((before.end_lineno, [span + (replacement,)],
                          f"{text} -> {replacement}"))
    return sorted(sites, key=lambda site: site[1][0][0])


def mutate(source: bytes, spans) -> bytes:
    for start, end, text in sorted(spans, reverse=True):
        source = source[:start] + text.encode() + source[end:]
    return source


def snapshot(tmp: Path):
    """Copy src/ and SNAPSHOT from the checkout into tmp."""
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src",) + SNAPSHOT:
        path, copy = ROOT / name, tmp / name
        if path.is_dir():
            shutil.copytree(path, copy, ignore=ignore)
        else:
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, copy)


def run_tests(tmp: Path, tests, timeout: float) -> str:
    """"passed", "failed" or "timeout" of pytest -x on tests in the
    snapshot tmp, importing lelsim from tmp/src, with an empty Hypothesis
    database."""
    shutil.rmtree(tmp / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *tests],
                              cwd=tmp, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("targets", nargs="+", metavar="module:function",
                        help="e.g. grid:regime_flags or grid:_Engine.step_machines")
    parser.add_argument("--tests", nargs="+", default=["tests"],
                        help="pytest arguments: test files or node ids (default: tests)")
    args = parser.parse_args()

    plan = []
    for target in args.targets:
        module, sep, qualname = target.partition(":")
        path = PACKAGE / f"{module}.py"
        if not sep or not path.is_file():
            raise SystemExit(f"{target}: expected module:function of {PACKAGE}")
        source = path.read_bytes()
        for line, spans, what in mutation_sites(source, qualname):
            plan.append((target, path, source, line, what, mutate(source, spans)))

    with tempfile.TemporaryDirectory(prefix="mutation_survey_") as tmp:
        tmp = Path(tmp)
        snapshot(tmp)
        t0 = time.monotonic()
        if run_tests(tmp, args.tests, None) != "passed":
            raise SystemExit("the tests fail on the unmutated source")
        timeout = max(60.0, 5 * (time.monotonic() - t0))
        print(f"unmutated run passed in {time.monotonic() - t0:.1f} s; "
              f"{len(plan)} mutants, time limit {timeout:.0f} s", flush=True)
        totals = {target: [0, 0] for target in args.targets}
        for target, path, source, line, what, mutant in plan:
            copy = tmp / "src" / "lelsim" / path.name
            copy.write_bytes(mutant)
            outcome = run_tests(tmp, args.tests, timeout)
            copy.write_bytes(source)
            killed = outcome != "passed"
            totals[target][0] += killed
            totals[target][1] += 1
            verdict = f"killed ({outcome})" if killed else "SURVIVED"
            print(f"{verdict:16}  {target}  {path.name}:{line}  {what}", flush=True)
    for target, (killed, total) in totals.items():
        print(f"{target}: {killed} of {total} killed")
    if any(killed < total for killed, total in totals.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
