"""The package names the benchmark reaches resolve.

`bench/tracer.py` hooks the dotted names of its `HOOKS` table and
`bench/workloads.py` wraps a few more with `Patch.wrap("...")`. A name
that is missing only prints `hook absent` in a traced run, so a rename
in the package would blind a layer without failing anything. This test
reads both files as text, without importing `bench/`, and resolves each
name the way the tracer does: import the module, then find a callable
attribute.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# hooked names that are absent on purpose -> why
KNOWN_ABSENT = {
    "greenlight.solver.enumerate_feasible_phases": (
        "the search reads its candidates from ConflictMatrix.phase_masks and never "
        "imports enumerate_feasible_phases, so the traced model layer reads 0 calls"
    ),
}


def hook_names():
    """The first element of each row of tracer.py's HOOKS tuple."""
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    rows = next(
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]
    )
    return [row.elts[0].value for row in rows]


def wrap_targets():
    """The string first argument of every `.wrap(...)` call in workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


def resolves(dotted):
    module, _, attr = dotted.rpartition(".")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    return callable(getattr(owner, attr, None))


NAMES = sorted(set(hook_names()) | set(wrap_targets()))


def test_bench_files_name_the_hooks_they_are_known_to_reach():
    # the parse found the tables: 15 hooks, and the steady tick timer among the wraps
    assert len(hook_names()) == 15
    assert "greenlight.simulator.step" in wrap_targets()
    assert set(KNOWN_ABSENT) <= set(NAMES)


@pytest.mark.parametrize("dotted", NAMES)
def test_bench_name_resolves_in_the_package(dotted):
    assert resolves(dotted) == (dotted not in KNOWN_ABSENT), KNOWN_ABSENT.get(dotted, dotted)
