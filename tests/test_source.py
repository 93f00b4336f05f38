"""Rules on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import replalg

SRC = pathlib.Path(replalg.__file__).parent


def _raises_assertion_error(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise
    # explicitly; and with a typed error, which the CLI reports with exit 2
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_cli_imports_without_sympy():
    # sympy is a test oracle only; the engine must not load it
    code = "import sys, replalg.cli; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_true_division_outside_the_division_helper():
    # int / int is a float; the one exact inverse is linalg._inv
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = set()
        for node in ast.walk(tree):
            if path.name == "linalg.py" and isinstance(node, ast.FunctionDef) and node.name == "_inv":
                helper = set(ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) and node not in helper:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_division_helper_is_exact_and_integral_when_it_can_be():
    from replalg.linalg import _inv

    for a in (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 5), Fraction(3, 4), Fraction(-7, 2), Fraction(4)):
        inv = _inv(a)
        assert a * inv == 1
        assert type(inv) is (int if inv.denominator == 1 else Fraction)


def _entries(m):
    return [c for row in m.data for c in row]


def test_every_stored_scalar_is_an_int_or_a_fraction(kronecker_m1_bundle):
    # no float and no bool in an algebra table, an action block or a map
    # block; the algebra tables hold ints wherever the value is integral
    from support import end_algebra
    from replalg.modules import direct_sum, hom_basis, injective_envelope, projective_cover

    bundle = kronecker_m1_bundle
    a = bundle.replicated.algebra
    end = end_algebra(summands=bundle.end_summands())
    table = [c for alg in (a, end) for row in alg.mult for cell in row for _, c in cell]
    table += [c for alg in (a, end) for _, coords in alg.idempotents + (("1", alg.unit),) for c in coords]
    assert {type(c) for c in table} <= {int, Fraction}
    assert all(type(c) is int or c.denominator != 1 for c in table)
    mods = [s.module for s in bundle.summands]
    total, incs, prjs = direct_sum(mods)
    maps = incs + prjs
    for x in mods:
        for y in mods:
            maps += hom_basis(x, y)
    covers = [projective_cover(x) for x in mods] + [injective_envelope(x) for x in mods]
    mods += [total] + [p for p, _ in covers]
    maps += [f for _, f in covers]
    entries = [c for x in mods for m in x.blocks.values() for c in _entries(m)]
    entries += [c for f in maps for m in f.blocks for c in _entries(m)]
    assert len(maps) > 100 and len(entries) > 1000
    assert {type(c) for c in entries} <= {int, Fraction}


def test_perfbench_tracer_names_exist():
    """perfbench's tracer wraps methods and functions by name; a name that
    the package no longer has would fail only the benchmark's own selftest.
    Every METHODS entry must name a method in its class's vars, and every
    DISTINCT and FOUND name a function defined in its layer."""
    import importlib
    import importlib.util
    import inspect

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for (layer, cls, meth) in tracer.METHODS:
        assert meth in vars(getattr(importlib.import_module(f"replalg.{layer}"), cls)), (layer, cls, meth)
    for name in tracer.DISTINCT | tracer.FOUND:
        layer, attr = name.split(".")
        mod = importlib.import_module(f"replalg.{layer}")
        fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
