"""Rules on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

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
