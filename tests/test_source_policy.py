"""The package source stays exact and dependency-free.

Every check is a proof over exact integers and rationals, so `src/hookforge`
may contain no floating-point or complex arithmetic and may import only the
standard library.  Timing through `time.perf_counter` (in `cli.py` only, see
below) and type annotations are allowed: neither feeds a verdict.

A report is built and timed in one place, `cli.Unit.__call__`: every other
module's checks return None or a witness string, and neither constructs a
`VerificationReport` nor reads a clock.  The CLI imports package modules
only, never a name from one, so each proof is reached through the module
that owns it.

Every run is a fresh process, so start-up counts: no module imports
`dataclasses`, and importing the CLI loads neither it nor `inspect`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hookforge"

MATH_ALLOWED = {"gcd", "comb", "factorial"}
# every method of random.Random that returns a float
RANDOM_FLOATS = {
    "random", "uniform", "gauss", "triangular", "betavariate", "expovariate",
    "gammavariate", "lognormvariate", "normalvariate", "paretovariate",
    "vonmisesvariate", "weibullvariate",
}


def policy_violations(tree: ast.AST) -> list[str]:
    """Each node of the module that breaks the exact, stdlib-only policy."""
    math_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_aliases |= {a.asname or a.name for a in node.names if a.name == "math"}
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: {type(node.value).__name__} literal {node.value!r}")
        elif isinstance(node, ast.Assert):
            # python -O strips it, so a check built on one could never fail
            found.append(f"{where}: assert statement")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "complex"):
                found.append(f"{where}: call to {node.func.id}()")
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in math_aliases:
                if node.attr not in MATH_ALLOWED:
                    found.append(f"{where}: math.{node.attr}")
            elif node.attr in RANDOM_FLOATS:
                found.append(f"{where}: float-valued .{node.attr}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in sys.stdlib_module_names:
                    found.append(f"{where}: import of non-stdlib {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            names = {a.name for a in node.names}
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append(f"{where}: import from non-stdlib {node.module}")
            elif node.module == "math" and names - MATH_ALLOWED:
                found.append(f"{where}: from math import {sorted(names - MATH_ALLOWED)}")
            elif node.module == "random" and names & RANDOM_FLOATS:
                found.append(f"{where}: from random import {sorted(names & RANDOM_FLOATS)}")
    return found


SOURCES = sorted(SRC.glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"exact.py", "identity.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_is_float_free_and_stdlib_only(path):
    assert policy_violations(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "code",
    [
        "x = 0.5",
        "x = 2j",
        "x = float(3)",
        "x = complex(1, 2)",
        "import math\nx = math.sqrt(2)",
        "import math as m\nx = m.log(2)",
        "from math import sqrt",
        "x = rng.random()",
        "x = rng.uniform(0, 1)",
        "from random import gauss",
        "import numpy",
        "from sympy import Rational",
        "def f(x):\n    assert x > 0\n    return x",
    ],
)
def test_policy_rejects(code):
    assert policy_violations(ast.parse(code))


@pytest.mark.parametrize(
    "code",
    [
        "from __future__ import annotations",
        "from math import comb, factorial\nimport math\nx = math.gcd(4, 6)",
        "import time\nt = time.perf_counter()",
        "def f(x: float) -> float:\n    return x",
        "import random\nrng = random.Random('0:1')\nk = rng.randint(1, 9)",
        "from . import exact",
    ],
)
def test_policy_allows(code):
    assert policy_violations(ast.parse(code)) == []


def report_violations(tree: ast.AST) -> list[str]:
    """Each node that builds a `VerificationReport` or refers to `perf_counter`."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "VerificationReport":
                found.append(f"{where}: VerificationReport(...)")
        elif isinstance(node, ast.Name) and node.id == "perf_counter":
            found.append(f"{where}: perf_counter")
        elif isinstance(node, ast.Attribute) and node.attr == "perf_counter":
            found.append(f"{where}: .perf_counter")
        elif isinstance(node, ast.ImportFrom):
            if any(a.name == "perf_counter" for a in node.names):
                found.append(f"{where}: import of perf_counter")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name
)
def test_only_the_cli_builds_or_times_a_report(path):
    assert report_violations(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "code",
    [
        "r = VerificationReport('c', {}, 'pass', None, 0)",
        "r = cli.VerificationReport('c', {}, 'pass', None, 0)",
        "import time\nt = time.perf_counter()",
        "from time import perf_counter",
    ],
)
def test_report_policy_rejects(code):
    assert report_violations(ast.parse(code))


def test_the_cli_is_where_reports_are_built_and_timed():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    built = [v for v in report_violations(tree) if "VerificationReport" in v]
    assert len(built) == 1


def test_the_cli_imports_package_modules_only():
    # the driver reaches each check through its module (`from . import x`),
    # never a kernel by name, so the proofs stay in the modules they check
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert relative
    assert [ast.unparse(node) for node in relative if node.module is not None] == []


def imported_packages(tree: ast.AST) -> set[str]:
    """The top-level package of every absolute import in the module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # records are named tuples: `dataclasses` loads `inspect` and generates
    # code for each class, about half of the CLI's import time
    assert "dataclasses" not in imported_packages(ast.parse(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize(
    "code", ["import dataclasses", "from dataclasses import dataclass", "import dataclasses as dc"]
)
def test_dataclasses_policy_rejects(code):
    assert "dataclasses" in imported_packages(ast.parse(code))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, hookforge.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
