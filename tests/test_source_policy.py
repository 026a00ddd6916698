"""The package source stays exact and dependency-free.

Every check is a proof over exact integers and rationals, so `src/hookforge`
may contain no floating-point or complex arithmetic and may import only the
standard library.  A true division `/` stands only at the sites that
`TRUE_DIVISIONS` lists, each on an exact operand.  Timing through
`time.perf_counter` (in `cli.py` only, see below) and type annotations are
allowed: neither feeds a verdict.

A report is built in one place, `cli._report`, and a check is timed in
`cli.Unit.__call__`: every other module's checks return None or a witness string, and neither constructs a
`VerificationReport` nor reads a clock.  The CLI imports package modules
only, never a name from one, so each proof is reached through the module
that owns it.

Every run is a fresh process, so start-up counts: no module imports
`dataclasses`, and importing the CLI loads neither it nor `inspect`, nor a
process-pool module: the CLI's dispatcher forks through `os`.

The package root imports nothing: each name has one path, through the
module that defines it.

The factored cyclotomic engine, `_factored`, imports nothing of the package
but `exact`, and `identity` reaches it only as `_factored.<name>`, binding
none of its names: a test then poisons each of its functions in one place.
`involutions`, the other side of `theorem1prime`, imports nothing of the
package but `exact`, so it cannot reach `identity`.
The z-route of `theorem1` (`rho`, `hook_weight_sum`, `verify_theorem1`) does
not name the module at all.

`os._exit` skips every `finally`, `atexit` handler and buffer flush, so only
the forked workers (`cli.py`) and `python -m hookforge` (`__main__.py`, after
flushing) may leave through it.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hookforge"

# each returns an exact int on ints; `prod` returns a float only when a
# factor is one already
MATH_ALLOWED = {"gcd", "comb", "factorial", "prod"}
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
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            # int / int is a float: a division is exact only on exact operands
            found.append(f"{where}: true division {ast.unparse(node)}")
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

# every true division in `src/`, by module and unparsed expression, with the
# exact type of its dividend there, which makes the quotient exact
TRUE_DIVISIONS = {
    ("exact.py", "c / dlead"): "Fraction",  # Polynomial.__divmod__
    ("exact.py", "o / self"): "RationalFunction",  # RationalFunction.__rtruediv__
    ("exact.py", "self.num(point) / d"): "Fraction",  # RationalFunction.__call__
    ("identity.py", "r / v"): "Fraction",  # verify_prop3_residues
    ("involutions.py", "g_poly(n, u1, u2) / factorial(n)"): "Fraction",  # verify_involution_egf
}


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"exact.py", "identity.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_is_float_free_and_stdlib_only(path):
    found = policy_violations(ast.parse(path.read_text(encoding="utf-8")))
    listed = {f"true division {expr}" for module, expr in TRUE_DIVISIONS if module == path.name}
    assert [v for v in found if v.partition(": ")[2] not in listed] == []
    assert {v.partition(": ")[2] for v in found} == listed  # no listed division is stale


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
        "x = 1 / 2",
        "x /= 2",
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
        "x = 7 // 2",
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


def test_importing_the_cli_loads_no_process_pool_module():
    # the dispatcher forks through `os` and imports `select` only when it
    # runs; the pool modules cost more start-up time than a sweep's units
    code = (
        "import sys, hookforge.cli\n"
        "pools = {'select', 'selectors', 'multiprocessing', 'concurrent'}\n"
        "print(sorted(pools & {name.split('.')[0] for name in sys.modules}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


# the helpers moved out of `identity` with the engine
MOVED = {
    "_divisors", "_cyclotomic", "_factor_terms", "_reduced_sum", "_cyclo_sum",
    "_cyclo_norm", "_multiples", "_factor_columns", "_column_bound", "_w_exponents",
}


def relative_imports(tree: ast.AST) -> set[str]:
    """The package modules that the module imports, relatively."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def bound_names(tree: ast.AST) -> set[str]:
    """Every name that the module binds, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.add(node.id)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return found


def names_in_code(code: types.CodeType) -> set[str]:
    """The global and attribute names that a code object, or one nested in
    it, reads."""
    found = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found |= names_in_code(const)
    return found


def assert_package_imports(name: str, allowed: set[str]):
    """`name` imports, at any depth, exactly the package modules `allowed`."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert relative_imports(tree) == allowed
    assert "hookforge" not in imported_packages(tree)


def test_the_factored_engine_imports_only_exact_from_the_package():
    assert_package_imports("_factored.py", {"exact"})


def test_involutions_imports_only_exact_from_the_package():
    # theorem1prime's involution side then cannot reach `identity`
    assert_package_imports("involutions.py", {"exact"})


def test_the_package_root_imports_nothing():
    # every name has one path, through the module that defines it
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [ast.unparse(node) for node in imports] == []


def test_identity_binds_no_name_of_the_factored_engine():
    engine = ast.parse((SRC / "_factored.py").read_text(encoding="utf-8"))
    defined = {node.name for node in engine.body if isinstance(node, ast.FunctionDef)}
    assert defined >= MOVED
    identity = ast.parse((SRC / "identity.py").read_text(encoding="utf-8"))
    assert "_factored" in relative_imports(identity)
    assert sorted(defined & bound_names(identity)) == []


def test_the_z_route_names_no_factored_code():
    from hookforge import identity

    for fn in (identity.rho, identity.hook_weight_sum, identity.verify_theorem1):
        code = getattr(fn, "__wrapped__", fn).__code__
        assert "_factored" not in names_in_code(code), fn.__name__


@pytest.mark.parametrize(
    "code",
    [
        "def f():\n    return _factored._cyclo_sum([])",
        "def f(xs):\n    return [_factored._cyclotomic(x) for x in xs]",
        "def f():\n    def g():\n        return _factored\n    return g",
    ],
)
def test_names_in_code_finds_nested_reads(code):
    namespace = {}
    exec(compile(code, "<policy>", "exec"), namespace)
    assert "_factored" in names_in_code(namespace["f"].__code__)


@pytest.mark.parametrize(
    "code",
    [
        "from ._factored import _cyclo_sum",
        "from . import _factored\n_cyclotomic = _factored._cyclotomic",
        "def f(_divisors):\n    return _divisors",
    ],
)
def test_bound_names_rejects(code):
    assert bound_names(ast.parse(code)) & MOVED


EXIT_ALLOWED = {"cli.py", "__main__.py"}


def exit_violations(tree: ast.AST) -> list[str]:
    """Each node that refers to `os._exit` or imports it by name."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and node.attr == "_exit":
            found.append(f"{where}: ._exit")
        elif isinstance(node, ast.ImportFrom) and any(a.name == "_exit" for a in node.names):
            found.append(f"{where}: import of _exit")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in EXIT_ALLOWED], ids=lambda p: p.name
)
def test_only_the_workers_and_main_call_os_exit(path):
    assert exit_violations(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "code", ["import os\nos._exit(0)", "import os as o\no._exit(1)", "from os import _exit"]
)
def test_exit_policy_rejects(code):
    assert exit_violations(ast.parse(code))


def test_the_workers_and_main_leave_through_os_exit():
    for name in sorted(EXIT_ALLOWED):
        assert exit_violations(ast.parse((SRC / name).read_text(encoding="utf-8"))), name
