"""The README's proof ledger and the `fails(check)` markers stay in step
with the checks that `hookforge verify` runs.

Every key of `cli.REGISTRY` has a test marked `@pytest.mark.fails(check)`,
and every marker names a real check.  The ledger has one row per check,
and each row names exactly the tests marked with its check, in backticks.
The plain-text test names in a row's Routes cell are exactly the tests
marked `@pytest.mark.independence(check)` with its check.  Each row's
routes name library functions as dotted names under `hookforge`, and each
of those names resolves.  Markers are read from the test sources, so
nothing is collected or run here.
"""

import ast
import re
from functools import reduce
from pathlib import Path

import hookforge
from hookforge import cli

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def marked_tests(marker: str = "fails") -> dict[str, set[str]]:
    """Each check named by a `marker` marker, mapped to the tests it marks."""
    found: dict[str, set[str]] = {}
    name = f"pytest.mark.{marker}"
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    if isinstance(dec, ast.Call) and ast.unparse(dec.func) == name:
                        for arg in dec.args:
                            found.setdefault(arg.value, set()).add(node.name)
    return found


def ledger_lines() -> list[tuple[str, str]]:
    """(check, the rest of its row) for each row of the README's ledger."""
    section = README.read_text(encoding="utf-8").split("## Proof ledger\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        (m.group(1), line[m.end():])
        for line in section.splitlines()
        if (m := re.match(r"\| `(\w+)` \|", line))
    ]


def ledger_rows() -> list[tuple[str, set[str]]]:
    """(check, tests named in its row) for each row of the README's ledger."""
    return [(check, set(re.findall(r"`(test_\w+)`", rest))) for check, rest in ledger_lines()]


def test_every_check_has_a_marked_failing_test():
    marked = marked_tests()
    assert set(marked) == set(cli.REGISTRY)


def test_the_ledger_has_one_row_per_check_naming_its_marked_tests():
    rows = ledger_rows()
    assert sorted(check for check, _ in rows) == sorted(cli.REGISTRY)
    marked = marked_tests()
    for check, tests in rows:
        assert tests == marked.get(check, set()), check


def test_every_ledger_row_names_library_functions_that_resolve():
    for check, rest in ledger_lines():
        routes = rest.split(" | ")[0]
        dotted = re.findall(r"`(\w+(?:\.\w+)+)`", routes)
        assert dotted, check
        for name in dotted:
            assert callable(reduce(getattr, name.split("."), hookforge)), name


def test_each_routes_cell_names_its_independence_tests_in_plain_text():
    marked = marked_tests("independence")
    assert set(marked) <= set(cli.REGISTRY)
    for check, rest in ledger_lines():
        routes = re.sub(r"`[^`]*`", "", rest.split(" | ")[0])
        assert set(re.findall(r"\btest_\w+", routes)) == marked.get(check, set()), check
