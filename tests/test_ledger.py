"""The README's proof ledger and the `fails(check)` markers stay in step
with the checks that `hookforge verify` runs.

Every key of `cli.REGISTRY` has a test marked `@pytest.mark.fails(check)`,
and every marker names a real check.  The ledger has one row per check,
and each row names exactly the tests marked with its check.  Markers are
read from the test sources, so nothing is collected or run here.
"""

import ast
import re
from pathlib import Path

from hookforge import cli

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def marked_tests() -> dict[str, set[str]]:
    """Each check named by a `fails` marker, mapped to the tests it marks."""
    found: dict[str, set[str]] = {}
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    if isinstance(dec, ast.Call) and ast.unparse(dec.func) == "pytest.mark.fails":
                        for arg in dec.args:
                            found.setdefault(arg.value, set()).add(node.name)
    return found


def ledger_rows() -> list[tuple[str, set[str]]]:
    """(check, tests named in its row) for each row of the README's ledger."""
    section = README.read_text(encoding="utf-8").split("## Proof ledger\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        (m.group(1), set(re.findall(r"`(test_\w+)`", line)))
        for line in section.splitlines()
        if (m := re.match(r"\| `(\w+)` \|", line))
    ]


def test_every_check_has_a_marked_failing_test():
    marked = marked_tests()
    assert set(marked) == set(cli.REGISTRY)


def test_the_ledger_has_one_row_per_check_naming_its_marked_tests():
    rows = ledger_rows()
    assert sorted(check for check, _ in rows) == sorted(cli.REGISTRY)
    marked = marked_tests()
    for check, tests in rows:
        assert tests == marked.get(check, set()), check
