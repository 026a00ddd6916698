"""Every function and method that `src/hookforge` defines is accounted for.

A function is accounted for when one of these holds:
- an in-process run of `verify all --max-n 7 --order 7 --trials 1`, with one
  usable CPU, enters it (recorded by `support.reach`); the run writes text,
  so a one-unit run with `--format json` is recorded with it;
- the benchmark tracer's tables name it, read as `test_tracer_names` reads
  them: those names stay until the tracer stops naming them;
- it is a dunder method: the record and value protocol, by rule;
- `KEEP` lists it with one of the reasons below.

A `KEEP` entry that the run reaches, that the tracer names, or that names no
function is stale, and fails the test too.  A function that is none of these
is code that no check runs: delete it, or keep it here with its reason.
"""

import ast
import os

from hookforge import cli
from support import PACKAGE, reach
from test_tracer_names import READ_DIRECTLY, load_tracer

RUNS = (
    ["verify", "all", "--max-n", "7", "--order", "7", "--trials", "1"],
    ["verify", "substitution", "--max-n", "1", "--format", "json"],
)

WITNESS = "a witness or failure path"
PROTOCOL = "the record or value protocol"
OWN_TESTS = "API that only its own tests use"
UNDER_PINNED = "called only from a tracer-pinned function"
FORKED = "forked-worker code, which reach cannot see"

KEEP = {
    "_records.Validated._make": PROTOCOL,
    "cli._Worker.close_tasks": FORKED,
    "cli._Worker.dispatch": FORKED,
    "cli._Worker.reap": FORKED,
    "cli._died": FORKED,
    "cli._fork_worker": FORKED,
    "cli._run_forked": FORKED,
    "cli._serve": FORKED,
    "exact.Polynomial.coeffs": WITNESS,  # through `format`; also `__divmod__`
    "exact.Polynomial.degree": UNDER_PINNED,  # `__divmod__`
    "exact.Polynomial.format": WITNESS,
    "exact.Polynomial.is_monic": UNDER_PINNED,  # `poly_gcd`, through `monic`
    "exact.Polynomial.monic": UNDER_PINNED,  # `poly_gcd`
    "exact.RationalFunction.cross_equal": OWN_TESTS,
    "exact.RationalFunction.format": WITNESS,
    "exact.RationalFunction.one": OWN_TESTS,
    "identity.verify_phi_recursion": OWN_TESTS,
    "partitions.Partition.cells": OWN_TESTS,
    "partitions.Partition.conjugate": OWN_TESTS,
    "partitions.Partition.parse": OWN_TESTS,
    "partitions.Partition.serialize": WITNESS,
    "tableaux.StandardTableau.entry": OWN_TESTS,
    "tableaux.StandardTableau.n": OWN_TESTS,
    "tableaux.StandardTableau.parse": OWN_TESTS,
    "tableaux.StandardTableau.reading_word": UNDER_PINNED,  # `enumerate_syt`
    "tableaux.StandardTableau.serialize": OWN_TESTS,
    "tableaux.StandardTableau.shape": OWN_TESTS,
    "tableaux._invalid_word_witness": WITNESS,
    "tableaux._unenumerated_witness": WITNESS,
    "tableaux.rows_of_word": WITNESS,  # also the validating insertions
    "tableaux.serialize_rows": WITNESS,
    "tableaux.validate_word": WITNESS,
    "tableaux.yamanouchi_word": UNDER_PINNED,  # the validating insertions
}


def defined_functions() -> set[str]:
    """Every function and method that the package's modules define, named
    as `reach` names them; code nested in a function counts as that function."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return names


def unaccounted(defined: set[str], reached: set[str], pinned: set[str], keep: dict) -> list[str]:
    """What breaks the inventory: a defined function that is not reached,
    pinned, a dunder or kept, and a stale `keep` entry."""
    def dunder(name):
        method = name.rsplit(".", 1)[1]
        return method.startswith("__") and method.endswith("__")

    problems = [
        f"{name}: no check runs it"
        for name in sorted(defined - reached - pinned - set(keep))
        if not dunder(name)
    ]
    for name in sorted(keep):
        if name not in defined:
            problems.append(f"{name}: kept, but no such function")
        elif name in reached or name in pinned:
            problems.append(f"{name}: kept, but reached or pinned")
    return problems


def tracer_names(monkeypatch) -> set[str]:
    tracer = load_tracer(monkeypatch)
    tables = [*tracer.SPANS.values(), tracer.CACHED, READ_DIRECTLY]
    return {f"{owner}.{name}" for table in tables for owner, name in table}


def test_every_function_is_reached_pinned_or_kept(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    statuses = []
    reached = reach(lambda: statuses.extend(cli.main(argv) for argv in RUNS))
    capsys.readouterr()
    assert statuses == [0, 0]
    assert unaccounted(defined_functions(), reached, tracer_names(monkeypatch), KEEP) == []


def test_the_inventory_names_a_stray_function_and_a_stale_entry():
    defined = {"m.run", "m.pinned", "m.kept", "m.stray", "m.Record.__eq__", "m.stale"}
    keep = {"m.kept": OWN_TESTS, "m.stale": WITNESS, "m.gone": WITNESS}
    assert unaccounted(defined, {"m.run", "m.stale"}, {"m.pinned"}, keep) == [
        "m.stray: no check runs it",
        "m.gone: kept, but no such function",
        "m.stale: kept, but reached or pinned",
    ]
