"""Command-line driver: runs verification sweeps and emits human-readable
text or machine-readable JSON reports.

Each check is one entry of `REGISTRY`: a parameter sweep over the run
configuration and a runner that yields what each of its exact checks returns,
None where the check holds and a witness string where it fails (the
`identity.verify_*` functions follow the same convention).  A `Unit` is one
check at one point of its sweep, and calling it is the only place a
`VerificationReport` is built and timed: the first witness fails the unit.
A unit whose runner raises reports the verdict `error`, with the exception as
its witness, and the other units still run.

Exit status is 0 when every check passes, 1 when any check fails or errors,
and 2 on usage errors.  With equal configuration (including the seed) the
JSON report is byte-identical across runs; timings therefore appear as null
in JSON and are only shown in the text format and the stderr progress lines.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from . import identity, involutions, partitions
from .partitions import corner_profile, partitions_of
from .tableaux import (
    StandardTableau,
    forward_row_insert_words,
    lattice_words,
    reverse_row_insert_words,
    rows_of_word,
    serialize_rows,
    validate_word,
)

@dataclass
class RunConfig:
    check: str
    max_n: int = 10
    series_order: int = 10
    trials: int = 5
    seed: int = 0
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self):
        if self.check not in CHECKS:
            raise ValueError(f"unknown check selector: {self.check}")
        if self.fmt not in ("text", "json"):
            raise ValueError(f"unknown report format: {self.fmt}")
        if self.max_n < 0 or self.series_order < 0 or self.trials < 1:
            raise ValueError(
                "max-n and order must be nonnegative and trials at least 1"
            )


def _unit_rng(seed: int, *key) -> random.Random:
    # string seeding is deterministic across processes and platforms
    return random.Random(":".join([str(seed), *map(str, key)]))


# A runner takes a unit's seed and params and yields what each of its checks
# returns: None where the check holds, else the failure's witness.  The first
# witness fails the unit, and the runner is not resumed after it.
def _lemma1(seed: int, n: int) -> Iterator[str | None]:
    for lam in partitions_of(n):
        yield identity.verify_lemma1(lam)
        d = len(corner_profile(lam).outer_cells)
        for k in range(1, d + 1):
            yield identity.verify_corner_hooks(lam, k)


def _prop2(seed: int, n: int) -> Iterator[str | None]:
    for lam in partitions_of(n):
        yield identity.verify_prop2_for_shape(lam)


def _prop3(seed: int, n: int, trials: int) -> Iterator[str | None]:
    for t in range(trials):
        rng = _unit_rng(seed, "prop3", n, t)
        vector = identity.sample_distinct_rationals(rng, n)
        for witness in (
            identity.verify_prop3(vector),
            identity.verify_prop3_residues(vector),
        ):
            if witness is not None:
                yield f"trial {t}: {witness}"
    # seed-independent: one exact value proves this n (see identity.verify_prop3)
    witness = identity.verify_prop3(list(range(1, n + 1)))
    if witness is not None:
        yield f"proof point a_i = i: {witness}"
    if 2 <= n <= 6:
        yield identity.verify_prop3_alternating(n)


def _bijection(seed: int, n: int) -> Iterator[str]:
    """The row-insertion bijection (SYT(n), corner) <-> (SYT(n-1), letter).

    Both codomains are enumerated once, as Yamanouchi words grouped by shape,
    and every word is validated once, before any insertion runs, by a check
    that shares no code with the enumerator.  Each corner of each P in
    SYT(n) is deleted once by reverse insertion; the resulting word must be
    the word of an enumerated tableau T (checked by lookup), the letter must
    lie in 1..n, no pair (T, letter) may be reached twice, and forward
    insertion of the pair must give back the word of P and the corner.  The
    insertions run one corner of one shape at a time, over all the words of
    that shape; the pairs are checked one by one, and the round trip is
    walked pair by pair only when the batch differs somewhere.

    No forward-then-reverse pass over SYT(n-1) x [n] is needed.  The checks
    above make corner deletion injective into E x [n], E the validated
    SYT(n-1), and the domain has n|E| elements, so the map is onto.  Every
    pair in E x [n] is thus the image of some (P, corner), and its round trip
    already inserted that pair forward and got (P, corner) back, whose
    reverse insertion is the pair: the second pass would only replay calls.
    """
    smaller, larger = lattice_words(n)
    for groups in (smaller, larger):
        for lam, words in groups.items():
            for word in words:
                try:
                    validate_word(word, lam)
                except ValueError as exc:
                    yield _invalid_word_witness(word, lam, exc)
                    return
    flat = list(chain.from_iterable(smaller.values()))
    index = {word: i for i, word in enumerate(flat)}
    size = len(flat)
    reached = bytearray(n * size)
    corner_total = 0
    for lam, words in larger.items():
        for cell in partitions.removable_cells(lam):
            corner_total += len(words)
            reduced, letters = reverse_row_insert_words(words, cell)
            kept = []  # the positions whose deletion was looked up
            for k, (small, letter) in enumerate(zip(reduced, letters)):
                if not 1 <= letter <= n:
                    yield f"ejected letter {letter} out of range for {_rows_text(words[k])}"
                    continue
                i = index.get(small)
                if i is None:
                    yield _unenumerated_witness(words[k], cell, small)
                    continue
                slot = i * n + letter - 1
                if reached[slot]:
                    yield "corner deletions are not injective"
                reached[slot] = 1
                kept.append(k)
            domain = words
            if len(kept) < len(words):
                domain, reduced, letters = (
                    [seq[k] for k in kept] for seq in (words, reduced, letters)
                )
            grown, cells = forward_row_insert_words(reduced, letters)
            if grown != domain or cells.count(cell) != len(cells):
                for word, back, back_cell in zip(domain, grown, cells):
                    if back != word or back_cell != cell:
                        yield f"round trip failed at {_rows_text(word)} corner {tuple(cell)}"
    if corner_total != n * size:
        yield f"corner count {corner_total} != n * |SYT(n-1)| = {n * size}"


def _rows_text(word: bytes) -> str:
    """The rows a word describes, written as `StandardTableau.serialize` does."""
    return serialize_rows(rows_of_word(word))


def _invalid_word_witness(word, lam, exc) -> str:
    """Why an enumerated word is not the word of a standard tableau of lam."""
    try:
        shown = repr(_rows_text(word))
    except ValueError:  # a 0 byte names no row
        shown = f"bytes {list(word)}"
    return f"enumerated rows {shown} are not a standard tableau of shape {lam}: {exc}"


def _unenumerated_witness(word, cell, reduced) -> str:
    """Why a corner deletion's word is not among the enumerated SYT(n-1)."""
    rows = rows_of_word(reduced)
    try:
        StandardTableau(rows)
    except ValueError as exc:
        reason = f"not standard: {exc}"
    else:
        reason = "standard but missing from the enumeration"
    return (
        f"deleting corner {tuple(cell)} of {_rows_text(word)} "
        f"gave {serialize_rows(rows)!r}, {reason}"
    )


def _egf(seed: int, order: int, trials: int) -> Iterator[str | None]:
    for t in range(trials):
        rng = _unit_rng(seed, "egf", t)
        u1, u2 = identity.sample_distinct_rationals(rng, 2, 100, 50)
        if not involutions.verify_involution_egf(order, u1, u2):
            yield f"trial {t}: u1={u1}, u2={u2}"
    yield _egf_kronecker_witness(order)


def _egf_kronecker_witness(order: int) -> str | None:
    """Prove the egf identity for every n <= order at one integer point.

    D_n = n! [t^n] exp(u1 t + u2 t^2/2) - g_n(u1, u2) is an integer
    polynomial: both parts have nonnegative integer coefficients summing to
    the involution number I(n) <= n!, so its coefficients are at most order!
    in absolute value.  Its u1-degree is at most order, so u1 = x0,
    u2 = x0^(order+1) sends distinct monomials to distinct powers of x0, and
    by Cauchy's bound D_n(x0, x0^(order+1)) = 0 at x0 = order! + 2 proves
    D_n = 0.  Returns None when the identity holds, else a witness.
    """
    x0 = factorial(order) + 2
    if involutions.verify_involution_egf(order, x0, x0 ** (order + 1)):
        return None
    return f"Kronecker point u1=x0={x0}, u2=x0^{order + 1}: coefficients differ"


class Check(NamedTuple):
    """A check's parameter sweep over the run configuration, and its runner."""

    sweep: Callable[[RunConfig], list[dict]]
    run: Callable[..., Iterable[str | None]]


def _each_n(first: int) -> Callable[[RunConfig], list[dict]]:
    return lambda cfg: [{"n": n} for n in range(first, cfg.max_n + 1)]


# Insertion order is the order in which `verify all` runs the checks.
REGISTRY = {
    "theorem1prime": Check(
        _each_n(0), lambda seed, n: [identity.verify_theorem1prime(n)]
    ),
    "theorem1": Check(
        lambda cfg: [{"order": cfg.series_order}],
        lambda seed, order: [identity.verify_theorem1(order)],
    ),
    "lemma1": Check(_each_n(0), _lemma1),
    "prop2": Check(_each_n(0), _prop2),
    "prop3": Check(
        lambda cfg: [{"n": n, "trials": cfg.trials} for n in range(1, cfg.max_n + 1)],
        _prop3,
    ),
    "bijection": Check(_each_n(1), _bijection),
    "egf": Check(
        lambda cfg: [{"order": cfg.series_order, "trials": cfg.trials}], _egf
    ),
    "substitution": Check(
        _each_n(1), lambda seed, n: [identity.verify_weight_substitution(n)]
    ),
}

CHECKS = ("all", *REGISTRY)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one unit: its verdict (`pass`, `fail` or `error`), the
    witness of a failure or error, and its wall-clock milliseconds."""

    check: str
    params: dict
    verdict: str
    witness: str | None
    millis: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class Unit:
    """One check at one point of its sweep; calling it runs the check."""

    check: str
    params: dict
    seed: int = 0

    def __call__(self) -> VerificationReport:
        """The unit's report, timed by wall clock: the first witness (value
        other than None) the runner yields fails it, and an exception makes
        it `error` (its traceback goes to stderr)."""
        started = time.perf_counter()
        verdict, witness = "pass", None
        try:
            for witness in REGISTRY[self.check].run(self.seed, **self.params):
                if witness is not None:
                    verdict = "fail"
                    break
        except Exception as exc:
            import traceback  # only on this path: it costs start-up time and memory

            traceback.print_exc()
            verdict, witness = "error", f"{type(exc).__name__}: {exc}"
        return VerificationReport(
            self.check, self.params, verdict, witness,
            int((time.perf_counter() - started) * 1000),
        )


def build_units(cfg: RunConfig) -> list[Unit]:
    """Every unit of work the selector asks for, in run order."""
    return [
        Unit(check, params, cfg.seed)
        for check, entry in REGISTRY.items()
        if cfg.check in ("all", check)
        for params in entry.sweep(cfg)
    ]


def _params_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


def _report_json(reports: list[VerificationReport]) -> str:
    payload = [
        {
            "check": r.check,
            "params": r.params,
            "verdict": r.verdict,
            "witness": r.witness,
            # timings vary run to run and would break byte-for-byte
            # reproducibility of the report, so they are not serialized
            "millis": None,
        }
        for r in reports
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_text(reports: list[VerificationReport]) -> str:
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        line = f"{r.verdict.upper():4s} {r.check} {params} ({r.millis} ms)"
        if r.witness:
            line += f"\n     witness: {r.witness}"
        lines.append(line)
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig) -> int:
    """Execute the configured checks; returns the process exit status.

    The report file is opened before any unit runs, so a path that cannot be
    written is a usage error (status 2), not a sweep that ends without a
    report."""
    try:
        sink = open(cfg.out, "w", encoding="utf-8") if cfg.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write report to {cfg.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with sink as fh:
        reports = []
        for unit in build_units(cfg):
            rep = unit()
            print(
                f"[{rep.check} {_params_key(rep.params)}] {rep.verdict} ({rep.millis} ms)",
                file=sys.stderr,
            )
            reports.append(rep)
        # sorted on actual parameter values, so n=2 precedes n=10
        reports.sort(key=lambda r: (r.check, sorted(r.params.items())))
        fh.write(_report_json(reports) if cfg.fmt == "json" else _report_text(reports))
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookforge",
        description="Exact verification of hook expansion identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an option left out stays out of the namespace, so RunConfig's field
    # defaults are the only ones
    verify = sub.add_parser(
        "verify", help="run verification sweeps", argument_default=argparse.SUPPRESS
    )
    verify.add_argument("check", choices=CHECKS, help="which identity to check")
    verify.add_argument("--max-n", type=int, dest="max_n")
    verify.add_argument("--order", type=int, dest="series_order")
    verify.add_argument("--trials", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--format", choices=("text", "json"), dest="fmt")
    verify.add_argument("--out", help="write the report to PATH")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    del args["command"]
    try:
        cfg = RunConfig(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
