"""Command-line driver: runs verification sweeps and emits human-readable
text or machine-readable JSON reports.

Exit status is 0 when every check passes, 1 when any identity check fails,
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
from dataclasses import dataclass
from math import factorial

from . import identity, involutions
from .identity import VerificationReport
from .partitions import corner_profile, partitions_of
from .tableaux import (
    StandardTableau,
    enumerate_syt,
    enumerate_syt_of_size,
    forward_row_insert_word,
    reverse_row_insert_word,
    rows_of_word,
    serialize_rows,
    yamanouchi_word,
)

CHECKS = (
    "all",
    "theorem1",
    "theorem1prime",
    "lemma1",
    "prop2",
    "prop3",
    "bijection",
    "egf",
    "substitution",
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
        if self.max_n < 0 or self.series_order < 0 or self.trials < 1:
            raise ValueError(
                "max-n and order must be nonnegative and trials at least 1"
            )


def _unit_rng(seed: int, *key) -> random.Random:
    # string seeding is deterministic across processes and platforms
    return random.Random(":".join([str(seed), *map(str, key)]))


def _sweep_shapes(check: str, n: int, per_shape) -> VerificationReport:
    """Run a per-shape verifier over every shape of n, reporting the first
    failure; the aggregate report's duration is the sweep's wall-clock time."""
    started = time.perf_counter()
    for lam in partitions_of(n):
        for rep in per_shape(lam):
            if not rep.passed:
                return VerificationReport(
                    check=check,
                    params={"n": n},
                    verdict="fail",
                    witness=rep.witness,
                    millis=int((time.perf_counter() - started) * 1000),
                )
    return VerificationReport(
        check, {"n": n}, "pass", None, int((time.perf_counter() - started) * 1000)
    )


def _run_lemma1(n: int) -> VerificationReport:
    def per_shape(lam):
        yield identity.verify_lemma1(lam)
        d = len(corner_profile(lam).outer_cells)
        for k in range(1, d + 1):
            yield identity.verify_corner_hooks(lam, k)

    return _sweep_shapes("lemma1", n, per_shape)


def _run_prop2(n: int) -> VerificationReport:
    return _sweep_shapes("prop2", n, lambda lam: [identity.verify_prop2_for_shape(lam)])


def _run_prop3(n: int, trials: int, seed: int) -> VerificationReport:
    started = time.perf_counter()
    for t in range(trials):
        rng = _unit_rng(seed, "prop3", n, t)
        vector = identity.sample_distinct_rationals(rng, n)
        for rep in (
            identity.verify_prop3(vector),
            identity.verify_prop3_residues(vector),
        ):
            if not rep.passed:
                return VerificationReport(
                    "prop3",
                    {"n": n, "trials": trials},
                    "fail",
                    f"trial {t}: {rep.witness}",
                    int((time.perf_counter() - started) * 1000),
                )
    if 2 <= n <= 6:
        rep = identity.verify_prop3_alternating(n)
        if not rep.passed:
            return VerificationReport(
                "prop3",
                {"n": n, "trials": trials},
                "fail",
                rep.witness,
                int((time.perf_counter() - started) * 1000),
            )
    return VerificationReport(
        "prop3",
        {"n": n, "trials": trials},
        "pass",
        None,
        int((time.perf_counter() - started) * 1000),
    )


def _run_bijection(n: int) -> VerificationReport:
    """The row-insertion bijection (SYT(n), corner) <-> (SYT(n-1), letter).

    Both codomains are enumerated once, and the enumeration validates every
    tableau it builds; the insertions run on the Yamanouchi words of those
    validated rows.  Each corner of each P in SYT(n) is deleted once by
    reverse insertion; the resulting word must be the word of an enumerated
    tableau T (checked by lookup), the letter must lie in 1..n, no pair
    (T, letter) may be reached twice, and forward insertion of the pair must
    give back the word of P and the corner.

    No forward-then-reverse pass over SYT(n-1) x [n] is needed.  The checks
    above make corner deletion injective into E x [n], E the validated
    SYT(n-1), and the domain has n|E| elements, so the map is onto.  Every
    pair in E x [n] is thus the image of some (P, corner), and its round trip
    already inserted that pair forward and got (P, corner) back, whose
    reverse insertion is the pair: the second pass would only replay calls.
    """
    from .partitions import removable_cells

    started = time.perf_counter()

    def fail(witness):
        return VerificationReport(
            "bijection", {"n": n}, "fail", witness,
            int((time.perf_counter() - started) * 1000),
        )

    smaller = enumerate_syt_of_size(n - 1)
    index = {yamanouchi_word(tab.rows): i for i, tab in enumerate(smaller)}
    reached = bytearray(n * len(smaller))
    corner_total = 0
    for lam in partitions_of(n):
        corners = removable_cells(lam)
        for tab in enumerate_syt(lam):
            word = yamanouchi_word(tab.rows)
            for cell in corners:
                corner_total += 1
                reduced, letter = reverse_row_insert_word(word, cell)
                if not 1 <= letter <= n:
                    return fail(f"ejected letter {letter} out of range for {tab}")
                i = index.get(reduced)
                if i is None:
                    return fail(_unenumerated_witness(tab, cell, reduced))
                slot = i * n + letter - 1
                if reached[slot]:
                    return fail("corner deletions are not injective")
                reached[slot] = 1
                back, back_cell = forward_row_insert_word(reduced, letter)
                if back != word or back_cell != cell:
                    return fail(
                        f"round trip failed at {tab.serialize()} corner {tuple(cell)}"
                    )
    if corner_total != n * len(smaller):
        return fail(
            f"corner count {corner_total} != n * |SYT(n-1)| = {n * len(smaller)}"
        )
    return VerificationReport(
        "bijection", {"n": n}, "pass", None,
        int((time.perf_counter() - started) * 1000),
    )


def _unenumerated_witness(tab, cell, word) -> str:
    """Why a corner deletion's word is not among the enumerated SYT(n-1)."""
    rows = rows_of_word(word)
    try:
        StandardTableau(rows)
    except ValueError as exc:
        reason = f"not standard: {exc}"
    else:
        reason = "standard but missing from the enumeration"
    return (
        f"deleting corner {tuple(cell)} of {tab.serialize()} "
        f"gave {serialize_rows(rows)!r}, {reason}"
    )


def _run_egf(order: int, trials: int, seed: int) -> VerificationReport:
    started = time.perf_counter()

    def report(verdict, witness):
        return VerificationReport(
            "egf", {"order": order, "trials": trials}, verdict, witness,
            int((time.perf_counter() - started) * 1000),
        )

    for t in range(trials):
        rng = _unit_rng(seed, "egf", t)
        u1, u2 = identity.sample_distinct_rationals(rng, 2, 100, 50)
        if not involutions.verify_involution_egf(order, u1, u2):
            return report("fail", f"trial {t}: u1={u1}, u2={u2}")
    witness = _egf_kronecker_witness(order)
    return report("fail" if witness else "pass", witness)


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


def build_units(cfg: RunConfig) -> list:
    """Closures for every unit of work the selector asks for."""
    units = []

    def want(name):
        return cfg.check in ("all", name)

    if want("theorem1prime"):
        for n in range(cfg.max_n + 1):
            units.append(lambda n=n: identity.verify_theorem1prime(n))
    if want("theorem1"):
        units.append(lambda: identity.verify_theorem1(cfg.series_order))
    if want("lemma1"):
        for n in range(cfg.max_n + 1):
            units.append(lambda n=n: _run_lemma1(n))
    if want("prop2"):
        for n in range(cfg.max_n + 1):
            units.append(lambda n=n: _run_prop2(n))
    if want("prop3"):
        for n in range(1, cfg.max_n + 1):
            units.append(lambda n=n: _run_prop3(n, cfg.trials, cfg.seed))
    if want("bijection"):
        for n in range(1, cfg.max_n + 1):
            units.append(lambda n=n: _run_bijection(n))
    if want("egf"):
        units.append(lambda: _run_egf(cfg.series_order, cfg.trials, cfg.seed))
    if want("substitution"):
        for n in range(1, cfg.max_n + 1):
            units.append(lambda n=n: identity.verify_weight_substitution(n))
    return units


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
    """Execute the configured checks; returns the process exit status."""
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
    output = _report_json(reports) if cfg.fmt == "json" else _report_text(reports)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookforge",
        description="Exact verification of hook expansion identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification sweeps")
    verify.add_argument("check", choices=CHECKS, help="which identity to check")
    verify.add_argument("--max-n", type=int, default=10, dest="max_n")
    verify.add_argument("--order", type=int, default=10, dest="series_order")
    verify.add_argument("--trials", type=int, default=5)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    verify.add_argument("--out", default=None, help="write the report to PATH")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            check=args.check,
            max_n=args.max_n,
            series_order=args.series_order,
            trials=args.trials,
            seed=args.seed,
            fmt=args.fmt,
            out=args.out,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
