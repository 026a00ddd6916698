"""Command-line driver: runs verification sweeps and emits human-readable
text or machine-readable JSON reports.

Each check is one entry of `REGISTRY`: a parameter sweep over the run
configuration and a runner that yields what each of its exact checks returns,
None where the check holds and a witness string where it fails.  The proofs
live in the modules they check, under the same convention: the `verify_*`
functions of `identity`, `tableaux.verify_bijection`, and the sweeps
`identity.lemma1_checks`, `prop2_checks`, `prop3_checks` and `egf_checks`
(which ends in `involutions.verify_egf_kronecker`).  A runner here only
adapts one of them to the signature (seed, **params).

A `Unit` is one check at one point of its sweep, and calling it is the only
place a `VerificationReport` is built and timed: the first witness fails the
unit.  A unit whose runner raises reports the verdict `error`, with the
exception as its witness, and the other units still run.

Exit status is 0 when every check passes, 1 when any check fails or errors,
and 2 on usage errors.  With equal configuration (including the seed) the
JSON report is byte-identical across runs; timings therefore appear as null
in JSON and are only shown in the text format and the stderr progress lines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from typing import Callable, Iterable, NamedTuple

from . import identity, tableaux


class _RunConfigFields(NamedTuple):
    check: str
    max_n: int = 10
    series_order: int = 10
    trials: int = 5
    seed: int = 0
    fmt: str = "text"
    out: str | None = None


class RunConfig(_RunConfigFields):
    """One run's options, validated on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.check not in CHECKS:
            raise ValueError(f"unknown check selector: {self.check}")
        if self.fmt not in ("text", "json"):
            raise ValueError(f"unknown report format: {self.fmt}")
        if self.max_n < 0 or self.series_order < 0 or self.trials < 1:
            raise ValueError(
                "max-n and order must be nonnegative and trials at least 1"
            )
        return self


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
    "lemma1": Check(_each_n(0), lambda seed, n: identity.lemma1_checks(n)),
    "prop2": Check(_each_n(0), lambda seed, n: identity.prop2_checks(n)),
    "prop3": Check(
        lambda cfg: [{"n": n, "trials": cfg.trials} for n in range(1, cfg.max_n + 1)],
        identity.prop3_checks,
    ),
    "bijection": Check(_each_n(1), lambda seed, n: [tableaux.verify_bijection(n)]),
    "egf": Check(
        lambda cfg: [{"order": cfg.series_order, "trials": cfg.trials}],
        identity.egf_checks,
    ),
    "substitution": Check(
        _each_n(1), lambda seed, n: [identity.verify_weight_substitution(n)]
    ),
}

CHECKS = ("all", *REGISTRY)


class VerificationReport(NamedTuple):
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


class Unit(NamedTuple):
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
