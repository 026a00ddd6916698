"""Workload definitions and the correctness gate shared by the benchmark
scripts.

Each workload is one `hookforge verify` invocation.  The records a run must
produce are derived here from the workload's own parameters (the sweep
ranges documented for each check), never from the program's output, so a
report that drops, adds or fails a unit is caught.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"


@dataclass(frozen=True)
class Workload:
    name: str
    check: str
    max_n: int = 10
    order: int = 10
    trials: int = 5
    seeded: bool = False

    def argv(self, seed: int) -> list[str]:
        """Arguments after `hookforge`; seed-free workloads ignore the seed."""
        out = ["verify", self.check, "--max-n", str(self.max_n)]
        out += ["--order", str(self.order), "--trials", str(self.trials)]
        if self.seeded:
            out += ["--seed", str(seed)]
        return out + ["--format", "json"]

    def run_config(self, seed: int) -> dict:
        """Keyword arguments of `hookforge.cli.RunConfig` for this workload."""
        return {
            "check": self.check,
            "max_n": self.max_n,
            "series_order": self.order,
            "trials": self.trials,
            "seed": seed if self.seeded else 0,
            "fmt": "json",
        }

    def expected_keys(self) -> list[tuple[str, str]]:
        """(check, params as canonical JSON) of every record the report must
        hold, each with verdict `pass`."""
        def want(name):
            return self.check in ("all", name)

        recs: list[tuple[str, dict]] = []
        if want("theorem1prime"):
            recs += [("theorem1prime", {"n": n}) for n in range(self.max_n + 1)]
        if want("theorem1"):
            recs.append(("theorem1", {"order": self.order}))
        if want("lemma1"):
            recs += [("lemma1", {"n": n}) for n in range(self.max_n + 1)]
        if want("prop2"):
            recs += [("prop2", {"n": n}) for n in range(self.max_n + 1)]
        if want("prop3"):
            recs += [
                ("prop3", {"n": n, "trials": self.trials})
                for n in range(1, self.max_n + 1)
            ]
        if want("bijection"):
            recs += [("bijection", {"n": n}) for n in range(1, self.max_n + 1)]
        if want("egf"):
            recs.append(("egf", {"order": self.order, "trials": self.trials}))
        if want("substitution"):
            recs += [("substitution", {"n": n}) for n in range(1, self.max_n + 1)]
        return [(c, json.dumps(p, sort_keys=True)) for c, p in recs]


# Why each workload is here is recorded in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed_all", "all", max_n=10, seeded=True),
        Workload("q_factored", "theorem1prime", max_n=24),
        Workload("z_generic", "theorem1", order=14),
        Workload("prop3_sample", "prop3", max_n=60, trials=1, seeded=True),
    )
}


def failed_units(
    expected: list[tuple[str, str]], report: bytes, exit_code: int, reference: bytes
) -> set[tuple[str, str]]:
    """Expected units that count as failed in one repetition.

    A unit fails if the run exited nonzero, if the report differs by a byte
    from the reference repetition's, if the report is not a list of records
    matching the expectation one to one, or if its own record is missing or
    not `pass`.
    """
    if exit_code != 0 or report != reference:
        return set(expected)
    try:
        records = json.loads(report)
        got = {}
        for r in records:
            key = (r["check"], json.dumps(r["params"], sort_keys=True))
            if key in got:
                return set(expected)  # a duplicated record
            got[key] = r["verdict"]
    except (ValueError, TypeError, KeyError):
        return set(expected)
    if not set(got) <= set(expected):
        return set(expected)  # records nobody asked for
    return {k for k in expected if got.get(k) != "pass"}
