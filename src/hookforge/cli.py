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

A `Unit` is one check at one point of its sweep, and calling it times it and
builds its `VerificationReport`: the first witness fails the unit.  A unit
whose runner raises reports the verdict `error`, with the exception as its
witness, and the other units still run.  Every report, wherever its unit ran,
is built by `_report`.

The units are independent, so `run` hands them to one forked worker per
usable CPU (`_run_forked`), using only `os.fork`, `os.pipe` and `select`.  A
worker runs the parent's own `Unit` objects, inherited at fork: it takes one
unit at a time as its index in the list, and answers with its report's
verdict, witness and milliseconds as one JSON line.  A forked child starts on
its parent's CPU, so each worker first moves onto a CPU of its own and then
restores the affinity mask it inherited.  Units are handed out from the end
of the list, so each sweep's largest point starts first.  The parent prints
each progress line as its report arrives, then sorts and writes the report as
a serial run would, so only the order of the stderr lines varies.  A worker
that dies while it holds a unit turns that unit into an `error` record whose
witness starts `ChildProcessError:` and names the exit status or signal; a
new worker takes its place and its CPU while units remain.  Every worker
leaves through `os._exit`, and the parent reaps every worker before `run`
returns or raises.  The CLI process starts no thread, so forking it is safe.
The units run in process instead with one usable CPU, a single unit, no
`os.fork`, or a unit that is not a `Unit` record (a tracer's wrapped unit
must record its spans in this process).

Exit status is 0 when every check passes, 1 when any check fails or errors,
and 2 on usage errors, a size beyond what a check's kernel takes among them.
With equal configuration (including the seed) the JSON report is
byte-identical across runs; timings therefore appear as null in JSON and are
only shown in the text format and the stderr progress lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext, suppress
from typing import Callable, Iterable, NamedTuple

from . import _records, identity, partitions, tableaux


class _RunConfigFields(NamedTuple):
    check: str
    max_n: int = 10
    series_order: int = 10
    trials: int = 5
    seed: int = 0
    fmt: str = "text"
    out: str | None = None


class RunConfig(_records.Validated, _RunConfigFields):
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
        for check, option, size, most in (  # the largest size each kernel takes
            ("theorem1prime", "--max-n", self.max_n, partitions.MAX_HOOK),
            ("theorem1", "--order", self.series_order, partitions.MAX_HOOK),
            ("bijection", "--max-n", self.max_n, tableaux.MAX_ROWS),
        ):
            if self.check in ("all", check) and size > most:
                raise ValueError(f"{check} takes {option} up to {most}, the most its kernel takes")
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
        return _report(self, verdict, witness, int((time.perf_counter() - started) * 1000))


def _report(unit: Unit, verdict: str, witness: str | None, millis: int) -> VerificationReport:
    """`unit`'s report: the one place a report is built, whether the unit ran
    in process, in a worker, or died with its worker."""
    return VerificationReport(unit.check, unit.params, verdict, witness, millis)


def build_units(cfg: RunConfig) -> list[Unit]:
    """Every unit of work the selector asks for, in run order."""
    return [
        Unit(check, params, cfg.seed)
        for check, entry in REGISTRY.items()
        if cfg.check in ("all", check)
        for params in entry.sweep(cfg)
    ]


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


def _progress(rep: VerificationReport) -> VerificationReport:
    """Print `rep`'s progress line to stderr; returns `rep`."""
    print(
        f"[{rep.check} {json.dumps(rep.params, sort_keys=True)}] {rep.verdict} ({rep.millis} ms)",
        file=sys.stderr,
    )
    return rep


def _worker_cpus(units: list) -> list[int]:
    """The start CPU of each forked worker: the usable CPUs, at most one per
    unit.  Fewer than two means in process: without `os.fork`, or when a unit
    is not a `Unit`, as a tracer's wrapped unit records spans in this process."""
    if not hasattr(os, "fork") or not all(isinstance(u, Unit) for u in units):
        return []
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    else:  # a platform without CPU affinity
        cpus = list(range(os.cpu_count() or 1))
    return cpus[: len(units)]


class _Worker:
    """A forked worker: its pid and start CPU, the parent's ends of its task
    and result pipes, and the unit it holds with the `perf_counter` reading
    when that unit's index was sent."""

    __slots__ = ("pid", "cpu", "tasks", "results", "unit", "sent")

    def __init__(self, pid: int, cpu: int, tasks: int, results: int):
        self.pid, self.cpu, self.tasks, self.results = pid, cpu, tasks, open(results, "rb")
        self.unit = self.sent = None

    def dispatch(self, pending: list[tuple[int, Unit]]) -> None:
        """Send the index of the last pending unit, or close the task pipe,
        which ends the worker, when none is left."""
        if not pending:
            self.unit = None
            self.close_tasks()
            return
        (index, self.unit), self.sent = pending.pop(), time.perf_counter()
        try:
            os.write(self.tasks, b"%d\n" % index)
        except BrokenPipeError:
            pass  # the worker is gone; the end of its result pipe reports the unit

    def close_tasks(self) -> None:
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None

    def reap(self, kill: bool = False) -> int:
        """Close the parent's pipe ends, stop the worker if `kill`, and wait
        for it to exit; returns its wait status."""
        self.close_tasks()
        self.results.close()
        if kill:
            import signal  # only on this path: the CLI needs it nowhere else

            os.kill(self.pid, signal.SIGKILL)
        return os.waitpid(self.pid, 0)[1]


def _fork_worker(pool: dict[int, _Worker], units: list[Unit], cpu: int) -> _Worker:
    """Fork a worker that starts on `cpu`; add it to `pool`, keyed by its result pipe."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            # start on `cpu`, then give back the inherited mask; a worker
            # that cannot set its affinity stays on its parent's CPU
            with suppress(AttributeError, OSError):
                mask = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {cpu})
                os.sched_setaffinity(0, mask)
            os.close(task_w)
            os.close(result_r)
            # other workers' pipes stay open only in the parent, so each
            # worker sees its own task pipe close
            for other in pool.values():
                other.close_tasks()
                other.results.close()
            _serve(units, task_r, result_w)
            sys.stderr.flush()
            status = 0
        finally:
            os._exit(status)  # never return into the CLI
    os.close(task_r)
    os.close(result_w)
    worker = pool[result_r] = _Worker(pid, cpu, task_w, result_r)
    return worker


def _serve(units: list[Unit], task_fd: int, result_fd: int) -> None:
    """A worker's loop: for each index line, run that unit of `units` and
    write its verdict, witness and millis as one line; returns when the task
    pipe closes."""
    with open(task_fd, "rb") as tasks, open(result_fd, "wb") as results:
        for line in tasks:
            rep = units[int(line)]()
            results.write(json.dumps([rep.verdict, rep.witness, rep.millis]).encode() + b"\n")
            results.flush()


def _died(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
    return f"ChildProcessError: the worker running this unit {how}"


def _run_forked(units: list[Unit], cpus: list[int]) -> list[VerificationReport]:
    """The reports of `units`, run on one forked worker per CPU in `cpus`;
    each progress line is printed as its report arrives."""
    import select  # only here: the in-process path never loads it

    pending = list(enumerate(units))
    reports = []
    pool: dict[int, _Worker] = {}
    try:
        for cpu in cpus:
            _fork_worker(pool, units, cpu).dispatch(pending)
        while pool:
            for fd in select.select(list(pool), [], [])[0]:
                worker = pool[fd]
                line = worker.results.readline()
                if line.endswith(b"\n"):
                    verdict, witness, millis = json.loads(line)
                    reports.append(_progress(_report(worker.unit, verdict, witness, millis)))
                    worker.dispatch(pending)
                    continue
                # the result pipe ended, so the worker has exited
                status = worker.reap()
                del pool[fd]
                if worker.unit is not None:
                    millis = int((time.perf_counter() - worker.sent) * 1000)
                    reports.append(_progress(_report(worker.unit, "error", _died(status), millis)))
                    if pending:
                        _fork_worker(pool, units, worker.cpu).dispatch(pending)
    finally:
        for worker in pool.values():
            worker.reap(kill=True)
    return reports


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
        units = build_units(cfg)
        cpus = _worker_cpus(units)
        if len(cpus) > 1:
            reports = _run_forked(units, cpus)
        else:
            reports = [_progress(unit()) for unit in units]
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
