"""hookforge benchmark: one `hookforge verify` workload, timed end to end.

    python3 perfbench/run.py --workload mixed_all --seed 0 --seconds 60 --trace 0

Run from anywhere inside a source checkout; nothing needs to be built.  Every
repetition is a fresh `python -m hookforge verify ... --format json` process,
because a CLI user pays interpreter start-up, imports and cold `@cache`s on
every run.  The benchmark

- makes one untimed warm-up run, so the bytecode cache exists as it does for
  users;
- repeats the workload, at least MIN_REPS times, for as many repetitions as
  fit in --seconds, timing each from spawn to exit (`wall_s`) and reading its
  peak resident set with `os.wait4` (`peak_rss_mb`);
- after each repetition, times SETUP_PER_REP fresh interpreters that import
  `hookforge.cli` and build the workload's units without running them
  (`setup_s`, at least MIN_SETUP_SAMPLES samples);
- gates every repetition against the records the workload must produce
  (see workloads.py);
- with --trace 1, also runs the workload once under the tracer (tracer.py)
  and reports the per-layer split instead of the end-to-end metrics.

Every sample and the run record go to perfbench/runs/; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import ROOT, RUNS, SRC, WORKLOADS, failed_units

MIN_REPS = 3
SETUP_PER_REP = 2
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 100

SETUP_CODE = (
    "from hookforge.cli import RunConfig, build_units\n"
    "print(len(build_units(RunConfig(**{config!r}))))\n"
)


def child_env() -> dict:
    """The caller's environment, except that the CLI runs single-threaded,
    imports from src/, and may write its bytecode cache as installs do."""
    env = dict(os.environ)
    env.pop("HOOKFORGE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], tag: str) -> dict:
    """Run `python <args>` to completion; wall time from spawn to exit,
    exit code, peak RSS and the bytes it wrote to stdout."""
    RUNS.mkdir(exist_ok=True)
    out_path, err_path = RUNS / f"{tag}.stdout", RUNS / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "stdout": out_path.read_bytes(),
        "stderr_tail": err_path.read_text(errors="replace")[-2000:],
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, if it has any (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_record(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version,
        "executable": sys.executable,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "child_env": {
            key: child_env().get(key)
            for key in ("HOOKFORGE_THREADS", "PYTHONPATH", "PYTHONHASHSEED",
                        "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")
        },
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """All samples of one run, and the gate's verdict on them."""
    expected = workload.expected_keys()
    cli_args = ["-m", "hookforge", *workload.argv(seed)]
    problems: list[str] = []

    warm = spawn(["-m", "hookforge", "verify", "theorem1", "--order", "0"], "warmup")
    if warm["exit"] != 0:
        problems.append(f"warm-up run exited {warm['exit']}: {warm['stderr_tail']}")

    code = SETUP_CODE.format(config=workload.run_config(seed))
    setup: list[float] = []
    reps: list[dict] = []
    reference = None

    def set_up():
        s = spawn(["-c", code], "setup")
        built = s["stdout"].strip()
        if s["exit"] != 0 or built != str(len(expected)).encode():
            problems.append(f"setup built {built!r} units, exit {s['exit']}")
        setup.append(s["wall_s"])

    # Set-up samples are interleaved with the repetitions so that both
    # medians see the same stretch of machine time.  A repetition is started
    # only if it is expected to end within the measured window.
    begun = time.perf_counter()
    while True:
        r = spawn(cli_args, "rep")
        if reference is None:
            reference = r["stdout"]
        bad = failed_units(expected, r["stdout"], r["exit"], reference)
        if r["exit"] != 0:
            problems.append(f"rep {len(reps)} exited {r['exit']}: {r['stderr_tail']}")
        reps.append(
            {"wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"], "failed": len(bad)}
        )
        for _ in range(SETUP_PER_REP):
            set_up()
        elapsed = time.perf_counter() - begun
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        set_up()

    result = {"setup_s": setup, "reps": reps, "problems": problems,
              "units": len(expected), "report": reference}
    if trace:
        report, spans = RUNS / f"trace-{workload.name}.json", RUNS / f"trace-{workload.name}.spans"
        report.unlink(missing_ok=True)
        t = spawn(
            [str(Path(__file__).with_name("tracer.py")), "--workload", workload.name,
             "--seed", str(seed), "--report", str(report), "--spans", str(spans)],
            "trace",
        )
        traced = {"wall_s": t["wall_s"], "exit": t["exit"], "peak_rss_mb": t["peak_rss_mb"]}
        try:
            out = json.loads(t["stdout"].splitlines()[-1])
            traced_report = report.read_bytes()
        except (ValueError, IndexError, OSError):
            problems.append(f"traced run failed, exit {t['exit']}: {t['stderr_tail']}")
            out, traced_report = {"status": 1, "metrics": {}}, b""
        bad = failed_units(expected, traced_report, out["status"], reference)
        traced.update(failed=len(bad), metrics=out["metrics"])
        result["traced"] = traced
    return result


def metrics_of(result: dict, trace: bool) -> dict:
    walls = [r["wall_s"] for r in result["reps"]]
    if not trace:
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(result["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in result["reps"]), "MB"),
        }
    traced = result["traced"]
    m = {k: tuple(v) for k, v in traced["metrics"].items()}
    postprocess = m.pop("trace.postprocess_s", (0.0, "s"))[0]
    m["trace.overhead_s"] = (traced["wall_s"] - postprocess - statistics.median(walls), "s")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure and gate one run, write its record to runs/, return it."""
    record = run_record(name, seed, seconds, trace)
    result = measure(WORKLOADS[name], seed, seconds, trace)
    attempted = result["units"] * len(result["reps"])
    failed = sum(r["failed"] for r in result["reps"])
    if trace:
        attempted += result["units"]
        failed += result["traced"]["failed"]
    record.update(
        samples={k: v for k, v in result.items() if k != "report"},
        correct=failed == 0 and not result["problems"],
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics_of(result, trace).items()},
    )
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record["file"] = f"{stamp}-{name}-seed{seed}-trace{int(trace)}.json"
    (RUNS / record["file"]).write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one hookforge CLI workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hookforge" / "cli.py").is_file():
        print(f"error: no hookforge sources under {SRC}", file=sys.stderr)
        return 2
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    samples = rec["samples"]
    print(f"workload {args.workload} seed {args.seed}: record runs/{rec['file']}")
    print(f"  wall_s samples ({len(samples['reps'])}): "
          + " ".join(f"{r['wall_s']:.4f}" for r in samples["reps"]))
    print(f"  setup_s samples ({len(samples['setup_s'])}): "
          + " ".join(f"{s:.4f}" for s in samples["setup_s"]))
    print(f"  failed_frac = {rec['failed']}/{rec['attempted']} = {rec['failed_frac']:.4f}")
    for problem in samples["problems"]:
        print(f"  problem: {problem}")
    for key, m in rec["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
