"""Shows that the benchmark's correctness gate can fail.

    python3 perfbench/selftest.py

Runs one small real `hookforge verify all` report through the gate
(`workloads.failed_units`) unchanged and with injected faults: a flipped
verdict, a dropped record, an extra record, a duplicated record, a report
that is not JSON, a nonzero exit, and a repetition that is not
byte-identical to the first.  Each fault must count as failed units; the
clean report must count none.  Exits 1 if any case comes out otherwise.
"""

from __future__ import annotations

import json
import sys

from run import spawn
from workloads import Workload, failed_units


def _dump(records) -> bytes:
    # the CLI's own serialization, so only the injected change differs
    return (json.dumps(records, indent=2, sort_keys=True) + "\n").encode()


def main() -> int:
    small = Workload("selftest", "all", max_n=3, order=3, trials=1, seeded=True)
    expected = small.expected_keys()
    run = spawn(["-m", "hookforge", *small.argv(7)], "selftest")
    clean = run["stdout"]
    records = json.loads(clean)
    if _dump(records) != clean:
        print("FAIL the CLI report does not round-trip through json")
        return 1

    flipped = [dict(r) for r in records]
    flipped[3]["verdict"] = "fail"
    dropped = records[:5] + records[6:]
    extra = records + [dict(records[0], check="nonsense")]
    duplicated = records + [records[0]]
    everything = len(expected)

    # (case, report, exit code, reference report, expected failed units)
    cases = [
        ("clean report", clean, run["exit"], clean, 0),
        ("flipped verdict, first repetition", _dump(flipped), 0, _dump(flipped), 1),
        ("dropped record, first repetition", _dump(dropped), 0, _dump(dropped), 1),
        ("flipped verdict, later repetition", _dump(flipped), 0, clean, everything),
        ("dropped record, later repetition", _dump(dropped), 0, clean, everything),
        ("extra record", _dump(extra), 0, _dump(extra), everything),
        ("duplicated record", _dump(duplicated), 0, _dump(duplicated), everything),
        ("report is not JSON", b"Traceback ...\n", 0, b"Traceback ...\n", everything),
        ("nonzero exit", clean, 1, clean, everything),
    ]
    ok = run["exit"] == 0
    print(f"{'PASS' if ok else 'FAIL'} the small CLI run exits 0 ({run['exit']})")
    for name, report, code, reference, want in cases:
        got = len(failed_units(expected, report, code, reference))
        good = got == want
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: {got} of {everything} units failed,"
              f" expected {want}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
