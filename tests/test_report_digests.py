"""The JSON reports of a few fixed runs keep their bytes.

Each run goes through `cli.main` in process, with one usable CPU, and its
report's SHA-256 is held here.  A change that alters a report on purpose
updates its digest here and says why in CHANGES.md.  The digests do not see
the seed, which a passing record does not hold, and the runs are in process,
so they do not see the forked dispatcher either.
"""

import hashlib
import os

import pytest

from hookforge import cli

DIGESTS = {
    ("all", "--max-n", "10"): "9ff65c938fb5af8098ebb5ff35a1ec8f82b266169fcb47077c82851df7d8d6ec",
    ("theorem1prime", "--max-n", "24"): (
        "80660aad2157edce6bcd7152cb999db8eee6ae46951bc116ffed4d7c4e8af57c"
    ),
    ("theorem1", "--order", "12"): (
        "1b5e1f813b649d527f7511e45c63234ea18a53f754e5d1b9a130ad1e8057158f"
    ),
    ("lemma1", "--max-n", "12"): (
        "9ca2a2b38b2ff7b63f78435a07ddda3d12777fd077ab8d8c99988fbb35a1aa4c"
    ),
}


@pytest.mark.parametrize("args", DIGESTS, ids=" ".join)
def test_in_process_reports_keep_their_digests(monkeypatch, capsys, args):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli.main(["verify", *args, "--format", "json"]) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == DIGESTS[args]
