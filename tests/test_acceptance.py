"""Acceptance suite: every criterion at its full stated range, exact.

Each test prints one PASS/FAIL line so the suite doubles as a checklist;
run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hookforge.cli import Unit
from hookforge.identity import (
    hook_weight_sum,
    phi_n,
    sample_distinct_rationals,
    verify_corner_hooks,
    verify_lemma1,
    verify_prop2_for_shape,
    verify_prop3,
    verify_prop3_alternating,
    verify_prop3_residues,
    verify_theorem1,
    verify_weight_substitution,
)
from hookforge.involutions import g_poly, psi_n
from hookforge.partitions import corner_profile, f_lambda, hooks, partitions_of
from hookforge.tableaux import enumerate_syt

SRC = str(Path(__file__).resolve().parent.parent / "src")


def report(number, name, ok):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_01_involution_tableau_identity_to_20():
    ok = True
    for n in range(21):
        if phi_n(n) != psi_n(n):
            ok = False
            break
    report(1, "involution sum equals weighted tableau sum, n <= 20", ok)


def test_criterion_02_series_identity_to_12_with_specializations():
    ok = verify_theorem1(12) is None
    for n in range(13):
        poly = hook_weight_sum(n).as_polynomial()
        ok = ok and poly.degree == n // 2 and all(c > 0 for c in poly.coeffs)
        # the z = 0 / z = 1 limits, also recomputed as direct hook sums
        squares = Fraction(0)
        plain = Fraction(0)
        for lam in partitions_of(n):
            prod_sq = prod_pl = Fraction(1)
            for h in hooks(lam):
                prod_sq /= h * h
                prod_pl /= h
            squares += prod_sq
            plain += prod_pl
        ok = ok and squares == Fraction(1, math.factorial(n)) == poly(Fraction(0))
        ok = ok and plain == Fraction(
            g_poly(n, 1, 1), math.factorial(n)
        ) == poly(Fraction(1))
    report(2, "exp(t + z t^2/2) coefficients and z=0, z=1 limits, n <= 12", ok)


def test_criterion_03_extend_retract_identity_to_16():
    shapes = 0
    ok = True
    for n in range(17):
        for lam in partitions_of(n):
            shapes += 1
            if verify_lemma1(lam) is not None:
                ok = False
    ok = ok and shapes == 915
    report(3, f"extend-retract identity over {shapes} shapes", ok)


def test_criterion_04_symmetric_sum_to_60_with_residues_and_symbolic():
    ok = True
    for n in range(1, 61):
        for trial in range(10):
            rng = random.Random(f"acceptance:prop3:{n}:{trial}")
            vector = sample_distinct_rationals(rng, n)
            if verify_prop3(vector) is not None:
                ok = False
            if verify_prop3_residues(vector) is not None:
                ok = False
        if not ok:
            break
    for n in range(2, 7):
        ok = ok and verify_prop3_alternating(n) is None
    report(4, "symmetric sum, residues, and alternating form", ok)


def test_criterion_05_corner_content_identity_to_14():
    ok = True
    for n in range(15):
        for lam in partitions_of(n):
            if verify_prop2_for_shape(lam) is not None:
                ok = False
    report(5, "corner-content identity for all shapes up to 14", ok)


def test_criterion_06_row_insertion_bijection():
    ok = all(Unit("bijection", {"n": n})().passed for n in range(1, 9))
    total_at_8 = sum(f_lambda(lam) for lam in partitions_of(8))
    ok = ok and total_at_8 == 764
    # corner-sum identity is part of the bijection unit; push it to n = 9
    ok = ok and Unit("bijection", {"n": 9})().passed
    report(6, "row-insertion round trips (size <= 8) and corner sums (n <= 9)", ok)


def test_criterion_07_counting_identities():
    ok = True
    for n in range(13):
        flams = [f_lambda(lam) for lam in partitions_of(n)]
        ok = ok and sum(f * f for f in flams) == math.factorial(n)
        ok = ok and sum(flams) == g_poly(n, 1, 1)
    for n in range(11):
        for lam in partitions_of(n):
            ok = ok and f_lambda(lam) == len(enumerate_syt(lam))
    # the recurrence itself against brute enumeration
    from hookforge.involutions import enumerate_involutions

    for n in range(10):
        ok = ok and g_poly(n, 1, 1) == len(enumerate_involutions(n))
    report(7, "square and plain tableau counts, n <= 12", ok)


def test_criterion_08_weight_substitution_to_40():
    ok = all(verify_weight_substitution(n) is None for n in range(1, 41))
    report(8, "z-form to q-form weight substitution, n <= 40", ok)


def test_criterion_09_corner_hook_relations_to_12():
    ok = True
    for n in range(13):
        for lam in partitions_of(n):
            d = len(corner_profile(lam).outer_cells)
            for k in range(1, d + 1):
                if verify_corner_hooks(lam, k) is not None:
                    ok = False
    report(9, "corner-content hook relations for all shapes up to 12", ok)


def test_criterion_10_cli_determinism():
    cmd = [
        sys.executable, "-m", "hookforge", "verify", "all",
        "--max-n", "10", "--seed", "7", "--format", "json",
    ]
    env = dict(os.environ)
    # the child imports this checkout's package, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    first = subprocess.run(cmd, capture_output=True, timeout=900, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=900, env=env)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    records = json.loads(first.stdout.decode("utf-8")) if ok else []
    ok = ok and all(r["verdict"] == "pass" for r in records)
    report(10, "byte-identical JSON reports across runs", ok)
