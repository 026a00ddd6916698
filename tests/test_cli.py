"""End-to-end tests of the command-line driver."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "hookforge", "verify"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    # the child imports this checkout's package, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=600
    )


def test_theorem1prime_sweep_emits_one_record_per_n():
    result = run_cli("theorem1prime", "--max-n", "12", "--format", "json")
    assert result.returncode == 0
    records = json.loads(result.stdout)
    assert len(records) == 13
    assert all(r["verdict"] == "pass" for r in records)
    assert [r["params"]["n"] for r in records] == list(range(13))


def test_json_schema_fields():
    result = run_cli("prop3", "--max-n", "4", "--trials", "2", "--format", "json")
    assert result.returncode == 0
    for record in json.loads(result.stdout):
        assert set(record) == {"check", "params", "verdict", "witness", "millis"}
        assert record["witness"] is None
        assert record["millis"] is None


def test_prop3_reproducible_with_equal_seed():
    a = run_cli("prop3", "--max-n", "15", "--trials", "5", "--seed", "42", "--format", "json")
    b = run_cli("prop3", "--max-n", "15", "--trials", "5", "--seed", "42", "--format", "json")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_all_selector_covers_every_check():
    result = run_cli("all", "--max-n", "4", "--order", "4", "--trials", "2", "--format", "json")
    assert result.returncode == 0
    checks = {r["check"] for r in json.loads(result.stdout)}
    assert checks == {
        "theorem1prime",
        "theorem1",
        "lemma1",
        "prop2",
        "prop3",
        "bijection",
        "egf",
        "substitution",
    }


def test_byte_identical_reports_across_runs():
    first = run_cli("all", "--max-n", "5", "--seed", "7", "--format", "json")
    second = run_cli("all", "--max-n", "5", "--seed", "7", "--format", "json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_text_format_summarizes():
    result = run_cli("substitution", "--max-n", "3")
    assert result.returncode == 0
    assert "PASS substitution n=1" in result.stdout
    assert "3/3 checks passed" in result.stdout


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "report.json"
    result = run_cli("lemma1", "--max-n", "3", "--format", "json", "--out", str(path))
    assert result.returncode == 0
    assert result.stdout == ""
    records = json.loads(path.read_text(encoding="utf-8"))
    assert len(records) == 4


def test_unwritable_out_is_a_usage_error_before_any_unit_runs(tmp_path):
    path = tmp_path / "missing" / "r.json"
    result = run_cli("egf", "--order", "3", "--out", str(path))
    assert result.returncode == 2
    assert f"error: cannot write report to {path}" in result.stderr
    assert "[egf" not in result.stderr
    assert "Traceback" not in result.stderr
    assert not path.exists()


def test_main_takes_every_default_from_run_config(monkeypatch):
    from hookforge import cli

    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    assert cli.main(["verify", "all"]) == 0
    assert seen == [cli.RunConfig("all")]
    argv = ["verify", "prop3", "--max-n", "3", "--order", "4", "--trials", "2",
            "--seed", "7", "--format", "json", "--out", "r.json"]
    assert cli.main(argv) == 0
    assert seen[-1] == cli.RunConfig("prop3", 3, 4, 2, 7, "json", "r.json")


def test_unknown_selector_exits_2():
    result = run_cli("nonsense", "--max-n", "3")
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()


def test_bad_flag_exits_2():
    result = run_cli("lemma1", "--bogus")
    assert result.returncode == 2


def test_out_of_range_bounds_exit_2():
    for flag, value in (("--max-n", "-1"), ("--trials", "0")):
        result = run_cli("egf", flag, value)
        assert result.returncode == 2
        assert (
            "max-n and order must be nonnegative and trials at least 1"
            in result.stderr
        )


def test_run_config_rejects_an_unknown_format():
    from hookforge import cli

    with pytest.raises(ValueError, match="unknown report format: JSON"):
        cli.RunConfig("substitution", max_n=2, fmt="JSON")


def test_progress_goes_to_stderr():
    result = run_cli("theorem1prime", "--max-n", "2", "--format", "json")
    assert result.returncode == 0
    assert "theorem1prime" in result.stderr
    json.loads(result.stdout)  # stdout must stay pure JSON


def test_failing_check_yields_exit_1_and_witness(monkeypatch, capsys):
    from hookforge import cli, identity

    def broken(n):
        return f"n={n}: forced failure"

    monkeypatch.setattr(identity, "verify_weight_substitution", broken)
    status = cli.run(cli.RunConfig(check="substitution", max_n=2, fmt="json"))
    assert status == 1
    records = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in records] == ["fail", "fail"]
    assert all("forced failure" in r["witness"] for r in records)


def test_sweep_millis_is_wall_clock(monkeypatch):
    from hookforge import cli, identity

    subs = []
    inside = []

    def recording(fn):
        def wrapped(*args):
            started = time.perf_counter()
            witness = fn(*args)
            inside.append(time.perf_counter() - started)
            subs.append(witness)
            return witness

        return wrapped

    for name in ("verify_lemma1", "verify_corner_hooks"):
        monkeypatch.setattr(identity, name, recording(getattr(identity, name)))
    started = time.perf_counter()
    report = cli.Unit("lemma1", {"n": 9})()
    wall_ms = (time.perf_counter() - started) * 1000
    assert report.passed and len(subs) > 30
    assert report.millis <= wall_ms
    # the unit's wall clock covers the time spent inside every verifier
    assert report.millis >= int(sum(inside) * 1000)


BATCH_KERNELS = ("reverse_row_insert_words", "forward_row_insert_words")


def batched(per_word):
    """The batch form of a per-word insertion kernel, run on each word in
    turn: reverse insertion passes one corner for every word, forward
    insertion one value per word.

    `tableaux.reverse_row_insert_word` and `forward_row_insert_word` look up
    the module's batch kernels on every call, and a test puts this adapter
    in place of one of them.  So `per_word` runs with the batch kernels as
    they were when the adapter was made: a mutant built on a per-word kernel
    then runs the original kernel, not itself."""
    from itertools import repeat

    from hookforge import tableaux
    from hookforge.partitions import Cell

    originals = {name: getattr(tableaux, name) for name in BATCH_KERNELS}

    def kernel(words, arg):
        args = repeat(arg) if isinstance(arg, Cell) else arg
        with pytest.MonkeyPatch.context() as patch:
            for name, original in originals.items():
                patch.setattr(tableaux, name, original)
            pairs = [per_word(word, a) for word, a in zip(words, args)]
        return [p[0] for p in pairs], [p[1] for p in pairs]

    return kernel


@pytest.mark.fails("bijection")
def test_bijection_fails_on_wrong_forward_insertion(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.partitions import Cell

    def reverse_rule(word, value):
        # forward insertion bumping by the reverse rule: the mover displaces
        # the last entry of the row that precedes it
        out = bytearray(word)
        out.insert(value - 1, 0)
        moving, row = value - 1, 1
        while True:
            x = out.rfind(row, 0, moving)
            out[moving] = row
            if x < 0:
                return bytes(out), Cell(row, out.count(row))
            moving, row = x, row + 1

    monkeypatch.setattr(tableaux, "forward_row_insert_words", batched(reverse_rule))
    report = cli.Unit("bijection", {"n": 4})()
    assert report.verdict == "fail"
    assert report.witness == "round trip failed at 1 2 3 4 corner (1, 4)"


@pytest.mark.fails("bijection")
def test_bijection_fails_when_forward_insertion_misreports_the_cell(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.partitions import Cell
    from hookforge.tableaux import forward_row_insert_word

    def shifted(word, value):
        back, cell = forward_row_insert_word(word, value)
        return back, Cell(cell.row, cell.col + 1)

    monkeypatch.setattr(tableaux, "forward_row_insert_words", batched(shifted))
    report = cli.Unit("bijection", {"n": 3})()
    assert report.verdict == "fail"
    assert report.witness == "round trip failed at 1 2 3 corner (1, 3)"


def test_bijection_validates_each_enumerated_tableau_once(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.tableaux import enumerate_syt_of_size, validate_words, yamanouchi_word

    expected = [yamanouchi_word(t.rows) for m in (5, 6) for t in enumerate_syt_of_size(m)]
    calls = []

    def counted(words, shape):
        calls.extend(words)
        return validate_words(words, shape)

    monkeypatch.setattr(tableaux, "validate_words", counted)
    assert cli.Unit("bijection", {"n": 6})().passed
    # the two codomains, each word once; insertion results are looked up
    assert len(calls) == 26 + 76 == 102
    assert sorted(calls) == sorted(expected)


@pytest.mark.fails("bijection")
def test_bijection_fails_when_reverse_insertion_skips_relabelling(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.tableaux import reverse_row_insert_word

    def unrelabelled(word, cell):
        # deleting the ejected letter's byte is the relabelling; the letter
        # always leaves from row 1, so this puts its byte back in place
        reduced, ejected = reverse_row_insert_word(word, cell)
        return reduced[: ejected - 1] + b"\x01" + reduced[ejected - 1 :], ejected

    monkeypatch.setattr(tableaux, "reverse_row_insert_words", batched(unrelabelled))
    report = cli.Unit("bijection", {"n": 4})()
    assert report.verdict == "fail"
    assert report.witness == (
        "deleting corner (1, 4) of 1 2 3 4 gave '1 2 3 4', "
        "standard but missing from the enumeration"
    )


@pytest.mark.fails("bijection")
def test_bijection_fails_when_a_corner_is_deleted_twice(monkeypatch):
    from hookforge import cli, partitions

    removable = partitions.removable_cells
    monkeypatch.setattr(
        partitions, "removable_cells",
        lambda lam: [cell for cell in removable(lam) for _ in range(2)],
    )
    report = cli.Unit("bijection", {"n": 4})()
    assert report.verdict == "fail"
    assert report.witness == "corner deletions are not injective"


@pytest.mark.fails("bijection")
def test_bijection_fails_when_the_smaller_enumeration_misses_a_tableau(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.tableaux import lattice_words

    def dropping(n):
        smaller, larger = lattice_words(n)
        if n - 1 == 3:
            lam = next(reversed(smaller))
            smaller[lam] = smaller[lam][:-1]
        return smaller, larger

    monkeypatch.setattr(tableaux, "lattice_words", dropping)
    report = cli.Unit("bijection", {"n": 4})()
    assert report.verdict == "fail"
    assert report.witness.startswith("deleting corner ")
    assert report.witness.endswith(", standard but missing from the enumeration")


@pytest.mark.fails("bijection")
def test_bijection_fails_on_an_enumerated_non_lattice_word(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.partitions import Partition
    from hookforge.tableaux import lattice_words, reverse_row_insert_word

    def bad_word(n):
        smaller, larger = lattice_words(n)
        lam = Partition((2, 1))
        larger[lam] = [b"\x02\x01\x01", *larger[lam][1:]]
        return smaller, larger

    inserted = []
    monkeypatch.setattr(tableaux, "lattice_words", bad_word)
    monkeypatch.setattr(
        tableaux, "reverse_row_insert_words",
        batched(lambda word, cell: inserted.append(word) or reverse_row_insert_word(word, cell)),
    )

    report = cli.Unit("bijection", {"n": 3})()
    assert report.verdict == "fail"
    assert report.witness == (
        "enumerated rows '2 3/1' are not a standard tableau of shape 2,1: "
        "not a lattice word: entry 1 would make row 2 longer than row 1"
    )
    # every word is validated before the first insertion, and the proof
    # returns at the invalid word
    assert tableaux.verify_bijection(3) == report.witness
    assert inserted == []


@pytest.mark.fails("bijection")
def test_bijection_fails_on_an_enumerated_zero_byte(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.tableaux import lattice_words

    def zero_byte(n):
        smaller, larger = lattice_words(n)
        lam = next(iter(smaller))
        smaller[lam] = [b"\x01\x00", *smaller[lam][1:]]
        return smaller, larger

    monkeypatch.setattr(tableaux, "lattice_words", zero_byte)
    report = cli.Unit("bijection", {"n": 3})()
    assert report.verdict == "fail"
    assert report.witness == (
        "enumerated rows bytes [1, 0] are not a standard tableau of shape 2: "
        "row numbers in a word start at 1"
    )


@pytest.mark.fails("bijection")
def test_bijection_fails_when_the_smaller_enumeration_repeats_a_word(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.tableaux import lattice_words

    def repeating(n):
        smaller, larger = lattice_words(n)
        lam = next(reversed(smaller))
        smaller[lam] = [*smaller[lam], smaller[lam][0]]
        return smaller, larger

    monkeypatch.setattr(tableaux, "lattice_words", repeating)
    report = cli.Unit("bijection", {"n": 4})()
    assert report.verdict == "fail"
    assert report.witness == "corner count 16 != n * |SYT(n-1)| = 20"


@pytest.mark.fails("bijection")
def test_bijection_fails_when_the_larger_enumeration_drops_a_word(monkeypatch):
    from hookforge import cli, tableaux
    from hookforge.tableaux import lattice_words

    def dropping(n):
        smaller, larger = lattice_words(n)
        lam = next(reversed(larger))
        larger[lam] = larger[lam][1:]
        return smaller, larger

    monkeypatch.setattr(tableaux, "lattice_words", dropping)
    report = cli.Unit("bijection", {"n": 4})()
    assert report.verdict == "fail"
    assert report.witness == "corner count 15 != n * |SYT(n-1)| = 16"


@pytest.mark.fails("egf")
def test_egf_fails_on_wrong_recurrence(monkeypatch):
    from fractions import Fraction

    from hookforge import cli, involutions

    def without_m(n, u1, u2):
        # g_{m+1} = u1 g_m + u2 g_{m-1}: the factor m of the 2-cycle term dropped
        prev, cur = Fraction(1), Fraction(u1)
        if n == 0:
            return prev
        for _ in range(1, n):
            prev, cur = cur, u1 * cur + u2 * prev
        return cur

    monkeypatch.setattr(involutions, "g_poly", without_m)
    report = cli.Unit("egf", {"order": 10, "trials": 5}, 0)()
    assert report.verdict == "fail"
    trial, rest = report.witness.split(": ")
    assert trial == "trial 0"
    u1, u2 = (Fraction(part.split("=")[1]) for part in rest.split(", "))
    assert not involutions.verify_involution_egf(10, u1, u2)
    monkeypatch.undo()
    assert involutions.verify_involution_egf(10, u1, u2)


@pytest.mark.fails("egf")
def test_egf_kronecker_point_fails_on_its_own(monkeypatch):
    from fractions import Fraction

    from hookforge import cli, involutions

    assert involutions.verify_egf_kronecker(10) is None

    def without_m(n, u1, u2):
        prev, cur = Fraction(1), Fraction(u1)
        if n == 0:
            return prev
        for _ in range(1, n):
            prev, cur = cur, u1 * cur + u2 * prev
        return cur

    monkeypatch.setattr(involutions, "g_poly", without_m)
    # 10! + 2 = 3628802
    assert involutions.verify_egf_kronecker(10) == (
        "Kronecker point u1=x0=3628802, u2=x0^11: coefficients differ"
    )
    # the unit fails on the seam's witness once the sampled trials pass
    monkeypatch.undo()
    monkeypatch.setattr(involutions, "verify_egf_kronecker", lambda order: f"x0 at {order}")
    report = cli.Unit("egf", {"order": 10, "trials": 2}, 0)()
    assert (report.verdict, report.witness) == ("fail", "x0 at 10")


@pytest.mark.fails("theorem1prime")
def test_one_recursion_fault_fails_theorem1prime_and_egf(monkeypatch):
    # psi_n and the egf check read the same g_poly, so one fault in the
    # recursion fails both
    from hookforge import cli, involutions

    def without_m(n, u1, u2):  # ring-generic, with the factor m dropped
        prev, cur = u1**0, u1
        if n == 0:
            return prev
        for _ in range(1, n):
            prev, cur = cur, u1 * cur + u2 * prev
        return cur

    involutions.psi_n.cache_clear()
    try:
        monkeypatch.setattr(involutions, "g_poly", without_m)
        small = cli.Unit("theorem1prime", {"n": 4})()
        large = cli.Unit("theorem1prime", {"n": 14})()
        egf = cli.Unit("egf", {"order": 10, "trials": 1}, 0)()
    finally:
        monkeypatch.undo()
        involutions.psi_n.cache_clear()
    # below PSI_ENUMERATION_BOUND the enumeration disagrees; above it the
    # tableau side does
    assert small.verdict == "error"
    assert small.witness.startswith(
        "AssertionError: psi recursion and enumeration disagree at n=4"
    ), small.witness
    assert large.verdict == "fail"
    assert egf.verdict == "fail"


@pytest.mark.fails("theorem1prime")
@pytest.mark.fails("theorem1")
def test_a_census_fault_fails_theorem1prime_and_theorem1(monkeypatch):
    # phi_n and hook_weight_sum read the same hook census, so one wrong hook
    # of one shape fails both routes
    from hookforge import cli, identity, partitions

    real = partitions._hooked_shapes
    # (3,2,1) is its own conjugate; one of its hooks 1 made 2 keeps 6!/90 exact
    shape, wrong = b"\x03\x02\x01", b"\x01\x01\x02\x03\x03\x05"
    assert (shape, b"\x01\x01\x01\x03\x03\x05") in real(6)

    def bumped(n):
        return [(c, wrong if c == shape else h) for c, h in real(n)] if n == 6 else real(n)

    caches = (identity.phi_n, identity.hook_weight_sum, partitions._hooked_shapes)
    for cached in caches:
        cached.cache_clear()
    try:
        monkeypatch.setattr(partitions, "_hooked_shapes", bumped)
        reports = [
            cli.Unit("theorem1prime", {"n": 6})(),
            cli.Unit("theorem1", {"order": 6})(),
        ]
    finally:
        monkeypatch.undo()
        for cached in caches:
            cached.cache_clear()
    for report in reports:
        assert report.verdict == "fail"
        assert report.witness.startswith("n=6: "), report.witness
    assert cli.Unit("theorem1prime", {"n": 6})().verdict == "pass"
    assert cli.Unit("theorem1", {"order": 6})().verdict == "pass"


@pytest.mark.fails("prop3")
def test_prop3_fails_on_wrong_parity(monkeypatch):
    from hookforge import cli, identity

    signed_ratio_sum = identity._signed_ratio_sum
    monkeypatch.setattr(
        identity, "_signed_ratio_sum", lambda values: signed_ratio_sum(values[:-1])
    )
    report = cli.Unit("prop3", {"n": 5, "trials": 1}, 0)()
    assert report.verdict == "fail"
    assert report.witness.startswith("trial 0: a=[")
    assert report.witness.endswith("]: sum is 0, expected 1")


@pytest.mark.fails("prop3")
def test_prop3_fails_on_the_proof_point_alone(monkeypatch):
    from hookforge import cli, identity

    verify_prop3 = identity.verify_prop3

    def wrong_at_one_to_n(a):
        if list(a) == list(range(1, len(a) + 1)):
            return f"a={list(a)}: sum is 7, expected {len(a) % 2}"
        return verify_prop3(a)

    monkeypatch.setattr(identity, "verify_prop3", wrong_at_one_to_n)
    report = cli.Unit("prop3", {"n": 5, "trials": 2}, 0)()
    assert (report.verdict, report.witness) == (
        "fail",
        "proof point a_i = i: a=[1, 2, 3, 4, 5]: sum is 7, expected 1",
    )


@pytest.mark.fails("prop3")
def test_prop3_fails_on_the_symbolic_witness(monkeypatch):
    from hookforge import _multipoly as mp
    from hookforge import cli, identity

    difference_product = identity._difference_product

    def flipped(n, skip=None):  # negates the k = 0 summand of V*f
        out = difference_product(n, skip)
        return mp.mp_neg(out) if skip == 0 else out

    monkeypatch.setattr(identity, "_difference_product", flipped)
    witness = identity.verify_prop3_alternating(4)
    assert witness is not None
    report = cli.Unit("prop3", {"n": 4, "trials": 1}, 0)()
    assert (report.verdict, report.witness) == ("fail", witness)


@pytest.mark.fails("prop3")
def test_prop3_residues_fail_on_a_dropped_denominator_factor(monkeypatch):
    from hookforge import cli, identity

    linear_products = identity._linear_products

    def dropped(ps, qs):
        num, _ = linear_products(ps, qs)
        _, den = linear_products(ps[:-1], qs[:-1])  # D loses t - a_n
        return num, den

    monkeypatch.setattr(identity, "_linear_products", dropped)
    report = cli.Unit("prop3", {"n": 5, "trials": 1}, 0)()
    assert report.verdict == "fail"
    assert report.witness.startswith("trial 0: a=[")
    assert "constant part is not 1" in report.witness
    assert "t - a_5 does not divide the denominator" in report.witness


@pytest.mark.fails("prop3")
def test_prop3_residues_fail_on_a_doubled_numerator(monkeypatch):
    from hookforge import cli, identity

    linear_products = identity._linear_products

    def doubled(ps, qs):
        num, den = linear_products(ps, qs)
        return [2 * c for c in num], den

    monkeypatch.setattr(identity, "_linear_products", doubled)
    report = cli.Unit("prop3", {"n": 5, "trials": 1}, 0)()
    assert report.verdict == "fail"
    assert report.witness.startswith("trial 0: a=[")
    assert "residue at a_1=" in report.witness


def _raising_at(n_bad, original):
    def verify(n):
        if n == n_bad:
            raise ArithmeticError("injected")
        return original(n)

    return verify


def test_crashing_unit_becomes_error_record_and_exit_1(monkeypatch, capsys):
    from hookforge import cli, identity

    monkeypatch.setattr(
        identity, "verify_weight_substitution",
        _raising_at(3, identity.verify_weight_substitution),
    )
    status = cli.main(["verify", "all", "--max-n", "4", "--format", "json"])
    assert status == 1
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 29
    errors = [r for r in records if r["verdict"] == "error"]
    assert errors == [
        {
            "check": "substitution",
            "params": {"n": 3},
            "verdict": "error",
            "witness": "ArithmeticError: injected",
            "millis": None,
        }
    ]
    assert all(r["verdict"] == "pass" for r in records if r not in errors)


@pytest.mark.fails("theorem1prime")
def test_failing_psi_cross_check_becomes_error_records(monkeypatch, capsys):
    from hookforge import cli, involutions

    blocks = involutions._involution_blocks

    def dropping_first_leaf(n):
        it = blocks(n)
        rows, cols = next(it)
        yield rows - 1, [c[1:] for c in cols]
        yield from it

    involutions.psi_n.cache_clear()
    try:
        monkeypatch.setattr(involutions, "_involution_blocks", dropping_first_leaf)
        status = cli.main(["verify", "theorem1prime", "--max-n", "6", "--format", "json"])
    finally:
        monkeypatch.undo()
        involutions.psi_n.cache_clear()
    assert status == 1
    records = json.loads(capsys.readouterr().out)
    assert [r["params"]["n"] for r in records] == list(range(7))
    for r in records:
        assert r["verdict"] == "error"
        assert r["witness"].startswith(
            f"AssertionError: psi recursion and enumeration disagree at n={r['params']['n']}:"
        )


def test_text_format_prints_error_lines_and_does_not_count_them(monkeypatch, capsys):
    from hookforge import cli, identity

    monkeypatch.setattr(
        identity, "verify_weight_substitution",
        _raising_at(2, identity.verify_weight_substitution),
    )
    assert cli.run(cli.RunConfig(check="substitution", max_n=3)) == 1
    out = capsys.readouterr().out
    assert "ERROR substitution n=2" in out
    assert "witness: ArithmeticError: injected" in out
    assert "PASS substitution n=3" in out
    assert "2/3 checks passed" in out


def test_units_are_zero_argument_callables_reporting_their_own_params():
    from hookforge import cli

    assert cli.CHECKS == ("all", *cli.REGISTRY)
    assert len(cli.build_units(cli.RunConfig("all", max_n=10))) == 65
    assert len(cli.build_units(cli.RunConfig("theorem1prime", max_n=24))) == 25
    units = cli.build_units(cli.RunConfig("all", max_n=4, series_order=4, trials=2))
    assert len(units) == 29
    for unit in units:
        report = unit()
        assert (report.check, report.params) == (unit.check, unit.params)
        assert report.passed


def test_unit_fails_on_the_first_witness_its_runner_yields(monkeypatch):
    from hookforge import cli

    resumed = []

    def none_then_witness(seed, n):
        yield None
        yield "w"
        resumed.append(n)
        yield "never reached"

    monkeypatch.setitem(cli.REGISTRY, "substitution", cli.Check(
        cli.REGISTRY["substitution"].sweep, lambda seed, n: iter([None, None])
    ))
    report = cli.Unit("substitution", {"n": 1})()
    assert (report.verdict, report.witness) == ("pass", None)

    monkeypatch.setitem(cli.REGISTRY, "substitution", cli.Check(
        cli.REGISTRY["substitution"].sweep, none_then_witness
    ))
    report = cli.Unit("substitution", {"n": 1})()
    assert (report.verdict, report.witness) == ("fail", "w")
    assert resumed == []


@pytest.mark.fails("bijection")
def test_bijection_fails_when_the_column_scan_misreads_its_state(monkeypatch):
    # the batched(...) adapters replace the kernels whole; this breaks the
    # byte-column scan itself: its zero test also flags a byte of 2, so a
    # byte that differs from the state in one bit is taken for a bump
    from hookforge import cli, tableaux

    eq = tableaux._eq
    also_two = eq(0)[:2] + b"\x01" + eq(0)[3:]
    monkeypatch.setattr(tableaux, "_eq", lambda v: also_two if v == 0 else eq(v))
    report = cli.Unit("bijection", {"n": 4})()
    assert report.verdict == "fail"
    assert report.witness == "corner deletions are not injective"


def test_calling_a_unit_twice_runs_it_twice(monkeypatch):
    from hookforge import cli, identity, tableaux
    from hookforge.partitions import Cell
    from hookforge.tableaux import forward_row_insert_word

    [passing] = cli.build_units(cli.RunConfig("substitution", max_n=1))
    calls = []
    verify = identity.verify_weight_substitution
    monkeypatch.setattr(
        identity, "verify_weight_substitution", lambda n: calls.append(n) or verify(n)
    )
    first, second = passing(), passing()
    assert first.passed and second.passed
    assert calls == [1, 1]

    failing = cli.build_units(cli.RunConfig("bijection", max_n=3))[-1]

    def shifted(word, value):
        back, cell = forward_row_insert_word(word, value)
        return back, Cell(cell.row, cell.col + 1)

    monkeypatch.setattr(tableaux, "forward_row_insert_words", batched(shifted))
    first, second = failing(), failing()
    assert (first.verdict, first.witness) == (second.verdict, second.witness)
    assert first.witness == "round trip failed at 1 2 3 corner (1, 3)"


def forced_cpus(monkeypatch, cpus):
    """Make the CLI see `cpus` usable CPUs, and record the pid of every
    worker it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    fork, forked = os.fork, []

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 7])
def test_the_worker_count_does_not_change_the_report(monkeypatch, capsys, seed):
    from collections import Counter

    from hookforge import cli

    argv = ["verify", "all", "--max-n", "6", "--seed", str(seed), "--format", "json"]
    units = cli.build_units(cli.RunConfig("all", max_n=6, seed=seed))
    expected = Counter(f"[{u.check} {json.dumps(u.params, sort_keys=True)}] pass" for u in units)
    outs = set()
    for cpus in (1, 2, 3):
        forked = forced_cpus(monkeypatch, cpus)
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        outs.add(captured.out)
        assert len(forked) == (cpus if cpus > 1 else 0)
        assert Counter(line.rsplit(" (", 1)[0] for line in captured.err.splitlines()) == expected
        assert_no_child_left()
    assert len(outs) == 1


@pytest.mark.parametrize(
    "die, named",
    [(lambda: os._exit(3), "status 3"), (lambda: os.kill(os.getpid(), 9), "signal 9")],
    ids=["exit", "kill"],
)
def test_a_worker_death_becomes_an_error_record(monkeypatch, capsys, die, named):
    from hookforge import cli, identity

    parent = os.getpid()
    verify = identity.verify_weight_substitution

    def dying_at_2(n):
        if n == 2 and os.getpid() != parent:
            die()
        return verify(n)

    monkeypatch.setattr(identity, "verify_weight_substitution", dying_at_2)
    forked = forced_cpus(monkeypatch, 2)
    status = cli.main(["verify", "all", "--max-n", "4", "--format", "json"])
    assert status == 1
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 29
    [dead] = [r for r in records if r["verdict"] != "pass"]
    assert (dead["check"], dead["params"], dead["verdict"]) == ("substitution", {"n": 2}, "error")
    assert dead["witness"].startswith("ChildProcessError:") and named in dead["witness"]
    assert len(forked) == 3  # the dead worker's place was taken
    assert_no_child_left()


def test_an_exception_in_the_parent_reaps_every_worker(monkeypatch, capsys):
    from hookforge import cli

    forked = forced_cpus(monkeypatch, 2)
    progress, seen = cli._progress, []

    def failing_on_the_third(rep):
        seen.append(rep)
        if len(seen) == 3:
            raise RuntimeError("injected")
        return progress(rep)

    monkeypatch.setattr(cli, "_progress", failing_on_the_third)
    with pytest.raises(RuntimeError, match="injected"):
        cli.main(["verify", "lemma1", "--max-n", "8", "--format", "json"])
    assert len(forked) == 2
    assert_no_child_left()


def test_wrapped_units_run_in_process(monkeypatch, capsys):
    # perfbench/tracer.py wraps each unit in a closure, which no worker could
    # rebuild: a traced run stays serial and keeps every span
    from hookforge import cli

    forked = forced_cpus(monkeypatch, 2)
    build_units, pids = cli.build_units, []

    def wrapped(cfg):
        def wrap(unit):
            return lambda: pids.append(os.getpid()) or unit()

        return [wrap(u) for u in build_units(cfg)]

    monkeypatch.setattr(cli, "build_units", wrapped)
    assert cli.main(["verify", "substitution", "--max-n", "4", "--format", "json"]) == 0
    assert pids == [os.getpid()] * 4 and forked == []
    assert len(json.loads(capsys.readouterr().out)) == 4
