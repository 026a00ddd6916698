"""The package's seven record types keep their semantics as named tuples.

`Partition`, `CornerProfile`, `StandardTableau`, `Involution`, and the CLI's
`RunConfig`, `VerificationReport` and `Unit` are immutable records with
equality and hashing by field, and they survive `copy`, `deepcopy` and
`pickle`.  The four validated ones raise the same `ValueError` texts as
before.  Being tuples, they are also iterable and equal to a plain tuple of
the same fields; no code under `src/` relies on that.
"""

import copy
import pickle

import pytest

from hookforge import cli
from hookforge.involutions import Involution
from hookforge.partitions import Partition, corner_profile
from hookforge.tableaux import StandardTableau

# name: (a factory of one record, a field to assign, whether it hashes,
#        [(a call that must fail validation, its exact error text)])
RECORDS = {
    "Partition": (
        lambda: Partition((3, 1, 1)),
        "parts",
        True,
        [
            (lambda: Partition((2, 0)), "parts must be positive integers: (2, 0)"),
            (lambda: Partition(parts=(1, 2)), "parts must be weakly decreasing: (1, 2)"),
        ],
    ),
    "CornerProfile": (lambda: corner_profile(Partition((2, 1))), "outer_cells", True, []),
    "StandardTableau": (
        lambda: StandardTableau(((1, 3), (2,))),
        "rows",
        True,
        [
            (lambda: StandardTableau(((1, 3),)), "entries must be a bijection onto 1..2"),
            (lambda: StandardTableau(((2, 1),)), "rows must strictly increase"),
            (lambda: StandardTableau(rows=((2, 3), (1,))), "columns must strictly increase"),
        ],
    ),
    "Involution": (
        lambda: Involution((2, 1, 3)),
        "images",
        True,
        [
            (lambda: Involution((1, 1)), "images must be a permutation of 1..n"),
            (lambda: Involution(images=(2, 3, 1)), "not an involution: (2, 3, 1)"),
        ],
    ),
    "RunConfig": (
        lambda: cli.RunConfig("prop3", 3, fmt="json"),
        "max_n",
        True,
        [
            (lambda: cli.RunConfig("nope"), "unknown check selector: nope"),
            (lambda: cli.RunConfig("all", fmt="JSON"), "unknown report format: JSON"),
            (
                lambda: cli.RunConfig(check="all", trials=0),
                "max-n and order must be nonnegative and trials at least 1",
            ),
        ],
    ),
    "VerificationReport": (
        lambda: cli.VerificationReport("egf", {"order": 4}, "fail", "a witness", 7),
        "verdict",
        False,  # its params are a dict
        [],
    ),
    "Unit": (lambda: cli.Unit("bijection", {"n": 3}, seed=2), "params", False, []),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    make, field, hashable, invalid = RECORDS[name]
    for build, text in invalid:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == text
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    twin = make()
    assert twin == record and twin is not record
    if hashable:
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for route in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        back = route(record)
        assert type(back) is type(record) and back == record
        assert repr(back) == repr(record)
    assert repr(record).startswith(f"{name}(")
    assert record == tuple(record)  # the one change: records are tuples


def test_trusted_involutions_skip_validation():
    inv = Involution._trusted((2, 3, 1))  # a 3-cycle, accepted unchecked
    assert type(inv) is Involution and inv.images == (2, 3, 1)
    with pytest.raises(ValueError):
        Involution(inv.images)


def test_tableaux_are_validated_once_through_the_class_attribute(monkeypatch):
    # `perfbench/tracer.py` counts validations by wrapping this attribute
    original = StandardTableau.__post_init__
    seen = []

    def spy(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(StandardTableau, "__post_init__", spy)
    tableau = StandardTableau(((1, 2), (3,)))
    assert seen == [tableau] and seen[0] is tableau
    with pytest.raises(ValueError, match="rows must strictly increase"):
        StandardTableau(((2, 1),))
    assert len(seen) == 2
