"""Value semantics of the records that are hashed or used as cache keys.

Each record is immutable, two records of equal value compare equal and hash
alike, a record never equals the bare tuple of its fields, its printed form
is fixed, and ``copy``, ``deepcopy`` and ``pickle`` give back an equal record.
"""

import copy
import pickle

import pytest

from moduliq import qq
from moduliq.borcherds import HeegnerCombo
from moduliq.kirwan import BettiTable, PoincarePoly
from moduliq.lattices import Lattice, build_standard, direct_sum, discriminant_group
from moduliq.ledger import DivisorExpr, Lin
from moduliq.qseries import QSeries

# name -> (two builders of one value by different routes, its fields, its str)
CASES = {
    "Lattice": (
        lambda: build_standard("A2"),
        lambda: Lattice(((qq(-2), qq(1)), (qq(1), qq(-2))), name="A2"),
        ("gram", "name"),
        "A2",
    ),
    "unnamed Lattice": (
        lambda: Lattice(((qq(-2),),)),
        lambda: direct_sum(Lattice(((qq(-2),),))),
        ("gram", "name"),
        "<lattice rank 1>",
    ),
    "QSeries": (
        lambda: QSeries.make(3, {0: 1, 2: qq(-1, 2)}, 2),
        lambda: QSeries.make(3, {2: qq(-2, 4), 0: qq(3, 3), 7: 5}, qq(4, 2)),
        ("n_den", "terms", "trunc"),
        "1 - 1/2*q^(2/3)",
    ),
    "PoincarePoly": (
        lambda: PoincarePoly.make([1, 0, 2, 1], 5),
        lambda: PoincarePoly.make([1, 0, 2, 1, 0, 0, 9], 5),
        ("coeffs", "truncation"),
        "1 + 2*t^2 + t^3",
    ),
    "BettiTable": (
        lambda: BettiTable.from_even((1, 2, 1)),
        lambda: BettiTable((1, 0, 2, 0, 1)),
        ("dims",),
        "(1, 2, 1)",
    ),
    "HeegnerCombo": (
        lambda: HeegnerCombo.make({("00", -2): 1, ("2/3", qq(-2, 3)): 3}),
        lambda: HeegnerCombo.make({("2/3", qq(-4, 6)): qq(6, 2), ("4/3", -4): 0, ("00", qq(-2)): 1}),
        ("entries",),
        "1*D[00, -2] + 3*D[2/3, -2/3]",
    ),
    "Lin": (
        lambda: Lin(qq(1, 2), qq(3)),
        lambda: Lin.of(qq(1, 2)) + Lin(qq(0), qq(3)),
        ("a", "b"),
        "1/2 + 3*x",
    ),
    "DivisorExpr": (
        lambda: DivisorExpr.make({"K": 1, "D2": Lin(qq(0), qq(2))}),
        lambda: DivisorExpr.of("D2", Lin(qq(0), qq(2))) + DivisorExpr.of("K"),
        ("coeffs",),
        "(2*x)*D2 + (1)*K",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_and_hash_alike(name):
    first, second, _fields, _text = CASES[name]
    a, b = first(), second()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", CASES)
def test_a_record_is_not_its_field_tuple(name):
    first, _second, fields, _text = CASES[name]
    a = first()
    bare = tuple(getattr(a, f) for f in fields)
    assert a != bare and bare != a
    assert not a == bare and not bare == a


@pytest.mark.parametrize("name", CASES)
def test_a_record_is_immutable(name):
    first, _second, fields, _text = CASES[name]
    a = first()
    for attr in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    assert a == first()


@pytest.mark.parametrize("name", CASES)
def test_str_is_unchanged(name):
    first, _second, _fields, text = CASES[name]
    assert str(first()) == text



@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["copy", "deepcopy", "pickle"]
)
@pytest.mark.parametrize("name", CASES)
def test_a_record_copies_and_pickles_to_an_equal_record(name, clone):
    first, _second, fields, text = CASES[name]
    a = first()
    b = clone(a)
    assert type(b) is type(a) and b == a and hash(b) == hash(a)
    assert [getattr(b, f) for f in fields] == [getattr(a, f) for f in fields]
    assert str(b) == text
    with pytest.raises(AttributeError):
        setattr(b, fields[0], None)

def test_an_unequal_value_is_unequal():
    assert build_standard("A2") != build_standard("A2(-1)")
    assert build_standard("A2") != Lattice(build_standard("A2").gram)  # the name counts
    assert Lin(qq(1)) != Lin(qq(1), qq(1))
    assert BettiTable((1, 0, 1)) != BettiTable((1, 0, 2))
    assert PoincarePoly.make([1, 0, 1], 4) != PoincarePoly.make([1, 0, 1])  # the truncation counts


def test_a_lattice_is_one_cache_key():
    # two separately built equal lattices find the same cached group
    assert discriminant_group(build_standard("E6")) is discriminant_group(build_standard("E6"))
