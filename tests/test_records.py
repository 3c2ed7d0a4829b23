"""The record types are tuples of their fields.

Each record is a `namedtuple` subclass whose `__new__` validates and
canonicalises its fields.  Equality, ordering and hashing are therefore
those of the plain field tuple, so the order of sets, dicts and sorted
lists of records follows the field tuples.
"""

import pytest

from rectrep import (CatalogueItem, FormalCharacter, RectCertificate, RepSpec,
                     SemisimpleAlgebra, SimpleType, WeightMultiset,
                     catalogue_spec, character_of, decompose,
                     detect_rectangular, from_character, iter_catalogue_items)
from rectrep.classify import _CATALOGUE, _Kind
from rectrep.cli import _jsonable


def _b2_spin():
    return catalogue_spec(CatalogueItem("B2StdSpin"))[1]


RECORDS = {
    "SimpleType": lambda: SimpleType("B", 2),
    "SemisimpleAlgebra": lambda: SemisimpleAlgebra.parse("A1*B2"),
    "FormalCharacter": lambda: character_of(_b2_spin()),
    "RepSpec": _b2_spin,
    "WeightMultiset": lambda: from_character(character_of(_b2_spin())),
    "RectCertificate": lambda: detect_rectangular(
        from_character(character_of(_b2_spin()))),
    "_Kind": lambda: _CATALOGUE["A1Sym"],
    "CatalogueItem": lambda: CatalogueItem("A1PairSym", (2, 1)),
    "Decomposition": lambda: decompose(_b2_spin()),
}


# a field value each record's constructor rejects; FormalCharacter, _Kind
# and Decomposition check none of their fields
INVALID = {"SimpleType": {"rank": 0}, "SemisimpleAlgebra": {"factors": ()},
           "RepSpec": {"summands": (((-1, 0), 1),)},
           "WeightMultiset": {"dim": 3}, "RectCertificate": {"padding": -1},
           "CatalogueItem": {"kind": "nope"}, "FormalCharacter": None,
           "_Kind": None, "Decomposition": None}


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_its_field_tuple(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    assert rec == tuple(rec) == tuple(getattr(rec, f) for f in rec._fields)
    # a FormalCharacter holds a dict, so neither form hashes
    assert _hash(rec) == _hash(tuple(rec))
    assert (_hash(rec) is TypeError) == (name == "FormalCharacter")
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_make_and_replace_check_fields_like_the_constructor(name):
    rec = RECORDS[name]()
    cls = type(rec)
    for again in (cls._make(rec), rec._replace()):
        assert type(again) is cls and again == rec
    if INVALID[name] is None:
        return
    with pytest.raises(ValueError):
        rec._replace(**INVALID[name])
    with pytest.raises(ValueError):
        cls._make({**rec._asdict(), **INVALID[name]}.values())


def test_records_sort_by_their_fields():
    types = [SimpleType(f, r) for f, r in
             [("G", 2), ("A", 3), ("F", 4), ("B", 2), ("A", 1), ("D", 4)]]
    assert sorted(types) == sorted(types, key=lambda t: (t.family, t.rank))
    algs = [SemisimpleAlgebra.parse(s) for s in ("B2", "A1*B2", "A1", "A1*A1")]
    assert [a.label for a in sorted(algs)] == ["A1", "A1*A1", "A1*B2", "B2"]
    items = list(iter_catalogue_items(4, 64))[::-1]
    assert sorted(items) == sorted(items, key=lambda i: (i.kind, i.params))


def test_constructors_canonicalise():
    assert SimpleType("C", 2) == SimpleType("B", 2) == ("B", 2)
    assert SemisimpleAlgebra([SimpleType("A", 1)]).factors == (("A", 1),)
    assert CatalogueItem("A1PairSym", (1, 2)).params == (2, 1)
    alg = SemisimpleAlgebra.parse("A1")
    assert RepSpec(alg, [([1], 1), ((0,), 2), ((1,), 1)]).summands == (
        ((0,), 2), ((1,), 2))
    assert WeightMultiset(1, [((1,), 1), ((-1,), 1)]).points == (
        ((-1,), 1), ((1,), 1))
    assert FormalCharacter(alg).entries == {}
    assert FormalCharacter._make((alg, None)).entries == {}


def test_constructor_defaults_and_keywords():
    cert = RectCertificate((-1,), ((2,),), (1,))
    assert cert.padding == 0
    assert RectCertificate((-1,), ((2,),), (1,), 0) == cert
    assert RectCertificate(vertex=(-1,), edges=((2,),), degrees=(1,),
                           padding=2).padding == 2
    assert CatalogueItem("D2Spin").params == ()
    assert CatalogueItem(kind="A1Sym", params=(3,)).label == "A1Sym(3)"
    kind = _Kind(lambda: "A1", lambda: [(1,)], lambda: (2,))
    assert (kind.first, kind.valid(), kind.need) == (
        (), True, "takes no parameters")


def test_record_reprs():
    assert repr(SimpleType("A", 1)) == "SimpleType(A1)"
    assert repr(SemisimpleAlgebra.parse("A1*B2")) == "SemisimpleAlgebra(A1*B2)"
    assert (repr(CatalogueItem("A1Sym", (2,)))
            == "CatalogueItem(kind='A1Sym', params=(2,))")
    assert (repr(RectCertificate((-1,), ((2,),), (1,)))
            == "RectCertificate(vertex=(-1,), edges=((2,),), degrees=(1,), "
               "padding=0)")


def test_jsonable_writes_a_catalogue_item_as_an_object():
    item = CatalogueItem("A1PairSym", (1, 2))
    assert _jsonable(item) == {"kind": "A1PairSym", "params": ["2", "1"]}
    assert _jsonable([((0,), item)]) == [
        [["0"], {"kind": "A1PairSym", "params": ["2", "1"]}]]

