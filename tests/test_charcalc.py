from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectrep import (SemisimpleAlgebra, SimpleType, cartan_matrix,
                     character_of, dual_weight, irreducible_character,
                     is_faithful, is_multiplicity_free, restrict_to_factors,
                     weyl_dimension)
from rectrep.charcalc import (AliasError, RepSpec, _cartan_inverse,
                              _orbit_size, _simple_character, resolve_alias)
from rectrep.liealg import weyl_orbit_coords

from oracles import (dominant_weights_up_to_dim_fraction,
                     simple_character_fraction, weyl_dimension_fraction)

KNOWN_DIMS = [
    ("A1", (4,), 5),
    ("A2", (1, 0), 3),
    ("A2", (1, 1), 8),
    ("A3", (0, 1, 0), 6),
    ("A4", (1, 0, 0, 0), 5),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (1, 1), 16),
    ("B3", (0, 0, 1), 8),
    ("B4", (0, 0, 0, 1), 16),
    ("C3", (1, 0, 0), 6),
    ("C3", (0, 0, 1), 14),
    ("D4", (1, 0, 0, 0), 8),
    ("D4", (0, 0, 1, 0), 8),
    ("D4", (0, 0, 0, 1), 8),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("F4", (0, 0, 0, 1), 26),
]


@pytest.mark.parametrize("label,hw,dim", KNOWN_DIMS,
                         ids=[f"{l}-{d}" for l, _, d in KNOWN_DIMS])
def test_weyl_dimension_known(label, hw, dim):
    assert weyl_dimension(SemisimpleAlgebra.parse(label), hw) == dim


def test_weyl_dimension_multiplies_over_factors():
    alg = SemisimpleAlgebra.parse("A1*B2")
    assert weyl_dimension(alg, (3, 0, 1)) == 4 * 4


DIFFERENTIAL_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                      "D4", "G2", "F4")


@pytest.mark.parametrize("label", DIFFERENTIAL_TYPES)
def test_integer_freudenthal_matches_fraction_oracle(label):
    # every dominant weight of dimension <= 128: 336 over these twelve types
    t = SimpleType.parse(label)
    alg = SemisimpleAlgebra((t,))
    weights = dominant_weights_up_to_dim_fraction(t, 128)
    assert weights
    for hw in weights:
        assert _simple_character(t, hw) == simple_character_fraction(t, hw)
        assert weyl_dimension(alg, hw) == weyl_dimension_fraction(t, hw)


# long A1 root strings, and A2 weights whose multiplicities reach 8
LARGE_WEIGHTS = [("A1", (300,)), ("A1", (301,)), ("A2", (12, 0)),
                 ("A2", (0, 13)), ("A2", (9, 6)), ("A2", (7, 7))]


@pytest.mark.parametrize("label,hw", LARGE_WEIGHTS,
                         ids=[f"{l}-{','.join(map(str, hw))}"
                              for l, hw in LARGE_WEIGHTS])
def test_integer_freudenthal_matches_fraction_oracle_at_large_weights(label, hw):
    t = SimpleType.parse(label)
    assert _simple_character(t, hw) == simple_character_fraction(t, hw)


def test_product_weyl_dimension_matches_fraction_oracle():
    alg = SemisimpleAlgebra.parse("A2*B3*G2")
    hw = (2, 1, 0, 1, 1, 1, 0)
    expected = 1
    for t, rng in zip(alg.factors, alg.block_ranges()):
        expected *= weyl_dimension_fraction(t, hw[rng.start:rng.stop])
    assert weyl_dimension(alg, hw) == expected


dominant_small = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(st.sampled_from(["A2", "B2", "G2"]), dominant_small)
@settings(max_examples=40, deadline=None)
def test_character_mass_equals_dimension(label, hw):
    # Freudenthal multiplicities against the independent product formula
    alg = SemisimpleAlgebra.parse(label)
    c = irreducible_character(alg, hw)
    assert c.mass == weyl_dimension(alg, hw)
    assert all(m >= 1 for m in c.entries.values())


@given(st.sampled_from(["A2", "B2"]), dominant_small)
@settings(max_examples=25, deadline=None)
def test_multiplicity_constant_on_weyl_orbits(label, hw):
    alg = SemisimpleAlgebra.parse(label)
    c = irreducible_character(alg, hw)
    for coords, m in c.entries.items():
        for w in weyl_orbit_coords(alg, coords):
            assert c.entries.get(w) == m


def test_adjoint_zero_weight_multiplicities():
    # adjoint multiplicity at zero equals the rank
    a2 = irreducible_character(SemisimpleAlgebra.parse("A2"), (1, 1))
    assert a2.entries[(0, 0)] == 2
    assert sorted(a2.entries.values()) == [1, 1, 1, 1, 1, 1, 2]
    g2 = irreducible_character(SemisimpleAlgebra.parse("G2"), (1, 0))
    assert g2.entries[(0, 0)] == 1 and g2.mass == 7


def test_a1_sym_characters_are_chains():
    alg = SemisimpleAlgebra.parse("A1")
    for r in range(6):
        c = irreducible_character(alg, (r,))
        assert c.entries == {(k,): 1 for k in range(-r, r + 1, 2)}


def test_dual_character_is_negation():
    alg = SemisimpleAlgebra.parse("A3")
    c = irreducible_character(alg, (1, 0, 0))
    d = irreducible_character(alg, dual_weight(alg, (1, 0, 0)))
    assert d.entries == {tuple(-x for x in k): m for k, m in c.entries.items()}


def test_self_dual_families():
    for label, hw in [("B3", (0, 0, 1)), ("C3", (1, 0, 0)), ("G2", (1, 0))]:
        alg = SemisimpleAlgebra.parse(label)
        assert dual_weight(alg, hw) == hw


def summand_dict(spec):
    return dict(spec.summands)


def test_repspec_merges_duplicates():
    alg = SemisimpleAlgebra.parse("A1")
    s = RepSpec(alg, [((2,), 1), ((2,), 2), ((0,), 1)])
    assert summand_dict(s) == {(0,): 1, (2,): 3}
    assert s == RepSpec(alg, [((0,), 1), ((2,), 3)])
    assert hash(s) == hash(RepSpec(alg, [((0,), 1), ((2,), 3)]))


B2 = SemisimpleAlgebra.parse("B2")


@pytest.mark.parametrize("build, summands", [
    (lambda: RepSpec(B2, [((1, 0), 1), ((0, 1), 1), ((1, 0), 2)]),
     (((0, 1), 1), ((1, 0), 3))),
    (lambda: RepSpec(B2, [((1, 0, 0), 1)]), None),
    (lambda: RepSpec(B2, [((1.0, 0), 1)]), None),
    (lambda: RepSpec(B2, [((0, 1), 1), ((1, -1), 1)]), None),
    (lambda: RepSpec(B2, [((1, 0), 0)]), None),
    (lambda: weyl_dimension(B2, (1, 0, 0)), None),
    (lambda: irreducible_character(B2, (1,)), None),
    (lambda: dual_weight(B2, (1, 0, 0)), None),
], ids=["merge", "length", "non-integer", "negative", "mult-0",
        "weyl_dimension-length", "irreducible_character-length",
        "dual_weight-length"])
def test_highest_weight_checks(build, summands):
    """RepSpec merges repeated summands and sorts them; a malformed highest
    weight or multiplicity raises ValueError there and in the functions
    that take coordinates."""
    if summands is None:
        with pytest.raises(ValueError):
            build()
    else:
        assert build().summands == summands


def test_character_of_adds_summands():
    alg = SemisimpleAlgebra.parse("B2")
    spec = RepSpec(alg, [((1, 0), 1), ((0, 1), 1)])
    c = character_of(spec)
    assert c.mass == 9
    std = irreducible_character(alg, (1, 0))
    spin = irreducible_character(alg, (0, 1))
    merged = dict(std.entries)
    for k, m in spin.entries.items():
        merged[k] = merged.get(k, 0) + m
    assert c.entries == merged


def test_external_tensor_mass_and_entries():
    # a product-algebra irreducible is the external tensor of its blocks
    a = irreducible_character(SemisimpleAlgebra.parse("A1"), (1,))
    b = irreducible_character(SemisimpleAlgebra.parse("B2"), (0, 1))
    t = irreducible_character(SemisimpleAlgebra.parse("A1*B2"), (1, 0, 1))
    assert t.mass == a.mass * b.mass
    assert t.algebra.label == "A1*B2"
    assert t.entries[(1, 0, 1)] == 1
    assert t.entries == {u + v: mu * mv for u, mu in a.entries.items()
                         for v, mv in b.entries.items()}


def test_restrict_to_factors():
    alg = SemisimpleAlgebra.parse("A1*B2")
    spec = RepSpec(alg, [((1, 0, 1), 1)])
    c = character_of(spec)
    right = restrict_to_factors(c, (1,))
    spin = irreducible_character(SemisimpleAlgebra.parse("B2"), (0, 1))
    # each B2 weight appears twice: once per A1 weight
    assert right.entries == {k: 2 * m for k, m in spin.entries.items()}
    with pytest.raises(ValueError):
        restrict_to_factors(c, (2,))


def test_multiplicity_free_detection():
    alg = SemisimpleAlgebra.parse("A1")
    assert is_multiplicity_free(character_of(RepSpec(alg, [((3,), 1)])))
    assert not is_multiplicity_free(character_of(RepSpec(alg, [((3,), 2)])))
    # sym2 + triv share the zero weight
    assert not is_multiplicity_free(
        character_of(RepSpec(alg, [((2,), 1), ((0,), 1)])))


def test_is_faithful():
    alg = SemisimpleAlgebra.parse("A1*A1")
    assert is_faithful(RepSpec(alg, [((1, 1), 1)]))
    assert not is_faithful(RepSpec(alg, [((1, 0), 1)]))
    assert is_faithful(RepSpec(alg, [((1, 0), 1), ((0, 1), 1)]))
    assert not is_faithful(RepSpec(alg, [((0, 0), 1)]))


def test_resolve_alias_std_spin():
    b3 = SimpleType.parse("B3")
    assert resolve_alias(b3, "std") == ((1, 0, 0),)
    assert resolve_alias(b3, "spin") == ((0, 0, 1),)
    d4 = SimpleType.parse("D4")
    assert resolve_alias(d4, "spin+") == ((0, 0, 0, 1),)
    assert resolve_alias(d4, "spin-") == ((0, 0, 1, 0),)
    # plain spin on D means both half-spins
    assert set(resolve_alias(d4, "spin")) == {(0, 0, 0, 1), (0, 0, 1, 0)}


def test_resolve_alias_sym_wedge():
    a3 = SimpleType.parse("A3")
    assert resolve_alias(a3, "sym", 3) == ((3, 0, 0),)
    assert resolve_alias(a3, "wedge", 2) == ((0, 1, 0),)
    assert resolve_alias(a3, "wedge", 0) == ((0, 0, 0),)
    assert resolve_alias(a3, "wedge", 4) == ((0, 0, 0),)
    assert resolve_alias(a3, "triv") == ((0, 0, 0),)


def test_resolve_alias_errors():
    a3 = SimpleType.parse("A3")
    with pytest.raises(AliasError, match="half-spins"):
        resolve_alias(a3, "spin")
    with pytest.raises(AliasError):
        resolve_alias(SimpleType.parse("B3"), "sym", 2)
    with pytest.raises(AliasError):
        resolve_alias(SimpleType.parse("G2"), "std")
    with pytest.raises(AliasError):
        resolve_alias(a3, "wedge", 5)


def test_dual_spec_roundtrip():
    alg = SemisimpleAlgebra.parse("A3")
    spec = RepSpec(alg, [((1, 0, 0), 1), ((0, 1, 0), 2)])

    def dual_spec(s):
        return RepSpec(alg, tuple((dual_weight(alg, hw), m) for hw, m in s.summands))

    assert dual_spec(dual_spec(spec)) == spec
    assert character_of(dual_spec(spec)).entries == {
        tuple(-x for x in k): m for k, m in character_of(spec).entries.items()}


def test_cartan_inverse_is_exact():
    # the Fraction oracles in tests/oracles.py build on _cartan_inverse, so
    # it is checked here against the definition, C.C^-1 = I
    for family, ranks in [("A", range(1, 9)), ("B", range(2, 9)),
                          ("C", range(3, 9)), ("D", range(4, 9)),
                          ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]:
        for m in ranks:
            t = SimpleType(family, m)
            c, cinv = cartan_matrix(t), _cartan_inverse(t)
            assert [[sum(c[i][k] * cinv[k][j] for k in range(m))
                     for j in range(m)] for i in range(m)] == [
                [int(i == j) for j in range(m)] for i in range(m)], t.label


@pytest.mark.parametrize("label", DIFFERENTIAL_TYPES + ("A5", "B5", "D5"))
def test_orbit_size_formula_matches_the_walked_orbit(label):
    # the product over the roots off the stabiliser, for every zero
    # pattern, against the orbit walked by simple reflections
    t = SimpleType.parse(label)
    alg = SemisimpleAlgebra((t,))
    for pattern in product((0, 1), repeat=t.rank):
        assert _orbit_size(t, pattern) == len(weyl_orbit_coords(alg, pattern))


@pytest.mark.parametrize("label, order", [
    ("A7", 40320), ("B6", 46080), ("C6", 46080), ("D6", 23040),
    ("E6", 51840), ("E7", 2903040), ("E8", 696729600), ("F4", 1152),
    ("G2", 12)])
def test_regular_orbit_size_is_the_weyl_group_order(label, order):
    # a regular weight's orbit, too large to walk for E7 and E8
    t = SimpleType.parse(label)
    assert _orbit_size(t, (1,) * t.rank) == order
