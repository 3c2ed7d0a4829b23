from collections import Counter
from itertools import combinations, product
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rectrep import (CatalogueItem, CatalogueMismatchError, Decomposition,
                     NotFaithfulError, NotRectangularError, RectCertificate,
                     SemisimpleAlgebra, canonical_form, catalogue_closure,
                     catalogue_lengths, catalogue_spec, character_of,
                     decompose, detect_rectangular, detect_rectangular_points,
                     enumerate_rectangular, from_character,
                     irreducible_character, is_faithful, is_multiplicity_free,
                     iter_catalogue_items, lengths, long_roots_3space_census,
                     multiplicity_free_irreps, roots_in_plane_census,
                     verify_classification, verify_howe, weyl_dimension,
                     with_ambient_padding)
from rectrep.charcalc import (RepSpec, _dominant_weights, _simple_character,
                              weight_count)
from rectrep.classify import (_TIED, _a1_pair_parts,
                              _dominant_weights_up_to_dim, _irrep_data,
                              _primitive_normal, _shuffle_factors,
                              _simple_types_up_to, _single_factor_parts,
                              _transpose_step)
from rectrep.exactlin import rational_rref, vec_dot
from rectrep.liealg import SimpleType

from oracles import (a1_pair_parts_without_moment_cut,
                     canonical_form_bruteforce, decompose_detector_first,
                     decompose_outcome, dominant_weights_box,
                     dominant_weights_up_to_dim_box,
                     dominant_weights_up_to_dim_fraction,
                     enumerate_rectangular_all_orderings, grid_rect_oracle,
                     multiplicity_free_irreps_freudenthal,
                     prune_free_rectangular, random_specs,
                     random_symmetric_sets, symmetric_sets)


def spec_of(label, summands):
    alg = SemisimpleAlgebra.parse(label)
    return RepSpec(alg, [(c, m) for c, m in summands])


def test_item_validation():
    with pytest.raises(ValueError, match="unknown"):
        CatalogueItem("Nope")
    with pytest.raises(ValueError):
        CatalogueItem("A1Sym", (0,))
    with pytest.raises(ValueError):
        CatalogueItem("A1PairSym", (3, 1))
    with pytest.raises(ValueError):
        CatalogueItem("BmSpin", (1,))
    with pytest.raises(ValueError):
        CatalogueItem("DmSpin", (4,))
    with pytest.raises(ValueError, match="no parameters"):
        CatalogueItem("D2Spin", (1,))


def test_a1_pair_canonical_order():
    assert CatalogueItem("A1PairSym", (1, 2)).params == (2, 1)
    assert CatalogueItem("A1PairSym", (1, 0)).params == (1, 0)


def test_item_tables_consistent():
    # the lengths table gives each spec's rank (count) and dimension (product)
    for item in iter_catalogue_items(6, 128):
        alg, spec = catalogue_spec(item)
        ls = catalogue_lengths(item)
        assert len(ls) == alg.rank
        dim = sum(weyl_dimension(alg, c) * m for c, m in spec.summands)
        assert dim == prod(ls)
        assert is_faithful(spec)


def test_iter_catalogue_bounds():
    items = list(iter_catalogue_items(6, 128))
    assert all(len(ls) <= 6 and prod(ls) <= 128
               for ls in map(catalogue_lengths, items))
    assert len(items) == len(set(items))
    kinds = {i.kind for i in items}
    assert kinds == {"A1Sym", "A1PairSym", "D2Spin", "B2StdSpin", "BmSpin",
                     "A3StdDual", "D4Spin", "D4StdSpinPlus", "D4StdSpinMinus",
                     "DmSpin"}
    # spot items
    assert CatalogueItem("BmSpin", (6,)) in items      # dim 64
    assert CatalogueItem("DmSpin", (6,)) in items      # dim 64
    assert CatalogueItem("BmSpin", (7,)) not in items  # rank 7


def test_decompose_catalogue_items_are_indecomposable():
    for item in iter_catalogue_items(4, 64):
        alg, spec = catalogue_spec(item)
        dec = decompose(spec)
        assert len(dec.parts) == 1
        positions, got = dec.parts[0]
        assert got == item
        assert positions == tuple(range(len(alg.factors)))


def test_decompose_tensor_of_two_items():
    # Spin(D2) on the outer A1 pair times (Std + Spin)(B2) in the middle:
    # Spin(D2) = (std x triv) + (triv x std), so the product has 4 summands
    alg = SemisimpleAlgebra.parse("A1*B2*A1")
    spec = RepSpec(alg, [((1, 1, 0, 0), 1), ((1, 0, 1, 0), 1),
                         ((0, 1, 0, 1), 1), ((0, 0, 1, 1), 1)])
    dec = decompose(spec)
    by_item = {item.kind: positions for positions, item in dec.parts}
    assert by_item == {"D2Spin": (0, 2), "B2StdSpin": (1,)}
    assert dec.lengths == (2, 2, 3, 3)


def test_decompose_pairs_up_a1_quadruple():
    # Spin(D2) x Spin(D2): the pair match must take {0,1} and {2,3},
    # never {0,2}, whose restriction is not multiplicity-constant
    alg = SemisimpleAlgebra.parse("A1*A1*A1*A1")
    spec = RepSpec(alg, [((1, 0, 1, 0), 1), ((1, 0, 0, 1), 1),
                         ((0, 1, 1, 0), 1), ((0, 1, 0, 1), 1)])
    dec = decompose(spec)
    assert sorted((pos, item.kind) for pos, item in dec.parts) == [
        ((0, 1), "D2Spin"), ((2, 3), "D2Spin")]


def test_decompose_full_tensor_of_stds_is_all_singletons():
    # std x std x std x std is the tensor of four 1-factor chains, so no
    # D2 pair forms: restriction to any factor pair has the full square
    # support, not the diamond
    alg = SemisimpleAlgebra.parse("A1*A1*A1*A1")
    spec = RepSpec(alg, [((1, 1, 1, 1), 1)])
    dec = decompose(spec)
    assert [(pos, item.label) for pos, item in dec.parts] == [
        ((0,), "A1Sym(1)"), ((1,), "A1Sym(1)"),
        ((2,), "A1Sym(1)"), ((3,), "A1Sym(1)")]


def test_decompose_mixed_sym_factors():
    # sym3 x sym2 tensor: two 1-factor parts
    alg = SemisimpleAlgebra.parse("A1*A1")
    spec = RepSpec(alg, [((3, 2), 1)])
    dec = decompose(spec)
    items = sorted((positions, item.label) for positions, item in dec.parts)
    assert items == [((0,), "A1Sym(3)"), ((1,), "A1Sym(2)")]
    assert dec.lengths == (3, 4)


def test_decompose_round_trips_enumerated_specs():
    # every enumerated spec over these algebras, A1 pairs included,
    # decomposes into items whose lengths are the enumerated ones
    found = enumerate_rectangular(4, 64, algebras=["A1*A1*A1*A1", "A1*B2*A1"])
    decs = [decompose(spec) for _, spec, _ in found]
    assert [dec.lengths for dec in decs] == [ls for _, _, ls in found]
    assert sum(any(item.kind == "D2Spin" for _, item in dec.parts)
               for dec in decs) > 1


def test_decompose_reports_catalogue_mismatches(monkeypatch):
    spec = spec_of("A1*B2*A1", [((1, 1, 0, 0), 1), ((1, 0, 1, 0), 1),
                                ((0, 1, 0, 1), 1), ((0, 0, 1, 1), 1)])
    with monkeypatch.context() as m:
        m.setattr("rectrep.classify._catalogue_items_over",
                  lambda algebra, mass: ())
        with pytest.raises(CatalogueMismatchError,
                           match=r"positions \[0, 1, 2\] of A1\*B2\*A1"):
            decompose(spec)
    with monkeypatch.context() as m:
        m.setattr("rectrep.classify._tensor_coords", lambda algebra, parts: {})
        with pytest.raises(CatalogueMismatchError, match="reassembled"):
            decompose(spec)


def test_decompose_rejections():
    with pytest.raises(NotFaithfulError):
        decompose(spec_of("A1", [((0,), 1)]))
    with pytest.raises(NotFaithfulError):
        decompose(spec_of("A1*A1", [((1, 0), 1)]))
    with pytest.raises(NotRectangularError) as e:
        decompose(spec_of("A1", [((2,), 2)]))
    assert e.value.reason == "multiplicity"
    with pytest.raises(NotRectangularError) as e:
        decompose(spec_of("A2", [((1, 0), 1)]))
    assert e.value.reason == "asymmetry"
    with pytest.raises(NotRectangularError) as e:
        decompose(spec_of("B2", [((1, 0), 1)]))
    assert e.value.reason == "box mismatch"


def same_decompose_outcome(spec):
    """decompose's outcome on spec, asserted equal to the oracle's; a
    Decomposition comes back as the string "decomposes"."""
    outcome = decompose_outcome(decompose, spec)
    assert outcome == decompose_outcome(decompose_detector_first, spec), spec
    return "decomposes" if isinstance(outcome, Decomposition) else outcome[:2]


def test_decompose_matches_detector_first_oracle():
    # each catalogue item at (4, 64) as it is, with its summands doubled,
    # with a trivial summand added and tensored with A2's std; then every
    # enumerated spec at (3, 128) and every sum of one to three distinct
    # Sym^a x Sym^b (a, b <= 3) over A1*A1
    seen = set()
    for item in iter_catalogue_items(4, 64):
        alg, spec = catalogue_spec(item)
        summands = list(spec.summands)
        a2 = SemisimpleAlgebra(alg.factors + (SimpleType("A", 2),))
        for variant in (spec,
                        RepSpec(alg, [(c, 2 * m) for c, m in summands]),
                        RepSpec(alg, summands + [((0,) * alg.rank, 1)]),
                        RepSpec(a2, [(c + (1, 0), m) for c, m in summands])):
            seen.add(same_decompose_outcome(variant))
    for _, spec, _ in enumerate_rectangular(3, 128):
        assert same_decompose_outcome(spec) == "decomposes"
    irreps = list(product(range(4), repeat=2))
    for k in (1, 2, 3):
        for chosen in combinations(irreps, k):
            seen.add(same_decompose_outcome(spec_of("A1*A1", [(c, 1) for c in chosen])))
    # each factor restricts to 4 x A1PairSym(1,0), yet the sum is no tensor,
    # so this input fails the rebuild rather than the matching
    assert same_decompose_outcome(spec_of("A1*A1*A1", [
        ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)])) == (
        NotRectangularError, "box mismatch")
    assert seen == {"decomposes", (NotFaithfulError, None),
                    (NotRectangularError, "multiplicity"),
                    (NotRectangularError, "asymmetry"),
                    (NotRectangularError, "box mismatch")}


@pytest.mark.parametrize("target, fake", [
    ("_catalogue_items_over", lambda algebra, mass: ()),
    ("_tensor_coords", lambda algebra, parts: {}),
])
def test_decompose_matches_oracle_when_catalogue_fails(monkeypatch, target,
                                                       fake):
    # a catalogue with no matching item, or a rebuild that never matches:
    # a box input is a CatalogueMismatchError, any other a box mismatch
    monkeypatch.setattr(f"rectrep.classify.{target}", fake)
    d2spin = spec_of("A1*A1", [((1, 0), 1), ((0, 1), 1)])
    assert same_decompose_outcome(d2spin)[0] is CatalogueMismatchError
    assert same_decompose_outcome(spec_of("A1*B2*A1", [
        ((1, 1, 0, 0), 1), ((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1),
        ((0, 0, 1, 1), 1)]))[0] is CatalogueMismatchError
    assert same_decompose_outcome(spec_of("B2", [((1, 0), 1)])) == (
        NotRectangularError, "box mismatch")


def test_decompose_reassembly_matches_lengths():
    for item in iter_catalogue_items(4, 32):
        alg, spec = catalogue_spec(item)
        cert = detect_rectangular(from_character(character_of(spec)))
        assert cert is not None
        assert lengths(cert) == tuple(sorted(catalogue_lengths(item)))


def test_canonical_form_is_order_invariant():
    a = SemisimpleAlgebra.parse("A1*B2")
    sa = RepSpec(a, [((1, 0, 1), 1), ((1, 1, 0), 1)])
    b = SemisimpleAlgebra.parse("B2*A1")
    sb = RepSpec(b, [((0, 1, 1), 1), ((1, 0, 1), 1)])
    assert canonical_form(a, sa) == canonical_form(b, sb)


def test_canonical_form_identifies_equal_a1_pairs():
    a = SemisimpleAlgebra.parse("A1*A1")
    s1 = RepSpec(a, [((3, 1), 1)])
    s2 = RepSpec(a, [((1, 3), 1)])
    assert canonical_form(a, s1) == canonical_form(a, s2)


def test_canonical_form_matches_bruteforce_on_enumeration_and_closure():
    # each spec at (4, 256), its factors in a seeded random order, must come
    # back as itself under the refined search and under the full minimum
    specs = [(a, s) for a, s, _ in enumerate_rectangular(4, 256)]
    specs += catalogue_closure(4, 256)
    assert len(specs) > 6000
    for i, (alg, spec) in enumerate(specs):
        shuffled = _shuffle_factors(alg, spec, i)
        assert canonical_form(*shuffled) == (alg, spec)
        assert canonical_form_bruteforce(*shuffled) == (alg, spec)


@pytest.mark.parametrize("label", ["A1*A1", "A1*A1*A1", "A1*A1*A1*A1",
                                   "A1*A1*A1*A1*A1", "A1*A1*A1*A1*A1*A1",
                                   "A2*A2", "A2*A2*A2", "A1*A2*A1*A2"])
def test_canonical_form_matches_bruteforce_on_random_specs(label):
    # equal blocks within and across summands, multiplicities above 1
    for alg, spec in random_specs(label, 60, seed=len(label)):
        assert canonical_form(alg, spec) == canonical_form_bruteforce(alg, spec)


def test_a1_parts_in_closed_form_match_detection():
    parts = _single_factor_parts(SimpleType.parse("A1"), 256)
    assert len(parts) == 255 + 127
    for summands, dim, ls in parts:
        support = {(k,) for (r,) in summands for k in range(-r, r + 1, 2)}
        assert len(support) == dim
        cert = detect_rectangular_points(support, 1)
        assert lengths(with_ambient_padding(cert, 1)) == ls


def test_multiplicity_free_irreps_small():
    a1 = multiplicity_free_irreps(SimpleType.parse("A1"), 4)
    assert a1 == ((0,), (1,), (2,), (3,))
    b2 = multiplicity_free_irreps(SimpleType.parse("B2"), 10)
    assert (1, 0) in b2 and (0, 1) in b2 and (1, 1) not in b2


HOWE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")


@pytest.mark.parametrize("label", HOWE_TYPES + ("C4",))
def test_weight_count_and_support_match_freudenthal(label):
    # every dominant weight of dimension <= 128, against its full character
    t = SimpleType.parse(label)
    alg = SemisimpleAlgebra((t,))
    flagged = multiplicity_free_irreps(t, 128)
    for hw in dominant_weights_up_to_dim_fraction(t, 128):
        char = irreducible_character(alg, hw)
        assert weight_count(t, hw) == len(char.support)
        assert (hw in flagged) == is_multiplicity_free(char)
        assert _irrep_data(t, hw) == (char.support, char.mass)
    assert flagged == multiplicity_free_irreps_freudenthal(t, 128)


@pytest.mark.parametrize("label", HOWE_TYPES + ("C4",))
def test_dominant_weight_scans_match_box_oracles(label):
    # the axis scan and the root descent against whole-box scans
    t = SimpleType.parse(label)
    weights = _dominant_weights_up_to_dim(t, 256)
    assert weights == dominant_weights_up_to_dim_box(t, 256)
    for hw, _ in weights:
        assert _dominant_weights(t, hw) == dominant_weights_box(t, hw)


def test_multiplicity_free_scan_and_single_factor_search_build_no_character():
    # a Freudenthal run anywhere below these calls is a cache miss
    for cached in (_simple_character, multiplicity_free_irreps, _irrep_data):
        cached.cache_clear()
    multiplicity_free_irreps.__wrapped__(SimpleType.parse("A2"), 256)
    assert _single_factor_parts.__wrapped__(SimpleType.parse("B3"), 64)
    assert verify_howe(SimpleType.parse("G2"), 256)["ok"]
    assert _simple_character.cache_info().misses == 0


def test_enumerate_bounds_are_enforced():
    with pytest.raises(ValueError):
        enumerate_rectangular(5, 64)
    with pytest.raises(ValueError):
        enumerate_rectangular(2, 512)
    with pytest.raises(ValueError):
        enumerate_rectangular(0, 64)


@pytest.mark.parametrize("label,max_dim", [("A1*A1", 18), ("A1*A1*A1", 12),
                                           ("A1*B2", 40)])
def test_enumerate_matches_prune_free_oracle(label, max_dim):
    # the production search prunes aggressively; the oracle does not
    alg = SemisimpleAlgebra.parse(label)
    raw = prune_free_rectangular(alg, max_dim)
    got = {(a, s) for a, s, _ in enumerate_rectangular(alg.rank, max_dim,
                                                        algebras=[alg])}
    assert got == raw


@pytest.mark.parametrize("t", _simple_types_up_to(4), ids=lambda t: t.label)
def test_enumerate_matches_prune_free_oracle_per_simple_type(t):
    # A1's closed form and the duality test before the detector, against
    # the raw subset search
    alg = SemisimpleAlgebra((t,))
    got = {(a, s) for a, s, _ in enumerate_rectangular(t.rank, 128,
                                                        algebras=[alg])}
    assert got == prune_free_rectangular(alg, 128)


def test_orderly_enumeration_matches_all_orderings_oracle():
    # one assembly per orbit must find what every pairing and ordering finds
    assert (enumerate_rectangular(3, 128)
            == enumerate_rectangular_all_orderings(3, 128))


def test_non_adjacent_equal_factors_enumerate_like_adjacent_ones():
    # the A1 factors of A1*B2*A1 are one class although B2 sits between
    # them; comparing neighbouring parts only would build specs twice
    assert (enumerate_rectangular(4, 128, algebras=["A1*B2*A1"])
            == enumerate_rectangular(4, 128, algebras=["A1*A1*B2"]))


@pytest.mark.parametrize("budget", [4, 9, 16, 25, 32, 64, 128])
def test_a1_pair_parts_match_search_without_moment_cut(budget):
    assert _a1_pair_parts(budget) == a1_pair_parts_without_moment_cut(budget)


def test_transpose_step_keeps_one_of_each_transposed_pair():
    # every choice of at most one summand per parity class, degrees < 4:
    # of P and its transpose exactly one passes, and P alone when P = P^T
    classes = [[(r1, r2) for r1 in range(p1, 4, 2) for r2 in range(p2, 4, 2)]
               for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1))]
    passed = {}
    for choice in product(*([None] + c for c in classes)):
        part = tuple(x for x in choice if x is not None)
        state = _TIED
        for r1, r2 in part:
            if state is not None:
                state = _transpose_step(state, r1, r2)
        passed[tuple(sorted(part))] = state
    assert len(passed) == 5 ** 4
    for part, state in passed.items():
        flipped = tuple(sorted((r2, r1) for r1, r2 in part))
        if flipped == part:
            assert state == _TIED, part
        else:
            assert (state is None) != (passed[flipped] is None), part
            assert state != _TIED, part


def _permissive_detector(points, dim):
    # accepts every leaf that passes the cuts of both A1-pair searches:
    # square mass, both second-moment tests, columns and rows of at most l
    # points over at least l distinct values, and both factors acting
    l = isqrt(len(points))
    if l < 2 or l * l != len(points):
        return None
    for axis in range(2):
        moment = 12 * sum(p[axis] ** 2 for p in points)
        lines = Counter(p[axis] for p in points)
        if (moment % (l * l * (l * l - 1)) or max(lines.values()) > l
                or len(lines) < l or set(lines) == {0}):
            return None
    return RectCertificate((0, 0), ((1, 0), (0, 1)), (l - 1, l - 1))


@pytest.mark.parametrize("budget", [64, 128])
def test_a1_pair_walk_emits_each_leaf_once_with_its_transpose(monkeypatch,
                                                              budget):
    # D2Spin, its own transpose, is the only real part at these budgets;
    # with a detector that accepts more leaves, the transpose-halved
    # walk must still give exactly the unhalved oracle's parts
    monkeypatch.setattr("rectrep.classify.detect_rectangular_points",
                        _permissive_detector)
    monkeypatch.setattr("oracles.detect_rectangular_points",
                        _permissive_detector)
    parts = _a1_pair_parts.__wrapped__(budget)
    assert parts == a1_pair_parts_without_moment_cut(budget)
    flipped = [s for s, _, _ in parts
               if s != tuple(sorted((r2, r1) for r1, r2 in s))]
    assert len(flipped) >= 4


def test_box_second_moment_lemma():
    # 12 sum x x^T = N sum_i (l_i^2 - 1) e_i e_i^T over each accepted box
    # with edges e_i, lengths l_i and N points: the cut in _a1_pair_parts
    # is the equal-length case on both diagonal entries
    grid, _ = grid_rect_oracle()
    sets = [*symmetric_sets(half=2, max_points=12), *grid,
            *random_symmetric_sets(2, 1000, seed=7)]
    accepted = 0
    for s in sets:
        cert = detect_rectangular_points(s, 2)
        if cert is None:
            continue
        accepted += 1
        ls = [d + 1 for d in cert.degrees]
        for i in range(2):
            for j in range(2):
                moment = 12 * sum(x[i] * x[j] for x in s)
                assert moment == len(s) * sum(
                    (l * l - 1) * e[i] * e[j] for e, l in zip(cert.edges, ls))
    assert accepted > 1000


@pytest.mark.parametrize("max_rank,max_dim,algebras", [
    (2, 64, None), (3, 128, ["A1*A1*A1"])])
def test_enumerated_lengths_match_detection(max_rank, max_dim, algebras):
    found = enumerate_rectangular(max_rank, max_dim, algebras=algebras)
    assert found
    for alg, spec, ls in found:
        cert = detect_rectangular(from_character(character_of(spec)))
        assert ls == lengths(with_ambient_padding(cert, alg.rank)), (
            alg.label, spec)
        # a box has one point per dimension, as `enumerate` prints it
        assert spec.dimension == prod(ls)


def test_closure_contains_singletons_and_tensors():
    pairs = catalogue_closure(2, 64)
    keys = {(a.label, s) for a, s in pairs}
    b2 = catalogue_spec(CatalogueItem("B2StdSpin"))
    assert (b2[0].label, b2[1]) in keys
    d2 = catalogue_spec(CatalogueItem("D2Spin"))
    assert (d2[0].label, d2[1]) in keys
    # tensor of two A1 chains lands on a product algebra
    assert any(a == "A1*A1" for a, _ in keys)


def test_verify_classification_small():
    rep = verify_classification(2, 32)
    assert rep["ok"]
    assert rep["missing_from_catalogue"] == []
    assert rep["unexpected_in_catalogue"] == []
    assert rep["roundtrip_failures"] == []
    assert rep["corollary_violations"] == []
    assert rep["unimodular_failures"] == []
    assert rep["unimodular_spot_checks"] > 0


def test_verify_classification_detects_missing_item():
    # drop two catalogue families: the report must flag the gap, not hide it
    items = [i for i in iter_catalogue_items(2, 64)
             if i.kind not in ("B2StdSpin", "A1PairSym")]
    rep = verify_classification(2, 64, items=items)
    assert not rep["ok"]
    missing = rep["missing_from_catalogue"]
    assert "B2: hw(0,1) + hw(1,0)" in missing
    # sorted by rank, algebra label and summands, so hw(2) precedes hw(10)
    assert missing[:31] == [f"A1: hw({r}) + hw({r + 1})" for r in range(31)]
    assert all(not label.startswith("A1: ") for label in missing[31:])


def test_verify_classification_spot_checks_canonical_form(monkeypatch):
    # a canonical form that keeps the factor order fails the spot checks
    monkeypatch.setattr("rectrep.classify.canonical_form", lambda a, s: (a, s))
    rep = verify_classification(3, 64)
    assert rep["equal"] and not rep["ok"]
    assert rep["unimodular_failures"]


def test_verify_howe_small():
    rep = verify_howe(SimpleType.parse("B2"), 64)
    assert rep["ok"]
    flagged = {tuple(c) for c in rep["flagged"]}
    assert flagged == {(0, 0), (1, 0), (0, 1)}
    rep = verify_howe(SimpleType.parse("C3"), 128)
    assert rep["ok"]
    assert (0, 0, 1) in {tuple(c) for c in rep["flagged"]}  # the 14-dim one


def test_verify_howe_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verify_howe(SimpleType.parse("B2"), 1024)


def test_root_censuses_clean():
    for n in (2, 3, 4):
        rep = roots_in_plane_census(n)
        assert rep["ok"] and rep["violations"] == []
        assert rep["rich_planes"] == n * (n - 1) // 2
    for n in (3, 4):
        rep = long_roots_3space_census(n)
        assert rep["ok"] and rep["violations"] == []
    assert long_roots_3space_census(4)["rich_spaces"] == 12


def test_primitive_normal_examples():
    # the sign flip: the free column gets a positive entry, the lead does not
    assert _primitive_normal(rational_rref(
        [(1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])) == (1, -1, 0, 0)
    # a pivot other than 1 scales the free column
    assert _primitive_normal(rational_rref(
        [(3, -2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])) == (2, 3, 0, 0)


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=3, max_size=3))
def test_primitive_normal_is_the_canonical_normal(rows):
    # orthogonal to the hyperplane, primitive, leading entry positive: that
    # vector is unique, so the census normals do not depend on how it is found
    key = rational_rref(rows)
    assume(len(key) == 3)
    v = _primitive_normal(key)
    assert all(vec_dot(row, v) == 0 for row in rows)
    assert gcd(*v) == 1 and next(x for x in v if x) > 0
