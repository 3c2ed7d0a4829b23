"""Catalogue of indecomposable hypercubic representations, decomposition
of faithful rectangular representations into external tensor factors, and
brute-force verification at desk scale.

The catalogue: over a single simple factor, Sym^r of A1 (lengths {r+1}),
Sym^r1 + Sym^r2 of A1 with |r1 - r2| = 1 (lengths {r1+r2+2}), Std + Spin
of B2 ({3,3}), Spin of B_m ({2}^m), Std + Std-dual of A3 ({2}^3), the
half-spin pair of D_m ({2}^m), and over D4 also Std plus a single
half-spin ({2}^4); over a pair of A1 factors, the one item that does not
split, Std x 1 + 1 x Std ({2,2}).

The enumerator searches partitions of the simple factors into single
factors and A1 pairs, exhaustively enumerates the rectangular candidates
for each part, and assembles external tensor products orderly: one
pairing of the A1 factors per pair count and non-decreasing candidates
over equal parts, so each orbit under permutation of equal factors is
built and canonicalised once, and a spec reached twice is an
AssertionError rather than a merge.  Within one part the search is
exhaustive, and each simple type and the A1 pair are searched once per
run.  A1's parts are in closed form (symmetric powers and adjacent
pairs; the tests confirm them with the box detector).  Over the other
types the disjoint-support sums of multiplicity-free irreducibles whose
highest weights are closed under duality go to the detector.  Over an
A1 pair the candidates come from the box: `_a1_pair_parts` proves that
an unsplittable part's support is a diamond, one per side length, and
peels each diamond into summands.  The restriction of parts to
singletons and A1 pairs is a structural fact recorded in the docs and
independently defended by a prune-free oracle in the test suite at
small bounds.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, isqrt, prod

from .exactlin import (random_unimodular, rank, rational_rref, vec_dot,
                       vec_neg)
from .liealg import (SemisimpleAlgebra, SimpleType, ortho_coords,
                     positive_root_coords, record)
from .charcalc import (FormalCharacter, RepSpec, character_of, dual_weight,
                       is_faithful, restrict_to_factors, weight_count,
                       weight_support, weyl_dimension)
from .rectkit import (detect_rectangular, detect_rectangular_points,
                      from_character, lengths, transform,
                      with_ambient_padding)

MAX_RANK = 4
MAX_DIM = 256


class NotFaithfulError(ValueError):
    """Some simple factor acts trivially."""


class NotRectangularError(ValueError):
    """The weight multiset is not rectangular; .reason says why."""

    def __init__(self, reason: str):
        super().__init__(f"not rectangular: {reason}")
        self.reason = reason


class CatalogueMismatchError(RuntimeError):
    """A box input whose factors match no catalogue item."""


def _fw(m: int, i: int) -> tuple[int, ...]:
    """The i-th fundamental weight of a rank-m factor (zero-based)."""
    return tuple(int(j == i) for j in range(m))


class _Kind(record("_Kind", "algebra weights lengths first valid need",
                   defaults=((), lambda: True, "takes no parameters"))):
    """One catalogue kind; each function takes the item's parameters.

    `algebra` is the factor algebra's label, `weights` the summands'
    highest weights (each with multiplicity 1) and `lengths` the box
    lengths, padded to the rank: the item's dimension is their product
    and its rank their number.  A parameterised kind counts up from
    `first`, every parameter by one; its rank and dimension grow with it.
    `valid` tests the parameters and `need` says what they must be.
    """

    __slots__ = ()


# One record per kind (algebra, weights, lengths, then the parameters), in
# the order iter_catalogue_items yields them.
_CATALOGUE = {
    "A1Sym": _Kind(lambda r: "A1", lambda r: [(r,)], lambda r: (r + 1,),
                   first=(1,), valid=lambda r: r >= 1,
                   need="needs one parameter r >= 1"),
    "A1PairSym": _Kind(lambda r1, r2: "A1", lambda r1, r2: [(r1,), (r2,)],
                       lambda r1, r2: (r1 + r2 + 2,), first=(1, 0),
                       valid=lambda r1, r2: (abs(r1 - r2) == 1
                                             and min(r1, r2) >= 0),
                       need="needs r1, r2 >= 0 with |r1-r2| = 1"),
    "D2Spin": _Kind(lambda: "A1*A1", lambda: [(1, 0), (0, 1)], lambda: (2, 2)),
    "B2StdSpin": _Kind(lambda: "B2", lambda: [(1, 0), (0, 1)], lambda: (3, 3)),
    "BmSpin": _Kind(lambda m: f"B{m}", lambda m: [_fw(m, m - 1)],
                    lambda m: (2,) * m, first=(2,), valid=lambda m: m >= 2,
                    need="needs one parameter m >= 2"),
    "A3StdDual": _Kind(lambda: "A3", lambda: [_fw(3, 0), _fw(3, 2)],
                       lambda: (2, 2, 2)),
    "D4Spin": _Kind(lambda: "D4", lambda: [_fw(4, 2), _fw(4, 3)],
                    lambda: (2, 2, 2, 2)),
    "D4StdSpinPlus": _Kind(lambda: "D4", lambda: [_fw(4, 0), _fw(4, 3)],
                           lambda: (2, 2, 2, 2)),
    "D4StdSpinMinus": _Kind(lambda: "D4", lambda: [_fw(4, 0), _fw(4, 2)],
                            lambda: (2, 2, 2, 2)),
    "DmSpin": _Kind(lambda m: f"D{m}", lambda m: [_fw(m, m - 2), _fw(m, m - 1)],
                    lambda m: (2,) * m, first=(5,), valid=lambda m: m >= 5,
                    need="needs one parameter m >= 5"),
}


class CatalogueItem(record("CatalogueItem", "kind params")):
    __slots__ = ()

    def __new__(cls, kind: str, params: tuple[int, ...] = ()):
        entry = _CATALOGUE.get(kind)
        if entry is None:
            raise ValueError(f"unknown catalogue kind {kind!r}")
        if len(params) != len(entry.first) or not entry.valid(*params):
            raise ValueError(f"{kind} {entry.need}")
        if kind == "A1PairSym" and params[0] < params[1]:
            params = (params[1], params[0])
        return tuple.__new__(cls, (kind, params))

    @property
    def label(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(map(str, self.params))})"
        return self.kind


def catalogue_spec(item: CatalogueItem) -> tuple[SemisimpleAlgebra, RepSpec]:
    kind = _CATALOGUE[item.kind]
    alg = SemisimpleAlgebra.parse(kind.algebra(*item.params))
    return alg, RepSpec(alg, [(w, 1) for w in kind.weights(*item.params)])


def catalogue_lengths(item: CatalogueItem) -> tuple[int, ...]:
    """Lengths from the closed-form table (cross-checked against detection)."""
    return _CATALOGUE[item.kind].lengths(*item.params)


def _catalogue_entries(max_rank: int, max_dim: int):
    """(kind, params, lengths) of each catalogue item within the bounds."""
    for k, kind in _CATALOGUE.items():
        p = kind.first
        while p is not None:
            ls = kind.lengths(*p)
            if len(ls) > max_rank or prod(ls) > max_dim:
                break
            yield k, p, ls
            p = tuple(x + 1 for x in p) if p else None


def iter_catalogue_items(max_rank: int, max_dim: int):
    """All catalogue items within the bounds, in a fixed order."""
    for k, p, _ in _catalogue_entries(max_rank, max_dim):
        yield CatalogueItem(k, p)


class Decomposition(record("Decomposition", "parts")):
    """External tensor factorization into catalogue items.

    Each part is (factor positions, item); positions are zero-based and
    the position sets partition the factors of the input algebra.
    """

    __slots__ = ()

    @property
    def lengths(self) -> tuple[int, ...]:
        """Sorted box lengths; a tensor product's box is the parts' product."""
        return tuple(sorted(ln for _, item in self.parts
                            for ln in catalogue_lengths(item)))


@lru_cache(maxsize=None)
def _item_support(item: CatalogueItem) -> frozenset:
    """The item's highest weights as a set (each has multiplicity 1),
    which `_catalogue_item` checks a match against."""
    return frozenset(_CATALOGUE[item.kind].weights(*item.params))


def _catalogue_item(label: str, weights: frozenset) -> CatalogueItem | None:
    """The catalogue item over the algebra `label` with these highest
    weights, or None.

    `_Kind.weights` is inverted in closed form: an A1 kind's parameters
    are its highest weights, largest first, BmSpin's and DmSpin's m is
    the rank in the label, and the other kinds take none.  The kind's
    own weights then confirm the match, so no dimension bound applies.
    """
    if label == "A1":
        guess = tuple(sorted((w for (w,) in weights), reverse=True))
    else:
        guess = (int(label[1:]),) if label[1:].isdigit() else ()
    for k, kind in _CATALOGUE.items():
        params = guess if kind.first else ()
        if (len(params) == len(kind.first) and kind.valid(*params)
                and kind.algebra(*params) == label):
            item = CatalogueItem(k, params)
            if _item_support(item) == weights:
                return item
    return None


def _tensor_coords(algebra: SemisimpleAlgebra, parts) -> dict:
    """External tensor product of part blocks, in the algebra's coordinates.

    Each part is (factor positions, {block: mult}), a block holding the
    coordinates of those factors in the order given; the positions of
    all parts partition the factors.  Returns {coords: mult}.
    """
    ranges = algebra.block_ranges()
    # the concatenated blocks hold algebra coordinate layout[j] at place j
    layout = [i for positions, _ in parts for p in positions for i in ranges[p]]
    order = sorted(range(len(layout)), key=layout.__getitem__)
    out: dict[tuple[int, ...], int] = {(): 1}
    for _, blocks in parts:
        out = {u + v: mu * mv for u, mu in out.items() for v, mv in blocks.items()}
    return {tuple(w[i] for i in order): m for w, m in out.items()}


def _rect_reason(entries: dict) -> str | None:
    """The O(N) test that rejects a weight multiset {point: mult}, or None."""
    if any(m != 1 for m in entries.values()):
        return "multiplicity"
    if any(vec_neg(p) not in entries for p in entries):
        return "asymmetry"
    return None


def decompose(spec: RepSpec) -> Decomposition:
    """Factor a faithful rectangular representation over the catalogue.

    The proof is read off the highest weights, with no character.
    An irreducible of g1 x g2 is V1 x V2, its highest weight the two
    blocks joined.  Take a spec of n summands, each of multiplicity 1,
    and a part P (each single factor, then each pair of the factors
    left over).  Let S be the summands' projection onto P's blocks and
    R their projection onto the other blocks.  The summands lie in
    S x R, so they fill it, and the spec splits off P as S x R, iff
    |S| |R| = n.  Splitting off P leaves R, which splits the same way,
    so once every factor lies in a part the summand set is the product
    of the parts' sets S.  If each S is the highest-weight set of a
    catalogue item (`_catalogue_item`), the spec is the external tensor
    product of those items, each a box image (their lengths are checked
    against detection in the tests), and a tensor of boxes is a box
    with the joined lengths, `Decomposition.lengths`.

    A summand of multiplicity above 1 is a repeated weight, so it is
    rejected as "multiplicity" with no character.  A character is built
    only to explain a factor in no matched part: the O(N) multiplicity
    and symmetry tests, then the box detector, tell a non-box input
    (`NotRectangularError`) from a gap in the catalogue
    (`CatalogueMismatchError`).
    """
    if not is_faithful(spec):
        raise NotFaithfulError(f"some factor of {spec.algebra.label} acts trivially")
    # a repeated summand repeats its highest weight in the character
    if any(m > 1 for _, m in spec.summands):
        raise NotRectangularError("multiplicity")
    # the highest weights, to project onto blocks
    highest = FormalCharacter(spec.algebra, dict(spec.summands))
    factors = range(len(spec.algebra.factors))
    parts: list[tuple[tuple[int, ...], CatalogueItem]] = []
    taken: set[int] = set()
    for size in (1, 2):
        for positions in combinations(factors, size):
            if not taken.isdisjoint(positions):
                continue
            proj = restrict_to_factors(highest, positions)
            others = [i for i in factors if i not in positions]
            rest = (len(restrict_to_factors(highest, others).entries)
                    if others else 1)
            if len(proj.entries) * rest != len(spec.summands):
                continue
            match = _catalogue_item(proj.algebra.label, proj.support)
            if match is not None:
                parts.append((positions, match))
                taken.update(positions)
    if len(taken) < len(factors):
        full = character_of(spec)
        reason = _rect_reason(full.entries)
        if reason is None and detect_rectangular(from_character(full)) is None:
            reason = "box mismatch"
        if reason is not None:
            raise NotRectangularError(reason)
        left = sorted(set(factors) - taken)
        raise CatalogueMismatchError(f"factors at positions {left} of "
                                     f"{spec.algebra.label} match no catalogue item")
    parts.sort()
    return Decomposition(tuple(parts))


@lru_cache(maxsize=None)
def _factor_groups(algebra: SemisimpleAlgebra):
    """(sorted algebra, groups): the factors sorted by type, and for each
    run of equal types in that order the coordinate indices of its
    factors in the input algebra."""
    order = sorted(range(len(algebra.factors)),
                   key=lambda i: (algebra.factors[i], i))
    ranges = algebra.block_ranges()
    groups: list[list[tuple[int, ...]]] = []
    for j, i in enumerate(order):
        if j and algebra.factors[order[j - 1]] == algebra.factors[i]:
            groups[-1].append(tuple(ranges[i]))
        else:
            groups.append([tuple(ranges[i])])
    return SemisimpleAlgebra(tuple(algebra.factors[i] for i in order)), groups


def _canonical_summands(algebra: SemisimpleAlgebra, summands):
    """The canonical (algebra, ((coords, mult), ...)) of a sum of irreducibles.

    summands are (coords, mult) pairs over algebra with distinct coords.
    The factor list is sorted, and among all block permutations that
    preserve it the one giving the least sorted (coords, mult) tuple is
    chosen.  Only the permutations that sort the blocks of some summand
    reaching the least first entry are tried: a permutation's first
    entry is its least permuted summand, the least one any permutation
    can give is a summand with its blocks sorted within each run of
    equal factors, and a permutation reaches it only by sorting such a
    summand, so the least tuple is among those tried.
    """
    sorted_alg, groups = _factor_groups(algebra)
    summands = list(summands)

    def ties(c):
        """c's factors (as coordinate indices) in sorted block order,
        grouped into runs of equal factors with equal blocks."""
        runs = []
        for g in groups:
            last = None
            for block, ix in sorted((tuple(c[i] for i in ix), ix) for ix in g):
                if block == last:
                    runs[-1].append(ix)
                else:
                    runs.append([ix])
                last = block
        return runs

    heads = []
    for c, m in summands:
        runs = ties(c)
        heads.append(((tuple(c[i] for run in runs for ix in run for i in ix),
                       m), runs))
    first = min(h for h, _ in heads)
    # each permutation as the input coordinate indices in their new order
    perms = {tuple(i for run in choice for ix in run for i in ix)
             for h, runs in heads if h == first
             for choice in product(*map(permutations, runs))}
    best = min(tuple(sorted((tuple(map(c.__getitem__, perm)), m)
                            for c, m in summands))
               for perm in perms)
    return sorted_alg, best


def canonical_form(algebra: SemisimpleAlgebra, spec: RepSpec
                   ) -> tuple[SemisimpleAlgebra, RepSpec]:
    """Canonical representative under permutation of equal factors, as
    `_canonical_summands` finds it."""
    sorted_alg, best = _canonical_summands(algebra, spec.summands)
    return sorted_alg, RepSpec(sorted_alg, best)


@lru_cache(maxsize=None)
def multiplicity_free_irreps(t: SimpleType, max_dim: int
                             ) -> tuple[tuple[int, ...], ...]:
    """Dominant weights (incl. zero) with multiplicity-free character.

    No character is built.  V(lambda) has weyl_dimension(lambda) weights
    counted with multiplicity and `weight_count` distinct ones, so it is
    multiplicity free iff the two are equal.  The distinct weights are
    the Weyl orbits of the dominant weights below lambda (the weight set
    is saturated), and the orbit of a dominant mu has a size fixed by
    which coordinates of mu are zero, since its stabiliser is the
    parabolic subgroup those simple reflections generate; so the count
    is a sum of cached orbit sizes, one per zero pattern.
    """
    return tuple(coords for coords, dim in _dominant_weights_up_to_dim(t, max_dim)
                 if weight_count(t, coords) == dim)


@lru_cache(maxsize=None)
def _dominant_weights_up_to_dim(t: SimpleType, max_dim: int
                                ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All dominant weights with Weyl dimension <= max_dim, as sorted
    (coords, dimension) pairs.

    The Weyl dimension is strictly increasing in every coordinate, so the
    scan grows the coordinates axis by axis and stops an axis at the
    first weight over the bound, the later coordinates held at zero.
    """
    alg = SemisimpleAlgebra((t,))
    out = []

    def grow(prefix):
        pad = (0,) * (t.rank - len(prefix) - 1)
        k = 0
        while (dim := weyl_dimension(alg, prefix + (k,) + pad)) <= max_dim:
            if pad:
                grow(prefix + (k,))
            else:
                out.append((prefix + (k,), dim))
            k += 1

    grow(())
    return tuple(out)


@lru_cache(maxsize=None)
def _irrep_data(t: SimpleType, coords: tuple[int, ...]):
    """(support, mass) of one irreducible, read off its dominant weights."""
    return (weight_support(t, coords),
            weyl_dimension(SemisimpleAlgebra((t,)), coords))


@lru_cache(maxsize=None)
def _single_factor_parts(t: SimpleType, budget: int):
    """Exhaustive rectangular parts over one simple factor.

    A part is a disjoint-support sum of multiplicity-free irreducibles
    (possibly including the trivial one) that acts faithfully and whose
    character passes the box detector.  Returns (summands, dim, lengths)
    tuples sorted by dimension; `lengths` are the box lengths padded to
    the rank of t.

    For A1 the parts are in closed form, with no detector call: a single
    symmetric power Sym^r, whose support is the step-2 progression from
    -r to r (a box of length r + 1), or a pair of adjacent ones, whose
    supports, of opposite parities, fill every integer from -(r1 + 1) to
    r1 + 1 (length r1 + r2 + 2).  No other sum is rectangular: a
    symmetric union of two parity-separated progressions is an
    arithmetic progression only when the degrees are adjacent.  The
    tests confirm every A1 part with the detector.

    Over other types the search walks the disjoint-support sums and asks
    the detector only when the chosen highest weights are closed under
    `dual_weight`.  The character of a disjoint sum is the indicator of
    its support U, and the detector accepts only U = -U; since
    supp V(lambda*) = -supp V(lambda), U is symmetric if the chosen set
    is closed.  Conversely, if U = -U, a weight of U maximal in the
    dominance order is the highest weight lambda of the summand holding
    it; as -U is the disjoint union of the duals' supports, it is also
    the highest weight of a dual, so lambda* is chosen.  Peel off the
    supports of lambda and lambda* and induct.
    """
    if t.label == "A1":
        out = [(((r,),), r + 1, (r + 1,)) for r in range(1, budget)]
        out += [(((r2,), (r2 + 1,)), 2 * r2 + 3, (2 * r2 + 3,))
                for r2 in range((budget - 1) // 2)]
        out.sort(key=lambda x: (x[1], x[0]))
        return tuple(out)
    alg = SemisimpleAlgebra((t,))
    irreps = []
    for coords in multiplicity_free_irreps(t, budget):
        support, mass = _irrep_data(t, coords)
        irreps.append((mass, coords, support, dual_weight(alg, coords)))
    irreps.sort()
    n = len(irreps)
    zero = (0,) * t.rank
    out = []

    def extend(start, chosen, support, dim, unpaired):
        # unpaired: the chosen weights whose dual is not chosen
        for idx in range(start, n):
            mass, coords, supp, dual = irreps[idx]
            if dim + mass > budget:
                break
            if support & supp:
                continue
            sub = chosen + [coords]
            merged = support | supp
            if dual == coords:
                left = unpaired
            elif dual in chosen:
                left = unpaired - 1
            else:
                left = unpaired + 1
            if not left and any(c != zero for c in sub):
                cert = detect_rectangular_points(merged, t.rank)
                if cert is not None:
                    out.append((tuple(sorted(sub)), dim + mass,
                                lengths(with_ambient_padding(cert, t.rank))))
            extend(idx + 1, sub, merged, dim + mass, left)

    extend(0, [], frozenset(), 0, 0)
    out.sort(key=lambda x: (x[1], x[0]))
    return tuple(out)


@lru_cache(maxsize=None)
def _a1_pair_parts(budget: int):
    """Exhaustive unsplittable rectangular parts over an A1 pair.

    Summands are Sym^r1 x Sym^r2, whose support is the class grid of
    points (x1, x2) with |x1| <= r1, |x2| <= r2 and x1 = r1, x2 = r2
    (mod 2).  The candidates come from the box, not from subsets:

    - Each summand's support is stable under the two sign flips, the
      Weyl group of A1 x A1, and so is a part's.  A box stable under
      their product, -1, is centred, and each flip maps it onto itself,
      so it permutes the box's sides {+-e1, +-e2}.
    - Either both edges lie on the axes, and then the support is a grid
      A x B: each parity class of it is one class grid, so the part is
      a product of single-factor parts, or it is unfaithful.  Or a flip
      swaps the two sides: they have one length l and the edges are
      (p, q) and (p, -q), with p, q > 0.
    - Take the largest point (hp, 0) on the row x2 = 0, where h = l - 1.
      The class grid holding it also holds (hp - 2, 0), and the row's
      points are spaced 2p apart, so that point is on the row only if
      p = 1.  The column x1 = 0 forces q = 1 in the same way.
    - So for each l from 2 to isqrt(budget) there is one candidate, the
      diamond |x1| + |x2| <= l - 1 with x1 + x2 = l - 1 (mod 2).

    Each diamond is peeled: its point with the largest x1 + x2 is the
    top (r1, r2) of the class grid holding it, that grid is removed, and
    the diamond fails as soon as a grid is not contained in what is
    left.  So a diamond splits into at most one set of summands.  A
    diamond of side l >= 2 is no grid and meets both axes off the
    origin, so its part neither splits nor is unfaithful; the detector
    confirms each part that survives and gives its lengths.  A diamond
    is its own transpose, and so is its part.

    Returns (summands, dim, lengths) tuples like `_single_factor_parts`.
    """
    out = []
    for l in range(2, isqrt(budget) + 1):
        h = l - 1
        diamond = {(a, b) for a in range(-h, h + 1)
                   for b in range(abs(a) - h, h - abs(a) + 1, 2)}
        left, summands = set(diamond), []
        while left:
            r1, r2 = max(left, key=sum)
            grid = {(a, b) for a in range(-r1, r1 + 1, 2)
                    for b in range(-r2, r2 + 1, 2)}
            if not grid <= left:
                break
            left -= grid
            summands.append((r1, r2))
        else:
            cert = detect_rectangular_points(diamond, 2)
            if cert is not None:
                out.append((tuple(sorted(summands)), l * l,
                            lengths(with_ambient_padding(cert, 2))))
    return tuple(out)


def _simple_types_up_to(max_rank: int):
    out = []
    for fam, ranks in (("A", range(1, max_rank + 1)),
                       ("B", range(2, max_rank + 1)),
                       ("C", range(3, max_rank + 1)),
                       ("D", range(4, max_rank + 1)),
                       ("G", [2] if max_rank >= 2 else []),
                       ("F", [4] if max_rank >= 4 else [])):
        for r in ranks:
            out.append(SimpleType(fam, r))
    return sorted(out)


def _algebras_up_to(max_rank: int):
    types = _simple_types_up_to(max_rank)
    found = []

    def extend(start, chosen, rank):
        if chosen:
            found.append(SemisimpleAlgebra(tuple(chosen)))
        for i in range(start, len(types)):
            t = types[i]
            if rank + t.rank <= max_rank:
                extend(i, chosen + [t], rank + t.rank)

    extend(0, [], 0)
    return sorted(found, key=lambda a: (a.rank, a.label))


def _check_bounds(max_rank: int, max_dim: int) -> None:
    """Raise ValueError unless the bounds are within desk scale."""
    if not 1 <= max_rank <= MAX_RANK:
        raise ValueError(f"max_rank must be in [1, {MAX_RANK}]")
    if not 1 <= max_dim <= MAX_DIM:
        raise ValueError(f"max_dim must be in [1, {MAX_DIM}]")


def _check_census_rank(max_rank: int) -> None:
    """Raise ValueError unless the censuses have a B_n to scan (n >= 2)."""
    if max_rank < 2:
        raise ValueError("census needs max_rank >= 2")


def _algebra_pool(max_rank: int, max_dim: int, algebras=None
                  ) -> list[SemisimpleAlgebra]:
    """The algebras `enumerate_rectangular` scans, after its bound checks.

    Raise ValueError on out-of-range bounds or on an override algebra of
    rank above max_rank; its dry run calls this too.
    """
    _check_bounds(max_rank, max_dim)
    if algebras is None:
        return _algebras_up_to(max_rank)
    pool = [a if isinstance(a, SemisimpleAlgebra)
            else SemisimpleAlgebra.parse(a) for a in algebras]
    if any(a.rank > max_rank for a in pool):
        raise ValueError("algebra override exceeds max_rank")
    return pool


def enumerate_rectangular(max_rank: int, max_dim: int, algebras=None
                          ) -> list[tuple[SemisimpleAlgebra, RepSpec,
                                          tuple[int, ...]]]:
    """All faithful multiplicity-free rectangular specs within bounds.

    One algebra per isomorphism class (sorted factor labels); one spec
    per orbit under permutation of equal factors, in canonical form.
    Returns (algebra, spec, lengths) triples: the sorted box lengths,
    padded to the algebra's rank, joined from the parts' certificates.

    Orderly assembly builds each orbit once.  With p A1 pairs the only
    pairing is (a1[0], a1[1]), (a1[2], a1[3]), ...; the other A1 factors
    are singles.  Parts of one class (every A1 pair, or every single
    factor of one simple type, adjacent or not) share one candidate list
    and take non-decreasing indices into it.  Permuting equal factors
    maps any decomposition onto exactly one such choice, so every orbit
    is reached once, and a second leaf landing on an already found spec
    raises AssertionError: it would be a second decomposition, or a pair
    candidate P whose transpose is another candidate.  The only pair
    candidate at any budget, D2Spin, is its own transpose
    (`_a1_pair_parts`).

    Each class is searched once, at the most room any of its parts gets
    over the pool.  The search is exhaustive and sorted by dimension, so
    the search at a smaller room r is the prefix with dim <= r, and the
    dimension bound in the assembly stops each part there.
    """
    algebras = [a for a in _algebra_pool(max_rank, max_dim, algebras)
                if 2 ** len(a.factors) <= max_dim]
    # each other factor takes at least dimension 2, so a part of j factors
    # in an algebra of k has room max_dim // 2 ** (k - j); each class (a
    # simple type, or None for an A1 pair) is searched once, at the most
    # room any of its parts gets
    room: dict = {}
    for algebra in algebras:
        k = len(algebra.factors)
        for t in algebra.factors:
            room[t] = max(room.get(t, 0), max_dim // 2 ** (k - 1))
        if sum(t.label == "A1" for t in algebra.factors) >= 2:
            room[None] = max(room.get(None, 0), max_dim // 2 ** (k - 2))
    searched = {c: _a1_pair_parts(r) if c is None
                else _single_factor_parts(c, r) for c, r in room.items()}
    results: dict = {}
    for algebra in algebras:
        k = len(algebra.factors)
        a1 = [i for i, t in enumerate(algebra.factors) if t.label == "A1"]
        for p in range(len(a1) // 2 + 1):
            paired = a1[:2 * p]
            parts = sorted([(i,) for i in range(k) if i not in paired]
                           + list(zip(paired[::2], paired[1::2])))
            rest = [2 ** sum(map(len, parts[i + 1:]))
                    for i in range(len(parts))]
            cls = [algebra.factors[part[0]] if len(part) == 1 else None
                   for part in parts]
            part_cands = [searched[c] for c in cls]
            # the previous part of the same class, whose index is a floor
            floor = [max((j for j in range(i) if cls[j] == cls[i]),
                         default=None) for i in range(len(parts))]
            # the factors in part order; the canonical form does not
            # depend on the order of the factors, so the tensor product
            # of the parts' summands is not reordered
            layout = SemisimpleAlgebra(tuple(algebra.factors[i]
                                             for part in parts for i in part))

            def assemble(pi, chosen, dim):
                if pi == len(parts):
                    picked = [part_cands[j][c] for j, c in enumerate(chosen)]
                    key = _canonical_summands(layout, [
                        (sum(combo, ()), 1)
                        for combo in product(*(cand[0] for cand in picked))])
                    if key in results:
                        raise AssertionError(
                            f"{_spec_label(key[0], RepSpec(*key))} assembled twice")
                    results[key] = (tuple(sorted(ln for cand in picked
                                                 for ln in cand[2])),)
                    return
                cands = part_cands[pi]
                start = 0 if floor[pi] is None else chosen[floor[pi]]
                for c in range(start, len(cands)):
                    # dim * rest counts at least 2 per other factor, so
                    # this stops at the part's own room
                    if dim * cands[c][1] * rest[pi] > max_dim:
                        break
                    assemble(pi + 1, chosen + [c], dim * cands[c][1])

            assemble(0, [], 1)
    return _sorted_specs(results)


def _sorted_specs(results: dict) -> list:
    """(algebra, RepSpec, *extra) for each canonical key (algebra,
    ((coords, mult), ...)) of results, whose value is the tuple extra,
    sorted by rank, algebra label and summands."""
    return [(alg, RepSpec(alg, best), *results[alg, best])
            for alg, best in sorted(results, key=lambda k: (
                k[0].rank, k[0].label, k[1]))]


def catalogue_closure(max_rank: int, max_dim: int, items=None
                      ) -> list[tuple[SemisimpleAlgebra, RepSpec]]:
    """External tensor products of catalogue items within the bounds."""
    if items is None:
        items = list(iter_catalogue_items(max_rank, max_dim))
    items = sorted(items, key=lambda it: (prod(catalogue_lengths(it)), it))
    specs = {it: catalogue_spec(it) for it in items}
    results: dict = {}

    def emit(chosen):
        factors, parts = (), []
        for it in chosen:
            alg, spec = specs[it]
            parts.append((range(len(factors), len(factors) + len(alg.factors)),
                          dict(spec.summands)))
            factors += alg.factors
        algebra = SemisimpleAlgebra(factors)
        results[_canonical_summands(
            algebra, _tensor_coords(algebra, parts).items())] = ()

    def extend(start, chosen, rank, dim):
        if chosen:
            emit(chosen)
        for i in range(start, len(items)):
            it = items[i]
            ls = catalogue_lengths(it)
            d, r = prod(ls), len(ls)
            if dim * d > max_dim:
                break
            if rank + r <= max_rank:
                extend(i, chosen + [it], rank + r, dim * d)

    extend(0, [], 0, 1)
    return _sorted_specs(results)


def _spec_label(algebra: SemisimpleAlgebra, spec: RepSpec) -> str:
    parts = []
    for hw, mult in spec.summands:
        prefix = f"{mult}*" if mult > 1 else ""
        parts.append(prefix + "hw(" + ",".join(map(str, hw)) + ")")
    return f"{algebra.label}: " + " + ".join(parts)


def _shuffle_factors(algebra: SemisimpleAlgebra, spec: RepSpec, seed: int
                     ) -> tuple[SemisimpleAlgebra, RepSpec]:
    """The same representation with its factors in a seeded random order."""
    order = random.Random(seed).sample(range(len(algebra.factors)),
                                       len(algebra.factors))
    ranges = algebra.block_ranges()
    shuffled = SemisimpleAlgebra(tuple(algebra.factors[i] for i in order))
    return shuffled, RepSpec(shuffled, [
        (tuple(x for i in order for x in hw[ranges[i].start:ranges[i].stop]),
         m) for hw, m in spec.summands])


def verify_classification(max_rank: int, max_dim: int, items=None,
                          seed: int = 0) -> dict:
    """Compare brute-force enumeration against the catalogue closure.

    Two independently written generators must produce identical canonical
    sets; every enumerated spec must decompose, with the catalogue
    items' lengths equal to the enumerated ones; structural
    corollaries (power-of-two summand counts, even-length specs being
    irreducible A1 tensors) must hold.  Up to 20 sampled specs are spot
    checked: the detector must give the enumerated lengths on a random
    unimodular image, and `canonical_form` must bring back the spec from
    its factors in a random order.  `items` substitutes a tampered
    catalogue for negative-control testing.
    """
    enumerated = enumerate_rectangular(max_rank, max_dim)
    closure = catalogue_closure(max_rank, max_dim, items=items)
    especs = {(a, s) for a, s, _ in enumerated}
    cspecs = set(closure)

    def labels(pairs):
        return [_spec_label(a, s) for a, s in sorted(
            pairs, key=lambda p: (p[0].rank, p[0].label, p[1].summands))]

    missing = labels(especs - cspecs)
    unexpected = labels(cspecs - especs)
    roundtrip_failures = []
    corollary_violations = []
    rng_specs = []
    for algebra, spec, ls in enumerated:
        try:
            dec = decompose(spec)
        except (NotFaithfulError, NotRectangularError, CatalogueMismatchError) as e:
            roundtrip_failures.append(f"{_spec_label(algebra, spec)}: {e}")
            continue
        if dec.lengths != ls:
            roundtrip_failures.append(
                f"{_spec_label(algebra, spec)}: catalogue lengths "
                f"{dec.lengths}, enumerated lengths {ls}")
            continue
        count = len(spec.summands)
        if count & (count - 1):
            corollary_violations.append(
                f"{_spec_label(algebra, spec)}: {count} summands")
        if all(l % 2 == 0 for l in ls) and sum(1 for l in ls if l == 2) <= 1:
            pure_a1 = all(t.label == "A1" for t in algebra.factors)
            if not (pure_a1 and len(spec.summands) == 1):
                corollary_violations.append(
                    f"{_spec_label(algebra, spec)}: even lengths {ls} "
                    "but not an irreducible A1 tensor")
        rng_specs.append((algebra, spec, ls))
    rng = random.Random(seed)
    spot_checks = 0
    spot_failures = []
    sample = rng_specs if len(rng_specs) <= 20 else rng.sample(rng_specs, 20)
    for algebra, spec, ls in sample:
        s = from_character(character_of(spec))
        mat_seed = rng.randrange(2**30)
        mat = random_unimodular(algebra.rank, mat_seed)
        cert2 = detect_rectangular(transform(s, mat))
        spot_checks += 1
        if (cert2 is None
                or lengths(with_ambient_padding(cert2, algebra.rank)) != ls
                or canonical_form(*_shuffle_factors(algebra, spec, mat_seed))
                != (algebra, spec)):
            spot_failures.append(_spec_label(algebra, spec))
    ok = not (missing or unexpected or roundtrip_failures
              or corollary_violations or spot_failures)
    return {
        "max_rank": max_rank,
        "max_dim": max_dim,
        "enumerated": len(enumerated),
        "catalogue": len(closure),
        "equal": not missing and not unexpected,
        "missing_from_catalogue": missing,
        "unexpected_in_catalogue": unexpected,
        "roundtrip_failures": roundtrip_failures,
        "corollary_violations": corollary_violations,
        "unimodular_spot_checks": spot_checks,
        "unimodular_failures": spot_failures,
        "ok": ok,
    }


def _howe_expected(t: SimpleType, max_dim: int) -> frozenset:
    """The classified multiplicity-free highest weights, within max_dim."""
    alg = SemisimpleAlgebra((t,))
    m = t.rank
    zero = (0,) * m
    out = {zero}
    fam = t.family
    if fam == "A":
        out.update(_fw(m, i) for i in range(m))
        k = 1
        # sym k and its dual
        while weyl_dimension(alg, (k,) + zero[1:]) <= max_dim:
            out.add((k,) + zero[1:])
            out.add(zero[1:] + (k,))
            k += 1
    elif fam == "B":
        out.update([_fw(m, 0), _fw(m, m - 1)])
    elif fam == "C":
        out.add(_fw(m, 0))
        if m == 3:
            out.add(_fw(m, 2))
    elif fam == "D":
        out.update([_fw(m, 0), _fw(m, m - 2), _fw(m, m - 1)])
    elif fam == "G":
        out.add(_fw(m, 0))
    elif fam != "F":
        raise ValueError(f"no expected list for {t.label}")
    return frozenset(w for w in out if weyl_dimension(alg, w) <= max_dim)


def _check_howe_bounds(t: SimpleType, max_dim: int) -> None:
    """Raise ValueError unless verify_howe's scan is non-empty and desk-scale."""
    if max_dim < 1:
        raise ValueError("verify_howe needs max_dim >= 1")
    if t.rank > 4:
        raise ValueError("verify_howe is desk-scale: rank <= 4")
    if max_dim > 512:
        raise ValueError("verify_howe is desk-scale: max_dim <= 512")


def verify_howe(t: SimpleType, max_dim: int) -> dict:
    """Check the multiplicity-free classification for one simple type."""
    _check_howe_bounds(t, max_dim)
    flagged_set = frozenset(multiplicity_free_irreps(t, max_dim))
    expected = _howe_expected(t, max_dim)
    return {
        "type": t.label,
        "max_dim": max_dim,
        "scanned": len(_dominant_weights_up_to_dim(t, max_dim)),
        "flagged": sorted(flagged_set),
        "expected": sorted(expected),
        "extra": sorted(flagged_set - expected),
        "missing": sorted(expected - flagged_set),
        "ok": flagged_set == expected,
    }


def _bn_roots_ortho(n: int):
    """Roots of B_n in orthogonal coordinates, as integer vectors."""
    t = SimpleType("B", n)
    roots = []
    for rc in positive_root_coords(t):
        v = tuple(int(x) for x in ortho_coords(t, rc))
        roots.append(v)
        roots.append(vec_neg(v))
    return sorted(roots)


def _rich_spans(vectors, k: int, least: int):
    """The k-spaces spanned by k of the vectors, and the rich ones.

    Returns the number of distinct spans, and (key, members, standard) in
    key order for each span holding at least `least` of the vectors: key
    is the span's `rational_rref` form, members the vectors it holds, and
    standard whether it is spanned by coordinate axes.
    """
    spans = {rational_rref(list(sub)) for sub in combinations(vectors, k)}
    spans = sorted(key for key in spans if len(key) == k)
    rich = []
    for key in spans:
        members = [v for v in vectors if rank(key + (v,)) == k]
        if len(members) >= least:
            standard = all(sum(1 for x in row if x) == 1 for row in key)
            rich.append((key, members, standard))
    return len(spans), rich


def roots_in_plane_census(n: int) -> dict:
    """Census of 2-spaces spanned by root pairs of B_n.

    Every plane holding at least 8 roots must be a standard coordinate
    plane with exactly 8 roots: 4 long and 4 short.
    """
    if not 2 <= n <= 4:
        raise ValueError("census covers 2 <= n <= 4")
    scanned, found = _rich_spans(_bn_roots_ortho(n), 2, 8)
    rich = []
    violations = []
    for key, members, standard in found:
        longs = [r for r in members if vec_dot(r, r) == 2]
        shorts = [r for r in members if vec_dot(r, r) == 1]
        entry = {"basis": key, "roots": len(members),
                 "long": len(longs), "short": len(shorts),
                 "standard": standard}
        rich.append(entry)
        if not standard or len(members) != 8 or len(longs) != 4 or len(shorts) != 4:
            violations.append(entry)
    expected_rich = n * (n - 1) // 2
    if len(rich) != expected_rich:
        violations.append({"note": f"expected {expected_rich} rich planes, "
                                   f"found {len(rich)}"})
    return {"n": n, "planes_scanned": scanned, "rich_planes": len(rich),
            "violations": violations, "ok": not violations}


def _primitive_normal(key) -> tuple[int, ...]:
    """Primitive integer normal of a hyperplane, leading entry positive.

    key is the hyperplane's `rational_rref` form: row i has its pivot
    p_i > 0 in column c_i and zeros in the other pivot columns.  With
    L = prod(p_i), the normal has L in the one free column f and
    -row_i[f].L/p_i in column c_i.
    """
    pivots = [next(j for j, x in enumerate(row) if x) for row in key]
    free = next(j for j in range(len(key[0])) if j not in pivots)
    scale = prod(row[c] for row, c in zip(key, pivots))
    normal = [0] * len(key[0])
    normal[free] = scale
    for row, c in zip(key, pivots):
        normal[c] = -row[free] * scale // row[c]
    g = gcd(*normal)
    if next(x for x in normal if x) < 0:
        g = -g
    return tuple(x // g for x in normal)


def long_roots_3space_census(n: int) -> dict:
    """Census of 3-spaces spanned by long-root triples of B_n.

    Every 3-space with at least 12 long roots is either standard or, for
    n = 4, the orthogonal complement of a vector (1, s1, s2, s3) with
    signs s_i; the complements hold exactly 12 long roots.
    """
    if n not in (3, 4):
        raise ValueError("census covers n in {3, 4}")
    roots = _bn_roots_ortho(n)
    longs = [r for r in roots if vec_dot(r, r) == 2]
    scanned, found = _rich_spans(longs, 3, 12)
    rich = []
    violations = []
    for key, members, standard in found:
        normal = None
        sign_complement = False
        if n == 4 and not standard:
            normal = _primitive_normal(key)
            sign_complement = all(abs(x) == 1 for x in normal)
        entry = {"basis": key, "long_roots": len(members),
                 "standard": standard, "normal": normal}
        rich.append(entry)
        if not (standard or sign_complement) or len(members) != 12:
            violations.append(entry)
    sign_checks = []
    if n == 4:
        for signs in product((1, -1), repeat=3):
            v = (1,) + signs
            count = sum(1 for r in longs if vec_dot(r, v) == 0)
            sign_checks.append({"normal": v, "long_roots": count})
            if count != 12:
                violations.append({"normal": v, "long_roots": count})
    return {"n": n, "spaces_scanned": scanned, "rich_spaces": len(rich),
            "sign_complements": sign_checks,
            "violations": violations, "ok": not violations}
