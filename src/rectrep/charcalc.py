"""Formal characters of finite-dimensional representations.

Irreducible characters come from the Freudenthal multiplicity recursion;
the Weyl dimension formula is kept as an independent oracle for the total
mass.  Both run in exact int arithmetic under the integer Gram form
Gi = n.G of each simple type, built once by `_root_data`; the scale n
cancels in every quotient they take.  Their former `Fraction` forms are
the test oracles in tests/oracles.py.  Characters of product algebras are
assembled factor by factor and tensored, never computed by a
product-algebra recursion.  The number and the set of distinct weights
need no multiplicities: `weight_count` and `weight_support` read them
off the dominant weights and their Weyl orbits.

All character entries are keyed by fundamental-weight coordinate tuples;
the algebra on the container fixes their meaning.  Named aliases (std,
spin, spin+, spin-, sym k, wedge k, triv, dual) resolve to dominant
weights here, per simple family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactlin import IntVector, mat_vec, rational_rref, vec_dot
from .liealg import (SemisimpleAlgebra, SimpleType, Weight, cartan_matrix,
                     dominant_conjugate_coords, positive_root_coords,
                     symmetrizer, weyl_orbit_coords)


@lru_cache(maxsize=None)
def _cartan_inverse(t: SimpleType) -> tuple[tuple[Fraction, ...], ...]:
    """C^-1, read off the reduced echelon form of [C | I].

    C is invertible, so row i of the form is (k.e_i | k.C^-1_i) with the
    pivot k > 0.
    """
    m = t.rank
    rows = rational_rref([list(row) + [int(i == j) for j in range(m)]
                          for i, row in enumerate(cartan_matrix(t))])
    return tuple(tuple(Fraction(row[m + j], row[i]) for j in range(m))
                 for i, row in enumerate(rows))


@lru_cache(maxsize=None)
def _gram(t: SimpleType) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the fundamental weights, G = diag(d) . C^-1.

    Normalized so (alpha, alpha)/2 equals the symmetrizer entry; any
    positive scaling works since the recursion only uses ratios.
    """
    cinv = _cartan_inverse(t)
    d = symmetrizer(t)
    return tuple(tuple(d[i] * cinv[i][j] for j in range(t.rank))
                 for i in range(t.rank))


@lru_cache(maxsize=None)
def _root_data(t: SimpleType) -> tuple[int, tuple[IntVector, ...],
                                       tuple[tuple[IntVector, IntVector, int], ...]]:
    """Integer root data of one simple type: (n, Gi, roots).

    Gi = n.G is the Gram matrix scaled by the lcm n of its denominators,
    and roots holds (alpha, Gi.alpha, <rho, Gi.alpha>) for each positive
    root alpha.  The Freudenthal and Weyl quotients are ratios of Gi
    pairings, so the scale n cancels and both run in int arithmetic.
    """
    g = _gram(t)
    n = lcm(*(x.denominator for row in g for x in row))
    scaled = [[n * x for x in row] for row in g]
    if any(x.denominator != 1 for row in scaled for x in row):
        raise AssertionError(f"scaled Gram matrix of {t.label} is not integral")
    gi = tuple(tuple(x.numerator for x in row) for row in scaled)
    roots = []
    for alpha in positive_root_coords(t):
        galpha = mat_vec(gi, alpha)
        roots.append((alpha, galpha, sum(galpha)))
    return n, gi, tuple(roots)


@lru_cache(maxsize=None)
def _single_algebra(t: SimpleType) -> SemisimpleAlgebra:
    return SemisimpleAlgebra((t,))


@lru_cache(maxsize=None)
def _dominant_weights(t: SimpleType, hw: IntVector) -> tuple[IntVector, ...]:
    """Dominant weights of the irreducible with highest weight hw.

    These are exactly the dominant mu with hw - mu a nonnegative integer
    combination c of simple roots, sorted by depth sum(c), then by mu.
    They are found by walking down from hw by positive roots and keeping
    the dominant weights: in the dominance order on dominant weights a
    weight covers another only when they differ by a positive root
    (Stembridge, The partial order of dominant weights, Adv. Math. 136,
    1998), so every one is reached.  A root's depth is its height, the
    sum of its simple-root coordinates C^-1.alpha = Gi.alpha / (n.d).

    The weight set of an irreducible is saturated: every such mu is a
    weight, and every weight is a Weyl conjugate of one (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 21.3).  Both
    `weight_count` and `weight_support` rest on this, and so does
    Freudenthal's `mult <= 0` check: a listed mu must come out positive.
    """
    n, _, roots = _root_data(t)
    d = symmetrizer(t)
    steps = [(alpha, sum(x // (n * di) for x, di in zip(galpha, d)))
             for alpha, galpha, _ in roots]
    depth = {hw: 0}
    stack = [hw]
    while stack:
        mu = stack.pop()
        for alpha, height in steps:
            nu = tuple(a - b for a, b in zip(mu, alpha))
            if nu not in depth and all(x >= 0 for x in nu):
                depth[nu] = depth[mu] + height
                stack.append(nu)
    return tuple(sorted(depth, key=lambda mu: (depth[mu], mu)))


@lru_cache(maxsize=None)
def _orbit_size(t: SimpleType, pattern: IntVector) -> int:
    """|W.mu| for every dominant mu whose nonzero coordinates are pattern's.

    The stabiliser of a dominant mu is the parabolic subgroup generated
    by the simple reflections s_i with mu_i = 0, so the orbit size
    depends on the zero pattern alone, and the 0/1 weight `pattern` is
    one such mu.  At most 2^rank entries per type.
    """
    return len(weyl_orbit_coords(_single_algebra(t), pattern))


def weight_count(t: SimpleType, hw: IntVector) -> int:
    """Number of distinct weights of the irreducible with highest weight hw.

    The weights are the disjoint union of the Weyl orbits of the dominant
    weights (saturation, see `_dominant_weights`), so this is a sum of
    orbit sizes; no multiplicity is computed.
    """
    return sum(_orbit_size(t, tuple(int(x > 0) for x in mu))
               for mu in _dominant_weights(t, hw))


def weight_support(t: SimpleType, hw: IntVector) -> frozenset[IntVector]:
    """Distinct weights of the irreducible with highest weight hw: the
    union of the Weyl orbits of its dominant weights (no multiplicities)."""
    alg = _single_algebra(t)
    return frozenset().union(*(weyl_orbit_coords(alg, mu)
                               for mu in _dominant_weights(t, hw)))


@lru_cache(maxsize=None)
def _simple_character(t: SimpleType, hw: IntVector) -> tuple[tuple[IntVector, int], ...]:
    """Full weight multiset of one simple-factor irreducible (Freudenthal).

    Dominant weights are taken by depth, and each multiplicity, once
    found, is written on the weight's whole Weyl orbit.  A string weight
    nu = mu + k.alpha lies strictly above mu, so its dominant conjugate is
    shallower than mu and its orbit is already in the table (or nu is no
    weight): the string walk reads nu itself, with no reflection.
    """
    if any(x < 0 for x in hw):
        raise ValueError(f"highest weight {hw} is not dominant")
    alg = _single_algebra(t)
    _, gi, roots = _root_data(t)

    def norm(v):
        return vec_dot(v, mat_vec(gi, v))

    top_norm = norm(tuple(x + 1 for x in hw))
    known: dict[IntVector, int] = {}
    for mu in _dominant_weights(t, hw):
        mult = 1
        if mu != hw:
            total = 0
            for alpha, galpha, _ in roots:
                ip, step = vec_dot(mu, galpha), vec_dot(alpha, galpha)
                nu = mu
                while True:
                    nu = tuple(a + b for a, b in zip(nu, alpha))
                    m = known.get(nu)
                    if m is None:
                        break
                    ip += step
                    total += m * ip
            mult, rem = divmod(2 * total,
                               top_norm - norm(tuple(x + 1 for x in mu)))
            if rem or mult <= 0:
                raise AssertionError(f"non-integral multiplicity at {mu}")
        known.update(dict.fromkeys(weyl_orbit_coords(alg, mu), mult))
    return tuple(sorted(known.items()))


@dataclass
class FormalCharacter:
    """A weight multiset: coordinate tuple -> positive multiplicity."""

    algebra: SemisimpleAlgebra
    entries: dict[IntVector, int] = field(default_factory=dict)

    @property
    def mass(self) -> int:
        return sum(self.entries.values())

    @property
    def support(self) -> frozenset[IntVector]:
        return frozenset(self.entries)


@dataclass(frozen=True)
class RepSpec:
    """A finite-dimensional representation as a sum of irreducibles.

    Summands are (highest weight, multiplicity) pairs, kept sorted by
    coordinates and deduplicated, so equal representations compare equal.
    """

    algebra: SemisimpleAlgebra
    summands: tuple[tuple[Weight, int], ...]

    def __post_init__(self):
        merged: dict[IntVector, int] = {}
        for hw, mult in self.summands:
            if hw.algebra != self.algebra:
                raise ValueError("summand belongs to a different algebra")
            if not hw.is_dominant:
                raise ValueError(f"{hw.coords} is not dominant")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            merged[hw.coords] = merged.get(hw.coords, 0) + mult
        canon = tuple((Weight(self.algebra, c), m)
                      for c, m in sorted(merged.items()))
        object.__setattr__(self, "summands", canon)

    @classmethod
    def make(cls, algebra: SemisimpleAlgebra, summands) -> "RepSpec":
        """Build from (coords-or-Weight, multiplicity) pairs."""
        pairs = []
        for hw, mult in summands:
            if not isinstance(hw, Weight):
                hw = Weight(algebra, tuple(hw))
            pairs.append((hw, mult))
        return cls(algebra, tuple(pairs))

    @property
    def dimension(self) -> int:
        return sum(mult * weyl_dimension(self.algebra, hw)
                   for hw, mult in self.summands)


def _coords_of(algebra: SemisimpleAlgebra, hw) -> IntVector:
    if isinstance(hw, Weight):
        if hw.algebra != algebra:
            raise ValueError("weight belongs to a different algebra")
        return hw.coords
    coords = tuple(hw)
    if len(coords) != algebra.rank:
        raise ValueError("coordinate length does not match the algebra rank")
    return coords


def weyl_dimension(algebra: SemisimpleAlgebra, hw) -> int:
    """Dimension of the irreducible with highest weight hw (Weyl formula)."""
    coords = _coords_of(algebra, hw)
    if any(x < 0 for x in coords):
        raise ValueError(f"highest weight {coords} is not dominant")
    dim = 1
    for t, rng in zip(algebra.factors, algebra.block_ranges()):
        lam_rho = tuple(x + 1 for x in coords[rng.start:rng.stop])
        num = den = 1
        for _, galpha, rho_galpha in _root_data(t)[2]:
            num *= vec_dot(lam_rho, galpha)
            den *= rho_galpha
        val, rem = divmod(num, den)
        if rem:
            raise AssertionError("Weyl dimension came out non-integral")
        dim *= val
    return dim


def irreducible_character(algebra: SemisimpleAlgebra, hw) -> FormalCharacter:
    coords = _coords_of(algebra, hw)
    if any(x < 0 for x in coords):
        raise ValueError(f"highest weight {coords} is not dominant")
    merged: dict[IntVector, int] = {(): 1}
    for t, rng in zip(algebra.factors, algebra.block_ranges()):
        block = coords[rng.start:rng.stop]
        part = _simple_character(t, block)
        merged = {u + v: mu * mv
                  for u, mu in merged.items() for v, mv in part}
    return FormalCharacter(algebra, merged)


def character_of(spec: RepSpec) -> FormalCharacter:
    out: dict[IntVector, int] = {}
    for hw, mult in spec.summands:
        for w, m in irreducible_character(spec.algebra, hw).entries.items():
            out[w] = out.get(w, 0) + mult * m
    return FormalCharacter(spec.algebra, out)


def dual_weight(hw: Weight) -> Weight:
    """Highest weight of the dual irreducible."""
    neg = tuple(-x for x in hw.coords)
    return Weight(hw.algebra, dominant_conjugate_coords(hw.algebra, neg))


def restrict_to_factors(c: FormalCharacter, part) -> FormalCharacter:
    indices = tuple(part)
    k = len(c.algebra.factors)
    if not indices or len(set(indices)) != len(indices):
        raise ValueError("factor index set must be non-empty and duplicate-free")
    if any(i < 0 or i >= k for i in indices):
        raise ValueError(f"factor index out of range for {c.algebra.label}")
    ranges = c.algebra.block_ranges()
    sub = SemisimpleAlgebra(tuple(c.algebra.factors[i] for i in indices))
    entries: dict[IntVector, int] = {}
    for w, m in c.entries.items():
        proj = tuple(x for i in indices for x in w[ranges[i].start:ranges[i].stop])
        entries[proj] = entries.get(proj, 0) + m
    return FormalCharacter(sub, entries)


def is_multiplicity_free(c: FormalCharacter) -> bool:
    return all(m == 1 for m in c.entries.values())


def is_faithful(spec: RepSpec) -> bool:
    """True iff every simple factor acts nontrivially on some summand."""
    ranges = spec.algebra.block_ranges()
    for rng in ranges:
        if not any(any(hw.coords[rng.start:rng.stop]) for hw, _ in spec.summands):
            return False
    return True


class AliasError(ValueError):
    """A named representation alias is undefined for the given family."""


def resolve_alias(t: SimpleType, name: str, arg: int | None = None
                  ) -> tuple[IntVector, ...]:
    """Dominant weight blocks named by an alias, in canonical order.

    Most aliases name one irreducible; "spin" on a D factor names the two
    half-spin summands.  The family is the canonical one, so e.g. "spin"
    on an algebra entered as C2 resolves via B2.
    """
    m = t.rank
    zero = (0,) * m

    def fw(k):
        return tuple(int(i == k) for i in range(m))

    if name == "triv":
        return (zero,)
    if name == "std":
        if t.family in "ABCD":
            return (fw(0),)
        raise AliasError(f"std is not defined for {t.label}")
    if name == "spin":
        if t.family == "B":
            return (fw(m - 1),)
        if t.family == "D":
            return (fw(m - 1), fw(m - 2))
        raise AliasError(f"spin is not defined for {t.label}"
                         + (" (its half-spins are std and dual(std))"
                            if t.label == "A3" else ""))
    if name == "spin+":
        if t.family == "D":
            return (fw(m - 1),)
        raise AliasError(f"spin+ is not defined for {t.label}")
    if name == "spin-":
        if t.family == "D":
            return (fw(m - 2),)
        raise AliasError(f"spin- is not defined for {t.label}")
    if name == "sym":
        if t.family != "A":
            raise AliasError(f"sym is only defined for A factors, not {t.label}")
        if arg is None or arg < 0:
            raise AliasError("sym needs a non-negative integer")
        return (tuple(arg * int(i == 0) for i in range(m)),)
    if name == "wedge":
        if t.family != "A":
            raise AliasError(f"wedge is only defined for A factors, not {t.label}")
        if arg is None or arg < 0 or arg > m + 1:
            raise AliasError(f"wedge on {t.label} needs an integer in [0, {m + 1}]")
        if arg in (0, m + 1):
            return (zero,)
        return (fw(arg - 1),)
    raise AliasError(f"unknown representation name {name!r}")
