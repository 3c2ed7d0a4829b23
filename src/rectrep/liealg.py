"""Semisimple Lie algebra descriptors, root systems, and Weyl group actions.

Weights are stored in fundamental-weight coordinates with respect to the
Bourbaki node ordering, one coordinate block per simple factor.  The
simple root alpha_j, written in fundamental-weight coordinates, is column
j of the Cartan matrix, so the simple reflection acts by

    s_i(w)_j = w_j - w_i * C[j][i].

Orthogonal realizations follow the classical conventions: B/C/D of rank m
live in Q^m with roots {+-e_i, +-e_i+-e_j}; A_m lives in the sum-zero
hyperplane of Q^(m+1) so the standard representation has weights
f_1, ..., f_(m+1) with f_1 + ... + f_(m+1) = 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactlin import IntVector, vec_add, vec_sub

_FAMILIES = frozenset("ABCDEFG")

# (family, rank) pairs naming the same algebra; the left entry is canonical
_COINCIDENCES = {("B", 1): ("A", 1), ("C", 1): ("A", 1),
                 ("C", 2): ("B", 2), ("D", 3): ("A", 3)}


def record(name: str, fields: str, **kwargs):
    """A namedtuple base for a record class whose `_make`, and with it
    `_replace`, builds through the subclass's `__new__` and its checks."""
    base = namedtuple(name, fields, **kwargs)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class SimpleType(record("SimpleType", "family rank")):
    """A simple Lie algebra, canonicalized across the low-rank coincidences."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        family, rank = _COINCIDENCES.get((family, rank), (family, rank))
        if family == "D" and rank == 2:
            raise ValueError("D2 is not simple; enter it as A1*A1")
        if family == "E" and rank not in (6, 7, 8):
            raise ValueError("E family exists only in ranks 6, 7, 8")
        if family == "F" and rank != 4:
            raise ValueError("F family exists only in rank 4")
        if family == "G" and rank != 2:
            raise ValueError("G family exists only in rank 2")
        return tuple.__new__(cls, (family, rank))

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in _FAMILIES or not text[1:].isdigit():
            raise ValueError(f"cannot parse simple type {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __repr__(self):
        return f"SimpleType({self.label})"


class SemisimpleAlgebra(record("SemisimpleAlgebra", "factors")):
    """An ordered product of simple factors; order indexes weight blocks."""

    __slots__ = ()

    def __new__(cls, factors: tuple[SimpleType, ...]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("algebra needs at least one simple factor")
        return tuple.__new__(cls, (factors,))

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def label(self) -> str:
        return "*".join(f.label for f in self.factors)

    def block_ranges(self) -> tuple[range, ...]:
        out, start = [], 0
        for f in self.factors:
            out.append(range(start, start + f.rank))
            start += f.rank
        return tuple(out)

    @classmethod
    def parse(cls, text: str) -> "SemisimpleAlgebra":
        return cls(tuple(SimpleType.parse(p) for p in text.split("*")))

    def __repr__(self):
        return f"SemisimpleAlgebra({self.label})"


def _bonds(t: SimpleType) -> list[tuple[int, int, int, int]]:
    """Dynkin bonds as (i, j, C[i][j], C[j][i]) in Bourbaki ordering."""
    fam, m = t.family, t.rank
    chain = [(i, i + 1, -1, -1) for i in range(m - 1)]
    if fam == "A":
        return chain
    if fam == "B":
        chain[m - 2] = (m - 2, m - 1, -1, -2)
        return chain
    if fam == "C":
        chain[m - 2] = (m - 2, m - 1, -2, -1)
        return chain
    if fam == "D":
        chain = [(i, i + 1, -1, -1) for i in range(m - 2)]
        chain.append((m - 3, m - 1, -1, -1))
        return chain
    if fam == "E":
        nodes = [0, 2, 3, 4, 5, 6, 7][: m - 1]
        chain = [(a, b, -1, -1) for a, b in zip(nodes, nodes[1:])]
        chain.append((1, 3, -1, -1))
        return chain
    if fam == "F":
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    return [(0, 1, -3, -1)]


@lru_cache(maxsize=None)
def cartan_matrix(t: SimpleType) -> tuple[IntVector, ...]:
    m = t.rank
    rows = [[2 * int(i == j) for j in range(m)] for i in range(m)]
    for i, j, cij, cji in _bonds(t):
        rows[i][j] = cij
        rows[j][i] = cji
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def symmetrizer(t: SimpleType) -> IntVector:
    """Positive integers d with diag(d).C symmetric (root length data)."""
    fam, m = t.family, t.rank
    if fam == "B":
        return (2,) * (m - 1) + (1,)
    if fam == "C":
        return (1,) * (m - 1) + (2,)
    if fam == "F":
        return (2, 2, 1, 1)
    if fam == "G":
        return (1, 3)
    return (1,) * m


@lru_cache(maxsize=None)
def simple_root_coords(t: SimpleType) -> tuple[IntVector, ...]:
    """Simple roots in fundamental-weight coordinates (Cartan columns)."""
    c = cartan_matrix(t)
    return tuple(tuple(row[i] for row in c) for i in range(t.rank))


@lru_cache(maxsize=None)
def positive_root_coords(t: SimpleType) -> tuple[IntVector, ...]:
    """All positive roots in fundamental-weight coordinates.

    Built by closing the simple roots under root strings: beta + alpha_i
    is a root iff q - <beta, alpha_i^vee> > 0 where q is the number of
    steps the alpha_i-string continues below beta.  The closure proceeds
    in height order, so the downward string is always fully known.
    """
    simple = simple_root_coords(t)
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                q = 0
                cur = vec_sub(beta, alpha)
                while cur in roots:
                    q += 1
                    cur = vec_sub(cur, alpha)
                if q - beta[i] > 0:
                    cand = vec_add(beta, alpha)
                    if cand not in roots:
                        roots.add(cand)
                        fresh.append(cand)
        frontier = fresh
    return tuple(sorted(roots))


@lru_cache(maxsize=None)
def _reflection_columns(algebra: SemisimpleAlgebra) -> tuple[IntVector, ...]:
    """Column i: the simple root alpha_i embedded in full-rank coordinates."""
    n = algebra.rank
    cols = []
    for rng, f in zip(algebra.block_ranges(), algebra.factors):
        c = cartan_matrix(f)
        for i in range(f.rank):
            col = [0] * n
            for j in range(f.rank):
                col[rng.start + j] = c[j][i]
            cols.append(tuple(col))
    return tuple(cols)


def dominant_conjugate_coords(algebra: SemisimpleAlgebra,
                              coords: IntVector) -> IntVector:
    cols = _reflection_columns(algebra)
    w = coords
    while True:
        i = next((k for k, c in enumerate(w) if c < 0), None)
        if i is None:
            return w
        wi = w[i]
        w = tuple(a - wi * b for a, b in zip(w, cols[i]))


def weyl_orbit_coords(algebra: SemisimpleAlgebra,
                      coords: IntVector) -> frozenset[IntVector]:
    cols = _reflection_columns(algebra)
    start = dominant_conjugate_coords(algebra, coords)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for w in frontier:
            for i, col in enumerate(cols):
                wi = w[i]
                if wi == 0:
                    continue
                img = tuple(a - wi * b for a, b in zip(w, col))
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
    return frozenset(seen)


@lru_cache(maxsize=None)
def _ortho_columns(t: SimpleType) -> tuple[tuple[Fraction, ...], ...]:
    """Fundamental weights of a classical type in orthogonal coordinates."""
    fam, m = t.family, t.rank
    half = Fraction(1, 2)
    if fam == "A":
        # omega_k = e_1 + ... + e_k - (k/(m+1)) * (1, ..., 1) in Q^(m+1)
        cols = []
        for k in range(1, m + 1):
            shift = Fraction(k, m + 1)
            cols.append(tuple((1 - shift if j < k else -shift)
                              for j in range(m + 1)))
        return tuple(cols)
    if fam == "B":
        cols = [tuple(Fraction(int(j <= k)) for j in range(m))
                for k in range(m - 1)]
        cols.append((half,) * m)
        return tuple(cols)
    if fam == "C":
        return tuple(tuple(Fraction(int(j <= k)) for j in range(m))
                     for k in range(m))
    if fam == "D":
        cols = [tuple(Fraction(int(j <= k)) for j in range(m))
                for k in range(m - 2)]
        cols.append((half,) * (m - 1) + (-half,))
        cols.append((half,) * m)
        return tuple(cols)
    raise ValueError(f"{t.label} has no orthogonal realization here")


def ortho_coords(t: SimpleType, coords: IntVector) -> tuple[Fraction, ...]:
    cols = _ortho_columns(t)
    if len(coords) != t.rank:
        raise ValueError("coordinate block does not match the type rank")
    n = len(cols[0])
    out = [Fraction(0)] * n
    for c, col in zip(coords, cols):
        if c:
            for j in range(n):
                out[j] += c * col[j]
    return tuple(out)
