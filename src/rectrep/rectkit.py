"""Rectangularity and hypercubicity of finite weight multisets.

A multiset S is rectangular when some linear isomorphism of its ambient
space carries it onto Z_{d_1} x ... x Z_{d_n}, where Z_d is the
(d+1)-term progression {-d, -d+2, ..., d}.  A box image is pinned down
by any hull vertex together with its edge generators.  Detection takes
v = lexicographic minimum of S (always a hull vertex), so that every
element of D = S - v is lex >= 0, and finds the edges in one greedy pass:
walking the nonzero elements of D in increasing lex order, u is an edge
unless u - e lies in D for some edge e found earlier.  Each point costs
at most rank set lookups.

Why the pass is exact.  In a box image D = {sum c_i e_i : 0 <= c_i <= d_i}
with independent, lex-positive e_i, and its additively irreducible
elements are exactly the e_i.  A reducible u = sum c_i e_i has some
c_j > 0 with u - e_j in D; lex order is translation-invariant, so e_j
is lex-smaller than u and was found first.  An irreducible u has no
decomposition at all.  So on a box image the pass returns exactly the
edges.  On any other input the edge set it finds may be wrong, but the
detector returns a certificate only if it passes `_is_centred_box`, the
same edge-rank, point-count, box-rebuild and centre test that
`verify_certificate` applies, and passing it makes S a centred box image
by construction.  So a fault in the greedy pass can only cause a false
reject, and every certificate the detector returns passes
`verify_certificate`.
Central symmetry S = -S is checked separately because the isomorphism in
the definition is linear, not affine; for any true box image it holds
automatically (the centroid of the box is the origin).

The definition allows the isomorphism to be an arbitrary real linear
map, yet certificates here are always integral.  That costs no
generality: for a rational point set the witness data is forced to be
rational — the vertex is a point of S and the edge generators are
differences of points of S — so an integral certificate exists whenever
any real one does.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .exactlin import IntVector, mat_vec, rank, vec_sub
from .liealg import record
from .charcalc import FormalCharacter


class WeightMultiset(record("WeightMultiset", "dim points")):
    """Integer points with multiplicities, kept sorted."""

    __slots__ = ()

    def __new__(cls, dim: int, points: tuple[tuple[IntVector, int], ...]):
        points = tuple(sorted(points))
        seen = set()
        for p, m in points:
            if len(p) != dim:
                raise ValueError(f"point {p} does not have dimension {dim}")
            if m < 1:
                raise ValueError("multiplicities must be positive")
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)
        return tuple.__new__(cls, (dim, points))

    @property
    def mass(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def support(self) -> frozenset[IntVector]:
        return frozenset(p for p, _ in self.points)


def from_character(c: FormalCharacter) -> WeightMultiset:
    return WeightMultiset(c.algebra.rank, tuple(c.entries.items()))


def transform(s: WeightMultiset, matrix) -> WeightMultiset:
    pts = tuple((mat_vec(matrix, p), m) for p, m in s.points)
    return WeightMultiset(len(matrix), pts)


class RectCertificate(record("RectCertificate",
                             "vertex edges degrees padding")):
    """Witness of rectangularity: vertex + edge generators + degrees.

    The point set must equal {vertex + sum c_i edges_i : 0 <= c_i <= d_i}
    with all multiplicities one, and 2*vertex + sum d_i edges_i = 0.
    `padding` counts extra length-1 box directions for null directions of
    a larger ambient space; detection always emits 0 and callers pad.
    """

    __slots__ = ()

    def __new__(cls, vertex: IntVector, edges: tuple[IntVector, ...],
                degrees: tuple[int, ...], padding: int = 0):
        if len(edges) != len(degrees):
            raise ValueError("edges and degrees must align")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be at least 1 (padding covers 0)")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        return tuple.__new__(cls, (vertex, edges, degrees, padding))


def with_ambient_padding(cert: RectCertificate, ambient_rank: int) -> RectCertificate:
    """Pad with length-1 directions up to the rank of the ambient algebra."""
    extra = ambient_rank - len(cert.edges)
    if extra < 0:
        raise ValueError("certificate has more edges than the ambient rank")
    return RectCertificate(cert.vertex, cert.edges, cert.degrees, extra)


def _box_points(vertex: IntVector, edges, degrees):
    for combo in product(*(range(d + 1) for d in degrees)):
        p = vertex
        for c, u in zip(combo, edges):
            if c:
                p = tuple(a + c * b for a, b in zip(p, u))
        yield p


def _is_centred_box(support: set, cert: RectCertificate) -> bool:
    """Whether support is exactly cert's box and that box is centred at 0.

    Independent edges make the prod(d_i + 1) box points distinct, so with
    the point count matching, every box point lying in support is set
    equality.
    """
    k = len(cert.edges)
    if k and rank(cert.edges) != k:
        return False
    if prod(d + 1 for d in cert.degrees) != len(support):
        return False
    if not all(p in support
               for p in _box_points(cert.vertex, cert.edges, cert.degrees)):
        return False
    center = [2 * x for x in cert.vertex]
    for u, d in zip(cert.edges, cert.degrees):
        for j, x in enumerate(u):
            center[j] += d * x
    return not any(center)


def detect_rectangular_points(points, dim: int) -> RectCertificate | None:
    """Core detector on a plain multiplicity-one point set."""
    pts = set(points)
    if not pts:
        return None
    zero = (0,) * dim
    for p in pts:
        if tuple(-x for x in p) not in pts:
            return None
    if len(pts) == 1:
        # a centrally symmetric singleton is {0}: the empty box
        return RectCertificate(zero, (), (), 0)
    v = min(pts)
    dset = {vec_sub(p, v) for p in pts}
    nonzero = sorted(u for u in dset if u != zero)
    edges = []
    for u in nonzero:
        if not any(vec_sub(u, e) in dset for e in edges):
            edges.append(u)
            if len(edges) > dim:
                return None
    degrees = []
    for u in edges:
        c = 1
        while tuple((c + 1) * x for x in u) in dset:
            c += 1
        degrees.append(c)
    cert = RectCertificate(v, tuple(edges), tuple(degrees), 0)
    return cert if _is_centred_box(pts, cert) else None


def detect_rectangular(s: WeightMultiset) -> RectCertificate | None:
    if any(m != 1 for _, m in s.points):
        return None
    return detect_rectangular_points((p for p, _ in s.points), s.dim)


def verify_certificate(s: WeightMultiset, cert: RectCertificate) -> bool:
    """One-pass check, independent of how the certificate was produced."""
    if any(m != 1 for _, m in s.points):
        return False
    return _is_centred_box({p for p, _ in s.points}, cert)


def lengths(cert: RectCertificate) -> tuple[int, ...]:
    """The multiset {d_i + 1}, padded with 1 entries, sorted."""
    return tuple(sorted([d + 1 for d in cert.degrees] + [1] * cert.padding))


def is_hypercubic(ls: tuple[int, ...]) -> int | None:
    """The common side when every length is equal, else None."""
    sides = set(ls)
    return next(iter(sides)) if len(sides) == 1 else None


def automorphism_order(length_multiset) -> int:
    """Order of the symmetry group of a box with the given lengths.

    The group is a product over distinct lengths of hyperoctahedral
    groups: 2^n * n! for each length occurring n times.
    """
    counts: dict[int, int] = {}
    for ln in length_multiset:
        if ln < 2:
            raise ValueError("automorphism_order needs all lengths >= 2")
        counts[ln] = counts.get(ln, 0) + 1
    out = 1
    for n in counts.values():
        out *= 2**n * prod(range(1, n + 1))
    return out
