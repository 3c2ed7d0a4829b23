"""Exact integer and rational linear algebra for lattice geometry.

Vectors are plain tuples and matrices are row-major tuples of tuples.
Entries are Python ints (arbitrary precision) or fractions.Fraction;
nothing in this package ever touches a float.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

IntVector = tuple[int, ...]
Matrix = tuple[tuple, ...]

# largest absolute entry of a `random_unimodular` matrix
ENTRY_BOUND = 8


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u):
    return tuple(-a for a in u)


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def _cleared_rows(m) -> list[list[int]]:
    """Integer copies of the rows, each scaled by its denominator lcm.

    Row scaling by nonzero constants preserves rank.
    """
    out = []
    for row in m:
        den = 1
        for e in row:
            d = e.denominator if isinstance(e, Fraction) else 1
            den = den * d // gcd(den, d)
        out.append([int(e * den) for e in row])
    return out


def rank(m) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    rows = _cleared_rows(m)
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            for j in range(c + 1, ncols):
                # exact division is guaranteed by the Bareiss identity
                rows[i][j] = (rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        r += 1
    return r


def rational_rref(rows) -> tuple[IntVector, ...]:
    """Reduced row echelon form, scaled back to primitive integer rows.

    Canonical representative of a rational row space; used as a
    dictionary key when deduplicating subspaces.
    """
    work = [[Fraction(e) for e in row] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [e * inv for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [e - f * p for e, p in zip(work[i], work[r])]
        r += 1
    out = []
    for row in work[:r]:
        den = 1
        for e in row:
            den = den * e.denominator // gcd(den, e.denominator)
        ints = [int(e * den) for e in row]
        g = 0
        for e in ints:
            g = gcd(g, e)
        out.append(tuple(e // g for e in ints))
    return tuple(out)


def random_unimodular(n: int, seed: int) -> Matrix:
    """Deterministic integer matrix with determinant +-1 and bounded entries.

    Starts from the identity and applies seeded elementary row operations.
    A shear that would push any entry past ENTRY_BOUND is skipped, so the
    bound always holds and the determinant stays +-1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6 * n):
        kind = rng.randrange(8)
        if n == 1 or kind == 6:
            i = rng.randrange(n)
            rows[i] = [-e for e in rows[i]]
        elif kind == 7:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            cand = [e + c * f for e, f in zip(rows[i], rows[j])]
            if max(abs(e) for e in cand) <= ENTRY_BOUND:
                rows[i] = cand
    return tuple(tuple(r) for r in rows)
