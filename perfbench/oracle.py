"""Answers the benchmark knows without asking rectrep.

The Weyl dimension is computed here from simple roots written in
orthogonal coordinates (Bourbaki ordering), not from rectrep's tables,
so a `char` answer is checked against an independent formula.  The
catalogue table lists each item's summands per simple factor and its box
lengths, so a tensor of items has known `decompose` parts and `rect`
lengths by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod


def _unit(i: int, n: int, c: int = 1) -> list[int]:
    return [c if j == i else 0 for j in range(n)]


def _simple_roots(family: str, n: int) -> list[list[int]]:
    """Simple roots in orthogonal coordinates, possibly scaled by 2."""
    def diff(i, dim):
        return [a - b for a, b in zip(_unit(i, dim), _unit(i + 1, dim))]

    if family == "A":
        return [diff(i, n + 1) for i in range(n)]
    if family in "BCD":
        roots = [diff(i, n) for i in range(n - 1)]
        if family == "B":
            roots.append(_unit(n - 1, n))
        elif family == "C":
            roots.append(_unit(n - 1, n, 2))
        else:
            roots.append([a + b for a, b in zip(_unit(n - 2, n), _unit(n - 1, n))])
        return roots
    if family == "G" and n == 2:
        return [[1, -1, 0], [-2, 1, 1]]
    if family == "F" and n == 4:
        return [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
    raise ValueError(f"no simple type {family}{n}")


@lru_cache(maxsize=None)
def _root_data(label: str):
    """Gram matrix of the simple roots and the positive roots in their basis."""
    family, n = label[0], int(label[1:])
    alpha = _simple_roots(family, n)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in alpha] for u in alpha]

    def pairing(beta, j):  # <beta, alpha_j^vee>
        return sum(c * 2 * gram[i][j] for i, c in enumerate(beta)) // gram[j][j]

    level = [tuple(_unit(i, n)) for i in range(n)]
    known = set(level)
    while level:
        nxt = []
        for beta in level:
            for j in range(n):
                down, p = list(beta), 0
                while True:
                    down[j] -= 1
                    if tuple(down) not in known:
                        break
                    p += 1
                if p - pairing(beta, j) > 0:
                    up = list(beta)
                    up[j] += 1
                    if tuple(up) not in known:
                        known.add(tuple(up))
                        nxt.append(tuple(up))
        level = nxt
    return gram, sorted(known)


def weyl_dimension(label: str, hw) -> int:
    """prod over positive roots of (hw + rho, alpha) / (rho, alpha)."""
    gram, roots = _root_data(label)
    half = [gram[i][i] for i in range(len(gram))]
    num = prod(sum(c * (x + 1) * h for c, x, h in zip(a, hw, half)) for a in roots)
    den = prod(sum(c * h for c, h in zip(a, half)) for a in roots)
    dim = Fraction(num, den)
    if dim.denominator != 1:
        raise AssertionError(f"non-integral Weyl dimension for {label} {hw}")
    return int(dim)


def rank_of(label: str) -> int:
    return int(label[1:])


# ------------------------------------------------------------- catalogue

def catalogue_item(kind: str, params: tuple[int, ...] = ()):
    """(factor labels, summands as per-factor coordinate blocks, lengths)."""
    def fw(n, i):
        return tuple(_unit(i, n))

    if kind == "A1Sym":
        (r,) = params
        return ("A1",), [((r,),)], (r + 1,)
    if kind == "A1PairSym":
        r1, r2 = params
        return ("A1",), [((r1,),), ((r2,),)], (r1 + r2 + 2,)
    if kind == "D2Spin":
        return ("A1", "A1"), [((1,), (0,)), ((0,), (1,))], (2, 2)
    if kind == "B2StdSpin":
        return ("B2",), [((1, 0),), ((0, 1),)], (3, 3)
    if kind == "BmSpin":
        (m,) = params
        return (f"B{m}",), [(fw(m, m - 1),)], (2,) * m
    if kind == "A3StdDual":
        return ("A3",), [((1, 0, 0),), ((0, 0, 1),)], (2, 2, 2)
    m = params[0] if kind == "DmSpin" else 4
    std, minus, plus = fw(m, 0), fw(m, m - 2), fw(m, m - 1)
    pairs = {"D4Spin": (minus, plus), "DmSpin": (minus, plus),
             "D4StdSpinPlus": (std, plus), "D4StdSpinMinus": (std, minus)}
    return (f"D{m}",), [(b,) for b in pairs[kind]], (2,) * m


def item_dimension(kind: str, params: tuple[int, ...] = ()) -> int:
    return prod(catalogue_item(kind, params)[2])
