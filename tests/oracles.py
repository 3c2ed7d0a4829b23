"""Independent oracles the test suite checks the library against.

Each oracle re-derives an answer by a route disjoint from the library
implementation: box images are enumerated forward (never detected),
rectangular specs are enumerated with no structural pruning, and box
symmetry groups are counted by exhausting integer matrices.  The
quadratic box detector the library used before its greedy lex pass, and
the Freudenthal recursion and Weyl formula in `Fraction` arithmetic the
library used before its integer-scaled ones, the A1-pair part search
before its second-moment cut, the A1-pair walk over subsets of summands
before the box generator, and the enumerator's assembly over every
A1 pairing and every ordering of equal parts before orderly assembly,
`decompose` as it was when the box detector decided rectangularity
and characters the split, the multiplicity-free scan as it was when
it built every Freudenthal character rather than counting weights from
the dominant ones, `canonical_form` as a minimum over every permutation
of equal factors, and the dominant-weight scans over whole boxes before
the root descent and the axis scan, the weight count that walked each
weight's dominant weights from scratch before the scan shared them,
and the CLI's argparse parser before its command table, are kept here
as the references for differential tests.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt, prod
from random import Random

from rectrep import (CatalogueMismatchError, Decomposition, NotFaithfulError,
                     NotRectangularError, RectCertificate, SemisimpleAlgebra,
                     catalogue_lengths, catalogue_spec, character_of,
                     classify, detect_rectangular, detect_rectangular_points,
                     from_character, is_faithful, irreducible_character,
                     is_multiplicity_free, iter_catalogue_items, lengths,
                     restrict_to_factors, weyl_dimension,
                     with_ambient_padding)
from rectrep.charcalc import (RepSpec, _cartan_inverse, _dominant_weights,
                              _gram, _orbit_size, _root_data)
from rectrep.cli import (_UsageError, _cmd_census, _cmd_char, _cmd_decompose,
                         _cmd_enumerate, _cmd_rect, _cmd_verify_catalogue,
                         _cmd_verify_howe)
from rectrep.exactlin import (mat_vec, random_unimodular, rank, vec_dot,
                              vec_sub)
from rectrep.liealg import (SimpleType, cartan_matrix,
                            dominant_conjugate_coords, positive_root_coords,
                            symmetrizer, weyl_orbit_coords)


def detect_rectangular_points_quadratic(points, dim: int):
    """The box detector by an all-pairs irreducibility scan, O(N^2).

    Same contract as `detect_rectangular_points`: the edges are the
    additively irreducible elements of D = S - min(S), each found by
    testing every other nonzero element of D as a summand.
    """
    pts = set(points)
    if not pts:
        return None
    zero = (0,) * dim
    for p in pts:
        if tuple(-x for x in p) not in pts:
            return None
    if len(pts) == 1:
        return RectCertificate(zero, (), (), 0)
    v = min(pts)
    dset = {vec_sub(p, v) for p in pts}
    nonzero = [u for u in dset if u != zero]
    edges = []
    for u in nonzero:
        for a in nonzero:
            if a != u and vec_sub(u, a) in dset:
                break
        else:
            edges.append(u)
            if len(edges) > dim:
                return None
    k = len(edges)
    if k == 0 or rank(edges) != k or rank(nonzero) != k:
        return None
    edges.sort()
    degrees = []
    for u in edges:
        c = 1
        while tuple((c + 1) * x for x in u) in dset:
            c += 1
        degrees.append(c)
    if prod(d + 1 for d in degrees) != len(pts):
        return None
    for combo in product(*(range(d + 1) for d in degrees)):
        p = tuple(sum(c * u[j] for c, u in zip(combo, edges))
                  for j in range(dim))
        if p not in dset:
            return None
    center = list(2 * x for x in v)
    for u, d in zip(edges, degrees):
        for j in range(dim):
            center[j] += d * u[j]
    if any(center):
        return None
    return RectCertificate(v, tuple(edges), tuple(degrees), 0)


def random_symmetric_sets(dim: int, count: int, seed: int):
    """Seeded centrally symmetric point sets in `dim` dimensions.

    Cycles through four kinds: unimodular images of centred boxes (all
    rectangular), the same with one antipodal pair removed or one added
    (near misses), and random symmetric clouds.  Yields frozensets.
    """
    rng = Random(seed)
    for i in range(count):
        kind = i % 4
        if kind == 3:
            pts = set()
            if rng.random() < 0.5:
                pts.add((0,) * dim)
            for _ in range(rng.randint(1, 12)):
                p = tuple(rng.randint(-4, 4) for _ in range(dim))
                pts.add(p)
                pts.add(tuple(-x for x in p))
            yield frozenset(pts)
            continue
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, dim))]
        degrees += [0] * (dim - len(degrees))
        m = random_unimodular(dim, rng.randrange(2**30))
        pts = {mat_vec(m, p) for p in product(*(range(-d, d + 1, 2)
                                                for d in degrees))}
        if kind == 1 and len(pts) > 1:
            p = rng.choice(sorted(pts))
            pts.discard(p)
            pts.discard(tuple(-x for x in p))
        elif kind == 2:
            p = tuple(rng.randint(-6, 6) for _ in range(dim))
            pts.add(p)
            pts.add(tuple(-x for x in p))
        yield frozenset(pts)


def grid_rect_oracle(half: int = 3, max_points: int = 12):
    """All rectangular subsets of the (2*half+1)^2 grid, built forward.

    Every rectangular set is the image of a centered box under an
    injective integer-edge map, so enumerating (degrees, edges) and
    generating points forward is exhaustive within the window.  Returns
    (membership set, lengths map); the builder asserts that no set is
    reachable with two different length multisets.
    """
    window = 2 * half
    sets: set[frozenset] = set()
    length_of: dict[frozenset, tuple[int, ...]] = {}

    def record(points: frozenset, ls: tuple[int, ...]):
        if points in length_of and length_of[points] != ls:
            raise AssertionError(
                f"two length multisets for one set: {length_of[points]} vs {ls}")
        sets.add(points)
        length_of[points] = ls

    record(frozenset({(0, 0)}), ())

    def vectors(bound):
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if (x, y) != (0, 0):
                    yield (x, y)

    for d in range(1, max_points):
        if d + 1 > max_points:
            break
        for u in vectors(window // d):
            du = (d * u[0], d * u[1])
            if du[0] % 2 or du[1] % 2:
                continue
            v0 = (-du[0] // 2, -du[1] // 2)
            pts = [(v0[0] + c * u[0], v0[1] + c * u[1]) for c in range(d + 1)]
            if all(abs(x) <= half and abs(y) <= half for x, y in pts):
                record(frozenset(pts), (d + 1,))

    for d1 in range(1, max_points):
        for d2 in range(d1, max_points):
            if (d1 + 1) * (d2 + 1) > max_points:
                break
            for u1 in vectors(window // d1):
                for u2 in vectors(window // d2):
                    if u1[0] * u2[1] == u1[1] * u2[0]:
                        continue
                    sx = d1 * u1[0] + d2 * u2[0]
                    sy = d1 * u1[1] + d2 * u2[1]
                    if sx % 2 or sy % 2:
                        continue
                    v0 = (-sx // 2, -sy // 2)
                    pts = []
                    ok = True
                    for c1 in range(d1 + 1):
                        for c2 in range(d2 + 1):
                            x = v0[0] + c1 * u1[0] + c2 * u2[0]
                            y = v0[1] + c1 * u1[1] + c2 * u2[1]
                            if abs(x) > half or abs(y) > half:
                                ok = False
                                break
                            pts.append((x, y))
                        if not ok:
                            break
                    if ok:
                        fs = frozenset(pts)
                        assert len(fs) == (d1 + 1) * (d2 + 1)
                        record(fs, (d1 + 1, d2 + 1))

    return sets, length_of


def symmetric_sets(half: int = 3, max_points: int = 12):
    """All centrally symmetric multiplicity-one subsets of the grid.

    Such a set is a union of antipodal pairs plus optionally the origin;
    subsets are streamed as frozensets, the empty set included.
    """
    pairs = []
    for x in range(-half, half + 1):
        for y in range(-half, half + 1):
            if (x, y) < (-x, -y):
                pairs.append(((x, y), (-x, -y)))
    for with_zero in (False, True):
        budget = (max_points - 1) // 2 if with_zero else max_points // 2
        base = frozenset({(0, 0)}) if with_zero else frozenset()
        for j in range(0, budget + 1):
            for combo in combinations(pairs, j):
                s = set(base)
                for p, q in combo:
                    s.add(p)
                    s.add(q)
                yield frozenset(s)


def symmetric_set_count(half: int = 3, max_points: int = 12) -> int:
    from math import comb
    n_pairs = ((2 * half + 1) ** 2 - 1) // 2
    total = sum(comb(n_pairs, j) for j in range(max_points // 2 + 1))
    total += sum(comb(n_pairs, j) for j in range((max_points - 1) // 2 + 1))
    return total


def multiplicity_free_irreps_freudenthal(t: SimpleType, max_dim: int):
    """`classify.multiplicity_free_irreps` by building every character.

    Same contract: the sorted dominant weights of dimension <= max_dim
    whose Freudenthal character has every multiplicity 1.
    """
    alg = SemisimpleAlgebra((t,))
    return tuple(coords
                 for coords, _ in classify._dominant_weights_up_to_dim(t, max_dim)
                 if is_multiplicity_free(irreducible_character(alg, coords)))


def prune_free_rectangular(algebra: SemisimpleAlgebra, max_dim: int):
    """Rectangular specs by raw subset search, no structural shortcuts.

    Summands run over all multiplicity-free irreducibles of the full
    algebra; subsets must be pairwise weight-disjoint, faithful, and the
    summed character must pass the detector.  This is the ground truth
    the pruned production enumerator is compared against at small bounds.
    """
    pools = [multiplicity_free_irreps_freudenthal(t, max_dim)
             for t in algebra.factors]
    summands = []
    for combo in product(*pools):
        coords = tuple(x for block in combo for x in block)
        dim = weyl_dimension(algebra, coords)
        if dim <= max_dim:
            char = irreducible_character(algebra, coords)
            summands.append((dim, coords, char.support))
    summands.sort()
    found = {}

    def leaf(chosen):
        spec = RepSpec(algebra, [(c, 1) for _, c, _ in chosen])
        if not is_faithful(spec):
            return
        support = set()
        for _, _, supp in chosen:
            support.update(supp)
        cert = detect_rectangular_points(support, algebra.rank)
        if cert is not None:
            alg_c, spec_c = canonical_form_bruteforce(algebra, spec)
            found[(alg_c, spec_c)] = (alg_c, spec_c)

    def extend(start, chosen, dim, support):
        if chosen:
            leaf(chosen)
        for i in range(start, len(summands)):
            d, coords, supp = summands[i]
            if dim + d > max_dim:
                break
            if support & supp:
                continue
            extend(i + 1, chosen + [summands[i]], dim + d, support | supp)

    extend(0, [], 0, frozenset())
    return set(found)


def box_symmetries_bruteforce(lengths: tuple[int, ...]) -> int:
    """Count linear self-maps of the centered standard box by exhaustion.

    The box is the product of {-d, -d+2, ..., d}; candidate matrices run
    over all integer columns bounded by the box radius.
    """
    k = len(lengths)
    degrees = [ln - 1 for ln in lengths]
    points = set()
    for combo in product(*(range(-d, d + 1, 2) for d in degrees)):
        points.add(combo)
    bound = max(degrees)
    cols = list(product(range(-bound, bound + 1), repeat=k))
    count = 0
    for matrix in product(cols, repeat=k):
        image = set()
        for p in points:
            q = tuple(sum(matrix[j][i] * p[j] for j in range(k))
                      for i in range(k))
            if q not in points:
                break
            image.add(q)
        else:
            if len(image) == len(points):
                count += 1
    return count


def weyl_dimension_fraction(t: SimpleType, hw) -> int:
    """Weyl dimension of one simple-factor irreducible, in `Fraction`s."""
    g = _gram(t)
    lam_rho = tuple(x + 1 for x in hw)
    rho = (1,) * t.rank
    val = Fraction(1)
    for alpha in positive_root_coords(t):
        galpha = mat_vec(g, alpha)
        val *= vec_dot(lam_rho, galpha) / vec_dot(rho, galpha)
    assert val.denominator == 1, "Weyl dimension came out non-integral"
    return int(val)


def simple_character_fraction(t: SimpleType, hw):
    """Freudenthal's recursion under the rational Gram form G.

    Same contract as `charcalc._simple_character`: the sorted tuple of
    (weight, multiplicity) pairs.  The dominant weights are hw minus
    nonnegative simple-root combinations c with c <= C^-1.hw entrywise.
    """
    m = t.rank
    alg = SemisimpleAlgebra((t,))
    c, cinv, g = cartan_matrix(t), _cartan_inverse(t), _gram(t)
    bounds = [int(sum(cinv[i][j] * hw[j] for j in range(m))) for i in range(m)]
    dominant = []
    for cc in product(*(range(b + 1) for b in bounds)):
        mu = tuple(hw[i] - sum(c[i][j] * cc[j] for j in range(m))
                   for i in range(m))
        if all(x >= 0 for x in mu):
            dominant.append((sum(cc), mu))
    dominant.sort()

    def norm(v):
        return vec_dot(v, mat_vec(g, v))

    roots = [(a, mat_vec(g, a)) for a in positive_root_coords(t)]
    top_norm = norm(tuple(x + 1 for x in hw))
    mults = {}
    for _, mu in dominant:
        if mu == tuple(hw):
            mults[mu] = 1
            continue
        total = Fraction(0)
        for alpha, galpha in roots:
            k = 1
            while True:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                known = mults.get(dominant_conjugate_coords(alg, nu))
                if known is None:
                    break
                total += known * vec_dot(nu, galpha)
                k += 1
        val = 2 * total / (top_norm - norm(tuple(x + 1 for x in mu)))
        assert val.denominator == 1 and val > 0, f"bad multiplicity at {mu}"
        mults[mu] = int(val)
    return tuple(sorted((w, mult) for mu, mult in mults.items()
                        for w in weyl_orbit_coords(alg, mu)))


def dominant_weights_up_to_dim_fraction(t: SimpleType, max_dim: int):
    """Dominant weights with `weyl_dimension_fraction` <= max_dim.

    The dimension grows strictly in every coordinate, so a coordinate
    stops growing once the weight with zeros after it is too large.
    """
    out = []

    def grow(prefix):
        if len(prefix) == t.rank:
            out.append(prefix)
            return
        pad = (0,) * (t.rank - len(prefix) - 1)
        k = 0
        while weyl_dimension_fraction(t, prefix + (k,) + pad) <= max_dim:
            grow(prefix + (k,))
            k += 1

    grow(())
    return out


def a1_pair_parts_without_moment_cut(budget: int):
    """`classify._a1_pair_parts` as it was before the second-moment cut.

    Same contract, independent formulation: one walk per subset of the
    four parity slots (the production search walks the classes once),
    grid products skipped, the square-mass lookup on the last slot and
    the column and row `profile` bound, but no moment test, so every
    leaf that passes the profile bound is built and sent to the
    detector.  It keeps the faithfulness, `profile` and support-count
    tests that the production search has since dropped as implied by the
    split test or left to the detector.  Returns (summands, dim, lengths)
    tuples.
    """
    lmax = isqrt(budget)
    if lmax < 2:
        return ()
    squares = [l * l for l in range(2, lmax + 1)]
    classes = []
    for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        items = []
        buckets: dict[int, list] = {}
        for r1 in range(p1, lmax, 2):
            for r2 in range(p2, lmax, 2):
                dim = (r1 + 1) * (r2 + 1)
                if dim > budget:
                    break
                items.append((dim, r1, r2))
                buckets.setdefault(dim, []).append((r1, r2))
        items.sort()
        classes.append((items, buckets))
    out = []

    def profile(chosen, l):
        col = [0, 0]
        row = [0, 0]
        rmax = [-1, -1]
        smax = [-1, -1]
        for r1, r2 in chosen:
            col[r1 & 1] += r2 + 1
            row[r2 & 1] += r1 + 1
            rmax[r1 & 1] = max(rmax[r1 & 1], r1)
            smax[r2 & 1] = max(smax[r2 & 1], r2)
        if max(col) > l or max(row) > l:
            return False
        distinct1 = sum(r + 1 for r in rmax if r >= 0)
        distinct2 = sum(s + 1 for s in smax if s >= 0)
        return distinct1 >= l and distinct2 >= l

    def leaf(chosen, mass):
        if not any(r1 for r1, _ in chosen) or not any(r2 for _, r2 in chosen):
            return
        p1s = {r1 % 2 for r1, _ in chosen}
        p2s = {r2 % 2 for _, r2 in chosen}
        if len(chosen) == len(p1s) * len(p2s):
            by_p1 = {r1 % 2: r1 for r1, _ in chosen}
            by_p2 = {r2 % 2: r2 for _, r2 in chosen}
            if all(by_p1[r1 % 2] == r1 and by_p2[r2 % 2] == r2
                   for r1, r2 in chosen):
                return
        l = isqrt(mass)
        if not profile(chosen, l):
            return
        support = set()
        for r1, r2 in chosen:
            for a in range(-r1, r1 + 1, 2):
                for b in range(-r2, r2 + 1, 2):
                    support.add((a, b))
        if len(support) != mass:
            return
        cert = detect_rectangular_points(support, 2)
        if cert is not None:
            out.append((tuple(sorted(chosen)), mass,
                        lengths(with_ambient_padding(cert, 2))))

    for size in (2, 3, 4):
        for subset in combinations(range(4), size):

            def walk(i, chosen, dim, col, row):
                if i == size - 1:
                    _, buckets = classes[subset[i]]
                    for sq in squares:
                        need = sq - dim
                        if need >= 1:
                            for r1, r2 in buckets.get(need, ()):
                                leaf(chosen + [(r1, r2)], sq)
                    return
                items, _ = classes[subset[i]]
                remaining = size - 1 - i
                for d, r1, r2 in items:
                    if dim + d + remaining > squares[-1]:
                        break
                    if col[r1 & 1] + r2 + 1 > lmax or row[r2 & 1] + r1 + 1 > lmax:
                        continue
                    ncol = list(col)
                    nrow = list(row)
                    ncol[r1 & 1] += r2 + 1
                    nrow[r2 & 1] += r1 + 1
                    walk(i + 1, chosen + [(r1, r2)], dim + d, ncol, nrow)

            walk(0, [], 0, [0, 0], [0, 0])
    out.sort(key=lambda x: (x[1], x[0]))
    return tuple(out)


CANON, TIED = "canonical", "tied"


def transpose_step(state, r1, r2):
    """Compare an A1-pair choice P with its transpose P^T as (r1, r2)
    joins P, the summands taken by class (0, 0), (0, 1), (1, 0), (1, 1).

    Returns CANON once P < P^T, TIED while the two agree so far, the
    summand of class (0, 1) while it waits for the one of class (1, 0)
    (its counterpart in P^T), or None once P > P^T.  The order is the
    one `a1_pair_parts_walk` states: (a, b, c, d) against (a^T, c^T, b^T,
    d^T), a missing summand the largest.
    """
    if state == CANON:
        return CANON
    p = (r1 & 1, r2 & 1)
    if p == (0, 1):
        return (r1, r2)
    if p == (1, 0):
        if state == TIED:
            return None
        flip = (r2, r1)
        return CANON if state < flip else TIED if state == flip else None
    if state != TIED:
        return CANON
    return CANON if r1 < r2 else TIED if r1 == r2 else None


def a1_pair_parts_walk(budget: int):
    """`classify._a1_pair_parts` as it was before the box generator: a
    walk over subsets of summands.  Same contract.

    Summands are Sym^r1 x Sym^r2; two summands have disjoint support iff
    they differ in parity somewhere, so a part holds at most one summand
    per parity class of (r1, r2), and its support has exactly as many
    points as its dimension.  One walk takes the four classes in order,
    skipping any, and at every node closes a part with one summand from
    a later class.  The detector confirms every emitted part.  Before
    it, each cut below rests on its stated reason:

    - Square mass.  An unsplittable rectangular part has square mass l*l
      with equal lengths (recorded in the docs, defended by the
      prune-free oracle in the tests), so the closing summand is a lookup
      of the dimension that completes a square.
    - Column and row bound.  Columns of the support at fixed x1 are level
      sets of an integer linear functional on the l x l grid box, so none
      holds more than l points; each class adds r2 + 1 points to the
      column at x1 = 0 or 1.  So every degree is below
      lmax = isqrt(budget), and the walk keeps both column sums (and the
      row sums, axes swapped) at most lmax before the closing summand.
    - Second moment, tested as the part closes.  The part is the centred
      box {s_a e1 + s_b e2 : s_a, s_b in {-(l-1)/2, ..., (l-1)/2}} with
      integer edges e1, e2; the cross terms vanish, so
      sum x x^T = l^2 (l^2 - 1)/12 (e1 e1^T + e2 e2^T).  A class grid
      Sym^r1 x Sym^r2 has 12 sum x1^2 = 4 (r2 + 1) r1 (r1 + 1)(r1 + 2),
      which the walk adds up, so l^2 (l^2 - 1) must divide the sum, and
      likewise with the axes swapped.
    - Splitting.  Choices forming a grid {parities} x {parities} with
      per-axis degrees are exactly the ones that split as products of
      single-factor parts; the finer partition enumerates them.  This
      also drops every unfaithful choice: if all r1 are 0, the part is
      {(0, a), (0, b)} with a, b of different parity, a grid.
    - Transposition.  Swapping the axes maps (r1, r2) to (r2, r1), fixes
      classes (0, 0) and (1, 1), swaps (0, 1) with (1, 0), and maps each
      part to a part with the same lengths.  So the walk takes only
      transpose-canonical choices (`transpose_step`): with P's summands
      listed by class (a, b, c, d), a missing one counted as the
      largest, P is canonical when (a, b, c, d) <= (a^T, c^T, b^T, d^T).
      Each accepted part is emitted with its transpose.

    Returns (summands, dim, lengths) tuples like `classify._single_factor_parts`.
    """
    lmax = isqrt(budget)
    if lmax < 2:
        return ()
    squares = [(l * l, l * l * (l * l - 1)) for l in range(2, lmax + 1)]
    top = squares[-1][0]
    classes = []
    for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        # (dim, r1, r2, 12 sum x1^2, 12 sum x2^2) of each class grid
        items = sorted(((r1 + 1) * (r2 + 1), r1, r2,
                        4 * (r2 + 1) * r1 * (r1 + 1) * (r1 + 2),
                        4 * (r1 + 1) * r2 * (r2 + 1) * (r2 + 2))
                       for r1 in range(p1, lmax, 2)
                       for r2 in range(p2, lmax, 2)
                       if (r1 + 1) * (r2 + 1) <= budget)
        classes.append(items)
    # closers[c][dim]: the summands of classes after c that complete a
    # square from a node of dimension dim
    closers = [[[] for _ in range(top)] for _ in range(3)]
    for c in range(3):
        for items in classes[c + 1:]:
            for item in items:
                for sq, modulus in squares:
                    if 0 < sq - item[0] < top:
                        closers[c][sq - item[0]].append((sq, modulus, item))
    out = []

    def leaf(chosen, mass, state):
        p1s = {r1 % 2 for r1, _ in chosen}
        p2s = {r2 % 2 for _, r2 in chosen}
        if len(chosen) == len(p1s) * len(p2s):
            by_p1 = {r1 % 2: r1 for r1, _ in chosen}
            by_p2 = {r2 % 2: r2 for _, r2 in chosen}
            if all(by_p1[r1 % 2] == r1 and by_p2[r2 % 2] == r2
                   for r1, r2 in chosen):
                return
        support = {(a, b) for r1, r2 in chosen
                   for a in range(-r1, r1 + 1, 2)
                   for b in range(-r2, r2 + 1, 2)}
        cert = detect_rectangular_points(support, 2)
        if cert is not None:
            ls = lengths(with_ambient_padding(cert, 2))
            out.append((tuple(sorted(chosen)), mass, ls))
            if state != TIED:
                out.append((tuple(sorted((r2, r1) for r1, r2 in chosen)),
                            mass, ls))

    def walk(start, chosen, dim, col, row, m1, m2, state):
        # the last class can only close a part, so the walk stops before it
        for c in range(start, 3):
            for d, r1, r2, t1, t2 in classes[c]:
                if dim + d >= top:
                    break
                if col[r1 & 1] + r2 + 1 > lmax or row[r2 & 1] + r1 + 1 > lmax:
                    continue
                nstate = transpose_step(state, r1, r2)
                if nstate is None:
                    continue
                node = chosen + [(r1, r2)]
                ndim, nm1, nm2 = dim + d, m1 + t1, m2 + t2
                for sq, modulus, (_, s1, s2, u1, u2) in closers[c][ndim]:
                    if not ((nm1 + u1) % modulus or (nm2 + u2) % modulus):
                        lstate = transpose_step(nstate, s1, s2)
                        if lstate is not None:
                            leaf(node + [(s1, s2)], sq, lstate)
                ncol = list(col)
                nrow = list(row)
                ncol[r1 & 1] += r2 + 1
                nrow[r2 & 1] += r1 + 1
                walk(c + 1, node, ndim, ncol, nrow, nm1, nm2, nstate)

    walk(0, [], 0, [0, 0], [0, 0], 0, 0, TIED)
    out.sort(key=lambda x: (x[1], x[0]))
    return tuple(out)


def _a1_pairings(a1_positions):
    """All ways to match some A1 positions into disjoint ordered pairs."""
    if not a1_positions:
        yield ([], [])
        return
    first, rest = a1_positions[0], a1_positions[1:]
    for singles, pairs in _a1_pairings(rest):
        yield ([first] + singles, pairs)
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for singles, pairs in _a1_pairings(remaining):
            yield (singles, [(first, partner)] + pairs)


def enumerate_rectangular_all_orderings(max_rank: int, max_dim: int,
                                        algebras=None):
    """`classify.enumerate_rectangular` as it was before orderly assembly.

    Every pairing of the A1 positions and every ordering of the
    candidates on equal parts is assembled; `canonical_form_bruteforce`
    and the results dict merge the copies, and a spec reached twice must
    carry the same lengths.  Same contract: sorted (algebra, spec,
    lengths).
    """
    algebras = classify._algebra_pool(max_rank, max_dim, algebras)
    results: dict = {}
    for algebra in algebras:
        k = len(algebra.factors)
        a1 = [i for i, t in enumerate(algebra.factors) if t.label == "A1"]
        others = [i for i in range(k) if i not in a1]
        for singles, pairs in _a1_pairings(a1):
            parts = sorted([(i,) for i in others] + [(i,) for i in singles]
                           + [tuple(sorted(p)) for p in pairs])
            min_dims = []
            for part in parts:
                min_dims.append(2 if len(part) == 1 else 4)
            suffix_min = [1] * (len(parts) + 1)
            for i in range(len(parts) - 1, -1, -1):
                suffix_min[i] = suffix_min[i + 1] * min_dims[i]
            if suffix_min[0] > max_dim:
                continue
            part_cands = []
            for i, part in enumerate(parts):
                room = max_dim // (suffix_min[0] // min_dims[i])
                if len(part) == 1:
                    cands = classify._single_factor_parts(
                        algebra.factors[part[0]], room)
                else:
                    cands = classify._a1_pair_parts(room)
                part_cands.append(cands)

            def assemble(pi, chosen, dim):
                if pi == len(parts):
                    coords = classify._tensor_coords(algebra, [
                        (part, dict.fromkeys(sub, 1))
                        for part, (sub, _, _) in zip(parts, chosen)])
                    spec = RepSpec(algebra, coords.items())
                    alg_c, spec_c = canonical_form_bruteforce(algebra, spec)
                    ls = tuple(sorted(ln for cand in chosen for ln in cand[2]))
                    seen = results.get((alg_c, spec_c))
                    if seen is not None and seen[2] != ls:
                        raise AssertionError(
                            f"{classify._spec_label(alg_c, spec_c)} assembled "
                            f"with lengths {seen[2]} and {ls}")
                    results[(alg_c, spec_c)] = (alg_c, spec_c, ls)
                    return
                rest = suffix_min[pi + 1]
                for cand in part_cands[pi]:
                    if dim * cand[1] * rest > max_dim:
                        break
                    assemble(pi + 1, chosen + [cand], dim * cand[1])

            assemble(0, [], 1)
    return sorted(results.values(), key=lambda e: (
        e[0].rank, e[0].label, e[1].summands))


def catalogue_items_over(algebra: SemisimpleAlgebra, mass: int) -> list:
    """The catalogue items over exactly this algebra with dimension mass,
    by a scan of the catalogue up to that dimension."""
    return [item for item in iter_catalogue_items(algebra.rank, mass)
            if prod(catalogue_lengths(item)) == mass
            and catalogue_spec(item)[0] == algebra]


def decompose_detector_first(spec: RepSpec) -> Decomposition:
    """`classify.decompose` as it was when characters proved the split.

    Same contract: the full box detector runs on every faithful input
    first, a rejection takes its reason from the multiplicity and
    symmetry tests, and only an accepted input is matched, factor by
    factor and then pair by pair, against the catalogue items of its
    restriction's mass (`catalogue_items_over`, so a test can empty the
    catalogue here too), each item character built anew, and the
    tensor of the matched items rebuilt and compared with the input.
    """
    if not is_faithful(spec):
        raise NotFaithfulError(f"some factor of {spec.algebra.label} acts trivially")
    full = character_of(spec)
    s = from_character(full)
    if detect_rectangular(s) is None:
        if any(m != 1 for _, m in s.points):
            raise NotRectangularError("multiplicity")
        if any(tuple(-x for x in p) not in s.support for p in s.support):
            raise NotRectangularError("asymmetry")
        raise NotRectangularError("box mismatch")
    factors = spec.algebra.factors
    parts = []
    taken: set[int] = set()
    for size in (1, 2):
        for positions in combinations(range(len(factors)), size):
            if not taken.isdisjoint(positions):
                continue
            restr = restrict_to_factors(full, positions)
            if len(set(restr.entries.values())) != 1:
                continue
            sub = SemisimpleAlgebra(tuple(factors[j] for j in positions))
            support = restr.support
            match = next((item for item in catalogue_items_over(sub, len(support))
                          if character_of(catalogue_spec(item)[1]).support
                          == support), None)
            if match is not None:
                parts.append((positions, match))
                taken.update(positions)
    if len(taken) < len(factors):
        left = sorted(set(range(len(factors))) - taken)
        raise CatalogueMismatchError(
            f"factors at positions {left} of {spec.algebra.label} match no "
            "catalogue item")
    parts.sort()
    rebuilt = classify._tensor_coords(spec.algebra, [
        (positions, character_of(catalogue_spec(item)[1]).entries)
        for positions, item in parts])
    if rebuilt != full.entries:
        raise CatalogueMismatchError("reassembled tensor does not match the input")
    return Decomposition(tuple(parts))


def tensor_summands(algebra: SemisimpleAlgebra, dec: Decomposition) -> dict:
    """The summands {coords: mult} of the external tensor product of
    dec's items over algebra, built forward from the items' specs."""
    return classify._tensor_coords(algebra, [
        (positions, dict(catalogue_spec(item)[1].summands))
        for positions, item in dec.parts])


def decompose_outcome(decompose_fn, spec: RepSpec):
    """What decompose_fn does with spec: its Decomposition, or the error's
    (type, reason, message); `reason` is None except on NotRectangularError."""
    try:
        return decompose_fn(spec)
    except (NotFaithfulError, NotRectangularError, CatalogueMismatchError) as e:
        return type(e), getattr(e, "reason", None), str(e)


def canonical_form_bruteforce(algebra: SemisimpleAlgebra, spec: RepSpec):
    """`classify.canonical_form` as it was before the refined search.

    Same contract: the factor list is sorted, and the least sorted
    (coords, mult) summand tuple is taken over every block permutation
    that preserves it, all prod(n_i!) of them for runs of n_i equal
    factors.
    """
    order = sorted(range(len(algebra.factors)),
                   key=lambda i: (algebra.factors[i], i))
    sorted_alg = SemisimpleAlgebra(tuple(algebra.factors[i] for i in order))
    runs: list[list[int]] = []
    for j, t in enumerate(sorted_alg.factors):
        if runs and sorted_alg.factors[runs[-1][0]] == t:
            runs[-1].append(j)
        else:
            runs.append([j])
    ranges = algebra.block_ranges()
    blocks = [([hw[ranges[i].start:ranges[i].stop] for i in order], m)
              for hw, m in spec.summands]
    best = min(tuple(sorted((sum((b[p] for run in perm for p in run), ()), m)
                            for b, m in blocks))
               for perm in product(*(permutations(run) for run in runs)))
    return sorted_alg, RepSpec(sorted_alg, best)


def random_specs(label: str, count: int, seed: int):
    """Seeded specs over `label` with repeated factor blocks.

    Each summand's blocks are drawn from a small pool of dominant blocks,
    so equal blocks recur within and across summands, and some
    multiplicities exceed 1.  Yields (algebra, spec) pairs.
    """
    rng = Random(seed)
    alg = SemisimpleAlgebra.parse(label)
    pools = [[tuple(rng.randint(0, 2) for _ in range(t.rank))
              for _ in range(3)] for t in alg.factors]
    for _ in range(count):
        summands = {}
        for _ in range(rng.randint(1, 6)):
            coords = tuple(x for pool in pools for x in rng.choice(pool))
            summands[coords] = rng.choice((1, 1, 1, 2, 3))
        yield alg, RepSpec(alg, summands.items())


def dominant_weights_box(t: SimpleType, hw):
    """`charcalc._dominant_weights` as it was before the root descent.

    Same contract: every dominant mu = hw - C.c with c a nonnegative
    integer vector, found by scanning the box 0 <= c <= C^-1.hw
    entrywise (C^-1 is entrywise nonnegative), sorted by (sum(c), mu).
    """
    m = t.rank
    c = cartan_matrix(t)
    n, gi, _ = _root_data(t)
    d = symmetrizer(t)
    bounds = [x // (n * di) for x, di in zip(mat_vec(gi, hw), d)]
    found = []
    for cc in product(*(range(b + 1) for b in bounds)):
        mu = tuple(hw[i] - sum(c[i][j] * cc[j] for j in range(m))
                   for i in range(m))
        if all(x >= 0 for x in mu):
            found.append((sum(cc), mu))
    found.sort()
    return tuple(mu for _, mu in found)


def weight_count(t: SimpleType, hw) -> int:
    """Number of distinct weights of the irreducible with highest weight hw.

    `classify._weight_counts` as it was before the scan shared its
    dominant sets: one walk of `charcalc._dominant_weights` per weight,
    then a sum of their Weyl orbit sizes (the weights are the disjoint
    union of those orbits).
    """
    return sum(_orbit_size(t, tuple(int(x > 0) for x in mu))
               for mu in _dominant_weights(t, hw))


def dominant_weights_up_to_dim_box(t: SimpleType, max_dim: int):
    """`classify._dominant_weights_up_to_dim` as it was before the axis scan.

    Same contract: the axis maxima bound a box, and the Weyl dimension is
    taken on every weight in it.
    """
    alg = SemisimpleAlgebra((t,))
    m = t.rank
    axis_max = []
    for i in range(m):
        k = 0
        while weyl_dimension(alg, tuple((k + 1) * int(j == i)
                                        for j in range(m))) <= max_dim:
            k += 1
        axis_max.append(k)
    out = []
    for coords in product(*(range(a + 1) for a in axis_max)):
        dim = weyl_dimension(alg, coords)
        if dim <= max_dim:
            out.append((coords, dim))
    return tuple(sorted(out))


# The command line as argparse read it before the command table: the
# reference for `cli._parse`.

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # the parser that rejects names the command: a subcommand's prog
        # is "rectrep <command>"
        raise _UsageError(self.prog.split()[-1], message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rectrep", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, rep=False, bounds=False, seed=False):
        p.add_argument("--pretty", action="store_true",
                       help="also print a human summary on stderr")
        if rep:
            p.add_argument("--algebra", required=True,
                           help="e.g. A1*B3")
            p.add_argument("--rep", required=True,
                           help="e.g. 'sym2*spin' or 'std + dual(std)'")
        if bounds:
            p.add_argument("--max-rank", type=int, default=2)
            p.add_argument("--max-dim", type=int, default=64)
            p.add_argument("--dry-run", action="store_true",
                           help="report planned work without running")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("char", help="weights with multiplicities")
    common(p, rep=True)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("rect", help="decide rectangularity, certificate")
    common(p, rep=True)
    p.set_defaults(func=_cmd_rect)

    p = sub.add_parser("decompose",
                       help="factor into catalogue items (faithful input)")
    common(p, rep=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("enumerate",
                       help="all faithful rectangular specs within bounds")
    common(p, bounds=True)
    p.add_argument("--algebra", help="restrict to one algebra, e.g. A3")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-catalogue",
                       help="brute-force enumeration against the catalogue")
    common(p, bounds=True, seed=True)
    p.set_defaults(func=_cmd_verify_catalogue)

    p = sub.add_parser("verify-howe",
                       help="multiplicity-free scan for one simple type")
    common(p)
    p.add_argument("--algebra", required=True, help="single factor, e.g. B3")
    p.add_argument("--max-dim", type=int, default=128)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=_cmd_verify_howe)

    p = sub.add_parser("census", help="root-geometry censuses for B_n")
    common(p)
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=_cmd_census)

    return parser
