#!/usr/bin/env python3
"""Run the full verification battery and print a one-line-per-check summary.

Covers: enumeration vs. catalogue closure at two desk-scale bounds, the
sha256 of `rectrep enumerate` stdout at the largest supported bound (4,
256) against its pinned value, the orderly enumerator vs. the assembly
over every A1 pairing and ordering at (4, 256), `decompose` vs. its
detector-first form on every spec at (4, 256), a forward check of
`decompose` beyond the enumeration bounds (every spec of the catalogue
closure at (5, 512), and at (6, 1024) with --sweep, must decompose into
items whose lengths multiply to its dimension and whose highest weights
tensor back to its summands), the refined `canonical_form` against the
minimum over every permutation on the same closure specs with their
factors shuffled, the multiplicity-free lists for all supported simple
types, the root-geometry censuses, and (with --sweep) the exhaustive
detector comparison on the 7x7 grid, a differential of the greedy
detector against the old quadratic one on seeded random 3-D, 4-D and 5-D
sets (5 000 each) and 6-D sets (2 000), a differential of the integer
Freudenthal recursion and Weyl formula against their `Fraction` forms,
of the weight count and orbit-union support against the Freudenthal
character, and of the root-descent and axis scans of dominant weights
against whole-box scans, on every dominant weight of dimension <= 512
for the types of rank <= 4, of the weight count the scan shares among
the dominant weights against a fresh walk per weight at dimension
<= 512 and <= 1024, of the integer Freudenthal recursion against its
`Fraction` form on A1 sym 2000 and sym 2001, the A1-pair box generator
against the former walk over subsets of summands at budgets 512 and
1024, the closed-form A1 parts against the detector at budget 1024, the
refined `canonical_form` against the minimum over every permutation on
each spec at (4, 256), enumerated and from the closure, with its
factors shuffled, and the enumerator against the prune-free subset
search on each simple type of rank <= 4 at dimension 256. Exits nonzero
if any check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rectrep import (Decomposition, SimpleType, canonical_form,
                     catalogue_closure, decompose, enumerate_rectangular,
                     long_roots_3space_census, roots_in_plane_census,
                     verify_classification, verify_howe)
from rectrep.classify import _shuffle_factors
from oracles import (canonical_form_bruteforce, decompose_detector_first,
                     decompose_outcome, enumerate_rectangular_all_orderings,
                     tensor_summands)

# sha256 of `rectrep enumerate --max-rank 4 --max-dim 256` stdout (3 307
# specs); a change that moves these bytes changes the enumerate output format
ENUMERATE_4_256_SHA256 = ("d9d0454da99412601f2924db1dcf532fa7dc50cd5f19793c"
                          "45faeec723ae2d0a")

HOWE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")
CHAR_TYPES = HOWE_TYPES + ("C4",)


def check(name, ok, detail=""):
    mark = "ok " if ok else "FAIL"
    print(f"[{mark}] {name}" + (f"  {detail}" if detail else ""))
    return ok


def canonical_form_disagreements(specs, seed: int) -> int:
    """How many canonical (algebra, spec) pairs, each with its factors in
    a seeded random order, the refined `canonical_form` or the minimum
    over every permutation fails to bring back."""
    bad = 0
    for i, (alg, spec) in enumerate(specs):
        shuffled = _shuffle_factors(alg, spec, seed + i)
        bad += not (canonical_form(*shuffled) == (alg, spec)
                    == canonical_form_bruteforce(*shuffled))
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=3)
    ap.add_argument("--max-dim", type=int, default=128)
    ap.add_argument("--howe-dim", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="also run the (6,1024) decompose forward and "
                         "canonical-form checks, "
                         "the exhaustive 7x7-grid detector sweep, "
                         "the greedy-vs-quadratic detector differential, "
                         "the integer-vs-Fraction character differential "
                         "(with the weight count, support and dominant "
                         "weight scans), the shared-vs-per-weight weight "
                         "count, the A1 sym 2000/2001 character "
                         "differential, the A1-pair box-vs-walk "
                         "differential, the A1 closed-form check, the "
                         "canonical-form differential and the per-type "
                         "prune-free comparison")
    args = ap.parse_args()

    all_ok = True
    t0 = time.monotonic()

    bounds = {(2, min(64, args.max_dim)), (args.max_rank, args.max_dim)}
    for rank, dim in sorted(bounds):
        t = time.monotonic()
        rep = verify_classification(rank, dim, seed=args.seed)
        all_ok &= check(
            f"classification rank<={rank} dim<={dim}", rep["ok"],
            f"enumerated={rep['enumerated']} catalogue={rep['catalogue']} "
            f"spot_checks={rep['unimodular_spot_checks']} "
            f"({time.monotonic() - t:.1f}s)")

    t = time.monotonic()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "rectrep", "enumerate",
                          "--max-rank", "4", "--max-dim", "256"],
                         env=env, capture_output=True, check=False).stdout
    digest = hashlib.sha256(out).hexdigest()
    all_ok &= check("enumerate stdout sha256 rank<=4 dim<=256",
                    digest == ENUMERATE_4_256_SHA256,
                    f"sha256={digest[:12]} ({time.monotonic() - t:.1f}s)")

    t = time.monotonic()
    found = enumerate_rectangular(4, 256)
    all_ok &= check("orderly vs all-orderings enumeration rank<=4 dim<=256",
                    found == enumerate_rectangular_all_orderings(4, 256),
                    f"specs={len(found)} ({time.monotonic() - t:.1f}s)")

    t = time.monotonic()
    bad = sum(decompose_outcome(decompose, spec)
              != decompose_outcome(decompose_detector_first, spec)
              for _, spec, _ in found)
    all_ok &= check("decompose vs detector-first decompose rank<=4 dim<=256",
                    bad == 0, f"specs={len(found)} disagreements={bad} "
                    f"({time.monotonic() - t:.1f}s)")

    for rank, dim in ((5, 512), (6, 1024)) if args.sweep else ((5, 512),):
        t = time.monotonic()
        closure = catalogue_closure(rank, dim)
        bad = 0
        for _, spec in closure:
            dec = decompose_outcome(decompose, spec)
            bad += not (isinstance(dec, Decomposition)
                        and prod(dec.lengths) == spec.dimension
                        and tensor_summands(spec.algebra, dec)
                        == dict(spec.summands))
        all_ok &= check(f"decompose of the catalogue closure rank<={rank} "
                        f"dim<={dim}", bad == 0,
                        f"specs={len(closure)} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        t = time.monotonic()
        bad = canonical_form_disagreements(closure, args.seed)
        all_ok &= check(f"refined vs brute-force canonical form of the "
                        f"catalogue closure rank<={rank} dim<={dim}", bad == 0,
                        f"specs={len(closure)} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

    for label in HOWE_TYPES:
        rep = verify_howe(SimpleType.parse(label), args.howe_dim)
        all_ok &= check(f"multiplicity-free list {label}", rep["ok"],
                        f"scanned={rep['scanned']} flagged={len(rep['flagged'])}")

    for n in (2, 3, 4):
        rep = roots_in_plane_census(n)
        all_ok &= check(f"plane census B{n}", rep["ok"],
                        f"rich={rep['rich_planes']}")
    for n in (3, 4):
        rep = long_roots_3space_census(n)
        all_ok &= check(f"long-root 3-space census B{n}", rep["ok"],
                        f"rich={rep['rich_spaces']}")

    if args.sweep:
        from rectrep import detect_rectangular_points, lengths
        from oracles import grid_rect_oracle, symmetric_sets

        t = time.monotonic()
        sets, lengths_of = grid_rect_oracle()
        bad = 0
        n_swept = 0
        for s in symmetric_sets():
            n_swept += 1
            cert = detect_rectangular_points(s, 2)
            if (cert is not None) != (s in sets):
                bad += 1
            elif cert is not None and lengths(cert) != tuple(
                    sorted(lengths_of[s])):
                bad += 1
        all_ok &= check("detector vs forward oracle", bad == 0,
                        f"swept={n_swept} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        from oracles import (detect_rectangular_points_quadratic,
                             random_symmetric_sets)

        t = time.monotonic()
        bad = 0
        n_sets = 0
        for dim, count in ((3, 5000), (4, 5000), (5, 5000), (6, 2000)):
            for s in random_symmetric_sets(dim, count, seed=args.seed + dim):
                n_sets += 1
                if (detect_rectangular_points(s, dim)
                        != detect_rectangular_points_quadratic(s, dim)):
                    bad += 1
        all_ok &= check("greedy vs quadratic detector", bad == 0,
                        f"sets={n_sets} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        from rectrep import SemisimpleAlgebra, weyl_dimension
        from rectrep.charcalc import (_dominant_weights, _simple_character,
                                      weight_support)
        from rectrep.classify import (_dominant_weights_up_to_dim,
                                      _weight_counts)
        from oracles import (dominant_weights_box,
                             dominant_weights_up_to_dim_box,
                             dominant_weights_up_to_dim_fraction,
                             simple_character_fraction, weight_count,
                             weyl_dimension_fraction)

        t = time.monotonic()
        bad = 0
        n_weights = 0
        for label in CHAR_TYPES:
            st = SimpleType.parse(label)
            alg = SemisimpleAlgebra((st,))
            bad += (_dominant_weights_up_to_dim(st, 512)
                    != dominant_weights_up_to_dim_box(st, 512))
            weights = dominant_weights_up_to_dim_fraction(st, 512)
            for hw, count in zip(weights, _weight_counts(st, weights)):
                n_weights += 1
                char = _simple_character(st, hw)
                dim = weyl_dimension(alg, hw)
                if (char != simple_character_fraction(st, hw)
                        or dim != weyl_dimension_fraction(st, hw)
                        or (count == dim) != all(m == 1 for _, m in char)
                        or weight_support(st, hw) != {w for w, _ in char}
                        or _dominant_weights(st, hw)
                        != dominant_weights_box(st, hw)):
                    bad += 1
        all_ok &= check("integer vs Fraction characters, weight count, "
                        "support and dominant weight scans", bad == 0,
                        f"weights={n_weights} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        for dim in (512, 1024):
            t = time.monotonic()
            bad = n_weights = 0
            for label in CHAR_TYPES:
                st = SimpleType.parse(label)
                weights = [hw for hw, _ in
                           _dominant_weights_up_to_dim(st, dim)]
                n_weights += len(weights)
                bad += sum(count != weight_count(st, hw) for hw, count
                           in zip(weights, _weight_counts(st, weights)))
            all_ok &= check(f"shared vs per-weight weight count dim<={dim}",
                            bad == 0, f"weights={n_weights} "
                            f"disagreements={bad} "
                            f"({time.monotonic() - t:.1f}s)")

        t = time.monotonic()
        a1 = SimpleType.parse("A1")
        bad = sum(_simple_character(a1, hw) != simple_character_fraction(a1, hw)
                  for hw in ((2000,), (2001,)))
        all_ok &= check("integer vs Fraction characters A1 sym 2000, sym 2001",
                        bad == 0, f"disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        from rectrep.classify import _a1_pair_parts
        from oracles import a1_pair_parts_walk

        for budget in (512, 1024):
            t = time.monotonic()
            parts = _a1_pair_parts(budget)
            all_ok &= check(
                f"A1-pair box generator vs subset walk, budget {budget}",
                parts == a1_pair_parts_walk(budget),
                f"parts={len(parts)} ({time.monotonic() - t:.1f}s)")

        from rectrep import with_ambient_padding
        from rectrep.classify import _simple_types_up_to, _single_factor_parts
        from oracles import prune_free_rectangular

        t = time.monotonic()
        parts = _single_factor_parts(SimpleType.parse("A1"), 1024)
        bad = 0
        for summands, dim, ls in parts:
            support = {(k,) for (r,) in summands for k in range(-r, r + 1, 2)}
            cert = detect_rectangular_points(support, 1)
            if (len(support) != dim or cert is None
                    or lengths(with_ambient_padding(cert, 1)) != ls):
                bad += 1
        all_ok &= check("A1 closed-form parts vs detector, budget 1024",
                        bad == 0, f"parts={len(parts)} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        t = time.monotonic()
        specs = [(a, s) for a, s, _ in found] + catalogue_closure(4, 256)
        bad = canonical_form_disagreements(specs, args.seed)
        all_ok &= check("refined vs brute-force canonical form rank<=4 "
                        "dim<=256", bad == 0,
                        f"specs={len(specs)} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        t = time.monotonic()
        types = _simple_types_up_to(4)
        bad = []
        for st in types:
            alg = SemisimpleAlgebra((st,))
            got = {(a, s) for a, s, _ in enumerate_rectangular(
                st.rank, 256, algebras=[alg])}
            if got != prune_free_rectangular(alg, 256):
                bad.append(st.label)
        all_ok &= check("enumeration vs prune-free search per simple type "
                        "dim<=256", not bad,
                        f"types={len(types)} disagreeing={bad} "
                        f"({time.monotonic() - t:.1f}s)")

    print(f"total {time.monotonic() - t0:.1f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
