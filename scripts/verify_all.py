#!/usr/bin/env python3
"""Run the full verification battery and print a one-line-per-check summary.

Covers: enumeration vs. catalogue closure at two desk-scale bounds, the
orderly enumerator vs. the assembly over every A1 pairing and ordering
at (4, 256), `decompose` vs. its detector-first form on every spec at
(4, 256), the multiplicity-free lists for all supported simple types,
the root-geometry censuses, and (with --sweep) the exhaustive detector
comparison on the 7x7 grid, a differential of the greedy detector
against the old quadratic one on seeded random 3-D and 4-D sets, a
differential of the integer Freudenthal recursion and Weyl formula
against their `Fraction` forms on every dominant weight of dimension
<= 512 for the types of rank <= 4, and the A1-pair part search against
its form without the second-moment cut at budgets 256 and 512. Exits
nonzero if any check fails.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rectrep import (SimpleType, decompose, enumerate_rectangular,
                     long_roots_3space_census, roots_in_plane_census,
                     verify_classification, verify_howe)
from oracles import (decompose_detector_first, decompose_outcome,
                     enumerate_rectangular_all_orderings)

HOWE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")
CHAR_TYPES = HOWE_TYPES + ("C4",)


def check(name, ok, detail=""):
    mark = "ok " if ok else "FAIL"
    print(f"[{mark}] {name}" + (f"  {detail}" if detail else ""))
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=3)
    ap.add_argument("--max-dim", type=int, default=128)
    ap.add_argument("--howe-dim", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="also run the exhaustive 7x7-grid detector sweep, "
                         "the greedy-vs-quadratic detector differential, "
                         "the integer-vs-Fraction character differential "
                         "and the A1-pair moment-cut differential")
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
        for dim in (3, 4):
            for s in random_symmetric_sets(dim, 5000, seed=args.seed + dim):
                n_sets += 1
                if (detect_rectangular_points(s, dim)
                        != detect_rectangular_points_quadratic(s, dim)):
                    bad += 1
        all_ok &= check("greedy vs quadratic detector", bad == 0,
                        f"sets={n_sets} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        from rectrep import SemisimpleAlgebra, weyl_dimension
        from rectrep.charcalc import _simple_character
        from oracles import (dominant_weights_up_to_dim_fraction,
                             simple_character_fraction,
                             weyl_dimension_fraction)

        t = time.monotonic()
        bad = 0
        n_weights = 0
        for label in CHAR_TYPES:
            st = SimpleType.parse(label)
            alg = SemisimpleAlgebra((st,))
            for hw in dominant_weights_up_to_dim_fraction(st, 512):
                n_weights += 1
                if (_simple_character(st, hw) != simple_character_fraction(st, hw)
                        or weyl_dimension(alg, hw)
                        != weyl_dimension_fraction(st, hw)):
                    bad += 1
        all_ok &= check("integer vs Fraction characters", bad == 0,
                        f"weights={n_weights} disagreements={bad} "
                        f"({time.monotonic() - t:.1f}s)")

        from rectrep.classify import _a1_pair_parts
        from oracles import a1_pair_parts_without_moment_cut

        for budget in (256, 512):
            t = time.monotonic()
            parts = _a1_pair_parts(budget)
            all_ok &= check(
                f"A1-pair parts vs search without moment cut, budget {budget}",
                parts == a1_pair_parts_without_moment_cut(budget),
                f"parts={len(parts)} ({time.monotonic() - t:.1f}s)")

    print(f"total {time.monotonic() - t0:.1f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
