#!/usr/bin/env python3
"""Print the catalogue of indecomposable rectangular representations.

One row per item within the requested rank/dimension bounds: label,
algebra, representation, dimension, and the multiset of lengths.
"""

import argparse
import sys
from math import prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rectrep import catalogue_lengths, catalogue_spec, iter_catalogue_items
from rectrep.cli import render_spec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=6)
    ap.add_argument("--max-dim", type=int, default=64)
    args = ap.parse_args()

    rows = []
    for item in iter_catalogue_items(args.max_rank, args.max_dim):
        alg, spec = catalogue_spec(item)
        ls = catalogue_lengths(item)
        rows.append((item.label, alg.label, render_spec(spec), prod(ls),
                     "x".join(map(str, sorted(ls)))))
    header = ("item", "algebra", "representation", "dim", "lengths")
    widths = [max([len(h)] + [len(str(r[i])) for r in rows])
              for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for r in rows:
        print(fmt.format(*r))
    print(f"{len(rows)} items with rank <= {args.max_rank}, "
          f"dim <= {args.max_dim}")


if __name__ == "__main__":
    main()
