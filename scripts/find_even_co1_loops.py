#!/usr/bin/env python3
"""Search the small-order catalog for non-commutative automorphic loops of
even order satisfying the commuting condition co1.

Such loops exist in principle (a direct product of a non-commutative
odd-order automorphic loop with any even-order commutative one works), but
the smallest witnesses are not obvious; this scan reports what the
exhaustive catalog contains at each order.

Usage: python scripts/find_even_co1_loops.py [--max-order N]   (N in 2..7)
"""
import argparse
import sys

from loopcheck.catalog import GENERATION_HARD_CAP, generate_loops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=6)
    args = parser.parse_args(argv)
    if not 2 <= args.max_order <= GENERATION_HARD_CAP:
        parser.error(
            f"argument --max-order: must lie in 2..{GENERATION_HARD_CAP}; "
            f"got {args.max_order}"
        )

    found = []
    for n in range(2, args.max_order + 1, 2):
        entries = generate_loops(n, ("automorphic", "co1"))
        hits = [e for e in entries if not e.commutative]
        print(f"order {n}: automorphic+co1 classes: {len(entries)}, "
              f"non-commutative among them: {len(hits)}")
        found.extend(hits)
    if found:
        print("witnesses:", ", ".join(e.name for e in found))
    else:
        print("no non-commutative even-order automorphic loop satisfying the "
              "commuting condition up to this order")
    return 0


if __name__ == "__main__":
    sys.exit(main())
