#!/usr/bin/env python3
"""Scan for rigid deformations of the 6-cycle edge ideal and print the
augmentation table: every way of adjoining up to --budget extra lattice
elements, with the resulting sizes and Betti totals.  Every candidate
strictly increases the total Betti numbers, so the scan comes back
empty — this ideal is the standard negative example.

    python3 scripts/hexagon_scan.py --budget 1
"""

import argparse
import time

from rigidres import FieldSpec, parse_ideal, search_rigid_deformation
from rigidres.posets import support_text

HEXAGON = "a*b; b*c; c*d; d*e; e*f; a*f"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=1)
    ap.add_argument("--char", type=int, default=0)
    ap.add_argument("--ideal", default=HEXAGON)
    args = ap.parse_args()

    I = parse_ideal(args.ideal)
    start = time.monotonic()
    out = search_rigid_deformation(I, budget=args.budget,
                                   F=FieldSpec(args.char))
    elapsed = time.monotonic() - start

    base = sum(out.base_totals)
    print(f"base totals {out.base_totals} (sum {base}); "
          f"budget {args.budget}; {elapsed:.3f}s")
    if out.betti_poset_candidate:
        # logged, never certified: it is rigid exactly when the source is
        entry = out.betti_poset_candidate
        print(f"Betti-poset candidate: {entry.lattice_size} elements, "
              f"totals {entry.totals}, certified=False")
    for entry in out.augmentation_log:
        added = " ".join(map(support_text, entry.added))
        delta = sum(entry.totals) - base
        print(f"  +{added}: {entry.lattice_size} elements, "
              f"totals {entry.totals} (delta {delta:+d})")
    if out:
        added = " ".join(map(support_text, out.result.added))
        print(f"found: added {added}, route {out.result.certificate.route}")
    else:
        print("no rigid deformation within budget")


if __name__ == "__main__":
    main()
