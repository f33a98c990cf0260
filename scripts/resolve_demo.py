#!/usr/bin/env python3
"""Walk one ideal through the whole pipeline and print every stage:
lattice, Betti poset, rigidity, frame ranks, verified resolution.

    python3 scripts/resolve_demo.py                # built-in example
    python3 scripts/resolve_demo.py "x^2; x*y; y^3"
    python3 scripts/resolve_demo.py --char 2 "a*b; b*c; c*d"
"""

import argparse

from rigidres import (
    FieldSpec,
    betti_numbers,
    betti_poset,
    build_frame,
    homogenize,
    lcm_lattice,
    parse_ideal,
    rigidity_report,
    taylor_betti,
    verify_resolution,
)

DEFAULT = "x*y; y*z; z*w"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ideal", nargs="?", default=DEFAULT,
                    help=f"generators, e.g. {DEFAULT!r}")
    ap.add_argument("--char", type=int, default=0,
                    help="field characteristic (default 0)")
    args = ap.parse_args()

    F = FieldSpec(args.char)
    I = parse_ideal(args.ideal)
    print(f"ideal: {I.to_text()}")

    L = lcm_lattice(I)
    B = betti_poset(L, F)
    print(f"lcm-lattice: {len(L.elements)} elements; "
          f"Betti poset: {len(B.elements)}")

    table = betti_numbers(L, F)
    oracle = taylor_betti(I, F)
    agree = "agree" if table == oracle else "DISAGREE"
    print(f"betti totals: {table.totals()}  (interval and subset routes {agree})")

    rig = rigidity_report(L, F)
    print("rigid" if rig.rigid else f"not rigid [{rig.rule}]: {rig.detail}")

    frame = build_frame(B, F)
    print(f"frame ranks: {frame.ranks()}")

    res = homogenize(frame, L.degrees)
    report = verify_resolution(res)
    print(f"resolution check: {report.summary()}")
    for pos in sorted(res.modules):
        degs = ", ".join(deg.format(I.variables)
                         for _, deg in res.modules[pos])
        print(f"  F_{pos} (rank {len(res.modules[pos])}): {degs}")


if __name__ == "__main__":
    main()
