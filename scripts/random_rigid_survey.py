#!/usr/bin/env python3
"""Seeded survey over random strongly generic monomial ideals: confirm
rigidity, compare frame ranks against the brute-force subset oracle,
and verify every resolution; print summary statistics.

    python3 scripts/random_rigid_survey.py --samples 100 --seed 7
"""

import argparse
import collections
import random
import sys
import time
from pathlib import Path

# reuse the suite's generic-ideal sampler
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import random_generic_ideal  # noqa: E402

from rigidres import (  # noqa: E402
    FieldSpec,
    betti_poset,
    build_frame,
    lcm_lattice,
    rigidity_report,
    taylor_betti,
    verify_frame,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-generators", type=int, default=6)
    ap.add_argument("--char", type=int, default=0)
    args = ap.parse_args()

    F = FieldSpec(args.char)
    rng = random.Random(args.seed)
    lengths = collections.Counter()
    generators = collections.Counter()
    failures = 0
    start = time.monotonic()

    for k in range(args.samples):
        I = random_generic_ideal(rng, max_generators=args.max_generators)
        generators[len(I.generators)] += 1
        L = lcm_lattice(I)
        B = betti_poset(L, F)
        frame = build_frame(B, F)
        lengths[frame.length] += 1
        ok = (rigidity_report(L, F).rigid
              and frame.ranks() == taylor_betti(I, F).totals()
              and verify_frame(frame, ambient=L).ok)
        if not ok:
            failures += 1
            print(f"FAILED: {I.to_text()}")

    elapsed = time.monotonic() - start
    print(f"{args.samples} samples in {elapsed:.1f}s, {failures} failures")
    print("generators:", dict(sorted(generators.items())))
    print("resolution length:", dict(sorted(lengths.items())))


if __name__ == "__main__":
    main()
