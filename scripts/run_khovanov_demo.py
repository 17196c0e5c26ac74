#!/usr/bin/env python3
"""Walk the bundled diagram catalogue: Euler values, component counts, the
k = 2 homology by the tangle scan, and Kauffman's state-sum oracle as a
cross-check of the k = 2 Euler value.

Example:
    python3 scripts/run_khovanov_demo.py
    python3 scripts/run_khovanov_demo.py --k 3 --skip-homology
"""

import argparse
import time

from decatkit import cube


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--skip-homology", action="store_true")
    args = ap.parse_args()

    k = args.k
    mismatches = 0
    print(f"{'diagram':<16}{'crossings':>10}{'comps':>7}{'euler':>7}  homology (k=2)")
    for name in sorted(cube.DIAGRAMS):
        word = cube.parse_slice_word(cube.DIAGRAMS[name], k)
        euler = cube.euler_invariant(word)
        comps = cube.link_components(word)
        if abs(euler) != k**comps:
            mismatches += 1
        line = f"{name:<16}{len(word.crossings):>10}{comps:>7}{euler:>7}"
        if k == 2:
            oracle = cube.oracle_euler_k2(word)
            if oracle != euler:
                mismatches += 1
                line += f"  ORACLE MISMATCH {oracle}"
            if not args.skip_homology:
                started = time.monotonic()
                hom = {d: r for d, r in cube.khovanov_homology_k2(word).items() if r}
                line += f"  {hom}  ({time.monotonic() - started:.2f}s)"
        print(line)

    print()
    for move, name_a, name_b in cube.MOVE_PAIRS:
        ok = cube.reidemeister_check(cube.DIAGRAMS[name_a], cube.DIAGRAMS[name_b], k)
        if not ok:
            mismatches += 1
        print(f"{move:<22}{name_a} ~ {name_b}: {'ok' if ok else 'FAIL'}")

    if mismatches:
        print(f"{mismatches} mismatches")
        return 1
    print("all invariants consistent")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
