#!/usr/bin/env python3
"""Sweep slice cohomology over all shifted weight pairs in a box and report
how the vanishing pattern lines up with the congruence and order conditions.

Example:
    python3 scripts/run_block_sweep.py --n 2 --p 31 --max 3

This script writes no JSON. The sweep's document, every pair included,
is the output of `decatkit blocks --n 2 --p 31 --max 3`. Like the CLI, it
refuses p at or below the large-prime floor 4*n; only
`decatkit blocks --allow-small-p` sweeps below it.
"""

import argparse
import sys
import time

from decatkit import cohomology
from decatkit.exactlin import is_prime


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--p", type=int, default=31)
    ap.add_argument("--max", type=int, default=3, help="largest weight entry")
    args = ap.parse_args()

    if not is_prime(args.p):
        print(f"p={args.p} is not prime", file=sys.stderr)
        return 2
    floor = cohomology.large_prime_floor(args.n)
    if args.p <= floor:
        print(f"p={args.p} must exceed 4*n={floor} (decatkit blocks --allow-small-p sweeps below it)", file=sys.stderr)
        return 2

    started = time.monotonic()
    sweep = cohomology.blocks_sweep(args.n, args.p, args.max)
    elapsed = time.monotonic() - started

    print(f"n={sweep.n} p={sweep.p} entries 0..{sweep.max_entry}")
    print(f"pairs checked      {sweep.pairs}")
    print(f"nonvanishing       {sweep.nonvanishing_pairs}")
    print(f"counterexamples    {len(sweep.counterexamples)}")
    print(f"componentwise form {'holds on every nonvanishing pair' if sweep.componentwise_always else 'fails somewhere'}")
    print(f"root-order form    {'holds on every nonvanishing pair' if sweep.root_order_always else 'fails somewhere'}")
    print(f"elapsed            {elapsed:.2f}s")

    for rep in sweep.counterexamples:
        print(f"  counterexample: a={rep.a} b={rep.b} dims={rep.homology}")

    return 0 if not sweep.counterexamples else 1


if __name__ == "__main__":
    raise SystemExit(main())
