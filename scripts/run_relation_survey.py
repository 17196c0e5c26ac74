#!/usr/bin/env python3
"""Check every diagrammatic relation across a range of k, in all ambient
signatures up to a length bound, and tabulate the placement counts.

Exits 1 when a relation fails, and 2 when the arguments admit no placement
or a k whose sweep is above `functors.SWEEP_DIMENSION_LIMIT` (checked for
every k before any relation is checked). Each relation is checked once, on
its core, and every placement shares that result; a sweep is sized by its
core dimension summed over its placements: k <= 8 runs at the default
--max-len.

Example:
    python3 scripts/run_relation_survey.py --kmax 4 --max-len 4
"""

import argparse
import sys
import time

from decatkit import functors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=int, default=2)
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--max-len", type=int, default=4)
    args = ap.parse_args()

    for k in range(args.kmin, args.kmax + 1):
        try:
            size = functors.sweep_dimension(k, max_len=args.max_len)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if size > functors.SWEEP_DIMENSION_LIMIT:
            print(f"error: k = {k} sweeps placements of summed core dimension at least {size}, "
                  f"over the limit {functors.SWEEP_DIMENSION_LIMIT}; lower --kmax or --max-len", file=sys.stderr)
            return 2

    failures = 0
    print(f"{'relation':<10}{'k':>3}{'placements':>12}{'status':>9}")
    for k in range(args.kmin, args.kmax + 1):
        for relation in functors.RELATION_IDS:
            started = time.monotonic()
            reports = functors.verify_relation_everywhere(relation, k, args.max_len)
            ok = all(r.holds for r in reports)
            failures += 0 if ok else 1
            status = "ok" if ok else "FAIL"
            print(f"{relation:<10}{k:>3}{len(reports):>12}{status:>9}"
                  f"   {time.monotonic() - started:.2f}s")
            if relation == "R4" and reports:
                holding = sorted({tuple(r.detail['normalization_holding']) for r in reports})
                print(f"{'':>25}normalization holding: {holding}")
    if failures:
        print(f"{failures} relation/k combinations failed")
        return 1
    print("all relations exact")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
