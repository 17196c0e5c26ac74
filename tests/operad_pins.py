"""Pins on the random stream that `operads` draws, runnable without pytest.

`operads._below` repeats the rejection loop of `random.Random._randbelow`, an
internal of the standard library, so these pins are meant to run on the
oldest and the newest supported Python:

    PYTHONPATH=src python tests/operad_pins.py

exits 0 when every pin holds. `tests/test_operads.py` runs the same pins.
"""

import hashlib
import json
import random
import sys

from decatkit import operads

# (seed, budget, max_arity) -> (failure count, sha256 of json.dumps(failures))
# for `run_operad_checks` with `operads.equal` always false, so every trial
# reports its witnesses. Measured on the randint/randrange samplers.
PINS = {
    (0, 1200, 5): (1145, "6eb5d9cf7df492257a642253d8d6a230b5113c28943c6be5609d3cd41b87a8d2"),
    (7, 1200, 8): (1176, "23d5bf150edd30aee3d5b09a1041a3b935bbf560c8eeac6288532ed0bbc32ad1"),
    (3, 50, 2): (45, "4f862e94ba602581775e0f9e99b30768a9334f1309ffd83fa068361bccdbb892"),
}


def digest(seed: int, budget: int, max_arity: int) -> tuple[int, str]:
    """(failure count, sha256) of one run with `operads.equal` always false."""
    equal = operads.equal
    operads.equal = lambda a, b: False
    try:
        failures = operads.run_operad_checks(seed, budget, max_arity).failures
    finally:
        operads.equal = equal
    return len(failures), hashlib.sha256(json.dumps(failures).encode()).hexdigest()


def below_mismatches(seed: int) -> list[int]:
    """The bounds n in 1..80 where `_below(getrandbits, n)` and `randrange(n)`
    draw different values or leave seeded generators in different states."""
    ours, theirs = random.Random(seed), random.Random(seed)
    bad = []
    for n in range(1, 81):
        if operads._below(ours.getrandbits, n) != theirs.randrange(n) or ours.getstate() != theirs.getstate():
            bad.append(n)
            ours.setstate(theirs.getstate())
    return bad


if __name__ == "__main__":
    failed = [f"_below on seed {seed}: bounds {bad}" for seed in range(21) if (bad := below_mismatches(seed))]
    failed += [f"run {key}: {got} != {pin}" for key, pin in PINS.items() if (got := digest(*key)) != pin]
    print(f"Python {sys.version.split()[0]}: " + ("; ".join(failed) if failed else "every operad stream pin holds"))
    sys.exit(1 if failed else 0)
