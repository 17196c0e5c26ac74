"""The four benchmark workloads: seeded inputs, operations and their answers.

Every operation goes through a public entry point, either `decatkit.cli.run`
with `--out` to a file in the pass's work directory, or the library function
the acceptance suite calls. Every answer below is written out by hand from
the mathematics (torus-link Khovanov ranks, placement counts, the Weyl
dimension formula, permutation inversions); none is computed by decatkit.

Importing this module imports decatkit, so a pass times that import as part
of its set-up.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction
from typing import Callable

from decatkit import cli, cohomology, cube

# Primes the seed picks from. Khovanov ranks of T(2, n) have only 2-torsion,
# so any odd prime gives the rational ranks; the blocks sweep needs p > 4kn.
KHOVANOV_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097)
BLOCKS_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@dataclasses.dataclass
class Op:
    """One timed call and the untimed check of its result.

    `run` returns whatever `check` needs; `check` returns a list of problems,
    empty when the verdict is right.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


# ---------------------------------------------------------------- answers


def torus_word(n: int) -> str:
    """Slice word of the positive torus link T(2, n) at k = 2."""
    return "cup'(1) cup(3) " + " ".join(["pos(2)"] * n) + " cap(3) cap'(1)"


def torus_components(n: int) -> int:
    return 1 if n % 2 else 2


def torus_homology(n: int) -> dict[int, int]:
    """Khovanov ranks of T(2, n), n >= 2, by homological degree, over Q or odd p:
    {0: 2, 2..n: 1} for odd n and {0: 2, 2..n-1: 1, n: 2} for even n."""
    dims = {0: 2}
    for h in range(2, n + 1):
        dims[h] = 1
    if n % 2 == 0:
        dims[n] = 2
    return dims


# Khovanov ranks of catalogue diagrams. The closure of s1 s2 s1 is the
# positive Hopf link; the figure-eight knot is amphichiral; kinks are unknots.
CATALOGUE_HOMOLOGY = {
    "figure_eight": {-2: 1, -1: 1, 0: 2, 1: 1, 2: 1},
    "braid121": {0: 2, 2: 2},
    "kink_positive": {0: 2},
    "kink_negative": {0: 2},
}

# Link components of every catalogue diagram.
CATALOGUE_COMPONENTS = {
    "unknot": 1,
    "unknot_mirror": 1,
    "unlink2": 2,
    "kink_positive": 1,
    "kink_negative": 1,
    "twist_pair": 2,
    "braid121": 2,
    "braid212": 2,
    "hopf": 2,
    "trefoil": 1,
    "figure_eight": 1,
    "torus_2_6": 2,
    "torus_2_8": 2,
}

# At k = 2 the circle-counting oracle gives 2^components on every catalogue
# diagram (the Jones value at q = 1 times the unknot's 2, sign normalized).
CATALOGUE_EULER_K2 = {name: 2**c for name, c in CATALOGUE_COMPONENTS.items()}

RELATION_CORE_LENGTH = {"R1": 1, "R2": 1, "R3": 2, "R4": 3, "R5": 3, "L5": 2}


def relation_placements(relation: str, k: int) -> int:
    """Ambient signatures of length <= 4 (what `relations --all` sweeps) around
    the relation's core: s padding blocks split s + 1 ways between the sides,
    k weights each."""
    spare = 4 - RELATION_CORE_LENGTH[relation]
    return sum((s + 1) * k**s for s in range(spare + 1))


def weyl_dimension(lam_shifted: tuple[int, ...]) -> int:
    """prod_{i<j} (l_i - l_j) / (j - i) on shifted coordinates."""
    val = Fraction(1)
    for i, j in itertools.combinations(range(len(lam_shifted)), 2):
        val *= Fraction(lam_shifted[i] - lam_shifted[j], j - i)
    return int(val)


def kostant_pattern(lam_shifted: tuple[int, ...]) -> dict:
    """One class in degree inv(s) at weight s(lam) for each permutation s."""
    n = len(lam_shifted)
    out = {}
    for sigma in itertools.permutations(range(n)):
        inv = sum(1 for i, j in itertools.combinations(range(n), 2) if sigma[i] > sigma[j])
        out[(inv, tuple(lam_shifted[s] for s in sigma))] = 1
    return out


# ---------------------------------------------------------------- op builders


def _cli_op(name: str, argv: list[str], out: pathlib.Path, check_doc) -> Op:
    argv = argv + ["--out", str(out)]

    def run():
        # Looked up at call time, so a traced pass sees the wrapped cli.run.
        return cli.run(argv)

    def check(rc):
        if rc != 0:
            return [f"exit status {rc}"]
        doc = json.loads(out.read_text())
        problems = [] if doc.get("passed") is True else ["document says passed != true"]
        return problems + check_doc(doc)

    return Op(name, run, check)


def write_word(workdir: pathlib.Path, label: str, text: str) -> str:
    """Write a slice word as a .sw file; returns the path to pass as --word."""
    path = workdir / f"{label}.sw"
    path.write_text(f"# {label}\n{text}\n")
    return str(path)


def khovanov_op(workdir: pathlib.Path, label: str, word: str, field: str, p: int | None,
                dims: dict[int, int], components: int) -> Op:
    """CLI `khovanov --k 2 --oracle`; `word` is a .sw path or a catalogue name."""
    argv = ["khovanov", "--k", "2", "--word", word, "--oracle", "--field", field]
    if p is not None:
        argv += ["--p", str(p)]
    tag = field if p is None else f"F{p}"

    def check_doc(doc):
        got = {doc["min_degree"] + i: d for i, d in enumerate(doc["dims"]) if d}
        euler = sum((-1) ** h * d for h, d in got.items())
        problems = []
        if got != dims:
            problems.append(f"homology {got}, expected {dims}")
        if doc["components"] != components:
            problems.append(f"components {doc['components']}, expected {components}")
        if doc["oracle_matches"] is not True or doc["euler"] != doc["oracle_euler"]:
            problems.append("cube Euler number disagrees with the circle oracle")
        if euler != doc["oracle_euler"] or euler != 2**components:
            problems.append(f"homology Euler {euler}, oracle {doc['oracle_euler']}, expected {2**components}")
        return problems

    return _cli_op(f"khovanov {label} {tag}", argv, workdir / f"khovanov-{label}-{tag}.json", check_doc)


def relations_op(workdir: pathlib.Path, k: int) -> Op:
    """CLI `relations --k K --all`: six relations on every ambient placement."""

    def check_doc(doc):
        problems = []
        for rel in RELATION_CORE_LENGTH:
            reports = doc["detail"][rel]
            if doc[rel] is not True or not all(r["holds"] for r in reports):
                problems.append(f"{rel} fails at k={k}")
            if len(reports) != relation_placements(rel, k):
                problems.append(f"{rel}: {len(reports)} placements, expected {relation_placements(rel, k)}")
        if any(r["detail"]["normalization_holding"] != [2 * k] for r in doc["detail"]["R4"]):
            problems.append(f"R4 normalization is not t^{2 * k}")
        return problems

    return _cli_op(f"relations k={k}", ["relations", "--k", str(k), "--all"],
                   workdir / f"relations-{k}.json", check_doc)


def euler_op(label: str, text: str, k: int, components: int, expected: int | None = None) -> Op:
    """`cube.euler_invariant`; |Euler| = k^components, and exactly `expected` if given."""

    def check(euler):
        problems = []
        if abs(euler) != k**components:
            problems.append(f"|Euler| {abs(euler)}, expected {k**components}")
        if expected is not None and euler != expected:
            problems.append(f"Euler {euler}, circle oracle value {expected}")
        return problems

    return Op(f"euler {label} k={k}", lambda: cube.euler_invariant(text, k), check)


def reidemeister_op(move: str, word_a: str, word_b: str, k: int) -> Op:
    return Op(
        f"reidemeister {move} k={k}",
        lambda: cube.reidemeister_check(word_a, word_b, k),
        lambda same: [] if same is True else [f"{move} changes the invariant"],
    )


def operad_op(workdir: pathlib.Path, budget: int, seed: int) -> Op:
    def check_doc(doc):
        if doc["failures"] or doc["total_trials"] < budget:
            return [f"{len(doc['failures'])} failures, {doc['total_trials']} trials < budget {budget}"]
        return []

    argv = ["operad-check", "--budget", str(budget), "--seed", str(seed)]
    return _cli_op(f"operad-check seed={seed}", argv, workdir / "operad.json", check_doc)


def blocks_op(workdir: pathlib.Path, n: int, p: int, max_entry: int) -> Op:
    """CLI `blocks` sweep: (max+1)^(2n) pairs, linkage holds, the diagonal survives."""
    pairs = (max_entry + 1) ** (2 * n)

    def check_doc(doc):
        problems = []
        if doc["pairs"] != pairs or len(doc["matrix"]) != pairs:
            problems.append(f"{doc['pairs']} pairs, expected {pairs}")
        if doc["counterexamples"]:
            problems.append(f"{len(doc['counterexamples'])} counterexamples")
        if not all(r["eblock2"] and r["root_order_leq"] for r in doc["nonvanishing"]):
            problems.append("a nonvanishing pair is not linked or not below b")
        if any(m["vanishes"] for m in doc["matrix"] if m["a"] == m["b"]):
            problems.append("a diagonal pair a = b vanishes")
        return problems

    argv = ["blocks", "--n", str(n), "--p", str(p), "--max", str(max_entry)]
    return _cli_op(f"blocks n={n} p={p} max={max_entry}", argv, workdir / "blocks.json", check_doc)


def kostant_op(n: int, lam: tuple[int, ...]) -> Op:
    """`cohomology.kostant_pattern_report` over Q against the hand pattern."""

    def check(report):
        problems = []
        if not report.matches or report.table != kostant_pattern(lam):
            problems.append("slice cohomology is not one class per permutation")
        if sum(report.table.values()) != math.factorial(n):
            problems.append(f"{sum(report.table.values())} classes, expected {math.factorial(n)}")
        if report.module_dim != weyl_dimension(lam):
            problems.append(f"module dim {report.module_dim}, Weyl formula {weyl_dimension(lam)}")
        return problems

    return Op(f"kostant {lam}", lambda: cohomology.kostant_pattern_report(n, lam), check)


# ---------------------------------------------------------------- workloads


def _khovanov(rng: random.Random, workdir: pathlib.Path) -> list[Op]:
    p = rng.choice(KHOVANOV_PRIMES)
    files = {n: write_word(workdir, f"T2_{n}", torus_word(n)) for n in range(2, 10)}
    ops = [khovanov_op(workdir, f"T2_{n}", files[n], "Q", None, torus_homology(n), torus_components(n))
           for n in range(2, 9)]
    ops += [khovanov_op(workdir, f"T2_{n}", files[n], "Fp", p, torus_homology(n), torus_components(n))
            for n in range(2, 10)]
    for name, dims in CATALOGUE_HOMOLOGY.items():
        for field, prime in (("Q", None), ("Fp", p)):
            ops.append(khovanov_op(workdir, name, name, field, prime, dims, CATALOGUE_COMPONENTS[name]))
    return ops


def _relations(rng: random.Random, workdir: pathlib.Path) -> list[Op]:
    ops = [relations_op(workdir, k) for k in (2, 3, 4)]
    for k in (2, 3):
        for name, comps in CATALOGUE_COMPONENTS.items():
            expected = CATALOGUE_EULER_K2[name] if k == 2 else None
            ops.append(euler_op(name, cube.DIAGRAMS[name], k, comps, expected))
    ops += [euler_op(f"T2_{n}", torus_word(n), 3, torus_components(n)) for n in range(2, 11)]
    ops += [reidemeister_op(move, cube.DIAGRAMS[a], cube.DIAGRAMS[b], 3) for move, a, b in cube.MOVE_PAIRS]
    ops.append(operad_op(workdir, 1200, rng.randrange(1_000_000)))
    return ops


def _blocks(rng: random.Random, workdir: pathlib.Path) -> list[Op]:
    return [blocks_op(workdir, 4, rng.choice(BLOCKS_PRIMES), 2)]


def _kostant(rng: random.Random, workdir: pathlib.Path) -> list[Op]:
    cases = [(4, (3, 2, 1, 0)), (1, (4,)), (2, (3, 0)), (2, (5, 2)), (3, (2, 1, 0)), (3, (4, 2, 0))]
    return [kostant_op(n, lam) for n, lam in cases]


_BUILDERS = {"khovanov": _khovanov, "relations": _relations, "blocks": _blocks, "kostant": _kostant}


def build(workload: str, seed: int, workdir: pathlib.Path) -> list[Op]:
    """The workload's operations in the seed's order; writes input files to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, workdir)
    rng.shuffle(ops)
    return ops
