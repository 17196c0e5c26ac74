"""Acceptance checks.

One test per acceptance criterion. Every test enforces its wall-clock
budget and prints a single summary line; run with -s (or read the -v
status column) to see one pass/fail line per criterion.
"""

import itertools
import math
import time

from decatkit import cohomology, cube, functors, liealg, operads, verma, weights
from decatkit.exactlin import QQ
from verma_reference import weight_dims


def _finish(label, started, budget_s, detail=""):
    elapsed = time.monotonic() - started
    assert elapsed <= budget_s, f"{label}: took {elapsed:.1f}s, budget {budget_s}s"
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {label}: {elapsed:.2f}s <= {budget_s}s{suffix}")


def test_criterion_1_operad_axioms():
    started = time.monotonic()
    report = operads.run_operad_checks(seed=0, budget=1200, max_arity=5)
    assert report.passed, report.failures
    assert report.total_trials >= 1000
    _finish(
        "criterion 1, operad axioms",
        started,
        10,
        f"{report.total_trials} sample points, 0 failures",
    )


def test_criterion_2_free_lie_dims():
    started = time.monotonic()
    for n in range(1, 7):
        computed, expected = liealg.free_lie_multilinear_dim(n)
        assert computed == expected == math.factorial(n - 1), n
    _finish("criterion 2, free Lie multilinear dims", started, 5, "n <= 6")


def test_criterion_3_verma_consistency():
    started = time.monotonic()
    cases = [
        (1, (2,), 4),
        (2, (3, 0), 4),
        (2, (4, 1), 3),
        (3, (4, 2, 0), 4),
        (3, (3, 1, 0), 3),
    ]
    for n, lam, depth in cases:
        module = verma.TruncatedVerma(n, lam, depth)
        assert module.bracket_violations() == [], (n, lam, depth)
        character = verma.verma_character(n, lam, depth)
        assert character == weight_dims(module), (n, lam, depth)
        for mu, dim in character.items():
            diff = tuple(m - l for m, l in zip(mu, lam))
            assert dim == weights.kostant_partition(diff), (lam, mu)
    # Product-formula oracle on the finite quotients.
    for lam in ((2,), (3, 0), (4, 1), (2, 1, 0), (4, 2, 0)):
        q = verma.simple_quotient(len(lam), lam)
        assert q.dim == verma.weyl_dim(lam), lam
    _finish(
        "criterion 3, straightened action consistency",
        started,
        30,
        f"{len(cases)} truncated modules, brackets clean, characters exact",
    )


def test_criterion_4_blocks_vanishing_sweep():
    started = time.monotonic()
    eblock1_notes = []
    total_pairs = 0
    total_nonvanishing = 0
    for n, p in itertools.product((2, 3), (31, 37)):
        sweep = cohomology.blocks_sweep(n, p, 3)
        assert sweep.counterexamples == [], (n, p)
        total_pairs += sweep.pairs
        total_nonvanishing += sweep.nonvanishing_pairs
        eblock1_notes.append(
            f"n={n} p={p}: componentwise {'agrees' if sweep.componentwise_always else 'disagrees'}, "
            f"root-order {'agrees' if sweep.root_order_always else 'disagrees'}"
        )
    _finish(
        "criterion 4, permutation congruence sweep",
        started,
        300,
        f"{total_pairs} pairs, {total_nonvanishing} nonvanishing, 0 counterexamples; "
        + "; ".join(eblock1_notes),
    )


def test_criterion_5_kostant_pattern():
    started = time.monotonic()
    cases = [(1, (4,)), (2, (3, 0)), (2, (5, 2)), (3, (2, 1, 0)), (3, (4, 2, 0))]
    for n, lam in cases:
        report = cohomology.kostant_pattern_report(n, lam)
        assert report.matches, (n, lam)
        assert sum(report.table.values()) == math.factorial(n), (n, lam)
        for (degree, mu), mult in report.table.items():
            assert mult == 1
            sigma = next(
                s
                for s in weights.weyl_elements(n)
                if weights.apply_perm(s, lam) == mu
            )
            assert degree == weights.inversions(sigma), (n, lam, mu)
    _finish(
        "criterion 5, one class per Weyl element",
        started,
        120,
        f"{len(cases)} regular dominant weights, n <= 3",
    )


def test_criterion_6_diagram_relations():
    started = time.monotonic()
    checked = 0
    normalizations = set()
    for k in (2, 3, 4):
        for relation in ("R1", "R2", "R3", "R5", "L5"):
            reports = functors.verify_relation_everywhere(relation, k, max_len=4)
            assert reports and all(r.holds for r in reports), (relation, k)
            checked += len(reports)
        r4_reports = functors.verify_relation_everywhere("R4", k, max_len=4)
        for r in r4_reports:
            assert r.holds, (k, r.ambient)
            assert r.detail["normalization_holding"] == [2 * k], (k, r.ambient)
        normalizations.add(f"k={k}: t^{2 * k}")
        checked += len(r4_reports)
    _finish(
        "criterion 6, functor relations",
        started,
        60,
        f"{checked} ambient placements exact; R4 normalization " + ", ".join(sorted(normalizations)),
    )


def test_criterion_7_gl2_parabolic_induction():
    started = time.monotonic()
    for ell in range(11):
        report = verma.gl2_parabolic_induction_dim(ell, 31)
        assert report.dim == ell + 1, ell
        assert report.x_powers == list(range(ell + 1)), ell
    _finish("criterion 7, rank-one parabolic induction", started, 1, "ell <= 10, p=31")


def test_criterion_8_khovanov_cube():
    started = time.monotonic()
    for k in (2, 3):
        for move, name_a, name_b in cube.MOVE_PAIRS:
            assert cube.reidemeister_check(
                cube.DIAGRAMS[name_a], cube.DIAGRAMS[name_b], k
            ), (move, k)
        for name, text in cube.DIAGRAMS.items():
            euler = cube.euler_invariant(text, k)
            comps = cube.link_components(text, k)
            assert abs(euler) == k**comps, (name, k)
    for name, text in cube.DIAGRAMS.items():
        word = cube.parse_slice_word(text, 2)
        assert len(word.crossings) <= 8
        assert cube.euler_invariant(word) == cube.oracle_euler_k2(word), name
    trefoil = cube.khovanov_homology_k2(cube.DIAGRAMS["trefoil"], QQ)
    dense = [trefoil.get(d, 0) for d in range(4)]
    assert dense == [2, 0, 1, 1]
    assert all(r == 0 for d, r in trefoil.items() if d not in range(4))
    _finish(
        "criterion 8, link invariant cube",
        started,
        120,
        f"{len(cube.MOVE_PAIRS)} move pairs at k=2,3; oracle agreement on "
        f"{len(cube.DIAGRAMS)} diagrams; trefoil table [2, 0, 1, 1]",
    )
