"""Rational sample checks for the simplex and interval operad structures."""

import json
import random
from fractions import Fraction

import operad_pins
import operad_reference as reference
import pytest

from decatkit import cli, operads


@pytest.fixture
def rng():
    return random.Random(20240)


class TestSimplexPoints:
    def test_construction_guards(self):
        with pytest.raises(ValueError, match="sum to 1"):
            operads.SimplexPoint((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError, match="negative"):
            operads.SimplexPoint((Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError, match="arity"):
            operads.SimplexPoint(())

    def test_boundary_points_are_basepoint_in_the_quotient(self):
        interior = operads.SimplexPoint((Fraction(1, 3), Fraction(2, 3)))
        boundary = operads.SimplexPoint((Fraction(0), Fraction(1)))
        assert not interior.is_basepoint
        assert boundary.is_basepoint
        assert operads.equal(boundary, operads.BASEPOINT)
        assert not operads.equal(interior, operads.BASEPOINT)

    def test_unit_is_the_single_vertex(self):
        assert operads.unit(operads.SimplexPoint).coords == (Fraction(1),)


class TestSimplexComposition:
    def test_compose_multiplies_blockwise(self):
        outer = operads.SimplexPoint((Fraction(1, 2), Fraction(1, 2)))
        inners = [
            operads.SimplexPoint((Fraction(1, 3), Fraction(2, 3))),
            operads.SimplexPoint((Fraction(1),)),
        ]
        assert operads.compose(outer, inners).coords == (
            Fraction(1, 6),
            Fraction(1, 3),
            Fraction(1, 2),
        )

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValueError, match="inner points"):
            operads.compose(operads.unit(operads.SimplexPoint), [])

    def test_basepoint_absorbs(self):
        one = operads.unit(operads.SimplexPoint)
        assert operads.compose(operads.BASEPOINT, [one]) is operads.BASEPOINT
        two = operads.SimplexPoint((Fraction(1, 2), Fraction(1, 2)))
        assert operads.compose(two, [one, operads.BASEPOINT]) is operads.BASEPOINT

    def test_boundary_output_collapses(self):
        outer = operads.SimplexPoint((Fraction(0), Fraction(1)))
        inners = [operads.unit(operads.SimplexPoint), operads.unit(operads.SimplexPoint)]
        out = operads.compose(outer, inners)
        assert operads.equal(out, operads.BASEPOINT)

    def test_cocompose_sections_compose(self, rng):
        for _ in range(25):
            point = operads.sample_simplex(rng, 4, boundary_rate=0)
            outer, inners = operads.cocompose(point, (2, 2))
            assert operads.equal(operads.compose(outer, list(inners)), point)

    def test_cocompose_zero_block_collapses(self):
        # A block of zero mass cannot be renormalized into a simplex point.
        point = operads.SimplexPoint((Fraction(0), Fraction(0), Fraction(1)))
        assert operads.cocompose(point, (2, 1)) is operads.BASEPOINT

    def test_cocompose_arity_mismatch(self):
        with pytest.raises(ValueError, match="do not sum"):
            operads.cocompose(operads.unit(operads.SimplexPoint), (2,))

    def test_compose_refuses_interval_inners(self):
        outer = operads.SimplexPoint((Fraction(1, 2), Fraction(1, 2)))
        family = operads.IntervalFamily(((0, Fraction(1, 2)), (Fraction(1, 4), 1)))
        with pytest.raises(ValueError, match="SimplexPoint with an inner IntervalFamily"):
            operads.compose(outer, [family, family])
        with pytest.raises(ValueError, match="SimplexPoint with an inner tuple"):
            operads.compose(outer, [(Fraction(1),), (Fraction(1),)])

    def test_permute_reorders_coords(self):
        p = operads.SimplexPoint((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
        q = operads.permute(p, (2, 0, 1))
        assert sorted(q.coords) == sorted(p.coords)
        assert q.arity == 3


class TestIntervalFamilies:
    def test_construction_guards(self):
        with pytest.raises(ValueError, match="bad interval"):
            operads.IntervalFamily(((Fraction(1, 2), Fraction(1, 2)),))
        with pytest.raises(ValueError, match="bad interval"):
            operads.IntervalFamily(((Fraction(-1, 4), Fraction(1, 2)),))
        with pytest.raises(ValueError, match="arity"):
            operads.IntervalFamily(())

    def test_basepoint_when_no_common_interior(self):
        disjoint = operads.IntervalFamily(
            ((Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(1)))
        )
        assert disjoint.is_basepoint
        nested = operads.IntervalFamily(
            ((Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1)))
        )
        assert not nested.is_basepoint

    def test_compose_rescales_affinely(self):
        outer = operads.IntervalFamily(((Fraction(0), Fraction(1, 2)),))
        inner = operads.IntervalFamily(((Fraction(1, 2), Fraction(1)),))
        out = operads.compose(outer, [inner])
        assert out.coords == ((Fraction(1, 4), Fraction(1, 2)),)

    def test_compose_refuses_simplex_inners(self):
        outer = operads.IntervalFamily(((0, Fraction(1, 2)), (Fraction(1, 4), 1)))
        point = operads.SimplexPoint((Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError, match="IntervalFamily with an inner SimplexPoint"):
            operads.compose(outer, [point, point])

    def test_basepoint_absorbs(self):
        one = operads.unit(operads.IntervalFamily)
        assert operads.compose(operads.BASEPOINT, [one]) is operads.BASEPOINT

    def test_from_simplex_uses_left_anchored_intervals(self):
        p = operads.SimplexPoint((Fraction(1, 3), Fraction(2, 3)))
        fam = operads.from_simplex(p)
        assert fam.coords == (
            (Fraction(0), Fraction(1, 3)),
            (Fraction(0), Fraction(2, 3)),
        )
        boundary = operads.SimplexPoint((Fraction(0), Fraction(1)))
        assert operads.from_simplex(boundary) is operads.BASEPOINT

    def test_inclusion_commutes_with_composition(self, rng):
        for _ in range(25):
            outer = operads.sample_simplex(rng, 3, boundary_rate=0)
            inners = [operads.sample_simplex(rng, 2, boundary_rate=0) for _ in range(3)]
            lhs = operads.from_simplex(operads.compose(outer, inners))
            rhs = operads.compose(
                operads.from_simplex(outer),
                [operads.from_simplex(p) for p in inners],
            )
            assert operads.equal(lhs, rhs)


class TestSamplers:
    def test_sample_simplex_interior_and_boundary(self, rng):
        seen_boundary = False
        for _ in range(60):
            p = operads.sample_simplex(rng, 3)
            assert sum(p.coords) == 1
            seen_boundary = seen_boundary or p.is_basepoint
        assert seen_boundary

    def test_sample_intervals_valid(self, rng):
        seen_distinct = False
        for _ in range(40):
            fam = operads.sample_intervals(rng, 3)
            for s, t in fam.coords:
                assert 0 <= s < t <= 1
            # Nested families are not just one interval repeated.
            seen_distinct = seen_distinct or (not fam.is_basepoint and len(set(fam.coords)) > 1)
        assert seen_distinct

    def test_samplers_are_deterministic(self):
        a = operads.sample_simplex(random.Random(7), 4)
        b = operads.sample_simplex(random.Random(7), 4)
        assert a == b


class TestCheckRunner:
    def test_full_run_passes(self):
        report = operads.run_operad_checks(seed=0, budget=400, max_arity=5)
        assert report.passed
        assert report.failures == []
        assert report.total_trials >= 400

    def test_run_is_deterministic(self):
        one = operads.run_operad_checks(seed=11, budget=200)
        two = operads.run_operad_checks(seed=11, budget=200)
        assert one == two

    def test_other_seeds_pass_too(self):
        for seed in (1, 2, 3):
            assert operads.run_operad_checks(seed=seed, budget=150).passed

    def test_report_serialization(self, tmp_path):
        out = tmp_path / "operad.json"
        assert cli.run(["operad-check", "--budget", "100", "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "checks", "failures", "passed", "schema", "seed", "subcommand", "total_trials", "trials"
        }
        assert doc["seed"] == 0
        assert doc["passed"] is True

    def test_max_arity_must_be_positive(self):
        with pytest.raises(ValueError, match="max_arity"):
            operads.run_operad_checks(seed=0, budget=10, max_arity=0)


def _reversed(point):
    if isinstance(point, operads.Basepoint):
        return point
    return operads.permute(point, tuple(reversed(range(point.arity))))


def _reversed_blocks(kind):
    """`kind._block` with the inner inputs (STRIDE numerators each) reversed."""
    rule, k = kind._block, kind.STRIDE

    def broken(outer, inner, scale):
        inputs = [inner[i : i + k] for i in range(0, len(inner), k)]
        return rule(outer, [c for x in reversed(inputs) for c in x], scale)

    return staticmethod(broken)


_cocompose = operads.cocompose
_from_simplex = operads.from_simplex

# One broken ingredient per check name: each run must report that check.
BREAKAGES = {
    "j_associativity": (operads.SimplexPoint, "_block", _reversed_blocks(operads.SimplexPoint)),
    "q_associativity": (
        operads.IntervalFamily,
        "_block",
        _reversed_blocks(operads.IntervalFamily),
    ),
    "j_unit": (operads, "unit", lambda kind: operads.BASEPOINT),
    "q_unit": (operads.IntervalFamily, "UNIT", ((Fraction(0), Fraction(1, 2)),)),
    "j_equivariance": (operads, "permute", lambda point, sigma: point),
    "q_equivariance": (operads, "permute", lambda point, sigma: point),
    "j_basepoint": (operads.SimplexPoint, "is_basepoint", property(lambda self: False)),
    "q_basepoint": (operads.IntervalFamily, "is_basepoint", property(lambda self: False)),
    "j_cocompose_section": (operads, "cocompose", lambda p, ar: _cocompose(_reversed(p), ar)),
    "inclusion_map": (operads, "from_simplex", lambda p: _from_simplex(_reversed(p))),
}

# Interval composites of arity > 1 are nearly always basepoint-equivalent, and
# there a reordering cannot show, so at budget 200 these two checks may meet
# no configuration that exposes it.
WEAK_AT_200 = {"q_associativity", "q_equivariance"}


def test_breakages_cover_every_check():
    assert set(BREAKAGES) == set(operads.run_operad_checks(seed=0, budget=100).trials)


@pytest.mark.parametrize("check", sorted(BREAKAGES))
def test_each_check_detects_its_broken_ingredient(monkeypatch, check):
    target, name, broken = BREAKAGES[check]
    monkeypatch.setattr(target, name, broken)
    budget = 800 if check in WEAK_AT_200 else 200
    report = operads.run_operad_checks(seed=0, budget=budget)
    assert check in {f["check"] for f in report.failures}


def test_failure_witnesses_read_as_coordinates():
    simplex = operads.SimplexPoint((Fraction(1, 2), Fraction(1, 2)))
    assert repr(simplex) == "SimplexPoint(coords=(Fraction(1, 2), Fraction(1, 2)))"
    family = operads.IntervalFamily(((0, Fraction(1, 2)), (Fraction(1, 4), 1)))
    assert repr(family) == (
        "IntervalFamily(coords=((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 1))))"
    )


# run_operad_checks(seed=0, budget=200) with `permute` the identity, as the
# Fraction-coordinate implementation reported it: this pins the draw stream
# and the witnesses' text.
IDENTITY_PERMUTE_FAILURES = [
    ("SimplexPoint(coords=(Fraction(5, 17), Fraction(2, 17), Fraction(4, 17), Fraction(6, 17)))", "(2, 0, 3, 1)"),
    ("SimplexPoint(coords=(Fraction(7, 12), Fraction(5, 12)))", "(1, 0)"),
    ("SimplexPoint(coords=(Fraction(9, 17), Fraction(4, 17), Fraction(1, 17), Fraction(3, 17)))", "(1, 0, 3, 2)"),
    (
        "SimplexPoint(coords=(Fraction(9, 23), Fraction(4, 23), Fraction(3, 23), Fraction(2, 23), Fraction(5, 23)))",
        "(1, 3, 0, 4, 2)",
    ),
    (
        "SimplexPoint(coords=(Fraction(2, 19), Fraction(3, 19), Fraction(8, 19), Fraction(3, 19), Fraction(3, 19)))",
        "(4, 2, 3, 0, 1)",
    ),
    ("SimplexPoint(coords=(Fraction(2, 11), Fraction(4, 11), Fraction(5, 11)))", "(1, 0, 2)"),
    ("SimplexPoint(coords=(Fraction(3, 25), Fraction(7, 25), Fraction(9, 25), Fraction(6, 25)))", "(1, 3, 0, 2)"),
    ("SimplexPoint(coords=(Fraction(4, 11), Fraction(2, 11), Fraction(5, 11)))", "(1, 0, 2)"),
]


def test_identity_permute_failures_are_pinned(monkeypatch):
    monkeypatch.setattr(operads, "permute", lambda point, sigma: point)
    report = operads.run_operad_checks(seed=0, budget=200)
    expected = [{"check": "j_equivariance", "c": c, "sigma": sigma} for c, sigma in IDENTITY_PERMUTE_FAILURES]
    assert report.failures == expected


@pytest.mark.parametrize("seed", range(21))
def test_below_draws_as_randrange(seed):
    assert operad_pins.below_mismatches(seed) == []


@pytest.mark.parametrize("key", sorted(operad_pins.PINS))
def test_every_witness_of_a_run_is_pinned(key):
    # With `equal` always false every trial fails, so the digest covers every
    # drawn point: the whole draw stream, not just the failing checks.
    assert operad_pins.digest(*key) == operad_pins.PINS[key]


_SAMPLERS = {
    "simplex": (operads.sample_simplex, reference.sample_simplex),
    # The package scatters one interval family in 8, the reference's default.
    "intervals": (
        lambda rng, n, _rate: operads.sample_intervals(rng, n),
        lambda rng, n, _rate: reference.sample_intervals(rng, n),
    ),
}


def _assert_same(new, old):
    """A package result equals its Fraction-reference twin."""
    if isinstance(old, tuple):  # cocompose's (outer, inners)
        outer, inners = new
        _assert_same(outer, old[0])
        assert len(inners) == len(old[1])
        for x, y in zip(inners, old[1]):
            _assert_same(x, y)
        return
    if isinstance(new, operads.Basepoint) or isinstance(old, operads.Basepoint):
        assert new is old
        return
    assert type(new).__name__ == type(old).__name__
    assert new.coords == old.coords
    assert new.is_basepoint == old.is_basepoint
    assert new.arity == old.arity


def _draw(rng, sampler, n, rate):
    """A package point and its reference twin, drawn from one seed; both
    samplers must consume the same random stream."""
    seed = rng.randrange(2**32)
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    new = _SAMPLERS[sampler][0](new_rng, n, rate)
    old = _SAMPLERS[sampler][1](old_rng, n, rate)
    assert new_rng.getstate() == old_rng.getstate()
    _assert_same(new, old)
    return new, old


@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_operations_agree_with_fraction_reference(sampler):
    rng = random.Random(14)
    for _ in range(150):
        rate = rng.choice((0, 2, 8))  # 2: about half the draws are based
        m = rng.randint(1, 4)
        a, a_ref = _draw(rng, sampler, m, rate)
        pairs = [_draw(rng, sampler, rng.randint(1, 3), rate) for _ in range(m)]
        if rng.randrange(6) == 0:
            pairs[rng.randrange(m)] = (operads.BASEPOINT, operads.BASEPOINT)
        inners, inners_ref = [x for x, _ in pairs], [y for _, y in pairs]
        _assert_same(operads.compose(a, inners), reference.compose(a_ref, inners_ref))

        sigma = tuple(rng.sample(range(m), m))
        moved, moved_ref = operads.permute(a, sigma), reference.permute(a_ref, sigma)
        _assert_same(moved, moved_ref)
        assert operads.equal(a, moved) == reference.equal(a_ref, moved_ref)
        b, b_ref = pairs[0]
        assert operads.equal(a, b) == reference.equal(a_ref, b_ref)

        if sampler == "simplex":
            _assert_same(operads.from_simplex(a), reference.from_simplex(a_ref))
            arities = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            p, p_ref = _draw(rng, sampler, sum(arities), rate)
            _assert_same(operads.cocompose(p, arities), reference.cocompose(p_ref, arities))


@pytest.mark.parametrize(
    "kind, coords",
    [
        ("SimplexPoint", (1,)),
        ("SimplexPoint", (Fraction(1, 3), "2/3")),
        ("SimplexPoint", ["1/4", 0, 0.75]),
        ("SimplexPoint", (Fraction(2, 6), Fraction(4, 6))),
        ("SimplexPoint", (Fraction(1, 2), Fraction(1, 3))),
        ("SimplexPoint", (Fraction(3, 2), "-1/2")),
        ("SimplexPoint", ()),
        ("IntervalFamily", ((0, 1),)),
        ("IntervalFamily", (("1/4", "3/4"), (0, Fraction(1, 2)))),
        ("IntervalFamily", ((0, "1/3"), ("1/2", 1))),
        ("IntervalFamily", ((Fraction(1, 2), Fraction(1, 2)),)),
        ("IntervalFamily", ((0, 1), ("-1/4", "1/2"))),
        ("IntervalFamily", ()),
    ],
)
def test_user_built_points_agree_with_fraction_reference(kind, coords):
    build, build_ref = getattr(operads, kind), getattr(reference, kind)
    try:
        expected = build_ref(coords)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            build(coords)
        assert str(caught.value) == str(exc)
        return
    _assert_same(build(coords), expected)
