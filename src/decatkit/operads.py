"""Two small based topological operads, checked pointwise in exact rationals.

The simplex operad has n-ary part the standard (n-1)-simplex: coordinate
tuples (s_1, ..., s_n) of nonnegative rationals summing to 1, with the
boundary (some s_i = 0) identified to a basepoint. Composition multiplies
block coordinates: gamma(s; t_1, ..., t_m) = (s_j * t_{j,i})_{j,i}.

The interval operad has n-ary part the families of n subintervals
([s_i, t_i]) of [0, 1] with s_i < t_i, based at the families with empty
common interior (max s_i >= min t_i). Composition rescales the inner
families into the outer intervals affinely. The simplex operad includes into
it by (s_1, ..., s_n) -> ([0, s_1], ..., [0, s_n]).

Both point types share `Point`, so one compose, equal (through the quotient:
both basepoint-equivalent or equal coordinates), permute and unit serve both.
`run_operad_checks` samples seeded rational points and runs one loop over the
two operads: associativity, unit laws, symmetric-group equivariance and
basepoint absorption, then the section property of co-composition and that
the inclusion respects composition."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction


@dataclasses.dataclass(frozen=True)
class Basepoint:
    """Shared basepoint sentinel for both operads."""


BASEPOINT = Basepoint()


@dataclasses.dataclass(frozen=True)
class Point:
    """A point of an n-ary part, n >= 1, with one coordinate per input.

    Subclasses supply `_checked` (coerce and validate), `is_basepoint`, the
    per-block composition rule `_block(outer coordinate, inner coords)` and
    the coordinates `UNIT` of the unit."""

    coords: tuple

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("arity must be at least 1")
        object.__setattr__(self, "coords", self._checked(coords))

    @property
    def arity(self) -> int:
        return len(self.coords)


class SimplexPoint(Point):
    UNIT = (Fraction(1),)

    @staticmethod
    def _checked(coords):
        coords = tuple(Fraction(c) for c in coords)
        if any(c < 0 for c in coords):
            raise ValueError(f"negative coordinate in {coords}")
        if sum(coords) != 1:
            raise ValueError(f"coordinates {coords} do not sum to 1")
        return coords

    @property
    def is_basepoint(self) -> bool:
        return any(c == 0 for c in self.coords)

    @staticmethod
    def _block(s, inner):
        return tuple(s * t for t in inner)


class IntervalFamily(Point):
    UNIT = ((Fraction(0), Fraction(1)),)

    @staticmethod
    def _checked(coords):
        coords = tuple((Fraction(s), Fraction(t)) for s, t in coords)
        for s, t in coords:
            if not (0 <= s < t <= 1):
                raise ValueError(f"bad interval [{s}, {t}]")
        return coords

    @property
    def is_basepoint(self) -> bool:
        return max(s for s, _ in self.coords) >= min(t for _, t in self.coords)

    @staticmethod
    def _block(outer, inner):
        s, t = outer
        width = t - s
        return tuple((s + width * a, s + width * b) for a, b in inner)


def _based(point) -> bool:
    return isinstance(point, Basepoint) or point.is_basepoint


def _blocks(coords: tuple, arities) -> list[tuple]:
    """Cut coords into consecutive blocks of the given lengths."""
    it = iter(coords)
    return [tuple(itertools.islice(it, n)) for n in arities]


def unit(kind: type[Point]) -> Point:
    return kind(kind.UNIT)


def compose(outer, inners):
    """gamma(outer; inners), basepoint absorbing."""
    if isinstance(outer, Basepoint) or any(isinstance(x, Basepoint) for x in inners):
        return BASEPOINT
    if len(inners) != outer.arity:
        raise ValueError(f"need {outer.arity} inner points, got {len(inners)}")
    point = type(outer)(
        c for s, inner in zip(outer.coords, inners) for c in outer._block(s, inner.coords)
    )
    return BASEPOINT if point.is_basepoint else point


def equal(a, b) -> bool:
    """Equality in the quotient by the basepoint."""
    if _based(a) or _based(b):
        return _based(a) and _based(b)
    return a.coords == b.coords


def permute(point, sigma: tuple[int, ...]):
    if isinstance(point, Basepoint):
        return BASEPOINT
    return type(point)(point.coords[s] for s in sigma)


def cocompose(point, arities: tuple[int, ...]):
    """Split a simplex point of arity sum(arities) into (outer, inners).

    Blocks are summed to the outer coordinates and renormalized to give the
    inner points; a zero block has no normalization and the whole answer is
    the basepoint, matching the quotient.
    """
    if isinstance(point, Basepoint):
        return BASEPOINT
    if sum(arities) != point.arity:
        raise ValueError(f"arities {arities} do not sum to {point.arity}")
    outer = []
    inners = []
    for block in _blocks(point.coords, arities):
        total = sum(block)
        outer.append(total)
        if total == 0:
            return BASEPOINT
        inners.append(SimplexPoint(tuple(c / total for c in block)))
    return SimplexPoint(tuple(outer)), tuple(inners)


def from_simplex(point):
    """The inclusion (s_1, ..., s_n) -> ([0, s_1], ..., [0, s_n]); a zero
    s_i gives no interval, so the boundary goes to the basepoint."""
    if isinstance(point, Basepoint) or 0 in point.coords:
        return BASEPOINT
    return IntervalFamily((Fraction(0), s) for s in point.coords)


def sample_simplex(rng: random.Random, n: int, boundary_rate: int = 8) -> SimplexPoint:
    """Random rational point, interior except one time in boundary_rate."""
    weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    if n > 1 and boundary_rate and rng.randrange(boundary_rate) == 0:
        weights[rng.randrange(n)] = Fraction(0)
    total = sum(weights)
    return SimplexPoint(tuple(w / total for w in weights))


def sample_intervals(rng: random.Random, n: int, basepoint_rate: int = 8) -> IntervalFamily:
    """Random family in 48ths: one time in basepoint_rate deliberately
    scattered (usually basepoint-equivalent), else nested."""
    if basepoint_rate and rng.randrange(basepoint_rate) == 0:
        starts = (rng.randrange(24) for _ in range(n))
        pairs = [(2 * a, 2 * rng.randint(a + 1, 24)) for a in starts]
    else:
        # Every [a, b] has a < mid < b: the family has a common interior point.
        lo = rng.randrange(23)
        hi = rng.randint(lo + 2, 24)
        mid = lo + hi
        pairs = [(rng.randint(2 * lo, mid - 1), rng.randint(mid + 1, 2 * hi)) for _ in range(n)]
    return IntervalFamily((Fraction(a, 48), Fraction(b, 48)) for a, b in pairs)


_HALF = Fraction(1, 2)
# (check prefix, point class, sampler, coordinates of a based point of arity
# m > 1): the simplex corner (0, ..., 0, 1), intervals meeting only at 1/2.
_OPERADS = (
    ("j", SimplexPoint, sample_simplex, lambda m: (0,) * (m - 1) + (1,)),
    ("q", IntervalFamily, sample_intervals, lambda m: ((0, _HALF),) * (m - 1) + ((_HALF, 1),)),
)


@dataclasses.dataclass
class OperadReport:
    seed: int
    trials: dict[str, int]
    failures: list[dict]

    @property
    def total_trials(self) -> int:
        return sum(self.trials.values())

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": dict(sorted(self.trials.items())),
            "total_trials": self.total_trials,
            "failures": self.failures,
            "passed": self.passed,
        }


def run_operad_checks(seed: int = 0, budget: int = 1200, max_arity: int = 5) -> OperadReport:
    """Sample seeded rational points and verify the operad axioms.

    The budget is the total number of sampled configurations, spread evenly
    across the checks; each configuration exercises one axiom instance.
    """
    if max_arity < 1:
        raise ValueError(f"max_arity must be at least 1, got {max_arity}")
    rng = random.Random(seed)
    trials: dict[str, int] = {}
    failures: list[dict] = []

    def record(check: str, ok: bool, **ctx):
        trials[check] = trials.get(check, 0) + 1
        if not ok:
            failures.append({"check": check, **{k: repr(v) for k, v in ctx.items()}})

    def arity() -> int:
        return rng.randint(1, max_arity)

    n_checks = 4 * len(_OPERADS) + 2  # four axioms each, cocompose and inclusion
    for _ in range(max(1, budget // n_checks)):
        for tag, kind, sample, corner in _OPERADS:
            m = arity()
            ns = [arity() for _ in range(m)]
            ps = [[arity() for _ in range(n)] for n in ns]
            a = sample(rng, m)
            bs = [sample(rng, n) for n in ns]
            cs = [[sample(rng, p) for p in row] for row in ps]
            left = compose(compose(a, bs), [c for row in cs for c in row])
            right = compose(a, [compose(b, row) for b, row in zip(bs, cs)])
            record(f"{tag}_associativity", equal(left, right), a=a, bs=bs)

            x = sample(rng, arity())
            one = unit(kind)
            ok = equal(compose(one, [x]), x) and equal(compose(x, [one] * x.arity), x)
            record(f"{tag}_unit", ok, x=x)

            m = arity()
            sigma = tuple(rng.sample(range(m), m))
            c = sample(rng, m)
            ds = [sample(rng, arity()) for _ in range(m)]
            lhs = compose(permute(c, sigma), [ds[s] for s in sigma])
            rhs = base = compose(c, ds)
            if not _based(base):
                blocks = _blocks(base.coords, [d.arity for d in ds])
                rhs = kind(y for s in sigma for y in blocks[s])
            record(f"{tag}_equivariance", equal(lhs, rhs), c=c, sigma=sigma)

            m = arity()
            a = sample(rng, m)
            bs = [sample(rng, arity()) for _ in range(m)]
            with_base = list(bs)
            with_base[rng.randrange(m)] = BASEPOINT
            ok = isinstance(compose(BASEPOINT, bs), Basepoint)
            ok = ok and isinstance(compose(a, with_base), Basepoint)
            if m > 1:
                ok = ok and equal(compose(kind(corner(m)), bs), BASEPOINT)
            record(f"{tag}_basepoint", ok, a=a)

            if kind is SimplexPoint:
                arities = tuple(arity() for _ in range(arity()))
                p = sample_simplex(rng, sum(arities), boundary_rate=4)
                split = cocompose(p, arities)
                if isinstance(split, Basepoint):
                    ok = p.is_basepoint or any(sum(b) == 0 for b in _blocks(p.coords, arities))
                else:
                    ok = equal(compose(*split), p)
                record("j_cocompose_section", ok, p=p, arities=arities)

        m = arity()
        a = sample_simplex(rng, m)
        bs = [sample_simplex(rng, arity()) for _ in range(m)]
        lhs = from_simplex(compose(a, bs))
        rhs = compose(from_simplex(a), [from_simplex(b) for b in bs])
        record("inclusion_map", equal(lhs, rhs), a=a)

    return OperadReport(seed=seed, trials=trials, failures=failures)
