"""Two small based topological operads, checked pointwise on exact points.

The simplex operad has n-ary part the standard (n-1)-simplex: coordinate
tuples (s_1, ..., s_n) of nonnegative rationals summing to 1, with the
boundary (some s_i = 0) identified to a basepoint. Composition multiplies
block coordinates: gamma(s; t_1, ..., t_m) = (s_j * t_{j,i})_{j,i}.

The interval operad has n-ary part the families of n subintervals
([s_i, t_i]) of [0, 1] with s_i < t_i, based at the families with empty
common interior (max s_i >= min t_i). Composition rescales the inner
families into the outer intervals affinely. The simplex operad includes into
it by (s_1, ..., s_n) -> ([0, s_1], ..., [0, s_n]).

Both share `Point`, integer numerators over one denominator, so one compose,
equal, permute and unit serve both. `run_operad_checks` checks seeded points:
associativity, unit, equivariance, basepoints, co-composition, the inclusion."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction


@dataclasses.dataclass(frozen=True)
class Basepoint:
    """Shared basepoint sentinel for both operads."""

    is_basepoint = True


BASEPOINT = Basepoint()


@dataclasses.dataclass(frozen=True)
class Point:
    """A point of an n-ary part, n >= 1, built from Fraction()-able coordinates
    and held as nums[i] / den in lowest terms, `STRIDE` per input. Subclasses
    supply `STRIDE`, `_check`, `UNIT`, `is_basepoint` and the per-input rule
    `_block(outer nums, inner nums over scale, scale)`."""

    nums: tuple
    den: int

    def __init__(self, coords):
        flat = coords if self.STRIDE == 1 else (c for s, t in coords for c in (s, t))
        fracs = [Fraction(c) for c in flat]
        den = math.lcm(*(f.denominator for f in fracs))
        vars(self).update(vars(self._of(tuple(f.numerator * (den // f.denominator) for f in fracs), den)))

    @classmethod
    def _of(cls, nums: tuple, den: int):
        """The point nums / den, reduced and validated."""
        if not nums:
            raise ValueError("arity must be at least 1")
        g = math.gcd(den, *nums)
        point = object.__new__(cls)
        vars(point).update(nums=tuple(c // g for c in nums) if g > 1 else nums, den=den // g)
        point._check()
        return point

    @property
    def coords(self) -> tuple:
        fracs = (Fraction(c, self.den) for c in self.nums)
        return tuple(fracs) if self.STRIDE == 1 else tuple(zip(fracs, fracs))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coords={self.coords!r})"

    @property
    def arity(self) -> int:
        return len(self.nums) // self.STRIDE


class SimplexPoint(Point):
    STRIDE = 1
    UNIT = (Fraction(1),)

    def _check(self):
        if min(self.nums) < 0:
            raise ValueError(f"negative coordinate in {self.coords}")
        if sum(self.nums) != self.den:
            raise ValueError(f"coordinates {self.coords} do not sum to 1")

    @property
    def is_basepoint(self) -> bool:
        return 0 in self.nums

    @staticmethod
    def _block(outer, inner, scale):
        return [outer[0] * t for t in inner]


class IntervalFamily(Point):
    STRIDE = 2
    UNIT = ((Fraction(0), Fraction(1)),)

    def _check(self):
        for s, t in zip(self.nums[::2], self.nums[1::2]):
            if not (0 <= s < t <= self.den):
                raise ValueError(f"bad interval [{Fraction(s, self.den)}, {Fraction(t, self.den)}]")

    @property
    def is_basepoint(self) -> bool:
        return max(self.nums[::2]) >= min(self.nums[1::2])

    @staticmethod
    def _block(outer, inner, scale):
        s, t = outer
        return [s * scale + (t - s) * a for a in inner]


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
    kind, k = type(outer), outer.STRIDE
    for x in inners:
        if not isinstance(x, kind):
            raise ValueError(f"cannot compose a {kind.__name__} with an inner {type(x).__name__}")
    scale = math.lcm(*(x.den for x in inners))
    nums = [c for i, x in enumerate(inners) for c in outer._block(
        outer.nums[k * i : k * i + k], [a * (scale // x.den) for a in x.nums], scale)]
    point = kind._of(tuple(nums), outer.den * scale)
    return BASEPOINT if point.is_basepoint else point


def equal(a, b) -> bool:
    """Equality in the quotient by the basepoint."""
    if a.is_basepoint or b.is_basepoint:
        return a.is_basepoint and b.is_basepoint
    return a.nums == b.nums and a.den == b.den


def permute(point, sigma: tuple[int, ...]):
    if isinstance(point, Basepoint):
        return BASEPOINT
    k = point.STRIDE
    return type(point)._of(tuple(point.nums[k * s + j] for s in sigma for j in range(k)), point.den)


def cocompose(point, arities: tuple[int, ...]):
    """Split a simplex point of arity sum(arities) into (outer, inners), the
    block sums and renormalized blocks; a zero block gives the basepoint."""
    if isinstance(point, Basepoint):
        return BASEPOINT
    if sum(arities) != point.arity:
        raise ValueError(f"arities {arities} do not sum to {point.arity}")
    blocks = _blocks(point.nums, arities)
    totals = tuple(sum(block) for block in blocks)
    if 0 in totals:
        return BASEPOINT
    return SimplexPoint._of(totals, point.den), tuple(map(SimplexPoint._of, blocks, totals))


def from_simplex(point):
    """The inclusion (s_1, ..., s_n) -> ([0, s_1], ..., [0, s_n]); a zero
    s_i gives no interval, so the boundary goes to the basepoint."""
    if isinstance(point, Basepoint) or 0 in point.nums:
        return BASEPOINT
    return IntervalFamily._of(tuple(c for s in point.nums for c in (0, s)), point.den)


def sample_simplex(rng: random.Random, n: int, boundary_rate: int = 8) -> SimplexPoint:
    """Random rational point, interior except one time in boundary_rate."""
    weights = [rng.randint(1, 9) for _ in range(n)]
    if n > 1 and boundary_rate and rng.randrange(boundary_rate) == 0:
        weights[rng.randrange(n)] = 0
    return SimplexPoint._of(tuple(weights), sum(weights))


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
    return IntervalFamily._of(tuple(c for pair in pairs for c in pair), 48)


# (check prefix, point class, sampler, a based point of arity m > 1): the
# simplex corner (0, ..., 0, 1), intervals meeting only at 1/2.
_OPERADS = (
    ("j", SimplexPoint, sample_simplex, lambda m: SimplexPoint._of((0,) * (m - 1) + (1,), 1)),
    ("q", IntervalFamily, sample_intervals, lambda m: IntervalFamily._of((0, 1) * (m - 1) + (1, 2), 2)),
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
            if not base.is_basepoint:
                blocks = _blocks(base.nums, [d.arity * kind.STRIDE for d in ds])
                rhs = kind._of(tuple(y for s in sigma for y in blocks[s]), base.den)
            record(f"{tag}_equivariance", equal(lhs, rhs), c=c, sigma=sigma)

            m = arity()
            a = sample(rng, m)
            bs = [sample(rng, arity()) for _ in range(m)]
            with_base = list(bs)
            with_base[rng.randrange(m)] = BASEPOINT
            ok = isinstance(compose(BASEPOINT, bs), Basepoint)
            ok = ok and isinstance(compose(a, with_base), Basepoint)
            if m > 1:
                ok = ok and equal(compose(corner(m), bs), BASEPOINT)
            record(f"{tag}_basepoint", ok, a=a)

            if kind is SimplexPoint:
                arities = tuple(arity() for _ in range(arity()))
                p = sample_simplex(rng, sum(arities), boundary_rate=4)
                split = cocompose(p, arities)
                if isinstance(split, Basepoint):
                    ok = p.is_basepoint or any(sum(b) == 0 for b in _blocks(p.nums, arities))
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
