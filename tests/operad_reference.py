"""Test-side reference for `operads`: the point classes and operations with
every coordinate a `fractions.Fraction`, as the package held them before it
stored integer numerators over one denominator.

The package must agree with this module on every sampled point: the same
coordinates, basepoints and arities, and the same results of compose,
permute, cocompose, from_simplex and equal. The samplers here draw the same
random stream as the package's, so seeded draws can be compared one for one.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

from decatkit.operads import BASEPOINT, Basepoint


@dataclasses.dataclass(frozen=True)
class Point:
    """A point of an n-ary part, n >= 1, with one coordinate per input.

    Subclasses supply `_checked` (coerce and validate), `is_basepoint`, the
    per-block composition rule `_block(outer coordinate, inner coords)`."""

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
