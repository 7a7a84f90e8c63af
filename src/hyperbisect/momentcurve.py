"""Exact constructions on the binomial moment curve.

The curve sends t to (C(t,1), C(t,2), ..., C(t,d)).  Its key feature is
algebraic: composing an affine functional with the curve gives a degree
<= d polynomial in t, so a hyperplane meets the curve in at most d
points, and d points on the curve determine a unique hyperplane.

Measures here are uniform-in-parameter masses on disjoint parameter
intervals.  An arrangement of k hyperplanes bisects all j interval
measures exactly when, for every interval, the product of the composed
functionals flips sign once, at the interval's parameter midpoint.
That reduces bisection to a statement about polynomial roots, checked
below with exact rational arithmetic and one Sturm chain per hyperplane,
and reduces the enumeration of bisecting arrangements to combinatorics:
partition the j midpoints into blocks and pass one hyperplane through
each block (plus, in the anchored variant, ell fixed early curve points
shared by all but one block).  The hyperplane through a root set meets
the curve there and nowhere else, so enumeration builds each one from
its roots and checks nothing.  _bisection_table computes the result as
a rank table, the distinct hyperplanes in order plus one row of ranks
per arrangement; enumerate_bisections wraps each row in an Arrangement
and the command line renders the table directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from operator import mul

from . import _integer, polynomials as poly
# the closed count lives in parity, beside its parities; still importable here
from .parity import check_shape, count_bisections  # noqa: F401


class DegenerateInputError(ValueError):
    """Input admits no unique exact solution (e.g. affinely dependent points)."""


class GenericityWarning(UserWarning):
    """Once raised when an enumerated candidate failed exact verification.

    No candidate can fail, so the package no longer raises it; the class
    stays for callers that still filter on it.
    """


@dataclass(frozen=True)
class OrientedHyperplane:
    """Affine hyperplane with functional p(x) = <x, normal> - offset.

    The positive side is where the functional is positive.  Scaling by a
    positive constant preserves the oriented hyperplane; canonical()
    fixes the scale and the orientation in one stroke, so two
    hyperplanes agree up to orientation flip iff their canonical forms
    are equal.
    """

    normal: tuple
    offset: object

    def __post_init__(self) -> None:
        if not any(self.normal):
            raise ValueError("normal vector must be nonzero")
        # ints and Fractions are finite; any other real (numpy float32
        # too) is checked, in a loop: enumeration builds every plane here
        for x in (*self.normal, self.offset):
            if (type(x) is not int and type(x) is not Fraction
                    and not math.isfinite(x)):
                raise ValueError("normal and offset must be finite")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def value(self, point) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point has dim {len(point)}, expected {self.dim}")
        return sum(u * x for u, x in zip(self.normal, point)) - self.offset

    def canonical(self) -> "OrientedHyperplane":
        """Scale so the first nonzero normal coordinate equals one."""
        pivot = next(u for u in self.normal if u != 0)
        return OrientedHyperplane(tuple(u / pivot for u in self.normal),
                                  self.offset / pivot)

    def sort_key(self) -> tuple:
        c = self.canonical()
        return (*c.normal, c.offset)


@dataclass(frozen=True)
class Arrangement:
    hyperplanes: tuple[OrientedHyperplane, ...]

    def __post_init__(self) -> None:
        if not self.hyperplanes:
            raise ValueError("arrangement needs at least one hyperplane")
        dims = {len(h.normal) for h in self.hyperplanes}
        if len(dims) > 1:
            raise ValueError(f"mixed dimensions {dims}")

    @property
    def k(self) -> int:
        return len(self.hyperplanes)

    @property
    def dim(self) -> int:
        return self.hyperplanes[0].dim

    def sort_key(self) -> tuple:
        return tuple(h.sort_key() for h in self.hyperplanes)


def moment_point(t, d: int) -> tuple[Fraction, ...]:
    """Curve point (C(t,1), ..., C(t,d)) at rational parameter t."""
    d = _integer("d", d, 1)
    t = Fraction(t)
    coords = []
    acc = Fraction(1)
    for i in range(1, d + 1):
        acc = acc * (t - (i - 1)) / i
        coords.append(acc)
    return tuple(coords)


def _nullspace_vector(rows: list[list[Fraction]]) -> list[Fraction]:
    """The kernel vector of a matrix whose kernel must be a line."""
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    if len(free_cols) != 1:
        raise DegenerateInputError(
            f"kernel has dimension {len(free_cols)}, expected 1")
    free = free_cols[0]
    vec = [Fraction(0)] * n_cols
    vec[free] = Fraction(1)
    for row_idx, c in enumerate(pivot_cols):
        vec[c] = -m[row_idx][free]
    return vec


def hyperplane_through(points) -> OrientedHyperplane:
    """The unique hyperplane through d affinely independent points in R^d.

    Exact rational solve; raises DegenerateInputError when the points
    fail to determine a single hyperplane.  The result is canonical.
    """
    points = [tuple(Fraction(x) for x in p) for p in points]
    if not points:
        raise ValueError("no points given")
    d = len(points[0])
    if len(points) != d:
        raise ValueError(f"need exactly {d} points in R^{d}, got {len(points)}")
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed dimension")
    rows = [[*p, Fraction(-1)] for p in points]
    vec = _nullspace_vector(rows)
    return OrientedHyperplane(tuple(vec[:d]), vec[d]).canonical()


def curve_restriction(h: OrientedHyperplane) -> poly.Coeffs:
    """Coefficients of t -> p(moment curve(t)) in the power basis."""
    d = h.dim
    q = poly.make([-Fraction(h.offset)])
    basis = poly.make([1])
    for i in range(1, d + 1):
        basis = poly.scale(poly.multiply(basis, poly.make([-(i - 1), 1])),
                           Fraction(1, i))
        q = poly.add(q, poly.scale(basis, Fraction(h.normal[i - 1])))
    return q


@dataclass(frozen=True)
class IntervalFamily:
    """Disjoint parameter intervals on the moment curve, plus anchors.

    parameters lists the 2j interval endpoints in strictly increasing
    order; interval r spans (parameters[2r], parameters[2r+1]).  With
    anchor_count = ell > 0 the construction pins all but one hyperplane
    through the curve points at parameters 0, 1, ..., ell-1, which must
    precede the first interval.
    """

    d: int
    parameters: tuple[Fraction, ...]
    anchor_count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _integer("d", self.d, 1))
        object.__setattr__(self, "anchor_count",
                           _integer("anchor_count", self.anchor_count, 0))
        ps = tuple(Fraction(t) for t in self.parameters)
        object.__setattr__(self, "parameters", ps)
        if len(ps) < 2 or len(ps) % 2:
            raise ValueError(f"need an even number >= 2 of endpoints, got {len(ps)}")
        if any(a >= b for a, b in zip(ps, ps[1:])):
            raise ValueError("endpoints must be strictly increasing")
        if self.anchor_count > 0 and not self.anchor_count - 1 < ps[0]:
            raise ValueError("anchors must precede the first interval")

    @property
    def j(self) -> int:
        return len(self.parameters) // 2

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        ps = self.parameters
        return [(ps[2 * r], ps[2 * r + 1]) for r in range(self.j)]

    def midpoints(self) -> list[Fraction]:
        return [(a + b) / 2 for a, b in self.intervals()]

    def anchors(self) -> list[Fraction]:
        return [Fraction(i) for i in range(self.anchor_count)]


def well_separated_family(d: int, k: int, ell: int = 0) -> IntervalFamily:
    """A canonical test family: unit intervals at integer endpoints."""
    d, _, ell, j = check_shape(d, k, ell)
    start = ell + 1
    params = []
    for r in range(j):
        params.extend([start + 2 * r, start + 2 * r + 1])
    return IntervalFamily(d=d, parameters=tuple(Fraction(t) for t in params),
                          anchor_count=ell)


def _interval_roots(h: OrientedHyperplane,
                    family: IntervalFamily) -> list[tuple[bool, bool, int]]:
    """(midpoint is a root, that root is simple, open-interval root count)
    of the curve restriction, for every interval of the family.

    One Sturm chain of the square-free part serves all intervals.
    """
    q = curve_restriction(h)
    chain = poly.sturm_chain(poly.squarefree_part(q))
    out = []
    for (a, b), mid in zip(family.intervals(), family.midpoints()):
        at_mid = poly.sign_at(chain[0], mid) == 0
        simple = at_mid and poly.evaluate(poly.derivative(q), mid) != 0
        out.append((at_mid, simple, poly.chain_roots_open(chain, a, b)))
    return out


def verify_bisection(arrangement: Arrangement, family: IntervalFamily) -> bool:
    """Exact check that the arrangement halves every interval measure.

    For each interval exactly one hyperplane's restriction vanishes at
    the midpoint; that root is simple and the only one strictly inside
    the interval, and no other restriction has a root there.  Then the
    sign of the product is constant on each half and opposite across the
    midpoint, so every interval's mass splits evenly, whatever the
    orientations.  Each hyperplane costs one Sturm chain, whose sign
    variations at the 2j endpoints give every interval's root count.
    """
    if arrangement.dim != family.d:
        raise ValueError(f"arrangement lives in R^{arrangement.dim}, "
                         f"family in R^{family.d}")
    covered = 0  # the intervals owned so far, as a bitmask
    for h in arrangement.hyperplanes:
        for r, (at_mid, simple, count) in enumerate(_interval_roots(h, family)):
            bit = 1 << r
            if at_mid and simple and count == 1 and not covered & bit:
                covered |= bit
            elif count:  # a second owner, a bad midpoint root or another root
                return False
    return covered == (1 << family.j) - 1


def _root_set_vectors(factors: list[list[int]], size: int,
                      base: list[int]) -> dict[int, list[int]]:
    """For every block of `size` midpoint indices, by bitmask: the values
    at m = 0..d of base times the product of the block's factors.

    A depth-first walk over the combinations in lexicographic order, so
    blocks that share a prefix share its partial product.
    """
    out: dict[int, list[int]] = {}
    n = len(factors)

    def walk(start: int, left: int, mask: int, values: list[int]) -> None:
        if not left:
            out[mask] = values
            return
        for i in range(start, n - left + 1):
            walk(i + 1, left - 1, mask | 1 << i,
                 list(map(mul, values, factors[i])))

    walk(0, size, 0, base)
    return out


def _compare_planes(a: tuple, b: tuple) -> int:
    """Order of (u, p, ...) entries by the rationals u / p, coordinate by
    coordinate; the pivots p are positive, so u_a/p_a < u_b/p_b exactly
    when u_a*p_b < u_b*p_a."""
    ua, pa, ub, pb = a[0], a[1], b[0], b[1]
    for x, y in zip(ua, ub):
        x, y = x * pb, y * pa
        if x != y:
            return -1 if x < y else 1
    return 0


def _split(remaining: int, size: int, blocks_left: int, rank: dict[int, int],
           ranks: list[int], rows: list[list[int]]) -> None:
    """Append to rows the sorted rank list of every partition of the
    bitmask `remaining` into blocks of `size` bits, each extending ranks."""
    if blocks_left == 1:
        rows.append(sorted([*ranks, rank[remaining]]))
        return
    low = remaining & -remaining
    rest = remaining ^ low
    bits = []
    while rest:
        bit = rest & -rest
        bits.append(bit)
        rest ^= bit
    for others in combinations(bits, size - 1):
        block = low + sum(others)
        if blocks_left == 2:  # the rest is the last block
            rows.append(sorted([*ranks, rank[block], rank[remaining ^ block]]))
        else:
            _split(remaining ^ block, size, blocks_left - 1, rank,
                   [*ranks, rank[block]], rows)


def _bisection_table(family: IntervalFamily,
                     k: int) -> tuple[list[OrientedHyperplane], list[list[int]]]:
    """enumerate_bisections as a rank table: (planes, rows).

    planes lists the distinct hyperplanes, canonical and in the order of
    OrientedHyperplane.sort_key; rows lists each arrangement as the
    sorted ranks of its hyperplanes in planes, and the rows are sorted.
    Every row holds k >= 1 distinct ranks, and every plane has dimension
    family.d.  The planes are built without
    OrientedHyperplane.__post_init__: their coordinates are Fractions,
    so finite, and normal_d = d! prod b is never zero, which is all the
    check would establish.  Any other caller goes through the
    constructor.
    """
    d, k, ell, j = check_shape(family.d, k, family.anchor_count)
    if j != family.j:
        raise ValueError(f"(d, k, ell) = ({d}, {k}, {ell}) needs "
                         f"j == (d-ell)*k + ell, got j={family.j}")
    ms = range(d + 1)
    factors = [[mid.denominator * m - mid.numerator for m in ms]
               for mid in family.midpoints()]
    # blocks by bitmask: free ones hold d midpoints, anchored ones d - ell
    # and the anchors, so with ell > 0 their masks never collide
    free = _root_set_vectors(factors, d, [1] * (d + 1))
    blocks = free
    if ell:
        anchors = [math.prod(m - c for c in range(ell)) for m in ms]
        blocks = {**free, **_root_set_vectors(factors, d - ell, anchors)}
    entries = []  # (u, pivot, mask): the hyperplane is u / pivot
    for mask, v in blocks.items():
        # forward differences in place, in the walk's own list: afterwards
        # v[i] is the i-th difference at 0
        for i in range(1, d + 1):
            for m in range(d, i - 1, -1):
                v[m] -= v[m - 1]
        u = v[1:]
        u.append(-v[0])
        pivot = next(x for x in u if x)  # normal_d = d! prod b is never zero
        if pivot < 0:
            u = [-x for x in u]
            pivot = -pivot
        entries.append((u, pivot, mask))
    entries.sort(key=cmp_to_key(_compare_planes))
    planes: list[OrientedHyperplane] = []
    rank: dict[int, int] = {}
    new, put = object.__new__, object.__setattr__
    for u, pivot, mask in entries:
        rank[mask] = len(planes)
        h = new(OrientedHyperplane)
        put(h, "normal", tuple(Fraction(x, pivot) for x in u[:-1]))
        put(h, "offset", Fraction(u[-1], pivot))
        planes.append(h)
    # blocks of a partition are distinct root sets, so its hyperplanes are
    # distinct and every arrangement is essential
    rows: list[list[int]] = []
    full = (1 << j) - 1
    if ell == 0:
        _split(full, d, k, rank, [], rows)
    else:
        for mask in free:
            _split(full ^ mask, d - ell, k - 1, rank, [rank[mask]], rows)
    rows.sort()
    return planes, rows


def _table_arrangements(planes: list[OrientedHyperplane],
                        rows: list[list[int]]) -> list[Arrangement]:
    """One Arrangement per row of a _bisection_table, built without
    Arrangement.__post_init__: each row holds k >= 1 ranks into planes,
    which all share the family's dimension d, and that is all the check
    would establish.  Any other caller goes through the constructor."""
    new, put = object.__new__, object.__setattr__
    out = []
    for row in rows:
        arr = new(Arrangement)
        put(arr, "hyperplanes", tuple(map(planes.__getitem__, row)))
        out.append(arr)
    return out


def enumerate_bisections(family: IntervalFamily, k: int) -> list[Arrangement]:
    """k-hyperplane arrangements bisecting the family, in exact arithmetic.

    Unanchored families need j == d*k: each arrangement passes one
    hyperplane through each block of a partition of the j midpoints into
    k blocks of size d.  These are all the bisecting arrangements, since
    k hyperplanes meet the curve in at most d*k = j points, one per
    interval, which must be its midpoint.  Anchored families need
    j == (d-ell)*k + ell and k >= 2, and get the anchored construction:
    one free hyperplane through d midpoints, the rest through d-ell
    midpoints plus the ell anchors.  That is not every bisecting
    arrangement: on well_separated_family(2, 3, 1) the lines with root
    sets {5/2, 9/2}, {13/2, 17/2} and {9/4, 9/4}, the last tangent to the
    curve inside (2, 3), halve every interval and are not listed.

    The work is _bisection_table's, which returns the distinct
    hyperplanes in rank order and each arrangement as a row of ranks;
    this function hands out one Arrangement per row.  A hyperplane is
    determined by its roots on the curve, so each block's hyperplane is
    built once from its root set, in small integers: C(j, d) distinct
    hyperplanes in the unanchored case, however many partitions share
    them.  Its restriction is q(t) = prod (t - r), and Newton's
    forward-difference formula in the binomial basis, q(t) = sum_i
    (Delta^i q)(0) C(t, i), reads off normal_i = (Delta^i q)(0) and
    offset = -q(0).  A midpoint a/b enters as the integer factor b*m - a
    at m = 0..d and an anchor c as m - c, so the product over a root set
    is q(m) times the positive scale prod b, which cancels when the
    differences are divided by the pivot, the first nonzero normal
    coordinate.  The distinct hyperplanes are ranked by comparing those
    quotients in integers, each one's Fractions are built once, and the
    partitions, bitmasks of midpoint indices, become sorted rank rows.
    Every row holds k >= 1 planes of dimension d by construction, so the
    arrangements skip the constructor's re-check of that.

    No partition needs a root check.  A block's hyperplane meets the curve
    exactly at its root set: simple roots at the block's midpoints, each
    inside its own interval, and the anchors, which precede the first
    interval.  So every hyperplane owns its block's intervals and enters
    no other, and every partition passes verify_bisection.  The cost is
    the distinct root sets plus the partitions.  The result is in
    canonical form, sorted by Arrangement.sort_key, and arrangements that
    share a hyperplane share the OrientedHyperplane object.
    """
    return _table_arrangements(*_bisection_table(family, k))


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def hyperplane_to_jsonable(h: OrientedHyperplane) -> dict:
    return {"normal": [_frac_str(u) for u in h.normal],
            "offset": _frac_str(h.offset)}


def hyperplane_from_jsonable(data: dict) -> OrientedHyperplane:
    return OrientedHyperplane(tuple(Fraction(s) for s in data["normal"]),
                              Fraction(data["offset"]))


def arrangement_to_jsonable(arr: Arrangement) -> list[dict]:
    return [hyperplane_to_jsonable(h) for h in arr.hyperplanes]


def arrangement_from_jsonable(data: list[dict]) -> Arrangement:
    return Arrangement(tuple(hyperplane_from_jsonable(d) for d in data))
