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
its roots and checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import polynomials as poly


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
        if not self.normal or all(c == 0 for c in self.normal):
            raise ValueError("normal vector must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def value(self, point) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point has dim {len(point)}, expected {self.dim}")
        return sum(u * x for u, x in zip(self.normal, point)) - self.offset

    def flipped(self) -> "OrientedHyperplane":
        return OrientedHyperplane(tuple(-u for u in self.normal), -self.offset)

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
        dims = {h.dim for h in self.hyperplanes}
        if len(dims) > 1:
            raise ValueError(f"mixed dimensions {dims}")

    @property
    def k(self) -> int:
        return len(self.hyperplanes)

    @property
    def dim(self) -> int:
        return self.hyperplanes[0].dim

    def is_essential(self) -> bool:
        """No two hyperplanes coincide, even after an orientation flip."""
        return len({h.canonical() for h in self.hyperplanes}) == self.k

    def canonical(self) -> "Arrangement":
        return Arrangement(tuple(sorted((h.canonical() for h in self.hyperplanes),
                                        key=OrientedHyperplane.sort_key)))

    def sort_key(self) -> tuple:
        return tuple(h.sort_key() for h in self.hyperplanes)


def moment_point(t, d: int) -> tuple[Fraction, ...]:
    """Curve point (C(t,1), ..., C(t,d)) at rational parameter t."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
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
    normal, offset = tuple(vec[:d]), vec[d]
    if all(u == 0 for u in normal):
        raise DegenerateInputError("points force a zero normal")
    return OrientedHyperplane(normal, offset).canonical()


def _root_set_hyperplane(roots) -> OrientedHyperplane:
    """The canonical hyperplane meeting the curve at the d given parameters.

    Its restriction is q(t) = prod (t - r).  Newton's forward-difference
    formula in the binomial basis, q(t) = sum_i (Delta^i q)(0) C(t, i),
    reads off normal_i = (Delta^i q)(0) and offset = -q(0).  With D the
    lcm of the roots' denominators, the integers Q(m) = prod (m*D - r*D)
    equal D^d q(m), so the differences run in ints and D^d cancels when
    canonicalizing: the result is the exact rational hyperplane.
    """
    den = math.lcm(*(r.denominator for r in roots))
    scaled = [r.numerator * (den // r.denominator) for r in roots]
    values = [math.prod(m * den - r for r in scaled)
              for m in range(len(scaled) + 1)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    pivot = next(u for u in diffs[1:] if u)  # normal_d = d! D^d is never zero
    return OrientedHyperplane(tuple(Fraction(u, pivot) for u in diffs[1:]),
                              Fraction(-diffs[0], pivot))


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
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.anchor_count < 0:
            raise ValueError(f"negative anchor count {self.anchor_count}")
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
    if ell == 0:
        j = d * k
    else:
        j = (d - ell) * k + ell
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

    One Sturm chain of the square-free part serves all intervals.  With
    V(x) the sign variations of the chain at x (zeros skipped), V drops by
    one exactly at each distinct root and V(root) equals V just after it,
    so V(a) - V(b) counts the roots in (a, b]; a root at b is taken off.
    """
    q = curve_restriction(h)
    chain = poly.sturm_chain(poly.squarefree_part(q))
    s = chain[0]
    variations = {t: poly.sign_variations(chain, t) for t in family.parameters}
    out = []
    for (a, b), mid in zip(family.intervals(), family.midpoints()):
        at_mid = poly.sign_at(s, mid) == 0
        simple = at_mid and poly.evaluate(poly.derivative(q), mid) != 0
        count = variations[a] - variations[b] - (poly.sign_at(s, b) == 0)
        out.append((at_mid, simple, count))
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


def _equal_partitions(items: tuple, size: int):
    """Unordered partitions of items into blocks of the given size."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for others in combinations(rest, size - 1):
        block = (first, *others)
        remaining = tuple(x for x in rest if x not in others)
        for tail in _equal_partitions(remaining, size):
            yield (block, *tail)


def enumerate_bisections(family: IntervalFamily, k: int) -> list[Arrangement]:
    """All k-hyperplane arrangements bisecting the family, in exact arithmetic.

    Unanchored families need j == d*k: each arrangement passes one
    hyperplane through each block of a partition of the j midpoints into
    k blocks of size d.  Anchored families need j == (d-ell)*k + ell and
    k >= 2: one free hyperplane through d midpoints, the rest through
    d-ell midpoints plus the ell anchors.

    A hyperplane is determined by its roots on the curve, so each block's
    hyperplane is built once from its root set, in integer arithmetic
    (_root_set_hyperplane): C(j, d) distinct hyperplanes in the
    unanchored case, however many partitions share them.  No partition
    needs a root check.  A block's hyperplane meets the curve exactly at
    its root set: simple roots at the block's midpoints, each inside its
    own interval, and the anchors, which precede the first interval.  So
    every hyperplane owns its block's intervals and enters no other, and
    every partition passes verify_bisection.  The cost is the distinct
    root sets plus the partitions.  The result is in canonical form,
    sorted by Arrangement.sort_key.
    """
    d, ell, j = family.d, family.anchor_count, family.j
    check_shape(d, k, ell)
    if j != (d - ell) * k + ell:
        raise ValueError(f"(d, k, ell) = ({d}, {k}, {ell}) needs "
                         f"j == (d-ell)*k + ell, got j={j}")
    mids = family.midpoints()
    anchors = family.anchors()
    # distinct hyperplanes by id; the memo is keyed by block, a tuple of
    # midpoint indices, whose root set determines the hyperplane (an
    # anchored block, the one with fewer than d midpoints, adds the anchors)
    planes: list[OrientedHyperplane] = []
    ids: dict[tuple[int, ...], int] = {}

    def plane(block: tuple[int, ...]) -> int:
        i = ids.get(block)
        if i is None:
            i = ids[block] = len(planes)
            roots = [mids[m] for m in block]
            if len(block) < d:
                roots += anchors
            planes.append(_root_set_hyperplane(roots))
        return i

    # blocks of a candidate are distinct root sets, so its hyperplanes are
    # distinct and every candidate is essential
    indices = tuple(range(j))
    if ell == 0:
        cands = [[plane(block) for block in partition]
                 for partition in _equal_partitions(indices, d)]
    else:
        cands = []
        for free_block in combinations(indices, d):
            free = plane(free_block)
            remaining = tuple(m for m in indices if m not in free_block)
            cands.extend([free, *(plane(block) for block in partition)]
                         for partition in _equal_partitions(remaining, d - ell))
    # ranks of the distinct hyperplanes in sort_key order, so sorting by
    # ranks is sorting by Arrangement.sort_key; the planes are canonical,
    # so each one's sort_key is its own (*normal, offset)
    order = sorted(range(len(planes)),
                   key=lambda i: (*planes[i].normal, planes[i].offset))
    rank = {i: r for r, i in enumerate(order)}
    rows = sorted(sorted(rank[i] for i in cand) for cand in cands)
    return [Arrangement(tuple(planes[order[r]] for r in row)) for row in rows]


def check_shape(d: int, k: int, ell: int = 0) -> None:
    """Raise ValueError unless (d, k, ell) names a family of the count law:
    d >= 1 and k >= 1 unanchored, k >= 2 and 1 <= ell <= d-1 anchored."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if ell == 0:
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        return
    if k < 2:
        raise ValueError(f"anchored case needs k >= 2, got k={k}")
    if not 1 <= ell <= d - 1:
        raise ValueError(f"need 1 <= ell <= d-1, got ell={ell}, d={d}")


def _equal_splits(m: int, blocks: int) -> int:
    """(blocks*m)! / (m!^blocks * blocks!): the ways to split blocks*m
    items into unlabelled blocks of m.  The block holding the least item
    left takes m - 1 of the others, so it is a product of binomials (all
    1 when m = 1), with no factorial of blocks*m."""
    if m == 1:
        return 1
    return math.prod(math.comb(i * m - 1, m - 1) for i in range(2, blocks + 1))


def count_bisections(d: int, k: int, ell: int = 0) -> int:
    """Closed-form count of the arrangements enumerate_bisections yields."""
    check_shape(d, k, ell)
    if ell == 0:
        return _equal_splits(d, k)
    j = (d - ell) * k + ell
    return math.comb(j, d) * _equal_splits(d - ell, k - 1)


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
