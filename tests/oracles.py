"""Reference paths the package's fast paths are tested against.

The truncated F2 expansion of (t_1 + ... + t_k)^j that
hyperbisect.gf2poly's closed forms and its bit-dealing listing are
checked against, search oracles for the closed forms, the loop over a
that THM25_II's least dimension was found by, the trimming long
division that polynomials.divide replaced, polynomials built
from their roots, the lcm-denominator and Fraction kernels for root-set
hyperplanes, the tuple-partition enumeration that the small-integer
enumeration in hyperbisect.momentcurve replaced, an exact
root check for moment-curve hyperplanes, the orientation flip,
essentiality test and canonical form of hyperplane records, the
per-measure solver kernel
that the pooled kernel in hyperbisect.testmap must match bit for bit,
and the sequential restart loop that its lockstep batches must match.

Imported by the test modules (pytest puts this directory on sys.path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from hyperbisect import polynomials as poly
from hyperbisect import testmap
from hyperbisect.gf2poly import _check_args
from hyperbisect.momentcurve import (Arrangement, OrientedHyperplane,
                                     check_shape, curve_restriction)


@dataclass(frozen=True)
class F2Poly:
    """Multivariate polynomial over F2 with per-variable exponent cap.

    monomials holds exponent vectors of length num_vars; every exponent
    is between 0 and cap - 1, where cap = d + 1 encodes reduction modulo
    the ideal of (d+1)-st variable powers.
    """

    num_vars: int
    cap: int
    monomials: frozenset[tuple[int, ...]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError(f"need at least one variable, got {self.num_vars}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        for mono in self.monomials:
            if len(mono) != self.num_vars:
                raise ValueError(f"monomial {mono} has wrong arity")
            if any(e < 0 or e >= self.cap for e in mono):
                raise ValueError(f"monomial {mono} violates cap {self.cap}")

    @classmethod
    def zero(cls, num_vars: int, cap: int) -> "F2Poly":
        return cls(num_vars, cap, frozenset())

    @classmethod
    def one(cls, num_vars: int, cap: int) -> "F2Poly":
        return cls(num_vars, cap, frozenset({(0,) * num_vars}))

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __add__(self, other: "F2Poly") -> "F2Poly":
        if (self.num_vars, self.cap) != (other.num_vars, other.cap):
            raise ValueError("mixed rings")
        return F2Poly(self.num_vars, self.cap,
                      self.monomials ^ other.monomials)

    def times_variable_sum(self) -> "F2Poly":
        """Multiply by t_1 + ... + t_k, dropping capped monomials.

        Characteristic 2: a shifted copy landing on an existing monomial
        cancels it, hence the symmetric difference.  Dropping a monomial
        whose exponent hits the cap is sound because every multiple of it
        would be dropped too.
        """
        acc: set[tuple[int, ...]] = set()
        for mono in self.monomials:
            for i in range(self.num_vars):
                if mono[i] + 1 >= self.cap:
                    continue
                shifted = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                acc.symmetric_difference_update({shifted})
        return F2Poly(self.num_vars, self.cap, frozenset(acc))


def truncated_power_of_sum(j: int, k: int, d: int) -> F2Poly:
    """(t_1 + ... + t_k)^j reduced modulo the (d+1)-st variable powers.

    The result contains exponent vector a iff sum(a) == j, all a_i <= d,
    and C(j; a_1, ..., a_k) is odd.
    """
    _check_args(j, k, d)
    acc = F2Poly.one(k, d + 1)
    for _ in range(j):
        acc = acc.times_variable_sum()
    return acc


def ideal_member_by_expansion(j: int, k: int, d: int) -> bool:
    """Ideal membership the slow way: expand, reduce, test for zero."""
    return truncated_power_of_sum(j, k, d).is_zero


def carry_free_composition(j: int, k: int, d: int) -> tuple[int, ...] | None:
    """A composition of j into k parts <= d whose binary digits are disjoint.

    Such a composition exists iff C(j; a) is odd for some admissible
    exponent vector, i.e. iff the truncated power of the variable sum is
    nonzero, i.e. iff gf2poly.ideal_member(j, k, d) is False.  Returns
    one witness or None.  Backtracking distributes the set bits of j over
    the parts, high bit first, pruning parts that exceed d; it knows
    nothing of the closed form it checks.
    """
    bits = [1 << b for b in range(j.bit_length()) if j >> b & 1]
    bits.reverse()
    parts = [0] * k

    def place(idx: int) -> bool:
        if idx == len(bits):
            return True
        bit = bits[idx]
        seen: set[int] = set()
        for i in range(k):
            if parts[i] in seen:
                continue  # identical prefixes only need one branch
            seen.add(parts[i])
            if parts[i] + bit > d:
                continue
            parts[i] += bit
            if place(idx + 1):
                return True
            parts[i] -= bit
        return False

    return tuple(parts) if place(0) else None


def least_thm25ii_by_loop(j: int, k: int) -> tuple[int, int, int] | None:
    """THM25_II's least (d0, a, ell) for odd k >= 3, by a loop over a.

    1 <= ell = j - 2^a*k <= 2^a - 1 means 2^a*k < j < 2^a*(k+1); these
    ranges are disjoint for distinct a, so at most one a qualifies.
    """
    if k < 3 or k % 2 == 0:
        return None
    a = 1
    while (1 << a) * k + 1 <= j:
        ell = j - (1 << a) * k
        if ell <= (1 << a) - 1:
            return (1 << a) + ell, a, ell
        a += 1
    return None


def flipped(h: OrientedHyperplane) -> OrientedHyperplane:
    """The same hyperplane with the opposite orientation."""
    return OrientedHyperplane(tuple(-u for u in h.normal), -h.offset)


def is_essential(arr: Arrangement) -> bool:
    """No two hyperplanes coincide, even after an orientation flip."""
    return len({h.canonical() for h in arr.hyperplanes}) == arr.k


def canonical_arrangement(arr: Arrangement) -> Arrangement:
    """The arrangement's canonical hyperplanes, sorted by their keys."""
    return Arrangement(tuple(sorted((h.canonical() for h in arr.hyperplanes),
                                    key=OrientedHyperplane.sort_key)))


def divide_by_trimming(p: poly.Coeffs, q: poly.Coeffs
                       ) -> tuple[poly.Coeffs, poly.Coeffs]:
    """Quotient and remainder of nonzero q, by long division that trims
    the remainder's zero top before each step and stops once it is zero
    or of lower degree than q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lead = len(q) - 1, q[-1]
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
    return poly.make(quot), poly.make(rem)


def from_roots(roots) -> poly.Coeffs:
    """The monic polynomial prod (t - r) over the given roots."""
    p = poly.make([1])
    for r in roots:
        p = poly.multiply(p, poly.make([-Fraction(r), 1]))
    return p


def root_set_hyperplane_by_fractions(roots) -> OrientedHyperplane:
    """The canonical hyperplane meeting the curve at the given parameters,
    by forward differences of prod (t - r) in Fraction arithmetic."""
    roots = list(roots)
    values = [math.prod(m - r for r in roots) for m in range(len(roots) + 1)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return OrientedHyperplane(tuple(diffs[1:]), -diffs[0]).canonical()


def root_set_hyperplane(roots) -> OrientedHyperplane:
    """The canonical hyperplane meeting the curve at the d given parameters,
    by forward differences of prod (t - r) in integers.

    With D the lcm of the roots' denominators, the integers
    Q(m) = prod (m*D - r*D) equal D^d q(m), so the differences run in
    ints and D^d cancels when dividing by the pivot.
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


def equal_partitions(items: tuple, size: int):
    """Unordered partitions of items into blocks of the given size."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for others in combinations(rest, size - 1):
        block = (first, *others)
        remaining = tuple(x for x in rest if x not in others)
        for tail in equal_partitions(remaining, size):
            yield (block, *tail)


def enumerate_by_root_sets(family, k: int) -> list[Arrangement]:
    """enumerate_bisections by tuple partitions of the midpoint indices,
    one root_set_hyperplane per distinct block, ranked by Fraction sort
    keys."""
    d, ell, j = family.d, family.anchor_count, family.j
    if j != check_shape(d, k, ell):
        raise ValueError(f"(d, k, ell) = ({d}, {k}, {ell}) needs "
                         f"j == (d-ell)*k + ell, got j={j}")
    mids, anchors = family.midpoints(), family.anchors()
    ids: dict[tuple[int, ...], int] = {}
    planes: list[OrientedHyperplane] = []

    def plane(block: tuple[int, ...]) -> int:
        if block not in ids:
            roots = [mids[m] for m in block]
            if len(block) < d:
                roots += anchors
            ids[block] = len(planes)
            planes.append(root_set_hyperplane(roots))
        return ids[block]

    indices = tuple(range(j))
    if ell == 0:
        cands = [[plane(b) for b in partition]
                 for partition in equal_partitions(indices, d)]
    else:
        cands = []
        for free in combinations(indices, d):
            rest = tuple(m for m in indices if m not in free)
            cands.extend([plane(free), *map(plane, partition)]
                         for partition in equal_partitions(rest, d - ell))
    order = sorted(range(len(planes)), key=lambda i: planes[i].sort_key())
    rank = {i: r for r, i in enumerate(order)}
    rows = sorted(sorted(rank[i] for i in cand) for cand in cands)
    return [Arrangement(tuple(planes[order[r]] for r in row)) for row in rows]


def count_bisections_by_factorials(d: int, k: int, ell: int = 0) -> int:
    """The count law as quotients of factorials: (dk)!/(d!^k k!)
    unanchored, C(j, d) times the split of the other blocks anchored."""
    if ell == 0:
        return math.factorial(d * k) // (math.factorial(d) ** k
                                         * math.factorial(k))
    j, m = (d - ell) * k + ell, d - ell
    return math.comb(j, d) * (math.factorial(m * (k - 1))
                              // (math.factorial(m) ** (k - 1)
                                  * math.factorial(k - 1)))


def curve_roots_check(h: OrientedHyperplane, params) -> bool:
    """True iff the restriction vanishes exactly at params and nowhere else.

    Exact polynomial division: the restriction must factor as a nonzero
    constant times the product of (t - param).
    """
    params = [Fraction(t) for t in params]
    if len(set(params)) != len(params):
        raise ValueError("parameters must be distinct")
    q = curve_restriction(h)
    if not q:
        return False
    for t in params:
        q, rem = poly.divide(q, poly.make([-t, 1]))
        if rem or not q:
            return False
    return poly.degree(q) == 0


def centred_lifted(measures) -> list[np.ndarray]:
    """Each measure's points in the solver's centred unit-radius frame,
    lifted to (x, 1): the per-measure input of the kernels below."""
    pts = np.vstack([m.points for m in measures])
    center = pts.mean(axis=0)
    radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
    radius = radius if radius > 0 else 1.0
    return [np.hstack([(m.points - center) / radius,
                       np.ones((len(m.points), 1))]) for m in measures]


def signed_products(measure, W) -> np.ndarray:
    """Per point of one measure, the product of its k functional values."""
    lifted = np.hstack([measure.points, np.ones((len(measure.points), 1))])
    return np.prod(lifted @ W.T, axis=1)


def soft_imbalance(lifted, weights, totals, W, temp) -> float:
    """The solver's smoothed objective, one measure at a time."""
    obj = 0.0
    for X, w, tot in zip(lifted, weights, totals):
        prods = np.prod(X @ W.T, axis=1)
        s = float(np.tanh(prods / temp) @ w) / tot
        obj += s * s
    return obj


def hard_worst(lifted, weights, totals, W) -> float:
    """The solver's worst relative sign imbalance, one measure at a time."""
    worst = 0.0
    for X, w, tot in zip(lifted, weights, totals):
        prods = np.prod(X @ W.T, axis=1)
        worst = max(worst, abs(float(np.sign(prods) @ w)) / tot)
    return worst


def sequential_restarts(measures, k: int, config: testmap.SolverConfig):
    """Each restart of solve_bisection run alone, in index order: yields
    its directions in the input frame, their phi, and their relative
    imbalances.  Restart r searches with _single_search and the r-th
    child of SeedSequence(seed).spawn(max_restarts)."""
    d = testmap._common_dim(measures)
    pts = np.vstack([m.points for m in measures])
    center, radius = testmap._centering(pts)
    centered = (pts - center) / radius
    pool = testmap._Pool(measures, k, centered)
    diameter = testmap._data_diameter(centered)
    totals = np.array([m.total for m in measures])
    children = np.random.SeedSequence(config.seed).spawn(config.max_restarts)
    for child in children:
        rng = np.random.default_rng(child)
        W = testmap._single_search(rng, pool, k, d, diameter)
        W = testmap._uncenter_directions(W, center, radius)
        imb = testmap.phi(measures, W)
        yield W, imb, np.abs(imb) / totals


def solve_bisection_sequentially(measures, k: int,
                                 config: testmap.SolverConfig
                                 ) -> testmap.SolveResult:
    """solve_bisection with one restart at a time: the first restart
    whose worst relative imbalance passes the tolerance wins."""
    for idx, (W, imb, rel) in enumerate(sequential_restarts(measures, k,
                                                            config)):
        if float(rel.max()) <= config.tolerance:
            return testmap.SolveResult(
                status="SUCCESS", directions=W, imbalances=imb,
                relative_imbalances=rel, restarts_used=idx + 1,
                seed=config.seed)
    return testmap.SolveResult(
        status=testmap.NOT_FOUND, directions=None, imbalances=None,
        relative_imbalances=None, restarts_used=config.max_restarts,
        seed=config.seed)
