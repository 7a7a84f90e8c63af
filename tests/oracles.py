"""Reference paths the package's fast paths are tested against.

The truncated F2 expansion of (t_1 + ... + t_k)^j that
hyperbisect.gf2poly's closed forms and its bit-dealing listing are
checked against, the carry-free test that binomial parities are
checked against, search oracles for the closed forms, the loop over a
that THM25_II's least dimension was found by, the trimming long
division that polynomials.divide replaced, polynomials built
from their roots, the lcm-denominator and Fraction kernels for root-set
hyperplanes, the tuple-partition enumeration that the small-integer
enumeration in hyperbisect.momentcurve replaced, the Legendre floor
sums that the block-count parities and the multinomial valuation were
computed by before Lucas' and Kummer's closed forms, an exact
root check for moment-curve hyperplanes, the orientation flip,
essentiality test and canonical form of hyperplane records, the
per-measure sign objective that the pooled one in hyperbisect.testmap
must match bit for bit, each restart of a solve run alone to its end,
in the solver's own search frame, with the race over them that its
batches of restarts must match (and the sequential restart loop over
them, which fails wherever a solve fails), the inverse of
sphere_to_hyperplane, and the writer of the measure JSON that
measures_from_jsonable reads.

Imported by the test modules (pytest puts this directory on sys.path).
"""

from __future__ import annotations

import copy
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


def is_carry_free(parts: list[int]) -> bool:
    """True when the binary additions of the parts produce no carries."""
    total = 0
    acc = 0
    for k in parts:
        if k < 0:
            raise ValueError(f"negative part in {parts}")
        total += k
        acc |= k
    return acc == total


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
    if j != check_shape(d, k, ell)[3]:
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


def legendre_valuation(n: int) -> int:
    """Exponent of 2 in n!, by Legendre's floor sum."""
    if n < 0:
        raise ValueError(f"negative n: {n}")
    v, q = 0, 2
    while q <= n:
        v += n // q
        q *= 2
    return v


def multinomial_valuation_by_legendre(n: int, parts: list[int]) -> int:
    """Exponent of 2 in C(n; parts) as E(n) - sum E(part), E = Legendre."""
    return legendre_valuation(n) - sum(map(legendre_valuation, parts))


def block_count_valuation(d: int, k: int, ell: int = 0) -> int:
    """Exponent of 2 in count_bisections(d, k, ell), from its factorials:
    E(dk) - E(k) - k E(d) unanchored, and anchored, with (j - d)!
    cancelled, E(j) - E(d) - E(k-1) - (k-1) E(d - ell)."""
    E = legendre_valuation
    if ell == 0:
        return E(d * k) - E(k) - k * E(d)
    j = (d - ell) * k + ell
    return E(j) - E(d) - E(k - 1) - (k - 1) * E(d - ell)


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


def hard_worst(lifted, weights, totals, W) -> float:
    """The solver's worst relative sign imbalance, one measure at a time."""
    worst = 0.0
    for X, w, tot in zip(lifted, weights, totals):
        prods = np.prod(X @ W.T, axis=1)
        worst = max(worst, abs(float(np.sign(prods) @ w)) / tot)
    return worst


class LoneRun:
    """Restart idx run alone to its end, raced by nothing: its start, the
    whole corrector, then the polish to a hard score of 0, run when a
    caller first iterates past the corrector.  Iterating gives its
    trajectory, one (point, W, hard) per point: (0, c) after corrector
    iteration c = 1, 2, ..., then (1, p) after polish iteration p = 0, 1,
    ... (p = 0 is the corrector's end).  W is the (k, d+1) directions in
    the search frame and hard their hard worst (testmap._hard_worsts),
    inf in the corrector until W first moves off the start: the race does
    not judge a member that has taken no step (a step taken onto W's own
    bits would count as none).  A member of a batch follows the same
    trajectory until the batch's race cuts it, whatever the goal."""

    def __init__(self, idx: int, rng, k: int, pool, medoids):
        self.rng, self.pool = rng, pool
        self.W = W = np.stack([testmap._start(idx, rng, k, medoids)])
        spy, seen = copy.copy(pool), []

        def values(V, stacked_values=spy.stacked_values):
            if V is W:  # each corrector iteration starts by scoring W
                seen.append(W[0].copy())
            return stacked_values(V)
        spy.stacked_values = values
        testmap._correct(spy, W, -math.inf)
        corrector = seen[1:] + [W[0].copy()]
        assert len(corrector) == (len(testmap._CORRECTOR_SCALES)
                                  * testmap._CORRECTOR_ITERATIONS)
        hard = testmap._hard_worsts(pool, np.stack(corrector))
        moved = np.logical_or.accumulate([V.tobytes() != seen[0].tobytes()
                                          for V in corrector])
        hard[~moved] = math.inf
        self.corrector = [((0, c), V, h) for c, (V, h)
                          in enumerate(zip(corrector, hard), 1)]
        self.polish = None

    def __iter__(self):
        yield from self.corrector
        if self.polish is None:
            self.polish = self._polish()
        yield from self.polish

    def _polish(self) -> list:
        W, pool, walked = self.W, self.pool, []

        def score(V):  # the walk scores its start, then once per iteration
            walked.append(W[0].copy())
            return testmap._hard_worsts(pool, V)
        testmap._walk([self.rng], W, np.full(1, testmap._POLISH_STEP),
                      testmap._POLISH_ITERATIONS, score, 0.0)
        walked = walked[1:] + [W[0].copy()]
        hard = testmap._hard_worsts(pool, np.stack(walked))
        return [((1, p), V, h) for p, (V, h) in enumerate(zip(walked, hard))]

    @property
    def end(self) -> np.ndarray:
        """The directions at the end of the run, in the search frame."""
        *_, (_, W, _) = self
        return W


def stop(run, goal: float, cut=None):
    """Where a LoneRun stands in a race to goal that is cut at the point
    `cut`: at its first point of hard score at most goal, or at cut if
    that comes first, or at its end.  Returns W and the point of its
    arrival (None: it has not arrived there)."""
    for point, W, hard in run:
        if hard <= goal:
            return W, point
        if point == cut:
            break
    return W, None


def restart_alone(idx: int, rng, k: int, pool, medoids, goal: float,
                  cut=None):
    """Restart idx's search run alone, as testmap._search([idx], [rng], k,
    pool, medoids, goal) runs it, cut at the point `cut` (see LoneRun)
    if it gets that far: its (k, d+1) directions in the search frame and
    its arrival, the point of its first hard score at most goal."""
    return stop(LoneRun(idx, rng, k, pool, medoids), goal, cut)


class LoneRuns:
    """The restarts of solve_bisection(measures, k, config), each run
    alone to its end (LoneRun) once, when first asked for, and checked
    as the solve checks them: in the input frame, by phi."""

    def __init__(self, measures, k: int, config: testmap.SolverConfig):
        self.measures, self.k = measures, k
        self.center, self.radius, *self.frame = testmap._search_frame(measures)
        self.totals = np.array([m.total for m in measures])
        self.children = np.random.SeedSequence(config.seed).spawn(
            config.max_restarts)
        self.runs = {}

    def __getitem__(self, idx: int) -> LoneRun:
        if idx not in self.runs:
            rng = np.random.default_rng(self.children[idx])
            self.runs[idx] = LoneRun(idx, rng, self.k, *self.frame)
        return self.runs[idx]

    def checked(self, W):
        """W in the input frame, its phi and its relative imbalances."""
        W = testmap._uncenter_directions(W, self.center, self.radius)
        imb = testmap.phi(self.measures, W)
        return W, imb, np.abs(imb) / self.totals


def sequential_restarts(measures, k: int, config: testmap.SolverConfig,
                        goal: float | None = None, runs=None):
    """Each restart of solve_bisection run alone, in index order: yields
    its directions in the input frame, their phi, and their relative
    imbalances.  Restart r searches as a batch of one, with the r-th
    child of SeedSequence(seed).spawn(max_restarts), raced to goal; by
    default to its end (the whole corrector, then the polish to 0), the
    search a solve's status is compared with."""
    runs = runs or LoneRuns(measures, k, config)
    for idx in range(config.max_restarts):
        W = runs[idx].end if goal is None else stop(runs[idx], goal)[0]
        yield runs.checked(W)


def solve_bisection_sequentially(measures, k: int,
                                 config: testmap.SolverConfig,
                                 runs=None) -> testmap.SolveResult:
    """The restarts run alone to their end, in index order: the first
    whose worst relative imbalance passes the tolerance wins."""
    for idx, (W, imb, rel) in enumerate(sequential_restarts(
            measures, k, config, runs=runs)):
        if float(rel.max()) <= config.tolerance:
            return testmap.SolveResult(
                status="SUCCESS", directions=W, imbalances=imb,
                relative_imbalances=rel, restarts_used=idx + 1,
                seed=config.seed)
    return testmap.SolveResult(
        status=testmap.NOT_FOUND, directions=None, imbalances=None,
        relative_imbalances=None, restarts_used=config.max_restarts,
        seed=config.seed)


def solve_bisection_by_race(measures, k: int, config: testmap.SolverConfig,
                            runs=None) -> testmap.SolveResult:
    """solve_bisection from its restarts run alone (LoneRuns), grouped as
    _restart_batches groups them.  Each batch races to the tolerance: it
    ends at the least point (stage, then iteration) at which a member
    arrives (stop), every member cut there, or else at every member's
    end.  Its members are checked in index order by phi, and the first
    that passes wins: the arrival of least index at that point, unless
    phi and the hard score disagree by rounding.  On NOT_FOUND, the best
    restart is the one of least worst relative imbalance, the first on
    ties."""
    runs = runs or LoneRuns(measures, k, config)
    tol = config.tolerance
    work = k * sum(len(m.weights) for m in measures)
    tried = []  # (worst relative imbalance, index, relative imbalances)
    for batch, _ in testmap._restart_batches(config.seed,
                                             config.max_restarts, work):
        cut = None  # the least arrival so far: none is followed past it
        for idx in batch:
            cut = stop(runs[idx], tol, cut)[1] or cut
        for idx in batch:
            W, imb, rel = runs.checked(stop(runs[idx], tol, cut)[0])
            if float(rel.max()) <= tol:
                return testmap.SolveResult(
                    status="SUCCESS", directions=W, imbalances=imb,
                    relative_imbalances=rel, restarts_used=idx + 1,
                    seed=config.seed)
            tried.append((float(rel.max()), idx, rel))
    _, idx, rel = min(tried, key=lambda r: r[:2])
    return testmap.SolveResult(
        status=testmap.NOT_FOUND, directions=None, imbalances=None,
        relative_imbalances=rel, restarts_used=config.max_restarts,
        seed=config.seed, best_restart=idx + 1)


def hyperplane_to_sphere_point(h: OrientedHyperplane) -> np.ndarray:
    """Inverse direction of testmap.sphere_to_hyperplane, up to positive
    scale."""
    w = np.array([float(u) for u in h.normal] + [-float(h.offset)])
    return w / np.linalg.norm(w)


def measures_to_jsonable(d: int, measures) -> dict:
    """The measure JSON that testmap.measures_from_jsonable reads."""
    return {"d": d, "measures": [
        {"points": [{"x": [float(v) for v in x], "w": float(w)}
                    for x, w in zip(m.points, m.weights)]}
        for m in measures
    ]}
