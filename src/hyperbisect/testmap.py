"""Equivariant test maps for hyperplane bisection, and a numerical solver.

An oriented affine hyperplane in R^d is encoded by a unit vector
w = (u', c) in R^{d+1}: lift points x to (x, 1), then the functional is
p(x) = <x, u'> + c.  The two poles (u' = 0) would be hyperplanes at
infinity and are rejected, not extended.

phi measures how far an arrangement of k such directions is from
bisecting each of j discrete measures: component i is the mass of
measure i on the positive side of the product functional minus the mass
on the negative side (points exactly on the union count for neither).
psi augments phi on the k-fold join: a join point carries barycentric
weights lambda and k directions, and maps to (lambda_i - 1/k)_i in the
wedge part and prod(lambda) * phi in the measure part.  The signed
permutation group acts on everything; equivariance of phi and psi under
that action is what the tests pin down, and a zero of psi with all
lambda_i = 1/k is exactly a bisecting arrangement.

The solver looks for such zeros directly, multi-starting from seeded
draws, and accepts only candidates whose phi -- float signs of float
products, a numerical check and not an exact one -- passes the
tolerance.  Each restart takes a start (_start: odd-numbered restarts
take the paper's test configuration read off the data, even-numbered
ones random rows), corrects it by Levenberg-Marquardt on a tanh-softened
phi (_correct), then polishes it on phi's signs by a (1+λ) evolution
strategy (Beyer & Schwefel 2002; _walk).

Kernel layout: the lifted points of all j measures sit in one float64
array (_Pool), built once per solve from the centred cloud.  Scoring a
stack of B arrangements is one matrix product into a work array, which
numpy runs as one BLAS call per stack member at every k, then the
products taken in place, one elementwise pass and one weighted dot
product per measure.

Restarts run in lockstep batches of 4 and then 8, or up to 64 on a
small input (_restart_batches), so a small stack's per-call overhead is
paid once per batch and iteration.  A batch races through the corrector
and the polish: it stops after the first iteration at which a member's
hard worst relative imbalance (_hard_worsts) is within the solve's
tolerance, skipping the polish if that is in the corrector, and
solve_bisection checks the members by phi in index order.  The corrector
judges a member once it has taken a step: a medoid-block start passes
exactly through data points, where the search frame can score it within
the tolerance and the input frame not.  Each stacked BLAS, LAPACK or
elementwise call runs per member as in a batch of one, so every member
stands bit for bit where it would alone at that iteration, and alone its
path does not depend on the goal.  So a batch fails only where each of
its restarts, run alone to its end, fails too (up to rounding between
the frames); tests/oracles.py keeps the reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import _integer

if TYPE_CHECKING:  # the solver itself never needs the exact layers
    from .momentcurve import Arrangement, IntervalFamily, OrientedHyperplane


class AtInfinityError(ValueError):
    """A pole direction (u' = 0) was used where a hyperplane is required."""


class MeasureOverflowError(ValueError):
    """A measure's weights or coordinates overflow float64 arithmetic."""


@dataclass
class DiscreteMeasure:
    """Weighted finite points in R^d; weights must be finite and positive."""

    points: np.ndarray
    weights: np.ndarray
    total: float = field(init=False)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim != 2 or not self.points.shape[1]:
            raise ValueError(f"points must be (n, d >= 1), got {self.points.shape}")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("one weight per point required")
        if self.points.shape[0] == 0:
            raise ValueError("measure needs at least one point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point coordinates must be finite")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("weights must be finite and strictly positive")
        with np.errstate(over="ignore"):
            self.total = float(self.weights.sum())
        if not math.isfinite(self.total):
            raise MeasureOverflowError("the weights' total overflows float64")

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


@dataclass(frozen=True)
class JoinPoint:
    """Barycentric weights plus k unit directions in R^{d+1}."""

    lambdas: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.lambdas) != len(self.directions):
            raise ValueError("one weight per direction required")
        if len({len(w) for w in self.directions}) > 1:
            raise ValueError("directions must have equal length")
        if any(lam < 0 for lam in self.lambdas):
            raise ValueError("barycentric weights must be nonnegative")
        # written so that NaN, which compares False, fails the checks
        if not abs(sum(self.lambdas) - 1.0) <= 1e-12:
            raise ValueError("barycentric weights must sum to 1")
        for w in self.directions:
            if not abs(math.fsum(c * c for c in w) - 1.0) <= 1e-9:
                raise ValueError("directions must be unit vectors")

    @property
    def k(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class GroupElement:
    """A sign vector and a permutation of {0, ..., k-1} (semidirect)."""

    signs: tuple[int, ...]
    permutation: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.permutation):
            raise ValueError("signs and permutation must have equal length")
        if any(s not in (0, 1) for s in self.signs):
            raise ValueError("signs must be 0 or 1")
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError(f"not a permutation: {self.permutation}")

    @property
    def k(self) -> int:
        return len(self.signs)

    @classmethod
    def identity(cls, k: int) -> "GroupElement":
        k = _integer("k", k, 0)
        return cls((0,) * k, tuple(range(k)))

    def inverse_permutation(self) -> tuple[int, ...]:
        inv = [0] * self.k
        for i, image in enumerate(self.permutation):
            inv[image] = i
        return tuple(inv)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Element acting like self after other: act(self, act(other, x))."""
        if self.k != other.k:
            raise ValueError("mismatched k")
        tau1, tau2 = self.permutation, other.permutation
        inv1 = self.inverse_permutation()
        perm = tuple(tau1[tau2[i]] for i in range(self.k))
        signs = tuple((self.signs[i] + other.signs[inv1[i]]) % 2
                      for i in range(self.k))
        return GroupElement(signs, perm)


def _refuse_poles(W: np.ndarray) -> None:
    """AtInfinityError when a direction, or a row of W, is a pole (u' = 0)."""
    if not W[..., :-1].any(axis=-1).all():
        raise AtInfinityError("pole direction has no affine hyperplane")


def sphere_to_hyperplane(w) -> OrientedHyperplane:
    """Decode a unit direction in R^{d+1} into an affine hyperplane.

    The hyperplane has functional <x, u'> + c, orientation preserved, no
    canonicalization; a pole (u' = 0) raises AtInfinityError.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] < 2:
        raise ValueError(f"direction must live in R^(d+1), d >= 1, got {w.shape}")
    if not abs(float(w @ w) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError("direction must be a unit vector")
    _refuse_poles(w)
    from .momentcurve import OrientedHyperplane
    return OrientedHyperplane(tuple(float(x) for x in w[:-1]), -float(w[-1]))


def _direction_matrix(directions, d: int) -> np.ndarray:
    W = np.asarray(directions, dtype=float)
    if W.ndim != 2:
        raise ValueError(f"directions must be (k, d+1), got shape {W.shape}")
    if not len(W):
        raise ValueError("need at least one direction (k >= 1), got none")
    if W.shape[1] != d + 1:
        raise ValueError(f"directions live in R^{W.shape[1]}, measures in R^{d}")
    if not np.isfinite(W).all():
        raise ValueError("directions must be finite")
    _refuse_poles(W)
    return W


def _common_dim(measures) -> int:
    """The dimension every measure lives in."""
    if not measures:
        raise ValueError("need at least one measure")
    d = measures[0].dim
    if any(m.dim != d for m in measures):
        raise ValueError("measures of mixed dimension")
    return d


class _Pool:
    """The lifted points (x, 1) of all measures in one float64 array, so
    that p(x) = <(x, 1), w>; spans holds, per measure, the start and stop
    of its columns and its weights, and totals the measures' totals.
    lifted_rows holds them (N, d+1) row-major, and lifted as their
    contiguous transpose, which every stack multiplies, at every k: one
    BLAS call per stack member, so each member's values, products and
    sums are those of its stack of one.  When all measures have the same
    number n >= 2 of points, w_stack holds their weights as (j, n, 1) and
    stacked_sums is one matrix product; otherwise it is None and the sums
    are taken per measure.
    """

    def __init__(self, measures, points: np.ndarray | None = None):
        if points is None:
            points = np.vstack([m.points for m in measures])
        self.lifted_rows = X = np.hstack([points, np.ones((len(points), 1))])
        self.lifted = np.ascontiguousarray(X.T)
        self.rows = np.empty((0, 0, len(X)))  # see _size_work_array
        self.spans = []  # (start, stop, weights) per measure
        self.totals = np.array([m.total for m in measures])
        start = 0
        for m in measures:
            stop = start + len(m.weights)
            self.spans.append((start, stop, m.weights))
            start = stop
        sizes = {len(m.weights) for m in measures}
        self.w_stack = (np.concatenate([m.weights for m in measures])
                        .reshape(len(measures), -1, 1)
                        if len(sizes) == 1 and sizes != {1} else None)

    def stacked_values(self, W: np.ndarray) -> np.ndarray:
        """The functional values of a (B, k, d+1) stack as the (k, B, N)
        rows of the work array, reused while (B, k) stays the same."""
        B, k = W.shape[:2]
        if self.rows.shape[:2] != (k, B):
            self._size_work_array(B, k)
        np.matmul(W, self.lifted, out=self.out)
        return self.rows

    def stacked_products(self, W: np.ndarray) -> np.ndarray:
        """The products of the k values per arrangement and point, as
        block 0 of the work array, (B, N), multiplied left to right as
        np.prod(axis=1) does on the per-measure (n, k) values."""
        buf, *rest = self.stacked_values(W)
        for row in rest:
            np.multiply(buf, row, out=buf)
        return buf

    def _size_work_array(self, B: int, k: int) -> None:
        """k blocks of (B, N), one per row of values; out is their
        (B, k, N) view, which the matrix product writes."""
        self.rows = np.empty((k, B, self.rows.shape[2]))
        self.out = self.rows.transpose(1, 0, 2)

    def stacked_sums(self, buf: np.ndarray) -> np.ndarray:
        """Per arrangement and measure, the weighted sum of its columns of
        buf, as (B, j); each sum is the dot product buf[b, start:stop] @ w
        takes."""
        w = self.w_stack
        if w is not None:
            return (buf.reshape(len(buf), len(w), 1, -1) @ w)[..., 0, 0]
        sums = np.empty((len(buf), len(self.spans)), buf.dtype)
        for c, (start, stop, w) in enumerate(self.spans):
            sums[:, c] = (buf[:, None, start:stop] @ w[:, None])[:, 0, 0]
        return sums


def phi(measures, directions) -> np.ndarray:
    """Signed mass imbalance of each measure across the arrangement.

    Component i is sum_points weight * sign(product functional); zero
    for measure i means the arrangement bisects it.
    """
    W = _direction_matrix(directions, _common_dim(measures))
    pool = _Pool(measures)
    return pool.stacked_sums(np.sign(pool.stacked_products(W[None])))[0]


def boundary_mass(measures, directions) -> np.ndarray:
    """Mass sitting exactly on the union of the hyperplanes, per measure."""
    W = _direction_matrix(directions, _common_dim(measures))
    pool = _Pool(measures)
    buf = pool.stacked_products(W[None])[0]
    return np.array([float(w[buf[start:stop] == 0.0].sum())
                     for start, stop, w in pool.spans])


def psi(measures, join_point: JoinPoint) -> tuple[np.ndarray, np.ndarray]:
    """The join test map: (lambda - 1/k, prod(lambda) * phi).

    The measure part is exactly zero whenever some lambda_i is zero, so
    on degenerate join faces the map does not depend on the measures (or
    touch the poles) at all.
    """
    k = join_point.k
    lambdas = np.asarray(join_point.lambdas, dtype=float)
    w_part = lambdas - 1.0 / k
    if any(lam == 0.0 for lam in join_point.lambdas):
        v_part = np.zeros(len(measures))
        return w_part, v_part
    scale = float(np.prod(lambdas))
    return w_part, scale * phi(measures, join_point.directions)


def act_on_join(g: GroupElement, point: JoinPoint) -> JoinPoint:
    """Position i receives weight lambda_{tau^-1(i)} and direction
    (-1)^{signs_i} w_{tau^-1(i)}."""
    if g.k != point.k:
        raise ValueError("group element and join point have different k")
    inv = g.inverse_permutation()
    lams = tuple(point.lambdas[inv[i]] for i in range(g.k))
    dirs = []
    for i in range(g.k):
        w = point.directions[inv[i]]
        dirs.append(tuple(-c for c in w) if g.signs[i] else w)
    return JoinPoint(lams, tuple(dirs))


def act_on_target(g: GroupElement, w_part, v_part) -> tuple[np.ndarray, np.ndarray]:
    """Permute the wedge part; scale the measure part by (-1)^{sum signs}."""
    w_part = np.asarray(w_part, dtype=float)
    v_part = np.asarray(v_part, dtype=float)
    if w_part.shape != (g.k,):
        raise ValueError(f"wedge part must have length {g.k}")
    inv = g.inverse_permutation()
    new_w = w_part[list(inv)]
    new_v = -v_part if sum(g.signs) % 2 else v_part.copy()
    return new_w, new_v


def interval_quadrature_measures(family: IntervalFamily, n: int) -> list[DiscreteMeasure]:
    """Midpoint-rule discretization of the family's interval measures.

    Each interval becomes n equally weighted points on the moment curve,
    total mass 1, uniform in the curve parameter.
    """
    n = _integer("n", n, 1)
    out = []
    for a, b in family.intervals():
        ts = float(a) + (np.arange(n) + 0.5) * (float(b) - float(a)) / n
        coords = np.empty((n, family.d))
        acc = np.ones(n)
        for i in range(1, family.d + 1):
            acc = acc * (ts - (i - 1)) / i
            coords[:, i - 1] = acc
        out.append(DiscreteMeasure(coords, np.full(n, 1.0 / n)))
    return out


NOT_FOUND = "NOT_FOUND"

# the corrector's temperatures (per stage, as multiples of each measure's
# upper median |product|), iterations per stage, first and least damping; the
# polish's iterations, its first, growth, largest, shrink and least step
# and its proposals (λ) per iteration; the largest batch of restarts, or on
# a small input the most, up to _WIDEST_BATCH, that fit a stack of
# _DISPATCH_POINTS point products (N·k each): a polish iteration costs
# about 23 µs plus 1.4-1.7 ns per point product (one x86-64 CPU)
_CORRECTOR_SCALES = (0.3, 0.1, 0.03, 0.01, 0.003)
_CORRECTOR_ITERATIONS = 12
_DAMPING, _MIN_DAMPING = 1e-2, 1e-6
_POLISH_ITERATIONS = 400
_POLISH_STEP, _POLISH_GROW, _POLISH_CEILING, _POLISH_SHRINK = 0.1, 1.2, 0.5, 0.9
_MIN_STEP = 1e-4
_PROPOSALS = 8
_MAX_BATCH = 8
_DISPATCH_POINTS = 16_000
_WIDEST_BATCH = 64


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-2          # max allowed relative imbalance, in (0, 1)
    seed: int = 0                    # stored as a plain int
    max_restarts: int = 20

    def __post_init__(self) -> None:
        # a relative imbalance is never above 1, so a tolerance of 1 or
        # more would pass any arrangement; NaN fails both comparisons
        if not 0 < self.tolerance < 1:
            raise ValueError(f"tolerance must lie strictly between 0 and 1, "
                             f"got {self.tolerance}")
        for name, least in (("seed", 0), ("max_restarts", 1)):
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name), least))


@dataclass
class SolveResult:
    status: str                      # "SUCCESS" or NOT_FOUND
    directions: np.ndarray | None    # (k, d+1) rows, unit length
    imbalances: np.ndarray | None    # phi: float signed mass per measure
    relative_imbalances: np.ndarray | None  # NOT_FOUND: best_restart's
    restarts_used: int
    seed: int
    best_restart: int | None = None  # NOT_FOUND: its best attempt

    @property
    def success(self) -> bool:
        return self.status == "SUCCESS"

    def arrangement(self) -> Arrangement:
        if not self.success:
            raise ValueError("no arrangement: solver reported NOT_FOUND")
        from .momentcurve import Arrangement
        return Arrangement(tuple(map(sphere_to_hyperplane, self.directions)))

    def to_jsonable(self) -> dict:
        out: dict = {"status": self.status, "restarts_used": self.restarts_used,
                     "seed": self.seed}
        if self.success:
            # the floats arrangement() would carry, read off the directions
            out["arrangement"] = [
                {"normal": [float(x) for x in w[:-1]], "offset": -float(w[-1])}
                for w in self.directions
            ]
            out["imbalances"] = [float(v) for v in self.imbalances]
            out["relative_imbalances"] = [float(v) for v in
                                          self.relative_imbalances]
        elif self.best_restart is not None:
            out["best_restart"] = self.best_restart
            out["best_relative_imbalances"] = [float(v) for v in
                                               self.relative_imbalances]
        return out


def _normalize_rows(W: np.ndarray) -> np.ndarray:
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _search_frame(measures):
    """The frame a solve searches in: the centroid and radius of the
    pooled cloud, the pool of its centred points (which keep offsets O(1)
    wherever the data sits), and per measure its lifted medoid (x, 1),
    the point nearest its weighted centroid.  MeasureOverflowError when
    these norms, or the squares of the offsets (up to radius + |center|)
    of directions mapped back, overflow float64.
    """
    pts = np.vstack([m.points for m in measures])
    with np.errstate(over="ignore", invalid="ignore"):
        center = pts.mean(axis=0)
        radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
        reach = np.square(radius + np.linalg.norm(center))
    if not np.isfinite(reach):
        raise MeasureOverflowError(
            "point coordinates overflow float64 when centred: the "
            "centroid or the radius is not finite")
    radius = radius if radius > 0 else 1.0
    pool = _Pool(measures, (pts - center) / radius)
    medoids = []
    for (start, stop, w), total in zip(pool.spans, pool.totals):
        x = pool.lifted_rows[start:stop]
        medoids.append(x[np.argmin(np.linalg.norm(x - (w / total) @ x, axis=1))])
    return center, radius, pool, np.array(medoids)


def _uncenter_directions(W: np.ndarray, center: np.ndarray,
                         radius: float) -> np.ndarray:
    """Map directions found in centered coordinates back to the original
    frame.  With y = (x - c)/s, the functional <y,u> + v equals
    (<x,u> + (v*s - <c,u>))/s, so signs are preserved exactly."""
    u, v = W[:, :-1], W[:, -1:]
    return _normalize_rows(np.hstack([u, v * radius - u @ center[:, None]]))


def _hard_worsts(pool: _Pool, W: np.ndarray, products=None) -> np.ndarray:
    """Per arrangement of a (B, k, d+1) stack, the largest relative sign
    imbalance over the measures, phi's signed sums over the totals;
    products, if given, are the stack's, as pool.stacked_products(W)
    returns them."""
    if products is None:
        products = pool.stacked_products(W)
    s = pool.stacked_sums(np.sign(products)) / pool.totals
    return np.abs(s, out=s).max(axis=1)


def _start(restart: int, rng, k: int, medoids: np.ndarray) -> np.ndarray:
    """The (k, d+1) start of restart index `restart` (0 for restart 1).

    Odd-numbered restarts start from the paper's test configuration read
    off the data (on the moment curve, a hyperplane through the midpoints
    of d intervals bisects them): rng draws a permutation of the j
    measures, and hyperplane i is the unit null vector of the lifted
    medoids of measures perm[i·d ... i·d+d-1], positions mod j.
    Even-numbered restarts start from random unit rows.
    """
    j, n = medoids.shape
    if restart % 2:
        return _normalize_rows(rng.normal(size=(k, n)))
    blocks = rng.permutation(j)[np.arange(k * (n - 1)).reshape(k, -1) % j]
    return np.linalg.svd(medoids[blocks])[2][:, -1]


def _correct(pool: _Pool, W: np.ndarray, goal: float) -> bool:
    """Levenberg-Marquardt (Marquardt 1963) on the j residuals
    r_i = Σ w·tanh(P/T_i) / total_i of each arrangement of the (B, k, d+1)
    stack W, in place; P is the product functional.  True if the members'
    race ended it: after an iteration, some member that has taken a step
    scores a hard worst (_hard_worsts) of at most goal.

    Per c of _CORRECTOR_SCALES, T_i is c times the upper median |P| over
    measure i (1 where that is 0) at the stage's start.  An iteration
    solves (JᵀJ + μ·diag(JᵀJ)) δ = -Jᵀr per member, row a's part of J
    being Σ w·sech²(P/T_i)/T_i · ∏_{b≠a}<x, W_b> · x / total_i, and takes
    the renormalised rows of W + δ if Σr² falls and no row is a pole;
    μ then falls tenfold, to at least _MIN_DAMPING, or else rises tenfold.
    Each member's calls are its own: it ends where it would alone.
    """
    B, k, n = W.shape
    shares = [pool.lifted_rows[start:stop] * (w / total)[:, None]
              for (start, stop, w), total in zip(pool.spans, pool.totals)]
    sizes = [stop - start for start, stop, _ in pool.spans]
    damping, diag = np.full(B, _DAMPING), np.arange(k * n)
    hard = np.full(B, np.inf)  # the start is not judged
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for scale, i in itertools.product(_CORRECTOR_SCALES,
                                          range(_CORRECTOR_ITERATIONS)):
            V = pool.stacked_values(W)
            others = np.ones_like(V)  # per row, the product of the others
            for a, b in itertools.permutations(range(k), 2):
                others[a] *= V[b]
            P = V[0] * others[0]
            if not i:
                med = np.stack([
                    np.partition(abs(P[:, start:stop]), size // 2, 1)[:, size // 2]
                    for (start, stop, _), size in zip(pool.spans, sizes)], 1)
                temp = np.repeat(scale * np.where(med > 0, med, 1.0), sizes, 1)
            t = np.tanh(P / temp)
            r = pool.stacked_sums(t) / pool.totals
            slope = others.transpose(1, 0, 2) * ((1 - t * t) / temp)[:, None]
            J = np.stack([slope[..., start:stop] @ x for (start, stop, _), x
                          in zip(pool.spans, shares)], 1).reshape(B, -1, k * n)
            JtJ = J.transpose(0, 2, 1) @ J
            JtJ[:, diag, diag] *= 1 + damping[:, None]
            JtJ[:, diag, diag] += 1e-300  # a zero column stays solvable
            step = np.linalg.solve(JtJ, -(J.transpose(0, 2, 1) @ r[..., None]))
            cand = W + step.reshape(B, k, n)
            cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
            products = pool.stacked_products(cand)
            r_new = pool.stacked_sums(np.tanh(products / temp)) / pool.totals
            taken = ((np.square(r_new).sum(1) < np.square(r).sum(1))
                     & cand[..., :-1].any(axis=-1).all(axis=-1))
            np.copyto(W, cand, where=taken[:, None, None])
            np.copyto(hard, _hard_worsts(pool, cand, products), where=taken)
            if (hard <= goal).any():
                return True
            damping *= np.where(taken, 0.1, 10.0)
            damping.clip(_MIN_DAMPING, None, out=damping)
    return False


def _walk(rngs, W: np.ndarray, step: np.ndarray, iterations: int,
          score, goal: float) -> None:
    """The hard-sign polish, a (1+λ) search, of each member of the
    (B, k, d+1) stack W, member b drawing from rngs[b]; W and the (B,)
    steps are updated in place.

    Each generator draws the whole walk at once: every proposal's row,
    then every Gaussian step.  Per iteration, each member moves a drawn
    row of W by its step times the Gaussian step and renormalises it, λ
    times, rejecting a row on zero or on a pole.  score maps a stack to
    its members' scores: W's start is scored as one stack, then per
    iteration the walkers' proposals, λ per walker; each walker moves to
    its best one (the first of equals) if that scores no more.  Its step
    grows on a strict improvement, to at most _POLISH_CEILING, or
    shrinks, to at least _MIN_STEP, when no scored proposal was taken,
    by one exact clip.  The members race: the walk ends at the first
    score at most goal.
    """
    B, k, n = W.shape
    rows = np.stack([rng.integers(k, size=(iterations, _PROPOSALS))
                     for rng in rngs], axis=1)
    moves = np.stack([rng.standard_normal((iterations, _PROPOSALS, n))
                      for rng in rngs], axis=1)
    # per proposal, its moved row's index in W and in λ copies of W (cand)
    slots = np.arange(B * _PROPOSALS).reshape(B, -1)
    copies, first = slots.ravel() // _PROPOSALS, slots[:, 0]
    taken, placed = rows + k * copies.reshape(B, -1), rows + k * slots
    cand = np.empty((B * _PROPOSALS, k, n))
    factors = np.array([1.0, _POLISH_SHRINK, _POLISH_GROW])
    cur = score(W)
    for i in range(iterations):
        if (cur <= goal).any():
            break
        z = moves[i]
        z *= step[:, None, None]
        z += W.reshape(-1, n).take(taken[i], axis=0)
        norms = np.sqrt(np.add.reduce(z * z, axis=-1))
        # clean, as usual: no norm and no coordinate of a normal part is 0
        clean = np.count_nonzero(z[..., :-1]) + np.count_nonzero(norms) == z.size
        if not clean:
            ok = (norms != 0) & z[..., :-1].any(axis=-1)
        z /= (norms if clean else np.where(ok, norms, 1.0))[..., None]
        W.take(copies, axis=0, out=cand)
        cand.reshape(-1, n)[placed[i]] = z
        val = score(cand).reshape(B, -1)
        if not clean:
            val = np.where(ok, val, np.inf)
        pick = first + val.argmin(axis=1)
        new = val.take(pick)
        accept = new <= cur
        grown = accept & (new < cur)
        shrunk = ~accept if clean else ok.any(axis=1) > accept
        step *= factors.take(2 * grown + shrunk)
        step.clip(_MIN_STEP, _POLISH_CEILING, out=step)
        np.copyto(W, cand.take(pick, axis=0), where=accept[:, None, None])
        np.copyto(cur, new, where=accept)


def _search(batch, rngs, k: int, pool: _Pool, medoids: np.ndarray,
            goal: float) -> np.ndarray:
    """The search of restart indices `batch`, drawing from the matching
    generators of rngs, as a (B, k, d+1) stack: each restart's start,
    then the corrector and the polish, raced to goal."""
    W = np.stack([_start(i, rng, k, medoids) for i, rng in zip(batch, rngs)])
    if not _correct(pool, W, goal):
        _walk(rngs, W, np.full(len(rngs), _POLISH_STEP), _POLISH_ITERATIONS,
              lambda V: _hard_worsts(pool, V), goal)
    return W


def _restart_batches(seed: int, max_restarts: int, work: int):
    """Restart indices and their generators: a batch of 4, then batches
    of _MAX_BATCH, each widened to as many restarts, up to _WIDEST_BATCH, as
    a stack of _DISPATCH_POINTS point products holds at `work` (N·k) per
    arrangement.  Restart i is seeded with SeedSequence(seed).spawn(
    max_restarts)[i]: each batch spawns its own children, and successive
    spawns continue where the last one stopped."""
    root = np.random.SeedSequence(seed)
    fits = min(_DISPATCH_POINTS // (_PROPOSALS * work), _WIDEST_BATCH)
    start, size = 0, 4
    while start < max_restarts:
        batch = range(start, min(start + max(size, fits), max_restarts))
        yield batch, [np.random.default_rng(s) for s in root.spawn(len(batch))]
        start, size = batch.stop, _MAX_BATCH


def solve_bisection(measures, k: int,
                    config: SolverConfig | None = None) -> SolveResult:
    """Search for k hyperplanes bisecting all measures at once.

    Deterministic in (measures, k, config): restart r uses the r-th
    spawn of the seed sequence, and restarts run in racing batches (see
    the module docstring).  Success means that phi of the directions,
    in the input frame, is within the tolerance relative to each
    measure's total: float signs of float products, not exact.  On
    NOT_FOUND, best_restart is the restart of least worst relative
    imbalance (the first on ties), and relative_imbalances are its.
    """
    config = config or SolverConfig()
    k = _integer("k", k, 1)
    _common_dim(measures)
    center, radius, pool, medoids = _search_frame(measures)
    work = k * sum(len(m.weights) for m in measures)  # N·k
    best = (math.inf, 0, None)  # worst relative imbalance, index, rel
    for batch, rngs in _restart_batches(config.seed, config.max_restarts, work):
        found = _search(batch, rngs, k, pool, medoids, config.tolerance)
        for idx, W in zip(batch, found):
            W = _uncenter_directions(W, center, radius)
            imb = phi(measures, W)
            rel = np.abs(imb) / pool.totals
            worst = float(rel.max())
            if worst <= config.tolerance:
                return SolveResult(status="SUCCESS", directions=W,
                                   imbalances=imb, relative_imbalances=rel,
                                   restarts_used=idx + 1, seed=config.seed)
            if worst < best[0]:
                best = (worst, idx, rel)
    return SolveResult(status=NOT_FOUND, directions=None, imbalances=None,
                       relative_imbalances=best[2],
                       restarts_used=config.max_restarts, seed=config.seed,
                       best_restart=best[1] + 1)


def _is_json_number(v) -> bool:
    # bool is an int subclass, but true and false are not JSON numbers
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def measures_from_jsonable(data) -> tuple[int, list[DiscreteMeasure]]:
    """Parse {"d": ..., "measures": [{"points": [{"x": [...], "w": ...}]}]}.

    d must be a JSON integer, each x a list of d JSON numbers and each w
    a JSON number; nothing else is converted into one.  An integer too
    large for float64 raises MeasureOverflowError.
    """
    if not isinstance(data, dict):
        raise ValueError("top level must be an object")
    try:
        d = _integer("d", data["d"], 1)
        raw_measures = data["measures"]
    except KeyError as exc:
        raise ValueError(f"missing field: {exc}") from exc
    if not isinstance(raw_measures, list) or not raw_measures:
        raise ValueError("measures must be a nonempty list")
    measures = []
    for m_idx, m in enumerate(raw_measures):
        try:
            pts = [p["x"] for p in m["points"]]
            ws = [p["w"] for p in m["points"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"measure {m_idx} malformed: {exc}") from exc
        if not pts:
            raise ValueError(f"measure {m_idx} malformed: it has no points")
        if not all(isinstance(x, list) and len(x) == d
                   and all(map(_is_json_number, x)) for x in pts):
            raise ValueError(f"measure {m_idx}: each x must be a list of "
                             f"{d} numbers")
        if not all(map(_is_json_number, ws)):
            raise ValueError(f"measure {m_idx}: each w must be a number")
        try:
            points = np.array([[float(v) for v in x] for x in pts])
            weights = np.array([float(w) for w in ws])
        except OverflowError as exc:
            raise MeasureOverflowError(f"measure {m_idx}: {exc}") from exc
        measures.append(DiscreteMeasure(points, weights))
    return d, measures

