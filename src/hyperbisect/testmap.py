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

The solver looks for such zeros directly: a (1+λ) evolution strategy
(Beyer & Schwefel 2002) minimizes a softened version of phi (tanh
instead of sign) with the temperature annealed downward over stages,
then polishes on phi's signs, multi-starting from seeded random
directions, and accepts only candidates whose phi -- float signs of
float products, a numerical check and not an exact one -- passes the
tolerance.  Each iteration of a restart moves one uniformly drawn row
of its arrangement by a Gaussian step and renormalises it, λ = 8 times
over, and keeps the best of those proposals if it is no worse.

Kernel layout: the lifted points of all j measures sit in one array
(_Pool), built once per solve from the centred cloud, with, per
measure, its span of the pooled columns, its weights and its total.
Scoring a stack of B arrangements is one matrix product (at k = 1, one
per measure) into a (k, B, N) work array, the k rows multiplied in
place into row 0's contiguous (B, N) block, one elementwise pass over
that block (tanh in place, or sign into a spare block) and one weighted
dot product per arrangement and measure's slice of the result.  When
all measures have the same number of points (more than one), those dot
products are one stacked matrix product, and the squared imbalances are
added across measures left to right.  The annealing scorer, which only
picks the proposal kept, runs on a float32 pool of the centred points,
weighted by shares of each measure's total, and the polish on a float64
pool of them (_search_frame builds both); phi and the success test run
in float64.  Every step does the same floating-point operations, in the
same order, as scoring each measure on its own, so solver output is
bit-identical to the per-measure kernels kept in tests/oracles.py.

Every restart is scored by the same two stacked functions, one per
objective (_soft_imbalances, _hard_worsts); phi, the polish's sign
objective and the success check read one signed-sum kernel
(_signed_sums).  Restarts run in lockstep batches, restart 1 alone and
then up to 8 at a time, or up to 64 on a small input (_restart_batches),
so the per-call overhead that dominates a small stack is paid once per
batch and iteration; each generator draws a whole stage's randomness in
one call.  Each stacked call runs the same BLAS routine or elementwise
operation per member as a batch of one, so every member ends bit for bit
where it would alone and the output never depends on the batching;
tests/oracles.py keeps the sequential restart loop as the reference.
"""

from __future__ import annotations

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
        if self.points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {self.points.shape}")
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
    """The lifted points (x, 1) of all measures in one array, for k
    hyperplanes, so that p(x) = <(x, 1), w>, in the dtype of points (by
    default the raw ones in float64: they could overflow float32).

    stacked_products(W) gives, for each arrangement of a stack (a single
    one is a stack of one), a row of the pooled length N; spans holds,
    per measure, the start and stop of its columns and its weights, and
    totals the measures' totals.  The lifted points are kept (N, d+1)
    row-major for k = 1, multiplied one measure's rows at a time, and as
    the contiguous (d+1, N) transpose for k >= 2.  These are the fastest
    layouts whose BLAS products equal lifted @ W.T taken per measure, bit
    for bit: at k = 1 numpy takes a matrix-vector product, which in
    float32 rounds a row by its place among blocks of rows.  At k >= 2
    a one-point measure is the exception, which numpy multiplies as a
    vector on yet another path; its column is recomputed that way.

    The functional values of a stack of B arrangements sit in k blocks
    of (B, N) of a work array (see _size_work_array), so the products
    are taken in place in block 0, contiguous, and every elementwise
    pass runs on contiguous memory.  When all measures have the same
    number n >= 2 of points, w_stack, built with the pool, holds their
    weights as (j, n, 1) and stacked_sums is one matrix product;
    otherwise it is None and the sums are taken per measure.
    """

    def __init__(self, measures, k: int, points: np.ndarray | None = None):
        if points is None:
            points = np.vstack([m.points for m in measures])
        X = np.hstack([points, np.ones((len(points), 1), points.dtype)])
        self.lifted = X if k == 1 else np.ascontiguousarray(X.T)
        self.values = np.empty((k, 0, len(X)), X.dtype)  # see _size_work_array
        self.spans = []  # (start, stop, weights) per measure
        self.totals = np.array([m.total for m in measures])
        self.lone_points = []  # (column, (1, d+1) lifted row)
        # in float32, shares of each measure's float64 total: raw weights
        # of 1e300 or 1e-300 would overflow or vanish
        weights = [m.weights if X.dtype == np.float64 else
                   (m.weights / m.total).astype(X.dtype) for m in measures]
        start = 0
        for w in weights:
            stop = start + len(w)
            self.spans.append((start, stop, w))
            if stop - start == 1 and k > 1:
                self.lone_points.append((start, X[start:stop].copy()))
            start = stop
        sizes = {len(w) for w in weights}
        self.w_stack = (np.concatenate(weights).reshape(len(weights), -1, 1)
                        if len(sizes) == 1 and sizes != {1} else None)

    def stacked_products(self, W: np.ndarray) -> np.ndarray:
        """Per arrangement of a (B, k, d+1) stack and per point, the
        product of its k functional values, as a contiguous (B, N) array.

        The rows are multiplied left to right, as np.prod(axis=1) does on
        the per-measure (n, k) values, and the stacked matmul runs the
        same BLAS call per arrangement, so row b is the per-measure
        kernel's product for W[b], bit for bit, whatever B is.  The
        result is block 0 of the work array, which is reused, with its
        views, while B stays the same.
        """
        B, k = W.shape[:2]
        W = W.astype(self.values.dtype, copy=False)
        if self.values.shape[1] != B:
            self._size_work_array(B, k)
        if k == 1:
            for start, stop, _ in self.spans:
                np.matmul(self.lifted[start:stop], W.transpose(0, 2, 1),
                          out=self.out[:, start:stop])
        else:
            np.matmul(W, self.lifted, out=self.out)
        for col, x in self.lone_points:
            self.rows[:, :, col] = (x @ W.transpose(0, 2, 1))[:, 0].T
        buf = self.first
        for row in self.rest:
            np.multiply(buf, row, out=buf)
        return buf

    def _size_work_array(self, B: int, k: int) -> None:
        """max(k, 2) blocks of (B, N): the k rows of values, whose
        products stacked_products takes in place in block 0, and block
        1, free once they are taken, as spare: numpy's sign runs several
        times slower in place on contiguous memory than into another
        array."""
        self.values = np.empty((max(k, 2), B, self.values.shape[2]),
                               self.values.dtype)
        self.rows = self.values[:k]
        self.first, *self.rest = self.rows
        self.spare = self.values[1]
        self.out = (self.rows.reshape(B, -1, 1) if k == 1
                    else self.rows.transpose(1, 0, 2))

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
    return _signed_sums(_Pool(measures, len(W)), W[None])[0]


def _signed_sums(pool: _Pool, W: np.ndarray) -> np.ndarray:
    """Per arrangement of a (B, k, d+1) stack and measure, phi: the
    weighted sum of the signs of the products, as (B, j)."""
    return pool.stacked_sums(np.sign(pool.stacked_products(W), out=pool.spare))


def boundary_mass(measures, directions) -> np.ndarray:
    """Mass sitting exactly on the union of the hyperplanes, per measure."""
    W = _direction_matrix(directions, _common_dim(measures))
    pool = _Pool(measures, len(W))
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

# the search schedule: the annealing temperatures, as multiples of the
# data diameter, the iterations per temperature, the first step size, the
# iterations of the hard-sign polish, the floor under every step size,
# the proposals (λ) each restart scores per iteration, and the largest
# batch of restarts searched together, or on a small input the most, up
# to _WIDEST_BATCH, that fit a stack of _DISPATCH_POINTS point products
# (N·k each).  Timing _search at 1 to 64 restarts on the benchmark's shapes
# (one x86-64 CPU, one BLAS thread) gave 23 µs per iteration plus 1.4-1.7
# ns per point product, so such a stack costs about twice the fixed part
_STAGE_FACTORS = (1.0, 0.1, 0.01)
_ITERATIONS_PER_STAGE = 125
_INITIAL_STEP = 0.6
_POLISH_ITERATIONS = 400
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
    relative_imbalances: np.ndarray | None
    restarts_used: int
    seed: int

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
        return out


def _normalize_rows(W: np.ndarray) -> np.ndarray:
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _search_frame(measures, k: int):
    """The frame a solve searches in: the centroid and radius of the
    pooled point cloud, the pools of its centred points in float32, which
    the annealing scores, and in float64, which the polish scores, and the
    temperature scale, the diagonal of the centred cloud's bounding box.

    Searching in centered unit-radius coordinates keeps the offset
    component of the sphere parameterization O(1) regardless of where the
    data sits; a cloud far from the origin would otherwise need directions
    crowded against the poles, and raw coordinates could overflow float32.

    MeasureOverflowError when these norms, or the squares of the offsets
    (up to radius + |center|) of directions mapped back, overflow float64.
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
    pts = (pts - center) / radius
    spread = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return (center, radius, _Pool(measures, k, pts.astype(np.float32)),
            _Pool(measures, k, pts), spread if spread > 0 else 1.0)


def _uncenter_directions(W: np.ndarray, center: np.ndarray,
                         radius: float) -> np.ndarray:
    """Map directions found in centered coordinates back to the original
    frame.  With y = (x - c)/s, the functional <y,u> + v equals
    (<x,u> + (v*s - <c,u>))/s, so signs are preserved exactly."""
    u = W[:, :-1]
    v = W[:, -1:]
    return _normalize_rows(np.hstack([u, v * radius - u @ center[:, None]]))


def _soft_imbalances(pool: _Pool, W: np.ndarray, temp) -> np.ndarray:
    """Per arrangement of a (B, k, d+1) stack, the sum over measures of
    the squared relative tanh imbalance, on a float32 pool.

    One product pass, then tanh(product / temp) in place and the weighted
    sums of the measures' spans, which are relative already: a float32
    pool's weights are shares.  The squares are added across measures
    left to right, as a sum taken one measure at a time adds them; np.sum
    would add eight or more in another order.
    """
    buf = pool.stacked_products(W)
    np.divide(buf, temp, out=buf)
    np.tanh(buf, out=buf)
    s = pool.stacked_sums(buf)
    np.multiply(s, s, out=s)
    return np.add.accumulate(s, axis=1)[:, -1]


def _hard_worsts(pool: _Pool, W: np.ndarray) -> np.ndarray:
    """Per arrangement of a (B, k, d+1) stack, the largest relative sign
    imbalance over the measures."""
    s = _signed_sums(pool, W) / pool.totals
    return np.abs(s, out=s).max(axis=1)


def _walk(rngs, W: np.ndarray, step: np.ndarray, iterations: int, score,
          grow: float, ceiling: float, shrink: float,
          polish: bool = False) -> np.ndarray:
    """One stage of the (1+λ) search for every restart of the (B, k, d+1)
    stack W, member b drawing from rngs[b]; W and the (B,) steps are
    updated in place.

    Each generator draws the whole stage at once: every proposal's row,
    then every Gaussian step.  Per iteration, each member moves a drawn
    row of W by its step times the Gaussian step and renormalises it, λ
    times; a proposal whose row lands on zero or on a pole is rejected.
    All B·λ proposals are scored as one stack, and each member moves to
    its best one (the first of equals) if that scores no more than its
    current arrangement.  Its step then grows to at most the ceiling,
    or shrinks to at least _MIN_STEP when no scored proposal was taken,
    by one clip: exact, as the steps start, and stay, in that range.  In
    the polish the step grows only on a strict improvement, and a member
    at 0 takes nothing more.  Every operation acts on each member alone,
    so member b ends bit for bit where it would in a stack of one.
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
    factors, scale = np.array([1.0, shrink, grow]), step[:, None, None]
    # the start is scored as λ copies of each member: one stack size
    cur = score(W.take(copies, axis=0, out=cand)).take(first)
    for taken_i, placed_i, z in zip(taken, placed, moves):
        if polish and not np.count_nonzero(cur):
            break
        z *= scale
        z += W.reshape(-1, n).take(taken_i, axis=0)
        norms = np.sqrt(np.add.reduce(z * z, axis=-1))
        # clean, as usual: no norm and no coordinate of a normal part is 0
        clean = np.count_nonzero(z[..., :-1]) + np.count_nonzero(norms) == z.size
        if not clean:
            ok = (norms != 0) & z[..., :-1].any(axis=-1)
        z /= (norms if clean else np.where(ok, norms, 1.0))[..., None]
        W.take(copies, axis=0, out=cand)
        cand.reshape(-1, n)[placed_i] = z
        val = score(cand).reshape(B, -1)
        if not clean:
            val = np.where(ok, val, np.inf)
        pick = first + val.argmin(axis=1)
        new = val.take(pick)
        accept = (new <= cur) & (cur > 0.0) if polish else new <= cur
        grown = accept & (new < cur) if polish else accept
        shrunk = ~accept if clean else ok.any(axis=1) > accept
        step *= factors.take(2 * grown + shrunk)
        step.clip(_MIN_STEP, ceiling, out=step)
        np.copyto(W, cand.take(pick, axis=0), where=accept[:, None, None])
        np.copyto(cur, new, where=accept)
    return W


def _search(rngs, k, d, pool32, pool64, diameter) -> np.ndarray:
    """The search of every generator of rngs, as a (B, k, d+1) stack:
    seeded random unit directions, the annealing stages on the tanh
    objective at falling temperatures, scored on pool32, then the
    hard-sign polish, scored on pool64."""
    W = np.stack([_normalize_rows(rng.normal(size=(k, d + 1)))
                  for rng in rngs])
    step = np.full(len(rngs), _INITIAL_STEP)
    for factor in _STAGE_FACTORS:
        temp = factor * diameter
        _walk(rngs, W, step, _ITERATIONS_PER_STAGE,
              lambda V: _soft_imbalances(pool32, V, temp), 1.25, 2.0, 0.85)
    return _walk(rngs, W, np.full(len(rngs), 0.1), _POLISH_ITERATIONS,
                 lambda V: _hard_worsts(pool64, V), 1.2, 0.5, 0.9, polish=True)


def _restart_batches(seed: int, max_restarts: int, work: int):
    """Restart indices and their generators: restart 1 alone, then
    batches of 2, 4 and _MAX_BATCH, each widened to as many restarts, up
    to _WIDEST_BATCH, as a stack of _DISPATCH_POINTS point products holds
    at `work` (N·k) per arrangement.  Restart i is seeded with the child
    SeedSequence(seed).spawn(max_restarts)[i]: successive spawns continue
    where the last one stopped, so each batch spawns its own children."""
    root = np.random.SeedSequence(seed)
    fits = min(_DISPATCH_POINTS // (_PROPOSALS * work), _WIDEST_BATCH)
    start, doubling = 0, 1
    while start < max_restarts:
        size = max(doubling, fits) if start else 1
        batch = range(start, min(start + size, max_restarts))
        yield batch, [np.random.default_rng(s) for s in root.spawn(len(batch))]
        start, doubling = batch.stop, min(2 * doubling, _MAX_BATCH)


def solve_bisection(measures, k: int,
                    config: SolverConfig | None = None) -> SolveResult:
    """Search for k hyperplanes bisecting all measures at once.

    Deterministic in (measures, k, config): restart r uses the r-th
    spawn of the seed sequence.  Restarts run in batches sized by the
    work they score (_restart_batches, given N·k); each batch is checked
    in index order and the first success wins, so the result is the one
    running every restart alone, in order, gives.  Success means that
    phi of the directions, mapped back to the input frame, is within the
    tolerance relative to each measure's total: float signs of float
    products, not an exact re-check.
    """
    config = config or SolverConfig()
    k = _integer("k", k, 1)
    d = _common_dim(measures)

    center, radius, pool32, pool64, diameter = _search_frame(measures, k)
    work = k * sum(len(m.weights) for m in measures)  # N·k
    for batch, rngs in _restart_batches(config.seed, config.max_restarts, work):
        found = _search(rngs, k, d, pool32, pool64, diameter)
        for idx, W in zip(batch, found):
            W = _uncenter_directions(W, center, radius)
            imb = phi(measures, W)
            rel = np.abs(imb) / pool64.totals
            if float(rel.max()) <= config.tolerance:
                return SolveResult(status="SUCCESS", directions=W,
                                   imbalances=imb, relative_imbalances=rel,
                                   restarts_used=idx + 1, seed=config.seed)
    return SolveResult(status=NOT_FOUND, directions=None, imbalances=None,
                       relative_imbalances=None,
                       restarts_used=config.max_restarts, seed=config.seed)


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

