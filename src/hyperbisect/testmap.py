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

The solver looks for such zeros directly: it minimizes a softened
version of phi (tanh instead of sign) with the temperature annealed
downward over stages, multi-starting from seeded random directions, and
accepts only candidates whose phi -- float signs of float products, a
numerical check and not an exact one -- passes the tolerance.

Kernel layout: the lifted points of all j measures sit in one array
(_Pool), built once per solve from the centred cloud, with, per
measure, its span of the pooled columns, its weights and its total.
Scoring a stack of B proposals (one, for a restart run alone) is one
matrix product into a (k, B, N) work array, the k rows multiplied in
place into row 0's contiguous (B, N) block, one elementwise pass over
that block (tanh in place, or sign into a spare block) and one weighted
dot product per proposal and measure's slice of the result.  When all
measures have the same number of points (more than one), those dot
products are one stacked matrix product, and the squared imbalances
are added across measures left to right.  Every step does the same
floating-point operations, in the same order, as scoring each measure
on its own, so solver output is bit-identical to the per-measure
kernel kept in tests/oracles.py.

Every restart, alone or in a batch, is scored by the same two stacked
functions, one per objective (_soft_imbalances, _hard_worsts); phi, the
polish's sign objective and the success check read one signed-sum
kernel (_signed_sums).  The first restart, and a last batch of one,
run alone and score each proposal as a stack of one.  The others run
in lockstep batches: each iteration, every member draws its own
proposal from its own generator, and the batch's proposals are built
and scored together in stacked numpy calls (one stacked matrix
product, one tanh or sign over the batch, the stacked dot products), so
the per-call overhead that dominates a small proposal is paid once per
batch.  Each stacked call runs the same BLAS routine or elementwise
operation per member as a stack of one, so every member ends bit for
bit where it would alone; tests/oracles.py keeps the sequential restart
loop as the reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

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


def hyperplane_to_sphere_point(h: OrientedHyperplane) -> np.ndarray:
    """Inverse direction of sphere_to_hyperplane, up to positive scale."""
    w = np.array([float(u) for u in h.normal] + [-float(h.offset)])
    return w / np.linalg.norm(w)


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
    hyperplanes, so that p(x) = <(x, 1), w>.

    stacked_products(W) gives, for each arrangement of a stack (a single
    one is a stack of one), a row of the pooled length N; spans holds,
    per measure, the start and stop of its columns and its weights, and
    totals the measures' totals.  The lifted points are kept (N, d+1)
    row-major for k = 1 and as the contiguous (d+1, N) transpose for
    k >= 2.  These are the fastest layouts whose BLAS products equal
    lifted @ W.T taken per measure, bit for bit (at k = 1 the transpose
    takes another BLAS path and differs).  The exception is a one-point
    measure, which numpy multiplies as a vector on yet another path; its
    column is recomputed that way.

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
        X = np.hstack([points, np.ones((len(points), 1))])
        self.lifted = X if k == 1 else np.ascontiguousarray(X.T)
        self.values = np.empty((k, 0, len(X)))  # see _size_work_array
        self.spans = []  # (start, stop, weights) per measure
        self.totals = np.array([m.total for m in measures])
        self.lone_points = []  # (column, (1, d+1) lifted row)
        start = 0
        for m in measures:
            stop = start + len(m.weights)
            self.spans.append((start, stop, m.weights))
            if stop - start == 1:
                self.lone_points.append((start, X[start:stop].copy()))
            start = stop
        sizes = {len(m.weights) for m in measures}
        self.w_stack = (np.concatenate([m.weights for m in measures])
                        .reshape(len(measures), -1, 1)
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
        if self.values.shape[1] != B:
            self._size_work_array(B, k)
        if k == 1:
            np.matmul(self.lifted, W.transpose(0, 2, 1), out=self.out)
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
        self.values = np.empty((max(k, 2), B, self.values.shape[2]))
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
        sums = np.empty((len(buf), len(self.spans)))
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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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
# data diameter, the proposals per temperature, the first step size, the
# proposals of the hard-sign polish, and the floor under every step size
_STAGE_FACTORS = (1.0, 0.1, 0.01)
_ITERATIONS_PER_STAGE = 500
_INITIAL_STEP = 0.6
_POLISH_ITERATIONS = 400
_MIN_STEP = 1e-4


def _integer(name: str, value) -> int:
    """operator.index(value); ValueError for a bool or a non-integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        for name in ("seed", "max_restarts"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.max_restarts < 1:
            raise ValueError("need at least one restart")


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


def _data_diameter(pts: np.ndarray) -> float:
    """Diagonal of the bounding box: the temperature scale of the search."""
    spread = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return spread if spread > 0 else 1.0


def _centering(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Centroid and radius of the pooled point cloud.

    Searching in centered unit-radius coordinates keeps the offset
    component of the sphere parameterization O(1) regardless of where the
    data sits; a cloud far from the origin would otherwise need directions
    crowded against the poles.

    MeasureOverflowError when these norms, or the squares of the offsets
    (up to radius + |center|) of directions mapped back, overflow float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        center = pts.mean(axis=0)
        radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
        reach = np.square(radius + np.linalg.norm(center))
    if not np.isfinite(reach):
        raise MeasureOverflowError(
            "point coordinates overflow float64 when centred: the "
            "centroid or the radius is not finite")
    return center, radius if radius > 0 else 1.0


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
    the squared relative tanh imbalance.

    One pooled product pass, then tanh(product / temp) in place and the
    weighted sums of the measures' spans.  The squares are added across
    measures left to right, as a sum taken one measure at a time adds
    them; np.sum would add eight or more in another order.
    """
    buf = pool.stacked_products(W)
    np.divide(buf, temp, out=buf)
    np.tanh(buf, out=buf)
    s = pool.stacked_sums(buf) / pool.totals
    np.multiply(s, s, out=s)
    return np.add.accumulate(s, axis=1)[:, -1]


def _hard_worsts(pool: _Pool, W: np.ndarray) -> np.ndarray:
    """Per arrangement of a (B, k, d+1) stack, the largest relative sign
    imbalance over the measures."""
    s = _signed_sums(pool, W) / pool.totals
    return np.abs(s, out=s).max(axis=1)


def _propose(rng, W: np.ndarray, step: float) -> np.ndarray | None:
    """W with one seeded row moved by a seeded Gaussian step and renormalized;
    None when that row lands on zero or on a pole."""
    r = int(rng.integers(len(W)))
    cand = W.copy()
    cand[r] = cand[r] + step * rng.normal(size=W.shape[1])
    norm = math.sqrt(cand[r] @ cand[r])
    if norm == 0 or not cand[r, :-1].any():
        return None
    cand[r] /= norm
    return cand


def _single_search(rng, pool: _Pool, k, d, diameter) -> np.ndarray:
    W = _normalize_rows(rng.normal(size=(k, d + 1)))
    step = _INITIAL_STEP
    for factor in _STAGE_FACTORS:
        temp = factor * diameter
        cur = _soft_imbalances(pool, W[None], temp)[0]
        for _ in range(_ITERATIONS_PER_STAGE):
            cand = _propose(rng, W, step)
            if cand is None:
                continue
            val = _soft_imbalances(pool, cand[None], temp)[0]
            if val <= cur:
                W, cur = cand, val
                step = min(step * 1.25, 2.0)
            else:
                step = max(step * 0.85, _MIN_STEP)
    # hard-sign polish: walk directly on the sign imbalance
    cur = _hard_worsts(pool, W[None])[0]
    step = 0.1
    for _ in range(_POLISH_ITERATIONS):
        if cur == 0.0:
            break
        cand = _propose(rng, W, step)
        if cand is None:
            continue
        val = _hard_worsts(pool, cand[None])[0]
        if val <= cur:
            if val < cur:
                step = min(step * 1.2, 0.5)
            W, cur = cand, val
        else:
            step = max(step * 0.9, _MIN_STEP)
    return W


class _StackedProposals:
    """_propose for each arrangement of a (B, k, d+1) stack, member b
    drawing from rngs[b], into work arrays kept for the whole search.

    Calling it with W and the (B,) steps gives the candidates and a mask
    of those _propose returns.  Each generator draws what _propose
    draws, in the same order, through its methods bound once (every row
    index, then every Gaussian step: the generators are independent);
    the arithmetic, with commuted operands, runs once over the stack.  A
    rejected candidate keeps its row unnormalised (divided by 1), to be
    ignored by the caller; the candidates are overwritten by the next
    call.
    """

    def __init__(self, rngs, k: int, n: int):
        B = len(rngs)
        self.k = k
        self.z = np.empty((B, n))
        self.integers = [rng.integers for rng in rngs]
        self.normals = [(rng.standard_normal, z)
                        for rng, z in zip(rngs, self.z)]
        self.rows = np.empty(B, dtype=np.intp)
        self.at = (np.arange(B), self.rows)
        self.cand = np.empty((B, k, n))

    def __call__(self, W: np.ndarray, steps: np.ndarray):
        z, at, k = self.z, self.at, self.k
        self.rows[:] = [integers(k) for integers in self.integers]
        for standard_normal, out in self.normals:
            standard_normal(out=out)
        z += 0.0  # normal() returns 0.0 + 1.0 * standard_normal(): -0.0 -> 0.0
        z *= steps[:, None]
        z += W[at]
        norms = np.sqrt((z[:, None, :] @ z[:, :, None])[:, 0, 0])
        ok = (norms != 0) & z[:, :-1].any(axis=1)
        z /= np.where(ok, norms, 1.0)[:, None]
        np.copyto(self.cand, W)
        self.cand[at] = z
        return self.cand, ok


def _lockstep_search(rngs, pool: _Pool, k, d, diameter) -> np.ndarray:
    """_single_search for every generator of rngs, all in one stack.

    Every arrangement takes its own accept and reject decisions, and
    accepts nothing more in the polish once its worst imbalance is 0, so
    row b of the (B, k, d+1) result is what _single_search(rngs[b], ...)
    returns, bit for bit; proposals and scoring run once per iteration
    for all.
    """
    W = np.stack([_normalize_rows(rng.normal(size=(k, d + 1)))
                  for rng in rngs])
    propose = _StackedProposals(rngs, k, d + 1)
    step = np.full(len(rngs), _INITIAL_STEP)
    for factor in _STAGE_FACTORS:
        temp = factor * diameter
        cur = _soft_imbalances(pool, W, temp)
        for _ in range(_ITERATIONS_PER_STAGE):
            cand, ok = propose(W, step)
            val = _soft_imbalances(pool, cand, temp)
            accept = ok & (val <= cur)
            np.copyto(W, cand, where=accept[:, None, None])
            np.copyto(cur, val, where=accept)
            step = np.where(accept, np.minimum(step * 1.25, 2.0),
                            np.where(ok, np.maximum(step * 0.85, _MIN_STEP),
                                     step))
    # hard-sign polish; a member at 0 draws on but accepts nothing, as
    # _single_search stops there
    cur = _hard_worsts(pool, W)
    step = np.full(len(rngs), 0.1)
    for _ in range(_POLISH_ITERATIONS):
        if not cur.any():
            break
        cand, ok = propose(W, step)
        val = _hard_worsts(pool, cand)
        accept = ok & (val <= cur) & (cur > 0.0)
        step = np.where(accept & (val < cur), np.minimum(step * 1.2, 0.5),
                        np.where(ok & ~accept,
                                 np.maximum(step * 0.9, _MIN_STEP), step))
        np.copyto(W, cand, where=accept[:, None, None])
        np.copyto(cur, val, where=accept)
    return W


# Restarts after the first run in lockstep batches of at most this many,
# which bounds the stacked work arrays at 32·max(k, 2)·N floats.  Every
# batch of one, the first restart's and a last one alike, runs in
# _single_search, which is faster than _lockstep_search on one generator.
_LOCKSTEP_BATCH = 32


def _restart_batches(seed: int, max_restarts: int):
    """Restart indices and their generators, the first restart alone and
    then up to _LOCKSTEP_BATCH at a time.  Restart i is seeded with the
    child SeedSequence(seed).spawn(max_restarts)[i]: successive spawns
    continue where the last one stopped, so each batch spawns its own
    children rather than all up front."""
    root = np.random.SeedSequence(seed)
    start = 0
    while start < max_restarts:
        batch = range(start, min(start + (_LOCKSTEP_BATCH if start else 1),
                                 max_restarts))
        yield batch, [np.random.default_rng(s) for s in root.spawn(len(batch))]
        start = batch.stop


def solve_bisection(measures, k: int,
                    config: SolverConfig | None = None) -> SolveResult:
    """Search for k hyperplanes bisecting all measures at once.

    Deterministic in (measures, k, config): restart r uses the r-th
    spawn of the seed sequence.  The first restart runs alone, the
    others in lockstep batches of up to _LOCKSTEP_BATCH (a batch of one
    alone); each batch is checked in index order and the first success
    wins, so the result is the one running every restart alone, in
    order, gives.  Success means that phi of the directions, mapped
    back to the input frame, is within the tolerance relative to each
    measure's total: float signs of float products, not an exact
    re-check.
    """
    config = config or SolverConfig()
    k = _integer("k", k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    d = _common_dim(measures)

    pts = np.vstack([m.points for m in measures])
    center, radius = _centering(pts)
    centered = (pts - center) / radius
    pool = _Pool(measures, k, centered)
    diameter = _data_diameter(centered)
    for batch, rngs in _restart_batches(config.seed, config.max_restarts):
        if len(rngs) == 1:
            found = [_single_search(rngs[0], pool, k, d, diameter)]
        else:
            found = _lockstep_search(rngs, pool, k, d, diameter)
        for idx, W in zip(batch, found):
            W = _uncenter_directions(W, center, radius)
            imb = phi(measures, W)
            rel = np.abs(imb) / pool.totals
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
        d = data["d"]
        raw_measures = data["measures"]
    except KeyError as exc:
        raise ValueError(f"missing field: {exc}") from exc
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
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


def measures_to_jsonable(d: int, measures) -> dict:
    return {"d": d, "measures": [
        {"points": [{"x": [float(v) for v in x], "w": float(w)}
                    for x, w in zip(m.points, m.weights)]}
        for m in measures
    ]}
