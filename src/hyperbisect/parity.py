"""The count law: block counts as binomial products, and their parities.

The paper's certificates come from the Blagojević-Frick-Haase-Ziegler
framework, over GF(2): a triple is certified when the test configuration
on the moment curve has an odd number of solutions, the arrangements
momentcurve.enumerate_bisections lists.  Its two block counts are
C(n, r) * S(m, b), with S(m, b) the ways to split b*m items into b
unordered blocks of m: the equal-block count is S(d, k), and the
anchored one chooses the free hyperplane's d points among the
j = (d-ell)*k + ell midpoints, C(j, d) * S(d - ell, k - 1).  A count's
value, parity and decimal size are all read off these two factors.

By Lucas' theorem C(n, r) is odd exactly when r & (n - r) == 0; by
Kummer's, 2 divides C(n; k_1, ..., k_t) once per carry when the k_i are
added in binary.  S(m, b) is a product of binomials C(i*m - 1, m - 1),
i = 2..b, the first odd exactly when m is a power of two, and then all
are.  Hence the paper's two block-count lemmas: for k >= 2 the
equal-block count is odd exactly when d is a power of two, and for
2*ell <= d - 1 and k >= 3 the anchored count is odd exactly when k is
odd and d - ell is a power of two; at k = 2 it is C(2d - ell, d), odd
exactly when d & (d - ell) == 0.
"""

from __future__ import annotations

import math
from enum import Enum

from . import _integer


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"

    @classmethod
    def of(cls, n: int) -> "Parity":
        return cls.ODD if _integer("n", n) % 2 else cls.EVEN

    def __str__(self) -> str:
        return self.value


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def multinomial_valuation(n: int, parts: list[int]) -> int:
    """Exponent of 2 in the multinomial coefficient C(n; parts), by
    Kummer: the carries when the parts are added in binary."""
    n = _integer("n", n, 0)
    parts = [_integer("part", k, 0) for k in parts]
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    return sum(k.bit_count() for k in parts) - n.bit_count()


def multinomial_parity(n: int, parts: list[int]) -> Parity:
    """Parity of C(n; parts): odd iff the parts add carry-free in binary."""
    return Parity.EVEN if multinomial_valuation(n, parts) > 0 else Parity.ODD


def check_shape(d: int, k: int, ell: int = 0) -> tuple[int, int, int, int]:
    """(d, k, ell, j) as plain ints, j = (d - ell)*k + ell; ValueError
    unless (d, k, ell) names a family of the count law: d >= 1 and k >= 1
    unanchored, k >= 2 and 1 <= ell <= d-1 anchored."""
    d, ell = _integer("d", d, 1), _integer("ell", ell)
    if ell and not 1 <= ell <= d - 1:
        raise ValueError(f"need 1 <= ell <= d-1, got ell={ell}, d={d}")
    k = _integer("k", k, 2 if ell else 1)
    return d, k, ell, (d - ell) * k + ell


def _count_factors(d: int, k: int, ell: int = 0) -> tuple[int, int, int, int]:
    """(n, r, m, b) with count_bisections(d, k, ell) = C(n, r) * S(m, b)."""
    d, k, ell, j = check_shape(d, k, ell)
    return (j, d, d - ell, k - 1) if ell else (0, 0, d, k)


def _count_parity(n: int, r: int, m: int, b: int) -> Parity:
    """Parity of C(n, r) * S(m, b), by Lucas' theorem on each factor."""
    odd = r & (n - r) == 0 and (b < 2 or is_power_of_two(m))
    return Parity.ODD if odd else Parity.EVEN


def equal_blocks_parity(d: int, k: int) -> Parity:
    """Parity of the number of partitions of d*k items into k blocks of
    size d: odd exactly when d is a power of two or k = 1."""
    return _count_parity(*_count_factors(d, k))


def anchored_blocks_parity(d: int, k: int, ell: int) -> Parity:
    """Parity of C((d-ell)k + ell, d) * S(d - ell, k - 1), the candidate
    arrangements of the anchored construction (module docstring)."""
    n, r, m, b = _count_factors(d, k, ell)
    if not n:  # ell == 0 is the unanchored count
        raise ValueError(f"need 1 <= ell <= d-1, got ell=0, d={m}")
    return _count_parity(n, r, m, b)


def _equal_splits(m: int, blocks: int) -> int:
    """S(m, blocks) = (blocks*m)! / (m!^blocks * blocks!): the ways to
    split blocks*m items into unlabelled blocks of m.  The block holding
    the least item left takes m - 1 of the others, so it is a product of
    binomials (all 1 when m = 1), with no factorial of blocks*m."""
    if m == 1:
        return 1
    return math.prod(math.comb(i * m - 1, m - 1) for i in range(2, blocks + 1))


def count_bisections(d: int, k: int, ell: int = 0) -> int:
    """The number of arrangements enumerate_bisections yields."""
    n, r, m, b = _count_factors(d, k, ell)
    return math.comb(n, r) * _equal_splits(m, b)


def _ln_comb(n: int, r: int) -> float:
    """ln C(n, r) from its small side r, so that a huge n neither cancels
    nor overflows: the sum of ln((n - i) / (i + 1)) up to r = 64, then
    Stirling with the n ln n terms cancelled by hand, s = n - r."""
    r = min(r, n - r)
    if r <= 64:
        return math.fsum(math.log(n - i) - math.log(i + 1) for i in range(r))
    s, x = n - r, r / n
    ln_n, ln_r = math.log(n), math.log(r)
    # ln y! - (y ln y - y + ln(2 pi y)/2) is 1/(12y) - 1/(360y^3), odd in y
    return (r * (ln_n - ln_r + s / n * (-math.log1p(-x) / x if x else 1.0))
            + (ln_n - ln_r - math.log(s) - math.log(2 * math.pi)) / 2
            + sum(1 / (12 * y) - 1 / (360 * y**3) for y in (n, -r, -s)))


def _count_digits(d: int, k: int, ell: int = 0) -> int | float:
    """Decimal digits of count_bisections(d, k, ell), from the logs of
    its two factors, without computing it; inf when a float overflows on
    the way, which only a count of over 10^150 digits makes.  The 1e-10
    keeps a power of ten, whose log may fall just short, at its size."""
    n, r, m, b = _count_factors(d, k, ell)
    try:
        ln = _ln_comb(n, r)
        if b > 1 and m > 1:  # else S(m, b) is 1
            ln += (math.lgamma(b * m + 1) - b * math.lgamma(m + 1)
                   - math.lgamma(b + 1))
        return int(ln / math.log(10) + 1e-10) + 1
    except OverflowError:
        return math.inf
