"""Parity of factorial ratios via 2-adic valuations.

The number of times 2 divides n! is Legendre's sum
floor(n/2) + floor(n/4) + ..., which also equals n - s(n) with s(n) the
number of ones in the binary digits of n.  The multinomial coefficient
C(n; k_1, ..., k_t) is odd exactly when the valuation of n! equals the
combined valuation of the k_i!, which is the carry criterion: the parts
add without carries in binary.  Every parity the package needs is at
the prime 2, since the obstruction framework behind its certificates
works over GF(2).

The two partition-counting parities below drive the membership
certificates elsewhere in the package: the number of ways to split
d*k items into k unordered blocks of size d is, for k >= 2, odd exactly
when d is a power of two (and always odd at k = 1, where it is 1), and
the anchored variant (one free block of size d, the remaining
(d-ell)*(k-1) items in k-1 unordered blocks) obeys a similar
power-of-two rule when 2*ell <= d - 1 and k >= 3: it is odd exactly when
k is odd and d - ell is a power of two.  At k = 2 the remaining items
form a single block, the count is C(2d - ell, d), and it is odd exactly
when d and d - ell share no binary digit.  count_bisections computes
these counts themselves, as products of binomials: they are the numbers
of bisecting arrangements that momentcurve.enumerate_bisections lists.
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


def digit_sum(n: int) -> int:
    """Number of ones in the binary digits of n >= 0."""
    if n < 0:
        raise ValueError(f"negative n: {n}")
    return n.bit_count()


def legendre_valuation(n: int) -> int:
    """Exponent of 2 in n!.

    Computed by the floor sum and cross-checked against the digit-sum
    form n - digit_sum(n); the two must agree.
    """
    if n < 0:
        raise ValueError(f"negative n: {n}")
    floor_sum = 0
    q = 2
    while q <= n:
        floor_sum += n // q
        q *= 2
    digit_form = n - digit_sum(n)
    if floor_sum != digit_form:  # raised, so python -O keeps the cross-check
        raise RuntimeError(f"valuation of {n}! at 2: floor sum {floor_sum}, "
                           f"digit form {digit_form}")
    return floor_sum


def multinomial_valuation(n: int, parts: list[int]) -> int:
    """Exponent of 2 in the multinomial coefficient C(n; parts)."""
    n = _integer("n", n, 0)
    parts = [_integer("part", k, 0) for k in parts]
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    return legendre_valuation(n) - sum(legendre_valuation(k) for k in parts)


def multinomial_parity(n: int, parts: list[int]) -> Parity:
    """Parity of C(n; parts): odd iff the parts add carry-free in binary."""
    return Parity.EVEN if multinomial_valuation(n, parts) > 0 else Parity.ODD


def _check_valuation(v: int) -> None:
    """A block count is an integer, so its 2-adic valuation is >= 0;
    raised, not asserted, so python -O keeps the check."""
    if v < 0:
        raise RuntimeError(f"negative 2-adic valuation {v} of a block count")


def equal_blocks_parity(d: int, k: int) -> Parity:
    """Parity of the number of partitions of d*k items into k blocks of size d.

    The count is C(dk; d, ..., d) / k!.  Its 2-adic valuation is
    E(dk) - E(k) - k*E(d) with E the factorial valuation at 2.  For
    k >= 2 the count is odd exactly when d is a power of two, and it is
    always odd at k = 1, where it is 1.
    """
    d, k, _, j = check_shape(d, k)
    v = (legendre_valuation(j) - legendre_valuation(k)
         - k * legendre_valuation(d))
    _check_valuation(v)
    return Parity.EVEN if v > 0 else Parity.ODD


def anchored_blocks_parity(d: int, k: int, ell: int) -> Parity:
    """Parity of C((d-ell)k + ell; d) * C((d-ell)(k-1); d-ell, ...) / (k-1)!.

    This counts the candidate arrangements in the anchored construction:
    choose d of the j = (d-ell)k + ell midpoints for the free hyperplane,
    then split the rest into k-1 unordered blocks of size d-ell.  In the
    range 2*ell <= d - 1 with k >= 3 the count is odd exactly when k is
    odd and d - ell is a power of two (with d - ell >= 2).  At k = 2 the
    rest is a single block, the second factor is 1, and the count
    C(2d - ell, d) is odd exactly when d and d - ell share no binary
    digit (d & (d - ell) == 0).
    """
    d, k, ell, j = check_shape(d, k, ell)
    if ell == 0:
        raise ValueError(f"need 1 <= ell <= d-1, got ell={ell}, d={d}")
    # the rest, (d-ell)(k-1) items, is exactly j - d, so (j-d)! cancels
    v = (legendre_valuation(j) - legendre_valuation(d)
         - legendre_valuation(k - 1)
         - (k - 1) * legendre_valuation(d - ell))
    _check_valuation(v)
    return Parity.EVEN if v > 0 else Parity.ODD


def check_shape(d: int, k: int, ell: int = 0) -> tuple[int, int, int, int]:
    """(d, k, ell, j) as plain ints, j = (d - ell)*k + ell; ValueError
    unless (d, k, ell) names a family of the count law: d >= 1 and k >= 1
    unanchored, k >= 2 and 1 <= ell <= d-1 anchored."""
    d, ell = _integer("d", d, 1), _integer("ell", ell)
    k = _integer("k", k, 2 if ell else 1)
    if ell and not 1 <= ell <= d - 1:
        raise ValueError(f"need 1 <= ell <= d-1, got ell={ell}, d={d}")
    return d, k, ell, (d - ell) * k + ell


def _equal_splits(m: int, blocks: int) -> int:
    """(blocks*m)! / (m!^blocks * blocks!): the ways to split blocks*m
    items into unlabelled blocks of m.  The block holding the least item
    left takes m - 1 of the others, so it is a product of binomials (all
    1 when m = 1), with no factorial of blocks*m."""
    if m == 1:
        return 1
    return math.prod(math.comb(i * m - 1, m - 1) for i in range(2, blocks + 1))


def count_bisections(d: int, k: int, ell: int = 0) -> int:
    """Closed-form count of the arrangements that
    momentcurve.enumerate_bisections yields."""
    d, k, ell, j = check_shape(d, k, ell)
    if ell == 0:
        return _equal_splits(d, k)
    return math.comb(j, d) * _equal_splits(d - ell, k - 1)
