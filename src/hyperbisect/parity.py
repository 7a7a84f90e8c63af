"""Parity of factorial ratios via p-adic valuations.

The number of times a prime p divides n! is Legendre's sum
floor(n/p) + floor(n/p^2) + ..., which also equals
(n - digitsum_p(n)) / (p - 1).  A multinomial coefficient
C(n; k_1, ..., k_t) is divisible by p^r exactly when the valuation of
n! exceeds the combined valuation of the k_i! by at least r.  For
p = 2 and r = 1 this gives the carry criterion: the coefficient is odd
exactly when the parts add without carries in binary.

The two partition-counting parities below drive the membership
certificates elsewhere in the package: the number of ways to split
d*k items into k unordered blocks of size d is odd exactly when d is a
power of two, and the anchored variant (one free block of size d, the
remaining (d-ell)*(k-1) items in k-1 unordered blocks) obeys a similar
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


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"

    @classmethod
    def of(cls, n: int) -> "Parity":
        return cls.ODD if n % 2 else cls.EVEN

    def __str__(self) -> str:
        return self.value


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n >= 0."""
    if n < 0:
        raise ValueError(f"negative n: {n}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def legendre_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n!.

    Computed by the floor sum and cross-checked against the digit-sum
    form (n - digitsum_p(n)) / (p - 1); the two must agree.
    """
    if n < 0:
        raise ValueError(f"negative n: {n}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    floor_sum = 0
    q = p
    while q <= n:
        floor_sum += n // q
        q *= p
    digit_form = (n - digit_sum(n, p)) // (p - 1)
    assert floor_sum == digit_form
    return floor_sum


def multinomial_valuation(n: int, parts: list[int], p: int) -> int:
    """Exponent of p in the multinomial coefficient C(n; parts)."""
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    if any(k < 0 for k in parts):
        raise ValueError(f"negative part in {parts}")
    return legendre_valuation(n, p) - sum(legendre_valuation(k, p) for k in parts)


def multinomial_parity(n: int, parts: list[int]) -> Parity:
    """Parity of C(n; parts): odd iff the parts add carry-free in binary."""
    return Parity.EVEN if multinomial_valuation(n, parts, 2) > 0 else Parity.ODD


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


def equal_blocks_parity(d: int, k: int) -> Parity:
    """Parity of the number of partitions of d*k items into k blocks of size d.

    The count is C(dk; d, ..., d) / k!.  Its 2-adic valuation is
    E(dk) - E(k) - k*E(d) with E the factorial valuation at 2; the
    count is odd exactly when d is a power of two.
    """
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    v = (legendre_valuation(d * k, 2) - legendre_valuation(k, 2)
         - k * legendre_valuation(d, 2))
    assert v >= 0
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
    if ell == 0:
        raise ValueError(f"need 1 <= ell <= d-1, got ell={ell}, d={d}")
    j = check_shape(d, k, ell)
    rest = (d - ell) * (k - 1)
    v = (legendre_valuation(j, 2) - legendre_valuation(d, 2)
         - legendre_valuation(j - d, 2))
    v += (legendre_valuation(rest, 2) - legendre_valuation(k - 1, 2)
          - (k - 1) * legendre_valuation(d - ell, 2))
    assert v >= 0
    return Parity.EVEN if v > 0 else Parity.ODD


def check_shape(d: int, k: int, ell: int = 0) -> int:
    """j = (d - ell)*k + ell; ValueError unless (d, k, ell) names a family
    of the count law: d >= 1 and k >= 1 unanchored, k >= 2 and
    1 <= ell <= d-1 anchored."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if ell == 0:
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
    elif k < 2:
        raise ValueError(f"anchored case needs k >= 2, got k={k}")
    elif not 1 <= ell <= d - 1:
        raise ValueError(f"need 1 <= ell <= d-1, got ell={ell}, d={d}")
    return (d - ell) * k + ell


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
    j = check_shape(d, k, ell)
    if ell == 0:
        return _equal_splits(d, k)
    return math.comb(j, d) * _equal_splits(d - ell, k - 1)
