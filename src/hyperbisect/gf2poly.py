"""The truncated power of the variable sum over F2, by its monomials.

Work happens in F2[t_1, ..., t_k] modulo the ideal generated by the
(d+1)-st powers of the variables.  The quantity of interest is the j-th
power of t_1 + ... + t_k.  Its surviving monomials are the exponent
vectors (a_1, ..., a_k) with sum j, all a_i <= d and an odd multinomial
coefficient, i.e. the carry-free binary compositions of j into k parts
each at most d: the ways to deal the set bits of j to k labelled parts.
The power is zero exactly for d < least_surviving_d(j, k), which
ideal_member uses; count_surviving_monomials counts the deals with a
digit DP and surviving_monomials lists them.  The tests keep the
expansion of the power, multiplying by the variable sum j times, as the
reference for all three.
"""

from __future__ import annotations

from collections import Counter

# not called here; the benchmark's tracer (perfbench/tracer.py) wraps it at
# this attribute, so it stays importable from this module
from .parity import multinomial_parity  # noqa: F401


def _check_args(j: int, k: int, d: int) -> None:
    if j < 0:
        raise ValueError(f"exponent j must be >= 0, got {j}")
    if k < 1:
        raise ValueError(f"need k >= 1 variables, got {k}")
    if d < 0:
        raise ValueError(f"cap parameter d must be >= 0, got {d}")


def least_surviving_d(j: int, k: int) -> int:
    """Least d at which the j-th power of the variable sum survives.

    The power survives truncation at the (d+1)-st powers exactly when j
    has a carry-free composition into k parts each <= d.  With one part
    that part is j itself.  With k >= 2 parts, the part holding the top
    bit 2^m of j is at least 2^m, and (2^m, j - 2^m, 0, ...) is such a
    composition because j - 2^m < 2^m; so the least d is 2^m.  For
    j = 0 the power is 1 and survives at every d >= 0.
    """
    if j == 0 or k == 1:
        return j
    return 1 << (j.bit_length() - 1)


def ideal_member(j: int, k: int, d: int) -> bool:
    """Whether the j-th power of the variable sum lies in the cap ideal.

    Closed form: the power is a member exactly for d below
    least_surviving_d(j, k).  The tests decide the same predicate from
    scratch by expanding the power and testing for zero, and by a search
    for carry-free compositions, and keep the three in agreement.
    """
    _check_args(j, k, d)
    return d < least_surviving_d(j, k)


def count_surviving_monomials(j: int, k: int, d: int) -> int:
    """len(surviving_monomials(j, k, d)) without listing them.

    A survivor is a carry-free composition of j into k parts each <= d,
    i.e. a way to deal the set bits of j to k labelled parts so that no
    part exceeds d.  A digit DP over the bit positions, high to low,
    counts the deals; its state is the number of parts whose bits so far
    equal d's prefix (the others are already below d and take any bit),
    which is only ever k, 1 or 0.  Cost O(log max(j, d)).
    """
    _check_args(j, k, d)
    ways = Counter({k: 1})  # parts still equal to d's prefix -> deals
    for b in reversed(range(max(j, d).bit_length())):
        d_bit, j_bit = d >> b & 1, j >> b & 1
        nxt: Counter[int] = Counter()
        for tight, count in ways.items():
            # where d has a 1, a part at d's prefix without it drops below
            rest = 0 if d_bit else tight
            # j's bit goes nowhere, or to one of the parts already below d ...
            nxt[rest] += count * (k - tight) if j_bit else count
            if j_bit and d_bit:
                # ... or to a part at d's prefix, which stays there alone
                nxt[1] += count * tight
        ways = nxt
    return sum(ways.values())


def surviving_monomials(j: int, k: int, d: int) -> list[tuple[int, ...]]:
    """Sorted exponent vectors that survive the truncated expansion.

    The enumerating twin of count_surviving_monomials: each set bit of j,
    high to low, goes to one of the k parts, and a deal is dropped as
    soon as a part passes d.  Distinct deals give distinct vectors,
    because the bits are disjoint, and every deal is carry-free, so each
    multinomial coefficient is odd with no check.  The work grows with
    the number of partial deals, one round per set bit of j, not with j
    itself.
    """
    _check_args(j, k, d)
    deals = [(0,) * k]
    for b in reversed(range(j.bit_length())):
        if j >> b & 1:
            bit = 1 << b
            deals = [p[:i] + (p[i] + bit,) + p[i + 1:]
                     for p in deals for i in range(k) if p[i] + bit <= d]
    return sorted(deals)
