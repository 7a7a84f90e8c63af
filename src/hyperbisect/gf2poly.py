"""Truncated polynomial algebra over F2.

Work happens in F2[t_1, ..., t_k] modulo the ideal generated by the
(d+1)-st powers of the variables.  Monomials with any exponent above d
die, so a polynomial is just the set of surviving exponent vectors and
addition is symmetric difference.  The quantity of interest is the j-th
power of t_1 + ... + t_k: it reduces to zero exactly when no exponent
vector (a_1, ..., a_k) with sum j and all a_i <= d has an odd
multinomial coefficient, i.e. when j admits no carry-free binary
composition into k parts each at most d.  That happens exactly for
d < least_surviving_d(j, k), which ideal_member uses, and the number of
such compositions has a digit DP, count_surviving_monomials.  The
expansion, truncated_power_of_sum, backs surviving_monomials; the tests
also decide membership by expansion, as the reference path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .parity import multinomial_parity, Parity


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


def _check_args(j: int, k: int, d: int) -> None:
    if j < 0:
        raise ValueError(f"exponent j must be >= 0, got {j}")
    if k < 1:
        raise ValueError(f"need k >= 1 variables, got {k}")
    if d < 0:
        raise ValueError(f"cap parameter d must be >= 0, got {d}")


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
    least_surviving_d(j, k).  Expanding with truncated_power_of_sum and
    testing for zero decides the same predicate from scratch; the tests
    keep the two in agreement, together with a search for carry-free
    compositions.
    """
    _check_args(j, k, d)
    return d < least_surviving_d(j, k)


def count_surviving_monomials(j: int, k: int, d: int) -> int:
    """len(surviving_monomials(j, k, d)) without the expansion.

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
    """Sorted exponent vectors that survive the truncated expansion."""
    surv = truncated_power_of_sum(j, k, d).monomials
    for mono in surv:
        # every survivor must pass the odd-multinomial criterion
        assert multinomial_parity(j, list(mono)) is Parity.ODD
    return sorted(surv)
