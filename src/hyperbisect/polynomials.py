"""Exact univariate polynomials over the rationals.

Coefficient tuples in ascending order, trimmed so the leading entry is
nonzero; the empty tuple is the zero polynomial.  Everything runs on
fractions.Fraction, and Sturm chains are scaled to integer coefficients
whose signs are evaluated in integers, so the root counter at the bottom
gives certified answers: count_roots_open(p, a, b) is the exact number
of distinct real roots of p in the open interval (a, b).
"""

from __future__ import annotations

import math
from fractions import Fraction

Coeffs = tuple[Fraction, ...]

ZERO: Coeffs = ()


def make(coeffs) -> Coeffs:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Coeffs) -> int:
    return len(p) - 1


def evaluate(p: Coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return make(out)


def scale(p: Coeffs, c) -> Coeffs:
    return make(ci * Fraction(c) for ci in p)


def multiply(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return make(out)


def divide(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder; exact since Fraction is a field."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq, lead = len(q) - 1, q[-1]
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    for shift in reversed(range(len(quot))):
        factor = quot[shift] = rem[shift + dq] / lead
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
    return make(quot), make(rem)


def derivative(p: Coeffs) -> Coeffs:
    return make(i * c for i, c in enumerate(p) if i > 0)


def _monic(p: Coeffs) -> Coeffs:
    return scale(p, 1 / p[-1]) if p else ZERO


def gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    while q:
        p, q = q, divide(p, q)[1]
    return _monic(p)


def squarefree_part(p: Coeffs) -> Coeffs:
    if degree(p) < 1:
        return p
    return divide(p, gcd(p, derivative(p)))[0]


def sign_at(p, x) -> int:
    """Sign of p(x) for integer coefficients, in integer arithmetic.

    With x = n/m and m > 0, m^deg * p(x) = sum c_i n^i m^(deg-i) has the
    sign of p(x); homogeneous Horner evaluates it without fractions.
    """
    x = Fraction(x)
    n, m = x.numerator, x.denominator
    acc, mpow = 0, 1
    for c in reversed(p):
        acc = acc * n + c * mpow
        mpow *= m
    return (acc > 0) - (acc < 0)


def _integral(p: Coeffs) -> tuple[int, ...]:
    """p times the lcm of its denominators: integer coefficients, same signs."""
    lcm = math.lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (lcm // c.denominator) for c in p)


def sturm_chain(p: Coeffs) -> list[tuple[int, ...]]:
    """p, p' and the negated remainders of Euclid's algorithm on them.

    Each member is scaled by a positive constant to integer coefficients,
    which changes no sign, so sign_variations can stay in integers.
    """
    chain = [p, derivative(p)]
    while chain[-1]:
        rem = divide(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(scale(rem, -1))
    return [_integral(q) for q in chain]


def sign_variations(chain, x) -> int:
    """Sign changes along the chain evaluated at x, zeros skipped."""
    signs = [s for s in (sign_at(q, x) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def chain_roots_open(chain, a, b) -> int:
    """Distinct roots in (a, b) of the square-free chain[0], from its Sturm
    chain: V(x), the sign variations at x, drops by one at each root and
    equals V just after it, so V(a) - V(b) counts (a, b]; minus a root at b."""
    return (sign_variations(chain, a) - sign_variations(chain, b)
            - (sign_at(chain[0], b) == 0))


def count_roots_open(p: Coeffs, a, b) -> int:
    """Distinct real roots of nonzero p strictly between a and b."""
    if not p:
        raise ValueError("zero polynomial has roots everywhere")
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError(f"need a < b, got {a} >= {b}")
    return chain_roots_open(sturm_chain(squarefree_part(p)), a, b)
