"""Exact polynomial arithmetic and certified root counting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hyperbisect import polynomials as poly
from oracles import from_roots


def test_make_trims():
    assert poly.make([0, 0]) == ()
    assert poly.make([1, 2, 0]) == (Fraction(1), Fraction(2))
    assert poly.degree(poly.make([5])) == 0
    assert poly.degree(()) == -1


def test_evaluate_horner():
    p = poly.make([1, -2, 1])  # (t-1)^2
    assert poly.evaluate(p, Fraction(1)) == 0
    assert poly.evaluate(p, Fraction(3)) == 4


def test_divide_round_trips():
    rnd = random.Random(11)
    for _ in range(50):
        a = poly.make([Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                       for _ in range(rnd.randint(1, 6))])
        b = poly.make([Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                       for _ in range(rnd.randint(1, 4))])
        if not b:
            continue
        q, r = poly.divide(a, b)
        assert poly.add(poly.multiply(q, b), r) == a
        assert poly.degree(r) < poly.degree(b) or r == ()


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly.divide(poly.make([1]), ())


def test_gcd_of_known_factors():
    p = from_roots([1, 2])
    q = from_roots([2, 3])
    assert poly.gcd(p, q) == from_roots([2])


def test_squarefree_part():
    p = poly.multiply(from_roots([1, 1, 2]), poly.make([1]))
    sf = poly.squarefree_part(p)
    assert poly.evaluate(sf, Fraction(1)) == 0
    assert poly.evaluate(sf, Fraction(2)) == 0
    assert poly.degree(sf) == 2


def test_count_roots_simple():
    p = from_roots([1, 2, 3])
    assert poly.count_roots_open(p, 0, 4) == 3
    assert poly.count_roots_open(p, Fraction(3, 2), Fraction(5, 2)) == 1
    assert poly.count_roots_open(p, 4, 10) == 0


def test_count_roots_excludes_endpoints():
    p = from_roots([1, 2])
    assert poly.count_roots_open(p, 1, 2) == 0
    assert poly.count_roots_open(p, 1, 3) == 1
    assert poly.count_roots_open(p, 0, 2) == 1


def test_count_roots_handles_multiplicity():
    p = from_roots([1, 1, 1])
    assert poly.count_roots_open(p, 0, 2) == 1


def test_count_roots_no_real_roots():
    p = poly.make([1, 0, 1])  # t^2 + 1
    assert poly.count_roots_open(p, -10, 10) == 0


def test_count_roots_rejects_zero_poly_and_bad_interval():
    with pytest.raises(ValueError):
        poly.count_roots_open((), 0, 1)
    with pytest.raises(ValueError):
        poly.count_roots_open(poly.make([1, 1]), 2, 2)


def test_count_roots_randomized_against_known_roots():
    rnd = random.Random(23)
    for _ in range(80):
        roots = sorted(Fraction(rnd.randint(-8, 8), rnd.randint(1, 3))
                       for _ in range(rnd.randint(1, 4)))
        p = from_roots(roots)
        # optionally multiply in a rootless quadratic
        if rnd.random() < 0.5:
            p = poly.multiply(p, poly.make([rnd.randint(1, 3), 0, 1]))
        a = Fraction(rnd.randint(-10, 0), rnd.randint(1, 2))
        b = a + Fraction(rnd.randint(1, 20), rnd.randint(1, 2))
        want = len({r for r in roots if a < r < b})
        assert poly.count_roots_open(p, a, b) == want


def test_sign_at_and_sturm_chain_in_integers():
    # chain members are positive integer multiples of p and p', so
    # sign_at on them gives the signs of p and p' at rational points
    rng = random.Random(4)
    for _ in range(50):
        p = poly.make(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                      for _ in range(rng.randint(2, 6)))
        if poly.degree(p) < 1:
            continue
        chain = poly.sturm_chain(p)
        assert all(isinstance(c, int) for q in chain for c in q)
        for _ in range(5):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
            for q, member in ((p, chain[0]), (poly.derivative(p), chain[1])):
                value = poly.evaluate(q, x)
                assert poly.sign_at(member, x) == (value > 0) - (value < 0)
