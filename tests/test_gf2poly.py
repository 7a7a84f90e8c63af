"""The bit-dealing closed forms against the truncated F2 expansion and
brute-force multinomial expansion."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from hyperbisect.gf2poly import (count_surviving_monomials, ideal_member,
                                 least_surviving_d, surviving_monomials)
from oracles import (F2Poly, carry_free_composition, ideal_member_by_expansion,
                     truncated_power_of_sum)


def _multinomial(n, parts):
    r = math.factorial(n)
    for k in parts:
        r //= math.factorial(k)
    return r


def _brute_force_survivors(j, k, d):
    out = set()
    for comp in itertools.product(range(min(j, d) + 1), repeat=k):
        if sum(comp) == j and _multinomial(j, comp) % 2 == 1:
            out.add(comp)
    return out


def test_poly_addition_is_symmetric_difference():
    a = F2Poly(2, 3, frozenset({(1, 0), (0, 1)}))
    b = F2Poly(2, 3, frozenset({(0, 1), (2, 2)}))
    assert (a + b).monomials == {(1, 0), (2, 2)}
    assert (a + a).is_zero


def test_poly_rejects_capped_monomials():
    with pytest.raises(ValueError):
        F2Poly(2, 2, frozenset({(2, 0)}))
    with pytest.raises(ValueError):
        F2Poly(2, 2, frozenset({(1,)}))


def test_times_variable_sum_caps_and_cancels():
    one = F2Poly.one(3, 2)
    lin = one.times_variable_sum()
    assert lin.monomials == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    # squaring (t1+t2+t3) with cap 2 kills everything in pairs
    assert lin.times_variable_sum().is_zero


def test_truncated_power_examples():
    assert truncated_power_of_sum(2, 2, 1).is_zero
    assert truncated_power_of_sum(3, 2, 2).monomials == {(2, 1), (1, 2)}
    # the triple-variable cube with cap 1 dies: C(3;1,1,1) = 6 is even
    assert truncated_power_of_sum(3, 3, 1).is_zero


def test_truncated_power_matches_brute_force():
    for j in range(0, 9):
        for k in range(1, 4):
            for d in range(1, 5):
                got = truncated_power_of_sum(j, k, d).monomials
                assert got == _brute_force_survivors(j, k, d)


def test_surviving_monomials_sorted():
    surv = surviving_monomials(3, 2, 2)
    assert surv == [(1, 2), (2, 1)]


# (k, bound on j) for the grid on which the closed forms meet the expansion
_EXPANSION_GRID = ((1, 20), (2, 20), (3, 20), (4, 10), (5, 10))


def test_surviving_monomials_match_the_expansion():
    for k, j_max in _EXPANSION_GRID:
        for j in range(0, j_max):
            for d in range(0, 2 * j + 3):
                expanded = sorted(truncated_power_of_sum(j, k, d).monomials)
                assert surviving_monomials(j, k, d) == expanded


def test_count_surviving_monomials_matches_the_expansion():
    for k, j_max in _EXPANSION_GRID:
        for j in range(0, j_max):
            for d in range(0, 2 * j + 3):
                count = count_surviving_monomials(j, k, d)
                assert count == len(truncated_power_of_sum(j, k, d).monomials)
                assert count == len(surviving_monomials(j, k, d))
                assert (count == 0) == ideal_member(j, k, d)


def _deals(j, k, d):
    # brute force: every way to hand each set bit of j to one of k parts,
    # kept when no part exceeds d
    bits = [1 << b for b in range(j.bit_length()) if j >> b & 1]
    out = []
    for owners in itertools.product(range(k), repeat=len(bits)):
        parts = [0] * k
        for bit, owner in zip(bits, owners):
            parts[owner] += bit
        if max(parts) <= d:
            out.append(tuple(parts))
    return out


def _large_j_sweep():
    rng = random.Random(5)
    for _ in range(60):
        j = rng.choice([rng.randrange(1, 1 << 12) & rng.randrange(1 << 12),
                        rng.randrange(1, 300)])
        k = rng.randrange(1, 5)
        d = rng.randrange(0, 2 * j + 2)
        yield j, k, d


def test_count_surviving_monomials_large_j():
    for j, k, d in _large_j_sweep():
        assert count_surviving_monomials(j, k, d) == len(_deals(j, k, d))
    # d >= j: every deal fits, so the count is k ** popcount(j)
    assert count_surviving_monomials(4000, 3, 4000) == 3 ** 6 == 729
    assert count_surviving_monomials(2**40 + 5, 2, 2**41) == 2 ** 3
    with pytest.raises(ValueError):
        count_surviving_monomials(3, 0, 2)


def test_surviving_monomials_large_j():
    for j, k, d in _large_j_sweep():
        assert surviving_monomials(j, k, d) == sorted(_deals(j, k, d))
    # far past any expansion: j = 2^40 + 5 has three set bits, each dealt
    # to either of two parts, and 4000 has six, each to any of three
    big = surviving_monomials(2**40 + 5, 2, 2**41)
    assert len(big) == 8
    assert big[0] == (0, 2**40 + 5) and big[-1] == (2**40 + 5, 0)
    assert all(sum(mono) == 2**40 + 5 for mono in big)
    assert len(surviving_monomials(4000, 3, 4000)) == 729


def test_ideal_member_examples():
    assert ideal_member(2, 2, 1) is True
    assert ideal_member(3, 2, 2) is False
    assert ideal_member(7, 2, 3) is True


def test_ideal_member_paths_agree():
    for j in range(0, 13):
        for k in range(1, 4):
            for d in range(1, 6):
                member = ideal_member(j, k, d)
                assert member == ideal_member_by_expansion(j, k, d)
                assert member == (carry_free_composition(j, k, d) is None)


def test_least_surviving_d_is_the_first_non_member():
    # the closed form against a scan of the composition search over d
    for j in range(0, 130):
        for k in range(1, 7):
            first = next(d for d in range(0, j + 1)
                         if carry_free_composition(j, k, d) is not None)
            assert least_surviving_d(j, k) == first


def test_carry_free_composition_witness():
    for j in range(0, 25):
        for k in range(1, 4):
            for d in range(1, 7):
                comp = carry_free_composition(j, k, d)
                assert (comp is None) == ideal_member(j, k, d)
                if comp is None:
                    continue
                assert len(comp) == k
                assert sum(comp) == j
                assert all(0 <= a <= d for a in comp)
                acc = 0
                for a in comp:
                    assert acc & a == 0
                    acc |= a


def test_odd_binomial_family_never_member():
    # d = 2^{m-1}, j = 2^m - 1, k = 2: the split (2^{m-1}, 2^{m-1}-1)
    # is carry-free, so the truncated power survives
    for m in range(1, 6):
        d, j = 2 ** (m - 1), 2 ** m - 1
        assert ideal_member(j, 2, d) is False
        assert ideal_member(j, 2, d - 1) is True  # one dimension lower it dies


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        truncated_power_of_sum(-1, 2, 2)
    with pytest.raises(ValueError):
        truncated_power_of_sum(2, 0, 2)
    with pytest.raises(ValueError):
        ideal_member(2, 2, -1)
    for args in ((-1, 2, 2), (2, 0, 2), (2, 2, -1)):
        with pytest.raises(ValueError):
            surviving_monomials(*args)
