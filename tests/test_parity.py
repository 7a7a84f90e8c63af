"""Valuation and parity arithmetic against big-integer ground truth and
the Legendre floor sums of tests/oracles.py."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest

from hyperbisect.parity import (Parity, anchored_blocks_parity,
                                equal_blocks_parity, is_power_of_two,
                                multinomial_parity, multinomial_valuation)
from oracles import (block_count_valuation, is_carry_free, legendre_valuation,
                     multinomial_valuation_by_legendre)


def _factorial_valuation(n):
    v, f = 0, math.factorial(n)
    while f % 2 == 0:
        f //= 2
        v += 1
    return v


def _multinomial(n, parts):
    r = math.factorial(n)
    for k in parts:
        r //= math.factorial(k)
    return r


@dataclass(frozen=True)
class PadicProfile:
    """Valuation and binary digit sum of n!, bundled together."""

    n: int
    valuation: int
    digit_sum: int

    def __post_init__(self) -> None:
        # the Legendre identity ties the two fields together
        if self.valuation != self.n - self.digit_sum:
            raise ValueError("inconsistent profile")


def padic_profile(n: int) -> PadicProfile:
    return PadicProfile(n=n, valuation=_factorial_valuation(n),
                        digit_sum=n.bit_count())


def test_legendre_examples():
    assert legendre_valuation(0) == 0
    assert legendre_valuation(4) == 3
    assert legendre_valuation(10) == 8


def test_legendre_matches_factorials():
    for n in range(0, 60):
        assert legendre_valuation(n) == _factorial_valuation(n)


def test_legendre_digit_sum_identity():
    for n in range(0, 200):
        assert legendre_valuation(n) == n - n.bit_count()
        # Kummer's form of the valuation, on C(n; 1, ..., 1) = n!
        assert multinomial_valuation(n, [1] * n) == legendre_valuation(n)


def test_legendre_rejects_bad_input():
    with pytest.raises(ValueError):
        legendre_valuation(-1)


def test_padic_profile_fields():
    prof = padic_profile(10)
    assert prof.valuation == 8
    assert prof.digit_sum == 2  # 1010 in binary
    assert prof.n == 10
    for n in range(0, 60):
        padic_profile(n)  # the identity holds on the big-integer valuations


def test_multinomial_parity_examples():
    assert multinomial_parity(4, [2, 2]) is Parity.EVEN
    assert multinomial_parity(3, [2, 1]) is Parity.ODD
    for n in range(0, 20):
        assert multinomial_parity(n, [n]) is Parity.ODD


def test_multinomial_parity_matches_big_integers():
    for n in range(0, 16):
        for a in range(0, n + 1):
            for b in range(0, n - a + 1):
                c = n - a - b
                want = Parity.of(_multinomial(n, [a, b, c]))
                assert multinomial_parity(n, [a, b, c]) is want


def test_multinomial_parity_equals_carry_criterion():
    for n in range(0, 64):
        for a in range(0, n + 1):
            parts = [a, n - a]
            odd = multinomial_parity(n, parts) is Parity.ODD
            assert odd == is_carry_free(parts)


def test_multinomial_valuation_prime_powers():
    # E(n!) - sum E(k_i!) >= r iff 2^r divides the coefficient
    for n in range(0, 12):
        for a in range(0, n + 1):
            coeff = _multinomial(n, [a, n - a])
            v = multinomial_valuation(n, [a, n - a])
            assert coeff % 2**v == 0
            assert coeff % 2**(v + 1) != 0


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial_parity(4, [2, 1])
    with pytest.raises(ValueError):
        multinomial_parity(4, [5, -1])


def test_equal_blocks_examples():
    assert equal_blocks_parity(2, 2) is Parity.ODD      # count 3
    assert equal_blocks_parity(3, 2) is Parity.EVEN     # count 10
    for k in range(1, 9):
        assert equal_blocks_parity(1, k) is Parity.ODD  # count 1


def _equal_blocks_count(d, k):
    return _multinomial(d * k, [d] * k) // math.factorial(k)


def test_equal_blocks_power_of_two_rule():
    # with at least two blocks the unordered count is odd exactly when d is
    # a power of two; a single block always gives count 1
    for d in range(1, 17):
        assert equal_blocks_parity(d, 1) is Parity.ODD
        for k in range(2, 9):
            odd = equal_blocks_parity(d, k) is Parity.ODD
            assert odd == (d & (d - 1) == 0)
            assert odd == (_equal_blocks_count(d, k) % 2 == 1)


def _anchored_count(d, k, ell):
    j = (d - ell) * k + ell
    blocks = _multinomial((d - ell) * (k - 1), [d - ell] * (k - 1))
    return math.comb(j, d) * (blocks // math.factorial(k - 1))


def test_anchored_blocks_examples():
    assert anchored_blocks_parity(3, 3, 1) is Parity.ODD   # count 105
    assert anchored_blocks_parity(3, 2, 1) is Parity.EVEN  # count 10
    assert anchored_blocks_parity(2, 3, 1) is Parity.EVEN  # count 6


def test_anchored_blocks_matches_big_integers():
    for d in range(2, 11):
        for k in range(2, 7):
            for ell in range(1, d):
                want = Parity.of(_anchored_count(d, k, ell))
                assert anchored_blocks_parity(d, k, ell) is want


def test_anchored_blocks_power_of_two_rule_in_range():
    # For 2*ell <= d - 1 and k >= 3 the product is odd iff k is odd and
    # d - ell is a power of two.  At k = 2 the second factor is a single
    # block, hence identically 1, and the parity is that of the binomial
    # C(2d - ell, d): odd iff d and d - ell occupy disjoint binary digits.
    for d in range(3, 13):
        for k in range(2, 8):
            for ell in range(1, (d - 1) // 2 + 1):
                odd = anchored_blocks_parity(d, k, ell) is Parity.ODD
                dm = d - ell
                if k == 2:
                    rule = (d & dm) == 0
                else:
                    rule = (k % 2 == 1) and (dm & (dm - 1) == 0)
                assert odd == rule


def test_anchored_blocks_two_hyperplane_oddities():
    # single-block degeneracy at k = 2: the count reduces to C(2d - ell, d),
    # which can be odd even though k is even
    for d, ell, count in ((4, 1, 35), (8, 1, 6435), (8, 2, 3003),
                          (8, 3, 1287), (9, 3, 5005)):
        assert _anchored_count(d, 2, ell) == count
        assert anchored_blocks_parity(d, 2, ell) is Parity.ODD


def test_block_parities_reject_bad_ranges():
    with pytest.raises(ValueError):
        equal_blocks_parity(0, 2)
    with pytest.raises(ValueError):
        anchored_blocks_parity(3, 1, 1)
    with pytest.raises(ValueError):
        anchored_blocks_parity(3, 2, 3)
    with pytest.raises(ValueError):
        anchored_blocks_parity(3, 2, 0)


def test_multinomial_valuation_matches_legendre():
    for n in range(0, 80):
        for a in range(0, n + 1):
            for b in range(0, n - a + 1):
                parts = [a, b, n - a - b]
                assert (multinomial_valuation(n, parts)
                        == multinomial_valuation_by_legendre(n, parts))


def _parity_of_valuation(v):
    return Parity.EVEN if v > 0 else Parity.ODD


def test_block_parities_match_legendre_on_a_full_sweep():
    # every d <= 128, k <= 64 and ell: Lucas' closed forms against the
    # floor sums they replaced
    for d in range(1, 129):
        for k in range(1, 65):
            want = _parity_of_valuation(block_count_valuation(d, k))
            assert equal_blocks_parity(d, k) is want, (d, k)
            for ell in range(1, d) if k >= 2 else ():
                want = _parity_of_valuation(block_count_valuation(d, k, ell))
                assert anchored_blocks_parity(d, k, ell) is want, (d, k, ell)


def test_block_parities_match_legendre_on_seeded_triples():
    rng = random.Random(27)
    for _ in range(10_000):
        d, k = rng.randint(2, 10**40), rng.randint(2, 10**6)
        ell = rng.randint(1, d - 1)
        want = _parity_of_valuation(block_count_valuation(d, k))
        assert equal_blocks_parity(d, k) is want, (d, k)
        want = _parity_of_valuation(block_count_valuation(d, k, ell))
        assert anchored_blocks_parity(d, k, ell) is want, (d, k, ell)
        parts = [rng.randint(0, 10**40) for _ in range(3)]
        assert (multinomial_valuation(sum(parts), parts)
                == multinomial_valuation_by_legendre(sum(parts), parts))


def test_is_power_of_two_is_the_verdicts_predicate():
    from hyperbisect import verdicts
    assert verdicts.is_power_of_two is is_power_of_two
    assert [n for n in range(-4, 70) if is_power_of_two(n)] == [
        1, 2, 4, 8, 16, 32, 64]


def test_ln_comb_matches_big_integers():
    # both branches of the size estimate: the exact sum of logs up to
    # r = 64, Stirling above, on either side of a binomial
    from hyperbisect.parity import _ln_comb
    for n in (1, 2, 10, 129, 1000, 10**6, 10**20, 10**300, 10**1000):
        for r in sorted({0, 1, 2, 3, 10, 63, 64, 65, 66, 100, n // 2}):
            if r <= n and (r <= 100 or n <= 1000):
                exact = math.log(math.comb(n, r))
                assert math.isclose(_ln_comb(n, r), exact, rel_tol=1e-13,
                                    abs_tol=1e-13), (n, r)
                assert math.isclose(_ln_comb(n, n - r), exact, rel_tol=1e-13,
                                    abs_tol=1e-13), (n, r)
