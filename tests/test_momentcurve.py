"""Exact moment-curve constructions: hyperplanes, verification, enumeration."""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hyperbisect.momentcurve import (Arrangement, DegenerateInputError,
                                     IntervalFamily, OrientedHyperplane,
                                     arrangement_from_jsonable,
                                     arrangement_to_jsonable, check_shape,
                                     count_bisections, curve_restriction,
                                     enumerate_bisections, hyperplane_through,
                                     hyperplane_to_jsonable, moment_point,
                                     verify_bisection, well_separated_family)
from hyperbisect.cli import _table_json
from hyperbisect.momentcurve import _bisection_table, _interval_roots
from hyperbisect import polynomials as poly
from oracles import (canonical_arrangement, count_bisections_by_factorials,
                     curve_roots_check, enumerate_by_root_sets,
                     equal_partitions, flipped, is_essential,
                     root_set_hyperplane, root_set_hyperplane_by_fractions)

# the acceptance suite's count-law tuples (d, k, ell)
COUNT_LAW = ((1, 2, 0), (2, 2, 0), (1, 3, 0), (2, 3, 0),
             (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1))


def _rational_family(rng, d, k, ell, qmin=11, qmax=97):
    """Seeded endpoints p/q, about one unit apart, after the anchors."""
    j = d * k if ell == 0 else (d - ell) * k + ell
    params = []
    for i in range(2 * j):
        q = rng.randint(qmin, qmax)
        params.append(Fraction(round((ell + i + rng.uniform(0.1, 0.9)) * q), q))
    return IntervalFamily(d, tuple(params), ell)


def test_moment_point_examples():
    assert moment_point(2, 2) == (2, 1)
    assert moment_point(3, 3) == (3, 3, 1)
    assert moment_point(0, 3) == (0, 0, 0)
    assert moment_point(Fraction(1, 2), 2) == (Fraction(1, 2), Fraction(-1, 8))


def test_moment_point_integer_parameters_give_binomials():
    import math
    for t in range(0, 8):
        pt = moment_point(t, 5)
        assert pt == tuple(Fraction(math.comb(t, i)) for i in range(1, 6))


def test_hyperplane_through_example():
    h = hyperplane_through([(1, 0), (2, 1)])
    assert h.normal == (1, -1) and h.offset == 1
    assert h.value((1, 0)) == 0 and h.value((2, 1)) == 0
    assert h.value((0, 0)) == -1


def test_hyperplane_through_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        hyperplane_through([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    with pytest.raises(ValueError):
        hyperplane_through([(1, 0)])  # wrong count for d = 2


def test_hyperplane_through_lattice_points_has_a_nonzero_normal():
    # a null vector (u, c) of the rows [p_i, -1] with u = 0 has c = 0, and
    # the free entry is 1: every d points of a small lattice, repeated and
    # collinear ones too, give a hyperplane through them or are degenerate
    rng = random.Random(11)
    for d in (1, 2, 3):
        for _ in range(300):
            pts = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(d)]
            try:
                h = hyperplane_through(pts)
            except DegenerateInputError:
                continue
            assert any(h.normal) and all(h.value(p) == 0 for p in pts)


def test_hyperplane_through_curve_points_never_degenerate():
    # any d distinct curve points are affinely independent
    for d in range(1, 5):
        params = [Fraction(3 * i + 1, 2) for i in range(d)]
        h = hyperplane_through([moment_point(t, d) for t in params])
        for t in params:
            assert h.value(moment_point(t, d)) == 0


def test_canonical_is_idempotent_and_flip_invariant():
    h = OrientedHyperplane((Fraction(-2), Fraction(4)), Fraction(6))
    c = h.canonical()
    assert c.normal[0] == 1
    assert c == c.canonical()
    assert c == flipped(h).canonical()
    # scaling by any nonzero rational lands on the same canonical form
    h2 = OrientedHyperplane((Fraction(-1), Fraction(2)), Fraction(3))
    assert h2.canonical() == c


def test_zero_normal_rejected():
    with pytest.raises(ValueError):
        OrientedHyperplane((0, 0), 1)


@pytest.mark.parametrize("build", [
    lambda: Arrangement(()),
    lambda: Arrangement((OrientedHyperplane((1,), 0),
                         OrientedHyperplane((1, 0), 0))),
    lambda: OrientedHyperplane((), 1),
    lambda: OrientedHyperplane((Fraction(0), Fraction(0)), 1),
    lambda: OrientedHyperplane((-0.0, 0.0), 1.0),
    lambda: OrientedHyperplane((math.nan, 0.0), 1.0),
    lambda: OrientedHyperplane((1.0, 0.0), math.nan),
    lambda: OrientedHyperplane((math.inf, 0.0), 1.0),
    # numpy floats other than float64 are not Python floats
    lambda: OrientedHyperplane((1, np.float32("nan")), 0),
    lambda: OrientedHyperplane((1, 0), np.float32("inf")),
    lambda: OrientedHyperplane((np.float16("nan"), 1), 0),
    lambda: OrientedHyperplane((1, 0), np.float16("-inf")),
], ids=["empty arrangement", "mixed dimensions", "empty normal",
        "zero Fraction normal", "signed zero normal", "NaN normal",
        "NaN offset", "infinite normal", "float32 NaN normal",
        "float32 infinite offset", "float16 NaN normal",
        "float16 infinite offset"])
def test_records_reject_what_they_cannot_hold(build):
    with pytest.raises(ValueError):
        build()


def test_records_accept_a_normal_with_one_nonzero_coordinate():
    for normal in ((0, 1), (Fraction(0), Fraction(-1, 3)), (0.0, 1e-300),
                   (np.float32(0), np.float16(1.5))):
        assert OrientedHyperplane(normal, 0).normal == normal


def _checked_constructor_families():
    rng = random.Random(31)
    for d, k, ell in COUNT_LAW + ((4, 2, 1), (4, 3, 2), (5, 2, 2)):
        yield well_separated_family(d, k, ell), k
        yield _rational_family(rng, d, k, ell), k


@pytest.mark.parametrize("family, k", list(_checked_constructor_families()))
def test_enumerated_arrangements_pass_the_checked_constructor(family, k):
    # enumeration builds its arrangements without Arrangement's checks;
    # each must equal the one the checked constructor builds
    for arr in enumerate_bisections(family, k):
        checked = Arrangement(arr.hyperplanes)
        assert arr == checked and type(arr) is Arrangement
        assert arr.k == k and arr.dim == family.d


def test_curve_restriction_degree_and_roots():
    d = 3
    params = [1, 2, 4]
    h = hyperplane_through([moment_point(t, d) for t in params])
    q = curve_restriction(h)
    assert poly.degree(q) == d
    for t in params:
        assert poly.evaluate(q, Fraction(t)) == 0


def test_curve_roots_check_examples():
    h = hyperplane_through([moment_point(1, 2), moment_point(2, 2)])
    assert curve_roots_check(h, [1, 2]) is True
    assert curve_roots_check(h, [1, 3]) is False
    assert curve_roots_check(h, [1]) is False  # leftover root at 2
    h1 = hyperplane_through([moment_point(5, 1)])
    assert curve_roots_check(h1, [5]) is True
    with pytest.raises(ValueError):
        curve_roots_check(h, [1, 1])


def test_interval_family_validation():
    IntervalFamily(2, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        IntervalFamily(2, (1, 2, 2, 4))     # not strictly increasing
    with pytest.raises(ValueError):
        IntervalFamily(2, (1, 2, 3))        # odd endpoint count
    with pytest.raises(ValueError):
        IntervalFamily(2, (1, 2, 3, 4), anchor_count=3)  # anchor 2 not before 1
    fam = IntervalFamily(2, (Fraction(3, 2), 2, 3, 4), anchor_count=1)
    assert fam.j == 2
    assert fam.midpoints() == [Fraction(7, 4), Fraction(7, 2)]
    assert fam.anchors() == [0]


def test_interval_family_stores_plain_ints():
    fam = IntervalFamily(d=np.int64(2), parameters=(1, 2, 3, 4),
                         anchor_count=np.int64(1))
    assert type(fam.d) is int and type(fam.anchor_count) is int
    assert fam == IntervalFamily(2, (1, 2, 3, 4), anchor_count=1)
    assert fam.anchors() == [0]


def test_verify_bisection_positive_one_dimensional():
    fam = IntervalFamily(1, (1, 2))
    cut = Arrangement((hyperplane_through([(Fraction(3, 2),)]),))
    assert verify_bisection(cut, fam) is True
    off = Arrangement((hyperplane_through([(Fraction(7, 4),)]),))
    assert verify_bisection(off, fam) is False


def test_verify_bisection_rejects_a_dimension_mismatch():
    fam = IntervalFamily(1, (1, 2))
    plane = Arrangement((OrientedHyperplane((Fraction(1), Fraction(1)),
                                            Fraction(3)),))
    with pytest.raises(ValueError, match=re.escape(
            "arrangement lives in R^2, family in R^1")):
        verify_bisection(plane, fam)


def test_verify_bisection_rejects_endpoint_hyperplanes():
    # first hyperplane through the endpoints of interval 1 instead of
    # midpoints: intervals 1 and 2 end up with no interior cut
    fam = IntervalFamily(2, (1, 2, 3, 4, 5, 6, 7, 8))
    bad = hyperplane_through([moment_point(1, 2), moment_point(2, 2)])
    good = hyperplane_through([moment_point(Fraction(11, 2), 2),
                               moment_point(Fraction(15, 2), 2)])
    assert verify_bisection(Arrangement((bad, good)), fam) is False


def test_verify_bisection_accepts_redundant_endpoint_hyperplane():
    # endpoint crossings carry no mass: if the other hyperplane already
    # cuts every midpoint, the arrangement still bisects
    fam = IntervalFamily(2, (1, 2, 3, 4))
    endpointed = hyperplane_through([moment_point(1, 2), moment_point(2, 2)])
    cuts_both = hyperplane_through([moment_point(Fraction(3, 2), 2),
                                    moment_point(Fraction(7, 2), 2)])
    assert verify_bisection(Arrangement((endpointed, cuts_both)), fam) is True


def test_verify_bisection_rejects_double_cut():
    # both hyperplanes through the same midpoint pair: the product has a
    # double root at each midpoint, so no sign change
    fam = IntervalFamily(2, (1, 2, 3, 4))
    h = hyperplane_through([moment_point(Fraction(3, 2), 2),
                            moment_point(Fraction(7, 2), 2)])
    assert verify_bisection(Arrangement((h, h)), fam) is False


def test_count_examples():
    assert count_bisections(2, 2, 0) == 3
    assert count_bisections(2, 3, 0) == 15
    assert count_bisections(2, 3, 1) == 6
    assert count_bisections(1, 1, 0) == 1
    assert count_bisections(3, 3, 1) == 105


def test_count_matches_the_factorial_formula():
    for d in range(1, 16):
        for k in range(1, 16):
            for ell in range(d) if k >= 2 else (0,):
                assert (count_bisections(d, k, ell)
                        == count_bisections_by_factorials(d, k, ell))


def test_check_shape_is_the_family_size():
    for d in range(1, 13):
        for k in range(1, 13):
            for ell in range(d) if k >= 2 else (0,):
                assert (check_shape(d, k, ell)
                        == (d, k, ell, well_separated_family(d, k, ell).j))


@pytest.mark.parametrize("shape", [(2, 3, 5), (3, 1, 1), (2, 0, 0)])
def test_bad_shapes_raise_check_shapes_errors(shape):
    # (2, 3, 5) used to fail on its endpoint count and (3, 1, 1) to build
    # an anchored family with k = 1
    with pytest.raises(ValueError) as caught:
        check_shape(*shape)
    message = re.escape(str(caught.value))
    with pytest.raises(ValueError, match=message):
        well_separated_family(*shape)
    with pytest.raises(ValueError, match=message):
        count_bisections(*shape)


def test_count_rejects_bad_ranges():
    with pytest.raises(ValueError):
        count_bisections(2, 1, 1)
    with pytest.raises(ValueError):
        count_bisections(2, 2, 2)


def test_enumerate_small_counts_and_verification():
    for d, k, ell in [(1, 2, 0), (1, 3, 0), (2, 2, 0), (2, 2, 1), (2, 3, 1)]:
        fam = well_separated_family(d, k, ell)
        arrs = enumerate_bisections(fam, k)
        assert len(arrs) == count_bisections(d, k, ell)
        for arr in arrs:
            assert verify_bisection(arr, fam)
            assert is_essential(arr)


def test_enumerate_single_hyperplane():
    fam = well_separated_family(1, 1, 0)
    arrs = enumerate_bisections(fam, 1)
    assert len(arrs) == 1
    assert arrs[0].hyperplanes[0].value((fam.midpoints()[0],)) == 0


def test_enumerate_is_deterministic_and_sorted():
    fam = well_separated_family(2, 2, 0)
    a1 = enumerate_bisections(fam, 2)
    a2 = enumerate_bisections(fam, 2)
    assert a1 == a2
    keys = [arr.sort_key() for arr in a1]
    assert keys == sorted(keys)


def test_enumerate_rejects_mismatched_family():
    fam = well_separated_family(2, 2, 0)   # j = 4
    with pytest.raises(ValueError):
        enumerate_bisections(fam, 3)       # needs j = 6
    with pytest.raises(ValueError):
        enumerate_bisections(IntervalFamily(2, (2, 3, 4, 5, 6, 7), 1), 1)


def test_enumerate_fractional_parameters():
    fam = IntervalFamily(2, (Fraction(1, 2), 1, 2, Fraction(5, 2),
                             3, Fraction(7, 2), 4, 5))
    arrs = enumerate_bisections(fam, 2)
    assert len(arrs) == count_bisections(2, 2, 0)


def test_arrangement_json_round_trip():
    fam = well_separated_family(2, 2, 1)
    for arr in enumerate_bisections(fam, 2):
        data = arrangement_to_jsonable(arr)
        for h in data:
            assert all("/" in s for s in h["normal"])
            assert "/" in h["offset"]
        back = arrangement_from_jsonable(json.loads(json.dumps(data)))
        assert back == arr
        assert verify_bisection(back, fam)


def test_essentiality_detects_flipped_duplicates():
    h = hyperplane_through([(1, 0), (2, 1)])
    assert not is_essential(Arrangement((h, flipped(h))))
    g = hyperplane_through([(0, 0), (1, 1)])
    assert is_essential(Arrangement((h, g)))


def test_root_set_hyperplane_matches_gaussian_elimination():
    rng = random.Random(5)
    for d in range(1, 6):
        for ell in range(d):
            for _ in range(4):
                den = rng.randint(1, 7)
                mids = rng.sample(range(1, 60), d - ell)
                roots = tuple(ell + Fraction(m, den) for m in mids)
                roots += tuple(map(Fraction, range(ell)))
                expected = hyperplane_through([moment_point(t, d)
                                               for t in roots])
                assert root_set_hyperplane(roots) == expected
                assert curve_roots_check(expected, roots)


def test_root_set_hyperplane_matches_fraction_kernel():
    # seeded root sets: negative, zero and repeated roots, the anchors
    # 0..ell-1, and denominators up to 10**6, so that the lcm of d of them
    # spans several machine words
    def agree(roots):
        # the oracle gets Fractions: on int roots it would divide to floats
        return (root_set_hyperplane(roots)
                == root_set_hyperplane_by_fractions(map(Fraction, roots)))

    rng = random.Random(17)
    for d in range(1, 7):
        for ell in range(d):
            for _ in range(6):
                pool = [Fraction(rng.randint(-10**7, 10**7),
                                 rng.choice((1, rng.randint(1, 10**6))))
                        for _ in range(d)] + [0, -1]
                roots = [rng.choice(pool) for _ in range(d - ell)]
                roots += [Fraction(i) for i in range(ell)]
                assert agree(roots)
    den = 999_983 * 999_979 * 999_961
    for roots in ((0,), (-3, -3), (Fraction(-1, den), 0, Fraction(1, den)),
                  (Fraction(5, 7),) * 6):
        assert agree(roots)
    h = root_set_hyperplane((-3, 2))
    assert all(type(x) is Fraction for x in (*h.normal, h.offset))


def _restriction_oracle(h, family):
    q = curve_restriction(h)
    out = []
    for (a, b), mid in zip(family.intervals(), family.midpoints()):
        at_mid = poly.evaluate(q, mid) == 0
        simple = at_mid and poly.evaluate(poly.derivative(q), mid) != 0
        out.append((at_mid, simple, poly.count_roots_open(q, a, b)))
    return out


def test_interval_roots_match_count_roots_open():
    fam = IntervalFamily(2, (1, 2, 3, 4))
    endpointed = hyperplane_through([moment_point(1, 2), moment_point(2, 2)])
    cuts_both = hyperplane_through([moment_point(Fraction(3, 2), 2),
                                    moment_point(Fraction(7, 2), 2)])
    for h in (endpointed, cuts_both):
        assert _interval_roots(h, fam) == _restriction_oracle(h, fam)
    assert _interval_roots(endpointed, fam) == [(False, False, 0)] * 2
    double = root_set_hyperplane((Fraction(3, 2), Fraction(3, 2)))
    assert _interval_roots(double, fam) == [(True, False, 1),
                                            (False, False, 0)]
    on_left_end = root_set_hyperplane((Fraction(3), Fraction(13, 4)))
    assert _interval_roots(on_left_end, fam) == [(False, False, 0),
                                                 (False, False, 1)]

    # seeded root multisets drawn from endpoints, midpoints, interior and
    # outside points, repeats allowed
    rng = random.Random(11)
    for d in range(1, 5):
        fam = _rational_family(rng, d, 2, 0)
        ps = fam.parameters
        pool = list(ps) + fam.midpoints() + [ps[0] - 1, ps[-1] + 1]
        pool += [(a + 2 * b) / 3 for a, b in fam.intervals()]
        for _ in range(15):
            h = root_set_hyperplane(tuple(rng.choice(pool) for _ in range(d)))
            assert _interval_roots(h, fam) == _restriction_oracle(h, fam)


def _verify_oracle(arrangement, family):
    """verify_bisection's predicate with one count_roots_open per
    hyperplane and interval."""
    qs = [curve_restriction(h) for h in arrangement.hyperplanes]
    for (a, b), mid in zip(family.intervals(), family.midpoints()):
        owners = [q for q in qs if poly.evaluate(q, mid) == 0]
        if len(owners) != 1 or poly.evaluate(poly.derivative(owners[0]),
                                             mid) == 0:
            return False
        if [poly.count_roots_open(q, a, b) for q in qs] != [
                int(q is owners[0]) for q in qs]:
            return False
    return True


def test_verify_bisection_rejects_owner_with_extra_or_double_root():
    fam = IntervalFamily(2, (1, 2, 3, 4))
    other = root_set_hyperplane((Fraction(7, 2), Fraction(10)))
    twice = root_set_hyperplane((Fraction(3, 2), Fraction(7, 4)))
    assert verify_bisection(Arrangement((twice, other)), fam) is False
    double = root_set_hyperplane((Fraction(3, 2), Fraction(3, 2)))
    assert verify_bisection(Arrangement((double, other)), fam) is False
    once = root_set_hyperplane((Fraction(3, 2), Fraction(-1)))
    assert verify_bisection(Arrangement((once, other)), fam) is True


def test_verify_bisection_matches_oracle_on_seeded_arrangements():
    rng = random.Random(7)
    for d in (1, 2, 3):
        fam = _rational_family(rng, d, 2, 0)
        ps = fam.parameters
        pool = list(ps) + [ps[0] - 1, ps[-1] + 1]
        pool += [(2 * a + b) / 3 for a, b in fam.intervals()]
        verdicts = set()
        for _ in range(25):
            # a bisecting partition of the midpoints, some roots moved
            roots = [rng.choice(pool) if rng.random() < 0.15 else t
                     for t in rng.sample(fam.midpoints(), 2 * d)]
            arr = Arrangement((root_set_hyperplane(tuple(roots[:d])),
                               root_set_hyperplane(tuple(roots[d:]))))
            verdict = verify_bisection(arr, fam)
            assert verdict == _verify_oracle(arr, fam)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def test_every_root_set_candidate_bisects():
    # the proof obligation behind enumerate_bisections checking nothing:
    # a random partition of the midpoints, each block's hyperplane built
    # from its root set with the anchors appended, as enumeration does
    rng = random.Random(13)
    for d in range(1, 6):
        for ell in range(d):
            for k in range(2 if ell else 1, 4):
                fam = _rational_family(rng, d, k, ell)
                anchors = tuple(fam.anchors())
                size = d - ell
                for _ in range(20):
                    mids = rng.sample(fam.midpoints(), fam.j)
                    free, rest = (mids[:d], mids[d:]) if ell else ([], mids)
                    root_sets = [tuple(sorted(free))] if ell else []
                    root_sets += [tuple(sorted(rest[i:i + size])) + anchors
                                  for i in range(0, len(rest), size)]
                    arr = Arrangement(tuple(map(root_set_hyperplane,
                                                root_sets)))
                    assert arr.k == k and is_essential(arr)
                    assert verify_bisection(arr, fam), (d, k, ell, root_sets)


def _reference_enumeration(family, k):
    """Every candidate by Gaussian elimination, kept if verify_bisection
    accepts it."""
    d, ell = family.d, family.anchor_count
    mids = tuple(family.midpoints())
    anchor_pts = [moment_point(t, d) for t in family.anchors()]

    def through(block, extra=()):
        return hyperplane_through([moment_point(t, d) for t in block]
                                  + list(extra))

    candidates = []
    if ell == 0:
        for partition in equal_partitions(mids, d):
            candidates.append([through(b) for b in partition])
    else:
        for free in combinations(mids, d):
            rest = tuple(t for t in mids if t not in free)
            for partition in equal_partitions(rest, d - ell):
                candidates.append([through(free)] + [through(b, anchor_pts)
                                                     for b in partition])
    arrs = [canonical_arrangement(Arrangement(tuple(hs)))
            for hs in candidates]
    good = [a for a in arrs if is_essential(a) and verify_bisection(a, family)]
    return sorted(good, key=Arrangement.sort_key)


def test_enumerate_matches_reference_with_large_denominators():
    # endpoints p/q with q up to 10**6: the integer kernel's product of d
    # denominators no longer fits one machine word
    rng = random.Random(19)
    for d, k, ell in ((2, 3, 0), (3, 2, 1)):
        fam = _rational_family(rng, d, k, ell, 10**5, 10**6)
        got = [arrangement_to_jsonable(a)
               for a in enumerate_bisections(fam, k)]
        want = [arrangement_to_jsonable(a)
                for a in _reference_enumeration(fam, k)]
        assert got == want
        assert len(got) == count_bisections(d, k, ell)


def test_enumerate_matches_reference_on_count_law_families():
    rng = random.Random(3)
    for d, k, ell in COUNT_LAW:
        for fam in (well_separated_family(d, k, ell),
                    _rational_family(rng, d, k, ell)):
            got = [arrangement_to_jsonable(a)
                   for a in enumerate_bisections(fam, k)]
            want = [arrangement_to_jsonable(a)
                    for a in _reference_enumeration(fam, k)]
            assert got == want
            assert len(got) == count_bisections(d, k, ell)


def _distinct_denominator_family(rng, d, k, ell):
    """Seeded midpoints p/q with a different prime q each, two units
    apart after the anchors, as centres of intervals of width 2/3."""
    *_, j = check_shape(d, k, ell)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    params = []
    for r, q in enumerate(rng.sample(primes, j)):
        p = round((ell + 1 + 2 * r + rng.uniform(-0.4, 0.4)) * q)
        if p % q == 0:
            p += 1
        mid = Fraction(p, q)
        params += [mid - Fraction(1, 3), mid + Fraction(1, 3)]
    return IntervalFamily(d, tuple(params), ell)


def _raw_pivot(roots):
    """First nonzero forward difference at 0, Delta^i q(0) for i >= 1, of
    q(t) = prod (t - r): the pivot before canonicalising."""
    values = [math.prod(m - r for r in roots) for m in range(len(roots) + 1)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return next(u for u in diffs[1:] if u)


def _oracle_cases():
    rng = random.Random(23)
    for d, k, ell in COUNT_LAW:
        yield f"{d},{k},{ell} integer", well_separated_family(d, k, ell), k
        yield f"{d},{k},{ell} rational", _rational_family(rng, d, k, ell), k
    for d, k, ell in COUNT_LAW + ((3, 3, 0), (4, 2, 1)):
        fam = _distinct_denominator_family(rng, d, k, ell)
        dens = [m.denominator for m in fam.midpoints()]
        assert len(set(dens)) == len(dens) and min(dens) > 1
        yield f"{d},{k},{ell} distinct denominators", fam, k
    # midpoints 1/4 and 3/4 sum to 1: that block's first normal coordinate
    # is 0, so its pivot is the second one
    yield "second-coordinate pivot", IntervalFamily(2, (
        Fraction(0), Fraction(1, 2), Fraction(5, 8), Fraction(7, 8),
        2, 3, 4, 5)), 2
    for d, k, ell in ((4, 3, 0), (3, 4, 0), (5, 3, 1)):
        yield f"{d},{k},{ell} integer", well_separated_family(d, k, ell), k
    yield "5,3,1 rational", _rational_family(random.Random(1), 5, 3, 1), 3


ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("family, k", [case[1:] for case in ORACLE_CASES],
                         ids=[case[0] for case in ORACLE_CASES])
def test_enumerate_matches_root_set_oracle(family, k):
    got = enumerate_bisections(family, k)
    want = enumerate_by_root_sets(family, k)
    assert got == want
    # the rank table, read back from the oracle's list (which shares one
    # object per hyperplane), and the CLI's JSON of it, which renders each
    # plane once and joins blocks by rank
    shared = {id(h): h for a in want for h in a.hyperplanes}
    planes = sorted(shared.values(), key=OrientedHyperplane.sort_key)
    rank = {id(h): r for r, h in enumerate(planes)}
    rows = [[rank[id(h)] for h in a.hyperplanes] for a in want]
    table = _bisection_table(family, k)
    assert table == (planes, rows)
    blocks = [hyperplane_to_jsonable(h) for h in planes]
    assert json.loads(_table_json(*table)) == [[blocks[r] for r in row]
                                               for row in rows]


def test_oracle_cases_cover_negative_and_late_pivots():
    # the integer ranking makes a negative pivot positive before it
    # cross-multiplies; these blocks reach it
    cases = {label: family for label, family, _ in ORACLE_CASES}
    for label in ("2,2,0 integer", "2,3,0 rational"):
        mids = cases[label].midpoints()
        assert any(_raw_pivot(block) < 0 for block in combinations(mids, 2))
    plane = root_set_hyperplane(
        cases["second-coordinate pivot"].midpoints()[:2])
    assert plane.normal == (0, 1) and plane.offset == Fraction(-3, 32)


def test_enumeration_shares_hyperplane_objects():
    # enumeration hands out one object per distinct hyperplane, the plane
    # of its rank table: 84 for (3, 3, 0), with Fraction coordinates
    arrs = enumerate_bisections(well_separated_family(3, 3, 0), 3)
    assert len(arrs) == 280
    planes = {id(h): h for a in arrs for h in a.hyperplanes}.values()
    assert len(planes) == 84
    assert all(type(x) is Fraction for h in planes for x in (*h.normal,
                                                              h.offset))
