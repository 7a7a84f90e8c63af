"""Verdict engine: certificates, preference order, frontier tables."""

from __future__ import annotations

import functools
import json
import math
import random

import pytest

from hyperbisect.verdicts import (HAM_SANDWICH, MOMENT_CURVE_NECESSITY, NONE,
                                  THM1_IDEAL, THM25_I, THM25_II, Certificate,
                                  FrontierRow, FrontierTable, LambdaVerdict,
                                  Status, _least_thm25ii, _thm25i_fires,
                                  _thm25ii_fires, certificate_checks,
                                  frontier_csv, frontier_json, frontier_table,
                                  is_power_of_two, verdict)
from oracles import carry_free_composition, least_thm25ii_by_loop


@functools.cache  # the scans ask the same (d0, j, k) many times
def _thm1_fires_by_search(d0, j, k):
    return carry_free_composition(j, k, d0) is not None


def _verdict_by_scan(d, j, k):
    """The engine before its closed forms: each criterion scanned over
    d0 = 1..d, THM1 decided by the composition search."""
    if d * k < j:
        return LambdaVerdict(d, j, k, Status.NOT_IN,
                             Certificate(MOMENT_CURVE_NECESSITY))
    if k == 1:
        return LambdaVerdict(d, j, k, Status.IN, Certificate(HAM_SANDWICH),
                             witness_d0=j)
    for d0 in range(1, d + 1):
        a = _thm25i_fires(d0, j, k)
        if a is not None:
            return LambdaVerdict(d, j, k, Status.IN,
                                 Certificate(THM25_I, d0=d0, a=a),
                                 witness_d0=d0)
    for d0 in range(1, d + 1):
        hit = _thm25ii_fires(d0, j, k)
        if hit is not None:
            a, ell = hit
            return LambdaVerdict(d, j, k, Status.IN,
                                 Certificate(THM25_II, d0=d0, a=a, ell=ell),
                                 witness_d0=d0)
    for d0 in range(1, d + 1):
        if _thm1_fires_by_search(d0, j, k):
            return LambdaVerdict(d, j, k, Status.IN,
                                 Certificate(THM1_IDEAL, d0=d0),
                                 witness_d0=d0)
    return LambdaVerdict(d, j, k, Status.UNKNOWN, Certificate(NONE))


def _first_d(fires, bound):
    return next((d for d in range(1, bound + 1) if fires(d)), None)


def _frontier_by_scan(k, j_max, d_search_bound=None):
    """Frontier rows from scans of d = 1..bound for every criterion."""
    rows = []
    for j in range(1, j_max + 1):
        bound = d_search_bound if d_search_bound is not None else 4 * j
        rows.append(FrontierRow(
            j=j,
            d_conjecture=math.ceil(j / k),
            d_thm1=_first_d(lambda d: _thm1_fires_by_search(d, j, k), bound),
            d_thm25i=_first_d(lambda d: _thm25i_fires(d, j, k) is not None,
                              bound),
            d_thm25ii=_first_d(lambda d: _thm25ii_fires(d, j, k) is not None,
                               bound),
        ))
    return FrontierTable(k=k, j_max=j_max, search_bound=d_search_bound,
                         rows=tuple(rows))


def test_power_of_two_helper():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


def test_verdict_examples():
    v = verdict(2, 4, 2)
    assert v.status is Status.IN
    assert v.certificate == Certificate(THM25_I, d0=2, a=1)
    assert v.witness_d0 == 2

    v = verdict(1, 3, 2)
    assert v.status is Status.NOT_IN
    assert v.certificate.kind == MOMENT_CURVE_NECESSITY

    v = verdict(2, 4, 3)
    assert v.status is Status.UNKNOWN
    assert v.certificate.kind == NONE


def test_ham_sandwich_family():
    for j in range(1, 8):
        for d in range(1, 10):
            v = verdict(d, j, 1)
            if d >= j:
                assert v.status is Status.IN
                assert v.certificate.kind == HAM_SANDWICH
                assert v.witness_d0 == j
            else:
                assert v.status is Status.NOT_IN


def test_necessity_is_the_only_not_in():
    for d in range(1, 6):
        for j in range(1, 12):
            for k in range(1, 5):
                v = verdict(d, j, k)
                assert (v.status is Status.NOT_IN) == (d * k < j)
                if v.status is Status.NOT_IN:
                    assert v.certificate.kind == MOMENT_CURVE_NECESSITY
                if v.status is Status.UNKNOWN:
                    assert v.certificate.kind == NONE


def test_monotone_in_dimension():
    for j in range(1, 12):
        for k in range(1, 5):
            for d in range(1, 8):
                if verdict(d, j, k).status is Status.IN:
                    assert verdict(d + 1, j, k).status is Status.IN


def test_certificates_check_out():
    for d in range(1, 7):
        for j in range(1, 14):
            for k in range(1, 5):
                assert certificate_checks(verdict(d, j, k))


def test_witness_is_minimal_for_its_criterion():
    for d in range(1, 7):
        for j in range(1, 14):
            for k in range(2, 5):
                v = verdict(d, j, k)
                if v.witness_d0 is not None:
                    assert 1 <= v.witness_d0 <= d


def test_preference_order():
    # at (4, 4, 2) both THM25_I (d0=2) and THM1_IDEAL (d0=4) apply
    v = verdict(4, 4, 2)
    assert v.certificate == Certificate(THM25_I, d0=2, a=1)
    # at (4, 7, 3) both THM25_II (d0=3) and THM1_IDEAL (d0=4) apply
    v = verdict(4, 7, 3)
    assert v.certificate == Certificate(THM25_II, d0=3, a=1, ell=1)
    # THM1 wins only when nothing else fires: k=2 rules out THM25_II,
    # j=3 is not k * power-of-two, so (2, 3, 2) must be THM1
    v = verdict(2, 3, 2)
    assert v.status is Status.IN
    assert v.certificate == Certificate(THM1_IDEAL, d0=2)


def test_certificate_rendering():
    assert str(Certificate(THM25_II, d0=3, a=1, ell=1)) == "THM25_II(d0=3, a=1, ell=1)"
    assert str(Certificate(HAM_SANDWICH)) == "HAM_SANDWICH"
    with pytest.raises(ValueError):
        Certificate("THM99")


def test_verdict_rejects_bad_triples():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            verdict(*bad)


def test_frontier_rows_k2():
    table = frontier_table(2, 40)
    by_j = {r.j: r for r in table.rows}
    assert by_j[3].d_thm1 == 2
    assert by_j[4].d_thm25i == 2
    for r in table.rows:
        assert r.d_conjecture == math.ceil(r.j / 2)
        assert r.d_thm25ii is None  # k = 2 is even
        if r.j % 2 == 0 and is_power_of_two(r.j // 2):
            assert r.d_thm25i == r.j // 2
        else:
            assert r.d_thm25i is None
    for m in range(1, 6):
        assert by_j[2 ** m - 1].d_thm1 == 2 ** (m - 1)


def test_frontier_rows_k3():
    table = frontier_table(3, 12)
    by_j = {r.j: r for r in table.rows}
    assert by_j[7].d_thm25ii == 3
    for r in table.rows:
        for dd in (r.d_thm1, r.d_thm25i, r.d_thm25ii):
            assert dd is None or dd >= r.d_conjecture


def test_frontier_criteria_consistent_with_verdicts():
    # at the claimed minimal d each criterion's verdict must be IN
    table = frontier_table(3, 10)
    for r in table.rows:
        for dd in (r.d_thm1, r.d_thm25i, r.d_thm25ii):
            if dd is not None:
                assert verdict(dd, r.j, 3).status is Status.IN


def test_frontier_search_bound_limits_cells():
    wide = frontier_table(2, 6)
    narrow = frontier_table(2, 6, d_search_bound=1)
    for r_wide, r_narrow in zip(wide.rows, narrow.rows):
        for attr in ("d_thm1", "d_thm25i", "d_thm25ii"):
            val = getattr(r_wide, attr)
            expect = val if (val is not None and val <= 1) else None
            assert getattr(r_narrow, attr) == expect


def test_csv_shape_and_determinism():
    table = frontier_table(2, 8)
    csv1, csv2 = frontier_csv(table), frontier_csv(frontier_table(2, 8))
    assert csv1 == csv2
    lines = csv1.strip().split("\n")
    assert lines[0] == "j,d_conjecture,d_thm1,d_thm25i,d_thm25ii"
    assert len(lines) == 9
    assert lines[1] == "1,1,1,,"


def test_json_round_trip():
    table = frontier_table(3, 7)
    data = json.loads(frontier_json(table))
    assert data["k"] == 3 and data["j_max"] == 7
    assert len(data["rows"]) == 7
    assert data["rows"][6]["d_thm25ii"] == 3


def test_verdict_matches_the_scan():
    for k in range(1, 7):
        for j in range(1, 65):
            for d in range(1, 2 * j + 2):
                v = verdict(d, j, k)
                assert v.to_jsonable() == _verdict_by_scan(d, j, k).to_jsonable()
                assert certificate_checks(v)


@pytest.mark.parametrize("bound", [None, 5])
def test_frontier_matches_the_scan(bound):
    for k in range(1, 7):
        table = frontier_table(k, 64, bound)
        expect = _frontier_by_scan(k, 64, bound)
        assert table == expect
        assert frontier_csv(table) == frontier_csv(expect)
        assert frontier_json(table) == frontier_json(expect)
        # every least d0 is at most j, so no bound blanks no cell
        assert all(dd is None or dd <= r.j for r in table.rows
                   for dd in (r.d_thm1, r.d_thm25i, r.d_thm25ii))


def test_thm25ii_closed_form_matches_the_loop_over_a():
    rng = random.Random(2511)
    for _ in range(6000):
        k = rng.randrange(3, 100, 2)
        if rng.random() < 0.5:
            j = rng.randint(1, 2 ** 80)
        else:  # 2^a*k + ell with ell at, inside and just past its range
            a = rng.randint(0, 74)
            ell = rng.choice([0, 1, (1 << a) - 1, 1 << a,
                              rng.randint(0, 1 << a)])
            j = max(1, (k << a) + ell)
        assert _least_thm25ii(j, k) == least_thm25ii_by_loop(j, k)
    for k in range(1, 16):
        for j in range(1, 400):
            want = least_thm25ii_by_loop(j, k)
            assert _least_thm25ii(j, k) == want
            # the least d0 at which the criterion's own re-derivation fires
            scan = _first_d(lambda d0: _thm25ii_fires(d0, j, k) is not None, j)
            assert scan == (None if want is None else want[0])
