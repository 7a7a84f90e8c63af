"""Verdict engine: certificates, preference order, frontier tables."""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import enum
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperbisect.verdicts import (HAM_SANDWICH, MOMENT_CURVE_NECESSITY, NONE,
                                  THM1_IDEAL, THM25_I, THM25_II, Certificate,
                                  FrontierRow, FrontierTable, LambdaVerdict,
                                  Status, _BLOCK, _frontier_stream,
                                  _least_thm25ii, _thm25i_fires,
                                  _thm25ii_fires, certificate_checks,
                                  frontier_csv, frontier_json, frontier_table,
                                  is_power_of_two, verdict)
from oracles import carry_free_composition, least_thm25ii_by_loop


@functools.cache  # the scans ask the same (d0, j, k) many times
def _thm1_fires_by_search(d0, j, k):
    return carry_free_composition(j, k, d0) is not None


def _verdict_by_scan(d, j, k):
    """The JSON of the engine before its closed forms: each criterion
    scanned over d0 = 1..d with its own a and ell, THM1 decided by the
    composition search.  It shares no code with the verdict records."""
    head = {"d": d, "j": j, "k": k}
    if d * k < j:
        return {**head, "status": "NOT_IN",
                "certificate": {"kind": MOMENT_CURVE_NECESSITY}}
    if k == 1:
        return {**head, "status": "IN",
                "certificate": {"kind": HAM_SANDWICH}, "witness_d0": j}

    def certified(kind, d0, **params):
        return {**head, "status": "IN",
                "certificate": {"kind": kind, "d0": d0, **params},
                "witness_d0": d0}

    for d0 in range(1, d + 1):
        for a in range(d0.bit_length()):
            if d0 == 2 ** a and j == d0 * k:
                return certified(THM25_I, d0, a=a)
    for d0 in range(1, d + 1):
        for a in range(1, d0.bit_length()):
            ell = d0 - 2 ** a
            if (k >= 3 and k % 2 == 1 and 1 <= ell <= 2 ** a - 1
                    and j == 2 ** a * k + ell):
                return certified(THM25_II, d0, a=a, ell=ell)
    for d0 in range(1, d + 1):
        if _thm1_fires_by_search(d0, j, k):
            return certified(THM1_IDEAL, d0)
    return {**head, "status": "UNKNOWN", "certificate": {"kind": NONE}}


def _first_d(fires, bound):
    return next((d for d in range(1, bound + 1) if fires(d)), None)


def _frontier_by_scan(k, j_max):
    """Frontier rows from scans of d = 1..4j for every criterion."""
    rows = []
    for j in range(1, j_max + 1):
        bound = 4 * j
        rows.append(FrontierRow(
            j=j,
            d_conjecture=math.ceil(j / k),
            d_thm1=_first_d(lambda d: _thm1_fires_by_search(d, j, k), bound),
            d_thm25i=_first_d(lambda d: _thm25i_fires(d, j, k), bound),
            d_thm25ii=_first_d(lambda d: _thm25ii_fires(d, j, k), bound),
        ))
    return FrontierTable(k=k, j_max=j_max, rows=tuple(rows))


def test_power_of_two_helper():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


def test_verdict_examples():
    v = verdict(2, 4, 2)
    assert v.status is Status.IN
    assert v.certificate == Certificate(THM25_I, d0=2)
    out = v.to_jsonable()
    assert out["certificate"] == {"kind": THM25_I, "d0": 2, "a": 1}
    assert out["witness_d0"] == 2

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
                assert v.certificate == Certificate(HAM_SANDWICH)
                assert v.to_jsonable()["witness_d0"] == j
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
                w = v.to_jsonable().get("witness_d0")
                assert (w is not None) == (v.status is Status.IN)
                if w is not None:
                    assert 1 <= w <= d and w == v.certificate.d0
                    # the same certificate from w on, and not below it
                    assert verdict(w, j, k).certificate == v.certificate
                    assert (w == 1 or verdict(w - 1, j, k).certificate
                            != v.certificate)


def test_preference_order():
    # at (4, 4, 2) both THM25_I (d0=2) and THM1_IDEAL (d0=4) apply
    v = verdict(4, 4, 2)
    assert v.certificate == Certificate(THM25_I, d0=2)
    assert str(v.certificate) == "THM25_I(d0=2, a=1)"
    # at (4, 7, 3) both THM25_II (d0=3) and THM1_IDEAL (d0=4) apply
    v = verdict(4, 7, 3)
    assert v.certificate == Certificate(THM25_II, d0=3)
    assert str(v.certificate) == "THM25_II(d0=3, a=1, ell=1)"
    # THM1 wins only when nothing else fires: k=2 rules out THM25_II,
    # j=3 is not k * power-of-two, so (2, 3, 2) must be THM1
    v = verdict(2, 3, 2)
    assert v.status is Status.IN
    assert v.certificate == Certificate(THM1_IDEAL, d0=2)


def test_certificate_rendering():
    # a and ell are read off d0 = 2^a + ell, 2^a its top bit
    assert str(Certificate(THM25_II, d0=3)) == "THM25_II(d0=3, a=1, ell=1)"
    assert str(Certificate(THM25_II, d0=13)) == "THM25_II(d0=13, a=3, ell=5)"
    assert str(Certificate(THM25_I, d0=8)) == "THM25_I(d0=8, a=3)"
    assert str(Certificate(THM1_IDEAL, d0=6)) == "THM1_IDEAL(d0=6)"
    assert Certificate(THM25_II, d0=13).to_jsonable() == {
        "kind": THM25_II, "d0": 13, "a": 3, "ell": 5}
    assert str(Certificate(HAM_SANDWICH)) == "HAM_SANDWICH"
    # a THM25 certificate without d0 renders as its kind alone
    for kind in (THM25_I, THM25_II):
        assert str(Certificate(kind)) == kind
        assert Certificate(kind).to_jsonable() == {"kind": kind}
    with pytest.raises(ValueError):
        Certificate("THM99")
    for d0 in (0, -3):
        with pytest.raises(ValueError, match="need d0 >= 1"):
            Certificate(THM25_II, d0=d0)


@pytest.mark.parametrize("status, certificate, d", [
    (Status.NOT_IN, Certificate(NONE), 1),               # wrong kind
    (Status.NOT_IN, Certificate(MOMENT_CURVE_NECESSITY), 2),  # d*k = j
    (Status.NOT_IN, Certificate(MOMENT_CURVE_NECESSITY), 3),  # d*k > j
    (Status.UNKNOWN, Certificate(MOMENT_CURVE_NECESSITY), 1),
    (Status.UNKNOWN, Certificate(THM1_IDEAL, d0=2), 2),
])
def test_verdict_record_rejects_inconsistent_status(status, certificate, d):
    # raised, not asserted, so the check holds under python -O too
    with pytest.raises(ValueError):
        LambdaVerdict(d, 4, 2, status, certificate)


@pytest.mark.parametrize("cell", ["d_thm1", "d_thm25i", "d_thm25ii"])
def test_frontier_row_rejects_a_cell_below_the_floor(cell):
    cells = dict(d_thm1=None, d_thm25i=None, d_thm25ii=None)
    FrontierRow(j=7, d_conjecture=3, **{**cells, cell: 3})
    with pytest.raises(ValueError):
        FrontierRow(j=7, d_conjecture=3, **{**cells, cell: 2})


def test_records_take_replace_and_copy():
    # the benchmark's checks build corrupted records this way, so the
    # records stay dataclasses whose fields can be set on a copy
    table = frontier_table(2, 8)
    row = dataclasses.replace(table.rows[2], d_thm1=table.rows[2].d_thm1 + 1)
    assert row.d_thm1 == table.rows[2].d_thm1 + 1 and row.j == 3
    other = dataclasses.replace(table, rows=(row,))
    assert other.rows == (row,) and other.k == table.k
    v = verdict(2, 4, 2)
    bad = copy.copy(v)
    object.__setattr__(bad, "status", Status.NOT_IN)
    assert bad.status is Status.NOT_IN and v.status is Status.IN
    assert bad.certificate == v.certificate and not certificate_checks(bad)


def _tampered(triple, cert=None, **fields):
    """verdict(*triple) with the certificate's fields in cert and the
    verdict's own fields replaced."""
    v = verdict(*triple)
    assert v.status is Status.IN and certificate_checks(v)
    if cert:
        fields["certificate"] = dataclasses.replace(v.certificate, **cert)
    return dataclasses.replace(v, **fields)


@pytest.mark.parametrize("triple, cert, fields", [
    ((2, 4, 2), {"d0": None}, {}),                # THM25_I without d0
    ((2, 3, 2), {"d0": None}, {}),                # THM1_IDEAL without d0
    ((2, 4, 2), None, {"d": 1}),                  # d0 = 2 > d
    ((3, 7, 3), None, {"d": 2}),                  # d0 = 3 > d
    ((2, 3, 2), None, {"d": 1}),                  # d0 = 2 > d
    # 3 is no power of two
    ((5, 4, 2), None, {"certificate": Certificate(THM25_I, d0=3)}),
    ((5, 4, 2), None, {"certificate": Certificate(THM25_I)}),
    ((4, 4, 2), {"d0": 4}, {}),                   # a = 2: j != 4k
    ((3, 7, 3), {"d0": None}, {}),                # THM25_II without d0
    ((5, 7, 3), {"d0": 5}, {}),                   # a = 2, ell = 1: j != 13
    ((4, 7, 3), {"d0": 4}, {}),                   # a = 2, ell = 0
    ((3, 7, 3), {"d0": 2}, {}),                   # a = 1, ell = 0
    ((2, 3, 2), {"d0": 1}, {}),                   # THM1 does not fire at 1
    # HAM_SANDWICH names no d0, not even j
    ((3, 2, 1), None, {"certificate": Certificate(HAM_SANDWICH, d0=3)}),
    ((3, 2, 1), {"d0": 2}, {}),
])
def test_certificate_checks_rejects_a_tampered_in_verdict(triple, cert,
                                                          fields):
    assert not certificate_checks(_tampered(triple, cert, **fields))


def test_certificate_checks_rejects_an_unknown_kind():
    v = verdict(2, 4, 2)
    cert = copy.copy(v.certificate)
    object.__setattr__(cert, "kind", "THM99")
    bad = dataclasses.replace(v, certificate=cert)
    assert bad.status is Status.IN and not certificate_checks(bad)


@pytest.mark.parametrize("d, j, k", [
    (4.5, 8, 2), (4, 8.0, 2), (4, 8, 2.0), (np.int64(4), 8, 2), (4, True, 1),
])
def test_certificate_checks_rejects_a_triple_that_is_not_plain_ints(d, j, k):
    # LambdaVerdict(4.5, 8, 2, IN, THM25_I(d0=4)) used to check out
    v = LambdaVerdict(d, j, k, Status.IN, Certificate(THM25_I, 4))
    assert not certificate_checks(v)
    assert certificate_checks(LambdaVerdict(4, 8, 2, Status.IN,
                                            Certificate(THM25_I, 4)))


@pytest.mark.parametrize("d0", [4.0, 2.5, np.int64(4), True])
def test_certificate_checks_rejects_a_d0_that_is_not_a_plain_int(d0):
    v = verdict(4, 8, 2)
    assert v.certificate == Certificate(THM25_I, 4) and certificate_checks(v)
    v.certificate.d0 = d0
    assert not certificate_checks(v)


@pytest.mark.parametrize("args, message", [
    ((0, 5), "need k >= 1, got 0"),
    ((2, 0), "need j_max >= 1, got 0"),
])
@pytest.mark.parametrize("build", [
    frontier_table,
    # the streamed text refuses them when called, before any text
    lambda k, j_max: _frontier_stream(k, j_max, "csv"),
], ids=["table", "stream"])
def test_frontier_table_rejects_bad_arguments(args, message, build):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*args)


def test_verdict_rejects_bad_triples():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            verdict(*bad)


@pytest.mark.parametrize("triple", [
    (2.5, 4, 2), (2.0, 4, 2), (2, 4.0, 2), (2, 4, Fraction(2)),
    (2, 4, "2"), (np.float64(2.0), 4, 2), (True, 1, 1), (1, True, 1),
    (3, 4, False), (np.bool_(True), 1, 1),
])
def test_verdict_refuses_bools_and_non_integers(triple):
    # 2.5 passed as d used to give IN THM25_I(d0=2), and certificate_checks
    # passed it; True printed as "d": true
    with pytest.raises(ValueError, match="must be an integer"):
        verdict(*triple)


class _Two(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("triple", [
    (np.int64(2), 4, 2), (2, np.int32(4), 2), (2, 4, np.uint8(2)),
    (_Two.TWO, 4, _Two.TWO), (np.int64(7), np.int64(129), np.int64(3)),
])
def test_verdict_stores_integer_like_values_as_ints(triple):
    # a numpy integer used to reach the JSON, which json.dumps refused
    v = verdict(*triple)
    assert [type(x) for x in (v.d, v.j, v.k)] == [int, int, int]
    want = verdict(*map(int, triple))
    assert v == want and str(v) == str(want)
    assert json.dumps(v.to_jsonable()) == json.dumps(want.to_jsonable())
    assert certificate_checks(v)


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


def test_json_keys_are_k_j_max_and_rows():
    data = json.loads(frontier_json(frontier_table(2, 4)))
    assert list(data) == ["k", "j_max", "rows"]


@pytest.mark.parametrize("j_max", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_frontier_text_is_that_of_json_dumps_and_joined_cells(j_max):
    # rows are formatted in blocks of _BLOCK, and the text must not show
    # where a block ends; the CLI streams the same text without a table
    table = frontier_table(3, j_max)
    cells = (("" if x is None else str(x) for x in dataclasses.astuple(r))
             for r in table.rows)
    csv = "".join(["j,d_conjecture,d_thm1,d_thm25i,d_thm25ii\n",
                   *(",".join(row) + "\n" for row in cells)])
    payload = {"k": 3, "j_max": j_max,
               "rows": [dataclasses.asdict(r) for r in table.rows]}
    assert frontier_csv(table) == csv
    assert frontier_json(table) == json.dumps(payload, indent=2) + "\n"
    assert "".join(_frontier_stream(3, j_max, "csv")) == csv
    assert "".join(_frontier_stream(np.int64(3), j_max, "json")) \
        == frontier_json(table)


def test_frontier_text_of_a_table_without_rows():
    table = FrontierTable(2, 0, ())
    assert frontier_csv(table) == "j,d_conjecture,d_thm1,d_thm25i,d_thm25ii\n"
    assert frontier_json(table) == json.dumps(
        {"k": 2, "j_max": 0, "rows": []}, indent=2) + "\n"


def test_frontier_json_of_numpy_arguments_is_that_of_ints():
    # a numpy j_max used to reach json.dumps, which refused it
    table = frontier_table(np.int64(2), np.int64(3))
    assert type(table.k) is type(table.j_max) is int
    assert frontier_json(table) == frontier_json(frontier_table(2, 3))


def test_verdict_matches_the_scan():
    for k in range(1, 7):
        for j in range(1, 65):
            for d in range(1, 2 * j + 2):
                v = verdict(d, j, k)
                # key order too: the CLI prints these dicts as they are
                assert (json.dumps(v.to_jsonable())
                        == json.dumps(_verdict_by_scan(d, j, k)))
                assert certificate_checks(v)


def test_frontier_matches_the_scan():
    for k in range(1, 7):
        table = frontier_table(k, 64)
        expect = _frontier_by_scan(k, 64)
        assert table == expect
        assert frontier_csv(table) == frontier_csv(expect)
        assert frontier_json(table) == frontier_json(expect)
        # every least d0 is at most j, inside the scan's 4j
        assert all(dd is None or dd <= r.j for r in table.rows
                   for dd in (r.d_thm1, r.d_thm25i, r.d_thm25ii))


def _thm25ii_matches_the_loop(j, k):
    """The closed form's d0, and the a and ell the verdict at d0 prints,
    are the loop oracle's (d0, a, ell)."""
    want = least_thm25ii_by_loop(j, k)
    d0 = _least_thm25ii(j, k)
    if want is None:
        return d0 is None
    cert = verdict(d0, j, k).to_jsonable()["certificate"]
    return d0 == want[0] and cert == {"kind": THM25_II, "d0": want[0],
                                      "a": want[1], "ell": want[2]}


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
        assert _thm25ii_matches_the_loop(j, k)
    for k in range(1, 16):
        for j in range(1, 400):
            assert _thm25ii_matches_the_loop(j, k)
            want = least_thm25ii_by_loop(j, k)
            # the least d0 at which the criterion's own re-derivation fires
            scan = _first_d(lambda d0: _thm25ii_fires(d0, j, k), j)
            assert scan == (None if want is None else want[0])
