"""Acceptance suite: ten end-to-end checks, one printed PASS/FAIL line each.

Each check prints a single line `criterion N: PASS/FAIL (...)` with the
measured numbers before asserting, so the full scorecard is visible in any
run.  Criterion 3 checks the anchored-block parity against big integers and
against a two-branch closed form: for k >= 3 the count is odd iff k is odd
and d - ell is a power of two; at k = 2 the k - 1 remaining items form a
single block, the count is C(2d - ell, d), and it is odd iff d and d - ell
share no binary digit.  The scorecard line prints the five k = 2 tuples of
the sweep whose count is odd.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time

import numpy as np
import pytest

from hyperbisect import (DiscreteMeasure, GroupElement, JoinPoint, Parity,
                         SolverConfig, Status, act_on_join, act_on_target,
                         anchored_blocks_parity, count_bisections,
                         enumerate_bisections, equal_blocks_parity,
                         ideal_member, phi, psi, solve_bisection, verdict,
                         verify_bisection, well_separated_family)
from hyperbisect.cli import main as cli_main
from oracles import carry_free_composition, ideal_member_by_expansion

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

COUNT_LAW_TUPLES = ((1, 2, 0), (2, 2, 0), (1, 3, 0), (2, 3, 0),
                    (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1))


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _multinomial(n, parts):
    r = math.factorial(n)
    for q in parts:
        r //= math.factorial(q)
    return r


def test_criterion_01_odd_binomial_family(capsys):
    # the k=2 ideal-membership test must fail (i.e. certify bisection) for
    # the family d = 2^(m-1), j = 2^m - 1, where C(j, d) is odd
    start = time.perf_counter()
    results = []
    for m in range(1, 6):
        d, j = 2 ** (m - 1), 2 ** m - 1
        code, out = _run_cli(["ideal", "member", str(d), str(j), "2"])
        cli_not_member = code == 0 and "member=false" in out
        lib_not_member = not ideal_member(j, 2, d)
        results.append((d, j, cli_not_member and lib_not_member))
    elapsed = time.perf_counter() - start
    ok = all(r[2] for r in results) and elapsed < 1.0
    _report(capsys, 1, ok,
            f"5/5 families NOT member via CLI and library, {elapsed:.3f}s < 1s")
    assert all(r[2] for r in results), results
    assert elapsed < 1.0


def test_criterion_02_equal_blocks_parity_exhaustive(capsys):
    start = time.perf_counter()
    checked = mismatches = 0
    for d in range(1, 17):
        for k in range(2, 9):
            odd = equal_blocks_parity(d, k) is Parity.ODD
            big = (_multinomial(d * k, [d] * k) // math.factorial(k)) % 2 == 1
            rule = d in (1, 2, 4, 8, 16)
            checked += 1
            if odd != big or odd != rule:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _report(capsys, 2, ok,
            f"{checked - mismatches}/{checked} tuples agree with big integers "
            f"and the power-of-two rule, {elapsed:.3f}s < 5s")
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_03_anchored_parity_exhaustive(capsys):
    # The library must agree with big-integer arithmetic on every tuple, and
    # with a closed form written from d, k and ell alone.  For k >= 3 (where
    # ell < d - ell in this sweep) the count is odd iff k is odd and d - ell
    # is a power of two: by Kummer's theorem C(mk + ell, m + ell) with
    # m = 2^a is odd iff k is odd, and the block factor is odd iff m is a
    # power of two.  At k = 2 there is a single remaining block, the second
    # factor is identically 1, and the count C(2d - ell, d) is odd iff d and
    # d - ell add without a binary carry.
    start = time.perf_counter()
    checked = big_mismatch = 0
    closed_form_violations = []
    k2_odd = []
    for d in range(1, 13):
        for k in range(2, 8):
            for ell in range(1, (d - 1) // 2 + 1):
                count = (math.comb((d - ell) * k + ell, d)
                         * (_multinomial((d - ell) * (k - 1),
                                         [d - ell] * (k - 1))
                            // math.factorial(k - 1)))
                odd = anchored_blocks_parity(d, k, ell) is Parity.ODD
                checked += 1
                if odd != (count % 2 == 1):
                    big_mismatch += 1
                dm = d - ell
                if k == 2:
                    rule = (d & dm) == 0
                    if count % 2 == 1:
                        k2_odd.append((d, k, ell, count))
                else:
                    rule = (k % 2 == 1) and dm >= 2 and (dm & (dm - 1) == 0)
                if odd != rule:
                    closed_form_violations.append((d, k, ell, count))
    elapsed = time.perf_counter() - start
    ok = big_mismatch == 0 and not closed_form_violations and elapsed < 10.0
    _report(capsys, 3, ok,
            f"big-integer agreement {checked - big_mismatch}/{checked}; "
            f"closed-form agreement "
            f"{checked - len(closed_form_violations)}/{checked}; "
            f"k=2 odd counts at {[(v[0], v[1], v[2]) for v in k2_odd]} "
            f"= {[v[3] for v in k2_odd]}; "
            f"{elapsed:.3f}s < 10s")
    assert big_mismatch == 0
    assert elapsed < 10.0
    assert not closed_form_violations, (
        f"closed form disagrees with the library at {closed_form_violations}")


def test_criterion_04_membership_oracle_equivalence(capsys):
    start = time.perf_counter()
    checked = disagreements = members = 0
    for j in range(1, 21):
        for k in range(1, 5):
            for d in range(1, 7):
                fast = ideal_member(j, k, d)
                slow = ideal_member_by_expansion(j, k, d)
                search = carry_free_composition(j, k, d) is None
                checked += 1
                members += fast
                if not fast == slow == search:
                    disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0
    _report(capsys, 4, ok,
            f"closed form, expansion and composition search agree on "
            f"{checked - disagreements}/{checked} triples "
            f"({members} members), {elapsed:.3f}s < 30s")
    assert disagreements == 0
    assert elapsed < 30.0


def test_criterion_05_count_law(capsys):
    start = time.perf_counter()
    lines = []
    all_ok = True
    for d, k, ell in COUNT_LAW_TUPLES:
        fam = well_separated_family(d, k, ell)
        arrs = enumerate_bisections(fam, k)
        expected = count_bisections(d, k, ell)
        verified = sum(verify_bisection(a, fam) for a in arrs)
        good = len(arrs) == expected and verified == len(arrs)
        all_ok = all_ok and good
        lines.append(f"({d},{k},{ell})={len(arrs)}/{expected}")
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 60.0
    _report(capsys, 5, ok,
            f"enumerated/expected {' '.join(lines)}, all re-verified exactly, "
            f"{elapsed:.3f}s < 60s")
    assert all_ok
    assert elapsed < 60.0


def test_criterion_06_parity_bridge(capsys):
    agreements = []
    for d, k, ell in COUNT_LAW_TUPLES:
        count_parity = count_bisections(d, k, ell) % 2
        if ell == 0:
            blocks = equal_blocks_parity(d, k)
        else:
            blocks = anchored_blocks_parity(d, k, ell)
        agreements.append(count_parity == (1 if blocks is Parity.ODD else 0))
    ok = all(agreements)
    _report(capsys, 6, ok,
            f"count parity matches block parity on {sum(agreements)}/"
            f"{len(agreements)} tuples")
    assert ok


def test_criterion_07_frontier_reproduction(capsys):
    with open(os.path.join(DATA_DIR, "frontier_k2_j40.csv"), "rb") as fh:
        golden = fh.read()
    code, out = _run_cli(["lambda", "table", "--k", "2", "--jmax", "40",
                          "--format", "csv"])
    bytes_equal = code == 0 and out.encode() == golden
    rows = list(csv.DictReader(io.StringIO(out)))
    structure_ok = len(rows) == 40
    for r in rows:
        j = int(r["j"])
        structure_ok &= int(r["d_conjecture"]) == math.ceil(j / 2)
        half = j // 2
        if j % 2 == 0 and half & (half - 1) == 0:
            structure_ok &= r["d_thm25i"] == str(half)
        if j + 1 & j == 0:  # j = 2^m - 1
            structure_ok &= r["d_thm1"] == str((j + 1) // 2)
    ok = bytes_equal and structure_ok
    _report(capsys, 7, ok,
            f"40-row table byte-identical to golden file: {bytes_equal}; "
            f"conjecture/power-of-two/odd-j structure: {structure_ok}")
    assert bytes_equal
    assert structure_ok


def test_criterion_08_equivariance_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    max_phi = max_psi = 0.0
    zero_lambda_checked = 0
    zero_lambda_exact = True
    for trial in range(1000):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        j = int(rng.integers(1, 5))
        ms = [DiscreteMeasure(rng.normal(size=(10, d)) * 3,
                              rng.uniform(0.5, 2.0, 10)) for _ in range(j)]
        W = rng.normal(size=(k, d + 1))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        g = GroupElement(tuple(int(s) for s in rng.integers(0, 2, k)),
                         tuple(int(i) for i in rng.permutation(k)))
        inv = g.inverse_permutation()
        gW = np.array([(-1.0) ** g.signs[i] * W[inv[i]] for i in range(k)])
        sign = -1.0 if sum(g.signs) % 2 else 1.0
        max_phi = max(max_phi,
                      float(np.max(np.abs(phi(ms, gW) - sign * phi(ms, W)))))

        lam = rng.uniform(0.05, 1.0, k)
        if k >= 2 and trial % 5 == 0:
            lam[int(rng.integers(0, k))] = 0.0
        lam /= lam.sum()
        jp = JoinPoint(tuple(lam), tuple(map(tuple, W)))
        w_lhs, v_lhs = psi(ms, act_on_join(g, jp))
        w_rhs, v_rhs = act_on_target(g, *psi(ms, jp))
        max_psi = max(max_psi, float(np.max(np.abs(w_lhs - w_rhs))),
                      float(np.max(np.abs(v_lhs - v_rhs))))
        if any(l == 0.0 for l in lam):
            zero_lambda_checked += 1
            _, v = psi(ms, jp)
            zero_lambda_exact &= bool(np.all(v == 0.0))
    elapsed = time.perf_counter() - start
    ok = (max_phi <= 1e-12 and max_psi <= 1e-12 and zero_lambda_exact
          and elapsed < 10.0)
    _report(capsys, 8, ok,
            f"1000 triples: max phi dev {max_phi:.2e}, max psi dev "
            f"{max_psi:.2e} (tol 1e-12); {zero_lambda_checked} zero-lambda "
            f"cases exactly zero: {zero_lambda_exact}; {elapsed:.2f}s < 10s")
    assert max_phi <= 1e-12
    assert max_psi <= 1e-12
    assert zero_lambda_exact
    assert elapsed < 10.0


def _disk_sample(rng, center, n=200, radius=1.0):
    r = radius * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.stack([center[0] + r * np.cos(theta),
                    center[1] + r * np.sin(theta)], axis=1)
    return DiscreteMeasure(pts, np.full(n, 1.0))


def test_criterion_09_solver_at_desk_scale(capsys):
    centers = ((0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0))
    successes = 0
    worst_imbalance = 0.0
    max_elapsed = 0.0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        ms = [_disk_sample(rng, c) for c in centers]
        start = time.perf_counter()
        res = solve_bisection(ms, 2, SolverConfig(seed=i))
        elapsed = time.perf_counter() - start
        max_elapsed = max(max_elapsed, elapsed)
        if res.success and float(np.max(res.relative_imbalances)) <= 0.01:
            successes += 1
            worst_imbalance = max(worst_imbalance,
                                  float(np.max(res.relative_imbalances)))
        assert elapsed <= 10.0, f"instance {i} took {elapsed:.2f}s"
    ok = successes >= 18
    _report(capsys, 9, ok,
            f"{successes}/20 instances bisected within 1% (worst success "
            f"imbalance {worst_imbalance:.4f}), slowest run "
            f"{max_elapsed:.2f}s <= 10s")
    assert successes >= 18


def test_criterion_10_infeasible_inputs(capsys):
    code, out = _run_cli(["lambda", "check", "1", "3", "2"])
    verdict_not_in = code == 0 and "NOT_IN" in out
    lib = verdict(1, 3, 2)
    verdict_not_in &= lib.status is Status.NOT_IN

    # three unit-atom pairs on a line: any two cut points trap both middle
    # atoms on one side, so no 2-point arrangement can bisect all three
    ms = [DiscreteMeasure(np.array([[0.0], [1.0]]), np.full(2, 1.0)),
          DiscreteMeasure(np.array([[10.0], [11.0]]), np.full(2, 1.0)),
          DiscreteMeasure(np.array([[20.0], [21.0]]), np.full(2, 1.0))]
    start = time.perf_counter()
    res = solve_bisection(ms, 2, SolverConfig(seed=0))
    elapsed = time.perf_counter() - start
    solver_not_found = res.status == "NOT_FOUND" and not res.success
    ok = verdict_not_in and solver_not_found and elapsed <= 10.0
    _report(capsys, 10, ok,
            f"lambda check 1 3 2 -> NOT_IN ({lib.certificate}); solver on 3 "
            f"spread-out 1-D measures -> {res.status} after "
            f"{res.restarts_used} restarts in {elapsed:.2f}s <= 10s")
    assert verdict_not_in
    assert solver_not_found
    assert elapsed <= 10.0
