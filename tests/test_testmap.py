"""Sphere dictionary, equivariant maps, group actions, numerical solver."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hyperbisect.testmap import (AtInfinityError, DiscreteMeasure,
                                 GroupElement, JoinPoint, MeasureOverflowError,
                                 SolveResult, SolverConfig,
                                 act_on_join, act_on_target, boundary_mass,
                                 interval_quadrature_measures,
                                 measures_from_jsonable, phi, psi,
                                 solve_bisection, sphere_to_hyperplane)
from hyperbisect.momentcurve import (enumerate_bisections,
                                     well_separated_family)
from hyperbisect import testmap
from oracles import (LoneRun, LoneRuns, centred_lifted, hard_worst,
                     hyperplane_to_sphere_point, measures_to_jsonable,
                     restart_alone, sequential_restarts, signed_products,
                     solve_bisection_by_race, solve_bisection_sequentially,
                     stop)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _random_measures(rng, j, d, n=25):
    return [DiscreteMeasure(rng.normal(size=(n, d)) * 3,
                            rng.uniform(0.5, 2.0, n)) for _ in range(j)]


def _random_directions(rng, k, d):
    W = rng.normal(size=(k, d + 1))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _random_group_element(rng, k):
    return GroupElement(tuple(int(s) for s in rng.integers(0, 2, k)),
                        tuple(int(i) for i in rng.permutation(k)))


def test_sphere_to_hyperplane_example():
    d = 3
    w = np.zeros(d + 1)
    w[d - 1], w[d] = 1.0, -1.0
    h = sphere_to_hyperplane(_unit(w))
    # the hyperplane x_d = 1, oriented so larger x_d is positive
    assert h.value((0.0, 0.0, 1.0)) == pytest.approx(0.0)
    assert h.value((5.0, -2.0, 1.0)) == pytest.approx(0.0)
    assert h.value((0.0, 0.0, 2.0)) > 0
    assert h.value((0.0, 0.0, 0.0)) < 0


def test_sphere_poles_are_at_infinity():
    for pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 1.0]):
        with pytest.raises(AtInfinityError):
            sphere_to_hyperplane(np.array(pole))
    # a solver result carrying a pole has no arrangement either
    res = SolveResult(status="SUCCESS",
                      directions=np.array([[0.6, 0.8], [0.0, 1.0]]),
                      imbalances=np.zeros(1), relative_imbalances=np.zeros(1),
                      restarts_used=1, seed=0)
    with pytest.raises(AtInfinityError):
        res.arrangement()


def test_sphere_to_hyperplane_wants_unit_vectors():
    with pytest.raises(ValueError):
        sphere_to_hyperplane(np.array([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("build", [
    lambda: sphere_to_hyperplane([math.nan, 0.0, 1.0]),
    lambda: JoinPoint((1.0,), ((math.nan, 1.0),)),
    lambda: JoinPoint((math.nan,), ((0.0, 1.0),)),
    lambda: phi([DiscreteMeasure(np.ones((2, 1)), np.ones(2))],
                [[math.nan, 1.0]]),
    lambda: boundary_mass([DiscreteMeasure(np.ones((2, 1)), np.ones(2))],
                          [[math.inf, 1.0]]),
], ids=["NaN sphere point", "NaN join direction", "NaN join weight",
        "NaN phi direction", "infinite boundary_mass direction"])
def test_non_finite_directions_are_refused(build):
    # NaN compares False, so each check is written to fail on it
    with pytest.raises(ValueError):
        build()


def test_sphere_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = _unit(rng.normal(size=4))
        h = sphere_to_hyperplane(w)
        assert np.allclose(hyperplane_to_sphere_point(h), w, atol=1e-12)


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))
    m = DiscreteMeasure(np.ones((3, 2)), np.array([1.0, 2.0, 3.0]))
    assert m.total == pytest.approx(6.0)


def test_measure_refuses_zero_dimensional_points():
    # solve_bisection used to raise a misleading AtInfinityError on them
    with pytest.raises(ValueError, match=r"^points must be \(n, d >= 1\)"):
        DiscreteMeasure(np.zeros((3, 0)), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_non_finite_input(bad):
    points = np.ones((3, 2))
    points[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(points, np.ones(3))
    weights = np.ones(3)
    weights[2] = bad
    with pytest.raises(ValueError):
        DiscreteMeasure(np.ones((3, 2)), weights)


def test_phi_balanced_and_boundary():
    m = DiscreteMeasure(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 5.0]]),
                        np.array([1.0, 1.0, 7.0]))
    dirs = np.array([[1.0, 0.0, 0.0]])  # hyperplane x_1 = 0
    # the third point sits exactly on the hyperplane: sign 0
    assert phi([m], dirs)[0] == pytest.approx(0.0)
    assert boundary_mass([m], dirs)[0] == pytest.approx(7.0)


def test_phi_counts_signed_mass():
    m = DiscreteMeasure(np.array([[2.0], [3.0], [-1.0]]),
                        np.array([1.0, 1.0, 1.0]))
    dirs = np.array([_unit([1.0, 0.0])])  # hyperplane x = 0
    assert phi([m], dirs)[0] == pytest.approx(1.0)  # 2 right, 1 left


@pytest.mark.parametrize("fn", [phi, boundary_mass])
def test_phi_and_boundary_mass_validate_measures(fn):
    with pytest.raises(ValueError, match="at least one measure"):
        fn([], np.array([[1.0, 0.0, 0.0]]))
    mixed = [DiscreteMeasure(np.ones((2, 2)), np.ones(2)),
             DiscreteMeasure(np.ones((2, 3)), np.ones(2))]
    with pytest.raises(ValueError, match="mixed dimension"):
        fn(mixed, np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="at least one direction"):
        fn(mixed[:1], np.zeros((0, 3)))


def test_phi_rejects_poles():
    m = DiscreteMeasure(np.zeros((1, 2)) + 1.0, np.array([1.0]))
    with pytest.raises(AtInfinityError):
        phi([m], np.array([[0.0, 0.0, 1.0]]))


def test_psi_degenerate_face_is_exactly_zero():
    rng = np.random.default_rng(1)
    ms = _random_measures(rng, j=3, d=2)
    # second direction is a pole, but lambda_2 = 0 must shield it
    jp = JoinPoint((1.0, 0.0), (tuple(_unit([1.0, 2.0, 0.5])),
                                (0.0, 0.0, 1.0)))
    w_part, v_part = psi(ms, jp)
    assert np.array_equal(w_part, np.array([0.5, -0.5]))
    assert np.all(v_part == 0.0)


def test_psi_interior_matches_scaled_phi():
    rng = np.random.default_rng(2)
    ms = _random_measures(rng, j=2, d=2)
    W = _random_directions(rng, 2, 2)
    jp = JoinPoint((0.25, 0.75), tuple(map(tuple, W)))
    w_part, v_part = psi(ms, jp)
    assert np.allclose(w_part, [-0.25, 0.25])
    assert np.allclose(v_part, 0.25 * 0.75 * phi(ms, W))


def test_join_point_validation():
    good = tuple(_unit([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        JoinPoint((0.5, 0.6), (good, good))      # weights sum past 1
    with pytest.raises(ValueError):
        JoinPoint((1.5, -0.5), (good, good))     # negative weight
    with pytest.raises(ValueError):
        JoinPoint((0.5, 0.5), (good, (1.0, 1.0, 1.0)))  # not unit


def test_join_point_refuses_directions_of_unequal_length():
    # psi used to fail deep inside numpy with an inhomogeneous shape
    good = tuple(_unit([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="^directions must have equal length$"):
        JoinPoint((0.5, 0.5), (good, (0.6, 0.8)))


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement((0, 2), (0, 1))
    with pytest.raises(ValueError):
        GroupElement((0, 0), (0, 0))
    e = GroupElement.identity(3)
    assert e.permutation == (0, 1, 2)


def test_act_on_join_explicit():
    w1, w2 = tuple(_unit([1.0, 0.0, 0.0])), tuple(_unit([0.0, 1.0, 1.0]))
    jp = JoinPoint((0.3, 0.7), (w1, w2))
    # pure flip of the first slot
    flipped = act_on_join(GroupElement((1, 0), (0, 1)), jp)
    assert flipped.lambdas == (0.3, 0.7)
    assert flipped.directions[0] == tuple(-c for c in w1)
    assert flipped.directions[1] == w2
    # pure swap
    swapped = act_on_join(GroupElement((0, 0), (1, 0)), jp)
    assert swapped.lambdas == (0.7, 0.3)
    assert swapped.directions == (w2, w1)


def test_act_on_target_explicit():
    g = GroupElement((1, 0), (1, 0))   # swap and flip slot 1
    w_part, v_part = act_on_target(g, np.array([0.1, -0.1]),
                                   np.array([1.0, 2.0]))
    assert np.array_equal(w_part, np.array([-0.1, 0.1]))
    assert np.array_equal(v_part, np.array([-1.0, -2.0]))


def test_group_action_composition_law():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        jp = JoinPoint(tuple(np.full(k, 1.0 / k)),
                       tuple(map(tuple, _random_directions(rng, k, 3))))
        g1, g2 = _random_group_element(rng, k), _random_group_element(rng, k)
        lhs = act_on_join(g1, act_on_join(g2, jp))
        rhs = act_on_join(g1.compose(g2), jp)
        assert lhs.lambdas == rhs.lambdas
        assert lhs.directions == rhs.directions


def test_phi_equivariance_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        ms = _random_measures(rng, j, d, n=10)
        W = _random_directions(rng, k, d)
        g = _random_group_element(rng, k)
        inv = g.inverse_permutation()
        gW = np.array([(-1.0) ** g.signs[i] * W[inv[i]] for i in range(k)])
        lhs = phi(ms, gW)
        sign = -1.0 if sum(g.signs) % 2 else 1.0
        assert np.max(np.abs(lhs - sign * phi(ms, W))) <= 1e-12


def test_psi_equivariance_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        ms = _random_measures(rng, j, d, n=10)
        lam = rng.uniform(0.05, 1.0, k)
        lam /= lam.sum()
        jp = JoinPoint(tuple(lam),
                       tuple(map(tuple, _random_directions(rng, k, d))))
        g = _random_group_element(rng, k)
        w_lhs, v_lhs = psi(ms, act_on_join(g, jp))
        w_rhs, v_rhs = act_on_target(g, *psi(ms, jp))
        assert np.max(np.abs(w_lhs - w_rhs)) <= 1e-12
        assert np.max(np.abs(v_lhs - v_rhs)) <= 1e-12


def test_exact_arrangements_are_numerical_zeros():
    # discretize the interval measures; the enumerated bisections must
    # drive phi to zero at rate 1/n
    fam = well_separated_family(2, 2, 0)
    arrs = enumerate_bisections(fam, 2)
    errs = {}
    for n in (100, 1000, 10000):
        ms = interval_quadrature_measures(fam, n)
        worst = 0.0
        for arr in arrs:
            W = np.array([hyperplane_to_sphere_point(h)
                          for h in arr.hyperplanes])
            worst = max(worst, float(np.max(np.abs(phi(ms, W)))))
        errs[n] = worst
    c = max(1.0, max(n * e for n, e in errs.items()))
    for n, e in errs.items():
        assert e <= c / n


def _sphere_distance(W, key) -> float:
    """Summed distance on the sphere between the rows of W and those of
    key, at the best order and orientation of key's rows."""
    return min(sum(min(np.linalg.norm(w - v), np.linalg.norm(w + v))
                   for w, v in zip(W, key[list(order)]))
               for order in itertools.permutations(range(len(key))))


@pytest.mark.parametrize("d,k", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2),
                                 (4, 2), (3, 3)])
def test_solver_successes_match_the_moment_curve_answer_key(d, k):
    # for an unanchored family the enumeration is every bisection, so a
    # success must land near one of them.  Every seed succeeds; the
    # annealing search that the medoid-block start and the corrector
    # replaced found none of (3,2), (4,2) and (3,3).  The winner's
    # corrector, run to its end, converges on a bisection up to
    # quadrature error; the race stops it once it is within the
    # tolerance, 1.3e-4 to 1.5e-3 away (1.2e-6 to 2.6e-6 at its end)
    fam = well_separated_family(d, k)
    ms = interval_quadrature_measures(fam, 200)
    keys = [np.array([hyperplane_to_sphere_point(h) for h in arr.hyperplanes])
            for arr in enumerate_bisections(fam, k)]

    def distance(W):
        return min(_sphere_distance(W, key) for key in keys)
    for seed in range(5):
        config = SolverConfig(seed=seed)
        runs = LoneRuns(ms, k, config)
        result = solve_bisection(ms, k, config)
        assert result.success
        race = solve_bisection_by_race(ms, k, config, runs)
        assert result.to_jsonable() == race.to_jsonable()
        assert result.directions.tobytes() == race.directions.tobytes()
        assert distance(result.directions) <= 2e-3
        _, corrected, _ = runs[result.restarts_used - 1].corrector[-1]
        assert distance(runs.checked(corrected)[0]) <= 1e-5


def test_the_race_does_not_judge_a_start():
    # a medoid-block start passes exactly through data points, where the
    # search frame scores a product of 0 but the input frame does not:
    # the start scores 5.7e-17 there, yet phi's worst relative imbalance
    # is 0.010000000000000063 > 1e-2.  A race that judged starts would
    # end every batch at its medoid-block starts, and fail
    ms = interval_quadrature_measures(well_separated_family(1, 2), 200)
    center, radius, pool, medoids = testmap._search_frame(ms)
    tol = SolverConfig().tolerance
    for seed in range(5):
        child = np.random.SeedSequence(seed).spawn(1)[0]
        W = testmap._start(0, np.random.default_rng(child), 2, medoids)
        assert testmap._hard_worsts(pool, W[None])[0] <= tol
        imb = phi(ms, testmap._uncenter_directions(W, center, radius))
        assert max(abs(imb) / pool.totals) > tol
        assert solve_bisection(ms, 2, SolverConfig(seed=seed)).success


def test_solver_bisects_the_anchored_moment_curve_family():
    # (d, j, k) = (3, 7, 3), certified IN by THM25_II; the annealing
    # search found it at none of these seeds
    ms = interval_quadrature_measures(well_separated_family(3, 3, 1), 200)
    assert len(ms) == 7
    for seed in range(3):
        assert solve_bisection(ms, 3, SolverConfig(seed=seed)).success


def test_quadrature_measures_shape():
    fam = well_separated_family(2, 2, 0)
    ms = interval_quadrature_measures(fam, 50)
    assert len(ms) == fam.j
    for m in ms:
        assert m.points.shape == (50, 2)
        assert m.total == pytest.approx(1.0)


def test_solver_one_dimensional_median():
    # an even number of equal atoms admits an exactly balancing cut between
    # the two middle ones; an odd number would cap the achievable relative
    # imbalance at 1/n
    rng = np.random.default_rng(6)
    m = DiscreteMeasure(rng.normal(2.0, 1.0, size=(50, 1)), np.full(50, 1.0))
    res = solve_bisection([m], 1, SolverConfig(seed=0, max_restarts=5))
    assert res.success
    assert res.relative_imbalances[0] <= 1e-2
    arr = res.arrangement()
    assert arr.k == 1


def test_solver_json_carries_the_arrangements_floats():
    # to_jsonable reads the hyperplanes off the directions; they are the
    # floats that arrangement() round-trips through OrientedHyperplane
    rng = np.random.default_rng(6)
    ms = [DiscreteMeasure(rng.normal(size=(30, 2)) + 4 * i, np.ones(30))
          for i in range(2)]
    res = solve_bisection(ms, 2, SolverConfig(seed=1, max_restarts=3))
    assert res.success
    assert list(res.to_jsonable()) == ["status", "restarts_used", "seed",
                                       "arrangement", "imbalances",
                                       "relative_imbalances"]
    rendered = res.to_jsonable()["arrangement"]
    assert rendered == [{"normal": [float(u) for u in h.normal],
                         "offset": float(h.offset)}
                        for h in res.arrangement().hyperplanes]
    # and as text, since == does not tell -0.0 from 0.0
    assert json.dumps(rendered) == json.dumps(
        [{"normal": list(h.normal), "offset": h.offset}
         for h in res.arrangement().hyperplanes])


def _schedule(monkeypatch, corrector_iterations, polish_iterations):
    """Set the solver's search schedule for one test."""
    monkeypatch.setattr(testmap, "_CORRECTOR_ITERATIONS", corrector_iterations)
    monkeypatch.setattr(testmap, "_POLISH_ITERATIONS", polish_iterations)


def test_solver_is_deterministic(monkeypatch):
    rng = np.random.default_rng(7)
    ms = _random_measures(rng, 2, 2, n=30)
    _schedule(monkeypatch, 6, 60)
    cfg = SolverConfig(seed=11, max_restarts=4)
    r1 = solve_bisection(ms, 2, cfg)
    r2 = solve_bisection(ms, 2, cfg)
    assert r1.status == r2.status
    if r1.success:
        assert np.array_equal(r1.directions, r2.directions)
        assert r1.restarts_used == r2.restarts_used


def test_solver_reports_not_found_when_impossible(monkeypatch):
    rng = np.random.default_rng(8)
    ms = [DiscreteMeasure(rng.normal(c, 0.4, size=(30, 1)), np.full(30, 1.0))
          for c in (-10.0, 0.0, 10.0)]
    _schedule(monkeypatch, 6, 50)
    cfg = SolverConfig(seed=0, max_restarts=4)
    res = solve_bisection(ms, 2, cfg)
    assert not res.success
    assert res.status == "NOT_FOUND"
    assert res.restarts_used == 4
    with pytest.raises(ValueError):
        res.arrangement()
    # every restart leaves some measure wholly on one side: on the tie,
    # the first restart is the best attempt
    assert res.best_restart == 1
    assert max(res.relative_imbalances) == 1.0


def test_not_found_reports_its_best_restart(monkeypatch):
    # 15 atoms of weights 1, 2, 4, ..., 2^14 per measure: the total is
    # odd, so is every signed sum of an arrangement that misses every
    # atom, and each restart fails a tolerance of 1e-6, each at its own
    # imbalance.  The best attempt is the restart of least worst relative
    # imbalance, the first on ties, under keys a SUCCESS never carries:
    # here restarts 3 and 5 tie at the least, after a worse restart 1
    rng = np.random.default_rng(10)
    ms = [DiscreteMeasure(rng.normal(size=(15, 2)) + 3 * i,
                          2.0 ** np.arange(15)) for i in range(3)]
    _schedule(monkeypatch, 6, 50)
    cfg = SolverConfig(seed=0, max_restarts=6, tolerance=1e-6)
    res = solve_bisection(ms, 2, cfg)
    assert res.status == "NOT_FOUND"
    rels = [rel for _, _, rel in
            sequential_restarts(ms, 2, cfg, goal=cfg.tolerance)]
    worsts = [float(rel.max()) for rel in rels]
    best = worsts.index(min(worsts))
    assert best == 2 and worsts[4] == worsts[2] < worsts[0]
    assert res.best_restart == best + 1
    assert res.relative_imbalances.tobytes() == rels[best].tobytes()
    assert res.to_jsonable() == {
        "status": "NOT_FOUND", "restarts_used": 6, "seed": 0,
        "best_restart": best + 1,
        "best_relative_imbalances": rels[best].tolist()}
    assert res.to_jsonable() == solve_bisection_by_race(
        ms, 2, cfg).to_jsonable()


def test_measure_json_round_trip():
    rng = np.random.default_rng(9)
    ms = _random_measures(rng, 2, 3, n=4)
    data = measures_to_jsonable(3, ms)
    d, back = measures_from_jsonable(data)
    assert d == 3
    for a, b in zip(ms, back):
        assert np.allclose(a.points, b.points)
        assert np.allclose(a.weights, b.weights)


def test_measure_json_rejects_malformed():
    with pytest.raises(ValueError):
        measures_from_jsonable([])
    with pytest.raises(ValueError):
        measures_from_jsonable({"d": 2})
    with pytest.raises(ValueError):
        measures_from_jsonable({"d": 2, "measures": []})
    with pytest.raises(ValueError):
        measures_from_jsonable(
            {"d": 2, "measures": [{"points": [{"x": [1.0], "w": 1.0}]}]})
    with pytest.raises(ValueError):
        measures_from_jsonable(
            {"d": 1, "measures": [{"points": [{"x": [1.0], "w": -2.0}]}]})


@pytest.mark.parametrize("d", [0, -3])
def test_measure_json_rejects_dimension_below_one(d):
    with pytest.raises(ValueError, match=f"need d >= 1, got {d}"):
        measures_from_jsonable({"d": d, "measures": [{"points": []}]})


@pytest.mark.parametrize("measure", [
    {"pts": [{"x": [1.0], "w": 1.0}]},      # no points
    {"points": [{"x": [1.0]}]},              # a point with no weight
    {"points": [[1.0, 1.0]]},                # a point that is no object
    {"points": 3},                           # points that are no list
    "nope",                                  # a measure that is no object
    {"points": []},                          # a measure with no points
])
def test_measure_json_rejects_malformed_measures(measure):
    with pytest.raises(ValueError, match="measure 0 malformed"):
        measures_from_jsonable({"d": 1, "measures": [measure]})


@pytest.mark.parametrize("field", ["x", "w"])
def test_measure_json_integer_too_large_for_float64_overflows(field):
    # a JSON integer is exact in Python, and float() of 10**400 raises
    # OverflowError, which used to escape as a traceback
    point = {"x": [1], "w": 1}
    point[field] = [10**400] if field == "x" else 10**400
    with pytest.raises(MeasureOverflowError, match="measure 0: int too large"):
        measures_from_jsonable({"d": 1, "measures": [{"points": [point]}]})


# values of the wrong JSON type; all but a number x used to be coerced:
# d = 2.9 read as 2, x = "12" as the point (1, 2), w = "3" and w = true as
# the weights 3 and 1
COERCED_INPUTS = {
    "number x": {"d": 1, "measures": [{"points": [{"x": 1.0, "w": 1.0}]}]},
    "fractional d": {"d": 2.9, "measures": [{"points": [
        {"x": [1.0, 2.0], "w": 1.0}]}]},
    "boolean d": {"d": True, "measures": [{"points": [
        {"x": [1.0], "w": 1.0}]}]},
    "string x": {"d": 2, "measures": [{"points": [{"x": "12", "w": 1.0}]}]},
    "string coordinate": {"d": 2, "measures": [{"points": [
        {"x": [1.0, "2"], "w": 1.0}]}]},
    "boolean coordinate": {"d": 2, "measures": [{"points": [
        {"x": [1.0, False], "w": 1.0}]}]},
    "string w": {"d": 2, "measures": [{"points": [
        {"x": [1.0, 2.0], "w": "3"}]}]},
    "boolean w": {"d": 2, "measures": [{"points": [
        {"x": [1.0, 2.0], "w": True}]}]},
}


@pytest.mark.parametrize("case", sorted(COERCED_INPUTS))
def test_measure_json_rejects_values_of_the_wrong_json_type(case):
    with pytest.raises(ValueError):
        measures_from_jsonable(COERCED_INPUTS[case])


def test_measure_json_accepts_integer_numbers():
    d, (m,) = measures_from_jsonable(
        {"d": 2, "measures": [{"points": [{"x": [0, 5], "w": 2},
                                          {"x": [1.5, -1], "w": 0.5}]}]})
    assert d == 2
    assert m.points.tolist() == [[0.0, 5.0], [1.5, -1.0]]
    assert m.weights.tolist() == [2.0, 0.5]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"),
                                 0.0, -1e-3, 1.0, 2.0])
def test_solver_config_rejects_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance"):
        SolverConfig(tolerance=tol)


def test_solver_config_keeps_three_checked_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "tolerance", "seed", "max_restarts"]
    with pytest.raises(ValueError, match="^need seed >= 0, got -1$"):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError, match="^need max_restarts >= 1, got 0$"):
        SolverConfig(max_restarts=0)
    assert SolverConfig(seed=0, max_restarts=1).seed == 0


def test_solver_config_stores_plain_integers():
    config = SolverConfig(seed=np.int64(3), max_restarts=np.int64(2))
    assert type(config.seed) is int and config.seed == 3
    assert type(config.max_restarts) is int and config.max_restarts == 2


def test_solver_result_with_a_numpy_seed_is_json():
    m = DiscreteMeasure(np.arange(6.0)[:, None], np.ones(6))
    result = solve_bisection([m], 1, SolverConfig(seed=np.int64(3)))
    assert result.success and type(result.seed) is int
    assert json.loads(json.dumps(result.to_jsonable()))["seed"] == 3


@pytest.mark.parametrize("field,value", [("seed", True), ("seed", 1.5),
                                         ("seed", np.True_), ("seed", "3"),
                                         ("max_restarts", 2.5),
                                         ("max_restarts", False)])
def test_solver_config_refuses_bools_and_non_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("k", [1.5, True, np.float64(2.0), "2"])
def test_solver_refuses_a_k_that_is_not_an_integer(k):
    m = DiscreteMeasure(np.arange(6.0)[:, None], np.ones(6))
    with pytest.raises(ValueError, match="k must be an integer"):
        solve_bisection([m], k, SolverConfig(max_restarts=1))


def test_solver_accepts_a_numpy_integer_k():
    m = DiscreteMeasure(np.arange(6.0)[:, None], np.ones(6))
    config = SolverConfig(max_restarts=2)
    assert (solve_bisection([m], np.int64(1), config).to_jsonable()
            == solve_bisection([m], 1, config).to_jsonable())


def test_solver_validates_measures():
    with pytest.raises(ValueError, match="at least one measure"):
        solve_bisection([], 1)
    mixed = [DiscreteMeasure(np.ones((2, 1)), np.ones(2)),
             DiscreteMeasure(np.ones((2, 2)), np.ones(2))]
    with pytest.raises(ValueError, match="mixed dimension"):
        solve_bisection(mixed, 1)


def test_solver_rejects_a_cloud_whose_centroid_overflows():
    # finite points whose mean is not: the centred frame would be NaN
    ms = [DiscreteMeasure(np.full((2, 2), 1e308), np.ones(2)),
          DiscreteMeasure(np.full((3, 2), 1.5e308), np.ones(3))]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            solve_bisection(ms, 1, SolverConfig(max_restarts=1))


def test_measure_refuses_weights_whose_total_overflows():
    # the total used to be inf, and solve then reported SUCCESS with a
    # relative imbalance of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(MeasureOverflowError, match="total overflows"):
            DiscreteMeasure(np.arange(3.0)[:, None], np.full(3, 1e308))


def test_solver_searches_points_on_a_coordinate_hyperplane():
    # a coordinate that is 0 at every centred point gives the corrector's
    # Jacobian a zero column, which used to make its solve singular
    ys = np.random.default_rng(0).normal(size=20)
    m = DiscreteMeasure(np.column_stack([np.zeros(20), ys]), np.ones(20))
    assert solve_bisection([m], 1, SolverConfig(max_restarts=2)).success


def _gaussian_cloud(scale):
    return np.random.default_rng(0).normal(size=(40, 2)) * scale


@pytest.mark.parametrize("points", [_gaussian_cloud(1e160),
                                    np.full((3, 2), 1.7e308)],
                         ids=["norm-overflows", "mean-overflows"])
def test_solver_refuses_coordinates_whose_centring_overflows(points):
    # finite points that used to come back as a pole direction or as
    # non-finite coordinates
    measures = [DiscreteMeasure(points, np.ones(len(points)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeasureOverflowError,
                           match="overflow float64 when centred"):
            solve_bisection(measures, 1, SolverConfig(max_restarts=1))


def test_solver_bisects_coordinates_just_below_the_overflow():
    measures = [DiscreteMeasure(_gaussian_cloud(1e153), np.ones(40))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_bisection(measures, 1, SolverConfig(max_restarts=3))
    assert result.success


@pytest.mark.parametrize("weight", [1e300, 1e-300])
def test_solver_bisects_clouds_of_extreme_weights(weight):
    # the corrector weighs each point by its share of its measure's total:
    # a raw weight of 1e300 would overflow its sums of squares, one of
    # 1e-300 would vanish, and the suite turns warnings into errors
    rng = np.random.default_rng(0)
    centres = rng.normal(size=(4, 2)) * 3
    ms = [DiscreteMeasure(c + rng.normal(size=(50, 2)), np.full(50, weight))
          for c in centres]
    result = solve_bisection(ms, 2, SolverConfig(seed=0))
    assert result.success and result.restarts_used == 1


def _blobs(seed, d, j, n):
    """j Gaussian clouds of n unit-weight points around spread-out centres."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(j, d)) * 3
    return [DiscreteMeasure(c + rng.normal(size=(n, d)), np.ones(n))
            for c in centres]


def _disks(seed, n=200):
    """Four uniform disks of radius 1 on a 6x6 grid."""
    rng = np.random.default_rng(seed)
    out = []
    for cx, cy in ((0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)):
        r = np.sqrt(rng.uniform(size=n))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        pts = np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)], axis=1)
        out.append(DiscreteMeasure(pts, np.ones(n)))
    return out


# the benchmark's certified clouds -> restarts_used at seeds 0 to 4 (None:
# NOT_FOUND after 20), as the medoid-block start, the corrector and the
# race of each batch through both left them: a later restart of a batch
# often gets within the tolerance in fewer corrector iterations than
# restart 1, which the polish would bring there
_PINNED_SEARCHES = {
    "d2j4k2n200-100": (lambda: _blobs(100, 2, 4, 200), 2, [4, 1, 3, 3, 1]),
    "d2j4k2n200-101": (lambda: _blobs(101, 2, 4, 200), 2, [3, 4, 4, 3, 3]),
    "d2j6k3n300": (lambda: _blobs(100, 2, 6, 300), 3, [1, 1, 3, 2, 1]),
    "d4j8k2n300": (lambda: _blobs(100, 4, 8, 300), 2, [3, 3, 1, 1, 4]),
    "disk4": (lambda: _disks(1000), 2, [3, 1, 3, 4, 1]),
}


@pytest.mark.parametrize("name", list(_PINNED_SEARCHES))
def test_solver_keeps_its_restart_counts(name):
    make, k, want = _PINNED_SEARCHES[name]
    ms = make()
    got = []
    for seed in range(5):
        result = solve_bisection(ms, k, SolverConfig(seed=seed))
        got.append(result.restarts_used if result.success else None)
        assert result.success or result.restarts_used == 20
    assert got == want


def _sweep_instance(seed, j, d):
    """j unit Gaussian clouds of 20 to 79 points, each shifted by a
    standard normal offset, with weights from 0.2 to 3."""
    rng = np.random.default_rng(seed)
    return [DiscreteMeasure(rng.normal(size=(n, d)) + rng.normal(size=d),
                            rng.uniform(0.2, 3.0, n))
            for n in rng.integers(20, 80, size=j)]


def test_solver_keeps_its_floor_on_a_small_discrete_sweep():
    # k 1..4 x d 1..3, j = min(dk, 4), four seeded instances each, solver
    # seed 0.  Many of these inputs may have no bisection within 1e-2 that
    # misses every point; the solver finds 28 of the 48, and the floor
    # stays at 26, what the retired annealing search found
    found = sum(solve_bisection(_sweep_instance(1000 * k + 100 * d + i,
                                                min(d * k, 4), d),
                                k, SolverConfig(seed=0)).success
                for k in range(1, 5) for d in range(1, 4) for i in range(4))
    assert found >= 26


@pytest.mark.parametrize("name", [*_PINNED_SEARCHES,
                                  *(f"sweep k={k} seed={seed}"
                                    for k in range(1, 5) for seed in (0, 1))])
def test_solver_keeps_the_status_and_restarts_of_the_polish_to_zero(name):
    # a batch races to the tolerance through the corrector and the
    # polish, yet it fails only where its restarts run alone to their end
    # (the whole corrector, then the polish to 0: tests/oracles.py) fail
    # too: each member follows its own trajectory until the race cuts it,
    # which happens only where some member is within the tolerance.  A
    # restart that passes through the tolerance and leaves it can win the
    # race alone, so restarts_used moves either way; the whole result is
    # the race reference's.  Every pinned shape at seeds 0 to 4, and the
    # small sweep's 48 inputs at solver seeds 0 and 1
    if name in _PINNED_SEARCHES:
        make, k, _ = _PINNED_SEARCHES[name]
        cases = [(make(), seed) for seed in range(5)]
    else:
        k, seed = (int(part.split("=")[1]) for part in name.split()[1:])
        cases = [(_sweep_instance(1000 * k + 100 * d + i, min(d * k, 4), d),
                  seed) for d in range(1, 4) for i in range(4)]
    for ms, seed in cases:
        config = SolverConfig(seed=seed)
        runs = LoneRuns(ms, k, config)
        got = solve_bisection(ms, k, config)
        want = solve_bisection_sequentially(ms, k, config, runs)
        assert got.status == want.status or got.success
        race = solve_bisection_by_race(ms, k, config, runs)
        assert got.to_jsonable() == race.to_jsonable()
        if got.success:
            assert got.directions.tobytes() == race.directions.tobytes()


def _kernel_instance(rng, d):
    """Measures of unequal sizes, one of them a single point, with
    non-uniform weights, plus their per-measure oracle input."""
    sizes = [1] + [int(n) for n in rng.integers(2, 60, size=3)]
    rng.shuffle(sizes)
    ms = [DiscreteMeasure(rng.normal(size=(n, d)) * 4 + 7,
                          rng.uniform(0.2, 3.0, n)) for n in sizes]
    return ms, centred_lifted(ms)


def _pool(ms):
    """The solver's pool, which the corrector and the polish score."""
    return testmap._search_frame(ms)[2]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pooled_kernel_equals_per_measure_kernel(k, d):
    # exact equality, not closeness, on these inputs: the pooled signed
    # sums and hard worst scores equal the per-measure kernel's; the
    # products themselves may differ from it by rounding
    rng = np.random.default_rng(100 * k + d)
    for _ in range(5):
        ms, lifted = _kernel_instance(rng, d)
        weights = [m.weights for m in ms]
        totals = [m.total for m in ms]
        pool = _pool(ms)
        for _ in range(4):
            W = _random_directions(rng, k, d)
            assert (testmap._hard_worsts(pool, W[None])[0]
                    == hard_worst(lifted, weights, totals, W))
        W = _random_directions(rng, k, d)
        prods = [signed_products(m, W) for m in ms]
        assert phi(ms, W).tolist() == [float(np.sign(p) @ m.weights)
                                       for p, m in zip(prods, ms)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_boundary_mass_equals_per_measure_reference(k):
    # lattice points and axis hyperplanes through lattice values, so that
    # many products are exactly zero
    rng = np.random.default_rng(40 + k)
    d = 2
    ms = [DiscreteMeasure(rng.integers(-3, 4, size=(n, d)).astype(float),
                          rng.uniform(0.5, 2.0, n)) for n in (1, 17, 30)]
    for _ in range(10):
        W = np.zeros((k, d + 1))
        for row in W:
            row[rng.integers(d)] = 1.0
            row[d] = float(rng.integers(-3, 4))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        prods = [signed_products(m, W) for m in ms]
        assert boundary_mass(ms, W).tolist() == [
            float(m.weights[p == 0.0].sum()) for p, m in zip(prods, ms)]
        assert phi(ms, W).tolist() == [float(np.sign(p) @ m.weights)
                                       for p, m in zip(prods, ms)]


def test_pooled_kernel_single_one_point_measure():
    # a pool of one point, the shortest pooled product
    m = DiscreteMeasure(np.array([[0.5, -1.5]]), np.array([2.0]))
    for k in (1, 2, 3):
        W = _random_directions(np.random.default_rng(k), k, 2)
        lifted = centred_lifted([m])
        assert (testmap._hard_worsts(_pool([m]), W[None])[0]
                == hard_worst(lifted, [m.weights], [m.total], W))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_each_stack_member_scores_as_its_stack_of_one(k, d):
    # the contract the race rests on: numpy's stacked matmul makes one
    # BLAS call per member, so each member's values and products are,
    # bit for bit, those of its stack of one, whatever B is; on unequal
    # sizes with a one-point measure.  So the polish's start, scored as
    # its stack of B, scores as each member's first copy does in the
    # proposals' stack of λ copies of each
    rng = np.random.default_rng(500 + 10 * k + d)
    ms, _ = _kernel_instance(rng, d)
    pool, alone = _pool(ms), _pool(ms)
    lam = testmap._PROPOSALS
    for B in (1, 2, 8, 64):
        stack = np.stack([_random_directions(rng, k, d) for _ in range(B)])
        values = pool.stacked_values(stack).copy()
        products = pool.stacked_products(stack)
        for b, W in enumerate(stack):
            assert (values[:, b].tobytes()
                    == alone.stacked_values(W[None])[:, 0].tobytes())
            assert (products[b].tobytes()
                    == alone.stacked_products(W[None])[0].tobytes())
        copies = np.repeat(stack, lam, axis=0)
        assert (testmap._hard_worsts(pool, stack).tobytes()
                == testmap._hard_worsts(alone, copies)[::lam].tobytes())


def test_one_pool_scores_stacks_of_every_k():
    # a pool does not depend on k: its work array follows the stack's
    # (B, k), so stacks of k = 1, 3 and 1 again, of one size, score on
    # one pool as each does on a fresh pool
    rng = np.random.default_rng(59)
    ms, _ = _kernel_instance(rng, 2)
    pool = _pool(ms)
    for k in (1, 3, 1):
        stack = np.stack([_random_directions(rng, k, 2) for _ in range(4)])
        assert (pool.stacked_values(stack).tobytes()
                == _pool(ms).stacked_values(stack).tobytes())
        assert (pool.stacked_products(stack).tobytes()
                == _pool(ms).stacked_products(stack).tobytes())
        assert (testmap._hard_worsts(pool, stack).tolist()
                == testmap._hard_worsts(_pool(ms), stack).tolist())


def _equal_instance(rng, j, d, n=13):
    """j measures of n points each, with non-uniform weights, plus their
    per-measure oracle input: the pool sums them in one stacked product."""
    ms = [DiscreteMeasure(rng.normal(size=(n, d)) * 4 + 7,
                          rng.uniform(0.2, 3.0, n)) for _ in range(j)]
    return ms, centred_lifted(ms)


def _assert_stacked_scorers_equal_oracle(rng, ms, lifted, k):
    weights = [m.weights for m in ms]
    totals = [m.total for m in ms]
    pool = _pool(ms)
    d = ms[0].dim
    stack = np.stack([_random_directions(rng, k, d) for _ in range(6)])
    want = [hard_worst(lifted, weights, totals, W) for W in stack]
    assert testmap._hard_worsts(pool, stack).tolist() == want
    # each arrangement as a stack of one, as a restart run alone
    assert [testmap._hard_worsts(pool, W[None])[0] for W in stack] == want


@pytest.mark.parametrize("j", [2, 8, 9])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pooled_kernel_equals_per_measure_kernel_on_equal_sizes(j, k, d):
    # equal sizes take the one stacked reduction over all measures, one
    # point each included
    rng = np.random.default_rng(1000 * j + 100 * k + d)
    for n in (13, 1):
        ms, lifted = _equal_instance(rng, j, d, n)
        assert _pool(ms).w_stack is not None
        _assert_stacked_scorers_equal_oracle(rng, ms, lifted, k)
        # phi takes the same stacked reduction
        W = _random_directions(rng, k, d)
        assert phi(ms, W).tolist() == [float(np.sign(signed_products(m, W))
                                             @ m.weights) for m in ms]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_scorers_equal_per_measure_kernel_on_unequal_sizes(k):
    rng = np.random.default_rng(70 + k)
    for d in (1, 3):
        ms, lifted = _kernel_instance(rng, d)
        assert _pool(ms).w_stack is None
        _assert_stacked_scorers_equal_oracle(rng, ms, lifted, k)


def _assert_solver_matches_the_per_measure_kernel(monkeypatch, ms, k, cfg):
    # solve once with the pooled kernel and once with the per-measure
    # oracle scoring each row of every stack the corrector's race and the
    # polish score, of every batch of restarts: identical directions, bit
    # for bit; returns the result and the sizes of the stacks the oracle
    # scored
    pooled = solve_bisection(ms, k, cfg)
    assert pooled.success

    lifted = centred_lifted(ms)
    weights = [m.weights for m in ms]
    totals = [m.total for m in ms]
    stacks, pooled_hard = [], testmap._hard_worsts

    def hard(pool, W, products=None):
        stacks.append(len(W))
        want = [hard_worst(lifted, weights, totals, w) for w in W]
        if products is not None:  # the corrector's, from its products
            assert pooled_hard(pool, W, products).tolist() == want
        return np.array(want)

    with monkeypatch.context() as patch:
        patch.setattr(testmap, "_hard_worsts", hard)
        oracle = solve_bisection(ms, k, cfg)
    assert stacks
    assert oracle.directions.tobytes() == pooled.directions.tobytes()
    assert oracle.to_jsonable() == pooled.to_jsonable()
    return pooled, stacks


@pytest.mark.parametrize("k,d", [(1, 1), (1, 2), (2, 2)])
def test_solver_matches_the_per_measure_kernel(monkeypatch, k, d):
    rng = np.random.default_rng(30 + 10 * k + d)
    ms = [DiscreteMeasure(rng.normal(size=(n, d)) + 3, np.ones(n))
          for n in (40, 24)[:d]]
    _assert_solver_matches_the_per_measure_kernel(
        monkeypatch, ms, k, SolverConfig(seed=5, max_restarts=4))


def test_solver_matches_the_per_measure_kernel_in_a_lockstep_batch(
        monkeypatch, short_schedule):
    # a tolerance at a later restart's own imbalance, below the earlier
    # ones', so that the winner comes out of a race of restarts
    rng = np.random.default_rng(33)
    ms = [DiscreteMeasure(rng.normal(size=(n, 2)) * 3 + 5,
                          rng.uniform(0.5, 2.0, n)) for n in (30, 22)]
    config = SolverConfig(seed=5, max_restarts=4)
    rels = [float(rel.max()) for _, _, rel in
            sequential_restarts(ms, 2, config)]
    wins = [r for i, r in enumerate(rels) if i and r < min(rels[:i] + [1.0])]
    assert wins
    config = dataclasses.replace(config, tolerance=wins[0])
    result, stacks = _assert_solver_matches_the_per_measure_kernel(
        monkeypatch, ms, 2, config)
    # at N·k = 104, restarts 1 to 4 form one batch.  The corrector's race
    # scores the batch's candidates as one stack per iteration; the
    # polish scores its start as the batch's stack and then each
    # iteration's proposals as one stack of λ arrangements per restart.
    # Both stop at the point at which the winner, alone, reaches the
    # tolerance
    assert result.to_jsonable() == solve_bisection_by_race(
        ms, 2, config).to_jsonable()
    assert result.restarts_used >= 2
    idx = result.restarts_used - 1
    child = np.random.SeedSequence(config.seed).spawn(idx + 1)[idx]
    _, (stage, iteration) = restart_alone(
        idx, np.random.default_rng(child), 2,
        *testmap._search_frame(ms)[2:], config.tolerance)
    corrected = len(testmap._CORRECTOR_SCALES) * testmap._CORRECTOR_ITERATIONS
    assert stacks == ([4] * iteration if stage == 0 else [4] * (corrected + 1)
                      + [4 * testmap._PROPOSALS] * iteration)


def test_a_search_sizes_its_work_array_twice(short_schedule, monkeypatch):
    # the corrector and the polish's start score stacks of B, and the
    # proposals stacks of B·λ: the pool sizes its work array once for B
    # and resizes it once, to B·λ
    rng = np.random.default_rng(41)
    args = _search_args(_random_measures(rng, 2, 2, n=30), 2)
    sized, size = [], testmap._Pool._size_work_array

    def spy(self, B, k):
        sized.append(B)
        size(self, B, k)
    monkeypatch.setattr(testmap._Pool, "_size_work_array", spy)
    testmap._search(range(3), [np.random.default_rng(s) for s in range(3)],
                    *args, 0.0)
    assert sized == [3, 3 * testmap._PROPOSALS]


def test_the_solver_pools_centred_points_in_float64(monkeypatch):
    # phi's and boundary_mass's pools hold raw coordinates, and a solve's
    # pool the centred unit-radius points; every score is float64
    rng = np.random.default_rng(47)
    ms, _ = _kernel_instance(rng, 2)
    stack = np.stack([_random_directions(rng, 2, 2) for _ in range(3)])
    assert testmap._hard_worsts(_pool(ms), stack).dtype == np.float64
    built, init = [], testmap._Pool.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(self)
    monkeypatch.setattr(testmap._Pool, "__init__", spy)
    assert phi(ms, stack[0]).dtype == np.float64
    assert boundary_mass(ms, stack[0]).dtype == np.float64
    assert np.abs(built[0].lifted_rows[:, :-1]).max() > 1.0
    built.clear()
    solve_bisection(_random_measures(rng, 2, 2), 2, SolverConfig(max_restarts=3))
    assert [p.lifted.dtype for p in built] == [np.float64] * len(built)
    radii = np.linalg.norm(built[0].lifted_rows[:, :-1], axis=1)
    assert radii.max() == pytest.approx(1.0)


_SHORT = SolverConfig(seed=3, max_restarts=5)


@pytest.fixture
def short_schedule(monkeypatch):
    # a short schedule, so that batches of restarts can be checked on many
    # shapes
    _schedule(monkeypatch, 4, 60)


def _search_args(ms, k):
    return (k, *testmap._search_frame(ms)[2:])


def _assert_lockstep_equals_single(make_rngs, ms, k):
    # make_rngs() gives a fresh batch of generators on each call; the
    # batch searched in one stack, as restarts 1, 2, ..., which start
    # from medoid blocks and random rows in turn, races: it ends at the
    # first point (a corrector iteration, then a polish iteration) at
    # which some member's hard score is at the goal, and every member
    # ends where its search alone stands at that point.  Each search
    # alone (restart_alone) equals the batch of one _search runs.
    # Searched at goal 0, and at a goal at the hard score a middle member
    # ends at alone, so that a member before the last can win.  Returns,
    # at goal 0, the point at which each member arrives alone (None: it
    # never does)
    args = _search_args(ms, k)
    runs = [LoneRun(i, rng, *args) for i, rng in enumerate(make_rngs())]
    for goal in sorted({0.0, list(runs[len(runs) // 2])[-1][2]}):
        alone = [stop(run, goal) for run in runs]
        for i, ((W, _), rng) in enumerate(zip(alone, make_rngs())):
            single = testmap._search([i], [rng], *args, goal)
            assert single.shape == (1, k, ms[0].dim + 1)
            assert W.tobytes() == single[0].tobytes()
        cut = min((point for _, point in alone if point), default=None)
        rngs = make_rngs()
        stacked = testmap._search(range(len(rngs)), rngs, *args, goal)
        assert stacked.shape == (len(rngs), k, ms[0].dim + 1)
        for W, run in zip(stacked, runs, strict=True):
            assert W.tobytes() == stop(run, goal, cut)[0].tobytes()
    return [stop(run, 0.0)[1] for run in runs]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lockstep_search_equals_single_searches(k, d, short_schedule):
    # every member of a batch ends exactly where it would alone; the
    # instance has a one-point measure and non-uniform weights
    ms, _ = _kernel_instance(np.random.default_rng(200 + 10 * k + d), d)
    seeds = [7 * k + d + i for i in range(4)]
    _assert_lockstep_equals_single(
        lambda: [np.random.default_rng(s) for s in seeds], ms, k)


@pytest.mark.parametrize("j", [2, 8, 9])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lockstep_search_equals_single_searches_on_equal_sizes(j, k, d,
                                                              short_schedule):
    ms, _ = _equal_instance(np.random.default_rng(400 + 100 * j + 10 * k + d),
                            j, d)
    seeds = [3 * j + 7 * k + d + i for i in range(3)]
    _assert_lockstep_equals_single(
        lambda: [np.random.default_rng(s) for s in seeds], ms, k)


@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
def test_lockstep_batch_of_two_matches_sequential_restarts(equal,
                                                          short_schedule,
                                                          monkeypatch):
    # max_restarts=2 cuts the first batch to restarts 1 and 2; a
    # tolerance between the two restarts' imbalances makes restart 2 the
    # winner, the race's, found beside restart 1.  Each generator's
    # search, in a batch in either order, ends where it does alone at the
    # race's last iteration.
    rng = np.random.default_rng(80)
    sizes = (20, 20, 20) if equal else (14, 20, 27)
    ms = [DiscreteMeasure(rng.normal(size=(n, 2)) * 3 + 5,
                          rng.uniform(0.5, 2.0, n)) for n in sizes]
    wins = []
    for seed in range(30):
        config = SolverConfig(seed=seed, max_restarts=2)
        first, second = [float(rel.max()) for _, _, rel in
                         sequential_restarts(ms, 2, config)]
        if second < min(first, 1.0):
            wins.append(dataclasses.replace(config, tolerance=second))
    assert wins
    for config in wins[:3]:
        ran = []
        with monkeypatch.context() as patch:
            def spy(batch, rngs, *args, _search=testmap._search):
                ran.append(len(rngs))
                return _search(batch, rngs, *args)
            patch.setattr(testmap, "_search", spy)
            batched = solve_bisection(ms, 2, config)
        assert ran == [2]
        reference = solve_bisection_by_race(ms, 2, config)
        assert batched.restarts_used == reference.restarts_used == 2
        assert batched.to_jsonable() == reference.to_jsonable()
        assert batched.directions.tobytes() == reference.directions.tobytes()
        children = np.random.SeedSequence(config.seed).spawn(2)
        _assert_lockstep_equals_single(
            lambda: [np.random.default_rng(c) for c in children[::-1]], ms, 2)
        _assert_lockstep_equals_single(
            lambda: [np.random.default_rng(c) for c in children], ms, 2)


def test_solver_matches_sequential_restarts_on_eight_gaussian_clouds(
        short_schedule):
    # the shape of the benchmark's hardest certified instance: eight
    # equal Gaussian clouds of 300 points in R^4, bisected by 2 hyperplanes
    rng = np.random.default_rng(90)
    ms = [DiscreteMeasure(rng.normal(size=(300, 4)) + rng.uniform(-3, 3, 4),
                          np.ones(300)) for _ in range(8)]
    config = SolverConfig(seed=2, max_restarts=4)
    rels = [float(rel.max()) for _, _, rel in
            sequential_restarts(ms, 2, config)]
    for tol in sorted({r for r in rels if r < 1})[:2] + [1e-3]:
        config = dataclasses.replace(config, tolerance=tol)
        batched = solve_bisection(ms, 2, config)
        reference = solve_bisection_by_race(ms, 2, config)
        assert batched.to_jsonable() == reference.to_jsonable()
        if reference.success:
            assert (batched.directions.tobytes()
                    == reference.directions.tobytes())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_solver_matches_sequential_restarts(k, d, short_schedule):
    # tolerances at the restarts' own relative imbalances, so that the
    # race is won by various restarts (a one-point measure could never
    # pass; _kernel_instance's are checked above)
    rng = np.random.default_rng(300 + 10 * k + d)
    ms = [DiscreteMeasure(rng.normal(size=(n, d)) * 4 + 7,
                          rng.uniform(0.2, 3.0, n)) for n in (23, 31)]
    rels = [float(rel.max()) for _, _, rel in sequential_restarts(ms, k, _SHORT)]
    for tol in sorted({r for r in rels if r < 1})[:3] + [1e-3]:
        config = dataclasses.replace(_SHORT, tolerance=tol)
        batched = solve_bisection(ms, k, config)
        reference = solve_bisection_by_race(ms, k, config)
        assert batched.to_jsonable() == reference.to_jsonable()
        if reference.success:
            assert batched.directions.tobytes() == reference.directions.tobytes()


class _FirstProposalsRejected:
    """A seeded generator whose walk's first iteration rejects the
    proposals numbered in `rejected`: their Gaussian steps cancel the
    moved row exactly (zero norm), or all of the row but the offset (a
    pole).  The walk's first step must be a power of two, so that
    step * (-row / step) == -row; the polish's own is not, so the tests
    drive _walk directly."""

    def __init__(self, seed: int, step: float, pole: bool, rejected):
        self.rng = np.random.default_rng(seed)
        self.step, self.pole, self.rejected = step, pole, rejected
        self.W = self.rows = None

    def normal(self, size):  # the walk's start
        z = self.rng.normal(size=size)
        self.W = testmap._normalize_rows(z)
        return z

    def integers(self, high, size):
        rows = self.rng.integers(high, size=size)
        self.rows = rows[0]
        return rows

    def standard_normal(self, size):
        z = self.rng.standard_normal(size)
        for i in self.rejected:
            cancel = -self.W[self.rows[i]] / self.step
            if self.pole:
                z[0, i, :-1] = cancel[:-1]
            else:
                z[0, i] = cancel
        return z


def _assert_walk_lockstep_equals_single(make_rngs, k, score):
    # one step of 0.5 for every member, whose start each member draws
    # with normal(); the batch walked in one stack ends where each member
    # does alone
    def walk(rngs):
        W = np.stack([testmap._normalize_rows(rng.normal(size=(k, 3)))
                      for rng in rngs])
        testmap._walk(rngs, W, np.full(len(rngs), 0.5), 1, score, 0.0)
        return W
    stacked = walk(make_rngs())
    for W, rng in zip(stacked, make_rngs(), strict=True):
        assert W.tobytes() == walk([rng])[0].tobytes()


def test_lockstep_keeps_rejected_proposals_apart():
    # a batch in which some members reject some or all of their first
    # iteration's proposals (zero norm or a pole) while the others score
    # all of theirs
    rng = np.random.default_rng(61)
    ms = [DiscreteMeasure(rng.normal(size=(30, 2)), rng.uniform(0.5, 2, 30))
          for _ in range(2)]
    lam = testmap._PROPOSALS
    some, every = (0, 3, 4, lam - 1), range(lam)
    for k in (1, 2):
        pool = _pool(ms)

        def score(V):
            return testmap._hard_worsts(pool, V)
        for pole in (False, True):
            for rejected in (some, every):
                # the rows the walk moves from the fake's draws: exactly
                # the chosen ones land on zero, or on a pole
                fake = _FirstProposalsRejected(5, 0.5, pole, rejected)
                W = testmap._normalize_rows(fake.normal((k, 3)))
                rows = fake.integers(k, (1, lam))[0]
                moved = W[rows] + 0.5 * fake.standard_normal((1, lam, 3))[0]
                assert (~moved[:, :-1].any(axis=1)).tolist() == [
                    i in rejected for i in range(lam)]
                assert (~moved.any(axis=1)).tolist() == [
                    i in rejected and not pole for i in range(lam)]
                # one iteration: a zero row would score a worst imbalance
                # of 0, yet no rejected proposal is taken, and when all
                # are rejected neither the arrangement nor the step moves
                fake = _FirstProposalsRejected(5, 0.5, pole, rejected)
                W = testmap._normalize_rows(fake.normal((k, 3)))[None]
                start, step = W.copy(), np.array([0.5])
                testmap._walk([fake], W, step, 1, score, 0.0)
                assert W[..., :-1].any(axis=-1).all()
                if rejected is every:
                    assert W.tobytes() == start.tobytes()
                    assert step.tolist() == [0.5]

        def members():
            return [np.random.default_rng(1),
                    _FirstProposalsRejected(2, 0.5, False, every),
                    np.random.default_rng(3),
                    _FirstProposalsRejected(4, 0.5, True, every),
                    _FirstProposalsRejected(5, 0.5, False, some),
                    _FirstProposalsRejected(6, 0.5, True, some)]
        _assert_walk_lockstep_equals_single(members, k, score)


def test_walk_steps_stop_at_the_ceiling_and_the_floor():
    # a score on which member 0's proposals always improve, strictly, and
    # member 1's never do: their steps grow to the ceiling and shrink to
    # _MIN_STEP and then stay there, and member 1 never moves
    calls = itertools.count()

    def score(V):
        c = next(calls)
        return np.repeat([1e6 - c, 1.0 + c], len(V) // 2)

    W = testmap._normalize_rows(
        np.random.default_rng(4).normal(size=(4, 3))).reshape(2, 2, 3)
    start, step = W.copy(), np.array([0.1, 0.1])
    testmap._walk([np.random.default_rng(s) for s in (5, 6)], W, step, 120,
                  score, 0.0)
    assert step.tolist() == [testmap._POLISH_CEILING, testmap._MIN_STEP]
    assert W[0].tobytes() != start[0].tobytes()
    assert W[1].tobytes() == start[1].tobytes()


def test_lockstep_polish_ends_at_the_first_arrival(monkeypatch):
    # 40 equal atoms on a line: a cut between the middle two balances
    # them exactly, which a short polish reaches on some restarts only.
    # Alone, restart i is at 0 at the point reached[i] ((1, p): after p
    # polish iterations; None: never).  In the batch, every corrector
    # iteration scores the candidates of every member, and every polish
    # iteration λ proposals for every member, until the first at which
    # some member is at 0: the restarts at indices 3 and 8 get there
    # together, index 2 later
    m = DiscreteMeasure(np.random.default_rng(62).normal(size=(40, 1)),
                        np.ones(40))
    _schedule(monkeypatch, 3, 5)
    seeds = range(68, 78)
    reached = _assert_lockstep_equals_single(
        lambda: [np.random.default_rng(s) for s in seeds], [m], 1)
    assert reached == [None, None, (1, 3), (1, 2), None, None, None, None,
                       (1, 2), None]
    args, pool = _search_args([m], 1), _pool([m])
    lam, hard, stacks = testmap._PROPOSALS, testmap._hard_worsts, []

    def spy(pool, V, products=None):
        stacks.append(len(V))
        return hard(pool, V, products)
    monkeypatch.setattr(testmap, "_hard_worsts", spy)
    arrival = min(r for r in reached if r is not None)
    stacked = testmap._search(range(len(seeds)),
                              [np.random.default_rng(s) for s in seeds],
                              *args, 0.0)
    # 5 stages of 3 corrector iterations, then the polish's start as the
    # batch's stack and one stack of λ per member per iteration walked
    assert arrival == (1, 2)
    assert stacks == [10] * 16 + [10 * lam] * 2
    at_zero = [i for i, W in enumerate(stacked)
               if hard(pool, W[None])[0] == 0.0]
    assert at_zero == [i for i, r in enumerate(reached) if r == arrival]


def test_first_arrival_wins_inside_a_batch(short_schedule):
    # a tolerance at a restart's own imbalance that an earlier restart of
    # the same batch also gets within, but later in its polish: the race
    # is won by the first to arrive, not by the first in index order.  At
    # N·k = 150 all 8 restarts form one batch; non-uniform weights keep
    # the imbalances of the restarts apart
    rng = np.random.default_rng(73)
    ms = [DiscreteMeasure(rng.normal(size=(25, 2)) + 3 * i,
                          rng.uniform(0.5, 2.0, 25)) for i in range(3)]
    config = dataclasses.replace(_SHORT, max_restarts=8)
    assert [len(b) for b, _ in testmap._restart_batches(0, 8, 75 * 2)] == [8]
    rels = [float(rel.max()) for _, _, rel in
            sequential_restarts(ms, 2, config)]
    picks = []
    for tol in sorted({r for r in rels if r < 1}):
        picked = dataclasses.replace(config, tolerance=tol)
        race = solve_bisection_by_race(ms, 2, picked)
        first = solve_bisection_sequentially(ms, 2, picked)
        if race.success and race.restarts_used > first.restarts_used:
            picks.append((picked, race, first))
    assert picks
    picked, race, first = picks[0]
    assert (race.restarts_used, first.restarts_used) == (4, 2)
    res = solve_bisection(ms, 2, picked)
    assert res.to_jsonable() == race.to_jsonable()
    assert res.directions.tobytes() == race.directions.tobytes()


# restarts -> the batch sizes on a large input: 4, then 8 at a time,
# the last cut
_BATCH_SIZES = {1: [1], 2: [2], 3: [3], 7: [4, 3], 12: [4, 8],
                20: [4, 8, 8], 33: [4, 8, 8, 8, 5],
                70: [4] + [8] * 8 + [2]}
_LARGE_WORK = 5400  # N·k of (2,6,3) on 6 clouds of 300 points

# (N·k, restarts) -> the batch sizes on smaller inputs, where each batch
# widens to fill a stack of _DISPATCH_POINTS point products, at most 64
# restarts
_SMALL_BATCH_SIZES = {(12, 1): [1], (12, 2): [2], (12, 20): [20],
                      (12, 70): [64, 6], (12, 130): [64, 64, 2],
                      (200, 20): [10, 10], (400, 20): [5, 8, 7],
                      (500, 20): [4, 8, 8]}


@pytest.mark.parametrize("seed", [0, 12345, 2**70 + 3])
def test_restart_batches_seed_restarts_with_the_spawned_children(seed):
    lam = testmap._PROPOSALS
    assert testmap._DISPATCH_POINTS == 16_000
    cases = [((_LARGE_WORK, n), sizes) for n, sizes in _BATCH_SIZES.items()]
    for (work, n), sizes in cases + list(_SMALL_BATCH_SIZES.items()):
        batches = list(testmap._restart_batches(seed, n, work))
        assert [i for b, _ in batches for i in b] == list(range(n))
        assert [len(b) for b, _ in batches] == sizes
        assert all(len(b) == len(rngs) for b, rngs in batches)
        # at most 64 restarts in a batch, and at most 64 arrangements or
        # _DISPATCH_POINTS point products in one scored stack
        assert max(sizes) <= 64
        assert all(size * lam <= 64
                   or size * lam * work <= testmap._DISPATCH_POINTS
                   for size in sizes)
        built = [rng.bit_generator.seed_seq for _, rngs in batches
                 for rng in rngs]
        for a, b in zip(np.random.SeedSequence(seed).spawn(n), built,
                        strict=True):
            assert a.spawn_key == b.spawn_key and a.entropy == b.entropy
            assert a.generate_state(8).tolist() == b.generate_state(8).tolist()


def test_restart_batches_stay_bounded_on_a_tiny_input():
    # a million restarts of a tiny input spawn 64 children per batch, not
    # all of them in the first batch
    tracemalloc.start()
    try:
        batches = list(itertools.islice(
            testmap._restart_batches(0, 10**6, 12), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(b) for b, _ in batches] == [64, 64, 64]
    assert [b.start for b, _ in batches] == [0, 64, 128]
    assert peak < 2**20


def test_infeasible_atom_pairs_search_in_one_batch(monkeypatch):
    # criterion 10's input, three unit-atom pairs on a line (N·k = 12):
    # all 20 restarts in one batch, every restart ending bit for bit where
    # it does alone; none gets within the tolerance, so each polishes as
    # long as it would to 0
    ms = [DiscreteMeasure(np.array([[s], [s + 1.0]]), np.full(2, 1.0))
          for s in (0.0, 10.0, 20.0)]
    config = SolverConfig(seed=0)
    searched = []
    with monkeypatch.context() as patch:
        def spy(batch, rngs, *args, _search=testmap._search):
            searched.append(_search(batch, rngs, *args))
            return searched[-1]
        patch.setattr(testmap, "_search", spy)
        batched = solve_bisection(ms, 2, config)
    assert [len(W) for W in searched] == [20]
    reference = solve_bisection_by_race(ms, 2, config)
    assert batched.to_jsonable() == reference.to_jsonable()
    assert batched.to_jsonable()["status"] == "NOT_FOUND"
    center, radius = testmap._search_frame(ms)[:2]
    for W, (alone, _, _) in zip(np.concatenate(searched),
                                sequential_restarts(ms, 2, config),
                                strict=True):
        W = testmap._uncenter_directions(W, center, radius)
        assert W.tobytes() == alone.tobytes()


def test_solver_spawns_children_lazily():
    # a million restarts cost nothing when the first batch succeeds:
    # spawning every child up front took seconds and hundreds of MB.  At
    # N·k = 50 the batch holds 40 restarts, and restart 4 is the first
    # to arrive, after one corrector iteration
    m = DiscreteMeasure(np.random.default_rng(6).normal(2.0, 1.0, size=(50, 1)),
                        np.full(50, 1.0))
    tracemalloc.start()
    try:
        res = solve_bisection([m], 1, SolverConfig(seed=0, max_restarts=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.success and res.restarts_used == 4
    assert peak < 20 * 2**20
