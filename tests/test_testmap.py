"""Sphere dictionary, equivariant maps, group actions, numerical solver."""

from __future__ import annotations

import dataclasses
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
                                 hyperplane_to_sphere_point,
                                 interval_quadrature_measures,
                                 measures_from_jsonable, measures_to_jsonable,
                                 phi, psi, solve_bisection,
                                 sphere_to_hyperplane)
from hyperbisect.momentcurve import (enumerate_bisections,
                                     well_separated_family)
from hyperbisect import testmap
from oracles import (centred_lifted, hard_worst, sequential_restarts,
                     signed_products, soft_imbalance,
                     solve_bisection_sequentially)


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
    rendered = res.to_jsonable()["arrangement"]
    assert rendered == [{"normal": [float(u) for u in h.normal],
                         "offset": float(h.offset)}
                        for h in res.arrangement().hyperplanes]
    # and as text, since == does not tell -0.0 from 0.0
    assert json.dumps(rendered) == json.dumps(
        [{"normal": list(h.normal), "offset": h.offset}
         for h in res.arrangement().hyperplanes])


def _schedule(monkeypatch, iterations_per_stage, polish_iterations,
              initial_step=testmap._INITIAL_STEP):
    """Set the solver's search schedule for one test."""
    monkeypatch.setattr(testmap, "_ITERATIONS_PER_STAGE", iterations_per_stage)
    monkeypatch.setattr(testmap, "_POLISH_ITERATIONS", polish_iterations)
    monkeypatch.setattr(testmap, "_INITIAL_STEP", initial_step)


def test_solver_is_deterministic(monkeypatch):
    rng = np.random.default_rng(7)
    ms = _random_measures(rng, 2, 2, n=30)
    _schedule(monkeypatch, 120, 60)
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
    _schedule(monkeypatch, 100, 50)
    cfg = SolverConfig(seed=0, max_restarts=4)
    res = solve_bisection(ms, 2, cfg)
    assert not res.success
    assert res.status == "NOT_FOUND"
    assert res.restarts_used == 4
    with pytest.raises(ValueError):
        res.arrangement()


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
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError, match="restart"):
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


def _kernel_instance(rng, d):
    """Measures of unequal sizes, one of them a single point, with
    non-uniform weights, plus their per-measure oracle input."""
    sizes = [1] + [int(n) for n in rng.integers(2, 60, size=3)]
    rng.shuffle(sizes)
    ms = [DiscreteMeasure(rng.normal(size=(n, d)) * 4 + 7,
                          rng.uniform(0.2, 3.0, n)) for n in sizes]
    return ms, centred_lifted(ms)


def _pool(ms, k):
    pts = np.vstack([m.points for m in ms])
    center, radius = testmap._centering(pts)
    return testmap._Pool(ms, k, (pts - center) / radius)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pooled_kernel_equals_per_measure_kernel(k, d):
    # exact equality, not closeness: solver output must not change
    rng = np.random.default_rng(100 * k + d)
    for _ in range(5):
        ms, lifted = _kernel_instance(rng, d)
        weights = [m.weights for m in ms]
        totals = [m.total for m in ms]
        pool = _pool(ms, k)
        for _ in range(4):
            W = _random_directions(rng, k, d)
            for temp in (2.5, 0.3, 0.02, 1e-4):
                assert (testmap._soft_imbalances(pool, W[None], temp)[0]
                        == soft_imbalance(lifted, weights, totals, W, temp))
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
    # a pooled length of 1 sends every product down numpy's vector paths
    m = DiscreteMeasure(np.array([[0.5, -1.5]]), np.array([2.0]))
    for k in (1, 2, 3):
        W = _random_directions(np.random.default_rng(k), k, 2)
        lifted = centred_lifted([m])
        assert (testmap._soft_imbalances(_pool([m], k), W[None], 0.7)[0]
                == soft_imbalance(lifted, [m.weights], [m.total], W, 0.7))
        assert (testmap._hard_worsts(_pool([m], k), W[None])[0]
                == hard_worst(lifted, [m.weights], [m.total], W))


def _equal_instance(rng, j, d, n=13):
    """j measures of n points each, with non-uniform weights, plus their
    per-measure oracle input: the pool sums them in one stacked product."""
    ms = [DiscreteMeasure(rng.normal(size=(n, d)) * 4 + 7,
                          rng.uniform(0.2, 3.0, n)) for _ in range(j)]
    return ms, centred_lifted(ms)


def _assert_stacked_scorers_equal_oracle(rng, ms, lifted, k):
    weights = [m.weights for m in ms]
    totals = [m.total for m in ms]
    pool = _pool(ms, k)
    d = ms[0].dim
    stack = np.stack([_random_directions(rng, k, d) for _ in range(6)])
    for temp in (2.5, 0.3, 0.02, 1e-4):
        want = [soft_imbalance(lifted, weights, totals, W, temp)
                for W in stack]
        assert testmap._soft_imbalances(pool, stack, temp).tolist() == want
        # each arrangement as a stack of one, as a restart run alone
        assert [testmap._soft_imbalances(pool, W[None], temp)[0]
                for W in stack] == want
    want = [hard_worst(lifted, weights, totals, W) for W in stack]
    assert testmap._hard_worsts(pool, stack).tolist() == want
    assert [testmap._hard_worsts(pool, W[None])[0] for W in stack] == want


@pytest.mark.parametrize("j", [2, 8, 9])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pooled_kernel_equals_per_measure_kernel_on_equal_sizes(j, k, d):
    # equal sizes take the one stacked reduction over all measures, whose
    # squares must still be added left to right (np.sum adds eight or
    # more in another order)
    rng = np.random.default_rng(1000 * j + 100 * k + d)
    ms, lifted = _equal_instance(rng, j, d)
    assert _pool(ms, k).w_stack is not None
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
        assert _pool(ms, k).w_stack is None
        _assert_stacked_scorers_equal_oracle(rng, ms, lifted, k)


def _assert_solver_matches_the_per_measure_kernel(monkeypatch, ms, k, cfg):
    # solve once with the pooled kernel and once with the per-measure
    # oracle scoring each row of every stack, the first restart's and
    # the lockstep batches': identical directions, bit for bit; returns
    # the result and the sizes of the stacks the oracle scored
    pooled = solve_bisection(ms, k, cfg)
    assert pooled.success

    lifted = centred_lifted(ms)
    weights = [m.weights for m in ms]
    totals = [m.total for m in ms]
    stacks = []

    def soft(pool, W, temp):
        stacks.append(len(W))
        return np.array([soft_imbalance(lifted, weights, totals, w, temp)
                         for w in W])

    def hard(pool, W):
        return np.array([hard_worst(lifted, weights, totals, w) for w in W])

    with monkeypatch.context() as patch:
        patch.setattr(testmap, "_soft_imbalances", soft)
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
    # ones', so that the winner comes out of a lockstep batch
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
    assert result.restarts_used >= 2 and max(stacks) > 1


_SHORT = SolverConfig(seed=3, max_restarts=5)


@pytest.fixture
def short_schedule(monkeypatch):
    # a short schedule, so that lockstep batches can be checked on many shapes
    _schedule(monkeypatch, 40, 60)


def _search_args(ms, k):
    pts = np.vstack([m.points for m in ms])
    center, radius = testmap._centering(pts)
    centered = (pts - center) / radius
    return (testmap._Pool(ms, k, centered), k, ms[0].dim,
            testmap._data_diameter(centered))


def _assert_lockstep_equals_single(make_rngs, ms, k):
    # make_rngs() gives a fresh batch of generators on each call
    rngs = make_rngs()
    stacked = testmap._lockstep_search(rngs, *_search_args(ms, k))
    assert stacked.shape == (len(rngs), k, ms[0].dim + 1)
    for W, rng in zip(stacked, make_rngs(), strict=True):
        alone = testmap._single_search(rng, *_search_args(ms, k))
        assert W.tobytes() == alone.tobytes()


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
def test_lockstep_batch_of_one_matches_sequential_restarts(equal,
                                                          short_schedule,
                                                          monkeypatch):
    # max_restarts=2 makes restart 2 a batch of one, which the solver runs
    # alone in _single_search, as it does restart 1; a tolerance between
    # the two restarts' imbalances makes it the winner.  _lockstep_search
    # on restart 2's generator alone, a lockstep batch of one, ends where
    # _single_search does.
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
            for name in ("_single_search", "_lockstep_search"):
                def spy(rngs, *args, _name=name, _search=getattr(testmap, name)):
                    ran.append(_name)
                    return _search(rngs, *args)
                patch.setattr(testmap, name, spy)
            batched = solve_bisection(ms, 2, config)
        assert ran == ["_single_search", "_single_search"]
        reference = solve_bisection_sequentially(ms, 2, config)
        assert batched.restarts_used == reference.restarts_used == 2
        assert batched.to_jsonable() == reference.to_jsonable()
        assert batched.directions.tobytes() == reference.directions.tobytes()
        child = np.random.SeedSequence(config.seed).spawn(2)[1]
        _assert_lockstep_equals_single(
            lambda: [np.random.default_rng(child)], ms, 2)


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
        reference = solve_bisection_sequentially(ms, 2, config)
        assert batched.to_jsonable() == reference.to_jsonable()
        if reference.success:
            assert (batched.directions.tobytes()
                    == reference.directions.tobytes())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_solver_matches_sequential_restarts(k, d, short_schedule):
    # tolerances at the restarts' own relative imbalances, so that the
    # first success falls on various restarts (a one-point measure could
    # never pass; _kernel_instance's are checked above)
    rng = np.random.default_rng(300 + 10 * k + d)
    ms = [DiscreteMeasure(rng.normal(size=(n, d)) * 4 + 7,
                          rng.uniform(0.2, 3.0, n)) for n in (23, 31)]
    rels = [float(rel.max()) for _, _, rel in sequential_restarts(ms, k, _SHORT)]
    for tol in sorted({r for r in rels if r < 1})[:3] + [1e-3]:
        config = dataclasses.replace(_SHORT, tolerance=tol)
        batched = solve_bisection(ms, k, config)
        reference = solve_bisection_sequentially(ms, k, config)
        assert batched.to_jsonable() == reference.to_jsonable()
        if reference.success:
            assert batched.directions.tobytes() == reference.directions.tobytes()


class _FirstProposalRejected:
    """A seeded generator whose first proposal is rejected: its Gaussian
    step cancels the moved row exactly (zero norm), or all of the row but
    the offset (a pole).  The initial step must be a power of two, so
    that step * (-row / step) == -row."""

    def __init__(self, seed: int, step: float, pole: bool):
        self.rng = np.random.default_rng(seed)
        self.step, self.pole = step, pole
        self.W = self.row = None

    def integers(self, high):
        self.row = self.rng.integers(high)
        return self.row

    def normal(self, size):
        z = self.rng.normal(size=size)
        if self.W is None:  # the initial directions
            self.W = testmap._normalize_rows(z)
        elif self.row is not None:
            cancel = -self.W[self.row] / self.step
            if self.pole:
                z[:-1] = cancel[:-1]
            else:
                z[:] = cancel
            self.row = None  # only the first proposal
        return z

    def standard_normal(self, out):
        out[...] = self.normal(out.shape)


def test_lockstep_keeps_rejected_proposals_apart(monkeypatch):
    # a batch in which some members' first proposal is rejected (zero
    # norm or a pole) while the others' is scored
    rng = np.random.default_rng(61)
    ms = [DiscreteMeasure(rng.normal(size=(30, 2)), rng.uniform(0.5, 2, 30))
          for _ in range(2)]
    _schedule(monkeypatch, 40, 60, initial_step=0.5)
    for pole in (False, True):
        fake = _FirstProposalRejected(5, 0.5, pole)
        W = testmap._normalize_rows(fake.normal((2, 3)))
        assert testmap._propose(fake, W, 0.5) is None
    for k in (1, 2):
        def members():
            return [np.random.default_rng(1), _FirstProposalRejected(2, 0.5, False),
                    np.random.default_rng(3), _FirstProposalRejected(4, 0.5, True),
                    _FirstProposalRejected(5, 0.5, False)]
        _assert_lockstep_equals_single(members, ms, k)


def test_lockstep_polish_drops_members_that_reach_zero(monkeypatch):
    # 40 equal atoms on a line: a cut between the middle two balances
    # them exactly, which a short polish reaches on some restarts only;
    # those stop moving while the others walk on
    m = DiscreteMeasure(np.random.default_rng(62).normal(size=(40, 1)),
                        np.ones(40))
    _schedule(monkeypatch, 3, 25)
    seeds = range(10)
    _assert_lockstep_equals_single(
        lambda: [np.random.default_rng(s) for s in seeds], [m], 1)
    pool = _search_args([m], 1)[0]
    worst = [testmap._hard_worsts(pool, testmap._single_search(
        np.random.default_rng(s), *_search_args([m], 1))[None])[0]
        for s in seeds]
    assert 0.0 in worst and max(worst) > 0.0


def test_first_success_wins_inside_a_batch(short_schedule):
    # choose the tolerance so that restarts 1 and 2 fail, and the first
    # success sits inside the lockstep batch with a later success behind
    rng = np.random.default_rng(64)
    ms = [DiscreteMeasure(rng.normal(size=(25, 2)) + 3 * i, np.ones(25))
          for i in range(3)]
    config = dataclasses.replace(_SHORT, max_restarts=8)
    rels = [float(rel.max()) for _, _, rel in
            sequential_restarts(ms, 2, config)]
    picks = [(first, max(rels[first], rels[later]))
             for first in range(2, 7) for later in range(first + 1, 8)
             if min(rels[:first]) > max(rels[first], rels[later])]
    assert picks
    first, tol = picks[0]
    config = dataclasses.replace(config, tolerance=tol)
    res = solve_bisection(ms, 2, config)
    assert res.success and res.restarts_used == first + 1
    reference = solve_bisection_sequentially(ms, 2, config)
    assert res.to_jsonable() == reference.to_jsonable()
    assert res.directions.tobytes() == reference.directions.tobytes()


@pytest.mark.parametrize("seed", [0, 12345, 2**70 + 3])
def test_restart_batches_seed_restarts_with_the_spawned_children(seed):
    for n in (1, 2, 20, 33, 34, 70):
        batches = list(testmap._restart_batches(seed, n))
        assert [i for b, _ in batches for i in b] == list(range(n))
        assert len(batches[0][0]) == 1
        assert all(len(b) == len(rngs) <= testmap._LOCKSTEP_BATCH
                   for b, rngs in batches)
        built = [rng.bit_generator.seed_seq for _, rngs in batches
                 for rng in rngs]
        for a, b in zip(np.random.SeedSequence(seed).spawn(n), built,
                        strict=True):
            assert a.spawn_key == b.spawn_key and a.entropy == b.entropy
            assert a.generate_state(8).tolist() == b.generate_state(8).tolist()


def test_solver_spawns_children_lazily():
    # a million restarts cost nothing when the first one succeeds: spawning
    # every child up front took seconds and hundreds of MB
    m = DiscreteMeasure(np.random.default_rng(6).normal(2.0, 1.0, size=(50, 1)),
                        np.full(50, 1.0))
    tracemalloc.start()
    try:
        res = solve_bisection([m], 1, SolverConfig(seed=0, max_restarts=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.success and res.restarts_used == 1
    assert peak < 20 * 2**20
