"""Sphere dictionary, equivariant maps, group actions, numerical solver."""

from __future__ import annotations

import numpy as np
import pytest

from hyperbisect.momentcurve import well_separated_family
from hyperbisect.testmap import (AT_INFINITY, AtInfinityError, DiscreteMeasure,
                                 GroupElement, JoinPoint, SolverConfig,
                                 act_on_join, act_on_target, boundary_mass,
                                 hyperplane_to_sphere_point,
                                 interval_quadrature_measures,
                                 measures_from_jsonable, measures_to_jsonable,
                                 phi, psi, solve_bisection,
                                 sphere_to_hyperplane)
from hyperbisect.momentcurve import enumerate_bisections


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
    assert sphere_to_hyperplane(np.array([0.0, 0.0, 1.0])) is AT_INFINITY
    assert sphere_to_hyperplane(np.array([0.0, 0.0, -1.0])) is AT_INFINITY


def test_sphere_to_hyperplane_wants_unit_vectors():
    with pytest.raises(ValueError):
        sphere_to_hyperplane(np.array([1.0, 1.0, 1.0]))


def test_sphere_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = _unit(rng.normal(size=4))
        h = sphere_to_hyperplane(w)
        if h is AT_INFINITY:
            continue
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


def test_solver_is_deterministic():
    rng = np.random.default_rng(7)
    ms = _random_measures(rng, 2, 2, n=30)
    cfg = SolverConfig(seed=11, max_restarts=4, iterations_per_stage=120,
                       polish_iterations=60)
    r1 = solve_bisection(ms, 2, cfg)
    r2 = solve_bisection(ms, 2, cfg)
    assert r1.status == r2.status
    if r1.success:
        assert np.array_equal(r1.directions, r2.directions)
        assert r1.restarts_used == r2.restarts_used


def test_solver_reports_not_found_when_impossible():
    rng = np.random.default_rng(8)
    ms = [DiscreteMeasure(rng.normal(c, 0.4, size=(30, 1)), np.full(30, 1.0))
          for c in (-10.0, 0.0, 10.0)]
    cfg = SolverConfig(seed=0, max_restarts=4, iterations_per_stage=100,
                       polish_iterations=50)
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
