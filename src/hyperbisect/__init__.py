"""Bisecting measures by affine hyperplane arrangements.

Decision procedures for which triples (dimension d, number of measures
j, number of hyperplanes k) always admit a simultaneous bisection,
exact combinatorial constructions of all bisecting arrangements for
interval measures on the moment curve, and a seeded numerical solver
for concrete point clouds.
"""

from .parity import (Parity, anchored_blocks_parity, digit_sum,
                     equal_blocks_parity, is_carry_free, legendre_valuation,
                     multinomial_parity, multinomial_valuation)
from .gf2poly import ideal_member, surviving_monomials
from .verdicts import (Certificate, FrontierRow, FrontierTable, LambdaVerdict,
                       Status, certificate_checks, frontier_csv, frontier_json,
                       frontier_table, is_power_of_two, verdict)
from .figures import frontier_svg
from .momentcurve import (Arrangement, DegenerateInputError, GenericityWarning,
                          IntervalFamily, OrientedHyperplane,
                          arrangement_from_jsonable, arrangement_to_jsonable,
                          count_bisections, curve_restriction,
                          enumerate_bisections, hyperplane_through,
                          moment_point, verify_bisection,
                          well_separated_family)

# the numerical solver is the package's only numpy user; its names load
# on first access (PEP 562), so the exact layers start without numpy
_TESTMAP_NAMES = frozenset({
    "AT_INFINITY", "AtInfinityError", "DiscreteMeasure", "GroupElement",
    "JoinPoint", "NOT_FOUND", "SolveResult", "SolverConfig", "act_on_join",
    "act_on_target", "boundary_mass", "hyperplane_to_sphere_point",
    "interval_quadrature_measures", "measures_from_jsonable",
    "measures_to_jsonable", "phi", "psi", "solve_bisection",
    "sphere_to_hyperplane",
})

__version__ = "0.1.0"

__all__ = [
    "AT_INFINITY", "Arrangement", "AtInfinityError", "Certificate",
    "DegenerateInputError", "DiscreteMeasure", "FrontierRow",
    "FrontierTable", "GenericityWarning", "GroupElement", "IntervalFamily",
    "JoinPoint", "LambdaVerdict", "NOT_FOUND", "OrientedHyperplane", "Parity",
    "SolveResult", "SolverConfig", "Status", "act_on_join", "act_on_target",
    "anchored_blocks_parity", "arrangement_from_jsonable",
    "arrangement_to_jsonable", "boundary_mass", "certificate_checks",
    "count_bisections", "curve_restriction", "digit_sum",
    "enumerate_bisections", "equal_blocks_parity", "frontier_csv",
    "frontier_json", "frontier_svg", "frontier_table", "hyperplane_through",
    "hyperplane_to_sphere_point", "ideal_member",
    "interval_quadrature_measures", "is_carry_free", "is_power_of_two",
    "legendre_valuation", "measures_from_jsonable", "measures_to_jsonable",
    "moment_point", "multinomial_parity", "multinomial_valuation", "phi",
    "psi", "solve_bisection", "sphere_to_hyperplane", "surviving_monomials",
    "verdict", "verify_bisection", "well_separated_family",
]


def __getattr__(name: str):
    if name in _TESTMAP_NAMES:
        from . import testmap
        return getattr(testmap, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _TESTMAP_NAMES)
