"""Bisecting measures by affine hyperplane arrangements.

Decision procedures for which triples (dimension d, number of measures
j, number of hyperplanes k) always admit a simultaneous bisection,
exact combinatorial constructions of bisecting arrangements for
interval measures on the moment curve, and a seeded numerical solver
for concrete point clouds.

Importing the package loads none of its modules: each exported name is
resolved from its home module on first access (PEP 562), so a caller
pays only for the layers it uses, and only the solver loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "parity": (
        "Parity", "anchored_blocks_parity", "count_bisections", "digit_sum",
        "equal_blocks_parity", "is_carry_free", "legendre_valuation",
        "multinomial_parity", "multinomial_valuation"),
    "gf2poly": ("ideal_member", "surviving_monomials"),
    "verdicts": (
        "Certificate", "FrontierRow", "FrontierTable", "LambdaVerdict",
        "Status", "certificate_checks", "frontier_csv", "frontier_json",
        "frontier_table", "is_power_of_two", "verdict"),
    "figures": ("frontier_svg",),
    "momentcurve": (
        "Arrangement", "DegenerateInputError", "GenericityWarning",
        "IntervalFamily", "OrientedHyperplane", "arrangement_from_jsonable",
        "arrangement_to_jsonable", "curve_restriction", "enumerate_bisections",
        "hyperplane_through", "moment_point", "verify_bisection",
        "well_separated_family"),
    "testmap": (
        "AT_INFINITY", "AtInfinityError", "DiscreteMeasure", "GroupElement",
        "JoinPoint", "NOT_FOUND", "SolveResult", "SolverConfig",
        "act_on_join", "act_on_target", "boundary_mass",
        "hyperplane_to_sphere_point", "interval_quadrature_measures",
        "measures_from_jsonable", "measures_to_jsonable", "phi", "psi",
        "solve_bisection", "sphere_to_hyperplane"),
}


def _lazy_names(namespace: dict, exports: dict) -> tuple:
    """PEP 562 ``__getattr__`` and ``__dir__`` for the module with globals
    ``namespace``: a name of ``exports`` (home module -> names) is imported
    from its home on first access and then kept as a global."""
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = getattr(import_module(f"{__name__}.{home[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_names(globals(), _EXPORTS)
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
