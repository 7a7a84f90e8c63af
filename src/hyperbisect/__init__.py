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

import operator
from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "parity": (
        "Parity", "anchored_blocks_parity", "count_bisections",
        "equal_blocks_parity", "multinomial_parity"),
    "gf2poly": ("ideal_member", "surviving_monomials"),
    "verdicts": (
        "Certificate", "FrontierRow", "FrontierTable", "LambdaVerdict",
        "Status", "certificate_checks", "frontier_csv", "frontier_json",
        "frontier_table", "verdict"),
    "figures": ("frontier_svg",),
    "momentcurve": (
        "Arrangement", "DegenerateInputError", "IntervalFamily",
        "OrientedHyperplane", "arrangement_from_jsonable",
        "arrangement_to_jsonable", "curve_restriction", "enumerate_bisections",
        "hyperplane_through", "moment_point", "verify_bisection",
        "well_separated_family"),
    "testmap": (
        "AtInfinityError", "DiscreteMeasure", "GroupElement", "JoinPoint",
        "NOT_FOUND", "SolveResult", "SolverConfig",
        "act_on_join", "act_on_target", "boundary_mass",
        "interval_quadrature_measures", "measures_from_jsonable", "phi",
        "psi", "solve_bisection", "sphere_to_hyperplane"),
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


def _integer(name: str, value, least: int | None = None) -> int:
    """value as a plain int: the one gate of every integer argument.
    ValueError for a bool (numpy's too), a non-integer or a value < least."""
    if type(value) is not int:
        from numbers import Integral  # numpy registers its integers here
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


__getattr__, __dir__ = _lazy_names(globals(), _EXPORTS)
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
