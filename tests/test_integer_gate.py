"""One integer gate for the public API: every exported callable (and
public class method of an exported class) with an int parameter refuses
a bool, a float and a string for it, and answers for a numpy integer
exactly as for the plain int."""

from __future__ import annotations

import inspect
import pickle
from fractions import Fraction

import numpy as np
import pytest

import hyperbisect
from hyperbisect import _integer

# Result records hold what the package computed from gated arguments; a
# hand-built one is not refused but judged by its checker, as
# certificate_checks judges a LambdaVerdict.
RECORDS = {"FrontierRow", "FrontierTable", "LambdaVerdict", "SolveResult"}

INTEGER_ANNOTATIONS = {"int", "int | None", "list[int]"}


def _family():
    return hyperbisect.well_separated_family(2, 2)


def _measures():
    return [hyperbisect.DiscreteMeasure(np.arange(6.0)[:, None], np.ones(6))]


# exported callable -> a valid call by keyword; every integer parameter
# of the callable is named here
VALID_CALLS = {
    "Certificate": lambda: {"kind": "THM25_II", "d0": 13},
    "GroupElement.identity": lambda: {"k": 3},
    "IntervalFamily": lambda: {"d": 2, "parameters": (1, 2, 3, 4),
                               "anchor_count": 1},
    "Parity.of": lambda: {"n": 5},
    "SolverConfig": lambda: {"seed": 3, "max_restarts": 2},
    "anchored_blocks_parity": lambda: {"d": 3, "k": 3, "ell": 1},
    "count_bisections": lambda: {"d": 3, "k": 3, "ell": 1},
    "enumerate_bisections": lambda: {"family": _family(), "k": 2},
    "equal_blocks_parity": lambda: {"d": 2, "k": 3},
    "frontier_table": lambda: {"k": 2, "j_max": 6},
    "ideal_member": lambda: {"j": 4, "k": 2, "d": 2},
    "interval_quadrature_measures": lambda: {"family": _family(), "n": 3},
    "moment_point": lambda: {"t": Fraction(1, 2), "d": 3},
    "multinomial_parity": lambda: {"n": 4, "parts": [2, 2]},
    "solve_bisection": lambda: {"measures": _measures(), "k": 1},
    "surviving_monomials": lambda: {"j": 5, "k": 2, "d": 4},
    "verdict": lambda: {"d": 2, "j": 4, "k": 2},
    "well_separated_family": lambda: {"d": 3, "k": 3, "ell": 1},
}

REFUSED = [True, np.bool_(True), 2.0, 2.5, "2"]


def _integer_parameters(obj) -> list[str]:
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # exception classes have no signature
        return []
    return [p.name for p in params
            if (p.annotation if isinstance(p.annotation, str)
                else inspect.formatannotation(p.annotation))
            in INTEGER_ANNOTATIONS]


def _resolve(name: str):
    """An export, or a class method of one as "Class.method"."""
    obj = hyperbisect
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def _exported_callables() -> list[str]:
    names = [name for name in hyperbisect.__all__
             if name not in RECORDS and callable(getattr(hyperbisect, name))]
    methods = [f"{name}.{attr}" for name in names
               if inspect.isclass(getattr(hyperbisect, name))
               for attr, member in vars(getattr(hyperbisect, name)).items()
               if isinstance(member, classmethod) and not attr.startswith("_")]
    return names + methods


def _exported_integer_parameters() -> list[tuple[str, str]]:
    return [(name, param) for name in _exported_callables()
            for param in _integer_parameters(_resolve(name))]


CASES = _exported_integer_parameters()


def test_every_exported_integer_parameter_has_a_valid_call():
    uncovered = [(name, param) for name, param in CASES
                 if param not in VALID_CALLS.get(name, dict)()]
    assert uncovered == []
    assert {name for name, _ in CASES} == set(VALID_CALLS)
    assert all(name in hyperbisect.__all__ for name in RECORDS)


def _with(kwargs: dict, param: str, value) -> dict:
    """kwargs with param set to value; a list parameter gets it first."""
    old = kwargs[param]
    return {**kwargs, param: [value, *old[1:]] if isinstance(old, list)
            else value}


@pytest.mark.parametrize("name, param", CASES)
@pytest.mark.parametrize("bad", REFUSED, ids=repr)
def test_integer_parameter_refuses_bools_and_non_integers(name, param, bad):
    call = _resolve(name)
    with pytest.raises(ValueError, match="must be an integer"):
        call(**_with(VALID_CALLS[name](), param, bad))


@pytest.mark.parametrize("name, param", CASES)
def test_integer_parameter_takes_a_numpy_integer_as_its_int(name, param):
    call = _resolve(name)
    kwargs = VALID_CALLS[name]()
    old = kwargs[param]
    value = ([np.int64(x) for x in old] if isinstance(old, list)
             else np.int64(old))
    want = call(**kwargs)
    got = call(**{**kwargs, param: value})
    # pickles differ if a numpy integer is stored anywhere in the answer
    assert pickle.dumps(got) == pickle.dumps(want)


@pytest.mark.parametrize("value, least, message", [
    (-1, 0, "need n >= 0, got -1"),
    (np.int8(0), 1, "need n >= 1, got 0"),
    (False, None, "n must be an integer, got False"),
    (np.True_, 0, f"n must be an integer, got {np.True_!r}"),
    (Fraction(2), None, "n must be an integer, got Fraction(2, 1)"),
])
def test_integer_gate_messages(value, least, message):
    with pytest.raises(ValueError) as caught:
        _integer("n", value, least)
    assert str(caught.value) == message


def test_integer_gate_returns_plain_ints():
    for value in (0, 7, np.int64(7), np.uint8(7), 2**70):
        got = _integer("n", value, 0)
        assert type(got) is int and got == value
