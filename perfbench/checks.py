"""Output checks the benchmark applies to every operation.

Each check takes the operation's inputs and what the program returned and
says whether the output is right.  They re-derive what they can on their
own: the arrangement count from binomial coefficients, the solver's
imbalance from exact rational signs.  Library functions they call are
bound here at import time, before any tracing wraps the modules, so checks
never show up as spans.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hyperbisect.gf2poly import ideal_member
from hyperbisect.momentcurve import GenericityWarning, count_bisections
from hyperbisect.verdicts import Status, certificate_checks


def verdict_ok(d: int, j: int, k: int, v) -> bool:
    """The verdict is for (d, j, k), its certificate re-derives, and
    NOT_IN appears exactly when d*k < j."""
    if (v.d, v.j, v.k) != (d, j, k):
        return False
    if (v.status is Status.NOT_IN) != (d * k < j):
        return False
    return certificate_checks(v)


def frontier_rows_ok(table, k: int, j_max: int) -> bool:
    """Every row's floor is ceil(j/k) and its THM1 cell is the least d at
    which the truncated power stops being an ideal member."""
    if (table.k, table.j_max, len(table.rows)) != (k, j_max, j_max):
        return False
    for j, row in enumerate(table.rows, start=1):
        if row.j != j or row.d_conjecture != -(-j // k):
            return False
        d1 = row.d_thm1
        if d1 is not None and (ideal_member(j, k, d1)
                               or (d1 > 1 and not ideal_member(j, k, d1 - 1))):
            return False
        for dd in (row.d_thm1, row.d_thm25i, row.d_thm25ii):
            if dd is not None and dd < row.d_conjecture:
                return False
    return True


def expected_arrangements(d: int, k: int, ell: int) -> int:
    """Ways to split the midpoints into the blocks the construction uses.

    Unanchored: j = d*k midpoints into k unordered blocks of d.  Anchored:
    a free block of d among j = (d-ell)*k + ell, the rest into k-1
    unordered blocks of d-ell.
    """
    if ell == 0:
        j, size, blocks, count = d * k, d, k, 1
    else:
        j = (d - ell) * k + ell
        count = math.comb(j, d)
        j, size, blocks = j - d, d - ell, k - 1
    for i in range(blocks):
        count *= math.comb(j - i * size, size)
    return count // math.factorial(blocks)


def arrangements_ok(d: int, k: int, ell: int, arrangements, caught) -> bool:
    """Count equals the multinomial product and count_bisections, all
    arrangements are distinct, and no GenericityWarning was raised."""
    if any(issubclass(w.category, GenericityWarning) for w in caught):
        return False
    n = len(arrangements)
    if n != expected_arrangements(d, k, ell) or n != count_bisections(d, k, ell):
        return False
    return len({a.sort_key() for a in arrangements}) == n


def exact_relative_imbalances(measures, directions) -> list[Fraction]:
    """|sum of weight * sign(prod_i <(x, 1), w_i>)| / total, per measure,
    in exact rational arithmetic on the float inputs."""
    W = [[Fraction(float(c)) for c in row] for row in directions]
    out = []
    for m in measures:
        imbalance = Fraction(0)
        total = Fraction(0)
        for x, weight in zip(m.points, m.weights):
            xs = [Fraction(float(c)) for c in x]
            sign = 1
            for row in W:
                value = sum((u * c for u, c in zip(row, xs)), row[-1])
                if value == 0:
                    sign = 0
                    break
                if value < 0:
                    sign = -sign
            weight = Fraction(float(weight))
            imbalance += sign * weight
            total += weight
        out.append(abs(imbalance) / total)
    return out


def solve_ok(result, measures, k: int, certified_in: bool,
             tolerance: float) -> bool:
    """A SUCCESS must re-check exactly within tolerance; an instance that is
    not certified IN must come back NOT_FOUND."""
    if not result.success:
        return result.status == "NOT_FOUND"
    if not certified_in or result.directions is None:
        return False
    if len(result.directions) != k:
        return False
    limit = Fraction(tolerance)
    return all(r <= limit for r in
               exact_relative_imbalances(measures, result.directions))
