"""Membership verdicts for the bisection triples (d, j, k).

A triple is "in" when any j nice measures on R^d can be simultaneously
bisected by some arrangement of k affine hyperplanes (the union of the
hyperplanes splits every measure in half).  The engine decides what it
can and says UNKNOWN otherwise:

  * necessity: an arrangement restricted to a degree-d moment curve cuts
    each hyperplane at most d times, so d*k >= j is required; d*k < j is
    a definite NO.
  * k = 1, d >= j is the classical ham-sandwich YES.
  * sufficiency criteria, each monotone in d and each firing from a least
    dimension d0 computed in closed form, O(log j):
      THM25_I   j == d0*k with d0 a power of two, so d0 = j/k;
      THM25_II  j == (d0-ell)*k + ell with k odd, d0 = 2^a + ell,
                a >= 1, 1 <= ell <= 2^a - 1: a short scan over a;
      THM1_IDEAL the j-th power of a k-fold variable sum survives
                truncation at degree d0, so d0 = 2^floor(log2 j) for
                k >= 2 (see gf2poly.least_surviving_d).
    A criterion applies to (d, j, k) when its d0 <= d, and the
    certificate names that least d0.

Certificates carry their parameters so a checker can re-derive the
claim; the preference order is HAM_SANDWICH, THM25_I, THM25_II,
THM1_IDEAL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .gf2poly import ideal_member, least_surviving_d


class Status(Enum):
    IN = "IN"
    NOT_IN = "NOT_IN"
    UNKNOWN = "UNKNOWN"

    def __str__(self) -> str:
        return self.value


# certificate kinds, fixed interface tokens
HAM_SANDWICH = "HAM_SANDWICH"
THM1_IDEAL = "THM1_IDEAL"
THM25_I = "THM25_I"
THM25_II = "THM25_II"
MOMENT_CURVE_NECESSITY = "MOMENT_CURVE_NECESSITY"
NONE = "NONE"

_KINDS = (HAM_SANDWICH, THM1_IDEAL, THM25_I, THM25_II,
          MOMENT_CURVE_NECESSITY, NONE)


@dataclass(frozen=True)
class Certificate:
    kind: str
    d0: int | None = None
    a: int | None = None
    ell: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def __str__(self) -> str:
        params = [(n, v) for n, v in
                  (("d0", self.d0), ("a", self.a), ("ell", self.ell))
                  if v is not None]
        if not params:
            return self.kind
        inner = ", ".join(f"{n}={v}" for n, v in params)
        return f"{self.kind}({inner})"

    def to_jsonable(self) -> dict:
        out: dict = {"kind": self.kind}
        for name, value in (("d0", self.d0), ("a", self.a), ("ell", self.ell)):
            if value is not None:
                out[name] = value
        return out


@dataclass(frozen=True)
class LambdaVerdict:
    d: int
    j: int
    k: int
    status: Status
    certificate: Certificate
    witness_d0: int | None = None

    def __post_init__(self) -> None:
        if self.status is Status.NOT_IN:
            assert self.certificate.kind == MOMENT_CURVE_NECESSITY
            assert self.d * self.k < self.j
        if self.status is Status.UNKNOWN:
            assert self.certificate.kind == NONE

    def to_jsonable(self) -> dict:
        out: dict = {"d": self.d, "j": self.j, "k": self.k,
                     "status": self.status.value,
                     "certificate": self.certificate.to_jsonable()}
        if self.witness_d0 is not None:
            out["witness_d0"] = self.witness_d0
        return out


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _thm25i_fires(d0: int, j: int, k: int) -> int | None:
    """Exponent a when j == d0*k and d0 == 2^a, else None."""
    if j == d0 * k and is_power_of_two(d0):
        return d0.bit_length() - 1
    return None


def _thm25ii_fires(d0: int, j: int, k: int) -> tuple[int, int] | None:
    """(a, ell) when d0 = 2^a + ell splits so that j == 2^a*k + ell."""
    if k < 2 or k % 2 == 0:
        return None
    if d0 < 3 or is_power_of_two(d0):
        return None  # need ell >= 1, so d0 strictly between powers of two
    a = d0.bit_length() - 1
    ell = d0 - (1 << a)
    # d0 < 2^(a+1) guarantees 1 <= ell <= 2^a - 1
    if j == (1 << a) * k + ell:
        return a, ell
    return None


def _thm1_fires(d0: int, j: int, k: int) -> bool:
    return not ideal_member(j, k, d0)


def verdict(d: int, j: int, k: int) -> LambdaVerdict:
    """Decide (d, j, k) membership with a machine-checkable certificate."""
    if d < 1 or j < 1 or k < 1:
        raise ValueError(f"need d, j, k >= 1, got ({d}, {j}, {k})")

    if d * k < j:
        return LambdaVerdict(d, j, k, Status.NOT_IN,
                             Certificate(MOMENT_CURVE_NECESSITY))

    if k == 1:
        # d >= j holds here because d*1 >= j survived the necessity test
        return LambdaVerdict(d, j, k, Status.IN, Certificate(HAM_SANDWICH),
                             witness_d0=j)

    d0 = _min_d_thm25i(j, k, d)
    if d0 is not None:
        return LambdaVerdict(d, j, k, Status.IN,
                             Certificate(THM25_I, d0=d0,
                                         a=_thm25i_fires(d0, j, k)),
                             witness_d0=d0)
    d0 = _min_d_thm25ii(j, k, d)
    if d0 is not None:
        a, ell = _thm25ii_fires(d0, j, k)
        return LambdaVerdict(d, j, k, Status.IN,
                             Certificate(THM25_II, d0=d0, a=a, ell=ell),
                             witness_d0=d0)
    # membership is monotone in d, so one query at d decides THM1
    if _thm1_fires(d, j, k):
        d0 = least_surviving_d(j, k)
        return LambdaVerdict(d, j, k, Status.IN,
                             Certificate(THM1_IDEAL, d0=d0),
                             witness_d0=d0)

    return LambdaVerdict(d, j, k, Status.UNKNOWN, Certificate(NONE))


def certificate_checks(v: LambdaVerdict) -> bool:
    """Re-derive the certificate's claim from scratch."""
    c = v.certificate
    if c.kind == MOMENT_CURVE_NECESSITY:
        return v.status is Status.NOT_IN and v.d * v.k < v.j
    if c.kind == NONE:
        return v.status is Status.UNKNOWN
    if v.status is not Status.IN:
        return False
    if c.kind == HAM_SANDWICH:
        return v.k == 1 and v.d >= v.j and v.witness_d0 == v.j
    if c.kind == THM1_IDEAL:
        return (c.d0 is not None and c.d0 <= v.d
                and _thm1_fires(c.d0, v.j, v.k) and v.witness_d0 == c.d0)
    if c.kind == THM25_I:
        return (c.d0 is not None and c.d0 <= v.d
                and _thm25i_fires(c.d0, v.j, v.k) == c.a
                and v.witness_d0 == c.d0)
    if c.kind == THM25_II:
        return (c.d0 is not None and c.d0 <= v.d
                and _thm25ii_fires(c.d0, v.j, v.k) == (c.a, c.ell)
                and v.witness_d0 == c.d0)
    return False


@dataclass(frozen=True)
class FrontierRow:
    """Minimal dimensions, per criterion, at which (d, j, k) becomes IN."""

    j: int
    d_conjecture: int
    d_thm1: int | None
    d_thm25i: int | None
    d_thm25ii: int | None

    def __post_init__(self) -> None:
        for dd in (self.d_thm1, self.d_thm25i, self.d_thm25ii):
            assert dd is None or dd >= self.d_conjecture


@dataclass(frozen=True)
class FrontierTable:
    k: int
    j_max: int
    search_bound: int | None  # None means the per-row default 4*j
    rows: tuple[FrontierRow, ...]


def _min_d_thm1(j: int, k: int, bound: int) -> int | None:
    d = least_surviving_d(j, k)
    return d if d <= bound else None


def _min_d_thm25i(j: int, k: int, bound: int) -> int | None:
    if j % k:
        return None
    d = j // k
    if is_power_of_two(d) and 1 <= d <= bound:
        return d
    return None


def _min_d_thm25ii(j: int, k: int, bound: int) -> int | None:
    if k < 3 or k % 2 == 0:
        return None
    # 1 <= ell = j - 2^a*k <= 2^a - 1 means 2^a*k < j < 2^a*(k+1); these
    # ranges are disjoint for distinct a, so at most one a qualifies
    a = 1
    while (1 << a) * k + 1 <= j:
        ell = j - (1 << a) * k
        if ell <= (1 << a) - 1:
            d = (1 << a) + ell
            return d if d <= bound else None
        a += 1
    return None


def frontier_table(k: int, j_max: int,
                   d_search_bound: int | None = None) -> FrontierTable:
    """Minimal certifying dimension per criterion for j = 1..j_max.

    A cell is absent when the criterion certifies nothing up to the
    search bound (default 4*j per row).  d_conjecture = ceil(j/k) is the
    necessity floor, conjecturally tight.
    """
    if k < 1 or j_max < 1:
        raise ValueError(f"need k >= 1 and j_max >= 1, got k={k}, j_max={j_max}")
    if d_search_bound is not None and d_search_bound < 1:
        raise ValueError(f"search bound must be >= 1, got {d_search_bound}")
    rows = []
    for j in range(1, j_max + 1):
        bound = d_search_bound if d_search_bound is not None else 4 * j
        rows.append(FrontierRow(
            j=j,
            d_conjecture=math.ceil(j / k),
            d_thm1=_min_d_thm1(j, k, bound),
            d_thm25i=_min_d_thm25i(j, k, bound),
            d_thm25ii=_min_d_thm25ii(j, k, bound),
        ))
    return FrontierTable(k=k, j_max=j_max, search_bound=d_search_bound,
                         rows=tuple(rows))


def frontier_csv(table: FrontierTable) -> str:
    lines = ["j,d_conjecture,d_thm1,d_thm25i,d_thm25ii"]
    for r in table.rows:
        cells = [str(r.j), str(r.d_conjecture)]
        for dd in (r.d_thm1, r.d_thm25i, r.d_thm25ii):
            cells.append("" if dd is None else str(dd))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def frontier_json(table: FrontierTable) -> str:
    payload = {
        "k": table.k,
        "j_max": table.j_max,
        "search_bound": table.search_bound,
        "rows": [
            {"j": r.j, "d_conjecture": r.d_conjecture, "d_thm1": r.d_thm1,
             "d_thm25i": r.d_thm25i, "d_thm25ii": r.d_thm25ii}
            for r in table.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
