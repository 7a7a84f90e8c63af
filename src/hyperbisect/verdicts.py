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
    dimension d0 read off the bits of j // k or of j, O(log j):
      THM25_I   j == d0*k with d0 a power of two, so d0 = j/k;
      THM25_II  j == (d0-ell)*k + ell with k odd, d0 = 2^a + ell,
                1 <= ell <= 2^a - 1, 2^a the top bit of j // k >= 2;
      THM1_IDEAL the j-th power of a k-fold variable sum survives
                truncation at degree d0, so d0 = 2^floor(log2 j) for
                k >= 2 (see gf2poly.least_surviving_d).
    A criterion's least certificate at (j, k) applies to (d, j, k) when
    its d0 <= d, and the certificate names that least d0.

A certificate is its kind and, for the three criteria, its least d0: a
checker re-derives the claim from (d, j, k) and d0, and THM25's a and
ell are read off d0 = 2^a + ell.  The preference order is HAM_SANDWICH,
THM25_I, THM25_II, THM1_IDEAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import _integer
from .gf2poly import ideal_member, least_surviving_d
from .parity import is_power_of_two


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


@dataclass(slots=True)
class Certificate:
    kind: str
    d0: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        d0 = self.d0
        if d0 is not None and not (type(d0) is int and d0 >= 1):
            self.d0 = _integer("d0", d0, 1)

    def _params(self) -> dict:
        """d0 and, for THM25, the a (and ell) of d0 = 2^a + ell."""
        if self.d0 is None or self.kind not in (THM25_I, THM25_II):
            return {} if self.d0 is None else {"d0": self.d0}
        a = self.d0.bit_length() - 1  # 2^a is d0's top bit
        if self.kind == THM25_I:
            return {"d0": self.d0, "a": a}
        return {"d0": self.d0, "a": a, "ell": self.d0 - (1 << a)}

    def __str__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in self._params().items())
        return f"{self.kind}({inner})" if inner else self.kind

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, **self._params()}


@dataclass(slots=True)
class LambdaVerdict:
    d: int
    j: int
    k: int
    status: Status
    certificate: Certificate

    def __post_init__(self) -> None:
        if self.status is Status.NOT_IN and (
                self.certificate.kind != MOMENT_CURVE_NECESSITY
                or self.d * self.k >= self.j):
            raise ValueError(f"NOT_IN at ({self.d}, {self.j}, {self.k}) "
                             f"with {self.certificate}")
        if self.status is Status.UNKNOWN and self.certificate.kind != NONE:
            raise ValueError(f"UNKNOWN with {self.certificate}")

    def to_jsonable(self) -> dict:
        out: dict = {"d": self.d, "j": self.j, "k": self.k,
                     "status": self.status.value,
                     "certificate": self.certificate.to_jsonable()}
        if self.status is Status.IN:  # HAM_SANDWICH applies from d = j
            out["witness_d0"] = self.certificate.d0 or self.j
        return out


def _thm25i_fires(d0: int, j: int, k: int) -> bool:
    """j == d0*k with d0 == 2^a."""
    return j == d0 * k and is_power_of_two(d0)


def _thm25ii_fires(d0: int, j: int, k: int) -> bool:
    """d0 = 2^a + ell splits so that j == 2^a*k + ell."""
    if k < 2 or k % 2 == 0 or d0 < 3 or is_power_of_two(d0):
        return False  # need ell >= 1, so d0 strictly between powers of two
    a = d0.bit_length() - 1
    ell = d0 - (1 << a)
    # d0 < 2^(a+1) guarantees 1 <= ell <= 2^a - 1
    return j == (1 << a) * k + ell


# Each THM25 criterion's least certificate dimension d0 at (j, k), or None
# where it never fires; THM1_IDEAL's is gf2poly.least_surviving_d.

def _least_thm25i(j: int, k: int) -> int | None:
    """d0 = j/k = 2^a, when j/k is a power of two."""
    if j % k:
        return None
    d0 = j // k
    return d0 if is_power_of_two(d0) else None


def _least_thm25ii(j: int, k: int) -> int | None:
    """d0 = 2^a + ell for odd k >= 3: j = 2^a*k + ell with
    1 <= ell <= 2^a - 1 puts j // k in [2^a, 2^(a+1)), so 2^a is its top
    bit, and a >= 1 needs j // k >= 2."""
    if k % 2 == 0 or k < 3 or j < 2 * k:
        return None
    a = (j // k).bit_length() - 1
    ell = j - (k << a)
    return (1 << a) + ell if 1 <= ell <= (1 << a) - 1 else None


def verdict(d: int, j: int, k: int) -> LambdaVerdict:
    """Decide (d, j, k) membership with a machine-checkable certificate;
    d, j and k are stored as ints, and a bool or non-integer is refused."""
    if not (type(d) is type(j) is type(k) is int  # plain ints skip the gate
            and d >= 1 and j >= 1 and k >= 1):
        d, j, k = _integer("d", d, 1), _integer("j", j, 1), _integer("k", k, 1)

    if d * k < j:
        return LambdaVerdict(d, j, k, Status.NOT_IN,
                             Certificate(MOMENT_CURVE_NECESSITY))

    if k == 1:
        # d >= j holds here because d*1 >= j survived the necessity test
        return LambdaVerdict(d, j, k, Status.IN, Certificate(HAM_SANDWICH))

    # each criterion is monotone in d: it applies from its least d0 on
    for kind, least_of in ((THM25_I, _least_thm25i),
                           (THM25_II, _least_thm25ii),
                           (THM1_IDEAL, least_surviving_d)):
        d0 = least_of(j, k)
        if d0 is not None and d0 <= d:
            return LambdaVerdict(d, j, k, Status.IN, Certificate(kind, d0))
    return LambdaVerdict(d, j, k, Status.UNKNOWN, Certificate(NONE))


def certificate_checks(v: LambdaVerdict) -> bool:
    """Re-derive the certificate's claim from scratch; a d, j, k or d0
    that is not a plain int never checks."""
    c = v.certificate
    if not (type(v.d) is type(v.j) is type(v.k) is int
            and (c.d0 is None or type(c.d0) is int)):
        return False
    if c.kind == MOMENT_CURVE_NECESSITY:
        return v.status is Status.NOT_IN and v.d * v.k < v.j
    if c.kind == NONE:
        return v.status is Status.UNKNOWN
    if v.status is not Status.IN:
        return False
    if c.kind == HAM_SANDWICH:
        return v.k == 1 and v.d >= v.j and c.d0 is None
    # every other criterion names its least d0 <= d as the witness
    if c.d0 is None or c.d0 > v.d:
        return False
    if c.kind == THM1_IDEAL:
        return not ideal_member(v.j, v.k, c.d0)
    if c.kind == THM25_I:
        return _thm25i_fires(c.d0, v.j, v.k)
    if c.kind == THM25_II:
        return _thm25ii_fires(c.d0, v.j, v.k)
    return False


@dataclass(slots=True)
class FrontierRow:
    """Minimal dimensions, per criterion, at which (d, j, k) becomes IN."""

    j: int
    d_conjecture: int
    d_thm1: int | None
    d_thm25i: int | None
    d_thm25ii: int | None

    def __post_init__(self) -> None:
        for dd in (self.d_thm1, self.d_thm25i, self.d_thm25ii):
            if dd is not None and dd < self.d_conjecture:
                raise ValueError(f"row j={self.j}: cell {dd} sits below "
                                 f"d_conjecture {self.d_conjecture}")


@dataclass(slots=True)
class FrontierTable:
    k: int
    j_max: int
    rows: tuple[FrontierRow, ...]


def frontier_table(k: int, j_max: int) -> FrontierTable:
    """Minimal certifying dimension per criterion for j = 1..j_max.

    A cell is absent when the criterion certifies nothing at (j, k);
    every least d0 is at most j.  d_conjecture = ceil(j/k) is the
    necessity floor, conjecturally tight.
    """
    k, j_max = _integer("k", k, 1), _integer("j_max", j_max, 1)

    rows = tuple(FrontierRow(j=j, d_conjecture=-(-j // k),
                             d_thm1=least_surviving_d(j, k),
                             d_thm25i=_least_thm25i(j, k),
                             d_thm25ii=_least_thm25ii(j, k))
                 for j in range(1, j_max + 1))
    return FrontierTable(k=k, j_max=j_max, rows=rows)


def frontier_csv(table: FrontierTable) -> str:
    lines = ["j,d_conjecture,d_thm1,d_thm25i,d_thm25ii"]
    for r in table.rows:
        cells = [str(r.j), str(r.d_conjecture)]
        for dd in (r.d_thm1, r.d_thm25i, r.d_thm25ii):
            cells.append("" if dd is None else str(dd))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def frontier_json(table: FrontierTable) -> str:
    import json

    payload = {
        "k": table.k,
        "j_max": table.j_max,
        "rows": [
            {"j": r.j, "d_conjecture": r.d_conjecture, "d_thm1": r.d_thm1,
             "d_thm25i": r.d_thm25i, "d_thm25ii": r.d_thm25ii}
            for r in table.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
