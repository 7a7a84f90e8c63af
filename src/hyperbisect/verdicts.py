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

Certificates carry their parameters so a checker can re-derive the
claim; the preference order is HAM_SANDWICH, THM25_I, THM25_II,
THM1_IDEAL.
"""

from __future__ import annotations

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


@dataclass(slots=True)
class Certificate:
    kind: str
    d0: int | None = None
    a: int | None = None
    ell: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def _params(self) -> dict:
        """The parameters that are set, in their fixed order."""
        return {n: v for n, v in
                (("d0", self.d0), ("a", self.a), ("ell", self.ell))
                if v is not None}

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
    witness_d0: int | None = None

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


# Each criterion's least certificate at (j, k) as its parameters, d0 first
# (tuples: a frontier row keeps only d0), or None where it never fires.

def _least_thm25i(j: int, k: int) -> tuple[int, int] | None:
    """(d0, a) with d0 = j/k = 2^a, when j/k is a power of two."""
    if j % k:
        return None
    d0 = j // k
    return (d0, d0.bit_length() - 1) if is_power_of_two(d0) else None


def _least_thm25ii(j: int, k: int) -> tuple[int, int, int] | None:
    """(d0, a, ell) for odd k >= 3: j = 2^a*k + ell with
    1 <= ell <= 2^a - 1 puts j // k in [2^a, 2^(a+1)), so 2^a is its top
    bit, and a >= 1 needs j // k >= 2."""
    if k % 2 == 0 or k < 3 or j < 2 * k:
        return None
    a = (j // k).bit_length() - 1
    ell = j - (k << a)
    if not 1 <= ell <= (1 << a) - 1:
        return None
    return (1 << a) + ell, a, ell


def _least_thm1(j: int, k: int) -> tuple[int]:
    """(d0,): the power survives from d0 on."""
    return (least_surviving_d(j, k),)


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

    # each criterion is monotone in d: it applies from its least d0 on
    for kind, least_of in ((THM25_I, _least_thm25i),
                           (THM25_II, _least_thm25ii),
                           (THM1_IDEAL, _least_thm1)):
        least = least_of(j, k)
        if least is not None and least[0] <= d:
            return LambdaVerdict(d, j, k, Status.IN, Certificate(kind, *least),
                                 witness_d0=least[0])
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
    # every other criterion names its least d0 <= d as the witness
    if c.d0 is None or c.d0 > v.d or v.witness_d0 != c.d0:
        return False
    if c.kind == THM1_IDEAL:
        return _thm1_fires(c.d0, v.j, v.k)
    if c.kind == THM25_I:
        return _thm25i_fires(c.d0, v.j, v.k) == c.a
    if c.kind == THM25_II:
        return _thm25ii_fires(c.d0, v.j, v.k) == (c.a, c.ell)
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
    if k < 1 or j_max < 1:
        raise ValueError(f"need k >= 1 and j_max >= 1, got k={k}, j_max={j_max}")

    def cell(least: tuple[int, ...] | None) -> int | None:
        return None if least is None else least[0]

    rows = tuple(FrontierRow(j=j, d_conjecture=-(-j // k),
                             d_thm1=cell(_least_thm1(j, k)),
                             d_thm25i=cell(_least_thm25i(j, k)),
                             d_thm25ii=cell(_least_thm25ii(j, k)))
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
