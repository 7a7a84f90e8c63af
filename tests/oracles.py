"""Search oracles the closed forms in the package are tested against.

Imported by the test modules (pytest puts this directory on sys.path).
"""

from __future__ import annotations


def carry_free_composition(j: int, k: int, d: int) -> tuple[int, ...] | None:
    """A composition of j into k parts <= d whose binary digits are disjoint.

    Such a composition exists iff C(j; a) is odd for some admissible
    exponent vector, i.e. iff the truncated power of the variable sum is
    nonzero, i.e. iff gf2poly.ideal_member(j, k, d) is False.  Returns
    one witness or None.  Backtracking distributes the set bits of j over
    the parts, high bit first, pruning parts that exceed d; it knows
    nothing of the closed form it checks.
    """
    bits = [1 << b for b in range(j.bit_length()) if j >> b & 1]
    bits.reverse()
    parts = [0] * k

    def place(idx: int) -> bool:
        if idx == len(bits):
            return True
        bit = bits[idx]
        seen: set[int] = set()
        for i in range(k):
            if parts[i] in seen:
                continue  # identical prefixes only need one branch
            seen.add(parts[i])
            if parts[i] + bit > d:
                continue
            parts[i] += bit
            if place(idx + 1):
                return True
            parts[i] -= bit
        return False

    return tuple(parts) if place(0) else None
