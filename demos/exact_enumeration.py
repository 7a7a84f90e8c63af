"""
Enumerating all bisecting arrangements, exactly
===============================================

Interval measures strung along the binomial moment curve
t -> (C(t,1), ..., C(t,d)) are rigid enough that every bisecting
arrangement is forced to cut each interval at its midpoint.  That turns
"find all bisections" into finite combinatorics: partition the midpoints
into blocks and pass one hyperplane through each block.  The hyperplane
through a block's midpoints meets the curve there and nowhere else, so
the enumeration checks nothing; below, verify_bisection re-checks every
arrangement in exact rational arithmetic with Sturm sequences.
"""

from fractions import Fraction

from hyperbisect import (Parity, anchored_blocks_parity, count_bisections,
                         curve_restriction, enumerate_bisections,
                         equal_blocks_parity, moment_point, verify_bisection,
                         well_separated_family)

# d = 2, k = 2, four intervals: each hyperplane must absorb two of the
# four midpoints, so there are C(4;2,2)/2! = 3 unordered pairings.
fam = well_separated_family(d=2, k=2)
print("interval endpoints:", [str(t) for t in fam.parameters])
print("midpoints:         ", [str(m) for m in fam.midpoints()])

arrs = enumerate_bisections(fam, k=2)
print(f"\n{len(arrs)} bisecting arrangements (closed form: "
      f"{count_bisections(2, 2)})")
for arr in arrs:
    for h in arr.hyperplanes:
        # the restriction to the curve is a degree-2 polynomial whose
        # roots are exactly the two midpoints this hyperplane consumed
        coeffs = curve_restriction(h)
        print("   normal", tuple(str(c) for c in h.normal),
              "offset", h.offset, "| restriction", tuple(map(str, coeffs)))
    assert verify_bisection(arr, fam)
    print()

# The anchored variant: with ell = 1, every arrangement sends k - 1 of
# its hyperplanes through the fixed curve point at t = 0.
fam_anchored = well_separated_family(d=2, k=3, ell=1)
anchor = moment_point(Fraction(0), 2)
arrs_anchored = enumerate_bisections(fam_anchored, k=3)
print(f"anchored case (2,3,1): {len(arrs_anchored)} arrangements "
      f"(closed form: {count_bisections(2, 3, 1)})")
through_anchor = sum(
    sum(h.value(anchor) == 0 for h in arr.hyperplanes) == 2
    for arr in arrs_anchored)
print(f"arrangements with exactly 2 hyperplanes through the anchor: "
      f"{through_anchor}")

# Parity bridge: the parity of these counts is what the power-of-two
# certificates consume -- an odd count here is the combinatorial shadow
# of a topological obstruction there.
for d, k, ell in [(2, 2, 0), (2, 3, 0), (2, 3, 1), (3, 3, 1)]:
    n = count_bisections(d, k, ell)
    par = (equal_blocks_parity(d, k) if ell == 0
           else anchored_blocks_parity(d, k, ell))
    print(f"count({d},{k},ell={ell}) = {n:3d}  -> {par.name}")
    assert (n % 2 == 1) == (par is Parity.ODD)
