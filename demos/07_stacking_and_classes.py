"""Stacking, decomposition, and the eight invertible classes.

Stacking theories is the graded tensor product of their algebras, direct
sums decompose, and matrix algebras act as the unit.  Among the unitary
theories the invertible ones form a cyclic ladder of order eight, read off
from the projective-plane value.
"""

from halftwist import (
    LIBRARY_SURFACES,
    classify_invertible,
    parse_algebra,
    parse_surface,
    partition_function,
    stacking_check,
    supertensor,
)

print("Stacking the root theory with its mirror is multiplicative")
print("on every library surface:")
report = stacking_check(parse_algebra("cl(1,0)"), parse_algebra("cl(0,1)"))
print(report.render_text())

print()
print("The invertible ladder: one class per signature mod 8.")
for n in range(8):
    alg = parse_algebra(f"cl({n},0)")
    result = classify_invertible(alg)
    z = partition_function(alg, parse_surface("rp2:1"))
    print(f"  cl({n},0): dim {alg.dim:3d}   Z(rp2:1) = {z!r:>8}   {result.render()}")

print()
print("Stacking with a matrix algebra does not move the class:")
for spec in ("cl(1,0)", "cl(3,0)"):
    base = classify_invertible(parse_algebra(spec))
    stacked = classify_invertible(
        supertensor(parse_algebra(spec), parse_algebra("mat(1|1)"))
    )
    print(f"  {spec} : k = {base.k}   after stacking mat(1|1): k = {stacked.k}")

print()
print("The doubled complex theory is not invertible (two-dimensional")
print("state spaces):", classify_invertible(parse_algebra("clc(1)")).render())

print()
print("Direct sums add partition functions:")
a = parse_algebra("cl(1,0)")
b = parse_algebra("cl(0,1)")
s = parse_algebra("cl(1,0) (+) cl(0,1)")
for surf in LIBRARY_SURFACES[:4]:
    za, zb, zs = (partition_function(x, parse_surface(surf)) for x in (a, b, s))
    print(f"  {surf:12s} {za!r} + {zb!r} = {zs!r}")
