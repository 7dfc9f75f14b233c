"""Closed-surface partition functions, cross-checked two ways.

A surface is a pin-surface presentation: a connect sum of tori and crosscaps
with the q-values of its basis cycles.  For the Clifford family the
tensor-network state sum must reproduce the Euler-weighted Gauss sum of the
same presentation exactly, on the library surfaces and on any presentation
literal.  The doubled complex theory instead vanishes on every nonorientable
surface.
"""

from halftwist import (
    LIBRARY_SURFACES,
    SQRT2,
    abk,
    build_clifford_real,
    moebius_state,
    parse_algebra,
    parse_surface,
    partition_function,
    state_space,
)

a = parse_algebra("cl(1,0)")
print("Root theory (rank-one Clifford algebra), alpha = 1:")
print(f"  {'surface':12s} {'state sum':>10s} {'oracle':>10s}")
for s in LIBRARY_SURFACES:
    p = parse_surface(s)
    z = partition_function(a, p)
    oracle = abk(p)
    mark = "ok" if z == oracle else "MISMATCH"
    print(f"  {s:12s} {z!r:>10} {oracle!r:>10}  {mark}")

print()
print("With alpha = sqrt(2) the Euler term scales each value by alpha^chi:")
a2 = build_clifford_real(1, 0, SQRT2)
for s in LIBRARY_SURFACES[:3]:
    pres = parse_surface(s)
    z = partition_function(a2, pres)
    print(f"  {s:12s} chi={pres.euler_characteristic:+d}   Z = {z!r}")

print()
print("Any presentation literal is a surface too; at alpha = -1:")
a3 = parse_algebra("cl(1,0)@alpha=-1")
for s in ("g=1,c=1,q=[2,2|1]", "g=2,c=0,q=[0,2;2,2|]", "g=0,c=3,q=[|1,3,3]"):
    pres = parse_surface(s)
    z = partition_function(a3, pres)
    oracle = a3.alpha ** pres.euler_characteristic * abk(pres)
    mark = "ok" if z == oracle else "MISMATCH"
    print(f"  {s:22s} Z = {z!r:>6}   alpha^chi * ABK = {oracle!r:>6}  {mark}")

print()
c = parse_algebra("clc(1)")
print("The doubled complex theory: zero off orientable surfaces,")
print("twice the Arf sign on tori:")
for s in LIBRARY_SURFACES:
    print(f"  {s:12s} {partition_function(c, parse_surface(s))!r}")
print("  NS space:", state_space(c, "NS"))
print("  R space: ", state_space(c, "R"))

print()
print("Crosscap states close up to the projective-plane values:")
m1 = moebius_state(a, 1)
print("  capped crosscap =", m1)
print("  R * counit      =", a.vertex_weight * a.counit(m1))
