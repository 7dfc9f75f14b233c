"""Building half twist algebras from superalgebras.

The five diagram weights (node, cap, cup, crossing, twist) plus the vertex
scalar come packaged in a HalfTwistAlgebra.  This script builds the three
basic families and combines them.
"""

from halftwist import (
    build_clifford_complex,
    build_clifford_real,
    build_matrix,
    direct_sum,
    parse_algebra,
    supertensor,
)

a = build_clifford_real(1, 0)
print("Rank-one Clifford algebra:", a)
print("  basis   ", a.labels)
print("  parity  ", a.parity)
print("  cap     ", {k: repr(v) for k, v in sorted(a.cap.items())})
print("  twist   ", {k: repr(v) for k, v in sorted(a.twist.items())})
print("  vertex weight R =", a.vertex_weight)

print("  unit     =", a.unit())
print("  counit   =", [repr(a.counit(a.basis_element(x))) for x in range(a.dim)])
print("  nakayama =", {k: repr(v) for k, v in sorted(a.nakayama().items())}, "(trivial)")

print()
c = build_clifford_complex(1)
print("Complex Clifford algebra as a real superalgebra:", c)
print("  basis ", c.labels)
print("  twist ", {c.labels[x]: repr(v) for (x, _), v in sorted(c.twist.items())})

print()
m = build_matrix(1, 1)
print("Matrix superalgebra with one even and one odd row:", m)
e12 = m.basis_element(m.index_of_label("e12"))
e21 = m.basis_element(m.index_of_label("e21"))
print("  e12 * e21 =", e12 * e21)
print("  e21 * e12 =", e21 * e12)
print("  unit      =", m.unit())

print()
t = supertensor(a, a)
g1 = t.basis_element(t.index_of_label("G1*1"))
g2 = t.basis_element(t.index_of_label("1*G1"))
print("Graded tensor square of the rank-one algebra:", t)
print("  (G1*1)(1*G1) =", g1 * g2)
print("  (1*G1)(G1*1) =", g2 * g1, " (the Koszul sign)")

s = direct_sum(a, build_clifford_real(0, 1))
print()
print("Direct sum with the opposite signature:", s)
print("  basis", s.labels)

print()
print("The same constructions through the spec grammar:")
for spec in ("cl(2,0)", "clc(1)", "mat(2|1)", "cl(1,0) (x) mat(1|1)",
             "cl(1,0)@alpha=z-z^3"):
    alg = parse_algebra(spec)
    print(f"  {spec:24s} dim {alg.dim:3d}  alpha {alg.alpha!r}")
