"""State spaces, projectors, and closed-surface partition functions.

The NS circle state space is the twisted center cut out by

    m(b (x) a) = m(crossing(b (x) a))            for all b,

and the R circle replaces b by its parity image on the left factor.  Both are
solved exactly as linear systems; for algebras built by the superalgebra
constructors it is enough to let b run over a stored generating set, since
the defining condition propagates over products of homogeneous generators.

A closed pin surface is a `PinSurfacePresentation`: a connect sum of g tori
and c crosscaps with the q-values of its basis cycles.  The partition
function picks its exact route from (g, c):

    (0, 0), (0, 1)   sphere, projective planes   by a twisted cup and the cap
    (1, 0)           tori                        by a state space (super)dimension
    anything else    connect sums                by multiplying capped-off states

and every value can be cross-checked against the Gauss-sum oracle in pingeo.
The twisted cup B^ab (tau^k)_b^c carries k half twists on its right leg:
Z(rp2:k) = R sum B^ab (tau^k)_b^c B_ac, Z(sphere) = R^2 sum B^ab B_ab; closed
with the product instead of the cap, it is the Moebius state.
A torus is the trace over the circle state space V_e of its first cycle,
twisted by the parity when the second cycle is R: Z(e, NS) = dim V_e and
Z(e, R) = sdim V_e = dim V_e^even - dim V_e^odd.  A handle state, read off
V_e as Moore-Segal's element sum_i s_i v_i v^i, closes to that trace.  A
connect sum multiplies the handle states of its tori and the Moebius states
of its crosscaps, starting from the first factor, and closes the product
with the counit; the unit enters only through the counit and as the empty
product, the sphere.  The cylinder projector onto V_e is an oracle that no
route calls.  Nothing here needs a star structure or a positive alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .cyclo import CycloNum, ZERO, zeta_log, real_sqrt
from .linalg import SparseTensor, einsum, mat_invert, nullspace, row_reduce, scale
from .pingeo import PinSurfacePresentation, parse_presentation
from .ribbon import LinearBlock
from .superalgebra import AlgebraElement, HalfTwistAlgebra, supertensor

__all__ = [
    "StateSpace",
    "ClassifyResult",
    "StackingReport",
    "LIBRARY_SURFACES",
    "state_space",
    "projector",
    "partition_function",
    "moebius_state",
    "handle_state",
    "connect_sum_pf",
    "classify_invertible",
    "stacking_check",
    "parse_surface",
]

SECTORS = ("NS", "R")


@dataclass(frozen=True)
class StateSpace:
    """Graded circle state space: a basis of the twisted center with
    parities."""

    sector: str
    basis: tuple[AlgebraElement, ...]
    parities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def even_dim(self) -> int:
        return sum(1 for p in self.parities if p == 0)

    @property
    def odd_dim(self) -> int:
        return sum(1 for p in self.parities if p == 1)

    def as_supervector(self) -> tuple[int, int]:
        return (self.even_dim, self.odd_dim)

    def __repr__(self):
        return f"StateSpace({self.sector}, C^({self.even_dim}|{self.odd_dim}))"


# The library surfaces, as literals of `parse_surface`.
LIBRARY_SURFACES: tuple[str, ...] = (
    "sphere", "rp2:1", "rp2:3",
    "torus:ns,ns", "torus:ns,r", "torus:r,ns", "torus:r,r",
    "klein:1,1", "klein:1,3", "klein:3,1", "klein:3,3",
)
# Torus cycle letters and their basis q-values.
_TORUS_Q = {"ns": 0, "r": 2}


def parse_surface(text: str) -> PinSurfacePresentation:
    """Parse a surface literal into its connect-sum presentation.

    The library names are "sphere", "rp2:k", "torus:e1,e2", "klein:k,l" and
    "csum:k,..", with k in {1, 3} and e in {ns, r}; a torus cycle NS has
    q = 0 and R has q = 2.  Case and whitespace are ignored.  Any other
    text is read as a presentation literal "g=..,c=..,q=[..]".
    """
    name = "".join(text.split()).lower()
    head, _, rest = name.partition(":")
    values = rest.split(",")
    if name == "sphere":
        return PinSurfacePresentation((), ())
    if head == "torus" and len(values) == 2 and all(v in _TORUS_Q for v in values):
        return PinSurfacePresentation(((_TORUS_Q[values[0]], _TORUS_Q[values[1]]),), ())
    odd = all(v in ("1", "3") for v in values)
    if odd and (head == "csum" or (head, len(values)) in (("rp2", 1), ("klein", 2))):
        return PinSurfacePresentation((), tuple(int(v) for v in values))
    if head in ("sphere", "rp2", "torus", "klein", "csum"):
        raise ValueError(f"bad surface literal {text!r}")
    return parse_presentation(name)


def _sector_rows(a: HalfTwistAlgebra, sector: str):
    """Sparse rows of the twisted-center system, one per (b, output).

    b runs over a.generators, or over the whole basis when that is None.
    The first operand of the right-hand side, the crossing for NS and the
    full twist for R, is cut down to those b before it is contracted, so no
    row outside them is ever formed.
    """
    gens = set(a.generators if a.generators is not None else range(a.dim))
    product = a.product_tensor()  # entries (b, a, x) for m(b (x) a)
    if sector == "NS":
        crossing = {k: v for k, v in a.crossing.items() if k[0] in gens}
        right = einsum("bacd,cdx->bax", crossing, product)
    elif sector == "R":
        twist = {k: v for k, v in a.full_twist().items() if k[0] in gens}
        right = einsum("bp,pacd,cdx->bax", twist, a.crossing, product)
    else:
        raise ValueError(f"unknown sector {sector!r} (expected NS or R)")
    rows: dict[tuple[int, int], dict[int, CycloNum]] = {}
    for (b, x_a, x), v in product.items():
        if b in gens:
            rows.setdefault((b, x), {})[x_a] = v
    for (b, x_a, x), v in right.items():
        row = rows.setdefault((b, x), {})
        row[x_a] = row.get(x_a, ZERO) - v
    return rows


def state_space(a: HalfTwistAlgebra, sector: str) -> StateSpace:
    """Solve the twisted-center condition and split the solutions by parity.

    The full twist phi acts on the solutions as the parity; each solution v
    splits as (v + phi v)/2 + (v - phi v)/2, and the basis of each parity is
    the reduced echelon form of the span of its parts.
    """
    raw_basis = nullspace(_sector_rows(a, sector).values(), a.dim)
    raw = {(i, x): v for i, vec in enumerate(raw_basis) for x, v in vec.items()}
    # Halving a vector changes no span, so the parts are left unhalved.
    evens = [dict(vec) for vec in raw_basis]
    odds = [dict(vec) for vec in raw_basis]
    for (i, y), v in einsum("ix,xy->iy", raw, a.full_twist()).items():
        evens[i][y] = evens[i].get(y, ZERO) + v
        odds[i][y] = odds[i].get(y, ZERO) - v

    even_rows = row_reduce(evens)
    odd_rows = row_reduce(odds)
    if len(even_rows) + len(odd_rows) != len(raw_basis):
        raise ValueError(
            "state space is not parity homogeneous; algebra is outside the "
            "graded class this solver supports"
        )
    basis = []
    parities = []
    for parity, rows in enumerate((even_rows, odd_rows)):
        for p in sorted(rows):
            basis.append(AlgebraElement(a, {(c,): v for c, v in rows[p].items()}))
            parities.append(parity)
    return StateSpace(sector, tuple(basis), tuple(parities))


def projector(a: HalfTwistAlgebra, sector: str) -> LinearBlock:
    """Projection onto the sector state space, as a 1 -> 1 block.

    This is the cylinder map of the state sum (Fukuma-Hosono-Kawai for
    lattice TFT, Barrett-Tavares for spin state sums):

        P_e(x) = R sum_ab B^ab e_a . m(crossing(e'_b (x) x)),

    with e'_b = e_b for NS and phi(e_b) for R; entry (x, y) is the e_y
    coefficient of P_e(e_x).  The graded sign comes from the crossing, not
    from the parities.  P_e fixes every state and its image is the state
    space, so it is idempotent with trace dim V_e.  It needs no star map
    and no positive alpha; for the constructor algebras at positive alpha
    it is the orthogonal projection for <x, y> = eta(star x, y).  No
    surface route calls it; it is an oracle for the handle states.
    """
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector!r} (expected NS or R)")
    cup = a.cup if sector == "NS" else einsum("ab,bp->ap", a.cup, a.full_twist())
    product = a.product_tensor()
    table = einsum("ab,bxcd,cdf,afy->xy", cup, a.crossing, product, product)
    return LinearBlock(1, 1, scale(table, a.vertex_weight))


def _twisted_cup(a: HalfTwistAlgebra, k: int) -> SparseTensor:
    """B^ab (tau^k)_b^c: the cup with k half twists on its right leg."""
    cup = a.cup
    for _ in range(k):
        cup = einsum("ab,bc->ac", cup, a.twist)
    return cup


def moebius_state(a: HalfTwistAlgebra, k: int) -> AlgebraElement:
    """The capped-off crosscap: product . (id (x) twist^k) . cup."""
    if k not in (1, 3):
        raise ValueError("crosscap class must be 1 or 3")
    return AlgebraElement(a, einsum("ac,acx->x", _twisted_cup(a, k), a.product_tensor()))


def handle_state(a: HalfTwistAlgebra, e1: str, e2: str) -> AlgebraElement:
    """The capped-off handle for a torus with cycles of types e1, e2.

    This is Moore-Segal's handle element read off the state space V_e1:

        h = R^-1 sum_ij s_i (G^-1)_ji v_i v_j,   G_ij = B(v_i, v_j),

    with v_i the basis of V_e1, B the cap (on a special algebra
    B(x, y) = eps(xy)) and s_i = (-1)^parity(v_i) when e2 is R, else 1.
    So R eps(h) = sum_i s_i, the torus value.  An algebra that is not
    special has no two-sided unit and is refused with ValueError.
    """
    e1, e2 = e1.upper(), e2.upper()
    if e2 not in SECTORS:
        raise ValueError("torus cycles must be NS or R")
    a.unit()  # raises unless the algebra is special
    space = state_space(a, e1)
    basis = {(i, x): v for i, b in enumerate(space.basis) for (x,), v in b.vector.items()}
    flip = [p == 1 and e2 == "R" for p in space.parities]
    signed = {(i, x): -v if flip[i] else v for (i, x), v in basis.items()}
    gram_inverse = mat_invert(einsum("ia,jb,ab->ij", basis, basis, a.cap), space.dim)
    vec = einsum("ia,ji,jb,abc->c", signed, gram_inverse, basis, a.product_tensor())
    return AlgebraElement(a, scale(vec, a.vertex_weight.inverse()))


def partition_function(a: HalfTwistAlgebra, p: PinSurfacePresentation) -> CycloNum:
    """Exact partition function of a closed pin surface.

    The sphere and rp2:k close a twisted cup with the cap (k = 0 for the
    sphere), a torus is read from a state space, and every other surface is
    a connect sum.
    """
    shape = (p.genus, p.crosscaps)
    if shape in ((0, 0), (0, 1)):
        closed = einsum("ac,ac->", _twisted_cup(a, sum(p.crosscap_q)), a.cap)
        return a.vertex_weight ** (2 - p.crosscaps) * closed.get((), ZERO)
    if shape == (1, 0):
        q1, q2 = p.torus_q[0]
        space = state_space(a, SECTORS[q1 // 2])
        if q2 == 0:
            return CycloNum(space.dim)
        return CycloNum(space.even_dim - space.odd_dim)
    return connect_sum_pf(a, p)


def connect_sum_pf(a: HalfTwistAlgebra, p: PinSurfacePresentation) -> CycloNum:
    """Closed connect sum of the tori and crosscaps of a presentation.

    Each torus contributes its handle state, read off the state space of
    its first cycle (q = 0 NS, q = 2 R), and each crosscap its Moebius
    state; the partition function is the vertex weight times the counit
    of their product, tori first.  The product starts from the first
    factor, so n factors take n - 1 element products.  Each distinct
    handle and Moebius state is built once.  The unit enters through the
    counit, which raises when the algebra is not special, and as the
    product of no factors: the empty connect sum is the sphere.
    """
    handles = {
        q: handle_state(a, SECTORS[q[0] // 2], SECTORS[q[1] // 2])
        for q in dict.fromkeys(p.torus_q)
    }
    moebius = {qz: moebius_state(a, qz) for qz in dict.fromkeys(p.crosscap_q)}
    factors = [handles[q] for q in p.torus_q] + [moebius[qz] for qz in p.crosscap_q]
    element = reduce(mul, factors) if factors else a.unit()
    return a.vertex_weight * a.counit(element)


@dataclass(frozen=True)
class ClassifyResult:
    """Invertibility classification of a theory."""

    invertible: bool
    k: int | None = None
    euler_alpha: CycloNum | None = None

    def render(self) -> str:
        if not self.invertible:
            return "non-invertible"
        return f"k = {self.k} (ABK^{self.k})"


def classify_invertible(a: HalfTwistAlgebra) -> ClassifyResult:
    """Locate an invertible theory among the eight stacking classes.

    A theory is invertible when both circle state spaces are lines; its class
    is read off the projective-plane value after stripping the Euler scale,
    which is the positive square root of the sphere value.
    """
    ns = state_space(a, "NS")
    r = state_space(a, "R")
    if ns.dim != 1 or r.dim != 1:
        return ClassifyResult(False)
    z_sphere = partition_function(a, PinSurfacePresentation((), ()))
    scale = real_sqrt(z_sphere)
    if scale is None:
        raise ValueError(
            "not in the invertible family: sphere value has no positive "
            "square root in the field"
        )
    ratio = partition_function(a, PinSurfacePresentation((), (1,))) / scale
    k = zeta_log(ratio)
    if k is None:
        raise ValueError(
            "not in the invertible family: projective-plane ratio is not an "
            "eighth root of unity"
        )
    return ClassifyResult(True, k, scale)


@dataclass(frozen=True)
class StackingReport:
    """Comparison of a stacked theory against the product of its factors."""

    surface_rows: tuple[tuple[str, CycloNum, CycloNum, CycloNum, bool], ...]
    sector_rows: tuple[tuple[str, tuple[int, int], tuple[int, int], bool], ...]

    @property
    def all_passed(self) -> bool:
        return all(row[-1] for row in self.surface_rows) and all(
            row[-1] for row in self.sector_rows
        )

    def render_text(self) -> str:
        lines = []
        for name, za, zb, zt, ok in self.surface_rows:
            mark = "ok" if ok else "MISMATCH"
            lines.append(f"{name:12s} Z_A={za!r} Z_B={zb!r} Z_AxB={zt!r} {mark}")
        for sector, got, want, ok in self.sector_rows:
            mark = "ok" if ok else "MISMATCH"
            lines.append(
                f"{sector} state space C^({got[0]}|{got[1]}) expected "
                f"C^({want[0]}|{want[1]}) {mark}"
            )
        return "\n".join(lines)


def stacking_check(
    a: HalfTwistAlgebra,
    b: HalfTwistAlgebra,
    surfaces=LIBRARY_SURFACES,
) -> StackingReport:
    """Check multiplicativity of the state sum under the graded product.

    Surfaces are given as `parse_surface` literals, which name the rows.
    """
    presentations = [(name, parse_surface(name)) for name in surfaces]
    prod = supertensor(a, b)
    surface_rows = []
    for name, p in presentations:
        za = partition_function(a, p)
        zb = partition_function(b, p)
        zt = partition_function(prod, p)
        surface_rows.append((name, za, zb, zt, zt == za * zb))
    sector_rows = []
    for sector in SECTORS:
        sa = state_space(a, sector)
        sb = state_space(b, sector)
        st = state_space(prod, sector)
        want = (
            sa.even_dim * sb.even_dim + sa.odd_dim * sb.odd_dim,
            sa.even_dim * sb.odd_dim + sa.odd_dim * sb.even_dim,
        )
        got = st.as_supervector()
        sector_rows.append((sector, got, want, got == want))
    return StackingReport(tuple(surface_rows), tuple(sector_rows))
