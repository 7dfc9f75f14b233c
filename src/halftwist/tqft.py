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

    (0, 0), (0, 1)   sphere, projective planes   by ribbon diagram
    (1, 0)           tori                        by a state space (super)dimension
    anything else    connect sums                by multiplying capped-off states

and every value can be cross-checked against the Gauss-sum oracle in pingeo.
A torus is the trace over the circle state space V_e of its first cycle,
twisted by the parity when the second cycle is R: Z(e, NS) = dim V_e and
Z(e, R) = sdim V_e = dim V_e^even - dim V_e^odd.  The projector onto V_e is
the state-sum cylinder map, and a handle state caps off its trace.  All of
this is built from the state-sum tensors alone: nothing here needs a star
structure or a positive alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycloNum, ZERO, zeta_pow, real_sqrt
from .linalg import SparseTensor, einsum, nullspace, row_reduce, scale
from .pingeo import PinSurfacePresentation, parse_presentation
from .ribbon import LinearBlock, evaluate, parse
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


def _projector_tensor(a: HalfTwistAlgebra, sector: str) -> SparseTensor:
    """P_e as a sparse matrix: entry (x, y) is the e_y coefficient of P_e(e_x)."""
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector!r} (expected NS or R)")
    cup = a.cup if sector == "NS" else einsum("ab,bp->ap", a.cup, a.full_twist())
    product = a.product_tensor()
    table = einsum("ab,bxcd,cdf,afy->xy", cup, a.crossing, product, product)
    return scale(table, a.vertex_weight)


def projector(a: HalfTwistAlgebra, sector: str) -> LinearBlock:
    """Projection onto the sector state space, as a 1 -> 1 block.

    This is the cylinder map of the state sum (Fukuma-Hosono-Kawai for
    lattice TFT, Barrett-Tavares for spin state sums):

        P_e(x) = R sum_ab B^ab e_a . m(crossing(e'_b (x) x)),

    with e'_b = e_b for NS and phi(e_b) for R.  The graded sign comes from
    the crossing, not from the parities.  P_e fixes every state and its
    image is the state space, so it is idempotent with trace dim V_e.  It
    needs no star map and no positive alpha; for the constructor algebras
    at positive alpha it is the orthogonal projection for the inner product
    <x, y> = eta(star x, y).
    """
    return LinearBlock(
        1, 1, {((x,), (y,)): v for (x, y), v in _projector_tensor(a, sector).items()}
    )


def moebius_state(a: HalfTwistAlgebra, k: int) -> AlgebraElement:
    """The capped-off crosscap: product . (id (x) twist^k) . cup."""
    if k not in (1, 3):
        raise ValueError("crosscap class must be 1 or 3")
    tau_k = a.twist
    for _ in range(k - 1):
        tau_k = einsum("ab,bc->ac", tau_k, a.twist)
    return AlgebraElement(a, einsum("ab,bc,acx->x", a.cup, tau_k, a.product_tensor()))


def handle_state(a: HalfTwistAlgebra, e1: str, e2: str) -> AlgebraElement:
    """The capped-off handle for a torus with cycles of types e1, e2.

    The torus value is the trace of O = P_e1, followed by phi when e2 is R.
    By cyclicity that trace is the counit of sum_ab B^ab O(e_b) e_a, so
    dividing by the vertex weight gives an element whose capped closure
    reproduces the torus; the closure is checked against the trace.
    """
    e1, e2 = e1.upper(), e2.upper()
    if e2 not in SECTORS:
        raise ValueError("torus cycles must be NS or R")
    op = _projector_tensor(a, e1)
    if e2 == "R":
        op = einsum("xz,zy->xy", op, a.full_twist())
    vec = einsum("ab,by,yax->x", a.cup, op, a.product_tensor())
    h = AlgebraElement(a, scale(vec, a.vertex_weight.inverse()))
    trace = sum((op.get((x, x), ZERO) for x in range(a.dim)), start=ZERO)
    if a.vertex_weight * a.counit(h) != trace:
        raise ValueError("handle state closure does not match the torus trace")
    return h


def partition_function(a: HalfTwistAlgebra, p: PinSurfacePresentation) -> CycloNum:
    """Exact partition function of a closed pin surface.

    The sphere and the projective planes are ribbon diagrams and a torus is
    read from a state space; every other surface is a connect sum.
    """
    shape = (p.genus, p.crosscaps)
    if shape == (0, 0):
        return evaluate(parse("R 2 / cup / cap"), a).scalar()
    if shape == (0, 1):
        twists = "id t+ / " * p.crosscap_q[0]
        return evaluate(parse(f"R 1 / cup / {twists}cap"), a).scalar()
    if shape == (1, 0):
        q1, q2 = p.torus_q[0]
        space = state_space(a, SECTORS[q1 // 2])
        if q2 == 0:
            return CycloNum(space.dim)
        return CycloNum(space.even_dim - space.odd_dim)
    return connect_sum_pf(a, p)


def connect_sum_pf(a: HalfTwistAlgebra, p: PinSurfacePresentation) -> CycloNum:
    """Closed connect sum of the tori and crosscaps of a presentation.

    Each torus contributes its handle state, with q = 0 an NS cycle and
    q = 2 an R cycle, and each crosscap its Moebius state; the partition
    function is the vertex weight times the counit of their product, tori
    first.  Each distinct handle and Moebius state is built once.  The empty
    connect sum is the sphere.
    """
    element = a.unit()
    handles: dict[tuple[int, int], AlgebraElement] = {}
    for q in p.torus_q:
        if q not in handles:
            handles[q] = handle_state(a, SECTORS[q[0] // 2], SECTORS[q[1] // 2])
        element = element * handles[q]
    moebius: dict[int, AlgebraElement] = {}
    for qz in p.crosscap_q:
        if qz not in moebius:
            moebius[qz] = moebius_state(a, qz)
        element = element * moebius[qz]
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
    for k in range(8):
        if ratio == zeta_pow(k):
            return ClassifyResult(True, k, scale)
    raise ValueError(
        "not in the invertible family: projective-plane ratio is not an "
        "eighth root of unity"
    )


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
