"""State spaces, projectors, and closed-surface partition functions.

The NS circle state space is the twisted center cut out by

    m(b (x) a) = m(crossing(b (x) a))            for all b,

and the R circle replaces b by its parity image on the left factor.  Both are
solved exactly as linear systems; for algebras built by the superalgebra
constructors it is enough to let b run over a stored generating set, since
the defining condition propagates over products of homogeneous generators.

Closed surfaces are evaluated three ways, all exact:

    sphere, projective planes   by ribbon diagram
    tori                        by the (super)dimension of a state space
    crosscap sums, Klein        by multiplying capped-off states in the algebra

and every value can be cross-checked against the Gauss-sum oracle in pingeo.
A torus is the trace over the circle state space V_e of its first cycle,
twisted by the parity when the second cycle is R: Z(e, NS) = dim V_e and
Z(e, R) = sdim V_e = dim V_e^even - dim V_e^odd.  That needs neither a star
structure nor a positive alpha.  Projectors onto the state spaces, which
handle_state uses, are orthogonal with respect to the inner product
<x, y> = eta(star x, y) and do need both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycloNum, ZERO, zeta_pow, real_sqrt
from .linalg import SparseRow, SparseTensor, einsum, mat_invert, nullspace, row_reduce
from .pingeo import PinSurfacePresentation
from .ribbon import LinearBlock, evaluate, parse
from .superalgebra import AlgebraElement, HalfTwistAlgebra

__all__ = [
    "StateSpace",
    "SurfaceSpec",
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
    "surface_presentation",
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


@dataclass(frozen=True)
class SurfaceSpec:
    """A closed surface from the library, with its pin class data.

    kinds: "sphere" | "rp2" (k in {1,3}) | "torus" (two sector letters)
    | "klein" (two odd values) | "csum" (list of odd values).
    """

    kind: str
    data: tuple = ()

    @staticmethod
    def sphere() -> "SurfaceSpec":
        return SurfaceSpec("sphere")

    @staticmethod
    def rp2(k: int) -> "SurfaceSpec":
        if k not in (1, 3):
            raise ValueError("projective plane class must be 1 or 3")
        return SurfaceSpec("rp2", (k,))

    @staticmethod
    def torus(e1: str, e2: str) -> "SurfaceSpec":
        e1, e2 = e1.upper(), e2.upper()
        if e1 not in SECTORS or e2 not in SECTORS:
            raise ValueError("torus cycles must be NS or R")
        return SurfaceSpec("torus", (e1, e2))

    @staticmethod
    def klein(k: int, l: int) -> "SurfaceSpec":
        if k not in (1, 3) or l not in (1, 3):
            raise ValueError("Klein bottle classes must be 1 or 3")
        return SurfaceSpec("klein", (k, l))

    @staticmethod
    def crosscap_sum(ks) -> "SurfaceSpec":
        ks = tuple(ks)
        if any(k not in (1, 3) for k in ks):
            raise ValueError("crosscap classes must be 1 or 3")
        return SurfaceSpec("csum", ks)

    def render(self) -> str:
        if self.kind == "sphere":
            return "sphere"
        if self.kind == "rp2":
            return f"rp2:{self.data[0]}"
        if self.kind == "torus":
            return f"torus:{self.data[0].lower()},{self.data[1].lower()}"
        if self.kind == "klein":
            return f"klein:{self.data[0]},{self.data[1]}"
        return "csum:" + ",".join(str(k) for k in self.data)

    def __repr__(self):
        return f"SurfaceSpec({self.render()!r})"


def parse_surface(text: str) -> SurfaceSpec:
    """Parse a literal like "sphere", "rp2:1", "torus:ns,r", "klein:1,3",
    "csum:1,1,1"."""
    text = text.strip().lower()
    if text == "sphere":
        return SurfaceSpec.sphere()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad surface literal {text!r}")
    parts = [p.strip() for p in rest.split(",") if p.strip()]
    if head == "rp2" and len(parts) == 1:
        return SurfaceSpec.rp2(int(parts[0]))
    if head == "torus" and len(parts) == 2:
        return SurfaceSpec.torus(parts[0], parts[1])
    if head == "klein" and len(parts) == 2:
        return SurfaceSpec.klein(int(parts[0]), int(parts[1]))
    if head == "csum" and parts:
        return SurfaceSpec.crosscap_sum(int(p) for p in parts)
    raise ValueError(f"bad surface literal {text!r}")


def surface_presentation(s: SurfaceSpec) -> PinSurfacePresentation:
    """The connect-sum presentation matching a library surface."""
    if s.kind == "sphere":
        return PinSurfacePresentation((), ())
    if s.kind == "rp2":
        return PinSurfacePresentation((), (s.data[0],))
    if s.kind == "torus":
        pair = tuple(0 if e == "NS" else 2 for e in s.data)
        return PinSurfacePresentation((pair,), ())
    return PinSurfacePresentation((), tuple(s.data))


LIBRARY_SURFACES: tuple[SurfaceSpec, ...] = (
    SurfaceSpec.sphere(),
    SurfaceSpec.rp2(1),
    SurfaceSpec.rp2(3),
    SurfaceSpec.torus("NS", "NS"),
    SurfaceSpec.torus("NS", "R"),
    SurfaceSpec.torus("R", "NS"),
    SurfaceSpec.torus("R", "R"),
    SurfaceSpec.klein(1, 1),
    SurfaceSpec.klein(1, 3),
    SurfaceSpec.klein(3, 1),
    SurfaceSpec.klein(3, 3),
)


def _sector_rows(a: HalfTwistAlgebra, sector: str):
    """Sparse rows of the twisted-center system, one per (b, output)."""
    product = a.product_tensor()
    left = product  # entries (b, a, x) for m(b (x) a)
    if sector == "NS":
        right = einsum("bacd,cdx->bax", a.crossing, product)
    elif sector == "R":
        right = einsum("bp,pacd,cdx->bax", a.full_twist(), a.crossing, product)
    else:
        raise ValueError(f"unknown sector {sector!r} (expected NS or R)")
    gens = a.generators if a.generators is not None else tuple(range(a.dim))
    gen_set = set(gens)
    rows: dict[tuple[int, int], dict[int, CycloNum]] = {}
    for (b, x_a, x), v in left.items():
        if b in gen_set:
            rows.setdefault((b, x), {})[x_a] = v
    for (b, x_a, x), v in right.items():
        if b in gen_set:
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
    phi = a.full_twist()
    evens: list[SparseRow] = []
    odds: list[SparseRow] = []
    for vec in raw_basis:
        phiv = dict.fromkeys(vec, ZERO)
        for (x, y), v in phi.items():
            if x in vec:
                phiv[y] = phiv.get(y, ZERO) + vec[x] * v
        # Halving a vector changes no span, so the parts are left unhalved.
        evens.append({c: vec.get(c, ZERO) + v for c, v in phiv.items()})
        odds.append({c: vec.get(c, ZERO) - v for c, v in phiv.items()})

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
            coeffs = tuple(rows[p].get(c, ZERO) for c in range(a.dim))
            basis.append(AlgebraElement(a, coeffs))
            parities.append(parity)
    return StateSpace(sector, tuple(basis), tuple(parities))


def projector(a: HalfTwistAlgebra, sector: str) -> LinearBlock:
    """Orthogonal projection onto the sector state space, as a 1 -> 1 block.

    Needs the star structure and a positive alpha; the Gram matrix of the
    state-space basis is inverted exactly.
    """
    if a.star is None:
        raise ValueError("projector needs the star tensor")
    if not a.alpha.is_real_positive():
        raise ValueError(
            "orthogonal projection needs a positive real alpha; "
            f"got {a.alpha!r}"
        )
    space = state_space(a, sector)
    k = space.dim
    if k == 0:
        return LinearBlock(1, 1, {})
    gram = {
        (i, j): a.inner_product(space.basis[i], space.basis[j])
        for i in range(k)
        for j in range(k)
    }
    gram_inv = mat_invert(gram, k)
    # <v_j, e_x> = sum_c conj((v_j)_c) G_cx with G = star . cap
    gmat = einsum("ac,cb->ab", a.star, a.cap)
    table: dict = {}
    for x in range(a.dim):
        pairings = []
        for j in range(k):
            tot = ZERO
            for c, vc in enumerate(space.basis[j].coeffs):
                if vc.is_zero():
                    continue
                g = gmat.get((c, x))
                if g is not None:
                    tot = tot + vc.conjugate() * g
            pairings.append(tot)
        for b in range(a.dim):
            tot = ZERO
            for i in range(k):
                vb = space.basis[i].coeffs[b]
                if vb.is_zero():
                    continue
                for j in range(k):
                    g = gram_inv.get((i, j))
                    if g is not None and not pairings[j].is_zero():
                        tot = tot + vb * g * pairings[j]
            if not tot.is_zero():
                table[((x,), (b,))] = tot
    return LinearBlock(1, 1, table)


def _phi_block(a: HalfTwistAlgebra) -> LinearBlock:
    return LinearBlock(
        1, 1, {((x,), (y,)): v for (x, y), v in a.full_twist().items()}
    )


def _trace(block: LinearBlock, dim: int) -> CycloNum:
    total = ZERO
    for x in range(dim):
        v = block.table.get(((x,), (x,)))
        if v is not None:
            total = total + v
    return total


def moebius_state(a: HalfTwistAlgebra, k: int) -> AlgebraElement:
    """The capped-off crosscap: product . (id (x) twist^k) . cup."""
    if k not in (1, 3):
        raise ValueError("crosscap class must be 1 or 3")
    tau_k = a.twist
    for _ in range(k - 1):
        tau_k = einsum("ab,bc->ac", tau_k, a.twist)
    vec = einsum("ab,bc,acx->x", a.cup, tau_k, a.product_tensor())
    coeffs = [ZERO] * a.dim
    for (x,), v in vec.items():
        coeffs[x] = v
    return AlgebraElement(a, tuple(coeffs))


def handle_state(a: HalfTwistAlgebra, e1: str, e2: str) -> AlgebraElement:
    """The capped-off handle for a torus with cycles of types e1, e2.

    Derived from the trace form of the torus value by cyclicity: the trace
    of an operator O equals the counit of sum_ab B^ab O(e_b) e_a, so dividing
    by the vertex weight gives an element whose capped closure reproduces the
    torus.  Only provided for constructor-built algebras.
    """
    if a.spec is None:
        raise ValueError("handle state outside validated family")
    e1, e2 = e1.upper(), e2.upper()
    op = projector(a, e1)
    if e2 == "R":
        op = op.then(_phi_block(a))
    elif e2 != "NS":
        raise ValueError("torus cycles must be NS or R")
    op_sparse: SparseTensor = {
        (x, y): v for ((x,), (y,)), v in op.table.items()
    }
    vec = einsum("ab,by,yax->x", a.cup, op_sparse, a.product_tensor())
    inv_r = a.vertex_weight.inverse()
    coeffs = [ZERO] * a.dim
    for (x,), v in vec.items():
        coeffs[x] = v * inv_r
    h = AlgebraElement(a, tuple(coeffs))
    closure = a.vertex_weight * a.counit(h)
    if closure != _trace(op, a.dim):
        raise ValueError("handle state outside validated family")
    return h


def partition_function(a: HalfTwistAlgebra, s: SurfaceSpec) -> CycloNum:
    """Exact partition function of a closed library surface."""
    if s.kind == "sphere":
        return evaluate(parse("R 2 / cup / cap"), a).scalar()
    if s.kind == "rp2":
        twists = "id t+ / " * s.data[0]
        return evaluate(parse(f"R 1 / cup / {twists}cap"), a).scalar()
    if s.kind == "torus":
        space = state_space(a, s.data[0])
        if s.data[1] == "NS":
            return CycloNum(space.dim)
        return CycloNum(space.even_dim - space.odd_dim)
    if s.kind in ("klein", "csum"):
        return connect_sum_pf(a, [SurfaceSpec.rp2(k) for k in s.data])
    raise ValueError(f"unknown surface kind {s.kind!r}")


def connect_sum_pf(a: HalfTwistAlgebra, summands) -> CycloNum:
    """Closed connect sum of projective-plane and torus summands.

    Each summand contributes its capped-off state; the partition function is
    the vertex weight times the counit of their ordered product.  The empty
    connect sum is the sphere.
    """
    element = a.unit()
    for s in summands:
        if s.kind == "rp2":
            u = moebius_state(a, s.data[0])
        elif s.kind == "torus":
            u = handle_state(a, s.data[0], s.data[1])
        else:
            raise ValueError(
                f"connect sums take rp2 and torus summands, not {s.kind!r}"
            )
        element = element * u
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
    z_sphere = partition_function(a, SurfaceSpec.sphere())
    scale = real_sqrt(z_sphere)
    if scale is None:
        raise ValueError(
            "not in the invertible family: sphere value has no positive "
            "square root in the field"
        )
    ratio = partition_function(a, SurfaceSpec.rp2(1)) / scale
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
    """Check multiplicativity of the state sum under the graded product."""
    from .superalgebra import supertensor

    prod = supertensor(a, b)
    surface_rows = []
    for s in surfaces:
        za = partition_function(a, s)
        zb = partition_function(b, s)
        zt = partition_function(prod, s)
        surface_rows.append((s.render(), za, zb, zt, zt == za * zb))
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
