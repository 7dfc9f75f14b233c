"""Half twist algebras built from real separable superalgebras.

A half twist algebra packages the five tensors that weight the building
blocks of a ribbon diagram:

    node      rank 3, all legs down     (written C_abc)
    cap       rank 2, legs down         (B_ab)
    cup       rank 2, legs up           (B^ab, the inverse form)
    crossing  rank 4, two down two up   (lam_ab^cd)
    twist     rank 2, one down one up   (tau_a^b, right handed half twist)

together with the scalar weight attached to each internal vertex of the
triangulation (R), the Frobenius scale alpha, a parity bit per basis element,
and the antilinear conjugate-transposition map star stored as its matrix on
the basis.

The constructors in this module produce the superalgebra family: real and
complex Clifford algebras, matrix superalgebras R(p|q), direct sums and
graded (super)tensor products, plus a raw wrapper for hand-entered tensors.
Both Clifford families come from one routine over the monomials in a list
of generators: anticommuting odd generators G_j, plus a central even I with
I^2 = -1 for the complex family.
For every constructor the crossing is the graded swap

    crossing(e_a (x) e_b) = (-1)^{|a||b|} e_b (x) e_a

and the bilinear form is the trace form scaled by alpha, which makes the
Nakayama automorphism trivial.  Since that crossing has dim^2 entries, a
matrix algebra, direct sum or graded product with dim^2 over CELL_CEILING is
refused before any table is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, islice
from operator import add

from .cyclo import CycloNum, ZERO, ONE, SQRT2, zeta_pow
from .linalg import (
    CELL_CEILING,
    SparseTensor,
    SingularMatrixError,
    delta,
    einsum,
    mat_invert,
    prune,
    scale,
)

MAX_CLIFFORD_GENERATORS = 8  # every generator counts, the I of clc(n) included
# (-1)^s for a sign bit s, shared by every table that holds a sign.
_SIGNS = (ONE, -ONE)

__all__ = [
    "HalfTwistAlgebra",
    "AlgebraElement",
    "build_clifford_real",
    "build_clifford_complex",
    "build_matrix",
    "direct_sum",
    "supertensor",
    "custom_from_tensors",
    "parse_algebra",
    "algebra_to_text",
    "algebra_from_text",
]


@dataclass(frozen=True, eq=False, kw_only=True)
class HalfTwistAlgebra:
    """Basis-indexed tensor data for the pin state sum.

    A frozen record: no field can be rebound, equality is identity, and it
    may be shared freely across threads.  dim is len(parity); labels of
    another length are refused when built.  A crossing left out is the
    graded swap for parity.  `spec`, when set, is the
    constructor spec the algebra was built from, grouped so that
    `parse_algebra` reads it back, but without any @alpha: an algebra at
    another alpha has the same spec.
    """

    labels: tuple[str, ...]
    parity: tuple[int, ...]
    node: SparseTensor
    cap: SparseTensor
    cup: SparseTensor
    # Left out (None), the crossing is the graded swap for parity.
    crossing: SparseTensor = None  # type: ignore[assignment]
    twist: SparseTensor
    vertex_weight: CycloNum
    alpha: CycloNum
    star: SparseTensor | None = None
    spec: str | None = None
    generators: tuple[int, ...] | None = None
    dim: int = field(init=False)
    _cache: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dim", len(self.parity))
        if len(self.labels) != self.dim:
            raise ValueError("labels length does not match parity length")
        if self.crossing is None:
            object.__setattr__(self, "crossing", _swap_crossing(self.parity))

    def __repr__(self):
        tag = self.spec or "custom"
        return f"HalfTwistAlgebra({tag}, dim={self.dim})"

    def cached(self, key, build):
        """build() for key, formed on first use and kept, since the tensors
        never change.  Nothing is kept when build raises."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    # -- elements ---------------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        coeffs = [CycloNum.coerce(c) for c in coeffs]
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(coeffs)}")
        return AlgebraElement(self, prune({(x,): c for x, c in enumerate(coeffs)}))

    def basis_element(self, a: int) -> "AlgebraElement":
        return AlgebraElement(self, {(a,): ONE})

    # -- derived tensors (cached) ------------------------------------------

    def product_tensor(self) -> SparseTensor:
        """Structure constants m(e_a, e_b) = sum_c M_ab^c e_c."""
        return self.cached("product", lambda: einsum("abd,dc->abc", self.node, self.cup))

    def unit(self) -> "AlgebraElement":
        """The unit R sum_ab B^ab e_a e_b, the state sum of a disk.

        Raises ValueError when it is not a two-sided unit, which happens
        exactly when the algebra is not special (axiom a4).  Only a checked
        vector is cached, and each call returns a fresh element of it: an
        algebra that held one of its own elements would be a reference
        cycle, left for the garbage collector to free.
        """
        return AlgebraElement(self, self.cached("unit", self._unit_vector))

    def _unit_vector(self) -> SparseTensor:
        product = self.product_tensor()
        u = scale(einsum("ab,abx->x", self.cup, product), self.vertex_weight)
        one = delta(self.dim)
        if einsum("a,axy->xy", u, product) != one or einsum("a,xay->xy", u, product) != one:
            raise ValueError(
                "R sum_ab B^ab e_a e_b is not a two-sided unit: the algebra "
                "is not special (a4)"
            )
        return u

    def counit(self, x: "AlgebraElement") -> CycloNum:
        return self.eta(self.unit(), x)

    def eta(self, x: "AlgebraElement", y: "AlgebraElement") -> CycloNum:
        return einsum("a,b,ab->", x.vector, y.vector, self.cap).get((), ZERO)

    def full_twist(self) -> SparseTensor:
        """phi_a^b = lam_ac^bd B^ce B_de, the square of the half twist."""
        return self.cached(
            "phi", lambda: einsum("acbd,ce,de->ab", self.crossing, self.cup, self.cap)
        )

    def nakayama(self) -> SparseTensor:
        """sigma_a^b = B_ac B^bc, the asymmetry of the bilinear form."""
        return self.cached("sigma", lambda: einsum("ac,bc->ab", self.cap, self.cup))

    def twist_inverse(self) -> SparseTensor:
        return self.cached("twist_inv", self._invert_twist)

    def _invert_twist(self) -> SparseTensor:
        try:
            return mat_invert(self.twist, self.dim)
        except SingularMatrixError:
            raise SingularMatrixError("half twist is singular") from None

    def has_swap_crossing(self) -> bool:
        """True iff the crossing is exactly the graded swap for self.parity:
        dim^2 entries, each (a, b, b, a) equal to -1 when a and b are both
        odd and to 1 otherwise.  Checked in place, without building the
        expected table."""
        parity, crossing = self.parity, self.crossing
        if len(crossing) != len(parity) ** 2:
            return False
        return all(
            crossing.get((a, b, b, a)) == _SIGNS[pa & pb]
            for a, pa in enumerate(parity)
            for b, pb in enumerate(parity)
        )

    def apply_star(self, x: "AlgebraElement") -> "AlgebraElement":
        """The antilinear map: conjugate coefficients, then apply the matrix."""
        if self.star is None:
            raise ValueError("algebra carries no star structure")
        conj = {k: v.conjugate() for k, v in x.vector.items()}
        return AlgebraElement(self, einsum("a,ab->b", conj, self.star))

    def inner_product(self, x: "AlgebraElement", y: "AlgebraElement") -> CycloNum:
        """<x, y> = eta(star x, y), sesquilinear in the first slot."""
        return self.eta(self.apply_star(x), y)

    def index_of_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis element labeled {label!r}") from None


@dataclass(frozen=True)
class AlgebraElement:
    """A vector in a half twist algebra.

    vector is a rank-1 SparseTensor mapping (x,) to the nonzero coefficient
    of e_x, so the product, the forms and the star map are one einsum each.
    Two elements are equal when they belong to the same algebra object and
    have the same nonzero coefficients.  Like the dict it holds, an element
    is unhashable: hash() raises TypeError.
    """

    algebra: HalfTwistAlgebra
    vector: SparseTensor

    @property
    def coeffs(self) -> tuple[CycloNum, ...]:
        """Every coefficient over the basis, zeros included."""
        return tuple(self.vector.get((x,), ZERO) for x in range(self.algebra.dim))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        total = dict(self.vector)
        for k, v in other.vector.items():
            total[k] = total[k] + v if k in total else v
        return AlgebraElement(self.algebra, prune(total))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.algebra, {k: -v for k, v in self.vector.items()})

    def scaled(self, s) -> "AlgebraElement":
        return AlgebraElement(self.algebra, scale(self.vector, CycloNum.coerce(s)))

    def __rmul__(self, s):
        if isinstance(s, (int, Fraction, CycloNum)):
            return self.scaled(s)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scaled(other)
        self._check(other)
        product = self.algebra.product_tensor()
        vec = einsum("a,b,abc->c", self.vector, other.vector, product)
        return AlgebraElement(self.algebra, vec)

    def is_zero(self) -> bool:
        return not self.vector

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def render(self) -> str:
        labels = self.algebra.labels
        parts = [f"({self.vector[k]!r})*{labels[k[0]]}" for k in sorted(self.vector)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.render()}>"


def _swap_crossing(parity: tuple[int, ...]) -> SparseTensor:
    return {
        (a, b, b, a): _SIGNS[pa & pb]
        for a, pa in enumerate(parity)
        for b, pb in enumerate(parity)
    }


def _check_size(dim: int, spec: str) -> None:
    """Refuse an algebra whose graded-swap crossing, dim^2 entries, would
    exceed CELL_CEILING; the check runs before any table is built."""
    if dim * dim > CELL_CEILING:
        raise ValueError(
            f"{spec} has dimension {dim}: its crossing of {dim * dim} entries "
            f"is over the ceiling of {CELL_CEILING}"
        )


def _check_alpha(alpha) -> CycloNum:
    alpha = CycloNum.coerce(alpha)
    if alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    if not alpha.is_real():
        raise ValueError("alpha must be a real element of Q(zeta_8)")
    return alpha


def _clifford(
    gens, scale_exp: int, weight_exp: int, alpha: CycloNum, spec: str
) -> HalfTwistAlgebra:
    """Half twist algebra spanned by the monomials in a list of generators.

    Each generator is (label, odd, square, phase, star): odd generators
    anticommute with each other and even ones are central, square (+1 or
    -1) is its square, its half twist is zeta^phase and star (+1 or -1) is
    its star sign.  The first generator is the highest bit of a monomial's
    index.  The trace form is alpha * sqrt(2)^scale_exp on the unit and
    every internal vertex weighs alpha * sqrt(2)^weight_exp.  gens is read
    lazily, so a spec past the cap is refused before anything is built.

    The tables of the monomials double once per generator, from the last
    one up: for m below bit, monomial m + bit is g m, where g is the
    generator at bit and comes before every generator of m.  The product of
    monomials a and b is +-(a ^ b), and the node entry (a, b, a ^ b) is the
    cap value of a ^ b, negated when b & flip[a] has an odd number of bits.
    The mask flip[a] is linear in a over GF(2): the odd generator at bit i
    of a is crossed by each odd generator of b at a higher bit, which comes
    earlier in the product, and a generator that squares to -1 flips the
    sign when b holds it too.
    """
    gens = tuple(islice(gens, MAX_CLIFFORD_GENERATORS + 1))
    if len(gens) > MAX_CLIFFORD_GENERATORS:
        raise ValueError(f"{spec} has more than {MAX_CLIFFORD_GENERATORS} generators")
    n = len(gens)
    dim = 1 << n
    odd = sum(1 << (n - 1 - j) for j, g in enumerate(gens) if g[1])
    # star_sign[m] is the bit s of the star sign (-1)^s; reversing k odd
    # generators gives (-1)^(k(k-1)/2), so g odd adds the parity of m.
    labels, phase, star_sign, parity, flip = [""], [0], [0], [0], [0]
    for i, (label, g_odd, square, g_phase, g_star) in enumerate(reversed(gens)):
        bit = 1 << i
        row = (odd & -(bit << 1) if g_odd else 0) | (bit if square < 0 else 0)
        labels += [label + l for l in labels]
        phase += [p + g_phase for p in phase]
        star_sign += [s ^ (p & g_odd) ^ (g_star < 0) for s, p in zip(star_sign, parity)]
        parity += [p ^ g_odd for p in parity]
        flip += [f ^ row for f in flip]
    labels[0] = "1"

    # Every cap and node entry is +-form and every cup entry +-1/form;
    # signed[t][c] is the cap value of e_c, negated when t is 1.
    form = alpha * SQRT2 ** scale_exp
    form_inv = form.inverse()
    cap_of, cup_of = (form, -form), (form_inv, -form_inv)
    signed = tuple([cap_of[s ^ t] for s in star_sign] for t in (0, 1))
    popcount_parity = [m.bit_count() & 1 for m in range(dim)]
    node = {
        (a, b, c): signed[popcount_parity[b & f]][c]
        for a, f in enumerate(flip)
        for b in range(dim)
        for c in (a ^ b,)
    }

    return HalfTwistAlgebra(
        labels=tuple(labels),
        parity=tuple(parity),
        node=node,
        cap={(m, m): cap_of[s] for m, s in enumerate(star_sign)},
        cup={(m, m): cup_of[s] for m, s in enumerate(star_sign)},
        twist={(m, m): zeta_pow(p) for m, p in enumerate(phase)},
        vertex_weight=alpha * SQRT2 ** weight_exp,
        alpha=alpha,
        star={(m, m): _SIGNS[s] for m, s in enumerate(star_sign)},
        spec=spec,
        generators=tuple(1 << i for i in range(n)),
    )


def build_clifford_real(p: int, q: int, alpha=1) -> HalfTwistAlgebra:
    """Half twist algebra of the real Clifford algebra with signature (p, q).

    Built by the monomial routine shared with build_clifford_complex.
    Generators G_1 .. G_n (n = p + q) are odd, square to +1 and anticommute;
    the first p have half twist i, the rest absorb an i when the algebra is
    complexified and have half twist -i.  Basis monomials are ordered
    lexicographically in their exponent bit string with the unit first.
    The trace form is scaled by alpha * sqrt(2)^n and the vertex weight is
    alpha * sqrt(2)^-n.
    """
    if p < 0 or q < 0:
        raise ValueError("signature must be nonnegative")
    alpha = _check_alpha(alpha)
    n = p + q
    gens = ((f"G{j + 1}", True, 1, 2 if j < p else 6, 1) for j in range(n))
    return _clifford(gens, n, -n, alpha, f"cl({p},{q})")


def build_clifford_complex(n: int, alpha=1) -> HalfTwistAlgebra:
    """Half twist algebra of the complex Clifford algebra on n generators.

    Built by the monomial routine shared with build_clifford_real, viewed
    as a real superalgebra: odd anticommuting generators G_1 .. G_n with
    G_j^2 = +1 and half twist i, then an even central I with I^2 = -1,
    half twist -1 and star sign -1.  I is the lowest bit of a basis index.
    The trace form is scaled by alpha * sqrt(2)^(n+2) and the vertex weight
    is alpha * sqrt(2)^-n.
    """
    if n < 0:
        raise ValueError("generator count must be nonnegative")
    alpha = _check_alpha(alpha)
    gens = chain(
        ((f"G{j + 1}", True, 1, 2, 1) for j in range(n)), [("I", False, -1, 4, -1)]
    )
    return _clifford(gens, n + 2, -n, alpha, f"clc({n})")


def build_matrix(p: int, q: int, alpha=1) -> HalfTwistAlgebra:
    """Half twist algebra of the matrix superalgebra R(p|q).

    Basis is the matrix units e_ij with row/column parity |i| = 0 for the
    first p indices and 1 for the remaining q.  The parity of e_ij is the
    XOR |i| ^ |j| and the half twist is twist(e_ij) = i^(|i|^|j|) e_ji, which
    squares to the parity involution as the axioms demand.
    """
    if p < 0 or q < 0:
        raise ValueError("block sizes must be nonnegative")
    n = p + q
    if n < 1:
        raise ValueError("matrix algebra needs at least one row")
    dim = n * n
    _check_size(dim, f"mat({p}|{q})")
    alpha = _check_alpha(alpha)

    def idx(i, j):
        return i * n + j

    def gr(i):
        return 0 if i < p else 1

    labels = tuple(f"e{i + 1}{j + 1}" for i in range(n) for j in range(n))
    parity = tuple(gr(i) ^ gr(j) for i in range(n) for j in range(n))

    cap: SparseTensor = {}
    cup: SparseTensor = {}
    inv_alpha = alpha.inverse()
    for i in range(n):
        for j in range(n):
            cap[(idx(i, j), idx(j, i))] = alpha
            cup[(idx(i, j), idx(j, i))] = inv_alpha

    node: SparseTensor = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                # e_ij e_jl = e_il pairs with e_li under the trace form.
                node[(idx(i, j), idx(j, l), idx(l, i))] = alpha

    twist: SparseTensor = {}
    star: SparseTensor = {}
    for i in range(n):
        for j in range(n):
            twist[(idx(i, j), idx(j, i))] = zeta_pow(2 * (gr(i) ^ gr(j)))
            star[(idx(i, j), idx(j, i))] = ONE

    return HalfTwistAlgebra(
        labels=labels,
        parity=parity,
        node=node,
        cap=cap,
        cup=cup,
        twist=twist,
        vertex_weight=alpha * CycloNum(Fraction(1, n)),
        alpha=alpha,
        star=star,
        spec=f"mat({p}|{q})",
        generators=tuple(range(dim)),
    )


def _require_swap(a: HalfTwistAlgebra, what: str):
    if not a.has_swap_crossing():
        raise ValueError(f"{what} requires the graded swap crossing on both inputs")


def _combine(a: HalfTwistAlgebra, b: HalfTwistAlgebra, rules) -> dict:
    """Field f of a combined algebra, rules[f](a.f, b.f), for each field f
    that rules names; None when a or b has none.  direct_sum and supertensor
    form node, cap, cup, twist, star and generators this way, and leave the
    crossing to be the graded swap for the combined parity."""
    out = {}
    for f, rule in rules.items():
        fa, fb = getattr(a, f), getattr(b, f)
        out[f] = None if fa is None or fb is None else rule(fa, fb)
    return out


def direct_sum(a: HalfTwistAlgebra, b: HalfTwistAlgebra) -> HalfTwistAlgebra:
    """Block sum of two half twist algebras sharing one global scale.

    The vertex weight is global to the state sum, so both summands must
    carry the same R (and the same alpha).
    """
    if a.dim == 0 or b.dim == 0:
        raise ValueError("direct sum with a zero-dimensional algebra is rejected")
    if a.alpha != b.alpha:
        raise ValueError(
            f"alpha mismatch in direct sum: {a.alpha!r} vs {b.alpha!r}"
        )
    if a.vertex_weight != b.vertex_weight:
        raise ValueError(
            "vertex weight mismatch in direct sum: "
            f"{a.vertex_weight!r} vs {b.vertex_weight!r}"
        )
    spec = f"{a.spec} (+) {_grouped(b.spec)}" if a.spec and b.spec else None
    off = a.dim
    _check_size(off + b.dim, spec or "direct sum")
    _require_swap(a, "direct sum")
    _require_swap(b, "direct sum")

    def shifted_merge(ta: SparseTensor, tb: SparseTensor) -> SparseTensor:
        return {**ta, **{tuple(i + off for i in k): v for k, v in tb.items()}}

    rules = dict.fromkeys(("node", "cap", "cup", "twist", "star"), shifted_merge)
    rules["generators"] = lambda ga, gb: ga + tuple(g + off for g in gb)
    return HalfTwistAlgebra(
        labels=tuple(f"A.{l}" for l in a.labels) + tuple(f"B.{l}" for l in b.labels),
        parity=a.parity + b.parity,
        vertex_weight=a.vertex_weight,
        alpha=a.alpha,
        spec=spec,
        **_combine(a, b, rules),
    )


def _grouped(spec: str) -> str:
    """spec in parentheses when it holds a (+) outside them: as either operand
    of (x), which binds tighter, or as the right operand of (+), since chains
    fold from the left.  Every parenthesis of an atom or an operator closes
    within it, so the depth before a (+) is the count of "(" less ")"."""
    depth = pos = 0
    while (at := spec.find("(+)", pos)) >= 0:
        depth += spec.count("(", pos, at) - spec.count(")", pos, at)
        if not depth:
            return f"({spec})"
        pos = at + 3
    return spec


def supertensor(a: HalfTwistAlgebra, b: HalfTwistAlgebra) -> HalfTwistAlgebra:
    """Graded tensor product, the stacking operation on state sums.

    Products pick up the Koszul sign (x (x) y)(x' (x) y') =
    (-1)^{|y||x'|} xx' (x) yy', the bilinear form the matching sign, and the
    half twist factorizes with no extra sign.  The vertex weight and alpha
    multiply.
    """
    spec = None
    if a.spec and b.spec:
        spec = f"{_grouped(a.spec)} (x) {_grouped(b.spec)}"
    db = b.dim
    _check_size(a.dim * db, spec or "supertensor")
    _require_swap(a, "supertensor")
    _require_swap(b, "supertensor")
    pa, pb = a.parity, b.parity

    def kron(odd, ta: SparseTensor, tb: SparseTensor) -> SparseTensor:
        """va * vb at each combined index, negated where odd(ka, kb) is 1.
        Each distinct pair of values is multiplied once."""
        out: SparseTensor = {}
        # products[va][vb] is (va * vb, -va * vb), keyed by canonical ints.
        products: dict[tuple, dict[tuple, tuple[CycloNum, CycloNum]]] = {}
        for ka, va in ta.items():
            base = tuple(x * db for x in ka)
            row = products.setdefault(va._v, {})
            for kb, vb in tb.items():
                pair = row.get(vb._v)
                if pair is None:
                    v = va * vb
                    pair = row[vb._v] = (v, -v)
                out[tuple(map(add, base, kb))] = pair[odd(ka, kb)]
        return out

    def form_sign(ka, kb):
        return pb[kb[0]] & pa[ka[1]]

    def generators(ga, gb):
        gset = {g * db + i for g in ga for i in range(db)}
        gset |= {x * db + g for x in range(a.dim) for g in gb}
        return tuple(sorted(gset))

    # The sign rule of each tensor, read off the parities of its legs.
    signs = {
        "node": lambda ka, kb: (pb[kb[0]] & pa[ka[1]]) ^ ((pb[kb[0]] ^ pb[kb[1]]) & pa[ka[2]]),
        "cap": form_sign,
        "cup": form_sign,
        "twist": lambda ka, kb: 0,
        "star": lambda ka, kb: pa[ka[0]] & pb[kb[0]],
    }
    rules = {f: partial(kron, odd) for f, odd in signs.items()}
    rules["generators"] = generators
    return HalfTwistAlgebra(
        labels=tuple(f"{la}*{lb}" for la in a.labels for lb in b.labels),
        parity=tuple((u + v) & 1 for u in pa for v in pb),
        vertex_weight=a.vertex_weight * b.vertex_weight,
        alpha=a.alpha * b.alpha,
        spec=spec,
        **_combine(a, b, rules),
    )


def _validate_shape(t: SparseTensor, arity: int, dim: int, name: str) -> SparseTensor:
    out: SparseTensor = {}
    for k, v in t.items():
        if len(k) != arity:
            raise ValueError(f"{name} entries need {arity} indices, got {k}")
        if any(not isinstance(i, int) or i < 0 or i >= dim for i in k):
            raise ValueError(f"{name} index {k} out of range for dim {dim}")
        out[k] = CycloNum.coerce(v)
    return prune(out)


def custom_from_tensors(
    node: SparseTensor,
    cap: SparseTensor,
    cup: SparseTensor,
    crossing: SparseTensor,
    twist: SparseTensor,
    vertex_weight,
    parity,
    labels=None,
    alpha=1,
    star: SparseTensor | None = None,
) -> HalfTwistAlgebra:
    """Wrap raw tensors without validation.

    Shapes are checked against the common dimension (the length of the
    parity sequence) and zeros are dropped; the rest is the checker's job.
    """
    parity = tuple(int(p) & 1 for p in parity)
    dim = len(parity)
    return HalfTwistAlgebra(
        labels=tuple(f"e{a}" for a in range(dim)) if labels is None else tuple(labels),
        parity=parity,
        node=_validate_shape(node, 3, dim, "node"),
        cap=_validate_shape(cap, 2, dim, "cap"),
        cup=_validate_shape(cup, 2, dim, "cup"),
        crossing=_validate_shape(crossing, 4, dim, "crossing"),
        twist=_validate_shape(twist, 2, dim, "twist"),
        vertex_weight=CycloNum.coerce(vertex_weight),
        alpha=CycloNum.coerce(alpha),
        star=_validate_shape(star, 2, dim, "star") if star is not None else None,
        spec=None,
        generators=None,
    )


# -- algebra spec grammar ---------------------------------------------------

# Parentheses in a spec nest at most this deep: the parser recurses once per
# level, so a deeper spec is refused before it can exhaust the interpreter.
MAX_SPEC_NESTING = 64

_SPEC_TOKEN = re.compile(
    r"\s*(?:(?P<atom>cl\(\s*\d+\s*,\s*\d+\s*\)|clc\(\s*\d+\s*\)|mat\(\s*\d+\s*\|\s*\d+\s*\))"
    r"|@alpha=(?P<alpha>[^\s()]+)|(?P<op>\(\+\)|\(x\)|\(|\)))"
)


def _spec_tree(text: str):
    """The parse tree of an algebra spec: an atom such as ("cl", 1, 0), a chain
    ("(+)", t1, t2, ..) or ("(x)", t1, t2, ..) of two or more operands, where (x)
    binds tighter, or ("@alpha", t, value).  The functions below pop matches off
    the reversed token list; a chain of any length is read in a loop, and only
    parentheses recurse, at most MAX_SPEC_NESTING deep."""
    tokens, pos = [], 0
    while m := _SPEC_TOKEN.match(text, pos):
        tokens.append(m)
        pos = m.end()
    if rest := text[pos:].strip():
        raise ValueError(f"bad algebra spec near {rest[:12]!r}")
    if not tokens:
        raise ValueError("empty algebra spec")
    tokens.reverse()
    tree = _spec_chain(tokens, 0, "(+)")
    if tokens:
        raise ValueError(f"trailing tokens in algebra spec: {tokens[-1][0].strip()!r}")
    return tree


def _spec_chain(tokens, depth: int, op: str):
    """Operands joined by op, in one node; those of a (+) chain are (x) chains."""
    parts = []
    while True:
        if op == "(+)":
            parts.append(_spec_chain(tokens, depth, "(x)"))
        else:
            parts.append(_spec_factor(tokens, depth))
        if not tokens or tokens[-1]["op"] != op:
            return parts[0] if len(parts) == 1 else (op, *parts)
        tokens.pop()


def _spec_take(tokens):
    if not tokens:
        raise ValueError("unexpected end of algebra spec")
    return tokens.pop()


def _spec_factor(tokens, depth: int):
    """An atom or a parenthesized spec, then an optional @alpha= suffix."""
    m = _spec_take(tokens)
    if m["atom"]:
        node = (m["atom"].split("(")[0], *map(int, re.findall(r"\d+", m["atom"])))
    elif m["op"] == "(":
        if depth == MAX_SPEC_NESTING:
            raise ValueError(f"algebra spec nests parentheses deeper than {MAX_SPEC_NESTING}")
        node = _spec_chain(tokens, depth + 1, "(+)")
        if _spec_take(tokens)["op"] != ")":
            raise ValueError("unbalanced parenthesis in algebra spec")
    else:
        raise ValueError(f"unexpected token {m[0].strip()!r} in algebra spec")
    if tokens and tokens[-1]["alpha"]:
        node = ("@alpha", node, CycloNum.parse(tokens.pop()["alpha"]))
    return node


def _build(tree, alpha: CycloNum) -> HalfTwistAlgebra:
    """Fold a spec tree, each chain from the left; alpha scales atoms outside @alpha."""
    kind, *args = tree
    if kind == "@alpha":
        return _build(args[0], args[1])
    if kind in ("(+)", "(x)"):
        join = direct_sum if kind == "(+)" else supertensor
        return reduce(join, (_build(t, alpha) for t in args))
    if kind == "cl":
        return build_clifford_real(*args, alpha)
    if kind == "clc":
        return build_clifford_complex(*args, alpha)
    return build_matrix(*args, alpha)


def parse_algebra(text: str, default_alpha=None) -> HalfTwistAlgebra:
    """Build an algebra from a spec string like "cl(1,0) (x) mat(1|1)".  An @alpha=
    suffix on an atom or a parenthesized group, nested or not, scales every atom
    inside without one of its own; the others take default_alpha (None is 1)."""
    tree = _spec_tree(text)
    return _build(tree, ONE if default_alpha is None else CycloNum.coerce(default_alpha))


# -- line-oriented serialization --------------------------------------------

_TENSOR_FIELDS = (
    ("C", "node", 3),
    ("B", "cap", 2),
    ("Binv", "cup", 2),
    ("lam", "crossing", 4),
    ("tau", "twist", 2),
    ("star", "star", 2),
)


def algebra_to_text(a: HalfTwistAlgebra) -> str:
    lines = [
        f"dim {a.dim}",
        f"alpha {a.alpha.render()}",
        f"R {a.vertex_weight.render()}",
    ]
    for i, lab in enumerate(a.labels):
        lines.append(f"label {i} {lab}")
    for i, p in enumerate(a.parity):
        lines.append(f"parity {i} {p}")
    for key, attr, _ in _TENSOR_FIELDS:
        tensor = getattr(a, attr)
        if tensor is None:
            continue
        for idx in sorted(tensor):
            lines.append(f"{key} {' '.join(map(str, idx))} {tensor[idx].render()}")
    return "\n".join(lines) + "\n"


def algebra_from_text(text: str) -> HalfTwistAlgebra:
    """Read what algebra_to_text writes.  Each header, label, parity and
    tensor entry may appear once; a short, repeated or unknown record raises
    ValueError naming its line."""
    dim = None
    alpha = ONE
    r_weight = ONE
    labels: dict[int, str] = {}
    parity: dict[int, int] = {}
    tensors: dict[str, SparseTensor] = {key: {} for key, _, _ in _TENSOR_FIELDS}
    arity = {key: ar for key, _, ar in _TENSOR_FIELDS}
    has_star = False
    seen: set[tuple[str, tuple[int, ...]]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        try:
            if head in ("dim", "alpha", "R"):
                idx, value = (), rest
            elif head in ("label", "parity") or head in tensors:
                n = arity.get(head, 1)
                fields = rest.split(None, n)
                if len(fields) != n + 1:
                    need = "an index" if n == 1 else f"{n} indices"
                    raise ValueError(f"{head} record needs {need} and a value")
                idx, value = tuple(int(x) for x in fields[:n]), fields[n]
            else:
                raise ValueError(f"unknown record {head!r}")
            if (head, idx) in seen:
                raise ValueError(f"repeated {head} {' '.join(map(str, idx)) or 'header'}")
            seen.add((head, idx))
            if head == "dim":
                dim = int(value)
                if dim < 0:
                    raise ValueError(f"negative dim {dim}")
            elif head == "alpha":
                alpha = CycloNum.parse(value)
            elif head == "R":
                r_weight = CycloNum.parse(value)
            elif head == "label":
                labels[idx[0]] = value
            elif head == "parity":
                p = int(value)
                if p not in (0, 1):
                    raise ValueError(f"parity {p} is not 0 or 1")
                parity[idx[0]] = p
            else:
                tensors[head][idx] = CycloNum.parse(value)
                has_star = has_star or head == "star"
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if dim is None:
        raise ValueError("missing dim header")
    for record, indices in (("label", labels), ("parity", parity)):
        for i in indices:
            if not 0 <= i < dim:
                raise ValueError(f"{record} index {i} outside 0..{dim - 1}")
    return custom_from_tensors(
        node=tensors["C"],
        cap=tensors["B"],
        cup=tensors["Binv"],
        crossing=tensors["lam"],
        twist=tensors["tau"],
        vertex_weight=r_weight,
        parity=tuple(parity.get(i, 0) for i in range(dim)),
        labels=tuple(labels.get(i, f"e{i}") for i in range(dim)),
        alpha=alpha,
        star=tensors["star"] if has_star else None,
    )
