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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import prod

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
    tensors_differ,
)

MAX_CLIFFORD_GENERATORS = 8  # every generator counts, the I of clc(n) included

__all__ = [
    "HalfTwistAlgebra",
    "AlgebraElement",
    "DerivedStructures",
    "build_clifford_real",
    "build_clifford_complex",
    "build_matrix",
    "direct_sum",
    "supertensor",
    "custom_from_tensors",
    "derived_structures",
    "parse_algebra",
    "algebra_to_text",
    "algebra_from_text",
]


class HalfTwistAlgebra:
    """Basis-indexed tensor data for the pin state sum.

    Instances are immutable by convention once constructed and may be shared
    freely across threads.
    """

    def __init__(
        self,
        dim: int,
        labels: tuple[str, ...],
        parity: tuple[int, ...],
        node: SparseTensor,
        cap: SparseTensor,
        cup: SparseTensor,
        crossing: SparseTensor,
        twist: SparseTensor,
        vertex_weight: CycloNum,
        alpha: CycloNum,
        star: SparseTensor | None = None,
        spec: str | None = None,
        generators: tuple[int, ...] | None = None,
    ):
        self.dim = dim
        self.labels = labels
        self.parity = parity
        self.node = node
        self.cap = cap
        self.cup = cup
        self.crossing = crossing
        self.twist = twist
        self.vertex_weight = vertex_weight
        self.alpha = alpha
        self.star = star
        self.spec = spec
        self.generators = generators
        self._cache: dict[str, object] = {}

    def __repr__(self):
        tag = self.spec or "custom"
        return f"HalfTwistAlgebra({tag}, dim={self.dim})"

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
        if "product" not in self._cache:
            self._cache["product"] = einsum("abd,dc->abc", self.node, self.cup)
        return self._cache["product"]  # type: ignore[return-value]

    def unit(self) -> "AlgebraElement":
        """The unit R sum_ab B^ab e_a e_b, the state sum of a disk.

        Raises ValueError when it is not a two-sided unit, which happens
        exactly when the algebra is not special (axiom a4).
        """
        if "unit" not in self._cache:
            product = self.product_tensor()
            u = scale(einsum("ab,abx->x", self.cup, product), self.vertex_weight)
            one = delta(self.dim)
            if einsum("a,axy->xy", u, product) != one or einsum("a,xay->xy", u, product) != one:
                raise ValueError(
                    "R sum_ab B^ab e_a e_b is not a two-sided unit: the algebra "
                    "is not special (a4)"
                )
            self._cache["unit"] = AlgebraElement(self, u)
        return self._cache["unit"]  # type: ignore[return-value]

    def counit_vector(self) -> tuple[CycloNum, ...]:
        """counit(e_x) = eta(1, e_x)."""
        eps = einsum("a,ax->x", self.unit().vector, self.cap)
        return AlgebraElement(self, eps).coeffs

    def counit(self, x: "AlgebraElement") -> CycloNum:
        return self.eta(self.unit(), x)

    def eta(self, x: "AlgebraElement", y: "AlgebraElement") -> CycloNum:
        return einsum("a,b,ab->", x.vector, y.vector, self.cap).get((), ZERO)

    def full_twist(self) -> SparseTensor:
        """phi_a^b = lam_ac^bd B^ce B_de, the square of the half twist."""
        if "phi" not in self._cache:
            self._cache["phi"] = einsum(
                "acbd,ce,de->ab", self.crossing, self.cup, self.cap
            )
        return self._cache["phi"]  # type: ignore[return-value]

    def nakayama(self) -> SparseTensor:
        """sigma_a^b = B_ac B^bc, the asymmetry of the bilinear form."""
        if "sigma" not in self._cache:
            self._cache["sigma"] = einsum("ac,bc->ab", self.cap, self.cup)
        return self._cache["sigma"]  # type: ignore[return-value]

    def twist_inverse(self) -> SparseTensor:
        if "twist_inv" not in self._cache:
            try:
                inv = mat_invert(self.twist, self.dim)
            except SingularMatrixError:
                raise SingularMatrixError("half twist is singular") from None
            self._cache["twist_inv"] = inv
        return self._cache["twist_inv"]  # type: ignore[return-value]

    def has_swap_crossing(self) -> bool:
        """True iff the crossing is exactly the graded swap for self.parity."""
        expected = _swap_crossing(self.parity)
        return tensors_differ(self.crossing, expected) is None

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


@dataclass(frozen=True)
class DerivedStructures:
    """Structures recomputed from the raw tensors rather than trusted."""

    product: SparseTensor
    unit: AlgebraElement
    counit: tuple[CycloNum, ...]
    full_twist: SparseTensor
    nakayama: SparseTensor


def _swap_crossing(parity: tuple[int, ...]) -> SparseTensor:
    out: SparseTensor = {}
    minus_one = CycloNum(-1)
    for a, pa in enumerate(parity):
        for b, pb in enumerate(parity):
            out[(a, b, b, a)] = minus_one if pa and pb else ONE
    return out


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


def _monomial_sign(s: int, t: int) -> int:
    """Sign of the product of two generator monomials given as bit masks.

    Bit k stands for the generator with index n-k, so numerically smaller
    masks come earlier in the lexicographic basis order.  Moving each
    generator of t into place crosses every generator of s with a strictly
    larger index, i.e. every set bit of s strictly below it.
    """
    total = 0
    tt = t
    while tt:
        low = tt & -tt
        total += (s & (low - 1)).bit_count()
        tt ^= low
    return -1 if total & 1 else 1


def _self_sign(mask: int) -> int:
    """Sign from reversing a monomial: (-1)^(k(k-1)/2) for k generators."""
    k = mask.bit_count()
    return -1 if (k * (k - 1) // 2) & 1 else 1


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
    """
    gens = tuple(islice(gens, MAX_CLIFFORD_GENERATORS + 1))
    if len(gens) > MAX_CLIFFORD_GENERATORS:
        raise ValueError(f"{spec} has more than {MAX_CLIFFORD_GENERATORS} generators")
    n = len(gens)
    dim = 1 << n
    by_bit = {1 << (n - 1 - j): g for j, g in enumerate(gens)}

    def bits(field: int, value) -> int:
        return sum(bit for bit, g in by_bit.items() if g[field] == value)

    odd, negative = bits(1, True), bits(2, -1)

    # Every cap and node entry is +-form and every cup entry +-1/form.
    form = alpha * SQRT2 ** scale_exp
    form_inv = form.inverse()
    cap_of, cup_of = {1: form, -1: -form}, {1: form_inv, -1: -form_inv}

    labels, star_sign, twist = [], [], {}
    for m in range(dim):
        members = [g for bit, g in by_bit.items() if m & bit]
        labels.append("".join(g[0] for g in members) or "1")
        star_sign.append(_self_sign(m & odd) * prod(g[4] for g in members))
        twist[(m, m)] = zeta_pow(sum(g[3] for g in members))
    parity = tuple((m & odd).bit_count() & 1 for m in range(dim))

    node: SparseTensor = {}
    for a in range(dim):
        for b in range(dim):
            c = a ^ b
            sign = _monomial_sign(a & odd, b & odd) * star_sign[c]
            if (a & b & negative).bit_count() & 1:
                sign = -sign
            node[(a, b, c)] = cap_of[sign]

    return HalfTwistAlgebra(
        dim=dim,
        labels=tuple(labels),
        parity=parity,
        node=node,
        cap={(m, m): cap_of[s] for m, s in enumerate(star_sign)},
        cup={(m, m): cup_of[s] for m, s in enumerate(star_sign)},
        crossing=_swap_crossing(parity),
        twist=twist,
        vertex_weight=alpha * SQRT2 ** weight_exp,
        alpha=alpha,
        star={(m, m): CycloNum(s) for m, s in enumerate(star_sign)},
        spec=spec,
        generators=tuple(sorted(by_bit)),
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
        dim=dim,
        labels=labels,
        parity=parity,
        node=node,
        cap=cap,
        cup=cup,
        crossing=_swap_crossing(parity),
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
    spec = f"{a.spec} (+) {b.spec}" if a.spec and b.spec else None
    dim = a.dim + b.dim
    _check_size(dim, spec or "direct sum")
    _require_swap(a, "direct sum")
    _require_swap(b, "direct sum")
    off = a.dim
    labels = tuple(f"A.{l}" for l in a.labels) + tuple(f"B.{l}" for l in b.labels)
    parity = a.parity + b.parity

    def shift(t: SparseTensor) -> SparseTensor:
        return {tuple(i + off for i in k): v for k, v in t.items()}

    node = dict(a.node)
    node.update(shift(b.node))
    cap = dict(a.cap)
    cap.update(shift(b.cap))
    cup = dict(a.cup)
    cup.update(shift(b.cup))
    twist = dict(a.twist)
    twist.update(shift(b.twist))
    star = None
    if a.star is not None and b.star is not None:
        star = dict(a.star)
        star.update(shift(b.star))

    gens = None
    if a.generators is not None and b.generators is not None:
        gens = a.generators + tuple(g + off for g in b.generators)
    return HalfTwistAlgebra(
        dim=dim,
        labels=labels,
        parity=parity,
        node=node,
        cap=cap,
        cup=cup,
        crossing=_swap_crossing(parity),
        twist=twist,
        vertex_weight=a.vertex_weight,
        alpha=a.alpha,
        star=star,
        spec=spec,
        generators=gens,
    )


def supertensor(a: HalfTwistAlgebra, b: HalfTwistAlgebra) -> HalfTwistAlgebra:
    """Graded tensor product, the stacking operation on state sums.

    Products pick up the Koszul sign (x (x) y)(x' (x) y') =
    (-1)^{|y||x'|} xx' (x) yy', the bilinear form the matching sign, and the
    half twist factorizes with no extra sign.  The vertex weight and alpha
    multiply.
    """
    spec = f"{a.spec} (x) {b.spec}" if a.spec and b.spec else None
    db = b.dim
    dim = a.dim * db
    _check_size(dim, spec or "supertensor")
    _require_swap(a, "supertensor")
    _require_swap(b, "supertensor")
    pa, pb = a.parity, b.parity

    def kron(ta: SparseTensor, tb: SparseTensor, odd) -> SparseTensor:
        """va * vb at each combined index, negated where odd(ka, kb) is set."""
        out: SparseTensor = {}
        for ka, va in ta.items():
            for kb, vb in tb.items():
                v = va * vb
                out[tuple(x * db + i for x, i in zip(ka, kb))] = -v if odd(ka, kb) else v
        return out

    def form_sign(ka, kb):
        return pb[kb[0]] & pa[ka[1]]

    labels = tuple(f"{la}*{lb}" for la in a.labels for lb in b.labels)
    parity = tuple((u + v) & 1 for u in pa for v in pb)
    cap = kron(a.cap, b.cap, form_sign)
    cup = kron(a.cup, b.cup, form_sign)
    node = kron(
        a.node,
        b.node,
        lambda ka, kb: (pb[kb[0]] & pa[ka[1]]) ^ ((pb[kb[0]] ^ pb[kb[1]]) & pa[ka[2]]),
    )
    twist = kron(a.twist, b.twist, lambda ka, kb: 0)
    star = None
    if a.star is not None and b.star is not None:
        star = kron(a.star, b.star, lambda ka, kb: pa[ka[0]] & pb[kb[0]])

    gens = None
    if a.generators is not None and b.generators is not None:
        gset = {g * db + i for g in a.generators for i in range(db)}
        gset |= {x * db + g for x in range(a.dim) for g in b.generators}
        gens = tuple(sorted(gset))
    return HalfTwistAlgebra(
        dim=dim,
        labels=labels,
        parity=parity,
        node=node,
        cap=cap,
        cup=cup,
        crossing=_swap_crossing(parity),
        twist=twist,
        vertex_weight=a.vertex_weight * b.vertex_weight,
        alpha=a.alpha * b.alpha,
        star=star,
        spec=spec,
        generators=gens,
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
    if labels is None:
        labels = tuple(f"e{a}" for a in range(dim))
    else:
        labels = tuple(labels)
        if len(labels) != dim:
            raise ValueError("labels length does not match parity length")
    return HalfTwistAlgebra(
        dim=dim,
        labels=labels,
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


def derived_structures(a: HalfTwistAlgebra) -> DerivedStructures:
    """Recompute product, unit, counit, full twist and Nakayama map.

    Requires an invertible cap form (the stored cup must be its two-sided
    inverse); raises SingularMatrixError otherwise.
    """
    snake = einsum("ac,cb->ab", a.cap, a.cup)
    if tensors_differ(snake, delta(a.dim)) is not None:
        raise SingularMatrixError("cap form is singular or cup is not its inverse")
    return DerivedStructures(
        product=a.product_tensor(),
        unit=a.unit(),
        counit=a.counit_vector(),
        full_twist=a.full_twist(),
        nakayama=a.nakayama(),
    )


# -- algebra spec grammar ---------------------------------------------------

_SPEC_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<cl>cl\(\s*(?P<clp>\d+)\s*,\s*(?P<clq>\d+)\s*\))"
    r"|(?P<clc>clc\(\s*(?P<clcn>\d+)\s*\))"
    r"|(?P<mat>mat\(\s*(?P<matp>\d+)\s*\|\s*(?P<matq>\d+)\s*\))"
    r"|(?P<sum>\(\+\))"
    r"|(?P<prod>\(x\))"
    r"|(?P<alpha>@alpha=(?P<alphalit>\S+))"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r")"
)


def _tokenize_spec(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _SPEC_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"bad algebra spec near {rest[:12]!r}")
        if m.group("cl"):
            tokens.append(("cl", int(m.group("clp")), int(m.group("clq"))))
        elif m.group("clc"):
            tokens.append(("clc", int(m.group("clcn"))))
        elif m.group("mat"):
            tokens.append(("mat", int(m.group("matp")), int(m.group("matq"))))
        elif m.group("sum"):
            tokens.append(("op+",))
        elif m.group("prod"):
            tokens.append(("opx",))
        elif m.group("alpha"):
            tokens.append(("alpha", CycloNum.parse(m.group("alphalit"))))
        elif m.group("lpar"):
            tokens.append(("(",))
        else:
            tokens.append((")",))
        pos = m.end()
    return tokens


class _SpecParser:
    """Recursive descent over the algebra spec grammar.

    (x) binds tighter than (+); both associate to the left.  An @alpha=
    suffix after an atom or a parenthesized group sets the scale for every
    atom inside that has no explicit alpha of its own.
    """

    def __init__(self, tokens, default_alpha):
        self.tokens = tokens
        self.pos = 0
        self.default_alpha = default_alpha

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of algebra spec")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens in algebra spec: {self.peek()!r}")
        return self.build(node, self.default_alpha)

    def expr(self):
        node = self.term()
        while self.peek() == ("op+",):
            self.take()
            node = ("sum", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("opx",):
            self.take()
            node = ("prod", node, self.factor())
        return node

    def factor(self):
        tok = self.take()
        if tok[0] in ("cl", "clc", "mat"):
            node = ("atom", tok)
        elif tok == ("(",):
            inner = self.expr()
            if self.take() != (")",):
                raise ValueError("unbalanced parenthesis in algebra spec")
            node = inner
        else:
            raise ValueError(f"unexpected token {tok!r} in algebra spec")
        nxt = self.peek()
        if nxt is not None and nxt[0] == "alpha":
            self.take()
            node = ("set_alpha", node, nxt[1])
        return node

    def build(self, node, alpha):
        kind = node[0]
        if kind == "set_alpha":
            return self.build(node[1], node[2])
        if kind == "sum":
            return direct_sum(self.build(node[1], alpha), self.build(node[2], alpha))
        if kind == "prod":
            return supertensor(self.build(node[1], alpha), self.build(node[2], alpha))
        assert kind == "atom"
        tok = node[1]
        if tok[0] == "cl":
            return build_clifford_real(tok[1], tok[2], alpha)
        if tok[0] == "clc":
            return build_clifford_complex(tok[1], alpha)
        return build_matrix(tok[1], tok[2], alpha)


def parse_algebra(text: str, default_alpha=None) -> HalfTwistAlgebra:
    """Build an algebra from a spec string like "cl(1,0) (x) mat(1|1)"."""
    tokens = _tokenize_spec(text)
    if not tokens:
        raise ValueError("empty algebra spec")
    default_alpha = ONE if default_alpha is None else CycloNum.coerce(default_alpha)
    return _SpecParser(tokens, default_alpha).parse()


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
    dim = None
    alpha = ONE
    r_weight = ONE
    labels: dict[int, str] = {}
    parity: dict[int, int] = {}
    tensors: dict[str, SparseTensor] = {key: {} for key, _, _ in _TENSOR_FIELDS}
    arity = {key: ar for key, _, ar in _TENSOR_FIELDS}
    has_star = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "dim":
                dim = int(rest)
            elif head == "alpha":
                alpha = CycloNum.parse(rest)
            elif head == "R":
                r_weight = CycloNum.parse(rest)
            elif head == "label":
                i, lab = rest.split(None, 1)
                labels[int(i)] = lab.strip()
            elif head == "parity":
                i, p = rest.split()
                parity[int(i)] = int(p)
            elif head in tensors:
                parts = rest.split(None, arity[head])
                idx = tuple(int(x) for x in parts[: arity[head]])
                tensors[head][idx] = CycloNum.parse(parts[arity[head]])
                if head == "star":
                    has_star = True
            else:
                raise ValueError(f"unknown record {head!r}")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if dim is None:
        raise ValueError("missing dim header")
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
