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
For every constructor the crossing is the graded swap

    crossing(e_a (x) e_b) = (-1)^{|a||b|} e_b (x) e_a

and the bilinear form is the trace form scaled by alpha, which makes the
Nakayama automorphism trivial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNum, ZERO, ONE, I, SQRT2, zeta_pow
from .linalg import (
    SparseTensor,
    SingularMatrixError,
    delta,
    einsum,
    linear_solve,
    mat_invert,
    prune,
    tensors_differ,
)

MAX_CLIFFORD_GENERATORS = 8
MAX_COMPLEX_CLIFFORD_GENERATORS = 7

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


def two_pow_half(k: int) -> CycloNum:
    """2^(k/2) as an exact field element (sqrt(2) = zeta - zeta^3)."""
    if k >= 0:
        whole = CycloNum(Fraction(2) ** (k // 2))
    else:
        whole = CycloNum(Fraction(1, 2 ** ((-k + 1) // 2)))
        if k % 2:
            whole = whole * SQRT2  # 2^(k/2) = sqrt2 * 2^((k-1)/2)
        return whole
    return whole * SQRT2 if k % 2 else whole


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
        self.node = prune(node)
        self.cap = prune(cap)
        self.cup = prune(cup)
        self.crossing = prune(crossing)
        self.twist = prune(twist)
        self.vertex_weight = vertex_weight
        self.alpha = alpha
        self.star = prune(star) if star is not None else None
        self.spec = spec
        self.generators = generators
        self._cache: dict[str, object] = {}

    def __repr__(self):
        tag = self.spec or "custom"
        return f"HalfTwistAlgebra({tag}, dim={self.dim})"

    # -- elements ---------------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        coeffs = tuple(CycloNum.coerce(c) for c in coeffs)
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(coeffs)}")
        return AlgebraElement(self, coeffs)

    def basis_element(self, a: int) -> "AlgebraElement":
        coeffs = [ZERO] * self.dim
        coeffs[a] = ONE
        return AlgebraElement(self, tuple(coeffs))

    # -- derived tensors (cached) ------------------------------------------

    def product_tensor(self) -> SparseTensor:
        """Structure constants m(e_a, e_b) = sum_c M_ab^c e_c."""
        if "product" not in self._cache:
            self._cache["product"] = einsum("abd,dc->abc", self.node, self.cup)
        return self._cache["product"]  # type: ignore[return-value]

    def unit(self) -> "AlgebraElement":
        """The two-sided unit, solved for from the structure constants."""
        if "unit" not in self._cache:
            rows: dict[tuple[int, int], dict[int, CycloNum]] = {}
            for (a, x, y), v in self.product_tensor().items():
                rows.setdefault((x, y), {})[a] = v
            system = [
                (coeffs, ONE if x == y else ZERO)
                for (x, y), coeffs in sorted(rows.items())
            ]
            sol = linear_solve(system, self.dim)
            u = AlgebraElement(self, tuple(sol))
            for x in range(self.dim):
                e_x = self.basis_element(x)
                if u * e_x != e_x or e_x * u != e_x:
                    raise ValueError("algebra has no two-sided unit")
            self._cache["unit"] = u
        return self._cache["unit"]  # type: ignore[return-value]

    def counit_vector(self) -> tuple[CycloNum, ...]:
        """counit(e_x) = eta(1, e_x)."""
        if "counit" not in self._cache:
            u = self.unit().coeffs
            out = [ZERO] * self.dim
            for (a, x), v in self.cap.items():
                if not u[a].is_zero():
                    out[x] = out[x] + u[a] * v
            self._cache["counit"] = tuple(out)
        return self._cache["counit"]  # type: ignore[return-value]

    def counit(self, x: "AlgebraElement") -> CycloNum:
        eps = self.counit_vector()
        total = ZERO
        for a, c in enumerate(x.coeffs):
            if not c.is_zero():
                total = total + c * eps[a]
        return total

    def eta(self, x: "AlgebraElement", y: "AlgebraElement") -> CycloNum:
        total = ZERO
        for (a, b), v in self.cap.items():
            xa, yb = x.coeffs[a], y.coeffs[b]
            if not xa.is_zero() and not yb.is_zero():
                total = total + xa * yb * v
        return total

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
        out = [ZERO] * self.dim
        for (a, b), v in self.star.items():
            xa = x.coeffs[a]
            if not xa.is_zero():
                out[b] = out[b] + xa.conjugate() * v
        return AlgebraElement(self, tuple(out))

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
    """A vector in a half twist algebra, stored over the basis."""

    algebra: HalfTwistAlgebra
    coeffs: tuple[CycloNum, ...]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-a for a in self.coeffs))

    def scaled(self, s) -> "AlgebraElement":
        s = CycloNum.coerce(s)
        return AlgebraElement(self.algebra, tuple(s * a for a in self.coeffs))

    def __rmul__(self, s):
        if isinstance(s, (int, Fraction, CycloNum)):
            return self.scaled(s)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scaled(other)
        self._check(other)
        out = [ZERO] * self.algebra.dim
        for (a, b, c), v in self.algebra.product_tensor().items():
            xa, yb = self.coeffs[a], other.coeffs[b]
            if not xa.is_zero() and not yb.is_zero():
                out[c] = out[c] + xa * yb * v
        return AlgebraElement(self.algebra, tuple(out))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def render(self) -> str:
        parts = [
            f"({c!r})*{lab}"
            for c, lab in zip(self.coeffs, self.algebra.labels)
            if not c.is_zero()
        ]
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


def _gamma_label(mask: int, n: int) -> str:
    if mask == 0:
        return "1"
    gens = [str(j + 1) for j in range(n) if (mask >> (n - 1 - j)) & 1]
    return "".join(f"G{g}" for g in gens)


def build_clifford_real(p: int, q: int, alpha=1) -> HalfTwistAlgebra:
    """Half twist algebra of the real Clifford algebra with signature (p, q).

    Generators G_1 .. G_n (n = p + q) square to +1 and anticommute; the first
    p come from the positive part of the signature, the rest absorb an i when
    the algebra is complexified.  Basis monomials are ordered
    lexicographically in their exponent bit string with the unit first.
    """
    if p < 0 or q < 0:
        raise ValueError("signature must be nonnegative")
    n = p + q
    if n > MAX_CLIFFORD_GENERATORS:
        raise ValueError(f"p + q must stay at or below {MAX_CLIFFORD_GENERATORS}")
    alpha = _check_alpha(alpha)
    dim = 1 << n
    scale_eps = alpha * two_pow_half(n)

    labels = tuple(_gamma_label(m, n) for m in range(dim))
    parity = tuple(m.bit_count() & 1 for m in range(dim))

    cap: SparseTensor = {}
    cup: SparseTensor = {}
    for m in range(dim):
        b_mm = CycloNum(_self_sign(m)) * scale_eps
        cap[(m, m)] = b_mm
        cup[(m, m)] = b_mm.inverse()

    node: SparseTensor = {}
    for a in range(dim):
        for b in range(dim):
            c = a ^ b
            val = CycloNum(_monomial_sign(a, b) * _self_sign(c)) * scale_eps
            node[(a, b, c)] = val

    # Generators with index above p correspond to the q low bits of the mask.
    qmask = (1 << q) - 1 if q else 0
    twist: SparseTensor = {}
    for m in range(dim):
        phase = zeta_pow(2 * m.bit_count())
        if (m & qmask).bit_count() & 1:
            phase = -phase
        twist[(m, m)] = phase

    star: SparseTensor = {(m, m): CycloNum(_self_sign(m)) for m in range(dim)}

    return HalfTwistAlgebra(
        dim=dim,
        labels=labels,
        parity=parity,
        node=node,
        cap=cap,
        cup=cup,
        crossing=_swap_crossing(parity),
        twist=twist,
        vertex_weight=alpha * two_pow_half(-n),
        alpha=alpha,
        star=star,
        spec=f"cl({p},{q})",
        generators=tuple(1 << t for t in range(n)),
    )


def build_clifford_complex(n: int, alpha=1) -> HalfTwistAlgebra:
    """Half twist algebra of the complex Clifford algebra on n generators.

    Viewed as a real superalgebra: anticommuting odd generators G_j with
    G_j^2 = +1 plus an even central element I with I^2 = -1.  Basis index is
    (gamma mask, I exponent M) flattened with M least significant.
    """
    if n < 0:
        raise ValueError("generator count must be nonnegative")
    if n > MAX_COMPLEX_CLIFFORD_GENERATORS:
        raise ValueError(f"n must stay at or below {MAX_COMPLEX_CLIFFORD_GENERATORS}")
    alpha = _check_alpha(alpha)
    dim = 1 << (n + 1)
    scale_eps = alpha * two_pow_half(n + 2)

    def split(idx):
        return idx >> 1, idx & 1

    labels = []
    parity = []
    for idx in range(dim):
        mask, m_i = split(idx)
        lab = _gamma_label(mask, n)
        if m_i:
            lab = "I" if lab == "1" else lab + "I"
        labels.append(lab)
        parity.append(mask.bit_count() & 1)

    cap: SparseTensor = {}
    cup: SparseTensor = {}
    for idx in range(dim):
        mask, m_i = split(idx)
        sign = _self_sign(mask) * (-1 if m_i else 1)
        b_val = CycloNum(sign) * scale_eps
        cap[(idx, idx)] = b_val
        cup[(idx, idx)] = b_val.inverse()

    node: SparseTensor = {}
    for a in range(dim):
        sa, ma = split(a)
        for b in range(dim):
            sb, mb = split(b)
            mask_c = sa ^ sb
            m_c = ma ^ mb
            c = (mask_c << 1) | m_c
            sign = _monomial_sign(sa, sb)
            if ma and mb:  # I^2 = -1
                sign = -sign
            sign *= _self_sign(mask_c) * (-1 if m_c else 1)
            node[(a, b, c)] = CycloNum(sign) * scale_eps

    twist: SparseTensor = {}
    star: SparseTensor = {}
    for idx in range(dim):
        mask, m_i = split(idx)
        phase = zeta_pow(2 * mask.bit_count())
        if m_i:
            phase = -phase
        twist[(idx, idx)] = phase
        s = _self_sign(mask) * (-1 if m_i else 1)
        star[(idx, idx)] = CycloNum(s)

    gens = tuple(sorted([1] + [(1 << t) << 1 for t in range(n)]))
    return HalfTwistAlgebra(
        dim=dim,
        labels=tuple(labels),
        parity=tuple(parity),
        node=node,
        cap=cap,
        cup=cup,
        crossing=_swap_crossing(tuple(parity)),
        twist=twist,
        vertex_weight=alpha * two_pow_half(-n),
        alpha=alpha,
        star=star,
        spec=f"clc({n})",
        generators=gens,
    )


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
    alpha = _check_alpha(alpha)
    dim = n * n

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
    _require_swap(a, "direct sum")
    _require_swap(b, "direct sum")
    off = a.dim
    dim = a.dim + b.dim
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
    spec = None
    if a.spec and b.spec:
        spec = f"{a.spec} (+) {b.spec}"
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
    _require_swap(a, "supertensor")
    _require_swap(b, "supertensor")
    db = b.dim
    dim = a.dim * db

    def idx(x, i):
        return x * db + i

    labels = tuple(
        f"{la}*{lb}" for la in a.labels for lb in b.labels
    )
    parity = tuple(
        (pa + pb) & 1 for pa in a.parity for pb in b.parity
    )

    minus = CycloNum(-1)

    cap: SparseTensor = {}
    cup: SparseTensor = {}
    for (x, y), va in a.cap.items():
        for (i, j), vb in b.cap.items():
            sign = minus if b.parity[i] and a.parity[y] else ONE
            cap[(idx(x, i), idx(y, j))] = sign * va * vb
    for (x, y), va in a.cup.items():
        for (i, j), vb in b.cup.items():
            sign = minus if b.parity[i] and a.parity[y] else ONE
            cup[(idx(x, i), idx(y, j))] = sign * va * vb

    node: SparseTensor = {}
    for (x, y, z), va in a.node.items():
        for (i, j, k), vb in b.node.items():
            s = (b.parity[i] & a.parity[y]) ^ (
                ((b.parity[i] + b.parity[j]) & 1) & a.parity[z]
            )
            val = va * vb
            node[(idx(x, i), idx(y, j), idx(z, k))] = -val if s else val

    twist: SparseTensor = {}
    for (x, y), va in a.twist.items():
        for (i, j), vb in b.twist.items():
            twist[(idx(x, i), idx(y, j))] = va * vb

    star = None
    if a.star is not None and b.star is not None:
        star = {}
        for (x, y), va in a.star.items():
            for (i, j), vb in b.star.items():
                sign = minus if a.parity[x] and b.parity[i] else ONE
                star[(idx(x, i), idx(y, j))] = sign * va * vb

    gens = None
    if a.generators is not None and b.generators is not None:
        gset = {idx(g, i) for g in a.generators for i in range(db)}
        gset |= {idx(x, g) for x in range(a.dim) for g in b.generators}
        gens = tuple(sorted(gset))
    spec = None
    if a.spec and b.spec:
        spec = f"{a.spec} (x) {b.spec}"
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
    return out


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
    parity sequence); everything else is the axiom checker's job.
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
