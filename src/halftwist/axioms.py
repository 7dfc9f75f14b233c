"""Exact verification of the thirteen diagram-move identities.

Each axiom is an index equation between contractions of the five weight
tensors; it is checked exhaustively over all free indices by sparse pairwise
contraction, so a pass is a proof for the given algebra and a failure comes
with a concrete witness (index tuple plus the two differing values).

The axioms, with the diagram move each one encodes:

    a1   Snake                          B_ac B^cb = delta_a^b
    a2   Cyclicity                      C_abd B^dc = B^cd C_dab
    a3   Pachner 2-2 (associativity)    C_abe B^ef C_fcd = C_bce B^ef C_afd
    a4   Pachner 3-1 (specialness)      C_abc = R C_ade B^df C_fbg B^gh C_ihc B^ei
    a5   Crossing at a critical point   B_ae lam_bc^ed = lam_ab^de B_ec
    a6   Crossing at a node             lam_ab^ef C_fcd = C_axg lam_bc^xf lam_fd^ge
    a7   Modified Reidemeister I        B^cd B_ce lam_da^eb = lam_ac^bd B^ce B_de
    a8   Reidemeister II                lam_ab^ef lam_ef^cd = delta delta
    a9   Reidemeister III               lam_ag^di lam_bc^gh lam_ih^ef
                                          = lam_ab^gh lam_hc^if lam_gi^de
    a10  Twist at a critical point      B_ac tau_b^c = tau_a^c B_cb
    a11  Twist at a node                C_abd tau_c^d = tau_a^d tau_b^e lam_de^fg C_fgc
    a12  Twist at a crossing            tau_a^e lam_eb^cd = lam_ab^ce tau_e^d
    a13  Two half twists                tau_a^c tau_c^b = lam_ac^bd B^ce B_de

In a6 the letter x marks the summed index that ties the node to the first
crossing; spelled with a repeated letter the equation reads
lam_ab^ef C_fcd = C_aeg lam_bc^ef lam_fd^ge with the free upper index the one
on the last crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import CycloNum, ONE
from .linalg import (
    CELL_CEILING,
    ContractionTooLarge,
    SingularMatrixError,
    delta,
    dense_from_sparse,
    einsum,
    hermitian_positive_definite,
    scale,
    tensors_differ,
)
from .superalgebra import HalfTwistAlgebra

AXIOM_IDS = tuple(f"a{k}" for k in range(1, 14))

AXIOM_NAMES = {
    "a1": "snake",
    "a2": "cyclicity",
    "a3": "pachner 2-2",
    "a4": "pachner 3-1",
    "a5": "crossing at a critical point",
    "a6": "crossing at a node",
    "a7": "modified reidemeister I",
    "a8": "reidemeister II",
    "a9": "reidemeister III",
    "a10": "twist at a critical point",
    "a11": "twist at a node",
    "a12": "twist at a crossing",
    "a13": "two half twists",
}

DERIVED_IDS = (
    "nakayama_symmetric",
    "nakayama_involution",
    "nakayama_trivial",
    "full_twist_automorphism",
    "full_twist_isometry",
    "twist_cap_transport",
    "twist_crossing_transport",
)

UNITARITY_IDS = (
    "star_antiautomorphism",
    "star_form",
    "star_crossing",
    "star_twist_inverse",
    "vertex_weight_real",
    "positive_definite",
)


@dataclass(frozen=True)
class CheckStatus:
    """Outcome of one exact identity check."""

    check_id: str
    passed: bool
    witness: tuple[int, ...] | None = None
    lhs: CycloNum | None = None
    rhs: CycloNum | None = None

    def describe(self) -> str:
        if self.passed:
            return f"{self.check_id}: pass"
        return (
            f"{self.check_id}: FAIL at index {self.witness} "
            f"(lhs {self.lhs!r}, rhs {self.rhs!r})"
        )


@dataclass
class AxiomReport:
    """Collected per-check statuses for one algebra."""

    statuses: dict[str, CheckStatus] = field(default_factory=dict)

    def add(self, status: CheckStatus):
        self.statuses[status.check_id] = status

    def passed(self, check_id: str) -> bool:
        return self.statuses[check_id].passed

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.statuses.values())

    def failures(self) -> list[CheckStatus]:
        return [s for s in self.statuses.values() if not s.passed]

    def render_text(self) -> str:
        width = max(len(k) for k in self.statuses)
        lines = []
        for key, status in self.statuses.items():
            name = AXIOM_NAMES.get(key, "")
            mark = "pass" if status.passed else "FAIL"
            line = f"{key:<{width}}  {mark}"
            if name:
                line += f"  ({name})"
            if not status.passed:
                line += f"  witness={status.witness}"
                if status.lhs is not None:
                    line += f" lhs={status.lhs!r} rhs={status.rhs!r}"
            lines.append(line)
        return "\n".join(lines)

    def render_kv(self) -> str:
        lines = []
        for key, status in self.statuses.items():
            lines.append(f"{key} = {'pass' if status.passed else 'fail'}")
            if not status.passed:
                lines.append(f"{key}.witness = {status.witness}")
                if status.lhs is not None:
                    lines.append(f"{key}.lhs = {status.lhs.render()}")
                    lines.append(f"{key}.rhs = {status.rhs.render()}")
        return "\n".join(lines)


def _status(check_id, lhs, rhs) -> CheckStatus:
    diff = tensors_differ(lhs, rhs)
    if diff is None:
        return CheckStatus(check_id, True)
    idx, lv, rv = diff
    return CheckStatus(check_id, False, idx, lv, rv)


def check_axiom(a: HalfTwistAlgebra, which: str) -> CheckStatus:
    """Check one of a1..a13 exactly, over all free indices."""
    node, cap, cup, lam, tau = a.node, a.cap, a.cup, a.crossing, a.twist
    dim = a.dim
    if which == "a1":
        return _status("a1", einsum("ac,cb->ab", cap, cup), delta(dim))
    if which == "a2":
        return _status(
            "a2",
            einsum("abd,dc->abc", node, cup),
            einsum("cd,dab->abc", cup, node),
        )
    if which == "a3":
        return _status(
            "a3",
            einsum("abe,ef,fcd->abcd", node, cup, node),
            einsum("bce,ef,afd->abcd", node, cup, node),
        )
    if which == "a4":
        rhs = einsum("ade,df,fbg,gh,ihc,ei->abc", node, cup, node, cup, node, cup)
        return _status("a4", node, scale(rhs, a.vertex_weight))
    if which == "a5":
        return _status(
            "a5",
            einsum("ae,bced->abcd", cap, lam),
            einsum("abde,ec->abcd", lam, cap),
        )
    if which == "a6":
        return _status(
            "a6",
            einsum("abef,fcd->abcde", lam, node),
            einsum("axg,bcxf,fdge->abcde", node, lam, lam),
        )
    if which == "a7":
        return _status(
            "a7",
            einsum("cd,ce,daeb->ab", cup, cap, lam),
            einsum("acbd,ce,de->ab", lam, cup, cap),
        )
    if which == "a8":
        ident2 = {
            (x, y, x, y): ONE for x in range(dim) for y in range(dim)
        }
        return _status("a8", einsum("abef,efcd->abcd", lam, lam), ident2)
    if which == "a9":
        return _status(
            "a9",
            einsum("agdi,bcgh,ihef->abcdef", lam, lam, lam),
            einsum("abgh,hcif,gide->abcdef", lam, lam, lam),
        )
    if which == "a10":
        return _status(
            "a10",
            einsum("ac,bc->ab", cap, tau),
            einsum("ac,cb->ab", tau, cap),
        )
    if which == "a11":
        return _status(
            "a11",
            einsum("abd,cd->abc", node, tau),
            einsum("ad,be,defg,fgc->abc", tau, tau, lam, node),
        )
    if which == "a12":
        return _status(
            "a12",
            einsum("ae,ebcd->abcd", tau, lam),
            einsum("abce,ed->abcd", lam, tau),
        )
    if which == "a13":
        return _status(
            "a13",
            einsum("ac,cb->ab", tau, tau),
            einsum("acbd,ce,de->ab", lam, cup, cap),
        )
    raise ValueError(f"unknown axiom id {which!r} (expected a1..a13)")


def check_all_axioms(a: HalfTwistAlgebra) -> AxiomReport:
    """Check a1..a13.  Raises ContractionTooLarge before any check runs when
    dim^3 is over CELL_CEILING: a3 on a Clifford algebra and a9 on any
    graded-swap crossing form dim^3 terms in one join, so such an algebra
    would be refused partway through the thirteen checks."""
    if a.dim**3 > CELL_CEILING:
        raise ContractionTooLarge(
            f"checking the axioms of a dimension-{a.dim} algebra forms joins of "
            f"dim^3 = {a.dim**3} terms, over the ceiling of {CELL_CEILING}"
        )
    report = AxiomReport()
    for which in AXIOM_IDS:
        report.add(check_axiom(a, which))
    return report


def check_derived(a: HalfTwistAlgebra) -> AxiomReport:
    """Identities that follow from a1-a13 for the superalgebra class.

    nakayama_trivial is informational for hand-entered tensors, where a
    nontrivial Nakayama map is legal; for constructor output it must pass.
    """
    report = AxiomReport()
    sigma = a.nakayama()
    phi = a.full_twist()
    ident = delta(a.dim)

    report.add(
        _status(
            "nakayama_symmetric",
            sigma,
            einsum("ca,cb->ab", a.cap, a.cup),
        )
    )
    report.add(_status("nakayama_involution", einsum("ax,xb->ab", sigma, sigma), ident))
    report.add(_status("nakayama_trivial", sigma, ident))

    product = a.product_tensor()
    report.add(
        _status(
            "full_twist_automorphism",
            einsum("abx,xc->abc", product, phi),
            einsum("ax,by,xyc->abc", phi, phi, product),
        )
    )
    report.add(
        _status(
            "full_twist_isometry",
            einsum("ax,by,xy->ab", phi, phi, a.cap),
            a.cap,
        )
    )
    report.add(
        _status(
            "twist_cap_transport",
            einsum("cb,ca->ab", a.cup, a.twist),
            einsum("ad,db->ab", a.cup, a.twist),
        )
    )
    report.add(
        _status(
            "twist_crossing_transport",
            einsum("be,aecd->abcd", a.twist, a.crossing),
            einsum("abfd,fc->abcd", a.crossing, a.twist),
        )
    )
    return report


def _conj_tensor(t):
    return {k: v.conjugate() for k, v in t.items()}


def check_unitarity(a: HalfTwistAlgebra) -> AxiomReport:
    """Adjointness of the five generators under reflection, plus positivity.

    The star map is antilinear, so wherever it acts on an element whose
    coefficients came from earlier tensors those coefficients are conjugated
    before the star matrix is applied.
    """
    if a.star is None:
        raise ValueError("unitarity check needs the star tensor")
    report = AxiomReport()
    star = a.star
    product = a.product_tensor()

    # star(m(star a, star b)) = m(b, a)
    lhs = einsum(
        "ax,by,xyc,cd->abd",
        _conj_tensor(star),
        _conj_tensor(star),
        _conj_tensor(product),
        star,
    )
    rhs = einsum("bac->abc", product)
    report.add(_status("star_antiautomorphism", lhs, rhs))

    # eta(star a, star b) = eta(b, a)
    lhs = einsum("ax,by,xy->ab", star, star, a.cap)
    rhs = einsum("ba->ab", a.cap)
    report.add(_status("star_form", lhs, rhs))

    # (star x star) lam (star a, star b) = the mirrored crossing lam_ba^qp
    # (reflection across the y axis reverses both the input pair and the
    # output pair of a 2 -> 2 block).
    lhs = einsum(
        "ax,by,xyuv,up,vq->abpq",
        _conj_tensor(star),
        _conj_tensor(star),
        _conj_tensor(a.crossing),
        star,
        star,
    )
    rhs = einsum("baqp->abpq", a.crossing)
    report.add(_status("star_crossing", lhs, rhs))

    # star(tau(star a)) = tau^{-1}(a)
    lhs = einsum("ab,bc,cd->ad", _conj_tensor(star), _conj_tensor(a.twist), star)
    try:
        twist_inverse = a.twist_inverse()
    except SingularMatrixError:
        # A singular twist has no inverse for the star to match.
        report.add(CheckStatus("star_twist_inverse", False, ()))
    else:
        report.add(_status("star_twist_inverse", lhs, twist_inverse))

    r = a.vertex_weight
    report.add(
        CheckStatus("vertex_weight_real", r.is_real(), None if r.is_real() else (), r, r.conjugate())
    )

    gram_sparse = einsum("ac,cb->ab", star, a.cap)
    gram = dense_from_sparse(gram_sparse, a.dim)
    hermitian = all(
        gram[x][y].conjugate() == gram[y][x] for x in range(a.dim) for y in range(a.dim)
    )
    pd = hermitian and hermitian_positive_definite(gram)
    report.add(CheckStatus("positive_definite", pd, None if pd else ()))
    return report


def full_report(a: HalfTwistAlgebra) -> AxiomReport:
    """Axioms, derived identities, and (when star is present) unitarity."""
    report = check_all_axioms(a)
    for status in check_derived(a).statuses.values():
        report.add(status)
    if a.star is not None:
        for status in check_unitarity(a).statuses.values():
            report.add(status)
    return report
