"""Exact verification of the thirteen diagram-move identities.

Each axiom is an index equation between contractions of the five weight
tensors; it is checked exhaustively over all free indices by sparse pairwise
contraction, so a pass is a proof for the given algebra and a failure comes
with a concrete witness (index tuple plus the two differing values).

Each check is one table entry whose sides(a, einsum) forms the two tensors
the identity equates through the contraction it is handed; the index
equation it encodes is written above it.  Every entry is formed and
compared in one place, _check, which hands it linalg.einsum, or for the
SLICED axioms on a large algebra linalg.einsum_slices, so that each side
comes one value of its first index at a time.  The operands of each einsum
stay in the order written, since the planner breaks ties toward the
leftmost pair.

Where an equation holds one of the algebra's cached derived tensors word
for word, its entry reads that tensor: the product tensor
P_abf = C_abe B^ef (product_tensor) in a2, a3 and a4, and the full twist
phi_a^b = lam_ac^bd B^ce B_de (full_twist) in a7 and a13.  Each is formed
once per algebra, by the same einsum, so a report does not form it again,
and a4's right side joins four operands where written out it joins six.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import CycloNum, ONE
from .linalg import (
    CELL_CEILING,
    ContractionTooLarge,
    SingularMatrixError,
    delta,
    einsum,
    einsum_slices,
    hermitian_positive_definite,
    scale,
    tensors_differ,
)
from .superalgebra import HalfTwistAlgebra

__all__ = [
    "AXIOM_IDS",
    "AxiomReport",
    "CheckStatus",
    "check_axiom",
    "check_all_axioms",
    "check_derived",
    "check_unitarity",
    "full_report",
]


def _conj_tensor(t):
    return {k: v.conjugate() for k, v in t.items()}


# Each axiom as id -> (name, sides), with the diagram move it encodes as its
# name; in a6 the letter x marks the summed index that ties the node to the
# first crossing.
AXIOMS = {
    # B_ac B^cb = delta_a^b
    "a1": ("snake", lambda a, einsum: (einsum("ac,cb->ab", a.cap, a.cup), delta(a.dim))),
    # P_abc = B^cd C_dab, that is C_abd B^dc = B^cd C_dab
    "a2": ("cyclicity", lambda a, einsum: (
        a.product_tensor(),
        einsum("cd,dab->abc", a.cup, a.node),
    )),
    # P_abf C_fcd = P_bcf C_afd, that is C_abe B^ef C_fcd = C_bce B^ef C_afd
    # (associativity)
    "a3": ("pachner 2-2", lambda a, einsum: (
        einsum("abf,fcd->abcd", a.product_tensor(), a.node),
        einsum("bcf,afd->abcd", a.product_tensor(), a.node),
    )),
    # C_abc = R P_adi B^df P_fbh C_ihc, that is
    # C_abc = R C_ade B^ei B^df C_fbg B^gh C_ihc  (specialness); R rides on
    # the cup between the two products, and C_abc is an einsum too, so that
    # both sides can be cut.
    "a4": ("pachner 3-1", lambda a, einsum: (
        einsum("abc->abc", a.node),
        einsum(
            "adi,df,fbh,ihc->abc",
            a.product_tensor(), scale(a.cup, a.vertex_weight), a.product_tensor(), a.node,
        ),
    )),
    # B_ae lam_bc^ed = lam_ab^de B_ec
    "a5": ("crossing at a critical point", lambda a, einsum: (
        einsum("ae,bced->abcd", a.cap, a.crossing),
        einsum("abde,ec->abcd", a.crossing, a.cap),
    )),
    # lam_ab^ef C_fcd = C_axg lam_bc^xf lam_fd^ge
    "a6": ("crossing at a node", lambda a, einsum: (
        einsum("abef,fcd->abcde", a.crossing, a.node),
        einsum("axg,bcxf,fdge->abcde", a.node, a.crossing, a.crossing),
    )),
    # B^cd B_ce lam_da^eb = phi_a^b, that is = lam_ac^bd B^ce B_de
    "a7": ("modified reidemeister I", lambda a, einsum: (
        einsum("cd,ce,daeb->ab", a.cup, a.cap, a.crossing),
        a.full_twist(),
    )),
    # lam_ab^ef lam_ef^cd = delta_a^c delta_b^d
    "a8": ("reidemeister II", lambda a, einsum: (
        einsum("abef,efcd->abcd", a.crossing, a.crossing),
        {(x, y, x, y): ONE for x in range(a.dim) for y in range(a.dim)},
    )),
    # lam_ag^di lam_bc^gh lam_ih^ef = lam_ab^gh lam_hc^if lam_gi^de
    "a9": ("reidemeister III", lambda a, einsum: (
        einsum("agdi,bcgh,ihef->abcdef", a.crossing, a.crossing, a.crossing),
        einsum("abgh,hcif,gide->abcdef", a.crossing, a.crossing, a.crossing),
    )),
    # B_ac tau_b^c = tau_a^c B_cb
    "a10": ("twist at a critical point", lambda a, einsum: (
        einsum("ac,bc->ab", a.cap, a.twist),
        einsum("ac,cb->ab", a.twist, a.cap),
    )),
    # C_abd tau_c^d = tau_a^d tau_b^e lam_de^fg C_fgc
    "a11": ("twist at a node", lambda a, einsum: (
        einsum("abd,cd->abc", a.node, a.twist),
        einsum("ad,be,defg,fgc->abc", a.twist, a.twist, a.crossing, a.node),
    )),
    # tau_a^e lam_eb^cd = lam_ab^ce tau_e^d
    "a12": ("twist at a crossing", lambda a, einsum: (
        einsum("ae,ebcd->abcd", a.twist, a.crossing),
        einsum("abce,ed->abcd", a.crossing, a.twist),
    )),
    # tau_a^c tau_c^b = phi_a^b, that is = lam_ac^bd B^ce B_de
    "a13": ("two half twists", lambda a, einsum: (
        einsum("ac,cb->ab", a.twist, a.twist),
        a.full_twist(),
    )),
}

AXIOM_IDS = tuple(AXIOMS)

# The axioms whose sides, or the joins that form them, reach dim^3 entries:
# a3, a6 and a9 on a Clifford algebra, a4 in its intermediates.  On an
# algebra with dim^3 over SLICE_ABOVE entries, _check forms their sides one
# value of the first index at a time, about dim^2 entries each.  Up to dim
# 12 the whole sides are formed, because there they are faster: timed as
# a3+a4+a6+a9, alternating whole and sliced on a 2-core x86-64 VM with
# Python 3.11, sliced takes 1.38x the whole time at dim 4 (cl(1,1)), 1.20x
# at dim 8 (cl(3,0)), 1.22x at dim 9 (mat(2|1)), 1.06x at dim 12 (three
# dim-4 direct summands), 0.94x and 0.87x at dim 16 (four summands,
# cl(2,2)); over axiom_sweep's 57 jobs of dim 1-9, 1.19x (0 of 20 pairs
# faster).
SLICED = frozenset({"a3", "a4", "a6", "a9"})
SLICE_ABOVE = 1 << 11

# Identities that follow from a1-a13 for the superalgebra class, as
# id -> sides.  nakayama_trivial is informational for hand-entered tensors,
# where a nontrivial Nakayama map is legal; for constructor output it must
# pass.
DERIVED = {
    "nakayama_symmetric": lambda a, einsum: (a.nakayama(), einsum("ca,cb->ab", a.cap, a.cup)),
    "nakayama_involution": lambda a, einsum: (
        einsum("ax,xb->ab", a.nakayama(), a.nakayama()),
        delta(a.dim),
    ),
    "nakayama_trivial": lambda a, einsum: (a.nakayama(), delta(a.dim)),
    "full_twist_automorphism": lambda a, einsum: (
        einsum("abx,xc->abc", a.product_tensor(), a.full_twist()),
        einsum("ax,by,xyc->abc", a.full_twist(), a.full_twist(), a.product_tensor()),
    ),
    "full_twist_isometry": lambda a, einsum: (
        einsum("ax,by,xy->ab", a.full_twist(), a.full_twist(), a.cap),
        a.cap,
    ),
    "twist_cap_transport": lambda a, einsum: (
        einsum("cb,ca->ab", a.cup, a.twist),
        einsum("ad,db->ab", a.cup, a.twist),
    ),
    "twist_crossing_transport": lambda a, einsum: (
        einsum("be,aecd->abcd", a.twist, a.crossing),
        einsum("abfd,fc->abcd", a.crossing, a.twist),
    ),
}

# Adjointness of the generators under reflection, as id -> sides.  The star
# map is antilinear, so wherever it acts on an element whose coefficients
# came from earlier tensors those coefficients are conjugated before the star
# matrix is applied.
STAR = {
    # star(m(star a, star b)) = m(b, a)
    "star_antiautomorphism": lambda a, einsum: (
        einsum(
            "ax,by,xyc,cd->abd",
            _conj_tensor(a.star),
            _conj_tensor(a.star),
            _conj_tensor(a.product_tensor()),
            a.star,
        ),
        einsum("bac->abc", a.product_tensor()),
    ),
    # eta(star a, star b) = eta(b, a)
    "star_form": lambda a, einsum: (
        einsum("ax,by,xy->ab", a.star, a.star, a.cap),
        einsum("ba->ab", a.cap),
    ),
    # (star x star) lam (star a, star b) = the mirrored crossing lam_ba^qp
    # (reflection across the y axis reverses both the input pair and the
    # output pair of a 2 -> 2 block).
    "star_crossing": lambda a, einsum: (
        einsum(
            "ax,by,xyuv,up,vq->abpq",
            _conj_tensor(a.star),
            _conj_tensor(a.star),
            _conj_tensor(a.crossing),
            a.star,
            a.star,
        ),
        einsum("baqp->abpq", a.crossing),
    ),
}


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

    def render_text(self) -> str:
        width = max(len(k) for k in self.statuses)
        lines = []
        for key, status in self.statuses.items():
            mark = "pass" if status.passed else "FAIL"
            line = f"{key:<{width}}  {mark}"
            if key in AXIOMS:
                line += f"  ({AXIOMS[key][0]})"
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


def _check(a: HalfTwistAlgebra, check_id: str, sides) -> CheckStatus:
    """Form one table entry's two sides and compare them over all indices:
    whole, or for a SLICED check on an algebra with dim^3 over SLICE_ABOVE,
    one value of the first index at a time, stopping at the first slice
    that differs.  Keys sort by their first index first, so that slice
    holds the smallest differing index of the whole sides.  A value that
    one side's slices skip is an empty slice there, and each side's slice
    is dropped before that side forms its next one."""
    if check_id not in SLICED or a.dim**3 <= SLICE_ABOVE:
        return _status(check_id, *sides(a, einsum))
    slices = sides(a, einsum_slices)
    heads = [next(side, None) for side in slices]
    while heads != [None, None]:
        value = min(head[0] for head in heads if head)
        pair = [head[1] if head and head[0] == value else {} for head in heads]
        status = _status(check_id, *pair)
        if not status.passed:
            return status
        for n, side in enumerate(slices):
            if heads[n] and heads[n][0] == value:
                heads[n] = pair[n] = None
                heads[n] = next(side, None)
    return CheckStatus(check_id, True)


def check_axiom(a: HalfTwistAlgebra, which: str) -> CheckStatus:
    """Check one of a1..a13 exactly, over all free indices."""
    if which not in AXIOMS:
        raise ValueError(f"unknown axiom id {which!r} (expected a1..a13)")
    return _check(a, which, AXIOMS[which][1])


def check_all_axioms(a: HalfTwistAlgebra) -> AxiomReport:
    """Check a1..a13.  Raises ContractionTooLarge before any check runs when
    dim^3 is over CELL_CEILING: a3 on a Clifford algebra and a9 on any
    graded-swap crossing form dim^3 terms.  Sliced, no single join of
    theirs meets the ceiling, so this refusal is what bounds check: cl(7,0),
    with dim^3 at the ceiling, is the largest algebra admitted."""
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
    """The identities in DERIVED."""
    report = AxiomReport()
    for check_id, sides in DERIVED.items():
        report.add(_check(a, check_id, sides))
    return report


def check_unitarity(a: HalfTwistAlgebra) -> AxiomReport:
    """The identities in STAR, the star of the twist, and positivity."""
    if a.star is None:
        raise ValueError("unitarity check needs the star tensor")
    report = AxiomReport()
    for check_id, sides in STAR.items():
        report.add(_check(a, check_id, sides))
    star = a.star

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

    pd = hermitian_positive_definite(einsum("ac,cb->ab", star, a.cap), a.dim)
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
