"""Quadratic enhancements on closed pin surfaces and their Gauss sums.

A closed unoriented surface decomposes as a connect sum of g tori and c real
projective planes.  On the standard homology basis x_1, y_1, .., x_g, y_g,
z_1, .., z_c over Z/2, a pin structure is encoded by a quadratic enhancement
q valued in Z/4:

    q(u + v) = q(u) + q(v) + 2 <u, v>   (mod 4),

with the intersection form <,> hyperbolic on each torus pair and
<z_j, z_j> = 1 on each crosscap.  Torus basis values are forced even and
crosscap values odd.  The normalized Gauss sum

    (1/sqrt|H_1|) * sum_x i^{q(x)}

is an eighth root of unity that classifies enhancements up to equivalence.
`abk` computes it exactly by brute force, which gives the package an oracle
for the closed-surface state sums that is independent of any tensor
contraction.  Up to rank BRUTE_FORCE_RANK_CAP it visits every class by
doubling over the basis: the values of q on the classes below 2^k are one
byte each, and the classes v + e_k are one `bytes.translate` of them.  A
basis vector that pairs with no earlier one (every crosscap, and every
torus x-cycle of the standard basis) costs that one C-level pass alone.
Any other carries the pairing <v, e_k> in from a parity pattern doubled the
same way, which adds a pass of the pattern's doubling and an int round trip
over the table.  At the cap the table is 1 MiB; tracemalloc puts the peak
at 2 MiB when the last basis vector pairs with nothing below it and 3 MiB
when it does, against 8 MiB of pointers for a list of ints.  It reads the
form only through `basis_values` and `pairing`, never through a closed
form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cyclo import CycloNum, SQRT2

__all__ = [
    "PinSurfacePresentation",
    "q_eval",
    "abk",
    "are_equivalent",
    "dehn_twist_torus",
    "parse_presentation",
    "render_presentation",
]

BRUTE_FORCE_RANK_CAP = 20

# Byte tables for the doubling walk in `abk`.  A byte holds q(v) in bits 0-1
# and the pairing bit <v, e_k> in bit 2; _STEP[c] maps it to q(v) + c +
# 2 <v, e_k> mod 4, and _FLIP toggles the pairing bit.
_STEP = tuple(
    bytes(((b & 3) + c + 2 * ((b >> 2) & 1)) & 3 for b in range(256)) for c in range(4)
)
_FLIP = bytes(b ^ 4 for b in range(256))


@dataclass(frozen=True)
class PinSurfacePresentation:
    """Connect sum of g tori and c crosscaps with basis q-values.

    torus_q holds one (q(x_i), q(y_i)) pair per torus, each value in {0, 2};
    crosscap_q holds one q(z_j) in {1, 3} per crosscap.
    """

    torus_q: tuple[tuple[int, int], ...]
    crosscap_q: tuple[int, ...]

    def __post_init__(self):
        for qx, qy in self.torus_q:
            if qx % 4 not in (0, 2) or qy % 4 not in (0, 2):
                raise ValueError("torus basis values must be even in Z/4")
        for qz in self.crosscap_q:
            if qz % 4 not in (1, 3):
                raise ValueError("crosscap basis values must be odd in Z/4")
        object.__setattr__(
            self, "torus_q", tuple((qx % 4, qy % 4) for qx, qy in self.torus_q)
        )
        object.__setattr__(self, "crosscap_q", tuple(qz % 4 for qz in self.crosscap_q))

    @property
    def genus(self) -> int:
        return len(self.torus_q)

    @property
    def crosscaps(self) -> int:
        return len(self.crosscap_q)

    @property
    def rank(self) -> int:
        """Dimension of H_1 over Z/2."""
        return 2 * self.genus + self.crosscaps

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.crosscaps

    def basis_values(self) -> tuple[int, ...]:
        flat: list[int] = []
        for qx, qy in self.torus_q:
            flat.extend((qx, qy))
        flat.extend(self.crosscap_q)
        return tuple(flat)

    def pairing(self, i: int, j: int) -> int:
        """Intersection form on basis vectors i, j (0-based, tori first)."""
        two_g = 2 * self.genus
        if i < two_g and j < two_g:
            return 1 if (i // 2 == j // 2 and i != j) else 0
        if i == j:
            return 1  # a crosscap generator meets itself once
        return 0

    def __repr__(self):
        return f"PinSurfacePresentation({render_presentation(self)!r})"


def q_eval(p: PinSurfacePresentation, bits) -> int:
    """Evaluate the enhancement on a Z/2 homology class given as a bit vector.

    The class is expanded in the standard basis in a fixed order, adding
    basis values and twice the pairing of the partial sum with each new
    generator; well-definedness under reorderings is a tested property.
    Raises ValueError on a bit other than 0 or 1, naming its position.
    """
    bits = tuple(int(b) for b in bits)
    if len(bits) != p.rank:
        raise ValueError(f"expected {p.rank} bits, got {len(bits)}")
    for idx, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {idx} is {bit}; expected 0 or 1")
    basis = p.basis_values()
    total = 0
    taken: list[int] = []
    for idx, bit in enumerate(bits):
        if not bit:
            continue
        cross = sum(p.pairing(prev, idx) for prev in taken)
        total = (total + basis[idx] + 2 * cross) % 4
        taken.append(idx)
    return total


def abk(p: PinSurfacePresentation) -> CycloNum:
    """The normalized Gauss sum of the enhancement, exactly in Q(zeta_8).

    Sums i^q(x) over all 2^rank classes and divides by sqrt(2)^rank.  The
    classes are walked by doubling over the basis: with q known for the
    classes below 2^k as one byte each, the classes v + e_k follow from

        q(v + e_k) = q(v) + q(e_k) + 2 <v, e_k>   (mod 4)

    as one `bytes.translate` of the lower half.  Row k of the form,
    <e_j, e_k> for j < k, is read once.  When it is all zero the pairing
    term vanishes and the translate alone extends the table.  Otherwise the
    pairing bit <v, e_k> is a parity pattern over the lower bits, doubled
    the same way and carried into the translate as bit 2 of each byte,
    through one int round trip of the table.  The form is read only through
    `basis_values` and `pairing(j, k)` for j < k, once per pair, and each
    class is still visited; at the rank cap the table is 1 MiB, and the
    peak 2 MiB (3 MiB when the last row is not zero).
    """
    r = p.rank
    if r > BRUTE_FORCE_RANK_CAP:
        raise ValueError(f"rank {r} exceeds the brute-force cap {BRUTE_FORCE_RANK_CAP}")
    basis = p.basis_values()
    q = b"\0"
    for k in range(r):
        row = [p.pairing(j, k) for j in range(k)]
        step = _STEP[basis[k] & 3]
        if not any(row):
            q += q.translate(step)
            continue
        parity = b"\0"
        for bit in row:
            parity += parity.translate(_FLIP) if bit else parity
        carried = int.from_bytes(q, "little") | int.from_bytes(parity, "little")
        q += carried.to_bytes(len(q), "little").translate(step)
    n0, n1, n2 = q.count(0), q.count(1), q.count(2)
    n3 = len(q) - n0 - n1 - n2

    return CycloNum(n0 - n2, 0, n1 - n3) / SQRT2**r


def are_equivalent(p1: PinSurfacePresentation, p2: PinSurfacePresentation) -> bool:
    """Equivalence of enhancements on the same underlying surface.

    Presentations with different (genus, crosscaps) are rejected outright:
    no normalization of homeomorphic but differently presented surfaces is
    attempted.
    """
    if (p1.genus, p1.crosscaps) != (p2.genus, p2.crosscaps):
        raise ValueError(
            "presentations live on different connect sums: "
            f"(g={p1.genus}, c={p1.crosscaps}) vs (g={p2.genus}, c={p2.crosscaps})"
        )
    return abk(p1) == abk(p2)


def dehn_twist_torus(p: PinSurfacePresentation) -> PinSurfacePresentation:
    """Basis change (x, y) -> (x, x + y) on a bare torus."""
    if p.genus != 1 or p.crosscaps != 0:
        raise ValueError("dehn_twist_torus expects a single bare torus")
    qx, qy = p.torus_q[0]
    return PinSurfacePresentation(((qx, (qx + qy + 2) % 4),), ())


_PRESENTATION_RE = re.compile(
    r"^\s*g\s*=\s*(\d+)\s*,\s*c\s*=\s*(\d+)\s*,\s*q\s*=\s*\[(.*)\]\s*$"
)


def parse_presentation(text: str) -> PinSurfacePresentation:
    """Parse a literal like "g=1,c=0,q=[0,2|]" or "g=0,c=2,q=[|1,3]"."""
    m = _PRESENTATION_RE.match(text)
    if not m:
        raise ValueError(f"bad presentation literal {text!r}")
    g, c = int(m.group(1)), int(m.group(2))
    body = m.group(3)
    if "|" in body:
        torus_part, _, cross_part = body.partition("|")
    elif c == 0:
        torus_part, cross_part = body, ""
    else:
        torus_part, cross_part = "", body
    torus_q = []
    if torus_part.strip():
        for pair in torus_part.split(";"):
            vals = [v for v in pair.split(",") if v.strip()]
            if len(vals) != 2:
                raise ValueError(f"torus entry {pair!r} needs two values")
            torus_q.append((int(vals[0]), int(vals[1])))
    crosscap_q = [int(v) for v in cross_part.split(",") if v.strip()]
    if len(torus_q) != g:
        raise ValueError(f"expected {g} torus pairs, found {len(torus_q)}")
    if len(crosscap_q) != c:
        raise ValueError(f"expected {c} crosscap values, found {len(crosscap_q)}")
    return PinSurfacePresentation(tuple(torus_q), tuple(crosscap_q))


def render_presentation(p: PinSurfacePresentation) -> str:
    torus = ";".join(f"{qx},{qy}" for qx, qy in p.torus_q)
    cross = ",".join(str(qz) for qz in p.crosscap_q)
    return f"g={p.genus},c={p.crosscaps},q=[{torus}|{cross}]"
