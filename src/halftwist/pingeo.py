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
contraction.  Up to rank BRUTE_FORCE_RANK_CAP it determines q on every class
by doubling over the basis: the values of q on the classes below 2^k are one
byte each, and the classes v + e_k are pieces of that table, each shifted by
a constant in Z/4.  A basis vector that pairs with no earlier one (every
crosscap, and every torus x-cycle of the standard basis) gives one piece,
the whole table shifted by q(e_k).  One that pairs only with the vector just
below it (every torus y-cycle) gives two, its halves shifted by q(e_k) and
q(e_k) + 2.  Each is one C-level `bytes.translate`.  Any other carries the
pairing <v, e_k> in from a parity pattern doubled the same way, which adds a
pass of the pattern's doubling and an int round trip over the table.  The
last level is never built: its pieces are counted with their shifts, and the
lower half's counts are theirs when they cut it.  At the cap the table is
512 KiB and tracemalloc puts the peak of a standard presentation at 1 MiB,
against 8 MiB of pointers for a list of ints.  It reads the form only
through `basis_values` and `pairing`, never through a closed form.
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

    as pieces of the lower half, each shifted by a constant in Z/4 (see
    `_upper_half`).  Every level but the last appends its pieces, each one
    `bytes.translate`.  The last level is tallied, never built: the counts
    of each piece, with value v moved to v + shift, are added to those of
    the lower half, and when the pieces cut the lower half those counts are
    theirs, so each byte is counted once.  The form is read only through
    `basis_values` and `pairing(j, k)` for j < k, once per pair, and each
    class's q is still determined.  At the rank cap the table is 512 KiB,
    and the tracemalloc peak of a standard presentation 1 MiB.
    """
    r = p.rank
    if r > BRUTE_FORCE_RANK_CAP:
        raise ValueError(f"rank {r} exceeds the brute-force cap {BRUTE_FORCE_RANK_CAP}")
    basis = p.basis_values()
    q = b"\0"
    for k in range(r - 1):
        # q holds only 0-3, so a piece with shift 0 is appended as it is.
        q += b"".join(
            table[start:end].translate(_STEP[shift]) if shift else table[start:end]
            for table, start, end, shift in _upper_half(p, q, k, basis[k])
        )
    # n[v] counts the classes with q = v.  Pieces that cut q carry its own
    # counts; a carried piece does not, so q is then counted on its own.
    n = [0, 0, 0, 0]
    pieces = _upper_half(p, q, r - 1, basis[-1]) if r else []
    for table, start, end, shift in pieces:
        for v, count in enumerate(_counts(table, start, end)):
            n[(v + shift) & 3] += count
            if table is q:
                n[v] += count
    if not pieces or pieces[0][0] is not q:
        n = [a + b for a, b in zip(n, _counts(q, 0, len(q)))]
    return CycloNum(n[0] - n[2], 0, n[1] - n[3]) / SQRT2**r


def _upper_half(p: PinSurfacePresentation, q: bytes, k: int, qk: int) -> list:
    """The classes v + e_k, v < 2^k, as pieces (table, start, end, shift):
    q(v + e_k) = table[i] + shift (mod 4) for the classes of table[start:end]
    in order.

    Row k of the form, <e_j, e_k> for j < k, is read once.  A zero row
    gives one piece, all of q shifted by q(e_k).  A row whose one nonzero
    entry is <e_{k-1}, e_k> (every torus y-cycle of the standard basis)
    makes <v, e_k> bit k - 1 of v: two pieces, the halves of q shifted by
    q(e_k) and q(e_k) + 2.  Any other row carries the pairing bit <v, e_k>
    in from a parity pattern over the lower bits, doubled the same way and
    set as bit 2 of each byte through one int round trip of q, and gives
    one piece already translated.
    """
    row = [p.pairing(j, k) for j in range(k)]
    qk &= 3
    if not any(row):
        return [(q, 0, len(q), qk)]
    if row[-1] and not any(row[:-1]):
        half = len(q) // 2
        return [(q, 0, half, qk), (q, half, len(q), (qk + 2) & 3)]
    parity = b"\0"
    for bit in row:
        parity += parity.translate(_FLIP) if bit else parity
    carried = int.from_bytes(q, "little") | int.from_bytes(parity, "little")
    return [(carried.to_bytes(len(q), "little").translate(_STEP[qk]), 0, len(q), 0)]


def _counts(table: bytes, start: int, end: int) -> tuple[int, int, int, int]:
    """How many bytes of table[start:end] hold 0, 1, 2 and 3."""
    n0, n1, n2 = (table.count(v, start, end) for v in range(3))
    return n0, n1, n2, end - start - n0 - n1 - n2


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
            vals = _entry_values(text, pair)
            if len(vals) != 2:
                raise ValueError(f"torus entry {pair!r} needs two values")
            torus_q.append(tuple(vals))
    crosscap_q = _entry_values(text, cross_part)
    if len(torus_q) != g:
        raise ValueError(f"expected {g} torus pairs, found {len(torus_q)}")
    if len(crosscap_q) != c:
        raise ValueError(f"expected {c} crosscap values, found {len(crosscap_q)}")
    return PinSurfacePresentation(tuple(torus_q), tuple(crosscap_q))


def _entry_values(text: str, entry: str) -> list[int]:
    """The comma-separated ints of one entry of a literal; none if it is blank.
    An empty or non-integer value raises ValueError naming it, the entry and
    the literal."""
    if not entry.strip():
        return []
    vals = entry.split(",")
    if not all(v.strip() for v in vals):
        raise ValueError(f"empty value in entry {entry!r} of {text!r}")
    out = []
    for v in vals:
        try:
            out.append(int(v))
        except ValueError:
            raise ValueError(
                f"non-integer value {v!r} in entry {entry!r} of {text!r}"
            ) from None
    return out


def render_presentation(p: PinSurfacePresentation) -> str:
    torus = ";".join(f"{qx},{qy}" for qx, qy in p.torus_q)
    cross = ",".join(str(qz) for qz in p.crosscap_q)
    return f"g={p.genus},c={p.crosscaps},q=[{torus}|{cross}]"
