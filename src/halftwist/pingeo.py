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

is an eighth root of unity which, with the rank and the type of the form,
classifies enhancements up to equivalence (`are_equivalent`).
`abk` computes it exactly by brute force, which gives the package an oracle
for the closed-surface state sums that is independent of any tensor
contraction.  Up to rank BRUTE_FORCE_RANK_CAP it determines q on every class
by doubling over the basis, bitsliced: q on the classes below 2^k is held
as two ints, one bit of q(v) per class in each, so one int operation acts
on 2^k classes.  The classes v + e_k take q(e_k) + 2 <v, e_k> added to the
lower half, where the plane of <v, e_k> is doubled the same way over the
row of the form.  Zero rows, torus y-cycles and rows that meet many earlier
vectors all take this one path.  The walk stops two levels short: each of
the three cosets of the top two basis vectors is tallied from the lower
planes with `int.bit_count`, `hi` flipped by the plane of its pairing with
the lower classes, and never built.  At the cap each plane is 32 KiB, and
tracemalloc puts the peak at 0.13-0.17 MiB for a standard presentation and
0.20 MiB for a random F_2 basis change of one, against 8 MiB of pointers
for a list of ints.  It reads the form only through `basis_values` and
`pairing`, never through a closed form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cyclo import CycloNum, _canonical

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


@dataclass(frozen=True)
class PinSurfacePresentation:
    """Connect sum of g tori and c crosscaps with basis q-values.

    torus_q holds one (q(x_i), q(y_i)) pair per torus, each value in {0, 2};
    crosscap_q holds one q(z_j) in {1, 3} per crosscap.  Values are ints,
    reduced mod 4; any other value raises TypeError.
    """

    torus_q: tuple[tuple[int, int], ...]
    crosscap_q: tuple[int, ...]

    def __post_init__(self):
        for kind, values in (
            ("torus", [q for pair in self.torus_q for q in pair]),
            ("crosscap", self.crosscap_q),
        ):
            for q in values:
                if not isinstance(q, int):
                    raise TypeError(f"{kind} value {q!r} is not an int")
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
    Raises ValueError on a bit that is not the int 0 or 1 (a bool counts),
    naming its position, and on a pairing value other than 0 or 1, naming
    the pair.
    """
    bits = tuple(bits)
    if len(bits) != p.rank:
        raise ValueError(f"expected {p.rank} bits, got {len(bits)}")
    for idx, bit in enumerate(bits):
        if not isinstance(bit, int) or bit not in (0, 1):
            raise ValueError(f"bit {idx} is {bit!r}; expected 0 or 1")
    basis = p.basis_values()
    total = 0
    taken: list[int] = []
    for idx, bit in enumerate(bits):
        if not bit:
            continue
        cross = 0
        for prev in taken:
            value = p.pairing(prev, idx)
            if value not in (0, 1):
                raise _pairing_error(prev, idx, value)
            cross += value
        total = (total + basis[idx] + 2 * cross) % 4
        taken.append(idx)
    return total


def _pairing_error(i: int, j: int, value) -> ValueError:
    return ValueError(f"pairing({i}, {j}) is {value!r}; expected 0 or 1")


_BITS = frozenset((0, 1))


def _pairing_plane(p: PinSurfacePresentation, k: int, m: int) -> int:
    """The plane of <v, e_k> over the classes v < 2^m, bit v for class v.

    It is doubled over row k of the form, read as pairing(j, k) for j < m:
    bit j of v flips it where <e_j, e_k> = 1.
    """
    row = [p.pairing(j, k) for j in range(m)]
    if not _BITS.issuperset(row):
        j = next(j for j, value in enumerate(row) if value not in (0, 1))
        raise _pairing_error(j, k, row[j])
    plane = 0
    if any(row):
        for j, bit in enumerate(row):
            width = 1 << j
            plane |= (plane ^ ((1 << width) - 1) if bit else plane) << width
    return plane


def _tally(n: int, a: int, lo: int, hi: int) -> tuple[int, int]:
    """Sum of i^q(v) over n classes with bit planes lo and hi, as (real
    part, imaginary part); a is lo.bit_count()."""
    b, c = hi.bit_count(), (lo & hi).bit_count()
    # #q=0 - #q=2 and #q=1 - #q=3: a class with q = 3 is set in both planes.
    return n - a - 2 * b + 2 * c, a - 2 * c


def _turn(q: int, x: int, y: int) -> tuple[int, int]:
    """i^q * (x + iy) as (real part, imaginary part)."""
    return ((x, y), (-y, x), (-x, -y), (y, -x))[q & 3]


def _walk(p: PinSurfacePresentation, basis, m: int) -> tuple[int, int]:
    """The bit planes lo and hi of q over the classes v < 2^m."""
    # Class 0 has q = 0.
    lo = hi = 0
    for k in range(m):
        size = 1 << k
        full = (1 << size) - 1
        pair = _pairing_plane(p, k, k)
        odd = basis[k] & 1
        up_lo = lo ^ full if odd else lo
        up_hi = hi ^ pair ^ (lo if odd else 0) ^ (full if basis[k] & 2 else 0)
        lo |= up_lo << size
        hi |= up_hi << size
    return lo, hi


def _top_cosets(p: PinSurfacePresentation, basis, m: int):
    """(q(u), plane of <v, u> over v < 2^m) for the cosets u = a, b and a + b
    of the top vectors a = e_m and b = e_{m+1}.  A rank below 2 lacks b, and
    rank 0 lacks a too.  P1 and P2 read rows m and m + 1 below column m."""
    r = p.rank
    if r < 1:
        return
    p1 = _pairing_plane(p, m, m)
    yield basis[m], p1
    if r < 2:
        return
    ab = p.pairing(m, m + 1)
    if ab not in (0, 1):
        raise _pairing_error(m, m + 1, ab)
    p2 = _pairing_plane(p, m + 1, m)
    yield basis[m + 1], p2
    # P1 ^ P2 replaces P2, so that no more than two planes of the form live.
    p2 ^= p1
    yield basis[m] + basis[m + 1] + 2 * ab, p2


def abk(p: PinSurfacePresentation) -> CycloNum:
    """The normalized Gauss sum of the enhancement, exactly in Q(zeta_8).

    Sums i^q(x) over all 2^rank classes and divides by sqrt(2)^rank.  The
    classes spanned by the first m = rank - 2 basis vectors are walked by
    doubling, bitsliced: with q known for the classes v < 2^k as two ints,
    bit v of `lo` being bit 0 of q(v) and bit v of `hi` bit 1, the classes
    v + e_k follow from

        q(v + e_k) = q(v) + q(e_k) + 2 <v, e_k>   (mod 4)

    as one add with carry on whole planes, appended above the lower half.
    The plane of <v, e_k> is doubled over row k of the form.  The top two
    vectors a = e_m and b = e_{m+1} are never walked.  The same formula puts
    each of their cosets u = a, b and a + b over the walked classes v:

        sum_v i^q(v + u) = i^q(u) * sum_v i^(q(v) + 2 <v, u>),

    with q(a + b) = q(a) + q(b) + 2 <a, b>.  The plane of <v, u> is P1, P2
    or P1 ^ P2, for P1 and P2 the planes of <v, a> and <v, b>, and adding it
    twice flips `hi` there.  So each coset is tallied from `lo` and
    `hi ^ P` with two `int.bit_count` calls, and one with a zero plane
    reuses the tally of the walked classes.  The sum x + iy is divided
    exactly by 2^(rank/2), or multiplied by sqrt(2) = zeta - zeta^3 over
    2^((rank+1)/2) for an odd rank.  Every form takes this one path.

    The form is read only through `basis_values` and `pairing(j, k)` for
    j < k, once per pair, and a pairing value other than 0 or 1 raises
    ValueError naming the pair.  Each class's q is still determined by the
    doubling formula.  At the rank cap each plane holds 2^18 classes in
    32 KiB, and the tracemalloc peak is 0.13-0.17 MiB for a standard
    presentation and 0.20 MiB for a random basis change of one.
    """
    r = p.rank
    if r > BRUTE_FORCE_RANK_CAP:
        raise ValueError(f"rank {r} exceeds the brute-force cap {BRUTE_FORCE_RANK_CAP}")
    basis = p.basis_values()
    m = max(r - 2, 0)
    lo, hi = _walk(p, basis, m)
    n, a = 1 << m, lo.bit_count()
    walked = _tally(n, a, lo, hi)
    x, y = walked
    for q, plane in _top_cosets(p, basis, m):
        ux, uy = _tally(n, a, lo, hi ^ plane) if plane else walked
        ux, uy = _turn(q, ux, uy)
        x, y = x + ux, y + uy
    if r & 1:
        # (x + iy) sqrt(2) = (x + y) zeta + (y - x) zeta^3
        return _canonical(0, x + y, 0, y - x, 1 << ((r + 1) >> 1))
    return _canonical(x, 0, y, 0, 1 << (r >> 1))


def are_equivalent(p1: PinSurfacePresentation, p2: PinSurfacePresentation) -> bool:
    """Whether some isometry of Z/2 homology carries one enhancement to the other.

    By Brown's classification of Z/4 enhancements (Kirby-Taylor 1990, §3)
    that holds exactly when the forms have equal rank, equal type (even on
    an orientable surface, c = 0, and odd otherwise) and equal Gauss sums.
    Different connect sums of one surface compare too: g=1,c=1 and g=0,c=3
    are both the connect sum of three projective planes.
    """
    return (
        p1.rank == p2.rank
        and (p1.crosscaps == 0) == (p2.crosscaps == 0)
        and abk(p1) == abk(p2)
    )


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
