import itertools
import random
import tracemalloc

import pytest

from halftwist import (
    I,
    ONE,
    SQRT2,
    ZERO,
    PinSurfacePresentation,
    ZETA,
    abk,
    are_equivalent,
    dehn_twist_torus,
    parse_presentation,
    q_eval,
    render_presentation,
    zeta_pow,
)


def all_presentations(max_rank):
    for g in range(max_rank // 2 + 1):
        for c in range(max_rank - 2 * g + 1):
            for tq in itertools.product(((0, 0), (0, 2), (2, 0), (2, 2)), repeat=g):
                for cq in itertools.product((1, 3), repeat=c):
                    yield PinSurfacePresentation(tq, cq)


def test_presentation_validation():
    with pytest.raises(ValueError):
        PinSurfacePresentation(((1, 0),), ())
    with pytest.raises(ValueError):
        PinSurfacePresentation((), (2,))
    p = PinSurfacePresentation(((0, 2),), (1, 3))
    assert p.rank == 4
    assert p.euler_characteristic == 2 - 2 - 2


@pytest.mark.parametrize(
    "torus_q, crosscap_q, message",
    [
        (((0, 2.0),), (), "torus value 2.0 is not an int"),
        ((), (1.0,), "crosscap value 1.0 is not an int"),
    ],
)
def test_presentation_rejects_non_int_values(torus_q, crosscap_q, message):
    with pytest.raises(TypeError) as info:
        PinSurfacePresentation(torus_q, crosscap_q)
    assert str(info.value) == message


def test_q_eval_examples():
    torus_rr = PinSurfacePresentation(((2, 2),), ())
    assert q_eval(torus_rr, (1, 1)) == 2
    assert q_eval(torus_rr, (0, 0)) == 0
    klein = PinSurfacePresentation((), (1, 1))
    assert q_eval(klein, (1, 1)) == 2  # the orientation-preserving curve
    with pytest.raises(ValueError):
        q_eval(klein, (1,))


@pytest.mark.parametrize("bad", [2, 3, -1])
def test_q_eval_rejects_bits_other_than_0_and_1(bad):
    rp2 = PinSurfacePresentation((), (1,))
    with pytest.raises(ValueError, match=f"^bit 0 is {bad}; expected 0 or 1$"):
        q_eval(rp2, [bad])
    klein = PinSurfacePresentation((), (1, 1))
    with pytest.raises(ValueError, match="bit 1 is"):
        q_eval(klein, (1, bad))


def test_q_eval_is_quadratic_exhaustively():
    # q(x + y) = q(x) + q(y) + 2 <x, y> for all pairs, every presentation of
    # rank <= 6.  Values and pairings are tabulated once per presentation so
    # the quadratic identity itself stays the slow, explicit reference.
    for p in all_presentations(6):
        r = p.rank
        masks = [
            sum(p.pairing(i, j) << j for j in range(r)) for i in range(r)
        ]
        table = [
            q_eval(p, tuple((v >> i) & 1 for i in range(r))) for v in range(1 << r)
        ]
        for x in range(1 << r):
            for y in range(1 << r):
                pairing = 0
                rest = x
                while rest:
                    low = rest & -rest
                    pairing ^= (masks[low.bit_length() - 1] & y).bit_count() & 1
                    rest ^= low
                assert table[x ^ y] == (table[x] + table[y] + 2 * pairing) % 4, (
                    p,
                    x,
                    y,
                )


def test_q_eval_is_order_independent():
    # accumulate in a permuted basis order and compare
    p = PinSurfacePresentation(((0, 2), (2, 2)), (1, 3, 3))
    r = p.rank
    basis = p.basis_values()
    for x in itertools.product((0, 1), repeat=r):
        want = q_eval(p, x)
        for order in ((6, 5, 4, 3, 2, 1, 0), (3, 0, 6, 2, 5, 1, 4)):
            total = 0
            taken = []
            for idx in order:
                if not x[idx]:
                    continue
                total = (total + basis[idx] + 2 * sum(p.pairing(t, idx) for t in taken)) % 4
                taken.append(idx)
            assert total == want


def test_abk_projective_planes():
    assert abk(PinSurfacePresentation((), (1,))) == ZETA
    assert abk(PinSurfacePresentation((), (3,))) == zeta_pow(7)


def test_abk_torus_table():
    values = {(0, 0): ONE, (0, 2): ONE, (2, 0): ONE, (2, 2): -ONE}
    for pair, want in values.items():
        assert abk(PinSurfacePresentation((pair,), ())) == want


def test_abk_klein_table():
    values = {(1, 1): I, (1, 3): ONE, (3, 1): ONE, (3, 3): -I}
    for pair, want in values.items():
        assert abk(PinSurfacePresentation((), pair)) == want


def test_abk_sphere():
    assert abk(PinSurfacePresentation((), ())) == ONE


def test_abk_unit_modulus_and_conjugation():
    for p in all_presentations(6):
        value = abk(p)
        assert value * value.conjugate() == ONE
        negated = PinSurfacePresentation(
            tuple(((-qx) % 4, (-qy) % 4) for qx, qy in p.torus_q),
            tuple((-qz) % 4 for qz in p.crosscap_q),
        )
        assert abk(negated) == value.conjugate()


def test_abk_orientable_is_real_sign():
    for p in all_presentations(6):
        if p.crosscaps == 0:
            assert abk(p) in (ONE, -ONE)


def closed_form_abk(p):
    """zeta^(#q=1 - #q=3 + 4 #(2,2)-tori), the Gauss sum of the standard form."""
    exponent = p.crosscap_q.count(1) - p.crosscap_q.count(3)
    exponent += 4 * p.torus_q.count((2, 2))
    return zeta_pow(exponent % 8)


def test_abk_rank_cap():
    with pytest.raises(ValueError, match="cap"):
        abk(PinSurfacePresentation(((0, 0),) * 11, ()))
    at_cap = PinSurfacePresentation(((2, 2),) * 6, (1, 3) * 4)
    assert at_cap.rank == 20
    assert abk(at_cap) == closed_form_abk(at_cap)
    over = PinSurfacePresentation(((2, 2),) * 6, (1, 3) * 4 + (1,))
    with pytest.raises(ValueError) as info:
        abk(over)
    assert str(info.value) == "rank 21 exceeds the brute-force cap 20"


class LinkedCrosscaps(PinSurfacePresentation):
    """The standard form plus one intersection between the first two
    crosscaps, a form that no closed-form product over tori and crosscaps
    describes."""

    def pairing(self, i, j):
        first = 2 * self.genus
        if {i, j} == {first, first + 1}:
            return 1
        return super().pairing(i, j)


class LastMeetsTwo(PinSurfacePresentation):
    """The standard form plus intersections of the last basis vector with
    the first and the third, neither of which is the one just below it
    once the rank is 5 or more."""

    def pairing(self, i, j):
        if self.rank >= 4 and {i, j} in ({0, self.rank - 1}, {2, self.rank - 1}):
            return 1
        return super().pairing(i, j)


class MiddleRowsMeetEarlier(PinSurfacePresentation):
    """The standard form plus intersections of basis vector 2 with vector 0,
    and of vector 3 with vectors 0 and 2.  Row 2 then has one entry that is
    not the one just below it, and row 3 has two; at rank 5 or more neither
    is the last row."""

    def pairing(self, i, j):
        if self.rank >= 5 and {i, j} in ({0, 2}, {0, 3}, {2, 3}):
            return 1
        return super().pairing(i, j)


class BasisChange(PinSurfacePresentation):
    """A standard presentation read in the basis f_i = sum_j A_ij e_j, for a
    seeded A invertible over F_2.  q(f_i) is q_eval on row i of A, and the
    pairing is the bilinear extension of the standard one, tabulated here so
    that `abk` reads it in constant time.  The classes are those of the
    standard presentation in another order, so the Gauss sum is the same."""

    def __init__(self, base, seed):
        super().__init__(base.torus_q, base.crosscap_q)
        r, rng = base.rank, random.Random(seed)
        while True:
            rows = [rng.getrandbits(r) for _ in range(r)]
            echelon = []
            for row in rows:
                for pivot in echelon:
                    row = min(row, row ^ pivot)
                if row:
                    echelon.append(row)
            if len(echelon) == r:
                break
        meets = [sum(base.pairing(a, b) << b for b in range(r)) for a in range(r)]
        values = tuple(q_eval(base, [(row >> a) & 1 for a in range(r)]) for row in rows)
        table = tuple(
            tuple(
                sum((meets[a] & g).bit_count() for a in range(r) if f >> a & 1) & 1
                for g in rows
            )
            for f in rows
        )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "table", table)

    def basis_values(self):
        return self.values

    def pairing(self, i, j):
        return self.table[i][j]


def direct_gauss_sum(p):
    """Sum i^q(x) over the bit vectors x, each evaluated on its own by q_eval."""
    powers = (ONE, I, -ONE, -I)
    total = ZERO
    for bits in itertools.product((0, 1), repeat=p.rank):
        total = total + powers[q_eval(p, bits)]
    return total / SQRT2**p.rank


def test_abk_matches_direct_gauss_sum():
    for p in all_presentations(7):
        assert abk(p) == direct_gauss_sum(p), p


def test_abk_reads_the_form_only_through_pairing():
    changed = 0
    for p in all_presentations(7):
        if p.crosscaps < 2:
            continue
        linked = LinkedCrosscaps(p.torus_q, p.crosscap_q)
        value = abk(linked)
        assert value == direct_gauss_sum(linked), p
        changed += value != abk(p)
    assert changed  # the extra intersection is seen, not just tolerated


def test_abk_takes_the_pairing_path_for_a_row_with_two_entries():
    # The last row pairs with two earlier basis vectors, so the walk must
    # carry the pairing in even where the standard form's row is zero.
    changed = 0
    for p in all_presentations(6):
        if p.rank < 4:
            continue
        linked = LastMeetsTwo(p.torus_q, p.crosscap_q)
        value = abk(linked)
        assert value == direct_gauss_sum(linked), p
        changed += value != abk(p)
    assert changed


def test_abk_carries_the_pairing_below_the_last_level():
    # Row 3 meets two earlier vectors, so the walk carries the pairing in
    # before the last level; row 2 meets only vector 0, so it may not be
    # split in halves as a torus y-cycle is.
    changed = 0
    for p in all_presentations(7):
        if p.rank < 5:
            continue
        linked = MiddleRowsMeetEarlier(p.torus_q, p.crosscap_q)
        value = abk(linked)
        assert value == direct_gauss_sum(linked), p
        changed += value != abk(p)
    assert changed


def test_abk_is_invariant_under_basis_changes():
    # Every row of a random basis change meets earlier vectors, so the walk
    # carries the pairing in at almost every level.
    for p in all_presentations(6):
        want = abk(p)
        for seed in range(3):
            changed = BasisChange(p, seed)
            value = abk(changed)
            assert value == direct_gauss_sum(changed) == want, (p, seed)


@pytest.mark.parametrize("seed", range(3))
def test_abk_memory_on_a_basis_change_at_the_rank_cap(seed):
    # Each bit plane of the last level holds 2^19 classes in 64 KiB, and
    # about eight such ints are live at the peak (0.43-0.50 MiB traced); a
    # walk that keeps a byte per class and a carried copy traced 2.6 MiB.
    base = parse_presentation("g=6,c=8,q=[2,2;0,2;2,2;2,0;0,0;2,2|1,3,3,1,1,1,3,1]")
    changed = BasisChange(base, seed)
    tracemalloc.start()
    try:
        value = abk(changed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == closed_form_abk(base)
    assert peak <= 0.75 * (1 << 20)


@pytest.mark.parametrize(
    "literal",
    [
        "g=6,c=8,q=[2,2;0,2;2,2;2,0;0,0;2,2|1,3,3,1,1,1,3,1]",
        "g=10,c=0,q=[2,2;0,2;2,2;2,0;0,0;2,2;0,0;2,0;0,2;2,2|]",
    ],
)
def test_abk_memory_at_the_rank_cap(literal):
    # The last level is tallied, not built, so each bit plane holds 2^19
    # classes in 64 KiB; a walk that built the whole 1 MiB byte table traced
    # 2.0 and 3.03 MiB here.
    p = parse_presentation(literal)
    tracemalloc.start()
    try:
        value = abk(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.rank == 20
    assert value == closed_form_abk(p)
    assert peak <= 1.5 * (1 << 20)


@pytest.mark.parametrize("rank", range(11, 21))
def test_abk_high_ranks_match_closed_form(rank):
    rng = random.Random(rank)
    for genus in sorted({0, rank // 4, rank // 2}):
        p = PinSurfacePresentation(
            tuple(
                (rng.choice((0, 2)), rng.choice((0, 2))) for _ in range(genus)
            ),
            tuple(rng.choice((1, 3)) for _ in range(rank - 2 * genus)),
        )
        assert abk(p) == closed_form_abk(p), p


def test_are_equivalent():
    t = lambda qx, qy: PinSurfacePresentation(((qx, qy),), ())
    assert are_equivalent(t(0, 0), t(0, 2))
    assert not are_equivalent(t(0, 0), t(2, 2))
    k = lambda a, b: PinSurfacePresentation((), (a, b))
    assert are_equivalent(k(1, 3), k(3, 1))
    assert not are_equivalent(k(1, 1), k(3, 3))
    with pytest.raises(ValueError, match="different connect sums"):
        are_equivalent(t(0, 0), k(1, 1))


def test_dehn_twist():
    t = lambda qx, qy: PinSurfacePresentation(((qx, qy),), ())
    assert dehn_twist_torus(t(0, 0)) == t(0, 2)
    assert dehn_twist_torus(t(0, 2)) == t(0, 0)
    assert dehn_twist_torus(t(2, 2)) == t(2, 2)
    for pair in ((0, 0), (0, 2), (2, 0), (2, 2)):
        p = t(*pair)
        assert abk(dehn_twist_torus(p)) == abk(p)
    with pytest.raises(ValueError):
        dehn_twist_torus(PinSurfacePresentation((), (1,)))


@pytest.mark.parametrize(
    "literal",
    ["g=0,c=2,q=[|1,3]", "g=1,c=0,q=[0,2|]", "g=1,c=1,q=[2,2|3]", "g=0,c=0,q=[|]"],
)
def test_presentation_literal_round_trip(literal):
    p = parse_presentation(literal)
    assert parse_presentation(render_presentation(p)) == p


@pytest.mark.parametrize(
    "bad",
    ["", "g=1,c=0", "g=1,c=0,q=[0|]", "g=0,c=1,q=[|2]", "g=2,c=0,q=[0,0|]"],
)
def test_presentation_literal_rejects(bad):
    with pytest.raises(ValueError):
        parse_presentation(bad)


@pytest.mark.parametrize(
    "literal, entry",
    [
        ("g=0,c=2,q=[|1,,3]", "1,,3"),
        ("g=1,c=0,q=[,0,2|]", ",0,2"),
        ("g=1,c=1,q=[0,2|1,]", "1,"),
    ],
)
def test_presentation_literal_rejects_empty_values(literal, entry):
    with pytest.raises(ValueError) as info:
        parse_presentation(literal)
    assert str(info.value) == f"empty value in entry {entry!r} of {literal!r}"


@pytest.mark.parametrize(
    "literal, value, entry",
    [
        ("g=0,c=2,q=[|1;3]", "1;3", "1;3"),
        ("g=0,c=2,q=[|x]", "x", "x"),
        ("g=1,c=0,q=[0,2.0|]", "2.0", "0,2.0"),
    ],
)
def test_presentation_literal_rejects_non_integer_values(literal, value, entry):
    with pytest.raises(ValueError) as info:
        parse_presentation(literal)
    assert str(info.value) == f"non-integer value {value!r} in entry {entry!r} of {literal!r}"
