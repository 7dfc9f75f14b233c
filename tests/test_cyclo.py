import random
import re
from fractions import Fraction

import pytest

from halftwist.cyclo import (
    CycloNum,
    I,
    ONE,
    SQRT2,
    ZERO,
    ZETA,
    rational_sqrt,
    real_sqrt,
    zeta_pow,
)


def rand_cyclo(rng, max_den=6):
    return CycloNum(
        *(Fraction(rng.randint(-8, 8), rng.randint(1, max_den)) for _ in range(4))
    )


def test_defining_relations():
    assert ZETA * zeta_pow(3) == CycloNum(-1)
    assert SQRT2 * SQRT2 == CycloNum(2)
    assert ZETA * ZETA == I
    assert zeta_pow(8) == ONE
    assert zeta_pow(4) == -ONE


def test_division_example():
    # (1 + i) / sqrt(2) is the primitive eighth root itself.
    assert (ONE + I) / SQRT2 == ZETA


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@pytest.mark.parametrize(
    "value, expected",
    [
        (ZETA, -zeta_pow(3)),
        (I, -I),
        (SQRT2, SQRT2),
        (ONE, ONE),
    ],
)
def test_conjugate_values(value, expected):
    assert value.conjugate() == expected


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_cyclo(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (ONE / a) * a == ONE


def test_conjugate_is_involutive_automorphism():
    rng = random.Random(11)
    for _ in range(100):
        a, b = rand_cyclo(rng), rand_cyclo(rng)
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_norm_is_conjugation_fixed():
    rng = random.Random(13)
    for _ in range(100):
        a = rand_cyclo(rng)
        n = a * a.conjugate()
        assert n.conjugate() == n


@pytest.mark.parametrize(
    "value, expected",
    [
        (ONE, True),
        (ZETA, False),
        (SQRT2, True),
        (ZERO, False),
        (-ONE, False),
        (SQRT2 - ONE, True),
        (ONE - SQRT2, False),
        (CycloNum(3) - CycloNum(2) * SQRT2, True),  # 3 - 2 sqrt2 > 0
        (CycloNum(-3) + CycloNum(2) * SQRT2, False),
        (I, False),
    ],
)
def test_is_real_positive(value, expected):
    assert value.is_real_positive() is expected


def test_render_parse_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        a = rand_cyclo(rng)
        assert CycloNum.parse(a.render()) == a


@pytest.mark.parametrize(
    "text, value",
    [
        ("1", ONE),
        ("-1/2", CycloNum(Fraction(-1, 2))),
        ("z-z^3", SQRT2),
        ("z^2", I),
        ("1/2*z^2 - z", CycloNum(0, -1, Fraction(1, 2), 0)),
        ("z^7", -zeta_pow(3)),
        ("0 + 1*z + 0*z^2 + -1*z^3", SQRT2),
    ],
)
def test_parse_literals(text, value):
    assert CycloNum.parse(text) == value


@pytest.mark.parametrize("bad", ["", "z^-1", "1 +", "q", "2 3", "1/2/3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        CycloNum.parse(bad)


@pytest.mark.parametrize("bad", ["1/0", "2/0*z", "1 + 3/0*z^2"])
def test_parse_rejects_zero_denominator(bad):
    with pytest.raises(ValueError, match="zero denominator.*" + re.escape(repr(bad))):
        CycloNum.parse(bad)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_real_sqrt():
    assert real_sqrt(CycloNum(2)) == SQRT2
    assert real_sqrt(ONE) == ONE
    three_plus = CycloNum(3) + CycloNum(2) * SQRT2
    assert real_sqrt(three_plus) == ONE + SQRT2
    assert real_sqrt(CycloNum(3)) is None
    assert real_sqrt(-ONE) is None
    assert real_sqrt(CycloNum(4)) == CycloNum(2)
    assert real_sqrt(CycloNum(Fraction(1, 2))) == SQRT2 / 2


def test_to_complex_embedding():
    import cmath

    for k in range(8):
        approx = zeta_pow(k).to_complex()
        assert abs(approx - cmath.exp(1j * cmath.pi * k / 4)) < 1e-12


def test_pow():
    assert ZETA**8 == ONE
    assert ZETA**-1 == ZETA.conjugate()
    assert SQRT2**-2 == CycloNum(Fraction(1, 2))


def test_hash_agrees_with_equality():
    assert {CycloNum(1), 1} == {1}
    assert len({CycloNum(1), 1, Fraction(1), ONE}) == 1
    assert hash(CycloNum(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(ZERO) == hash(0)
    assert {SQRT2: "a"}[ZETA - ZETA**3] == "a"
