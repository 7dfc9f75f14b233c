import copy
import math
import pickle
import random
import re
import sys
import time
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
    zeta_log,
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


def test_zeta_pow_is_a_shared_power_of_zeta():
    for k in range(-16, 17):
        assert zeta_pow(k) == ZETA ** (k % 8), k
        assert zeta_pow(k) is zeta_pow(k + 8)
        assert zeta_log(zeta_pow(k)) == k % 8


@pytest.mark.parametrize("value", [ZERO, CycloNum(2), SQRT2, ZETA / 2, ONE + I, 2 * I])
def test_zeta_log_of_no_root_of_unity(value):
    assert zeta_log(value) is None


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
        ("z-z^3-1", SQRT2 - ONE),
        ("2-1", ONE),
        ("3 -1", CycloNum(2)),
        ("z^2-1", I - ONE),
    ],
)
def test_parse_literals(text, value):
    assert CycloNum.parse(text) == value


def _spell(rng, terms):
    """One spelling of sum(c * z^k): spaces or none, `z` or `1*z`, a signed
    coefficient after +, or the negated coefficient after -."""

    def gap():
        return rng.choice(["", " "])

    out = ""
    for i, (c, k) in enumerate(terms):
        power = "z" if k == 1 and rng.random() < 0.5 else f"z^{k}"
        if abs(c) == 1 and rng.random() < 0.5:
            sign, body = ("+" if c == 1 else "-"), power
        else:
            sign, c = rng.choice([("+", c), ("-", -c)])
            body = str(c) if k == 0 and rng.random() < 0.5 else f"{c}*{power}"
        if i == 0 and sign == "+" and rng.random() < 0.5:
            sign = ""
        out += (gap() if i else "") + sign + gap() + body
    return out


def test_parse_sums_in_many_spellings():
    rng = random.Random(35)
    for _ in range(400):
        terms = [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(0, 15))
            for _ in range(rng.randint(1, 6))
        ]
        value = sum((c * zeta_pow(k) for c, k in terms), ZERO)
        for _ in range(4):
            text = _spell(rng, terms)
            assert CycloNum.parse(text) == value, text


@pytest.mark.parametrize("bad", ["", "z^-1", "1 +", "q", "2 3", "1/2/3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        CycloNum.parse(bad)


def test_parse_refuses_long_blank_runs_at_once():
    # Blanks around a sign are matched once each, not tried in every split.
    start = time.perf_counter()
    for bad in (" " * 10**5 + "x", "1 -" + " " * 10**5 + "x", " " * 10**5 + "-"):
        with pytest.raises(ValueError):
            CycloNum.parse(bad)
    assert time.perf_counter() - start < 1


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


def test_negative_power_inverts_first(monkeypatch):
    want = SQRT2 / 4
    inverted = []
    inverse = CycloNum.inverse
    monkeypatch.setattr(CycloNum, "inverse", lambda x: inverted.append(x) or inverse(x))
    assert SQRT2**-3 == want
    assert inverted == [SQRT2]


def test_pow_past_the_digit_limit_is_refused():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # 2^14000 has 4215 digits and 2^14300 has 4305.
        assert CycloNum(2) ** 14000 == 2**14000
        for exp in (14300, -14300):
            with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits\)"):
                CycloNum(2) ** exp
    finally:
        sys.set_int_max_str_digits(limit)


def test_hash_agrees_with_equality():
    assert {CycloNum(1), 1} == {1}
    assert len({CycloNum(1), 1, Fraction(1), ONE}) == 1
    assert hash(CycloNum(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(ZERO) == hash(0)
    assert {SQRT2: "a"}[ZETA - ZETA**3] == "a"


# -- the integer-lattice layout against a four-Fraction oracle -------------


def ref_mul(a, b):
    """Reference product on four-Fraction tuples, reduced by zeta^4 = -1."""
    out = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            k = i + j
            if k < 4:
                out[k] += a[i] * b[j]
            else:
                out[k - 4] -= a[i] * b[j]
    return tuple(out)


def ref_inverse(a):
    """Reference inverse: the product of the three other Galois conjugates
    over the (rational) field norm."""
    g3 = (a[0], a[3], -a[2], a[1])
    g5 = (a[0], -a[1], a[2], -a[3])
    g7 = (a[0], -a[3], -a[2], -a[1])
    b = ref_mul(ref_mul(g3, g5), g7)
    norm = ref_mul(a, b)
    assert norm[1:] == (0, 0, 0)
    return tuple(c / norm[0] for c in b)


def ref_render(a):
    return f"{a[0]} + {a[1]}*z + {a[2]}*z^2 + {a[3]}*z^3"


def rand_mixed(rng):
    """Four coefficients mixing zeros, ints and Fractions built from
    negative and positive denominators."""
    out = []
    for _ in range(4):
        r = rng.random()
        if r < 0.3:
            out.append(0)
        elif r < 0.5:
            out.append(rng.randint(-9, 9))
        else:
            den = rng.choice((-1, 1)) * rng.randint(1, 24)
            out.append(Fraction(rng.randint(-30, 30), den))
    return out


def lattice(x):
    return x._v


def assert_canonical(x):
    *ns, d = lattice(x)
    assert all(type(n) is int for n in ns) and type(d) is int
    assert d > 0
    assert math.gcd(*ns, d) == 1
    if not any(ns):
        assert d == 1


def test_lattice_matches_fraction_oracle():
    rng = random.Random(2024)
    cases = [[0, 0, 0, 0], [1, 0, 0, 0], [Fraction(-3, 6), 0, 0, 0]]
    cases += [rand_mixed(rng) for _ in range(1500)]
    for x in cases:
        a = CycloNum(*x)
        ra = tuple(Fraction(c) for c in x)
        assert a.coeffs == ra
        assert a.render() == ref_render(ra)
        assert_canonical(a)
        for y in (rand_mixed(rng), [0, 0, 0, 0], x):
            b = CycloNum(*y)
            rb = tuple(Fraction(c) for c in y)
            for got, want in (
                (a * b, ref_mul(ra, rb)),
                (a + b, tuple(p + q for p, q in zip(ra, rb))),
                (a - b, tuple(p - q for p, q in zip(ra, rb))),
            ):
                assert got.coeffs == want
                assert got.render() == ref_render(want)
                assert_canonical(got)
        if any(ra):
            inv = a.inverse()
            assert inv.coeffs == ref_inverse(ra)
            assert inv.render() == ref_render(ref_inverse(ra))
            assert_canonical(inv)


def test_mixed_operands_match_oracle():
    rng = random.Random(5)
    for _ in range(300):
        x = rand_mixed(rng)
        a, ra = CycloNum(*x), tuple(Fraction(c) for c in x)
        for r in (3, -1, Fraction(-5, 4), Fraction(7, -21)):
            r4 = (Fraction(r), Fraction(0), Fraction(0), Fraction(0))
            assert (a * r).coeffs == (r * a).coeffs == ref_mul(ra, r4)
            assert (a + r).coeffs == (r + a).coeffs == tuple(p + q for p, q in zip(ra, r4))
            assert (r - a).coeffs == tuple(q - p for p, q in zip(ra, r4))


def test_canonical_form():
    assert lattice(ZERO) == (0, 0, 0, 0, 1)
    assert lattice(ONE - ONE) == (0, 0, 0, 0, 1)
    half = CycloNum(Fraction(1, 2))
    assert lattice(half + half) == (1, 0, 0, 0, 1)
    assert lattice(SQRT2 / 2 - SQRT2 * Fraction(1, 2)) == (0, 0, 0, 0, 1)
    # Equal values reached by different routes hold equal ints.
    x = CycloNum(Fraction(2, 6), Fraction(-4, 10), 0, 1)
    y = CycloNum(Fraction(1, 3), Fraction(2, -5), Fraction(0, 7), Fraction(15, 15))
    assert lattice(x) == lattice(y) == (5, -6, 0, 15, 15)
    assert lattice(x * x.inverse()) == lattice(ONE)
    assert lattice((x + ONE) - ONE) == lattice(x)
    for v in (x, -x, x.conjugate(), x ** 3):
        assert_canonical(v)


def test_constructor_types():
    assert CycloNum(True) == ONE
    for bad in (1.0, "1", None, ONE, complex(1)):
        with pytest.raises(TypeError, match="rational coefficient"):
            CycloNum(bad)
        with pytest.raises(TypeError, match="rational coefficient"):
            CycloNum(0, 0, 0, bad)
    assert ONE.__add__(1.0) is NotImplemented
    assert ONE.__mul__("z") is NotImplemented
    with pytest.raises(TypeError):
        ONE * 1.5


def test_rational_hash_contract():
    for q in (Fraction(-3, 6), Fraction(1, 3), Fraction(7), Fraction(0), Fraction(-12, 4)):
        assert hash(CycloNum(q)) == hash(q)
        assert CycloNum(q) == q and q == CycloNum(q)
    assert hash(CycloNum(Fraction(-3, 6))) == hash(Fraction(-1, 2)) == hash(-0.5)
    assert hash(CycloNum(-7)) == hash(-7)
    assert hash(CycloNum(-1)) == hash(-1)
    assert hash(ZETA * ZETA**7) == hash(1)
    assert CycloNum(Fraction(1, 2)) != Fraction(1, 3)
    assert ZETA != 0 and ZETA != Fraction(1, 2)


def test_immutable():
    with pytest.raises(AttributeError, match="immutable"):
        ZETA._v = (0, 0, 0, 0, 1)
    with pytest.raises(AttributeError):
        ZETA.coeffs = ()


def test_copy_and_pickle_round_trip():
    values = [ZERO, ONE, ZETA, SQRT2, CycloNum(Fraction(-3, 6), 0, Fraction(5, 4), -2)]
    for v in values:
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(v, protocol))
            assert back == v and lattice(back) == lattice(v)
            assert back.render() == v.render() and hash(back) == hash(v)
    nested = {"w": [ZETA, (SQRT2, I)]}
    assert copy.deepcopy(nested) == nested
