"""Exact arithmetic in the 8th cyclotomic field Q(zeta_8).

Every scalar produced by the state-sum engine lives in Q(zeta_8), the field
generated over the rationals by zeta = exp(i*pi/4).  An element is the value

    (n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / d,      zeta^4 = -1,

stored as four Python ints n0..n3 over one positive int denominator d: the
common-denominator layout of FLINT's fmpq_poly and nf_elem.  Products,
sums and comparisons run on the ints alone; no Fraction is built on those
paths.  `coeffs` gives the same value as four Fractions (c0, c1, c2, c3).

Useful constants inside the field:

    zeta^2        = i
    zeta - zeta^3 = sqrt(2)
    zeta          = (1 + i)/sqrt(2)

The representation is canonical: gcd(n0, n1, n2, n3, d) = 1 with d > 0, so
zero is (0, 0, 0, 0, 1) and two values are equal iff their five ints agree.
Equality tests are exact and there is no tolerance anywhere in the package.

Literals name zeta as z: parse() reads terms RATIONAL, RATIONAL*z^k or z^k
joined by + or -, such as render()'s c0 + c1*z + c2*z^2 + c3*z^3.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt as _fsqrt

__all__ = [
    "CycloNum",
    "ZERO",
    "ONE",
    "ZETA",
    "I",
    "SQRT2",
    "zeta_pow",
    "zeta_log",
    "rational_sqrt",
    "real_sqrt",
]

_ZERO_V = (0, 0, 0, 0, 1)
# Python 3.10 before 3.10.7 puts no limit on the digits of an int.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _lattice(x) -> tuple[int, int, int, int, int] | None:
    """The canonical ints of a CycloNum, int or Fraction; None otherwise."""
    if isinstance(x, CycloNum):
        return x._v
    if isinstance(x, int):
        return (x, 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, 0, 0, x.denominator)
    return None


class CycloNum:
    """An exact element of Q(zeta_8)."""

    __slots__ = ("_v",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = (c0, c1, c2, c3)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"expected a rational coefficient, got {type(c).__name__}"
                )
        # Fractions are in lowest terms, so over the lcm of their
        # denominators the five ints already have gcd 1.
        d = lcm(*(c.denominator for c in cs))
        _set_v(self, tuple(c.numerator * (d // c.denominator) for c in cs) + (d,))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    def __reduce__(self):
        return (CycloNum, self.coeffs)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The value as four rationals (c0, c1, c2, c3)."""
        *ns, d = self._v
        return tuple(Fraction(n, d) for n in ns)

    # -- coercion helpers ------------------------------------------------

    @staticmethod
    def coerce(x) -> "CycloNum":
        if isinstance(x, CycloNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNum(x)
        raise TypeError(f"cannot interpret {x!r} as an element of Q(zeta_8)")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        b = other._v if other.__class__ is CycloNum else _lattice(other)
        if b is None:
            return NotImplemented
        a0, a1, a2, a3, ad = self._v
        b0, b1, b2, b3, bd = b
        if ad == bd:
            return _canonical(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _canonical(
            a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad, a3 * bd + b3 * ad, ad * bd
        )

    __radd__ = __add__

    def __sub__(self, other):
        b = other._v if other.__class__ is CycloNum else _lattice(other)
        if b is None:
            return NotImplemented
        a0, a1, a2, a3, ad = self._v
        b0, b1, b2, b3, bd = b
        if ad == bd:
            return _canonical(a0 - b0, a1 - b1, a2 - b2, a3 - b3, ad)
        return _canonical(
            a0 * bd - b0 * ad, a1 * bd - b1 * ad, a2 * bd - b2 * ad, a3 * bd - b3 * ad, ad * bd
        )

    def __rsub__(self, other):
        if _lattice(other) is None:
            return NotImplemented
        return CycloNum.coerce(other) - self

    def __neg__(self):
        a0, a1, a2, a3, d = self._v
        return _from_canonical((-a0, -a1, -a2, -a3, d))

    def __mul__(self, other):
        b = other._v if other.__class__ is CycloNum else _lattice(other)
        if b is None:
            return NotImplemented
        a0, a1, a2, a3, ad = self._v
        b0, b1, b2, b3, bd = b
        # Convolution reduced by zeta^4 = -1: degree k >= 4 folds to k-4
        # with a sign flip.
        return _canonical(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            ad * bd,
        )

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse, via the product of Galois conjugates.

        For x = n/d, y = n * sigma_5(n) = p + q*i lies in Q(i), and its norm
        p^2 + q^2 is the field norm of n, a positive integer.  Then
        1/x = d * sigma_5(n) * (p - q*i) / (p^2 + q^2).
        """
        if self._v == _ZERO_V:
            raise ZeroDivisionError("division by zero in Q(zeta_8)")
        a0, a1, a2, a3, d = self._v
        p = a0 * a0 - a2 * a2 + 2 * a1 * a3
        q = 2 * a0 * a2 - a1 * a1 + a3 * a3
        return _canonical(
            d * (a0 * p + a2 * q),
            -d * (a1 * p + a3 * q),
            d * (a2 * p - a0 * q),
            d * (a1 * q - a3 * p),
            p * p + q * q,
        )

    def __truediv__(self, other):
        return self * CycloNum.coerce(other).inverse()

    def __rtruediv__(self, other):
        return CycloNum.coerce(other) * self.inverse()

    def __pow__(self, exp: int) -> "CycloNum":
        """self ** exp by squaring, no further than exp's last bit; a negative
        exp inverts first.  Refused with ValueError as soon as an int of a
        partial power has more digits than Python writes as text (no check when
        sys.get_int_max_str_digits() is 0): such a power could not be
        printed, and squaring on past it exhausts memory."""
        if not isinstance(exp, int):
            raise TypeError("exponent must be an integer")
        if exp < 0:
            return self.inverse() ** (-exp)
        limit = _int_max_str_digits()
        # No int of a power up to self ** exp has more than exp * (b + 2)
        # bits, b the widest of self's: within 3.32 * limit, none is checked.
        if exp * (max(map(int.bit_length, self._v)) + 2) <= 3.32 * limit:
            limit = 0
        result, base, rest = ONE, self, exp
        while True:
            if rest & 1:
                result = _within(limit, result * base)
            rest >>= 1
            if not rest:
                return result
            base = _within(limit, base * base)

    def conjugate(self) -> "CycloNum":
        """Complex conjugation, zeta -> zeta^(-1) = -zeta^3."""
        n0, n1, n2, n3, d = self._v
        return _from_canonical((n0, -n3, -n2, -n1, d))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self._v == _ZERO_V

    def is_real(self) -> bool:
        _, n1, n2, n3, _ = self._v
        return n2 == 0 and n1 == -n3

    def real_parts(self) -> tuple[Fraction, Fraction]:
        """For a real element c0 + c1*sqrt(2), return (c0, c1)."""
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        n0, n1, _, _, d = self._v
        return Fraction(n0, d), Fraction(n1, d)

    def is_real_positive(self) -> bool:
        """True iff the value is real and strictly greater than zero.

        With d > 0 the sign of (n0 + n1*sqrt(2))/d is that of n0 + n1*sqrt(2),
        decided exactly by comparing n0^2 against 2*n1^2, so no floating point
        enters the test.  Zero is not positive.
        """
        if not self.is_real():
            return False
        n0, n1 = self._v[0], self._v[1]
        if n0 == 0 and n1 == 0:
            return False
        if n0 >= 0 and n1 >= 0:
            return True
        if n0 <= 0 and n1 <= 0:
            return False
        if n0 > 0:  # n1 < 0: positive iff n0 > -n1*sqrt(2)
            return n0 * n0 > 2 * n1 * n1
        # n1 > 0 > n0: positive iff n1*sqrt(2) > -n0
        return 2 * n1 * n1 > n0 * n0

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        b = other._v if other.__class__ is CycloNum else _lattice(other)
        if b is None:
            return NotImplemented
        return self._v == b

    def __hash__(self):
        n0, n1, n2, n3, d = self._v
        if not (n1 or n2 or n3):
            # A rational value equals its Fraction or int, so hash like it.
            return hash(n0) if d == 1 else hash(Fraction(n0, d))
        return hash(self._v)

    def __bool__(self):
        return self._v != _ZERO_V

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical textual form, parsed back bit-exactly by parse()."""
        c = self.coeffs
        return f"{c[0]} + {c[1]}*z + {c[2]}*z^2 + {c[3]}*z^3"

    @staticmethod
    def parse(text: str) -> "CycloNum":
        """Parse a cyclotomic literal: terms joined by + or -.

        A term is RATIONAL, RATIONAL*z^k or z^k (z alone is z^1), with k >= 0
        read mod 8; a RATIONAL may carry its own minus, and the first term
        may be led by a sign.  So the canonical full form produced by render()
        parses, as do compact spellings such as "1", "-1/2", "z^3",
        "1/2*z^2 - z", "z-z^3" (which is sqrt(2)) and "z-z^3-1".
        """
        if not text.strip():
            raise ValueError("empty cyclotomic literal")
        coeffs = [Fraction(0)] * 4
        pos = 0
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            # Every term after the first is led by its own + or -.
            if m is None or (pos and not m[1]):
                raise ValueError(f"bad cyclotomic literal {text!r} at {text[pos:]!r}")
            sign, z_coeff, exp, rational = m.groups()
            try:
                coeff = Fraction(rational or z_coeff or 1)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in cyclotomic literal {text!r}") from None
            k = 0 if rational else int(exp or 1) % 8
            coeffs[k % 4] += -coeff if (sign == "-") != (k >= 4) else coeff
            pos = m.end()
        return CycloNum(*coeffs)

    def to_complex(self) -> complex:
        """Floating approximation via the embedding zeta = (1+i)/sqrt(2)."""
        c = [float(x) for x in self.coeffs]
        r = _fsqrt(0.5)
        re = c[0] + r * c[1] - r * c[3]
        im = r * c[1] + c[2] + r * c[3]
        return complex(re, im)

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = ("", "z", "z^2", "z^3")
        parts = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            if not name:
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


_new = object.__new__
_set_v = CycloNum._v.__set__


def _from_canonical(v) -> CycloNum:
    """Wrap five ints already in canonical form."""
    x = _new(CycloNum)
    _set_v(x, v)
    return x


def _within(limit: int, x: CycloNum) -> CycloNum:
    """x, refused when one of its ints has more than limit digits (0: none)."""
    # An integer of more than limit digits has more than 3.32 * limit bits.
    if limit and max(map(int.bit_length, x._v)) > 3.32 * limit:
        if any(abs(i) >= 10**limit for i in x._v):
            raise ValueError(
                f"Exceeds the limit ({limit} digits) for integer string conversion "
                "in a power; use sys.set_int_max_str_digits() to increase the limit"
            )
    return x


def _canonical(n0: int, n1: int, n2: int, n3: int, d: int) -> CycloNum:
    """(n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / d for d > 0, reduced."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            d //= g
    x = _new(CycloNum)
    _set_v(x, (n0, n1, n2, n3, d))
    return x


# One term of a literal: an optional sign, then RATIONAL*z[^k], z[^k] or
# RATIONAL, where a RATIONAL may carry its own minus.  The groups are the
# sign, the coefficient of z, the exponent and the lone rational.
_RATIONAL = r"-?\d+(?:/\d+)?"
_TERM_RE = re.compile(
    rf"\s*(?:([+-])\s*)?(?:(?:({_RATIONAL})\s*\*\s*)?z(?:\s*\^\s*(\d+))?|({_RATIONAL}))\s*"
)


ZERO = CycloNum(0)
ONE = CycloNum(1)
ZETA = CycloNum(0, 1)
I = CycloNum(0, 0, 1)
SQRT2 = CycloNum(0, 1, 0, -1)


# zeta^0 .. zeta^7: the basis monomials, then their negatives (zeta^4 = -1).
_ZETA_POWERS = tuple(
    CycloNum(*(sign * (i == k) for i in range(4))) for sign in (1, -1) for k in range(4)
)


def zeta_pow(k: int) -> CycloNum:
    """zeta^k for any integer k (zeta has order 8), one of eight shared constants."""
    return _ZETA_POWERS[k % 8]


_ZETA_LOG = {w: k for k, w in enumerate(_ZETA_POWERS)}


def zeta_log(z: CycloNum) -> int | None:
    """The k in 0..7 with z = zeta^k, or None when z is no eighth root of unity."""
    return _ZETA_LOG.get(z)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    pn, pd = x.numerator, x.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def real_sqrt(a: CycloNum) -> CycloNum | None:
    """Positive square root of a positive real element, when it stays in the field.

    Solves (x0 + x1*sqrt(2))^2 = c0 + c1*sqrt(2) exactly over the rationals.
    Returns None when no root exists in Q(sqrt(2)).
    """
    if not a.is_real_positive():
        return None
    c0, c1 = a.real_parts()
    candidates: list[tuple[Fraction, Fraction]] = []
    if c1 == 0:
        r = rational_sqrt(c0)
        if r is not None:
            candidates.append((r, Fraction(0)))
        r = rational_sqrt(c0 / 2)
        if r is not None:
            candidates.append((Fraction(0), r))
    else:
        disc = rational_sqrt(c0 * c0 - 2 * c1 * c1)
        if disc is not None:
            for t in ((c0 + disc) / 2, (c0 - disc) / 2):
                x0 = rational_sqrt(t)
                if x0 is not None and x0 != 0:
                    x1 = c1 / (2 * x0)
                    candidates.append((x0, x1))
                    candidates.append((-x0, -x1))
    for x0, x1 in candidates:
        root = CycloNum(x0, x1, 0, -x1)
        if root * root == a and root.is_real_positive():
            return root
    return None
