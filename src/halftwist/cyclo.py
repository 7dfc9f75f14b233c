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
"""

from __future__ import annotations

import re
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
    "rational_sqrt",
    "real_sqrt",
]

_ZERO_V = (0, 0, 0, 0, 1)


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
        if not isinstance(exp, int):
            raise TypeError("exponent must be an integer")
        if exp < 0:
            return self.inverse() ** (-exp)
        result = ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

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
        """Parse a cyclotomic literal.

        Accepts the canonical full form produced by render() as well as
        compact spellings such as "1", "-1/2", "z^3", "1/2*z^2 - z", or
        "z-z^3" (which is sqrt(2)).
        """
        tokens = _scan_literal(text)
        if not tokens:
            raise ValueError("empty cyclotomic literal")
        coeffs = [Fraction(0)] * 4
        pos = 0
        sign = 1
        first = True
        while pos < len(tokens):
            tok = tokens[pos]
            if tok in ("+", "-"):
                sign = 1 if tok == "+" else -1
                pos += 1
                if pos >= len(tokens):
                    raise ValueError(f"dangling sign in literal {text!r}")
            elif not first:
                raise ValueError(f"missing '+' or '-' before term in {text!r}")
            coeff, power, pos = _parse_term(tokens, pos, text)
            k = power % 8
            s = sign if k < 4 else -sign
            coeffs[k % 4] += s * coeff
            sign = 1
            first = False
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


_TOKEN_RE = re.compile(r"\s*(?:(-?\d+(?:/\d+)?)|(z)|(\^)|(\*)|(\+)|(-))")


def _scan_literal(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"bad character in cyclotomic literal at {rest[:8]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    return tokens


def _parse_term(tokens, pos, text):
    """One term: RATIONAL [* z[^k]] or z[^k].  Returns (coeff, power, pos)."""
    coeff = Fraction(1)
    power = 0
    tok = tokens[pos]
    if tok not in ("z", "^", "*", "+", "-"):
        try:
            coeff = Fraction(tok)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in cyclotomic literal {text!r}") from None
        pos += 1
        if pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            if pos >= len(tokens) or tokens[pos] != "z":
                raise ValueError(f"expected z after '*' in {text!r}")
        elif pos < len(tokens) and tokens[pos] == "z":
            raise ValueError(f"missing '*' between coefficient and z in {text!r}")
        else:
            return coeff, 0, pos
    if pos < len(tokens) and tokens[pos] == "z":
        power = 1
        pos += 1
        if pos < len(tokens) and tokens[pos] == "^":
            pos += 1
            if pos >= len(tokens):
                raise ValueError(f"dangling '^' in {text!r}")
            exp = tokens[pos]
            if not exp.lstrip("-").isdigit() or "/" in exp:
                raise ValueError(f"bad exponent {exp!r} in {text!r}")
            power = int(exp)
            if power < 0:
                raise ValueError("negative powers of z are not accepted; use z^7 etc.")
            pos += 1
    elif coeff == 1:
        raise ValueError(f"expected a term in {text!r}")
    return coeff, power, pos


ZERO = CycloNum(0)
ONE = CycloNum(1)
ZETA = CycloNum(0, 1)
I = CycloNum(0, 0, 1)
SQRT2 = CycloNum(0, 1, 0, -1)


def zeta_pow(k: int) -> CycloNum:
    """zeta^k for any integer k (zeta has order 8)."""
    k %= 8
    c = [0] * 4
    c[k % 4] = 1 if k < 4 else -1
    return CycloNum(*c)


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
