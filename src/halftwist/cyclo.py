"""Exact arithmetic in the 8th cyclotomic field Q(zeta_8).

Every scalar produced by the state-sum engine lives in Q(zeta_8), the field
generated over the rationals by zeta = exp(i*pi/4).  An element is stored as
four rationals (c0, c1, c2, c3) meaning

    c0 + c1*zeta + c2*zeta^2 + c3*zeta^3,      zeta^4 = -1.

Useful constants inside the field:

    zeta^2        = i
    zeta - zeta^3 = sqrt(2)
    zeta          = (1 + i)/sqrt(2)

The representation is canonical: two values are equal iff all four rational
coefficients agree, so equality tests are exact and there is no tolerance
anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, sqrt as _fsqrt

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


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational coefficient, got {type(x).__name__}")


class CycloNum:
    """An exact element of Q(zeta_8)."""

    __slots__ = ("coeffs",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        object.__setattr__(
            self, "coeffs", (_frac(c0), _frac(c1), _frac(c2), _frac(c3))
        )

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

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
        if not isinstance(other, (CycloNum, int, Fraction)):
            return NotImplemented
        o = CycloNum.coerce(other)
        a, b = self.coeffs, o.coeffs
        return CycloNum(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (CycloNum, int, Fraction)):
            return NotImplemented
        o = CycloNum.coerce(other)
        a, b = self.coeffs, o.coeffs
        return CycloNum(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __rsub__(self, other):
        if not isinstance(other, (CycloNum, int, Fraction)):
            return NotImplemented
        return CycloNum.coerce(other) - self

    def __neg__(self):
        a = self.coeffs
        return CycloNum(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        if not isinstance(other, (CycloNum, int, Fraction)):
            return NotImplemented
        o = CycloNum.coerce(other)
        a, b = self.coeffs, o.coeffs
        # Convolution reduced by zeta^4 = -1: degree k >= 4 folds to k-4
        # with a sign flip.
        out = [Fraction(0)] * 4
        for i in range(4):
            ai = a[i]
            if not ai:
                continue
            for j in range(4):
                bj = b[j]
                if not bj:
                    continue
                k = i + j
                if k < 4:
                    out[k] += ai * bj
                else:
                    out[k - 4] -= ai * bj
        return CycloNum(*out)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse, via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_8)")
        b = self._galois(3) * self._galois(5) * self._galois(7)
        norm = self * b
        n = norm.coeffs
        assert n[1] == 0 and n[2] == 0 and n[3] == 0, "field norm must be rational"
        inv_norm = Fraction(1) / n[0]
        c = b.coeffs
        return CycloNum(c[0] * inv_norm, c[1] * inv_norm, c[2] * inv_norm, c[3] * inv_norm)

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

    def _galois(self, k: int) -> "CycloNum":
        """Image under the automorphism zeta -> zeta^k, k odd."""
        c = self.coeffs
        if k % 8 == 1:
            return self
        if k % 8 == 3:
            return CycloNum(c[0], c[3], -c[2], c[1])
        if k % 8 == 5:
            return CycloNum(c[0], -c[1], c[2], -c[3])
        if k % 8 == 7:
            return CycloNum(c[0], -c[3], -c[2], -c[1])
        raise ValueError("Galois automorphisms need k coprime to 8")

    def conjugate(self) -> "CycloNum":
        """Complex conjugation, zeta -> zeta^(-1) = -zeta^3."""
        return self._galois(7)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_real(self) -> bool:
        c = self.coeffs
        return c[2] == 0 and c[1] == -c[3]

    def real_parts(self) -> tuple[Fraction, Fraction]:
        """For a real element c0 + c1*sqrt(2), return (c0, c1)."""
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        return self.coeffs[0], self.coeffs[1]

    def is_real_positive(self) -> bool:
        """True iff the value is real and strictly greater than zero.

        The sign of c0 + c1*sqrt(2) is decided exactly by comparing c0^2
        against 2*c1^2, so no floating point enters the test.  Zero is not
        positive.
        """
        if not self.is_real():
            return False
        c0, c1 = self.real_parts()
        if c0 == 0 and c1 == 0:
            return False
        if c0 >= 0 and c1 >= 0:
            return True
        if c0 <= 0 and c1 <= 0:
            return False
        if c0 > 0:  # c1 < 0: positive iff c0 > -c1*sqrt(2)
            return c0 * c0 > 2 * c1 * c1
        # c1 > 0 > c0: positive iff c1*sqrt(2) > -c0
        return 2 * c1 * c1 > c0 * c0

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        c0, c1, c2, c3 = self.coeffs
        if not (c1 or c2 or c3):
            # A rational value equals its Fraction or int, so hash like it.
            return hash(c0)
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

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
    c = [Fraction(0)] * 4
    c[k % 4] = Fraction(1) if k < 4 else Fraction(-1)
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
