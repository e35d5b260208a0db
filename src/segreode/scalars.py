"""Exact Gaussian-rational scalars.

Every coefficient in the package is an element of Q(i): a complex
number with reduced arbitrary-precision rational real and imaginary
parts.  ``fractions.Fraction`` supplies the rational arithmetic, so
reduction and positive denominators come for free.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import DomainError


class GaussRational:
    """An element a + b*i of Q(i), immutable, with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise DomainError("division by zero in Q(i)")
        return GaussRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|a + bi|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Equal values hash equally: a real value compares equal to its
        # int/Fraction, so it must hash like it.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- display ------------------------------------------------------

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return _frac_str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{_frac_str(self.re)}{sign}{_imag_str(abs(self.im))}"

    def as_factor_str(self):
        """Form safe to prefix to '*w^k' (complex values parenthesized)."""
        s = str(self)
        return f"({s})" if (self.re and self.im) else s


def int_text(n: int) -> str:
    """Decimal text of n; every writer turns its ints into text here."""
    try:
        return str(n)
    except ValueError:      # an int fails only past the int-to-str limit
        raise DomainError(f"a number has more than the {sys.get_int_max_str_digits()}"
                          " digits Python converts to text") from None


def _frac_str(q: Fraction) -> str:
    num = int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_text(q.denominator)}"


def _imag_str(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    num = int_text(q.numerator)
    return f"{num}i" if q.denominator == 1 else f"{num}i/{int_text(q.denominator)}"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


# -- parsing -----------------------------------------------------------

_TERM = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<num>\d+)\s*(?P<i1>i?)\s*(?:/\s*(?P<den>\d+))?\s*(?P<i2>i?)
          | (?P<ibare>i)\s*(?:/\s*(?P<iden>\d+))?
        )\s*""",
    re.VERBOSE,
)


def _int(digits):
    try:
        return int(digits)
    except ValueError:      # a run of digits fails only past the int-conversion limit
        raise DomainError(f"a {len(digits)}-digit number is more than the"
                          f" {sys.get_int_max_str_digits()} digits Python converts") from None


def parse_gauss(text: str) -> GaussRational:
    """Parse literals such as '3', '-1/2', '2i', 'i/3', '1+2i', '1/2-3i/4'.

    Raises DomainError on malformed, zero-denominator or over-long input.
    """
    s = text.strip()
    if not s:
        raise DomainError("empty Gaussian-rational literal")
    pos = 0
    total = GaussRational(0)
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise DomainError(f"malformed Gaussian-rational literal: {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("ibare"):
            den = _int(m.group("iden") or "1")
            if den == 0:
                raise DomainError(f"zero denominator in {text!r}")
            total = total + GaussRational(0, Fraction(sign, den))
        else:
            if m.group("i1") and m.group("i2"):
                raise DomainError(f"malformed Gaussian-rational literal: {text!r}")
            num = _int(m.group("num"))
            den = _int(m.group("den") or "1")
            if den == 0:
                raise DomainError(f"zero denominator in {text!r}")
            q = Fraction(sign * num, den)
            if m.group("i1") or m.group("i2"):
                total = total + GaussRational(0, q)
            else:
                total = total + GaussRational(q)
        pos = m.end()
        if pos < len(s) and s[pos] not in "+-":
            raise DomainError(f"malformed Gaussian-rational literal: {text!r}")
    return total


def gauss_sqrt_exact(x: GaussRational):
    """Square root of x inside Q(i), or None when it does not exist there."""
    if x.is_zero():
        return GaussRational(0)
    n2 = x.abs2()
    r = _frac_sqrt(n2)
    if r is None:
        return None
    # candidate re^2 = (|x| + Re x)/2, im^2 = (|x| - Re x)/2
    re2 = (r + x.re) / 2
    im2 = (r - x.re) / 2
    a = _frac_sqrt(re2)
    b = _frac_sqrt(im2)
    if a is None or b is None:
        return None
    if x.im < 0:
        b = -b
    cand = GaussRational(a, b)
    return cand if cand * cand == x else None


def _frac_sqrt(q: Fraction):
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)
