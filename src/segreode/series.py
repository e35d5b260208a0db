"""Exact truncated power/Laurent series over Gaussian rationals.

Storage model: a series keeps a sparse dict of Gaussian-*integer*
coefficient pairs together with one shared positive denominator, so the
hot Cauchy products (see :mod:`segreode.backend`) run on plain integers
and the rational reduction (content gcd) happens once per operation.
Coefficient access converts to :class:`~segreode.scalars.GaussRational`
on demand.

One core, three kinds.  ``_Series`` holds the variable names ``vars``,
one truncation per variable ``truncs``, the coefficient dict ``coeffs``
and the denominator ``den``: an exact representative modulo every
monomial outside the box ``truncs``.  A key is the degree for one
variable and the packed exponent triple (``pack``) for three; the
number of variables picks the kernel (``backend.mul1``/``mul3``) and
the box test.  The core implements construction, ``==``, ``+``, ``-``,
``*``, ``truncate``, ``widen``, ``conjugate``, ``order``, the partial
``derivative``, the graded ``exp``, ``pow_int``, ``ring_one``,
``integral`` (in the first variable) and ``divide_monomial`` (by a
power of the last) once.  Binary operations work on the componentwise
minimum of the operand boxes; derivatives lower the truncation of
their axis by one.

``USeries`` and ``ULaurent`` share ``var``, ``trunc``, coefficients
by degree and ``repr``.  ``USeries`` adds shifts, ``invert_unit``,
``log``, binomial powers and composition (``eval_at``).  ``ULaurent``
stores negative degrees too, so it has no ``integral`` and no
``divide_monomial``; its truncation is absolute (exact below
var**trunc), and its product, exact below min(t1 - p2, t2 - p1) for
truncations t and poles p, is its own, as are ``invert`` and negative
powers.  ``TriSeries`` (three variables) adds coefficients by
exponent triple, ``subst_eta``, ``swap_zx`` and ``slice_eta``.  The
relaxed helpers (``_slice_product``, ``_exp_part``, ``_join``) and the
linear combination ``_combine`` (a shifted term comes in as
``shift_up``) take and return series; no other module reads coefficient
storage or calls the kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import backend
from .backend import MASK, MAX_TRUNC, SHIFT1, SHIFT2
from .errors import DomainError, StructureError
from .scalars import GaussRational

_SCALARS = (int, Fraction, GaussRational)


def pack(k, l, j):
    """The key of z^k xi^l eta^j in a ``TriSeries`` (internal).

    Exponents are not checked, so callers check them against the box
    first: every box is bounded by ``MAX_TRUNC`` (``_checked_truncs``),
    which keeps exponents and their pairwise sums inside their 21-bit
    fields.  A negative exponent or one of 2**21 or more would alias
    another key.
    """
    return (k << SHIFT1) | (l << SHIFT2) | j


def unpack(key):
    """(k, l, j) of a packed key (internal; the inverse of ``pack``)."""
    return key >> SHIFT1, (key >> SHIFT2) & MASK, key & MASK


# Per variable, exponent = (key >> shift) & mask.  The first is never
# masked, so a negative Laurent degree reads as itself.
_FIELDS = {1: ((0, -1),), 3: ((SHIFT1, -1), (SHIFT2, MASK), (0, MASK))}


def _checked_truncs(truncs):
    """``truncs`` if no axis exceeds MAX_TRUNC, past which packed keys alias."""
    if any(t > MAX_TRUNC for t in truncs):
        raise StructureError(f"truncation {truncs} exceeds the bound {MAX_TRUNC}"
                             " of packed exponents")
    return truncs


def _cut(coeffs, truncs):
    """The terms of ``coeffs`` whose key lies inside the box ``truncs``."""
    if len(truncs) == 1:
        t = truncs[0]
        return {k: v for k, v in coeffs.items() if k < t}
    tz, tx, te = truncs
    return {k: v for k, v in coeffs.items()
            if (k >> SHIFT1) < tz and ((k >> SHIFT2) & MASK) < tx and (k & MASK) < te}


def _product(ca, cb, truncs):
    """Cauchy product of two coefficient dicts, kept inside the box."""
    if len(truncs) == 1:
        return backend.mul1(ca, cb, truncs[0])
    return backend.mul3(ca, cb, *truncs)


def _gauss(pair, den):
    if pair is None:
        return GaussRational(0)
    return GaussRational(Fraction(pair[0], den), Fraction(pair[1], den))


def _scalar_triple(q):
    """Any scalar-like -> (a, b, d) with value (a + b*i)/d, d > 0."""
    if isinstance(q, GaussRational):
        d = q.re.denominator * q.im.denominator // math.gcd(
            q.re.denominator, q.im.denominator
        )
        return (q.re.numerator * (d // q.re.denominator),
                q.im.numerator * (d // q.im.denominator), d)
    if isinstance(q, int):
        return (q, 0, 1)
    if isinstance(q, Fraction):
        return (q.numerator, 0, q.denominator)
    raise StructureError(f"not a scalar: {q!r}")


def _content_normalize(coeffs, den):
    """Reduce (coeffs, den) to primitive form.

    Stored zero pairs are kept (callers filter zeros themselves); an
    empty dict comes back with denominator 1.
    """
    if den < 0:
        raise AssertionError("denominator must stay positive")
    g = den
    for a, b in coeffs.values():
        if g == 1:
            break
        g = math.gcd(g, a, b)
    if not coeffs:
        return coeffs, 1
    if g > 1:
        coeffs = {k: (a // g, b // g) for k, (a, b) in coeffs.items()}
        den //= g
    return coeffs, den


def _merge_scaled(c1, s1, c2, s2):
    out = {}
    for k, (a, b) in c1.items():
        out[k] = (a * s1, b * s1)
    for k, (a, b) in c2.items():
        cur = out.get(k)
        if cur is None:
            out[k] = (a * s2, b * s2)
        else:
            re, im = cur[0] + a * s2, cur[1] + b * s2
            if re or im:
                out[k] = (re, im)
            else:
                del out[k]
    return out


def _scale_coeffs(coeffs, a, b):
    """Multiply every pair by the Gaussian integer a + b*i."""
    if b == 0:
        if a == 1:
            return dict(coeffs)
        return {k: (x * a, y * a) for k, (x, y) in coeffs.items()}
    return {k: (x * a - y * b, x * b + y * a) for k, (x, y) in coeffs.items()}


def _shift(coeffs, n):
    """``coeffs`` with every degree raised by n (the same dict for n = 0)."""
    return {k + n: v for k, v in coeffs.items()} if n else coeffs


class _Series:
    """The ring every series kind shares: stored keys lie inside the box and
    (coeffs, den) is primitive, so equal series have equal attributes.  A
    z-slice of the relaxed helpers is a ``TriSeries`` on (1, tx, te).
    Each kind binds those of ``_add``, ``_mul``, ``_exp``, ``_pow_int``,
    ``_antiderivative`` and ``_divide_monomial`` it offers in its own
    namespace, where ``perfbench/tracer.py`` wraps them."""

    __slots__ = ("vars", "truncs", "coeffs", "den")

    def _set_terms(self, vars, truncs, items):
        """Store (key, scalar) pairs, all inside the box, over one denominator."""
        cf, den = {}, 1
        for key, q in items:
            a, b, d = _scalar_triple(q)
            if a or b:
                cf[key] = (a, b, d)
                den = math.lcm(den, d)
        self.vars, self.truncs = vars, truncs
        self.coeffs, self.den = _content_normalize(
            {k: (a * (den // d), b * (den // d)) for k, (a, b, d) in cf.items()}, den)

    @classmethod
    def _raw(cls, vars, truncs, coeffs, den):
        s = cls.__new__(cls)
        s.vars, s.truncs = vars, truncs
        s.coeffs, s.den = _content_normalize(coeffs, den)
        return s

    def _const(self, q):
        """The scalar q in the ring of self."""
        a, b, d = _scalar_triple(q)
        inside = (a or b) and min(self.truncs) > 0
        return self._raw(self.vars, self.truncs, {0: (a, b)} if inside else {}, d)

    def ring_one(self):
        return self._const(1)

    def constant_term(self):
        return _gauss(self.coeffs.get(0), self.den)

    def is_zero(self):
        return not self.coeffs

    def order(self):
        """Lowest total degree of a stored term, or None for the (truncated) zero series."""
        if len(self.truncs) == 1:
            return min(self.coeffs, default=None)
        return min((sum(unpack(key)) for key in self.coeffs), default=None)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.vars == other.vars and self.truncs == other.truncs
                and self.den == other.den and self.coeffs == other.coeffs)

    __hash__ = None

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        """The common box of self and other, whose variables must agree."""
        if self.vars != other.vars:
            raise StructureError(f"variable mismatch: {', '.join(self.vars)}"
                                 f" vs {', '.join(other.vars)}")
        if self.truncs == other.truncs:
            return self.truncs
        return tuple(map(min, self.truncs, other.truncs))

    def _add(self, other):
        if isinstance(other, _SCALARS):
            other = self._const(other)
        elif type(other) is not type(self):
            return NotImplemented
        truncs = self._check(other)
        g = math.gcd(self.den, other.den)
        den = self.den // g * other.den
        cf = _merge_scaled(self.coeffs, den // self.den, other.coeffs, den // other.den)
        if truncs != self.truncs or truncs != other.truncs:
            cf = _cut(cf, truncs)
        return self._raw(self.vars, truncs, cf, den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Series) else GaussRational(0) - other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._raw(self.vars, self.truncs,
                         {k: (-a, -b) for k, (a, b) in self.coeffs.items()}, self.den)

    def _mul(self, other):
        if isinstance(other, _SCALARS):
            a, b, d = _scalar_triple(other)
            if a == 0 and b == 0:
                return self._raw(self.vars, self.truncs, {}, 1)
            return self._raw(self.vars, self.truncs,
                             _scale_coeffs(self.coeffs, a, b), self.den * d)
        if type(other) is not type(self):
            return NotImplemented
        truncs = self._check(other)
        cf = _product(self.coeffs, other.coeffs, truncs)
        return self._raw(self.vars, truncs, cf, self.den * other.den)

    def _box(self, truncs):
        """``truncs`` as a tuple; one variable also takes a bare int."""
        return (truncs,) if isinstance(truncs, int) else tuple(truncs)

    def truncate(self, truncs):
        """The terms inside the meet of the box and ``truncs``."""
        truncs = tuple(map(min, self.truncs, self._box(truncs)))
        if truncs == self.truncs:
            return self
        return self._raw(self.vars, truncs, _cut(self.coeffs, truncs), self.den)

    def widen(self, truncs):
        """The same terms on a box at least as large as the current one.

        Truncation only shrinks; widening claims the new coefficients
        are zero, so the caller must know they are (or will overwrite
        them, as a precision ladder does).
        """
        truncs = _checked_truncs(self._box(truncs))
        if any(a > b for a, b in zip(self.truncs, truncs)):
            raise StructureError(f"widen: {truncs} is smaller than {self.truncs}")
        return self._raw(self.vars, truncs, self.coeffs, self.den)

    def conjugate(self):
        return self._raw(self.vars, self.truncs,
                         {k: (a, -b) for k, (a, b) in self.coeffs.items()}, self.den)

    # -- analytic-style operations ---------------------------------------

    def derivative(self, axis=0):
        """Partial derivative in variable ``axis``, whose truncation drops by one."""
        shift, mask = _FIELDS[len(self.truncs)][axis]
        one = 1 << shift
        cf = {key - one: (e * a, e * b) for key, (a, b) in self.coeffs.items()
              if (e := (key >> shift) & mask)}
        truncs = self.truncs[:axis] + (self.truncs[axis] - 1,) + self.truncs[axis + 1:]
        return self._raw(self.vars, truncs, cf, self.den)

    def _antiderivative(self):
        """Antiderivative in the first variable, zero integration constants
        (its truncation grows by one); degree -1 has none."""
        shift = _FIELDS[len(self.truncs)][0][0]
        truncs = _checked_truncs((self.truncs[0] + 1,) + self.truncs[1:])
        scale = math.lcm(*range(1, truncs[0]))
        one = 1 << shift
        cf = {}
        for key, (a, b) in self.coeffs.items():
            s = scale // ((key >> shift) + 1)
            cf[key + one] = (a * s, b * s)
        return self._raw(self.vars, truncs, cf, self.den * scale)

    def _divide_monomial(self, n):
        """Exact division by the last variable to the n-th power (eta**n
        in three variables); DomainError if a lower term survives."""
        mask = _FIELDS[len(self.truncs)][-1][1]
        if any((key & mask) < n for key in self.coeffs):
            raise DomainError(f"series not divisible by {self.vars[-1]}^{n}")
        return self._raw(self.vars, self.truncs[:-1] + (self.truncs[-1] - n,),
                         _shift(self.coeffs, -n), self.den)

    def _exp(self):
        """exp(self); the constant term must be 0.

        Graded by degree in the first variable when no term is free of it
        (always in one variable, and for every caller in three), else by
        total degree.  The parts E_n of exp(t) come from those of t by
        ``_exp_part``, each a series primitive over its own denominator, so
        its size follows its reduced coefficients.  E_0 and the exp of the
        zero series are ``ring_one()``, without a product.
        """
        if not self.coeffs:
            return self.ring_one()
        if not self.constant_term().is_zero():
            raise DomainError("exp: nonzero constant term")
        truncs = self.truncs
        shift = _FIELDS[len(truncs)][0][0]
        if all(key >> shift for key in self.coeffs):
            grade, ngrades = (lambda key: key >> shift), truncs[0]
        else:
            grade, ngrades = (lambda key: sum(unpack(key))), sum(truncs) - 2
        parts = [{} for _ in range(max(ngrades, 1))]
        for key, v in self.coeffs.items():
            parts[grade(key)][key] = v
        t = [self._raw(self.vars, truncs, p, self.den) for p in parts]
        E = [self.ring_one()]
        for n in range(1, len(t)):
            E.append(_exp_part(t, E, n))
        return _join(E, truncs)

    def _pow_int(self, n):
        """self**n by squaring; n >= 1 takes no product with one."""
        if n < 0:
            return self.invert_unit().pow_int(-n)
        if n == 0:
            return self.ring_one()
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base


class _Univariate(_Series):
    """What ``USeries`` and ``ULaurent`` share: keys are degrees in ``var``,
    exact below ``trunc``."""

    __slots__ = ()

    var = property(lambda self: self.vars[0])
    trunc = property(lambda self: self.truncs[0])

    def coeff(self, d) -> GaussRational:
        return _gauss(self.coeffs.get(d), self.den)

    def terms(self):
        for d in sorted(self.coeffs):
            yield d, _gauss(self.coeffs[d], self.den)

    def __repr__(self):
        if not self.coeffs:
            return f"O({self.var}^{self.trunc})"
        parts = [_term_str(d, q, self.var) for d, q in self.terms()]
        return " + ".join(parts) + f" + O({self.var}^{self.trunc})"


class USeries(_Univariate):
    """Truncated power series in one variable over Q(i)."""

    __slots__ = ()

    def __init__(self, var="w", trunc=16, terms=None):
        trunc = int(trunc)
        if terms and min(terms) < 0:
            raise StructureError("negative degree in USeries (use ULaurent)")
        self._set_terms((var,), (trunc,),
                        ((d, q) for d, q in terms.items() if d < trunc) if terms else ())

    __add__ = __radd__ = _Series._add
    __mul__ = __rmul__ = _Series._mul
    exp = _Series._exp
    pow_int = _Series._pow_int
    integral = _Series._antiderivative
    divide_monomial = _Series._divide_monomial

    @classmethod
    def zero(cls, var="w", trunc=16):
        return cls(var, trunc)

    @classmethod
    def constant(cls, q, var="w", trunc=16):
        return cls(var, trunc, {0: q})

    @classmethod
    def monomial(cls, deg, q=1, var="w", trunc=16):
        return cls(var, trunc, {deg: q})

    # -- inspection ----------------------------------------------------

    def equal_mod(self, other, n=None):
        """Coefficientwise equality up to degree n (default: common trunc)."""
        lim = min(self.trunc, other.trunc)
        if n is not None:
            lim = min(lim, n)
        return (self - other).truncate(lim).is_zero()

    def shift_up(self, n):
        """Multiply by var**n exactly (truncation grows with the shift)."""
        return USeries._raw(self.vars, (self.trunc + n,), _shift(self.coeffs, n), self.den)

    def is_real(self):
        return all(b == 0 for _, b in self.coeffs.values())

    def imag_part(self):
        return USeries._raw(self.vars, self.truncs,
                            {k: (b, 0) for k, (a, b) in self.coeffs.items() if b}, self.den)

    # -- analytic-style operations ---------------------------------------

    def invert_unit(self):
        """Multiplicative inverse; requires a nonzero constant term.

        Newton steps on a precision ladder: x is exact below lo, and the
        step to n = min(2 lo, trunc) sets x <- x - x e with e = s x - 1.
        As s x = 1 below lo, e is the middle product (s x)[lo, n)
        (``_middle_product``), so neither product visits a pair that
        lands below lo.  The result has the truncation of self.
        """
        c0 = self.constant_term()
        if c0.is_zero():
            raise DomainError("invert_unit: constant term is zero")
        inv = USeries.constant(1 / c0, self.var, 1)
        while inv.trunc < self.trunc:
            e = self._middle_product(inv, min(2 * inv.trunc, self.trunc))
            inv = inv.widen(e.trunc)
            inv = inv - inv * e
        return inv

    def _middle_product(self, x, n):
        """(self x) on the degrees [lo, n), for x of truncation lo <= n <= 2 lo.

        self splits at lo.  Its terms of degree in [lo, n) land at lo or
        above, and mul1 stops at n.  Below lo both factors are reversed,
        d -> lo - 1 - d: the degrees >= lo of their product become those
        below lo - 1, where mul1 stops, and degree r reads back at
        2 lo - 2 - r.  mul1 sees only nonnegative degrees.
        """
        lo = x.trunc
        high = {d: v for d, v in self.coeffs.items() if lo <= d < n}
        low = {lo - 1 - d: v for d, v in self.coeffs.items() if d < lo}
        rx = {lo - 1 - d: v for d, v in x.coeffs.items()}
        folded = {k: v for r, v in backend.mul1(low, rx, lo - 1).items()
                  if (k := 2 * lo - 2 - r) < n}
        cf = _merge_scaled(backend.mul1(high, x.coeffs, n), 1, folded, 1)
        return USeries._raw(self.vars, (n,), cf, self.den * x.den)

    def log(self):
        """log(self) as the integral of s'/s: one inversion, one product."""
        if self.constant_term() != GaussRational(1):
            raise DomainError("log: constant term must be 1")
        unit = self.truncate(max(self.trunc - 1, 1))     # s' is known below trunc - 1
        return (self.derivative() * unit.invert_unit()).integral()

    def pow_binomial(self, e):
        """(1 + t)**e = exp(e log(1 + t)) for exact rational e; constant term 1."""
        if self.constant_term() != GaussRational(1):
            raise DomainError("pow_binomial: constant term must be 1")
        return (self.log() * Fraction(e)).exp()

    def eval_at(self, t):
        """Composition self(t) for t of one or three variables.

        t must vanish at the origin and, in three variables, be divisible
        by the third (DomainError otherwise).  With v the valuation of t
        in w (one variable) or in the third variable (three), the result
        is exact on that axis below self.trunc * v, which is its
        truncation there; on the other axes it keeps t's box.
        """
        return _compose((self,), t)[0]


def _slice_sum(terms, like, div=1):
    """sum(s x y for s, x, y in terms) / div, for integers s and series x
    and y on the box of the series ``like``, as a series on that box:
    summed once over the lcm of the denominators, then reduced once."""
    lcm = math.lcm(*(x.den * y.den for _, x, y in terms))
    acc = {}
    for s, x, y in terms:
        s *= lcm // (x.den * y.den)
        for k, (a, b) in _product(x.coeffs, y.coeffs, like.truncs).items():
            cur = acc.get(k)
            if cur is None:
                acc[k] = (a * s, b * s)
            else:
                acc[k] = (cur[0] + a * s, cur[1] + b * s)
    for k in [k for k, v in acc.items() if not (v[0] or v[1])]:
        del acc[k]
    return like._raw(like.vars, like.truncs, acc, div * lcm)


def _slice_product(a, b, n):
    """Part n of a b from the parts a_0..a_n and b_0..b_n, series on one
    box, by ``_slice_sum``: the relaxed product, which reads no part past
    n.  Empty parts are skipped, and a square (a is b) takes each pair of
    distinct parts once, with weight 2."""
    if a is b:
        terms = [(2 - (2 * i == n), a[i], a[n - i]) for i in range(n // 2 + 1)]
    else:
        terms = [(1, x, y) for x, y in zip(a, b[n::-1])]
    return _slice_sum([t for t in terms if t[1].coeffs and t[2].coeffs], a[0])


def _join(parts, truncs):
    """The sum of the series ``parts`` on the box truncs, over the lcm of
    their denominators; the parts are disjoint.  Parts narrower than truncs
    in the first variable are its slices, and part n moves up by its n-th
    power."""
    lcm = math.lcm(*(p.den for p in parts))
    step = 1 << _FIELDS[len(truncs)][0][0] if parts[0].truncs[0] < truncs[0] else 0
    out = {}
    for n, p in enumerate(parts):
        s, shift = lcm // p.den, n * step
        out.update({k + shift: (a * s, b * s) for k, (a, b) in p.coeffs.items()})
    return parts[0]._raw(parts[0].vars, truncs, out, lcm)


def _exp_part(t, E, n):
    """The part E_n (n >= 1) of exp(t) from the parts t_1..t_n of t and
    E_0..E_(n-1), series on one box: n E_n = sum_j j t_j E_(n-j) (Brent &
    Kung).  It reads no part past n, so it also runs online."""
    return _slice_sum([(j, t[j], E[n - j]) for j in range(1, n + 1)
                       if t[j].coeffs and E[n - j].coeffs], E[0], n)


def _combine(base, terms, trunc, den=None):
    """base + sum(c * s for c, s in terms), inside the box trunc.

    One pass over integer pairs and one content normalization, where
    scaling, truncating and adding would normalize at every step.  A
    coefficient c is a scalar or, given ``den``, the Gaussian integer
    pair (a, b) standing for (a + b*i)/den.  The result is exact inside
    the meet of trunc, the box of base and the box of each s with
    c != 0, which is its box.
    """
    if den is None:
        parts = [(s, *_scalar_triple(c)) for c, s in terms if c]
    else:
        parts = [(s, a, b, den) for (a, b), s in terms if a or b]
    box = tuple(map(min, base._box(trunc), base.truncs))
    for s, *_ in parts:
        box = tuple(map(min, box, s.truncs))
    den = base.den
    for s, _, _, d in parts:
        den = math.lcm(den, s.den * d)
    m = den // base.den
    cf = base.coeffs if box == base.truncs else _cut(base.coeffs, box)
    out = {k: (a * m, b * m) for k, (a, b) in cf.items()}
    for s, ca, cb, d in parts:
        m = den // (s.den * d)
        ca, cb = ca * m, cb * m
        cf = s.coeffs if s.truncs == box else _cut(s.coeffs, box)
        for k, (a, b) in cf.items():
            re, im = a * ca - b * cb, a * cb + b * ca
            cur = out.get(k)
            if cur is not None:
                re, im = re + cur[0], im + cur[1]
            out[k] = (re, im)
    out = {k: v for k, v in out.items() if v[0] or v[1]}
    return base._raw(base.vars, box, out, den)


def _powers(t, top, table=None):
    """[1, t, t**2, ...] up to t**top, cut before the first power that vanishes.

    Given ``table``, a list that an earlier call returned for the same t,
    extends it in place and returns it.
    """
    if table is None:
        table = [t.ring_one()]
    while len(table) <= top:
        power = t if len(table) == 1 else table[-1] * t
        if power.is_zero():
            break
        table.append(power)
    return table


def _compose(series, t):
    """[s(t) for s in series], each by the contract of ``USeries.eval_at``.

    The series share one table of forward powers of t, up to the highest
    degree any of them stores; each s(t) is one linear combination of it.
    """
    axis = len(t.truncs) - 1
    v = min((key & MASK for key in t.coeffs) if axis else t.coeffs, default=None)
    if v == 0:
        raise DomainError("composition: the argument must vanish at the origin"
                          + (f" and be divisible by {t.vars[2]}" if axis else ""))

    def box(trunc):
        if v is None:
            return t.truncs
        return t.truncs[:axis] + (min(t.truncs[axis], trunc * v),)

    t = t.truncate(box(max(s.trunc for s in series)))
    zero = t._raw(t.vars, t.truncs, {}, 1)
    powers = _powers(t, max((max(s.coeffs) for s in series if s.coeffs), default=0))
    return [_combine(zero, [(c, powers[d]) for d, c in s.coeffs.items()
                            if d < len(powers)], box(s.trunc), s.den)
            for s in series]


def _term_str(d, q, var):
    if d == 0:
        return str(q) if not (q.re and q.im) else f"({q})"
    mono = var if d == 1 else f"{var}^{d}"
    if q == GaussRational(1):
        return mono
    if q == GaussRational(-1):
        return f"-{mono}"
    return f"{q.as_factor_str()}*{mono}"


class ULaurent(_Univariate):
    """Truncated Laurent series in one variable over Q(i).

    Keys are the degrees themselves, negative ones included, and
    ``trunc`` is absolute: the series is exact below var**trunc.
    ``pole`` is max(0, -order) and ``body`` the power series
    var**pole * self.  A product is exact below min(t1 - p2, t2 - p1),
    with t each factor's truncation and p its pole.
    """

    __slots__ = ()

    def __init__(self, body: USeries, pole: int = 0):
        """body / var**pole."""
        self.vars, self.truncs, self.den = body.vars, (body.trunc - pole,), body.den
        self.coeffs = _shift(body.coeffs, -pole)

    __add__ = __radd__ = _Series._add

    @classmethod
    def zero(cls, var="w", trunc=16):
        return cls(USeries.zero(var, trunc))

    @classmethod
    def monomial(cls, deg, q=1, var="w", trunc=16):
        """q var**deg, exact below var**(trunc + min(deg, 0))."""
        return cls(USeries.monomial(max(deg, 0), q, var, trunc), max(-deg, 0))

    pole = property(lambda self: max(0, -min(self.coeffs, default=0)))

    @property
    def body(self):
        p = self.pole
        return USeries._raw(self.vars, (self.trunc + p,), _shift(self.coeffs, p), self.den)

    def __mul__(self, other):
        if type(other) is not ULaurent:
            return self._mul(other)                 # a scalar, or NotImplemented
        self._check(other)
        p1, p2 = self.pole, other.pole
        trunc = min(self.trunc - p2, other.trunc - p1)
        # the kernel sees the bodies: no negative degree
        cf = _product(_shift(self.coeffs, p1), _shift(other.coeffs, p2), (trunc + p1 + p2,))
        return self._raw(self.vars, (trunc,), _shift(cf, -p1 - p2), self.den * other.den)

    __rmul__ = __mul__

    def invert(self):
        """1/self, exact below trunc - 2v for v the order of self."""
        if self.is_zero():
            raise DomainError("cannot invert the zero Laurent series")
        v = self.order()
        unit = USeries._raw(self.vars, (self.trunc - v,), _shift(self.coeffs, -v), self.den)
        return ULaurent(unit.invert_unit(), v)

    def pow_int(self, n):
        return self.invert()._pow_int(-n) if n < 0 else self._pow_int(n)


class TriSeries(_Series):
    """Truncated series in three variables over Q(i).

    The first variable is the distinguished "ODE variable" (derivative
    and Cauchy-problem axis); the second and third act as parameters.
    Exponent triples are packed into single integers (see pack/unpack).
    """

    __slots__ = ()

    def __init__(self, vars=("z", "xi", "eta"), truncs=(6, 6, 12), terms=None):
        vars = tuple(vars)
        truncs = _checked_truncs(tuple(int(t) for t in truncs))
        if len(vars) != 3 or len(truncs) != 3:
            raise StructureError("TriSeries needs exactly three variables")
        if terms and min(map(min, terms)) < 0:
            raise StructureError("negative exponent in TriSeries")
        tz, tx, te = truncs
        self._set_terms(vars, truncs,
                        ((pack(k, l, j), q) for (k, l, j), q in (terms or {}).items()
                         if k < tz and l < tx and j < te))

    __add__ = __radd__ = _Series._add
    __mul__ = __rmul__ = _Series._mul
    exp = _Series._exp
    pow_int = _Series._pow_int
    integral = _Series._antiderivative
    divide_monomial = _Series._divide_monomial

    @classmethod
    def zero(cls, vars=("z", "xi", "eta"), truncs=(6, 6, 12)):
        return cls(vars, truncs)

    @classmethod
    def monomial(cls, k, l, j, q=1, vars=("z", "xi", "eta"), truncs=(6, 6, 12)):
        return cls(vars, truncs, {(k, l, j): q})

    # -- inspection ----------------------------------------------------

    def coeff(self, k, l, j) -> GaussRational:
        """The coefficient of z^k xi^l eta^j; 0 outside the box."""
        tz, tx, te = self.truncs
        if 0 <= k < tz and 0 <= l < tx and 0 <= j < te:
            return _gauss(self.coeffs.get(pack(k, l, j)), self.den)
        return GaussRational(0)

    def terms(self):
        for key in sorted(self.coeffs):
            yield unpack(key), _gauss(self.coeffs[key], self.den)

    def exponents(self):
        """The exponent triples of ``terms()``, without their coefficients."""
        return map(unpack, sorted(self.coeffs))

    def total_degree_cap(self):
        return sum(t - 1 for t in self.truncs)

    def mul_monomial(self, k, l, j):
        """Ring multiplication by a monomial (truncations unchanged).

        A monomial outside the box is zero; inside it, the packed sum
        of a key and the shift carries into no axis.
        """
        tz, tx, te = self.truncs
        if k >= tz or l >= tx or j >= te:
            return self._raw(self.vars, self.truncs, {}, 1)
        shift = pack(k, l, j)
        cf = _cut({key + shift: v for key, v in self.coeffs.items()}, self.truncs)
        return self._raw(self.vars, self.truncs, cf, self.den)

    def swap_zx(self):
        """Exchange the exponents and truncations of the first two variables;
        the names stay, so the result reads self with its first two
        arguments swapped."""
        cf = {}
        for key, v in self.coeffs.items():
            k, l, j = unpack(key)
            cf[pack(l, k, j)] = v
        tz, tx, te = self.truncs
        return self._raw(self.vars, (tx, tz, te), cf, self.den)

    def relabel(self, vars):
        return self._raw(tuple(vars), self.truncs, self.coeffs, self.den)

    # -- composition ------------------------------------------------------

    def subst_eta(self, t: "TriSeries"):
        """Substitute t for the third variable, on the meet of the two boxes.

        Evaluates sum_j c_j(z, xi) t^j by Horner, acc_j = c_j + t acc_(j+1).
        t must be divisible by the third variable (DomainError otherwise),
        so only acc_j modulo eta^(te - j) reaches the meet's eta^te: step j
        multiplies on that box, widening acc_(j+1), whose unknown terms t
        moves past it.
        """
        if len(t.vars) != 3:
            raise StructureError("subst_eta target must be trivariate")
        if any(not key & MASK for key in t.coeffs):
            raise DomainError(f"subst_eta: substitute must be divisible by {t.vars[2]}")
        tz, tx, te = truncs = tuple(map(min, self.truncs, t.truncs))
        buckets = {}
        for key, v in _cut(self.coeffs, truncs).items():
            j = key & MASK
            buckets.setdefault(j, {})[key - j] = v
        top = max(buckets, default=0)
        for j in range(top, -1, -1):
            box = (tz, tx, te - j)
            cj = TriSeries._raw(t.vars, box, buckets.get(j, {}), self.den)
            acc = cj if j == top else cj + t.truncate(box) * acc.widen(box)
        return acc

    # -- slices -------------------------------------------------------------

    def slice_eta(self, k, l, var="w"):
        """The (k, l) slice as a univariate series in the third variable."""
        cf = {}
        for key, v in self.coeffs.items():
            kk, ll, j = unpack(key)
            if kk == k and ll == l:
                cf[j] = v
        return USeries._raw((var,), (self.truncs[2],), cf, self.den)

    def invert_unit(self):
        c0 = self.constant_term()
        if c0.is_zero():
            raise DomainError("invert_unit: constant term is zero")
        inv = self._const(1 / c0)
        for _ in range(self.total_degree_cap().bit_length()):   # 2^k > the cap
            inv = inv * (2 - self * inv)
        return inv

    def __repr__(self):
        items = list(self.terms())
        parts = []
        for (k, l, j), q in items[:14]:
            mono = "*".join(
                (v if e == 1 else f"{v}^{e}")
                for v, e in zip(self.vars, (k, l, j)) if e
            )
            parts.append(q.as_factor_str() + ("*" + mono if mono else ""))
        body = " + ".join(parts) if parts else "0"
        if len(items) > 14:
            body += " + ..."
        return f"<TriSeries {body} ; truncs={self.truncs}>"
