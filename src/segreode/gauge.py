"""Formal machinery for the linear one-parameter family at order four.

Covers the first-order system form, degreewise Poincare-Dulac
normalization (irregular and Fuchsian flavors), the formal fundamental
pair (fhat, ghat), the scalar gauge built from it, exact transport of
linear ODEs under gauge maps, Riccati witnesses, the divergence
certificate for the unique formal solution, monodromy classification
through the Fuchsian point at infinity, and the coupled companion
gauge.

The formal pair comes from the coefficient recurrence of fhat and a
conjugation (ghat = w conj(fhat) for real gamma); the recurrence and
the divergence certificate run on Gaussian-integer numerators over one
known denominator.  Poincare-Dulac decides the monodromy at the
resonance order of the Fuchsian point at infinity, the largest integer
gap between its residue eigenvalues, and serves the normal-form checks
to any order.  The companion of a gauge (f, g) is
g' (1/f) (w/g)^m in closed form, and the pushforward solves the
chain rule on the w-side and reverts g alone, so nothing in the package
inverts a gauge.  A gauge keeps 1/f and w/g once built, and the
straightening gauge is given 1/f = fhat, so no series of a gauge chain
is inverted twice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import record
from .errors import DomainError, InternalInconsistencyError, PrecisionError, StructureError
from .odes import P0Ode
from .scalars import GaussRational, gauss_sqrt_exact
from .segre import RealStructureData, build_real
from .series import ULaurent, USeries, _combine, _compose, _scalar_triple


class Mat2:
    """2x2 matrix of USeries sharing variable and truncation."""

    __slots__ = ("a",)

    def __init__(self, rows):
        self.a = tuple(tuple(r) for r in rows)
        if len(self.a) != 2 or any(len(r) != 2 for r in self.a):
            raise StructureError("Mat2 needs 2x2 entries")

    @classmethod
    def identity(cls, var="w", trunc=16):
        one = USeries.constant(1, var, trunc)
        zero = USeries.zero(var, trunc)
        return cls(((one, zero), (zero, one)))

    def __getitem__(self, ij):
        return self.a[ij[0]][ij[1]]

    def __add__(self, other):
        return Mat2(tuple(tuple(self.a[i][j] + other.a[i][j] for j in range(2))
                          for i in range(2)))

    def __sub__(self, other):
        return Mat2(tuple(tuple(self.a[i][j] - other.a[i][j] for j in range(2))
                          for i in range(2)))

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(tuple(
                tuple(sum((self.a[i][k] * other.a[k][j] for k in range(2)),
                          start=self.a[i][0] * 0) for j in range(2))
                for i in range(2)))
        return Mat2(tuple(tuple(self.a[i][j] * other for j in range(2))
                          for i in range(2)))

    def map(self, fn):
        return Mat2(tuple(tuple(fn(e) for e in row) for row in self.a))

    def derivative(self):
        return self.map(lambda e: e.derivative())

    def truncate(self, n):
        return self.map(lambda e: e.truncate(n))

    def coeff_matrix(self, k):
        """Degree-k coefficients as a 2x2 tuple of GaussRational."""
        return tuple(tuple(self.a[i][j].coeff(k) for j in range(2))
                     for i in range(2))

    def is_zero(self):
        return all(e.is_zero() for row in self.a for e in row)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.a == other.a

    __hash__ = None

    def __repr__(self):
        return f"Mat2({self.a[0][0]!r}, {self.a[0][1]!r}; {self.a[1][0]!r}, {self.a[1][1]!r})"


@record
class LinSystem:
    """First-order system y' = w^(-pole) A(w) y."""

    pole: int
    A: Mat2

    @property
    def var(self):
        return self.A[0, 0].var

    @property
    def trunc(self):
        return min(e.trunc for row in self.A.a for e in row)

    def max_degree(self):
        degs = [max(e.coeffs, default=-1) for row in self.A.a for e in row]
        return max(degs)

    def normalized(self) -> "LinSystem":
        """Divide common w-powers out of the matrix to minimize the pole."""
        orders = [e.order() for row in self.A.a for e in row if not e.is_zero()]
        if not orders:
            return LinSystem(1, self.A)
        d = min(min(orders), self.pole - 1)
        if d <= 0:
            return self
        return LinSystem(self.pole - d, self.A.map(lambda e: e.divide_monomial(d)))


def to_system(ode: P0Ode) -> LinSystem:
    """Rewrite a linear sextuple as a first-order system via u = z' w^(m-1).

    The raw matrix is assembled at pole m+1 and then pole-minimized;
    for the order-four family this lands on pole 4 with the cubic
    matrix polynomial A0 + A1 w + A3 w^3.
    """
    if not ode.is_linear():
        raise DomainError("to_system expects a linear sextuple (A=C=D=F=0)")
    m, trunc, var = ode.m, ode.trunc, ode.var
    zero = USeries.zero(var, trunc)
    w2 = USeries.monomial(2, 1, var, trunc)
    lower_right = (ode.B.shift_up(1) + USeries.monomial(m, m - 1, var, trunc + 1)
                   ).truncate(trunc)
    raw = Mat2(((zero, w2), (ode.E, lower_right)))
    return LinSystem(m + 1, raw).normalized()


@record
class PDStep:
    kind: str          # "offdiag" | "diag"
    target_degree: int
    order: int         # degree of the elementary gauge factor
    matrix: tuple      # 2x2 GaussRational entries of the factor


@record
class PDResult:
    normal_form: LinSystem
    gauge: Mat2
    steps: tuple
    residues: tuple        # (degree, (d1, d2)) diagonal terms kept for k < pole
    obstructions: tuple    # Fuchsian resonant entries that could not be removed
    order: int


def poincare_dulac(sys: LinSystem, order: int) -> PDResult:
    """Degreewise normalization y = H(w) ynew with H(0) = I.

    Nonresonant irregular case (pole >= 2, distinct leading
    eigenvalues): off-diagonal degree-k terms die through the
    homological equation [A0, H_k] = -B_k; diagonal terms of degree
    k >= pole die through a lagged diagonal factor of order k-pole+1
    whose derivative term lands at degree k.  Degrees below the pole
    keep their diagonal parts: those are the formal residues.

    Fuchsian case (pole = 1): the derivative term acts at the same
    degree, the solvability divisor becomes lambda_i - lambda_j - k,
    and integer eigenvalue differences produce genuine resonances;
    nonzero resonant entries are reported as obstructions and left in
    the normal form.

    Each factor T = I + H w^k has a constant H: ``_apply_factor``
    multiplies by T as X + (X H) w^k and inverts T by Cayley-Hamilton,
    which leaves one division by a quadratic in w^k.  The matrix is
    carried to degree ``order`` only, since no step reads past it; the
    gauge keeps the system's truncation.
    """
    lead = sys.A.coeff_matrix(0)
    if lead[0][1] or lead[1][0]:
        raise DomainError("leading matrix must be diagonal (diagonalize first)")
    lam = (lead[0][0], lead[1][1])
    p = sys.pole
    if p >= 2 and lam[0] == lam[1]:
        raise DomainError("irregular case needs distinct leading eigenvalues")

    var, trunc = sys.var, sys.trunc
    cur = sys.A.truncate(min(trunc, order + 1))
    gauge = Mat2.identity(var, trunc)
    steps, residues, obstructions = [], [], []

    for k in range(1, order + 1):
        B = cur.coeff_matrix(k)
        H = [[GaussRational(0), GaussRational(0)], [GaussRational(0), GaussRational(0)]]
        # off-diagonal (and, in the Fuchsian case, diagonal) homological solve
        for i in range(2):
            for j in range(2):
                div = lam[i] - lam[j] - (k if p == 1 else 0)
                if i == j and p != 1:
                    continue
                if div.is_zero():
                    if not B[i][j].is_zero():
                        obstructions.append((k, (i, j), B[i][j]))
                    continue
                H[i][j] = -B[i][j] / div
        if any(H[i][j] for i in range(2) for j in range(2)):
            cur, gauge = _apply_factor(cur, gauge, H, k, p, trunc)
            steps.append(PDStep("offdiag" if p != 1 else "fuchsian", k, k,
                                tuple(tuple(r) for r in H)))
        if p >= 2:
            B = cur.coeff_matrix(k)
            diag = (B[0][0], B[1][1])
            if k >= p:
                if diag[0] or diag[1]:
                    jord = k - p + 1
                    S = [[diag[0] / jord, GaussRational(0)],
                         [GaussRational(0), diag[1] / jord]]
                    cur, gauge = _apply_factor(cur, gauge, S, jord, p, trunc)
                    steps.append(PDStep("diag", k, jord, tuple(tuple(r) for r in S)))
            elif diag[0] or diag[1]:
                residues.append((k, diag))

    nf = LinSystem(p, cur)
    return PDResult(nf, gauge, tuple(steps), tuple(residues),
                    tuple(obstructions), order)


def _apply_factor(cur, gauge, H, k, pole, trunc):
    """Conjugate by T = I + H w^k:  cur <- T^-1 (cur T - w^pole T').

    H is a constant matrix, so T needs no series product.  Right
    multiplication is X T = X + (X H) w^k, and w^pole T' = k H w^(k+pole-1).
    Cayley-Hamilton (H^2 = tr H * H - det H * I) inverts T in closed form:
    T^-1 = ((1 + tr H w^k) I - H w^k) / q with
    q = 1 + tr H w^k + det H w^(2k); dividing by q is one ``invert_unit``
    and a product per entry (none when q = 1).  Each result entry is
    exact below the smaller of ``trunc`` and its matrix's truncation.
    """
    var = cur.a[0][0].var
    wp = USeries.monomial(k + pole - 1, 1, var, trunc + k)

    def right_mul(X, i, j, *extra):
        """Entry (i, j) of X T = X + (X H) w^k, plus the extra terms."""
        return _combine(X[i][j], [(H[0][j], X[i][0].shift_up(k)),
                                  (H[1][j], X[i][1].shift_up(k)), *extra], trunc)

    # Y = cur T - w^pole T'
    Y = [[right_mul(cur.a, i, j, (-k * H[i][j], wp)) for j in range(2)] for i in range(2)]
    tr = H[0][0] + H[1][1]
    det = H[0][0] * H[1][1] - H[0][1] * H[1][0]
    Yk = [[e.shift_up(k) for e in row] for row in Y]
    new = [[_combine(Y[i][j], [(tr, Yk[i][j]), (-H[i][0], Yk[0][j]),
                               (-H[i][1], Yk[1][j])], trunc)
            for j in range(2)] for i in range(2)]
    if tr or det:
        n = max(e.trunc for row in new for e in row)
        qinv = USeries(var, n, {0: 1, k: tr, 2 * k: det}).invert_unit()
        new = [[e * qinv for e in row] for row in new]
    return Mat2(new), Mat2([[right_mul(gauge.a, i, j) for j in range(2)] for i in range(2)])


def _as_gauss(gamma):
    return gamma if isinstance(gamma, GaussRational) else GaussRational(Fraction(gamma))


def linear_family(gamma, trunc=20) -> P0Ode:
    """The one-parameter linear sextuple (a, b, c) = (1, gamma*w^4, 0), m = 4."""
    g = _as_gauss(gamma)
    if not g.is_real():
        raise DomainError("family parameter must be real")
    return build_real(RealStructureData(a=USeries.constant(1, "w", trunc),
                                        b=USeries.monomial(4, g, "w", trunc),
                                        c=USeries.zero("w", trunc), m=4))


def _formal_numerators(g, count):
    """(b, q): the integer numerators b_n of the formal solution, n < count.

    See ``formal_solution_coeffs``; b_n is the Gaussian integer
    a_n (2i)^n n! q^n, kept as an (re, im) pair of ints.
    """
    pr, pi, q = _scalar_triple(g)
    c = -4 * q ** 3
    b = [(1, 0)]
    for n in range(count - 1):
        x, y = b[n]
        re, im = pi * y - pr * x, -pr * y - pi * x
        if n >= 3:
            s = c * (n + 1) * n * (n - 1) * (n - 2)
            u, v = b[n - 2]
            re, im = re + s * u, im + s * v
        b.append((re, im))
    return b, q


def formal_solution_coeffs(gamma, count):
    """Exact coefficients of the unique formal solution with value 1.

    a_{n+1} = [(n-2)(n+1) a_{n-2} - gamma a_n] / (2i(n+1)), seeded
    a_0 = 1; this is the order-by-order substitution of a power series
    into the order-four linear family.  ``count`` below 2 still returns
    [1].

    The recurrence runs on integers.  Write gamma = p/q with p a
    Gaussian integer and q >= 1 the lcm of the two denominators, and
    substitute a_n = b_n / ((2i)^n n! q^n).  Multiplying through by
    (2i)^(n+1) (n+1)! q^(n+1) gives

        b_{n+1} = -4 q^3 (n+1) n (n-1) (n-2) b_{n-2} - p b_n,  b_0 = 1,

    Gaussian-integer arithmetic with no gcd.  Each coefficient is read
    off once as a_n = b_n (-i)^n / (2^n n! q^n).
    """
    b, q = _formal_numerators(_as_gauss(gamma), count)
    return _coeffs_from_numerators(b, q)


def _coeffs_from_numerators(b, q):
    """[a_n = b_n (-i)^n / (2^n n! q^n)] as GaussRationals."""
    out, den = [], 1
    for n, (x, y) in enumerate(b):
        if n:
            den *= 2 * n * q
        re, im = ((x, y), (y, -x), (-x, -y), (-y, x))[n & 3]     # b_n (-i)^n
        out.append(GaussRational(Fraction(re, den), Fraction(im, den)))
    return out


def formal_fundamental(gamma, order):
    """(fhat, ghat): the formal solution pair of the order-four family.

    fhat is the unique power-series solution with fhat(0) = 1, from the
    coefficient recurrence.  ghat = w conj(fhat), so that
    ghat * w^-1 * exp(-2i/(3w^3)) completes the formal fundamental
    system.  Both are carried to truncation ``order``.

    Derivation: the family is w^4 z'' = (2i - 4w^3) z' + gamma z.  Put
    z = u E with E = exp(-2i/(3w^3)), so E' = 2i w^-4 E and
    E'' = (-8i w^-5 - 4 w^-8) E.  Then w^4 z'' = (w^4 u'' + 4i u'
    - (8i w^-1 + 4 w^-4) u) E and (2i - 4w^3) z' + gamma z =
    ((2i - 4w^3) u' - (8i w^-1 + 4 w^-4) u + gamma u) E; the pole
    terms cancel and w^4 u'' + (2i + 4w^3) u' - gamma u = 0 remains.
    That is the equation of fhat with i replaced by -i, so for real
    gamma its power-series solution with u(0) = 1 is conj(fhat), and
    the matching solution of the family is u E = (w conj(fhat)) w^-1 E.
    The entry (0, 1) of the Poincare-Dulac gauge, made monic, is the
    same series; here it costs O(order) scalar work.
    """
    g = _as_gauss(gamma)
    if not g.is_real():
        raise DomainError("family parameter must be real")
    fhat = USeries("w", order, dict(enumerate(formal_solution_coeffs(g, order))))
    return fhat, fhat.conjugate().shift_up(1).truncate(order)


@record
class ScalarGauge:
    """(z, w) -> (z f(w), g(w)) with f a unit and g a coordinate change; the
    inverses ``inv_f`` and ``w_over_g`` and the ``chain_terms`` are built on
    first use and kept with it."""

    f: USeries
    g: USeries

    def __post_init__(self):
        if self.f.constant_term().is_zero():
            raise DomainError("gauge factor f must be a unit")
        if not self.g.constant_term().is_zero() or self.g.coeff(1).is_zero():
            raise DomainError("gauge map g must fix 0 with nonzero slope")

    @classmethod
    def identity(cls, var="w", trunc=16):
        return cls(USeries.constant(1, var, trunc), USeries.monomial(1, 1, var, trunc))

    @cached_property
    def inv_f(self):
        """1/f; ``gauge_chi_tau`` hands over the fhat it inverted instead."""
        return self.f.invert_unit()

    @cached_property
    def w_over_g(self):
        """w/g, exact below g.trunc - 1: 1/g as a Laurent series for the
        pullback, and (w/g)^m for the companion."""
        return self.g.divide_monomial(1).invert_unit()

    @cached_property
    def chain_terms(self):
        """(g', 1/g', f'/f, g''/g', f''/f) as Laurent series: one inversion,
        of g', per gauge, whichever way it transports."""
        fp, gp = self.f.derivative(), self.g.derivative()
        finv, gpinv = self.inv_f, gp.invert_unit()
        return (ULaurent(gp), ULaurent(gpinv), ULaurent(fp * finv),
                ULaurent(gp.derivative() * gpinv), ULaurent(fp.derivative() * finv))


def reversion(g: USeries) -> USeries:
    """Compositional inverse of g = c w + ... with c != 0, by Newton steps.

    The result is w/c, with truncation g.trunc, when g is exactly linear.
    Otherwise it is exact below g.trunc - 1, which is its truncation.
    The steps h <- h - (g(h) - w) h' run on a precision ladder, and their
    slope 1/g'(h) is the derivative of the current iterate: h(g) = w gives
    h' = 1/g'(h), so no step composes g' or inverts a series.  If h is
    exact below lo (lo = 2 for w/c), g(h) - w starts at degree lo and h' is
    exact below lo - 1, so one step makes h exact below
    n = min(2 lo - 1, g.trunc - 1) and only needs h' below n - lo.
    """
    c = g.coeff(1)
    if not g.constant_term().is_zero() or c.is_zero():
        raise DomainError("reversion needs g(0) = 0 and g'(0) != 0")
    if all(d <= 1 for d in g.coeffs):
        return USeries.monomial(1, 1 / c, g.var, g.trunc)
    top = g.trunc - 1
    n = 2
    h = USeries.monomial(1, 1 / c, g.var, n)
    while n < top:
        lo, n = n, min(2 * n - 1, top)
        slope = h.derivative().truncate(n - lo)
        h = h.widen(n)
        err = g.truncate(n).eval_at(h) - USeries.monomial(1, 1, g.var, n)
        h = h - (err.divide_monomial(lo) * slope).shift_up(lo)
    return h


def gauge_chi_tau(fhat: USeries, ghat: USeries) -> ScalarGauge:
    """The straightening gauge (chi, tau) built from the fundamental pair.

    chi = 1/fhat and tau = w (1 - (3/2i) w^3 log(ghat/(w fhat)))^(-1/3),
    principal branch; the output lies in the class with g = w + O(w^5).
    The pair must be related as ``formal_fundamental`` returns it,
    ghat = w conj(fhat) on their common box, or DomainError is raised.
    Then log(ghat/(w fhat)) = conj(L) - L with L = log fhat, the integral
    of fhat' chi, and no quotient is inverted.  The gauge keeps fhat as
    its ``inv_f``.
    """
    if fhat.constant_term() != GaussRational(1):
        raise DomainError("fhat must have constant term 1")
    if not ghat.constant_term().is_zero() or ghat.coeff(1) != GaussRational(1):
        raise DomainError("ghat must be w + O(w^2)")
    if not (ghat - fhat.conjugate().shift_up(1)).is_zero():
        raise DomainError("ghat must be w conj(fhat)")
    chi = fhat.invert_unit()
    n = min(ghat.trunc - 1, chi.trunc)          # ghat/(w fhat) is known below n
    L = (fhat.derivative().truncate(n - 1) * chi).integral()
    arg = 1 + ((L.conjugate() - L) * GaussRational(0, Fraction(3, 2))).shift_up(3)
    tau = arg.truncate(arg.trunc - 1).pow_binomial(Fraction(-1, 3)).shift_up(1)
    tau = tau.truncate(min(tau.trunc, chi.trunc + 1))
    gauge = ScalarGauge(chi, tau)
    gauge.__dict__["inv_f"] = fhat
    return gauge


@record
class TransformedOde:
    """z'' = P z' + Q z carried back through a gauge, plus residual data."""

    P: ULaurent
    Q: ULaurent
    residual_P: ULaurent = None
    residual_Q: ULaurent = None

    def matches_target(self):
        if self.residual_P is None:
            return None
        return self.residual_P.is_zero() and self.residual_Q.is_zero()

    def residual_order(self):
        if self.residual_P is None:
            return None
        orders = [r.order() for r in (self.residual_P, self.residual_Q)
                  if r.order() is not None]
        return min(orders) if orders else None


def transform_ode_by_gauge(ode: P0Ode, gauge: ScalarGauge, target: P0Ode = None,
                           direction: str = "pullback") -> TransformedOde:
    """Exact chain-rule transport of a linear ODE along (z,w) -> (zf, g).

    ``pullback``: ode lives in the image coordinates; the result is the
    ODE its solutions satisfy upstream.  ``pushforward`` transports the
    ODE downstream.  With a target supplied, coefficientwise residuals
    are attached.

    Derivation: if Z(W) solves Z'' = P~ Z' + Q~ Z, then z = Z(g)/f
    solves z'' = P z' + Q z with

        P = g' (P~ o g) + g''/g' - 2 f'/f,
        Q = g'^2 (Q~ o g) + g' (P~ o g) f'/f + (f'/f)(g''/g') - f''/f.

    The pullback reads (P, Q) off (P~, Q~) = ode.  The pushforward
    solves the same two equations on the w-side,

        P~ o g = (P + 2 f'/f - g''/g') / g',
        Q~ o g = (Q + f''/f - (f'/f)(g''/g') - g' (P~ o g) f'/f) / g'^2,

    where g' (P~ o g) = P + 2 f'/f - g''/g' folds the numerator of
    Q~ o g to Q + f''/f - (f'/f)(P + 2 f'/f).  It then composes both
    with h = reversion(g) through one shared composition: one
    reversion, and no f o h to invert.  Both directions read g', 1/g',
    f'/f, g''/g' and f''/f from ``gauge.chain_terms``, built once per
    gauge, and the pullback divides by powers of g through the gauge's
    ``w_over_g``.
    """
    if direction not in ("pullback", "pushforward"):
        raise DomainError("direction must be 'pullback' or 'pushforward'")
    if not ode.is_linear():
        raise DomainError("gauge transport implemented for linear sextuples")
    P, Q = ode.first_order_coeffs()
    gpL, gpinvL, lf, lg, lff = gauge.chain_terms
    if direction == "pullback":
        Pg, Qg = _compose_laurent((P, Q), gauge.g, gauge.w_over_g)
        Pnew = lf * (-2) + lg + gpL * Pg
        Qnew = lff * (-1) + lf * lg + gpL * Pg * lf + gpL * gpL * Qg
    else:
        P2lf = P + lf * 2
        Pg = (P2lf - lg) * gpinvL
        Qg = (Q + lff - lf * P2lf) * gpinvL * gpinvL
        Pnew, Qnew = _compose_laurent((Pg, Qg), reversion(gauge.g))
    rP = rQ = None
    if target is not None:
        tP, tQ = target.first_order_coeffs()
        rP = Pnew - tP
        rQ = Qnew - tQ
    return TransformedOde(Pnew, Qnew, rP, rQ)


def _compose_laurent(laurents, g, w_over_g=None):
    """[L(g) for L in laurents] for g = (unit) * w: body(g) / g^pole each.

    The bodies share one composition (one power table of g).  1/g is
    (w/g) / w, with w/g given or inverted here once, and each distinct
    pole takes one power of it.
    """
    bodies = _compose([L.body for L in laurents], g)
    poles = {L.pole for L in laurents if L.pole}
    if poles:
        if w_over_g is None:
            w_over_g = g.divide_monomial(1).invert_unit()
        ginv = ULaurent(w_over_g, 1)
        scale = {p: ginv.pow_int(p) for p in poles}
    return [ULaurent(b) * scale[L.pole] if L.pole else ULaurent(b)
            for L, b in zip(laurents, bodies)]


@record
class RiccatiReport:
    ok: bool
    residual: ULaurent


def riccati_check(ode: P0Ode, p: ULaurent) -> RiccatiReport:
    """Does z with z'/z = p solve the linear ODE?  Exact Riccati residual.

    residual = P p + Q - p' - p^2, zero iff exp(integral of p) is a
    formal solution of z'' = P z' + Q z.
    """
    if not ode.is_linear():
        raise DomainError("riccati_check expects a linear sextuple")
    P, Q = ode.first_order_coeffs()
    residual = P * p + Q - p.derivative() - p * p
    return RiccatiReport(residual.is_zero(), residual)


@record
class DivergenceReport:
    gamma: GaussRational
    coeffs: tuple
    k_onset: int
    certificate_ok: bool
    first_violation: int
    min_margin: Fraction    # min of |a_{k+3}|^2 * 16 / (k^2 |a_k|^2), k >= onset
    min_margin_k: int       # the least k where min_margin is reached; -1 if none

    def table(self, upto=12):
        return [(k, str(a)) for k, a in enumerate(self.coeffs[:upto])]

    def min_margin_at_least(self):
        """floor(min_margin * 2^32) / 2^32: an exact lower bound of the
        least margin whose denominator divides 2^32, short enough to
        print where min_margin itself has thousands of digits."""
        m = self.min_margin
        return Fraction((m.numerator << 32) // m.denominator, 1 << 32)


def divergence_report(gamma, count=60, k_onset=10) -> DivergenceReport:
    """Exact factorial-growth certificate for the formal solution.

    Runs the coefficient recurrence to ``count`` terms and checks
    |a_{k+3}| / |a_k| >= k/4 for every k >= k_onset with a_k != 0, as
    exact squared-modulus comparisons.  A pass witnesses that the
    series has zero radius of convergence.  The test is sufficient
    only: the dominant term of the recurrence drives the ratio like k/2
    for large k, but the lower-order terms can push single ratios below
    k/4 past the onset, and then the certificate fails and shows
    nothing.  With the default onset 10 it fails for gamma = -3 and -6
    at 60 terms and for gamma = -5 at 200 terms.  The onset must leave
    at least one ratio to check: 1 <= k_onset < count - 2.

    The margins are integer ratios of the numerators b_n of
    ``formal_solution_coeffs``: with a_n = b_n (-i)^n / (2^n n! q^n),

        16 |a_{k+3}|^2 / (k^2 |a_k|^2)
            = |b_{k+3}|^2 / (2k(k+1)(k+2)(k+3) q^3 |b_k|)^2,

    so "margin < 1" compares two integers, the minimum is found by
    cross-multiplication, and ``min_margin`` is one Fraction at the end.
    Its numerator grows with the order (about 24,000 bits at 1,000
    terms), so reports print ``min_margin_k`` and
    ``min_margin_at_least()`` instead.
    """
    g = _as_gauss(gamma)
    if g.is_zero():
        raise DomainError("the parameter-zero family has the constant solution;"
                          " nothing diverges")
    if count < 12:
        raise DomainError("need at least 12 coefficients for the certificate")
    if not 1 <= k_onset < count - 2:
        # an empty range of k would check nothing and pass
        raise DomainError(f"onset must lie in [1, {count - 3}] for {count} terms,"
                          f" got {k_onset}")
    b, q = _formal_numerators(g, count + 1)
    norm2 = [x * x + y * y for x, y in b]
    q3 = q ** 3
    first_violation = best_k = -1
    best = None                 # (numerator, denominator) of the least margin
    for k in range(k_onset, count - 2):
        if not norm2[k]:
            continue
        num = norm2[k + 3]
        den = (2 * k * (k + 1) * (k + 2) * (k + 3) * q3) ** 2 * norm2[k]
        if best is None or num * best[1] < best[0] * den:
            best, best_k = (num, den), k
        if num < den and first_violation < 0:
            first_violation = k
    return DivergenceReport(g, tuple(_coeffs_from_numerators(b, q)), k_onset,
                            first_violation < 0, first_violation,
                            Fraction(*best) if best is not None else Fraction(0), best_k)


@record
class MonodromyReport:
    residue: tuple
    eigenvalues: tuple
    system: LinSystem       # t y' = M(t) y with M(0) = diag(eigenvalues)
    obstructions: tuple
    trivial: bool
    order: int              # the resonance order the verdict is decided at


def monodromy_at_infinity(sys: LinSystem) -> MonodromyReport:
    """Classify the monodromy through the Fuchsian point w = infinity.

    Substituting t = 1/w turns a pole-p system with matrix polynomial
    A_0 + ... + A_{p-1} w^(p-1) into t y' = M(t) y with
    M = -sum_k A_k t^(p-1-k) and residue R = M(0) = -A_{p-1}.  R is
    diagonalized exactly to diag(lam1, lam2); that conjugate of M is the
    report's ``system``.

    Poincare-Dulac at a Fuchsian point (Ilyashenko and Yakovenko,
    *Lectures on Analytic Differential Equations*, section 16): a term
    of degree k >= 1 is removed by a constant gauge I + H t^k unless k
    is a positive integer difference lam_i - lam_j, and the normalizing
    gauge converges.  So the normal form is decided at the resonance
    order N, the largest such difference (0 if there is none): each step
    up to N removes every non-resonant entry, the diagonal included, the
    resonant entries left at degree N are the obstructions, and every
    term past N is removable.  The normal form is diag(lam) plus the
    obstructions, and the monodromy is trivial exactly when both
    eigenvalues are integers and nothing obstructs.  M is a polynomial,
    exact on any t-box, so it is built on one that holds degree N.  The
    only other singularity of the system is w = 0, so triviality
    transfers to the irregular point.
    """
    p, trunc = sys.pole, sys.trunc
    if trunc < p:
        raise PrecisionError(f"monodromy at infinity reads the residue A_{p - 1},"
                             f" but the system is known below w^{trunc} only")
    if sys.max_degree() > p - 1:
        raise DomainError("matrix degree exceeds pole-1: infinity is not Fuchsian")
    R = tuple(tuple(-e.coeff(p - 1) for e in row) for row in sys.A.a)
    lam, P = _diagonalize_exact(R)
    gap = lam[1] - lam[0]
    order = abs(int(gap.re)) if gap.is_integer() else 0
    box = max(trunc, order + 1)
    M = sys.A.map(lambda e: USeries("t", box, {p - 1 - d: -q for d, q in e.terms()}))
    if P is not None:
        # (P^-1 M P)[i][j] = sum of P^-1[i][k] P[l][j] M[k][l]: no series product
        Pinv, zero = _const_inverse(P), USeries.zero("t", box)
        M = Mat2([[_combine(zero, [(Pinv[i][k] * P[l][j], M[k, l])
                                   for k in range(2) for l in range(2)], box)
                   for j in range(2)] for i in range(2)])
    system = LinSystem(1, M)
    pd = poincare_dulac(system, order)
    trivial = all(e.is_integer() for e in lam) and not pd.obstructions
    return MonodromyReport(R, lam, system, pd.obstructions, trivial, order)


def _diagonalize_exact(R):
    """Eigenvalues (sorted) and eigenvector matrix of a 2x2, or (lam, None)."""
    a, b = R[0][0], R[0][1]
    c, d = R[1][0], R[1][1]
    if b.is_zero() and c.is_zero():
        return (a, d), None
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4 * det
    root = gauss_sqrt_exact(disc)
    if root is None:
        raise DomainError("residue eigenvalues are not Gaussian rational")
    l1 = (tr + root) / 2
    l2 = (tr - root) / 2
    if l1 == l2:
        raise DomainError("repeated residue eigenvalue: not diagonalizable here")
    if (l2.re, l2.im) < (l1.re, l1.im):
        l1, l2 = l2, l1
    cols = []
    for lam in (l1, l2):
        if not b.is_zero():
            v = (b, lam - a)
        elif not c.is_zero():
            v = (lam - d, c)
        else:
            v = (GaussRational(1), GaussRational(0)) if lam == a else \
                (GaussRational(0), GaussRational(1))
        lead = v[0] if not v[0].is_zero() else v[1]
        cols.append((v[0] / lead, v[1] / lead))
    P = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    return (l1, l2), P


def _const_inverse(P):
    det = P[0][0] * P[1][1] - P[0][1] * P[1][0]
    if det.is_zero():
        raise InternalInconsistencyError("eigenvector matrix is singular")
    return ((P[1][1] / det, -P[0][1] / det),
            (-P[1][0] / det, P[0][0] / det))


def companion_gauge(F: ScalarGauge, m: int) -> ScalarGauge:
    """The unique parameter-side gauge coupled to F on a foliated graph.

    Closed form: for F = (f, g), the companion is (g' / ((g/w)^m f), g),
    computed as g' (1/f) (w/g)^m from the inverses F keeps.

    Derivation: write h for the compositional inverse of g.  Then
    F^-1 = (1/f(h), h), and the two coupling conditions on F^-1 pin
    (lambda, mu) = (w^m h' f(h) / h^m, h); the companion is
    (lambda, mu)^-1 = (1/lambda(g), g).  Since h(g) = w and
    h'(g) = 1/g', 1/lambda(g) = g' / ((g/w)^m f), with no inversion
    left.  The conditions are symmetric under swapping the two gauges,
    and so is the formula: applied to the companion it returns (f, g)
    exactly.  The factor is carried to min(f.trunc, g.trunc - 1), since
    g' is known one degree less than g, and the map g one degree past it.
    After the pullback along the straightening gauge, which reads the
    same 1/f and w/g, nothing is left to invert.
    """
    if m < 1:
        raise DomainError("class order m must be >= 1")
    g = F.g
    lam = g.derivative() * (F.w_over_g.pow_int(m) * F.inv_f)
    return ScalarGauge(lam, g.truncate(lam.trunc + 1))
