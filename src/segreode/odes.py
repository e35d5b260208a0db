"""Singular second-order ODE data model and its point-invariants.

The central object is the sextuple representation

    z'' = (A z + B) z' / w^m  +  (C z^3 + D z^2 + E z + F) / w^(2m),

holomorphic coefficients A..F, subject to the two structural relations

    C = -A^2 / 9,      D = (w^m A' - m w^(m-1) A)/3 - A B / 3,

which are equivalent to the vanishing of the two lowest-order Tresse
semi-invariants, i.e. to local equivalence with z'' = 0 away from the
singular fiber w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, StructureError
from .scalars import GaussRational
from .series import ULaurent

COEFF_NAMES = ("A", "B", "C", "D", "E", "F")


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    first_degree: int

    def __str__(self):
        return f"{self.relation} fails first at degree {self.first_degree}"


class P0Ode:
    """Sextuple ODE record with singularity order m."""

    __slots__ = ("m", "A", "B", "C", "D", "E", "F")

    def __init__(self, m, A, B, C, D, E, F):
        if m < 1:
            raise DomainError("singularity order m must be a positive integer")
        trunc = min(s.trunc for s in (A, B, C, D, E, F))
        for name, s in zip(COEFF_NAMES, (A, B, C, D, E, F)):
            if s.var != A.var:
                raise StructureError("ODE coefficients must share their variable")
            object.__setattr__(self, name, s.truncate(trunc))
        object.__setattr__(self, "m", int(m))

    def __setattr__(self, name, value):
        raise AttributeError("P0Ode is immutable")

    @property
    def trunc(self):
        return self.A.trunc

    @property
    def var(self):
        return self.A.var

    def coefficients(self):
        return {name: getattr(self, name) for name in COEFF_NAMES}

    def is_linear(self):
        return all(getattr(self, n).is_zero() for n in ("A", "C", "D", "F"))

    def __eq__(self, other):
        if not isinstance(other, P0Ode):
            return NotImplemented
        return self.m == other.m and all(
            getattr(self, n) == getattr(other, n) for n in COEFF_NAMES)

    __hash__ = None

    def __repr__(self):
        coeffs = ", ".join(f"{n}={getattr(self, n)!r}" for n in COEFF_NAMES
                           if not getattr(self, n).is_zero())
        return f"P0Ode(m={self.m}, {coeffs or '0'})"

    # -- derived forms -------------------------------------------------

    def conjugate(self) -> "P0Ode":
        return P0Ode(self.m, *(getattr(self, n).conjugate() for n in COEFF_NAMES))

    def rescale_order(self, m_new) -> "P0Ode":
        """Re-represent the same ODE with singularity order m_new >= m."""
        d = m_new - self.m
        if d < 0:
            raise DomainError("rescale_order only raises the represented order")
        if d == 0:
            return self
        return P0Ode(m_new,
                     self.A.shift_up(d).truncate(self.trunc),
                     self.B.shift_up(d).truncate(self.trunc),
                     self.C.shift_up(2 * d).truncate(self.trunc),
                     self.D.shift_up(2 * d).truncate(self.trunc),
                     self.E.shift_up(2 * d).truncate(self.trunc),
                     self.F.shift_up(2 * d).truncate(self.trunc))

    def first_order_coeffs(self):
        """(P, Q) with z'' = P z' + Q z + nonlinear part, as Laurent data."""
        P = ULaurent(self.B, self.m)
        Q = ULaurent(self.E, 2 * self.m)
        return P, Q

    def rhs_poly(self) -> "Poly2":
        """The right-hand side as a polynomial in (y, y1) over Laurent series."""
        m = self.m
        terms = {
            (1, 1): ULaurent(self.A, m),
            (0, 1): ULaurent(self.B, m),
            (3, 0): ULaurent(self.C, 2 * m),
            (2, 0): ULaurent(self.D, 2 * m),
            (1, 0): ULaurent(self.E, 2 * m),
            (0, 0): ULaurent(self.F, 2 * m),
        }
        return Poly2({k: v for k, v in terms.items() if not v.is_zero()},
                     var=self.var, trunc_hint=self.trunc)


@dataclass(frozen=True)
class GeneralP0:
    """General meromorphic-coefficient form: p0, p1, q0..q3."""

    p0: ULaurent
    p1: ULaurent
    q0: ULaurent
    q1: ULaurent
    q2: ULaurent
    q3: ULaurent

    def validate(self):
        """Check q3 = -p1^2/9 and q2 = (p1' - p0 p1)/3 modulo truncation."""
        out = []
        r1 = self.q3 + self.p1 * self.p1 * Fraction(1, 9)
        if not r1.is_zero():
            out.append(RelationViolation("q3 = -p1^2/9", r1.order()))
        r2 = self.q2 - (self.p1.derivative() - self.p0 * self.p1) * Fraction(1, 3)
        if not r2.is_zero():
            out.append(RelationViolation("q2 = (p1' - p0 p1)/3", r2.order()))
        return out

    @classmethod
    def from_p0ode(cls, ode: P0Ode):
        m = ode.m
        return cls(p0=ULaurent(ode.B, m), p1=ULaurent(ode.A, m),
                   q0=ULaurent(ode.F, 2 * m), q1=ULaurent(ode.E, 2 * m),
                   q2=ULaurent(ode.D, 2 * m), q3=ULaurent(ode.C, 2 * m))


def validate_p0(ode: P0Ode):
    """Report the structural relations violated by the sextuple.

    Empty list iff C = -A^2/9 and 3D = w^m A' - m w^(m-1) A - A B hold
    modulo the carried truncation; violations carry the first failing
    degree of the coefficient series (not an exception).
    """
    out = []
    A, B, C, D = ode.A, ode.B, ode.C, ode.D
    rC = C * 9 + A * A
    if not rC.is_zero():
        out.append(RelationViolation("C = -A^2/9", rC.order()))
    wAp = A.derivative().shift_up(ode.m)
    mwA = A.shift_up(ode.m - 1) * ode.m
    rD = D * 3 - (wAp - mwA - A * B)
    if not rD.is_zero():
        out.append(RelationViolation("D = (w^(2m) (A/w^m)' - A B)/3", rD.order()))
    return out


def singularity_order(m, A, B, C, D, E, F):
    """Minimal representation order for a claimed-(m) sextuple.

    Returns (m_min, P0Ode): the largest power of w is divided out of
    (A, B) and its double out of (C..F) while all six stay holomorphic.
    The all-zero ODE reports order 1 by convention.
    """
    if m < 1:
        raise DomainError("claimed order must be >= 1")
    firsts = [s.order() for s in (A, B)]
    seconds = [s.order() for s in (C, D, E, F)]
    if all(o is None for o in firsts + seconds):
        return 1, P0Ode(1, A, B, C, D, E, F)
    d = m - 1
    for o in firsts:
        if o is not None:
            d = min(d, o)
    for o in seconds:
        if o is not None:
            d = min(d, o // 2)
    if d <= 0:
        return m, P0Ode(m, A, B, C, D, E, F)
    return m - d, P0Ode(m - d,
                        A.divide_monomial(d), B.divide_monomial(d),
                        C.divide_monomial(2 * d), D.divide_monomial(2 * d),
                        E.divide_monomial(2 * d), F.divide_monomial(2 * d))


class Poly2:
    """Polynomial in (y, y1) with ULaurent coefficients in the base variable.

    Carries the jet-space algebra needed by the Tresse semi-invariants:
    partial derivatives in y and y1, the total derivative along the ODE
    flow, and ring operations.
    """

    __slots__ = ("coeffs", "var", "trunc_hint")

    def __init__(self, coeffs=None, var="w", trunc_hint=16):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if not v.is_zero()}
        self.var = var
        self.trunc_hint = trunc_hint

    def _zero(self):
        return ULaurent.zero(self.var, self.trunc_hint)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return Poly2(out, self.var, min(self.trunc_hint, other.trunc_hint))

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            return Poly2({k: v * other for k, v in self.coeffs.items()},
                         self.var, self.trunc_hint)
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                p = v1 * v2
                s = out.get(k)
                out[k] = p if s is None else s + p
        return Poly2(out, self.var, min(self.trunc_hint, other.trunc_hint))

    __rmul__ = __mul__

    def d_y(self):
        return Poly2({(i - 1, j): v * i for (i, j), v in self.coeffs.items() if i},
                     self.var, self.trunc_hint)

    def d_y1(self):
        return Poly2({(i, j - 1): v * j for (i, j), v in self.coeffs.items() if j},
                     self.var, self.trunc_hint)

    def d_x(self):
        return Poly2({k: v.derivative() for k, v in self.coeffs.items()},
                     self.var, self.trunc_hint)

    def total_d(self, phi: "Poly2"):
        """D = d/dx + y1 d/dy + Phi d/dy1 along the ODE right-hand side."""
        y1 = Poly2({(0, 1): ULaurent.monomial(0, 1, self.var, self.trunc_hint)},
                   self.var, self.trunc_hint)
        return self.d_x() + y1 * self.d_y() + phi * self.d_y1()

    def coeff(self, i, j) -> ULaurent:
        return self.coeffs.get((i, j), self._zero())

    def __repr__(self):
        if not self.coeffs:
            return "Poly2(0)"
        parts = [f"y^{i}*y1^{j}: {v!r}" for (i, j), v in sorted(self.coeffs.items())]
        return "Poly2{" + "; ".join(parts) + "}"


def tresse_l1(phi: Poly2) -> Poly2:
    """Fourth y1-derivative of the right-hand side (lowest semi-invariant)."""
    return phi.d_y1().d_y1().d_y1().d_y1()


def tresse_l2(phi: Poly2) -> Poly2:
    """Second basic semi-invariant of the point-equivalence problem.

    L2 = D^2 Phi_{y1 y1} - 4 D Phi_{y y1} - Phi_{y1} D Phi_{y1 y1}
         + 4 Phi_{y1} Phi_{y y1} - 3 Phi_y Phi_{y1 y1} + 6 Phi_{yy};
    two applications of D each consume one truncation order of the
    Laurent coefficients.
    """
    p_y = phi.d_y()
    p_y1 = phi.d_y1()
    p_yy = p_y.d_y()
    p_yy1 = p_y.d_y1()
    p_y1y1 = p_y1.d_y1()
    d1 = p_y1y1.total_d(phi)
    return (d1.total_d(phi) - 4 * p_yy1.total_d(phi) - p_y1 * d1
            + 4 * (p_y1 * p_yy1) - 3 * (p_y * p_y1y1) + 6 * p_yy)


def tresse(phi: Poly2, which: str) -> Poly2:
    if which == "L1":
        return tresse_l1(phi)
    if which == "L2":
        return tresse_l2(phi)
    raise DomainError(f"unknown semi-invariant {which!r} (want 'L1' or 'L2')")
