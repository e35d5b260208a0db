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

from fractions import Fraction

from ._record import record
from .errors import DomainError, StructureError
from .series import ULaurent, USeries

COEFF_NAMES = ("A", "B", "C", "D", "E", "F")


@record
class RelationViolation:
    relation: str
    residual: USeries      # the relation's left side minus its right side

    @property
    def first_degree(self):
        return self.residual.order()

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
        return Poly2(terms)


def structural_cd(A, B, m):
    """The (C, D) fixed by (A, B, m): C = -A^2/9, 3D = w^m A' - m w^(m-1) A - A B."""
    C = A * A * Fraction(-1, 9)
    D = (A.derivative().shift_up(m) - A.shift_up(m - 1) * m - A * B) * Fraction(1, 3)
    return C, D


def validate_p0(ode: P0Ode):
    """Report the structural relations violated by the sextuple.

    Empty list iff (C, D) equals ``structural_cd(A, B, m)`` modulo the
    carried truncation; each violation carries its residual series and
    the first failing degree (not an exception).
    """
    C, D = structural_cd(ode.A, ode.B, ode.m)
    residuals = (("C = -A^2/9", ode.C - C), ("D = (w^(2m) (A/w^m)' - A B)/3", ode.D - D))
    return [RelationViolation(rel, r) for rel, r in residuals if not r.is_zero()]


class Poly2:
    """Sparse polynomial in two variables, keyed by exponent pairs (i, j).

    Generic over its coefficients: anything with ``+``, ``*`` and
    ``is_zero``.  The Tresse semi-invariants use it in (y, y1) over
    ``ULaurent``; the holomorphic fields of ``hypersurface`` use it in
    (z, w) over ``GaussRational``.  Zero coefficients are dropped, so
    the zero polynomial has no terms.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if not v.is_zero()}

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return Poly2(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if not isinstance(other, Poly2):
            return self.map(lambda v: v * other)
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                p = v1 * v2
                s = out.get(k)
                out[k] = p if s is None else s + p
        return Poly2(out)

    __rmul__ = __mul__

    def map(self, fn):
        """fn applied to every coefficient."""
        return Poly2({k: fn(v) for k, v in self.coeffs.items()})

    def derivative(self, axis):
        """The partial derivative in the first (axis 0) or second variable."""
        out = {}
        for (i, j), v in self.coeffs.items():
            e = j if axis else i
            if e:
                out[(i, j - 1) if axis else (i - 1, j)] = v * e
        return Poly2(out)

    def total_d(self, phi: "Poly2"):
        """D = d/dx + y1 d/dy + Phi d/dy1 along the ODE right-hand side.

        d/dx differentiates the coefficients; y1 d/dy raises the y1
        exponent of every term of d/dy.
        """
        y1_dy = {(i, j + 1): v for (i, j), v in self.derivative(0).coeffs.items()}
        return (self.map(lambda v: v.derivative()) + Poly2(y1_dy)
                + phi * self.derivative(1))

    def __repr__(self):
        if not self.coeffs:
            return "Poly2(0)"
        parts = [f"{k}: {v!r}" for k, v in sorted(self.coeffs.items())]
        return "Poly2{" + "; ".join(parts) + "}"


def tresse_l1(phi: Poly2) -> Poly2:
    """Fourth y1-derivative of the right-hand side: zero on any sextuple, linear in y1."""
    return phi.derivative(1).derivative(1).derivative(1).derivative(1)


def tresse_l2(phi: Poly2) -> Poly2:
    """Second basic semi-invariant of the point-equivalence problem.

    L2 = D^2 Phi_{y1 y1} - 4 D Phi_{y y1} - Phi_{y1} D Phi_{y1 y1}
         + 4 Phi_{y1} Phi_{y y1} - 3 Phi_y Phi_{y1 y1} + 6 Phi_{yy};
    two applications of D each consume one truncation order of the
    Laurent coefficients.
    """
    p_y = phi.derivative(0)
    p_y1 = phi.derivative(1)
    p_yy = p_y.derivative(0)
    p_yy1 = p_y.derivative(1)
    p_y1y1 = p_y1.derivative(1)
    d1 = p_y1y1.total_d(phi)
    return (d1.total_d(phi) - 4 * p_yy1.total_d(phi) - p_y1 * d1
            + 4 * (p_y1 * p_yy1) - 3 * (p_y * p_y1y1) + 6 * p_yy)


def tresse(phi: Poly2, which: str) -> Poly2:
    """The semi-invariant ``which``: "L1", which no sextuple can fail, or "L2"."""
    if which == "L1":
        return tresse_l1(phi)
    if which == "L2":
        return tresse_l2(phi)
    raise DomainError(f"unknown semi-invariant {which!r} (want 'L1' or 'L2')")
