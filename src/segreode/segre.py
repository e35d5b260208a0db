"""Admissible Segre families: the parametric Cauchy problem and real structure.

A family  w = eta * exp(s * i * eta^(m-1) * phi(z, xi, eta))  with
s = +-1 and phi = z*xi + sum_{k,l>=2} phi_kl(eta) z^k xi^l is solved
from the inverse ODE of a validated sextuple by Picard iteration on the
integrated Cauchy problem.  Each sweep extends the correct z-jet by one
order, so the sweeps climb a precision ladder: the first runs on
z-truncation 2, each later one a z-order wider, and the truncs[0] - 2
sweeps end on the full box with phi exact there.  The dual family is
solved on the same kind of ladder; neither iterates to a fixed point.

Variable naming follows the family convention: the second and third
TriSeries variables are the antiholomorphic parameters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import record
from .errors import DomainError, InternalInconsistencyError, PrecisionError
from .odes import P0Ode, structural_cd, validate_p0
from .scalars import GaussRational, I
from .series import TriSeries, USeries, _compose

PHI_VARS = ("z", "xi", "eta")


@record
class AdmissiblePhi:
    """Admissible family datum phi with its order m and exponent sign."""

    m: int
    sign: int
    phi: TriSeries

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        self.check_admissible()

    @property
    def truncs(self):
        return self.phi.truncs

    def slice(self, k, l) -> USeries:
        return self.phi.slice_eta(k, l, var="w")

    def check_admissible(self):
        """Enforce the normalization: phi = z*xi + sum_{k,l>=2} phi_kl z^k xi^l."""
        tz, tx, _ = self.phi.truncs
        for k, l, j in self.phi.exponents():
            if (k, l, j) == (1, 1, 0):
                if self.phi.coeff(1, 1, 0) != GaussRational(1):
                    raise InternalInconsistencyError("(1,1) slice must be 1")
            elif k < 2 or l < 2:
                raise InternalInconsistencyError(
                    f"admissibility violated at monomial {(k, l, j)}")
        if tz >= 2 and tx >= 2 and self.phi.coeff(1, 1, 0) != GaussRational(1):
            raise InternalInconsistencyError("missing z*xi leading term")

    @cached_property
    def family(self) -> TriSeries:
        """The graph series w = eta * exp(sign*i*eta^(m-1)*phi), built once."""
        psi = self.phi.mul_monomial(0, 0, self.m - 1) * (I * self.sign)
        return psi.exp().mul_monomial(0, 0, 1)


@record
class RealStructureData:
    """Classification datum (a, b real series; c complex; order m)."""

    a: USeries
    b: USeries
    c: USeries
    m: int

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.m < 1:
            raise DomainError("m must be a positive integer")
        if not self.a.is_real():
            raise DomainError("series a must have real coefficients")
        if not self.b.is_real():
            raise DomainError("series b must have real coefficients")


def solve_phi(ode: P0Ode, m: int, sign: int = 1,
              truncs=(5, 5, 12)) -> AdmissiblePhi:
    """Unique admissible family associated with a validated sextuple.

    Solves the second-order Cauchy problem equivalent to substituting
    the family into the inverse ODE, with phi(0) = 0 and the z-slope
    pinned to xi.  Each sweep of the precision ladder makes phi exact
    one z-order wider, so the sweep that reaches the full box returns
    the fixed point and no further sweep is run.  A sweep reads the
    ODE's coefficients, known below w^ode.trunc only, so for tz > 2 phi
    comes back on (tz, tx, min(te, ode.trunc)): its eta-truncation is at
    most the ODE's.  Negative-sign families are obtained from the
    positive family of the conjugated ODE (single code path).
    """
    bad = validate_p0(ode)
    if bad:
        raise DomainError("solve_phi needs a valid sextuple: "
                          + "; ".join(map(str, bad)))
    if m < ode.m:
        raise DomainError(f"family order {m} below ODE order {ode.m}")
    if sign == -1:
        pos = solve_phi(ode.conjugate(), m, 1, truncs)
        return AdmissiblePhi(m, -1, pos.phi.conjugate())

    ode = ode.rescale_order(m)
    tz, tx, te = truncs
    A, B, C, D, E, F = (getattr(ode, n) for n in ("A", "B", "C", "D", "E", "F"))

    # Precision ladder: phi starts exact modulo z^2; the right-hand side
    # loses one z-order to the derivative and two integrals gain two, so
    # each sweep returns the exact jet one z-order wider.
    zxi = TriSeries.monomial(1, 1, 0, 1, PHI_VARS, truncs)
    phi = zxi.truncate((2, tx, te))
    while phi.truncs[0] < tz:
        rhs = _findphi_rhs(phi, m, A, B, C, D, E, F)
        phi = zxi + rhs.integral().integral().truncate(truncs)

    return AdmissiblePhi(m, 1, phi)


def _findphi_rhs(phi, m, A, B, C, D, E, F):
    """Right-hand side of the solved-for second z-derivative of phi,
    (-i eta^(m-1) + (-i lin + cubic scale phid) scale) phid^2 with scale =
    e^((1-m) psi), on the box of phid, one z-order below phi's: psi, W,
    the ODE on the family and scale are built on that box."""
    phid = phi.derivative(0)
    truncs = phid.truncs
    psi = phi.truncate(truncs).mul_monomial(0, 0, m - 1) * I
    W = psi.exp().mul_monomial(0, 0, 1)        # eta * e^(i eta^(m-1) phi)
    lin, cubic = _ode_on_family(W, A, B, C, D, E, F)
    scale = (psi * (1 - m)).exp()               # 1 for m = 1
    inner = lin * (-I)
    if cubic is not None:
        inner = inner + cubic * scale * phid
    eta_m1 = TriSeries.monomial(0, 0, m - 1, -I, PHI_VARS, truncs)
    return (eta_m1 + inner * scale) * (phid * phid)


def _ode_on_family(W, A, B, C, D, E, F):
    """(A(W) z + B(W), C(W) z^3 + D(W) z^2 + E(W) z + F(W)).

    W is eta times a unit, so X(W) is exact on W's box below the
    eta-truncation of X: the pair carries eta-truncation at most the
    ODE's.  The compositions share one power table of W.  The cubic is
    None when C, D, E and F all vanish (a linear sextuple).
    """
    linear = C.is_zero() and D.is_zero() and E.is_zero() and F.is_zero()
    at = _compose((A, B) if linear else (A, B, C, D, E, F), W)
    lin = at[0].mul_monomial(1, 0, 0) + at[1]
    if linear:
        return lin, None
    cubic = (at[2].mul_monomial(3, 0, 0) + at[3].mul_monomial(2, 0, 0)
             + at[4].mul_monomial(1, 0, 0) + at[5])
    return lin, cubic


def recover_ode(phi: AdmissiblePhi):
    """(A, B, E, F) read off the low slices of an admissible family.

    Together with the two structural relations this pins the whole
    sextuple; ``recovered_to_ode`` completes C and D accordingly.
    """
    m, s = phi.m, phi.sign
    p22, p23 = phi.slice(2, 2), phi.slice(2, 3)
    p32, p33 = phi.slice(3, 2), phi.slice(3, 3)
    F = p23 * 2
    A = p32 * (6 * I * s)
    B = p22 * (2 * I * s) - USeries.monomial(m - 1, 1, "w", p22.trunc)
    E = (p33 * 6
         + p22.shift_up(m - 1) * (2 * I * s * (m - 1))
         - p22 * p22 * 8
         - p22.derivative().shift_up(m) * (2 * I * s))
    return A, B, E, F


def recovered_to_ode(phi: AdmissiblePhi) -> P0Ode:
    A, B, E, F = recover_ode(phi)
    trunc = min(x.trunc for x in (A, B, E, F))
    A, B = A.truncate(trunc), B.truncate(trunc)
    return P0Ode(phi.m, A, B, *structural_cd(A, B, phi.m), E, F)


def dual_phi_lowjet(phi: AdmissiblePhi):
    """The four lowest dual slices, from the closed-form exchange relations.

    The w^(2m-2) structural term enters with a minus sign: that choice
    (and only that choice) makes the four relations consistent with the
    defining equation of the dual family and with the real-structure
    classification, as the cross-checks against ``dual_phi_full``
    enforce in the test suite.
    """
    if phi.sign != 1:
        raise DomainError("dual_phi_lowjet expects a positive family")
    m = phi.m
    p22, p33 = phi.slice(2, 2), phi.slice(3, 3)
    trunc = p22.trunc
    s22 = p22 - USeries.monomial(m - 1, I * (m - 1), "w", trunc)
    s32 = phi.slice(2, 3)
    s23 = phi.slice(3, 2)
    s33 = (p33
           - USeries.monomial(2 * m - 2, GaussRational(Fraction(3, 2)) * (m - 1) ** 2,
                              "w", trunc)
           - p22.shift_up(m - 1) * (2 * I * (m - 1))
           - p22.derivative().shift_up(m) * I)
    return {(2, 2): s22, (2, 3): s23, (3, 2): s32,
            (3, 3): s33.truncate(min(s33.trunc, trunc))}


def dual_phi_full(phi: AdmissiblePhi) -> AdmissiblePhi:
    """Dual family: swap graph variables against parameters and re-solve.

    Solves  eta = w * exp(s*i*w^(m-1)*phi(xi, z, w))  for w by sweeps
    w <- eta*exp(expo(w)).  A sweep multiplies the error of w by (z*xi)^g,
    with g = 2 for m = 1 and g = 1 otherwise, so from eta, exact on the
    box of side 1, one sweep on each square box of side 1 + g, 1 + 2g, ...
    below t = min(tz, tx) solves w there.  A last sweep on the full box
    lands on the square of side t, as the swapped phi lives on (tx, tz, te);
    the error it starts from has z- or xi-degree at least t - g, so its
    expo is exact there and log(w/eta) = expo (exp is injective on series
    without a constant term).  The result carries the opposite sign and
    loses m orders of eta-truncation (one to the leading factor, m-1 to
    the exponent normalization).
    """
    m, s = phi.m, phi.sign
    truncs = phi.phi.truncs
    tz, tx, te = truncs
    swapped = phi.phi.swap_zx()  # phi(xi, z, .) as a series

    def exponent(w):
        return (swapped.subst_eta(w) * w.pow_int(m - 1)) * (-I * s)

    w = TriSeries.monomial(0, 0, 1, 1, PHI_VARS, truncs).truncate((1, 1, te))
    gain = 2 if m == 1 else 1
    for side in range(1 + gain, min(tz, tx), gain):
        w = exponent(w.widen((side, side, te))).exp().mul_monomial(0, 0, 1)
    expo = exponent(w.widen(truncs))

    star = expo.truncate((tz, tx, te - 1)).divide_monomial(m - 1) * (1 / (-I * s))
    return AdmissiblePhi(m, -s, star)


@record
class SliceMismatch:
    slice: tuple
    first_degree: int
    difference: USeries


@record
class RealityReport:
    ok: bool
    mismatches: tuple
    checked_order: int

    def __str__(self):
        if self.ok:
            return f"real structure confirmed to order {self.checked_order}"
        what = ", ".join(f"{m.slice} at degree {m.first_degree}"
                         for m in self.mismatches)
        return f"real structure fails on slices: {what}"


def reality_check(ode: P0Ode, m: int, sign: int = 1,
                  truncs=(5, 5, 12)) -> RealityReport:
    """``family_reality`` of the family that ``solve_phi`` gives for ``ode``.

    Only the slices (k, l) <= (3, 3) are read, so phi is solved on the
    box (4, 4, te): the solve is truncation-honest, so the report is the
    one a solve on ``truncs`` would give, checked_order at most the ODE's
    truncation.  A box with tz or tx below 4 does not hold the slices
    read and raises PrecisionError.  Sign -1 checks ``ode.conjugate()``;
    whether that is the paper's criterion for the minus family is open.
    """
    tz, tx, te = truncs
    if sign == -1:
        return reality_check(ode.conjugate(), m, 1, truncs)
    return family_reality(solve_phi(ode, m, 1, (min(tz, 4), min(tx, 4), te)))


def family_reality(phi: AdmissiblePhi) -> RealityReport:
    """Dual-equals-conjugate criterion on the four decisive slices of ``phi``.

    The family has a real structure iff the conjugated family is also a
    dual one, which for admissible families reduces to the four slice
    identities; mismatching slices are reported with their first failing
    degree in the coefficient variable.  ``phi`` is a solved positive
    family whose box holds the slices (k, l) <= (3, 3); only those are
    read, so checked_order is phi's eta-truncation whatever tz and tx.
    """
    if min(phi.truncs[:2]) < 4:
        raise PrecisionError(f"reality check reads the slices (k, l) <= (3, 3);"
                             f" the box {phi.truncs} does not hold them")
    mism = []
    checked = None
    for key, dser in sorted(dual_phi_lowjet(phi).items()):
        cser = phi.slice(*key).conjugate()
        diff = cser - dser
        checked = diff.trunc if checked is None else min(checked, diff.trunc)
        if not diff.is_zero():
            mism.append(SliceMismatch(key, diff.order(), diff))
    return RealityReport(not mism, tuple(mism), checked)


def build_real(data: RealStructureData) -> P0Ode:
    """Sextuple with an m-positive real structure from (a, b, c, m).

    A = 3c, B = 2ia - m w^(m-1), (C, D) = ``structural_cd(A, B, m)``,
    E = b + i w^m a', F = i * conj(c).  The C entry follows the
    structural relation (the alternative reading conj(c)^2 differs only
    in sign conventions when c is nonzero and never occurs with c = 0).
    """
    a, b, c, m = data.a, data.b, data.c, data.m
    trunc = min(a.trunc, b.trunc, c.trunc)
    a, b, c = a.truncate(trunc), b.truncate(trunc), c.truncate(trunc)
    A = c * 3
    B = a * (2 * I) - USeries.monomial(m - 1, m, "w", trunc)
    E = b + a.derivative().shift_up(m).truncate(trunc) * I
    return P0Ode(m, A, B, *structural_cd(A, B, m), E, c.conjugate() * I)


@record
class ExtractFailure:
    condition: str
    witness: USeries

    def __str__(self):
        return f"extract_real: {self.condition} (witness {self.witness!r})"


def extract_real(ode: P0Ode):
    """Invert the real-structure formulas; data or failure diagnostics.

    Returns (RealStructureData, []) on success, (None, failures) with
    the violated conditions otherwise.  The structural relations imply
    D = w^m c' - 2iac, so only a, b and F are left to check.
    """
    bad = validate_p0(ode)
    if bad:
        return None, [ExtractFailure(str(v), v.residual) for v in bad]
    m = ode.m
    failures = []
    c = ode.A * Fraction(1, 3)
    a = (ode.B + USeries.monomial(m - 1, m, "w", ode.trunc)) * (1 / (2 * I))
    if not a.is_real():
        failures.append(ExtractFailure("a = (B + m w^(m-1))/(2i) must be real",
                                       a.imag_part()))
    b = ode.E - a.derivative().shift_up(m).truncate(ode.trunc) * I
    if not b.is_real():
        failures.append(ExtractFailure("b = E - i w^m a' must be real",
                                       b.imag_part()))
    rF = ode.F - c.conjugate() * I
    if not rF.is_zero():
        failures.append(ExtractFailure("F = i conj(c)", rF))
    if failures:
        return None, failures
    return RealStructureData(a=a.truncate(b.trunc), b=b, c=c.truncate(b.trunc),
                             m=m), []


def family_residual(ode: P0Ode, phi: AdmissiblePhi) -> TriSeries:
    """Inverse-ODE residual of the solved family, cleared of denominators.

    Substitutes W = eta e^(s i eta^(m-1) phi) into the interchanged ODE
    and multiplies through by W^(2m); the returned series is zero
    exactly when the family solves the inverse ODE modulo truncation
    (certified up to 2m lost eta-orders from the clearing factor).
    Its eta-truncation is at most phi's and the ODE's.  W^(2m) vanishes
    once 2m reaches phi's, and so would the residual: such an m raises
    PrecisionError.  W^m (W^m W'' + lin W'^2) + cubic W'^3 lives on the
    box of W'', where W^m, lin, cubic and W'^2 are built.
    """
    m = phi.m
    truncs = phi.phi.truncs
    if 2 * m >= truncs[2]:
        raise PrecisionError(
            f"family residual: 2m = {2 * m} leaves nothing of eta-truncation"
            f" {truncs[2]} to check")
    ode = ode.rescale_order(m)
    W = phi.family
    Wp = W.derivative(0)
    Wpp = Wp.derivative(0)
    W, Wp = W.truncate(Wpp.truncs), Wp.truncate(Wpp.truncs)
    lin, cubic = _ode_on_family(W, ode.A, ode.B, ode.C, ode.D, ode.E, ode.F)
    Wm = W.pow_int(m)
    Wp2 = Wp * Wp
    residual = Wm * (Wm * Wpp + lin * Wp2)
    if cubic is None:
        return residual
    return residual + cubic * Wp2 * Wp
