"""Defining-series jets of nonminimal hypersurfaces and tangency checks.

A solved admissible family becomes a hypersurface jet by identifying
the antiholomorphic parameters with the conjugate coordinates:
w = rho(z, zbar, wbar) = wbar * exp(s*i*wbar^(m-1) * phi(z, zbar, wbar)).
Everything here stays in the exact trivariate ring; the real defining
equation is never formed.
"""

from __future__ import annotations

from functools import cached_property

from ._record import record
from .errors import DomainError, PrecisionError, StructureError
from .odes import Poly2
from .scalars import GaussRational
from .segre import AdmissiblePhi
from .series import TriSeries, _combine, _powers

HYPER_VARS = ("z", "zbar", "wbar")


@record
class HyperJet:
    m: int
    sign: int
    rho: TriSeries

    def __post_init__(self):
        tz, tx, te = self.rho.truncs
        if tz < 2 or tx < 2 or te <= self.m:
            raise PrecisionError(
                f"hypersurface jet: the box {self.rho.truncs} does not hold the leading"
                f" term wbar^{self.m}*z*zbar; it needs at least (2, 2, {self.m + 1})")
        if not self.signature_ok():
            raise DomainError("family did not produce an admissible defining series")

    @property
    def truncs(self):
        return self.rho.truncs

    def signature_ok(self):
        """Leading shape wbar + s*i*wbar^m z zbar + O(z^2 zbar^2)."""
        if self.rho.coeff(0, 0, 1) != GaussRational(1):
            return False
        want = GaussRational(0, 1) * self.sign
        return self.rho.coeff(1, 1, self.m) == want

    @cached_property
    def tangency_context(self):
        """The series every tangency check on this jet reads; built once."""
        return _TangencyContext(self.rho)


class _TangencyContext:
    """The derivatives of rho, its powers and the products rho^j rho_z.

    Powers and products live on the residual box (tz - 1, tx - 1, te - 1),
    are made when a field first needs them and are kept for the next
    field checked on the same jet.
    """

    __slots__ = ("rho", "rho_z", "rho_zb", "rho_wb", "powers", "powers_rho_z")

    def __init__(self, rho):
        self.rho_z, self.rho_zb, self.rho_wb = (rho.derivative(a) for a in range(3))
        self.rho = rho.truncate(tuple(t - 1 for t in rho.truncs))
        self.powers = _powers(self.rho, 1)
        self.powers_rho_z = {0: self.rho_z}

    def power(self, j):
        """rho^j on the residual box; zero once a power vanishes there."""
        table = _powers(self.rho, j, self.powers)
        return table[j] if j < len(table) else self.rho * 0

    def power_rho_z(self, j):
        """rho^j * rho_z."""
        if j not in self.powers_rho_z:
            self.powers_rho_z[j] = self.power(j) * self.rho_z
        return self.powers_rho_z[j]


def build_hypersurface(phi: AdmissiblePhi) -> HyperJet:
    """Expand the defining series of the hypersurface behind a family."""
    return HyperJet(phi.m, phi.sign, phi.family.relabel(HYPER_VARS))


@record
class RealityWitness:
    monomial: tuple
    value: GaussRational


@record
class RealityResult:
    ok: bool
    witness: RealityWitness
    truncs: tuple

    def __str__(self):
        if self.ok:
            return f"reality condition holds modulo truncations {self.truncs}"
        (k, l, j), v = self.witness.monomial, self.witness.value
        return (f"reality fails first at z^{k} zbar^{l} w^{j}"
                f" with coefficient {v}")


def reality_verify(jet: HyperJet) -> RealityResult:
    """Functional identity w = rho(z, zbar, conj(rho)(zbar, z, w)).

    Composes the defining series with its coefficient-conjugated,
    argument-swapped self; the result must be the bare monomial w.
    Composition depth eats nothing in the z/zbar axes and is exact in
    the third axis; first failing monomial (graded-lex order) is the
    witness.
    """
    rho = jet.rho
    inner = rho.conjugate().swap_zx()
    composed = rho.subst_eta(inner)
    w_mono = TriSeries.monomial(0, 0, 1, 1, HYPER_VARS, composed.truncs)
    diff = composed - w_mono
    if diff.is_zero():
        return RealityResult(True, None, composed.truncs)
    mono, value = min(diff.terms(), key=lambda t: (sum(t[0]), t[0]))
    return RealityResult(False, RealityWitness(mono, value), composed.truncs)


@record
class HoloField:
    """Holomorphic vector field fz d/dz + fw d/dw, fz and fw polynomials in (z, w)."""

    fz: Poly2
    fw: Poly2

    def __post_init__(self):
        if any(e < 0 for p in (self.fz, self.fw) for key in p.coeffs for e in key):
            raise StructureError("a field's exponents must be non-negative")


@record
class TangencyResult:
    ok: bool
    residual: TriSeries

    def residual_order(self):
        return self.residual.order()


def tangency_check(jet: HyperJet, X: HoloField) -> TangencyResult:
    """Real-part tangency of X along the hypersurface jet.

    Applies X + conj(X) to the complex defining function w - rho and
    eliminates w through the graph itself; the restricted series

        fw(z, rho) - fz(z, rho) rho_z - conj(fz)(zbar, wbar) rho_zbar
                   - conj(fw)(zbar, wbar) rho_wbar

    must vanish.  Linear over real scalars, and closed under commutators
    (at two fewer orders), which the property tests exercise.

    Every term is a monomial times a series of the jet's shared context
    (``HyperJet.tangency_context``): z^i rho^j, z^i rho^j rho_z,
    zbar^i wbar^j rho_zbar and zbar^i wbar^j rho_wbar.  The derivatives,
    the powers of rho and the products rho^j rho_z are made once per
    jet, so the fields checked on one jet share them, and the residual
    is one linear combination of monomial shifts on the meet of the
    three derivative boxes, which must reach wbar^m, where rho first
    depends on z: below it fz is never read (``PrecisionError``).
    """
    tz, tx, te = jet.truncs
    box = (tz - 1, tx - 1, te - 1)
    if te - 1 <= jet.m:
        raise PrecisionError(f"tangency: the residual box {box} ends below wbar^{jet.m},"
                             f" where rho first depends on z; it needs eta-truncation"
                             f" at least {jet.m + 2}")
    ctx = jet.tangency_context
    terms = []
    for (i, j), q in X.fw.coeffs.items():
        terms += [(q, ctx.power(j).mul_monomial(i, 0, 0)),
                  (-q.conjugate(), ctx.rho_wb.mul_monomial(0, i, j))]
    for (i, j), q in X.fz.coeffs.items():
        terms += [(-q, ctx.power_rho_z(j).mul_monomial(i, 0, 0)),
                  (-q.conjugate(), ctx.rho_zb.mul_monomial(0, i, j))]
    residual = _combine(TriSeries.zero(HYPER_VARS, box), terms, box)
    return TangencyResult(residual.is_zero(), residual)


def sphere_pushforward_fields():
    """The four polynomial fields tangent to the order-four model.

    Real scalar multiples of the sphere algebra's push-forwards through
    (z, w) -> (sqrt(2) z, exp(-2i/(3 w^3))): the rotations i z d/dz and
    2 w^4 d/dw, and the two quadratic fields, scaled by sqrt(2) to stay
    Gaussian-rational (tangency is preserved under real scaling).  The
    d/dw components carry w^4 / (2i) from inverting the derivative of
    the exponential coordinate.
    """
    i1 = GaussRational(0, 1)
    X1 = HoloField(Poly2({(1, 0): i1}), Poly2())
    X2 = HoloField(Poly2(), Poly2({(0, 4): GaussRational(2)}))
    X5 = HoloField(Poly2({(0, 0): GaussRational(1), (2, 0): GaussRational(-2)}),
                   Poly2({(1, 4): i1}))
    X6 = HoloField(Poly2({(0, 0): i1, (2, 0): GaussRational(0, 2)}),
                   Poly2({(1, 4): GaussRational(1)}))
    return X1, X2, X5, X6
