from fractions import Fraction

import pytest

from segreode import backend
from segreode.errors import DomainError, PrecisionError, StructureError
from segreode.hypersurface import (HYPER_VARS, HoloField, HyperJet, TangencyResult,
                                   build_hypersurface, reality_verify,
                                   sphere_pushforward_fields, tangency_check)
from segreode.odes import Poly2
from segreode.scalars import GaussRational
from segreode.segre import (AdmissiblePhi, RealStructureData, build_real, dual_phi_full,
                            family_residual, solve_phi)
from segreode.series import TriSeries, USeries, _combine, _powers, unpack

G = GaussRational


def field_sum(X, Y):
    return HoloField(X.fz + Y.fz, X.fw + Y.fw)


def field_scale(X, q):
    return HoloField(X.fz * q, X.fw * q)


def field_apply(X, h):
    """X as a derivation of the polynomial h in (z, w)."""
    return X.fz * h.derivative(0) + X.fw * h.derivative(1)


def field_commutator(X, Y):
    return HoloField(field_apply(X, Y.fz) - field_apply(Y, X.fz),
                     field_apply(X, Y.fw) - field_apply(Y, X.fw))


def flat_phi(m, truncs=(5, 5, 10)):
    return AdmissiblePhi(m, 1, TriSeries.monomial(1, 1, 0, 1,
                                                  ("z", "xi", "eta"), truncs))


@pytest.fixture(scope="module")
def model_jet():
    data = RealStructureData(a=USeries.constant(1, trunc=14),
                             b=USeries.zero(trunc=14),
                             c=USeries.zero(trunc=14), m=4)
    phi = solve_phi(build_real(data), 4, 1, truncs=(6, 6, 14))
    return build_hypersurface(phi)


def test_build_hypersurface_leading_terms(model_jet):
    rho = model_jet.rho
    assert rho.coeff(0, 0, 1) == G(1)
    assert rho.coeff(1, 1, 4) == G(0, 1)
    assert model_jet.signature_ok()


def test_hyperjet_checks_its_leading_signature(model_jet):
    with pytest.raises(DomainError):
        HyperJet(4, -1, model_jet.rho)
    with pytest.raises(DomainError):
        HyperJet(3, 1, model_jet.rho)
    with pytest.raises(DomainError):
        HyperJet(13, 1, model_jet.rho)


def test_hyperjet_refuses_a_box_without_its_leading_term(model_jet):
    # wbar^m z zbar lies outside the box, so the signature cannot be read
    for truncs in ((1, 6, 14), (6, 1, 14), (6, 6, 4)):
        with pytest.raises(PrecisionError, match="at least"):
            HyperJet(4, 1, model_jet.rho.truncate(truncs))
    with pytest.raises(PrecisionError):
        HyperJet(14, 1, model_jet.rho)


def test_field_refuses_negative_exponents():
    for fz, fw in [({(0, -1): G(1)}, {}), ({(-1, 0): G(1)}, {}), ({}, {(2, -3): G(1)})]:
        with pytest.raises(StructureError):
            HoloField(Poly2(fz), Poly2(fw))


def test_build_flat_m1():
    jet = build_hypersurface(flat_phi(1))
    # rho = wbar e^(i z zbar): check the expansion through two orders
    assert jet.rho.coeff(0, 0, 1) == G(1)
    assert jet.rho.coeff(1, 1, 1) == G(0, 1)
    assert jet.rho.coeff(2, 2, 1) == G(Fraction(-1, 2))


def test_reality_flat_m1_passes():
    assert reality_verify(build_hypersurface(flat_phi(1))).ok


def test_reality_uncorrected_m2_fails():
    res = reality_verify(build_hypersurface(flat_phi(2)))
    assert not res.ok
    k, l, j = res.witness.monomial
    assert (k, l) == (2, 2)


def test_reality_on_random_pipelines(structure_samples):
    for data in structure_samples[:5]:
        phi = solve_phi(build_real(data), data.m, 1, truncs=(5, 5, 10))
        assert reality_verify(build_hypersurface(phi)).ok


def test_reality_negative_sign(structure_samples):
    # the negative-sign hypersurface comes from the conjugated family
    data = structure_samples[0]
    ode = build_real(data)
    pos = solve_phi(ode, data.m, 1, truncs=(5, 5, 10))
    neg = AdmissiblePhi(data.m, -1, pos.phi.conjugate())
    assert reality_verify(build_hypersurface(neg)).ok


def test_tangency_four_model_fields(model_jet):
    for X in sphere_pushforward_fields():
        assert tangency_check(model_jet, X).ok


def test_tangency_rejects_translation(model_jet):
    dz = HoloField(Poly2({(0, 0): G(1)}), Poly2())
    res = tangency_check(model_jet, dz)
    assert not res.ok
    low = min((k, l) for (k, l, j), q in res.residual.terms())
    assert low in ((0, 1), (1, 0))


def test_tangency_real_linearity(model_jet):
    X1, X2, X5, X6 = sphere_pushforward_fields()
    combo = field_sum(field_scale(X1, G(Fraction(3, 2))), field_scale(X5, G(-2)))
    assert tangency_check(model_jet, combo).ok


def test_tangency_commutator_closure(model_jet):
    X1, X2, X5, X6 = sphere_pushforward_fields()
    assert tangency_check(model_jet, field_commutator(X1, X5)).ok
    assert tangency_check(model_jet, field_commutator(X5, X6)).ok


def test_rotation_field_on_diagonal_families(structure_samples):
    # i z d/dz is tangent whenever the family couples z and zbar only
    # through powers of their product
    data = RealStructureData(a=USeries("w", 12, {0: 1, 1: Fraction(1, 2)}),
                             b=USeries("w", 12, {1: 1}),
                             c=USeries.zero(trunc=12), m=2)
    phi = solve_phi(build_real(data), 2, 1, truncs=(5, 5, 10))
    jet = build_hypersurface(phi)
    X1 = sphere_pushforward_fields()[0]
    assert tangency_check(jet, X1).ok


# -- the shared jet context against the per-field computation ---------------

def _eval_bipoly(p, zfac, wfac):
    """p(zfac, wfac) by products of powers."""
    wpow = _powers(wfac, max((j for _, j in p.coeffs), default=0))
    terms = [(q, zfac.pow_int(i) * wpow[j]) for (i, j), q in p.coeffs.items()
             if j < len(wpow)]
    return _combine(TriSeries.zero(zfac.vars, zfac.truncs), terms, zfac.truncs)


def _tangency_per_field(jet, X):
    """Tangency with every series rebuilt for the one field."""
    rho = jet.rho
    truncs = rho.truncs
    z_fac = TriSeries.monomial(1, 0, 0, 1, HYPER_VARS, truncs)
    zb_fac = TriSeries.monomial(0, 1, 0, 1, HYPER_VARS, truncs)
    wb_fac = TriSeries.monomial(0, 0, 1, 1, HYPER_VARS, truncs)
    rho_z = rho.derivative(0).truncate(truncs)
    rho_zb = rho.derivative(1).truncate(truncs)
    rho_wb = rho.derivative(2).truncate(truncs)
    fz_on = _eval_bipoly(X.fz, z_fac, rho)
    fw_on = _eval_bipoly(X.fw, z_fac, rho)
    fzbar = _eval_bipoly(X.fz.map(G.conjugate), zb_fac, wb_fac)
    fwbar = _eval_bipoly(X.fw.map(G.conjugate), zb_fac, wb_fac)
    residual = fw_on - fz_on * rho_z - fzbar * rho_zb - fwbar * rho_wb
    return TangencyResult(residual.is_zero(), residual)


def _test_fields():
    # the custom field has fz of w-degree 1 and 3 (rho^j rho_z) and an fw
    # term of w-degree 5, past the powers the model fields need
    custom = HoloField(Poly2({(0, 1): G(0, 1), (1, 3): G(Fraction(1, 2), -1)}),
                       Poly2({(0, 5): G(3), (2, 1): G(0, Fraction(-2, 3))}))
    return [*sphere_pushforward_fields(), HoloField(Poly2({(0, 0): G(1)}), Poly2()),
            custom]


def _same_result(got, want):
    return (got.ok == want.ok and got.residual == want.residual
            and got.residual.truncs == want.residual.truncs
            and repr(got.residual) == repr(want.residual))


def _context_phis(structure_samples, truncs):
    """The order-four model (gamma = 1) and three dense data, solved on truncs."""
    model = RealStructureData(a=USeries.constant(1, trunc=truncs[2]),
                              b=USeries.monomial(4, 1, trunc=truncs[2]),
                              c=USeries.zero(trunc=truncs[2]), m=4)
    return [solve_phi(build_real(d), d.m, 1, truncs=truncs)
            for d in [model, *structure_samples[:3]]]


@pytest.mark.parametrize("truncs", [(5, 5, 12), (7, 7, 14)])
def test_tangency_context_matches_per_field(structure_samples, truncs):
    fields = _test_fields()
    verdicts = []
    for phi in _context_phis(structure_samples, truncs):
        jet = build_hypersurface(phi)
        for X in fields:
            got = tangency_check(jet, X)
            assert _same_result(got, _tangency_per_field(jet, X))
            assert got.residual.truncs == tuple(t - 1 for t in jet.truncs)
            verdicts.append(got.ok)
    assert any(verdicts) and not all(verdicts)


def test_tangency_context_order_independent(structure_samples):
    fields = _test_fields()
    for phi in _context_phis(structure_samples, (5, 5, 12))[:2]:
        jet, other = build_hypersurface(phi), build_hypersurface(phi)
        want = [_tangency_per_field(jet, X) for X in fields]
        runs = [[tangency_check(jet, X) for X in fields],
                [tangency_check(jet, X) for X in fields],
                [tangency_check(other, X) for X in reversed(fields)][::-1]]
        for run in runs:
            assert all(_same_result(g, w) for g, w in zip(run, want))


def test_tangency_context_past_a_vanishing_power():
    # the powers live on the residual box: at eta-truncation 4 it ends
    # below wbar^3, so rho^3 vanishes there and the w-degree 3 to 5
    # terms of the fields read zero
    for truncs, kept in (((4, 4, 4), 3), ((5, 5, 6), 5)):
        jet = build_hypersurface(flat_phi(1, truncs))
        for X in _test_fields():
            assert _same_result(tangency_check(jet, X), _tangency_per_field(jet, X))
        assert len(jet.tangency_context.powers) == kept     # 1, rho, ..., rho^(kept-1)


def _kept_pairs(ca, cb, tz, tx, te):
    """The pairs (a, b) of terms whose exponent sum lies inside the box,
    counted one by one, not by the kernel."""
    tb = [unpack(key) for key in cb]
    return sum(kb < tz - k and lb < tx - l and jb < te - j
               for k, l, j in map(unpack, ca) for kb, lb, jb in tb)


# Kept mul3 pairs per stage at (9, 9, 18), summed over the m = 4 model and
# a dense datum with c != 0.  Each stage multiplies only inside the box its
# result keeps; on the full boxes the same stages kept, in this order,
# 144,451, 186,828, 83,205, 25,302 and 101,002 pairs.  The relaxed
# solve_phi keeps 54,758, where the Picard ladder it replaced kept 119,306.
PAIR_CEILINGS = {"solve_phi": 55_800, "family_residual": 80_140, "reality_verify": 44_289,
                 "tangency_check": 11_474, "dual_phi_full": 47_283}


def test_kept_mul3_pairs_per_stage(structure_samples, monkeypatch):
    truncs = (9, 9, 18)
    te = truncs[2]
    dense = next(d for d in structure_samples if not d.c.is_zero())
    data = [RealStructureData(a=USeries.constant(1, trunc=te),
                              b=USeries.monomial(4, 1, trunc=te),
                              c=USeries.zero(trunc=te), m=4),
            RealStructureData(dense.a.widen(te), dense.b.widen(te), dense.c.widen(te),
                              dense.m)]
    kept = [0]
    mul3 = backend.mul3

    def counted(ca, cb, *box):
        kept[0] += _kept_pairs(ca, cb, *box)
        return mul3(ca, cb, *box)

    monkeypatch.setattr(backend, "mul3", counted)
    got = dict.fromkeys(PAIR_CEILINGS, 0)

    def stage(name, fn, *args):
        before = kept[0]
        out = fn(*args)
        got[name] += kept[0] - before
        return out

    for d in data:
        ode = build_real(d)
        phi = stage("solve_phi", solve_phi, ode, d.m, 1, truncs)
        stage("family_residual", family_residual, ode, phi)
        jet = build_hypersurface(phi)
        stage("reality_verify", reality_verify, jet)
        for X in sphere_pushforward_fields():
            stage("tangency_check", tangency_check, jet, X)
        stage("dual_phi_full", dual_phi_full, phi)
    assert all(got[name] <= cap for name, cap in PAIR_CEILINGS.items()), got
