from fractions import Fraction

import pytest

from segreode.errors import DomainError, InternalInconsistencyError, PrecisionError
from segreode.gauge import linear_family
from segreode.odes import P0Ode, validate_p0
from segreode.scalars import GaussRational, I
from segreode.segre import (AdmissiblePhi, RealityReport, RealStructureData,
                            SliceMismatch, build_real, dual_phi_full,
                            dual_phi_lowjet, extract_real, family_residual,
                            reality_check, recover_ode, recovered_to_ode,
                            solve_phi, _findphi_rhs)
from segreode.series import TriSeries, USeries

T = 12
TRUNCS = (5, 5, 12)


def family_data(gamma, trunc=T):
    return RealStructureData(a=USeries.constant(1, trunc=trunc),
                             b=USeries(trunc=trunc,
                                       terms={4: GaussRational(Fraction(gamma))}),
                             c=USeries.zero(trunc=trunc), m=4)


def test_build_real_matches_closed_form():
    ode = build_real(family_data(1))
    assert ode.A.is_zero() and ode.C.is_zero() and ode.D.is_zero() \
        and ode.F.is_zero()
    assert ode.B == USeries(trunc=T, terms={0: GaussRational(0, 2),
                                            3: GaussRational(-4)})
    assert ode.E == USeries.monomial(4, 1, trunc=T)


def test_build_real_tiny_cases():
    z = USeries.zero(trunc=T)
    flat = build_real(RealStructureData(a=z, b=z, c=z, m=1))
    assert flat.B == USeries.constant(-1, trunc=T)
    for n in "ACDEF":
        assert getattr(flat, n).is_zero()
    one_a = build_real(RealStructureData(a=USeries.constant(1, trunc=T),
                                         b=z, c=z, m=1))
    assert one_a.B == USeries.constant(GaussRational(-1, 2), trunc=T)
    assert one_a.E.is_zero()


def test_build_real_rejects_complex_ab():
    z = USeries.zero(trunc=T)
    with pytest.raises(DomainError):
        build_real(RealStructureData(a=USeries.constant(I, trunc=T), b=z, c=z, m=1))


def test_solve_phi_model_slice():
    phi = solve_phi(build_real(family_data(1)), 4, 1, TRUNCS)
    want = USeries(trunc=T, terms={0: 1, 3: GaussRational(0, Fraction(3, 2))})
    assert phi.slice(2, 2) == want
    assert phi.phi.coeff(1, 1, 0) == GaussRational(1)


def test_solve_phi_flat():
    z = USeries.zero(trunc=T)
    flat = build_real(RealStructureData(a=z, b=z, c=z, m=1))
    phi = solve_phi(flat, 1, 1, TRUNCS)
    assert phi.phi == TriSeries.monomial(1, 1, 0, 1, ("z", "xi", "eta"), TRUNCS)
    assert family_residual(flat, phi).is_zero()


def test_solve_phi_low_slices_vanish(structure_samples):
    for data in structure_samples[:6]:
        phi = solve_phi(build_real(data), data.m, 1, TRUNCS)
        for (k, l, j), q in phi.phi.terms():
            assert (k == 1 and l == 1 and j == 0) or (k >= 2 and l >= 2)


def test_solve_phi_rejects_invalid():
    ode = build_real(family_data(1))
    bad = P0Ode(4, USeries.monomial(1, 1, trunc=T), ode.B, ode.C, ode.D,
                ode.E, ode.F)
    assert validate_p0(bad)
    with pytest.raises(DomainError):
        solve_phi(bad, 4, 1, TRUNCS)
    with pytest.raises(DomainError):
        solve_phi(ode, 2, 1, TRUNCS)


def test_solve_phi_negative_sign_is_conjugate_path():
    ode = build_real(family_data(1))
    neg = solve_phi(ode, 4, -1, TRUNCS)
    pos = solve_phi(ode.conjugate(), 4, 1, TRUNCS)
    assert neg.sign == -1
    assert neg.phi == pos.phi.conjugate()
    assert family_residual(ode, neg).is_zero()


def test_recover_roundtrip_model():
    ode = build_real(family_data(1))
    phi = solve_phi(ode, 4, 1, TRUNCS)
    A, B, E, F = recover_ode(phi)
    assert A.is_zero() and F.is_zero()
    assert B == ode.B
    assert E.equal_mod(ode.E)


def test_recover_flat_convention():
    phi = AdmissiblePhi(1, 1, TriSeries.monomial(1, 1, 0, 1,
                                                 ("z", "xi", "eta"), TRUNCS))
    A, B, E, F = recover_ode(phi)
    assert A.is_zero() and E.is_zero() and F.is_zero()
    assert B == USeries.constant(-1, trunc=T)


def test_roundtrip_random(structure_samples):
    for data in structure_samples[:8]:
        ode = build_real(data)
        phi = solve_phi(ode, data.m, 1, TRUNCS)
        rec = recovered_to_ode(phi)
        for n in "ABCDEF":
            assert getattr(rec, n).equal_mod(getattr(ode, n)), (n, data.m)


def test_family_residual_zero_random(structure_samples):
    for data in structure_samples[:8]:
        ode = build_real(data)
        phi = solve_phi(ode, data.m, 1, TRUNCS)
        assert family_residual(ode, phi).is_zero()


def test_dual_lowjet_model_and_m1():
    phi = solve_phi(build_real(family_data(1)), 4, 1, TRUNCS)
    low = dual_phi_lowjet(phi)
    assert low[(2, 2)] == USeries(trunc=T, terms={
        0: 1, 3: GaussRational(0, Fraction(-3, 2))})
    flat = AdmissiblePhi(1, 1, TriSeries.monomial(1, 1, 0, 1,
                                                  ("z", "xi", "eta"), TRUNCS))
    low1 = dual_phi_lowjet(flat)
    assert all(s.is_zero() for s in low1.values())


def test_dual_full_flat_m1():
    flat = AdmissiblePhi(1, 1, TriSeries.monomial(1, 1, 0, 1,
                                                  ("z", "xi", "eta"), TRUNCS))
    dual = dual_phi_full(flat)
    assert dual.sign == -1
    assert dual.phi == flat.phi.truncate(dual.phi.truncs)


def test_dual_full_involution_and_lowjet(structure_samples):
    for data in structure_samples[:5]:
        ode = build_real(data)
        phi = solve_phi(ode, data.m, 1, TRUNCS)
        dual = dual_phi_full(phi)
        assert dual.sign == -1
        low = dual_phi_lowjet(phi)
        for key, ser in low.items():
            got = dual.phi.slice_eta(*key, var="w")
            assert got.equal_mod(ser), (key, data.m)
        back = dual_phi_full(dual)
        assert back.sign == 1
        assert back.phi == phi.phi.truncate(back.phi.truncs)


def test_reality_check_passes_on_builds(structure_samples):
    for data in structure_samples[:6]:
        assert reality_check(build_real(data), data.m, truncs=TRUNCS).ok


def test_reality_check_negative_sign():
    ode = build_real(family_data(1))
    rep = reality_check(ode, 4, sign=-1, truncs=TRUNCS)
    assert rep.ok


def test_reality_detects_imaginary_perturbation():
    ode = build_real(family_data(1))
    pert = P0Ode(4, ode.A, ode.B, ode.C, ode.D,
                 ode.E + USeries.monomial(5, GaussRational(0, 1), trunc=T), ode.F)
    rep = reality_check(pert, 4, truncs=TRUNCS)
    assert not rep.ok
    assert (3, 3) in [m.slice for m in rep.mismatches]


def test_extract_real_roundtrip(structure_samples):
    for data in structure_samples[:8]:
        ode = build_real(data)
        got, failures = extract_real(ode)
        assert not failures
        assert got.m == data.m
        assert got.a.equal_mod(data.a)
        assert got.b.equal_mod(data.b)
        assert got.c.equal_mod(data.c)


def test_reality_check_refuses_boxes_without_its_slices():
    # slices outside the box read as zero, so (3, 3, 12) and (2, 2, 12)
    # would confirm a structure that (5, 5, 12) refutes
    data = RealStructureData(a=USeries.constant(1, trunc=12),
                             b=USeries.monomial(4, 1, trunc=12),
                             c=USeries.monomial(1, 1, trunc=12), m=1)
    pert = _imaginary_perturbation(build_real(data))
    rep = reality_check(pert, 1, truncs=(5, 5, 12))
    assert not rep.ok
    assert {(2, 3), (3, 2), (3, 3)} <= {m.slice for m in rep.mismatches}
    for truncs in ((3, 3, 12), (2, 2, 12), (3, 5, 12), (5, 3, 12)):
        for sign in (1, -1):
            with pytest.raises(PrecisionError):
                reality_check(pert, 1, sign, truncs=truncs)
    assert reality_check(build_real(data), 1, truncs=(4, 4, 12)).ok


def test_extract_real_detects_imaginary_gamma():
    data = RealStructureData(a=USeries.constant(1, trunc=T),
                             b=USeries.zero(trunc=T),
                             c=USeries.zero(trunc=T), m=4)
    ode = build_real(data)
    bad = P0Ode(4, ode.A, ode.B, ode.C, ode.D,
                USeries.monomial(4, I, trunc=T), ode.F)
    got, failures = extract_real(bad)
    assert got is None
    assert any("must be real" in f.condition for f in failures)


def test_extract_real_witness_is_the_relation_residual():
    ode = linear_family(1, trunc=8)
    bad = P0Ode(ode.m, ode.A, ode.B, ode.C, ode.D + USeries.monomial(2, 1, trunc=8),
                ode.E, ode.F)
    got, failures = extract_real(bad)
    assert got is None
    [failure] = failures
    assert failure.condition.startswith("D = ")
    assert failure.witness == USeries.monomial(2, 1, trunc=8)


def test_admissibility_guard():
    bad = TriSeries(("z", "xi", "eta"), TRUNCS, {(1, 1, 0): 1, (2, 0, 0): 1})
    with pytest.raises(InternalInconsistencyError):
        AdmissiblePhi(4, 1, bad).check_admissible()


def _admissibility_oracle(phi):
    """The coefficient-by-coefficient admissibility check, over ``terms()``."""
    tz, tx, _ = phi.truncs
    for (k, l, j), q in phi.terms():
        if k == 1 and l == 1 and j == 0:
            if q != GaussRational(1):
                raise InternalInconsistencyError("(1,1) slice must be 1")
            continue
        if k < 2 or l < 2:
            raise InternalInconsistencyError(
                f"admissibility violated at monomial {(k, l, j)}")
    if tz >= 2 and tx >= 2 and phi.coeff(1, 1, 0) != GaussRational(1):
        raise InternalInconsistencyError("missing z*xi leading term")


@pytest.mark.parametrize("terms, truncs", [
    ({(1, 1, 0): 2, (1, 1, 1): 1}, TRUNCS),        # both defects of the z*xi slice
    ({(1, 1, 0): 1, (1, 1, 1): 1}, TRUNCS),
    ({(1, 1, 0): I, (2, 2, 0): 1}, TRUNCS),
    ({(1, 1, 0): 1, (2, 0, 0): 1, (0, 2, 3): 1}, TRUNCS),
    ({(1, 1, 0): 1, (3, 1, 2): 5}, TRUNCS),
    ({(0, 0, 0): 1, (1, 1, 0): 1}, TRUNCS),
    ({(2, 2, 0): 1}, TRUNCS),                      # no z*xi term at all
    ({(1, 0, 4): 1}, TRUNCS),
    ({}, (1, 5, 12)),                              # z*xi lies outside the box
    ({(1, 1, 0): 1, (2, 3, 5): GaussRational(Fraction(1, 3), 2)}, TRUNCS),
])
def test_admissibility_matches_coefficient_oracle(terms, truncs):
    phi = TriSeries(("z", "xi", "eta"), truncs, terms)
    try:
        _admissibility_oracle(phi)
    except InternalInconsistencyError as exc:
        with pytest.raises(InternalInconsistencyError) as got:
            AdmissiblePhi(4, 1, phi)
        assert str(got.value) == str(exc)
    else:
        assert AdmissiblePhi(4, 1, phi).phi is phi


def test_structure_data_checks_itself_at_construction():
    z = USeries.zero(trunc=T)
    with pytest.raises(DomainError, match="series b must have real"):
        RealStructureData(a=z, b=USeries.monomial(2, I, trunc=T), c=z, m=1)
    with pytest.raises(DomainError, match="m must be a positive integer"):
        RealStructureData(a=z, b=z, c=z, m=0)


def test_reality_stable_under_real_scaling_of_b(structure_samples):
    data = structure_samples[1]
    scaled = RealStructureData(a=data.a, b=data.b * Fraction(2, 3),
                               c=data.c, m=data.m)
    assert reality_check(build_real(scaled), data.m, truncs=TRUNCS).ok


# -- truncation honesty of the laddered solvers ----------------------------

def _imaginary_perturbation(ode):
    return P0Ode(ode.m, ode.A, ode.B, ode.C, ode.D,
                 ode.E + USeries.monomial(5, GaussRational(0, 1), trunc=ode.trunc),
                 ode.F + USeries.monomial(2, GaussRational(1, -2), trunc=ode.trunc))


def test_solve_phi_truncation_honest(structure_samples):
    cases = [(build_real(family_data(1)), 4)]
    cases += [(build_real(d), d.m) for d in structure_samples[:3]]
    cases.append((_imaginary_perturbation(build_real(structure_samples[3])),
                  structure_samples[3].m))
    for ode, m in cases:
        for sign in (1, -1):
            low = solve_phi(ode, m, sign, (5, 5, 10))
            high = solve_phi(ode, m, sign, (7, 7, 14))
            assert low.phi == high.phi.truncate((5, 5, 10)), (m, sign)


def _odes_known_to(*truncs):
    """One real-structure datum, built at each of the given truncations."""
    a = {0: 1, 9: Fraction(1, 3), 10: 2}
    b = {4: 1, 9: 5, 11: 1}
    c = {1: 1, 10: 3}
    return [build_real(RealStructureData(USeries("w", t, a), USeries("w", t, b),
                                         USeries("w", t, c), 1)) for t in truncs]


def test_solve_phi_eta_truncation_is_at_most_the_odes():
    ode8, ode12 = _odes_known_to(8, 12)
    for sign in (1, -1):
        low = solve_phi(ode8, 1, sign, (5, 5, 12))
        assert low.truncs == (5, 5, 8)
        assert low.phi == solve_phi(ode12, 1, sign, (5, 5, 12)).phi.truncate((5, 5, 8))


def test_reality_check_order_is_at_most_the_odes():
    ode8, = _odes_known_to(8)
    assert reality_check(ode8, 1, truncs=(5, 5, 12)).checked_order == 8


def _report_from_full_box(ode, m, sign, truncs):
    """The reality report read off a solve on the whole box."""
    if sign == -1:
        ode = ode.conjugate()
    phi = solve_phi(ode, m, 1, truncs)
    mism, checked = [], None
    for key, dser in sorted(dual_phi_lowjet(phi).items()):
        diff = phi.slice(*key).conjugate() - dser
        checked = diff.trunc if checked is None else min(checked, diff.trunc)
        if not diff.is_zero():
            mism.append(SliceMismatch(key, diff.order(), diff))
    return RealityReport(not mism, tuple(mism), checked)


def test_reality_check_equals_full_box_report(structure_samples):
    truncs = (6, 6, 12)
    real = [(build_real(d), d.m) for d in structure_samples[:3]]
    bent = [(_imaginary_perturbation(ode), m) for ode, m in real]
    bent.append((_imaginary_perturbation(build_real(family_data(1))), 4))
    for ode, m in real + bent:
        for sign in (1, -1):
            rep = reality_check(ode, m, sign, truncs)
            assert rep == _report_from_full_box(ode, m, sign, truncs), (m, sign)
    assert all(reality_check(ode, m, 1, truncs).ok for ode, m in real)
    assert not any(reality_check(ode, m, 1, truncs).ok for ode, m in bent)


def _dual_by_full_box_iteration(phi):
    """dual_phi_full without the precision ladder: every sweep on the full box."""
    m, s = phi.m, phi.sign
    swapped = phi.phi.swap_zx()
    w = TriSeries.monomial(0, 0, 1, 1, ("z", "xi", "eta"), phi.truncs)
    for _ in range(sum(phi.truncs)):
        expo = (swapped.subst_eta(w) * w.pow_int(m - 1)) * (-I * s)
        new = expo.exp().mul_monomial(0, 0, 1)
        if new == w:
            break
        w = new
    else:
        raise AssertionError("full-box iteration did not stabilize")
    star = _horner_log(w.divide_monomial(1)).divide_monomial(m - 1) * (1 / (-I * s))
    return AdmissiblePhi(m, -s, star)


def _horner_log(s):
    """log(s) for constant term 1: log(1 + t) = t(1 + t(-1/2 + t(1/3 + ...))).

    The Horner sum runs to the nilpotency bound of t, read off its lowest
    total degree, so it is independent of the read-off in dual_phi_full.
    """
    t = s - s.ring_one()
    low = t.order()
    nmax = 1 if low is None else t.total_degree_cap() // low + 1
    acc = TriSeries.zero(s.vars, s.truncs)
    for n in range(nmax, 0, -1):
        acc = acc * t + t.ring_one() * Fraction((-1) ** (n + 1), n)
    return acc * t


@pytest.mark.parametrize("truncs", [TRUNCS, (4, 6, 10), (6, 3, 9), (7, 7, 14)])
def test_dual_full_matches_full_box_iteration(structure_samples, truncs):
    te = max(truncs[2], T)
    data = [family_data(1, trunc=te)] + [
        # the samples are polynomials: build them to the box's eta-truncation
        RealStructureData(d.a.widen(te), d.b.widen(te), d.c.widen(te), d.m)
        for d in structure_samples[:5]]
    for d in data:
        phi = solve_phi(build_real(d), d.m, 1, truncs)
        assert phi.truncs == truncs
        dual = dual_phi_full(phi)
        assert dual == _dual_by_full_box_iteration(phi), phi.m


def _count_tri_exp(monkeypatch):
    """The boxes of the TriSeries.exp calls made from now on."""
    calls = []
    exp = TriSeries.exp

    def counted(self):
        calls.append(self.truncs)
        return exp(self)

    monkeypatch.setattr(TriSeries, "exp", counted)
    return calls


def test_dual_full_takes_one_exp_per_rung(structure_samples, monkeypatch):
    # at (5, 5, 12) the ladder has sides 3 (m = 1) or 2, 3, 4 (m >= 2);
    # the sweep on the full box stops at its exponent and takes no exp
    calls = _count_tri_exp(monkeypatch)
    data = [family_data(1)] + structure_samples[:3]
    assert sorted(d.m for d in data) == [1, 2, 3, 4]
    for d in data:
        phi = solve_phi(build_real(d), d.m, 1, TRUNCS)
        calls.clear()
        dual_phi_full(phi)
        assert calls == ([(3, 3, 12)] if d.m == 1
                         else [(2, 2, 12), (3, 3, 12), (4, 4, 12)]), d.m


def test_findphi_rhs_takes_two_exps(structure_samples, monkeypatch):
    # exp(psi), and exp((1 - m) psi) shared by the linear and cubic terms
    data = next(d for d in structure_samples if d.m >= 2 and not d.c.is_zero())
    ode = build_real(data).rescale_order(data.m)
    assert not all(getattr(ode, n).is_zero() for n in "CDEF")
    phi = solve_phi(ode, data.m, 1, TRUNCS)
    calls = _count_tri_exp(monkeypatch)
    _findphi_rhs(phi.phi, data.m, *(getattr(ode, n) for n in "ABCDEF"))
    assert len(calls) == 2


def _ode_on_family_by_eval(W, ode):
    A, B, C, D, E, F = (getattr(ode, n).eval_at(W) for n in "ABCDEF")
    return (A.mul_monomial(1, 0, 0) + B,
            C.mul_monomial(3, 0, 0) + D.mul_monomial(2, 0, 0) + E.mul_monomial(1, 0, 0) + F)


def _rhs_on_phis_box(phi, m, ode):
    """-i (eta^(m-1) + lin scale) phid^2 + cubic scale^2 phid^3, each factor
    on its own full box."""
    psi = phi.mul_monomial(0, 0, m - 1) * I
    lin, cubic = _ode_on_family_by_eval(psi.exp().mul_monomial(0, 0, 1), ode)
    scale = (psi * (1 - m)).exp()
    phid = phi.derivative(0)
    eta_m1 = TriSeries.monomial(0, 0, m - 1, 1, phi.vars, phi.truncs)
    return ((eta_m1 + lin * scale) * phid * phid * (-I)
            + cubic * scale * scale * phid * phid * phid)


def _residual_on_phis_box(ode, phi):
    """W^(2m) W'' + W^m lin W'^2 + cubic W'^3, each factor on its own full box."""
    W = phi.family
    lin, cubic = _ode_on_family_by_eval(W, ode.rescale_order(phi.m))
    Wp = W.derivative(0)
    Wm = W.pow_int(phi.m)
    return Wm * Wm * Wp.derivative(0) + Wm * lin * Wp * Wp + cubic * Wp * Wp * Wp


def test_rhs_and_residual_equal_their_unfactored_formulas(structure_samples):
    truncs = (6, 6, 14)
    te = truncs[2]
    dense = next(d for d in structure_samples if d.m >= 2 and not d.c.is_zero())
    for data in (family_data(1, te),
                 RealStructureData(dense.a.widen(te), dense.b.widen(te),
                                   dense.c.widen(te), dense.m)):
        ode, m = build_real(data), data.m
        src = ode.rescale_order(m)
        solved = solve_phi(ode, m, 1, truncs)
        bent = AdmissiblePhi(m, 1, solved.phi + TriSeries.monomial(
            2, 2, 1, 1, solved.phi.vars, truncs))
        for phi in (solved, bent):
            rhs = _findphi_rhs(phi.phi, m, *(getattr(src, n) for n in "ABCDEF"))
            assert not rhs.is_zero() and rhs == _rhs_on_phis_box(phi.phi, m, src)
            residual = family_residual(ode, phi)
            assert residual.is_zero() == (phi is solved), m
            assert residual == _residual_on_phis_box(ode, phi)


@pytest.mark.parametrize("truncs", [(5, 5, 12), (7, 7, 14), (9, 9, 18)])
def test_solve_phi_returns_a_full_box_fixed_point(structure_samples, truncs):
    """A Picard sweep on the full box leaves the returned phi unchanged."""
    zxi = TriSeries.monomial(1, 1, 0, 1, ("z", "xi", "eta"), truncs)
    te = truncs[2]
    for data in structure_samples[:3]:
        # the samples are polynomials: build them at the rung's eta-truncation
        ode = build_real(RealStructureData(data.a.widen(te), data.b.widen(te),
                                           data.c.widen(te), data.m))
        for sign in (1, -1):
            phi = solve_phi(ode, data.m, sign, truncs)
            assert phi.truncs == truncs
            # the minus family is the conjugated plus family of the conjugated ODE
            pos, src = ((phi.phi, ode) if sign == 1
                        else (phi.phi.conjugate(), ode.conjugate()))
            src = src.rescale_order(data.m)
            rhs = _findphi_rhs(pos, data.m, *(getattr(src, n) for n in "ABCDEF"))
            assert zxi + rhs.integral().integral().truncate(truncs) == pos, (data.m, sign)
