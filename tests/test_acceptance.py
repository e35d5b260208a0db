"""Acceptance suite: one test per criterion, timed, exact.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (each test also prints a summary line).
"""

import random
import time
from fractions import Fraction

import pytest

from segreode.gauge import (ScalarGauge, companion_gauge, divergence_report,
                            formal_fundamental, formal_solution_coeffs,
                            gauge_chi_tau, linear_family,
                            monodromy_at_infinity, poincare_dulac,
                            riccati_check, to_system, transform_ode_by_gauge)
from segreode.hypersurface import (HoloField, build_hypersurface,
                                   reality_verify, sphere_pushforward_fields,
                                   tangency_check)
from segreode.odes import P0Ode, Poly2, tresse_l1, tresse_l2, validate_p0
from segreode.scalars import GaussRational
from segreode.segre import (RealStructureData, build_real, dual_phi_full,
                            dual_phi_lowjet, extract_real, family_residual,
                            reality_check, recovered_to_ode, solve_phi)
from segreode.series import ULaurent, USeries

from conftest import SEED, rnd_structure_data
from gauge_oracles import gauge_inverse

G = GaussRational
TRUNCS = (5, 5, 12)


def _samples():
    r = random.Random(SEED)
    return [rnd_structure_data(r, m=(i % 3) + 1) for i in range(25)]


@pytest.fixture(scope="module")
def pipelines():
    out = []
    for data in _samples():
        ode = build_real(data)
        phi = solve_phi(ode, data.m, 1, TRUNCS)
        out.append((data, ode, phi))
    return out


def _done(n, label, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {n:02d} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_builder_fidelity():
    t0 = time.perf_counter()
    for gamma in (0, 1, Fraction(-2, 3)):
        T = 16
        data = RealStructureData(
            a=USeries.constant(1, trunc=T),
            b=USeries(trunc=T, terms={4: G(Fraction(gamma))}),
            c=USeries.zero(trunc=T), m=4)
        ode = build_real(data)
        zero = USeries.zero(trunc=T)
        assert ode.m == 4
        assert ode.A == zero and ode.C == zero and ode.D == zero \
            and ode.F == zero
        assert ode.B == USeries(trunc=T, terms={0: G(0, 2), 3: G(-4)})
        assert ode.E == USeries(trunc=T, terms={4: G(Fraction(gamma))})
    _done(1, "builder fidelity", t0, 1.0)


def test_criterion_02_invariant_vanishing_and_detection(pipelines):
    t0 = time.perf_counter()
    for data, ode, _ in pipelines:
        assert validate_p0(ode) == []
        rhs = ode.rhs_poly()
        assert tresse_l1(rhs).is_zero()
        assert tresse_l2(rhs).is_zero()
    # injected perturbations: every coefficient slot is caught by some check
    ode = next(o for d, o, _ in pipelines if not d.c.is_zero())
    bump = USeries.monomial(2, G(0, 1), trunc=ode.trunc)
    for name in "ABCDEF":
        coeffs = {n: getattr(ode, n) for n in "ABCDEF"}
        coeffs[name] = coeffs[name] + bump
        bad = P0Ode(ode.m, *(coeffs[n] for n in "ABCDEF"))
        structural = validate_p0(bad) != [] or not tresse_l2(bad.rhs_poly()).is_zero()
        _, failures = extract_real(bad)
        assert structural or failures, f"perturbation of {name} undetected"
        if name in "ABCD":
            assert structural, f"perturbation of {name} missed by the relations"
    _done(2, "invariant vanishing + detection", t0, 30.0)


def test_criterion_03_segre_round_trip():
    t0 = time.perf_counter()
    for data in _samples():
        ode = build_real(data)
        phi = solve_phi(ode, data.m, 1, TRUNCS)
        rec = recovered_to_ode(phi)
        for n in "ABCDEF":
            assert getattr(rec, n).equal_mod(getattr(ode, n)), (n, data.m)
        assert family_residual(ode, phi).is_zero()
    _done(3, "segre round trip + residual", t0, 60.0)


def test_criterion_04_duality(pipelines):
    t0 = time.perf_counter()
    for data, ode, phi in pipelines:
        dual = dual_phi_full(phi)
        assert dual.sign == -phi.sign
        low = dual_phi_lowjet(phi)
        for key, ser in low.items():
            assert dual.phi.slice_eta(*key, var="w").equal_mod(ser), (key, data.m)
        back = dual_phi_full(dual)
        assert back.sign == phi.sign
        assert back.phi == phi.phi.truncate(back.phi.truncs)
    _done(4, "duality involution + slice formulas", t0, 60.0)


def test_criterion_05_reality(pipelines):
    t0 = time.perf_counter()
    for data, ode, phi in pipelines:
        rep = reality_check(ode, data.m, truncs=TRUNCS)
        assert rep.ok, data.m
        assert reality_verify(build_hypersurface(phi)).ok
    # perturbation E -> E + i w^5 must fail with the slice reported
    ode = linear_family(1, trunc=12)
    pert = P0Ode(4, ode.A, ode.B, ode.C, ode.D,
                 ode.E + USeries.monomial(5, G(0, 1), trunc=12), ode.F)
    rep = reality_check(pert, 4, truncs=TRUNCS)
    assert not rep.ok
    assert (3, 3) in [m.slice for m in rep.mismatches]
    pphi = solve_phi(pert, 4, 1, TRUNCS)
    rv = reality_verify(build_hypersurface(pphi))
    assert not rv.ok and rv.witness is not None
    _done(5, "reality pass + perturbation witness", t0, 120.0)


def test_criterion_06_formal_gauge():
    t0 = time.perf_counter()
    N = 16
    for gamma in (1, 5):
        sys_ = to_system(linear_family(gamma, trunc=N + 8))
        pd = poincare_dulac(sys_, N)
        two_i = G(0, 2)
        offdiag = {s.target_degree: s.matrix for s in pd.steps if s.kind == "offdiag"}
        assert offdiag[1] == ((G(0), G(1) / two_i), (G(0), G(0)))
        assert offdiag[3] == ((G(0), G(0)),
                              (G(-Fraction(gamma)) / two_i, G(0)))
        nf = pd.normal_form
        assert nf.pole == 4
        assert nf.A[0, 0].is_zero() and nf.A[0, 1].is_zero() \
            and nf.A[1, 0].is_zero()
        assert nf.A[1, 1] == USeries("w", N + 1, {0: two_i, 3: G(-1)})
        fhat, ghat = formal_fundamental(gamma, N)
        gau = gauge_chi_tau(fhat, ghat)
        assert gau.f.coeff(0) == G(1)
        dev = gau.g - USeries.monomial(1, 1, "w", gau.g.trunc)
        assert dev.order() >= 5
        moved = transform_ode_by_gauge(linear_family(0, trunc=N + 4), gau,
                                       target=linear_family(gamma, trunc=N + 4))
        assert moved.matches_target()
    _done(6, "formal gauge chain", t0, 10.0)


def test_criterion_07_divergence_witness():
    t0 = time.perf_counter()
    rep = divergence_report(1, 60, k_onset=10)
    assert rep.coeffs[1] == G(0, Fraction(1, 2))
    assert rep.coeffs[2] == G(Fraction(-1, 8))
    assert rep.certificate_ok and rep.first_violation == -1
    assert rep.min_margin >= 1
    base = formal_solution_coeffs(0, 24)
    assert base[0] == G(1) and all(a.is_zero() for a in base[1:])
    fhat0, _ = formal_fundamental(0, 12)
    assert fhat0 == USeries.constant(1, trunc=12)
    _done(7, "divergence witness", t0, 5.0)


def test_criterion_08_monodromy():
    t0 = time.perf_counter()
    for gamma in (0, 1, 5):
        rep = monodromy_at_infinity(to_system(linear_family(gamma, trunc=16)))
        assert rep.trivial
        assert rep.eigenvalues == (G(0), G(1))
        assert rep.obstructions == ()
        pd = poincare_dulac(rep.system, 10)
        assert pd.obstructions == ()
        nf = pd.normal_form
        assert nf.pole == 1
        assert nf.A[0, 0].is_zero() and nf.A[0, 1].is_zero() \
            and nf.A[1, 0].is_zero()
        assert nf.A[1, 1].equal_mod(USeries.constant(1, "t", 16), 10)
    _done(8, "trivial monodromy", t0, 5.0)


def test_criterion_09_riccati_witness_pair():
    t0 = time.perf_counter()
    p = ULaurent.monomial(-4, G(0, 2), trunc=16)
    assert riccati_check(linear_family(0, trunc=16), p).ok
    rep = riccati_check(linear_family(1, trunc=16), p)
    assert not rep.ok
    assert rep.residual.pole == 4
    assert rep.residual.body.equal_mod(USeries.constant(1, trunc=16))
    _done(9, "riccati witness pair", t0, 1.0)


def test_criterion_10_tangency():
    t0 = time.perf_counter()
    data = RealStructureData(a=USeries.constant(1, trunc=14),
                             b=USeries.zero(trunc=14),
                             c=USeries.zero(trunc=14), m=4)
    jet = build_hypersurface(solve_phi(build_real(data), 4, 1, (6, 6, 14)))
    for X in sphere_pushforward_fields():
        assert tangency_check(jet, X).ok
    res = tangency_check(jet, HoloField(Poly2({(0, 0): GaussRational(1)}), Poly2()))
    assert not res.ok
    _done(10, "tangency of the model fields", t0, 10.0)


def test_criterion_11_companion_gauge():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 11)
    for trial in range(10):
        m = rng.choice((1, 2, 3, 4))
        f = USeries("w", 14, {0: 1, 1: Fraction(rng.randint(-2, 2), 2),
                              3: Fraction(rng.randint(-2, 2), 3)})
        g = USeries("w", 14, {1: 1,
                              m + 1: Fraction(rng.randint(-2, 2), 2),
                              m + 2: Fraction(rng.randint(-2, 2), 3)})
        F = ScalarGauge(f, g)
        Gc = companion_gauge(F, m)
        Fi, Gi = gauge_inverse(F), gauge_inverse(Gc)
        assert Fi.g.equal_mod(Gi.g, 10)
        lhs = Fi.g.derivative().shift_up(m)
        rhs = Gi.g.pow_int(m) * Fi.f * Gi.f
        assert (lhs - rhs).truncate(10).is_zero()
        back = companion_gauge(Gc, m)
        assert back.f.equal_mod(F.f, 9) and back.g.equal_mod(F.g, 9)
    _done(11, "companion gauge", t0, 10.0)
