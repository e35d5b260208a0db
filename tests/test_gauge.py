import random
from fractions import Fraction

import pytest

from segreode import backend, gauge as gauge_mod
from segreode.errors import DomainError, PrecisionError
from segreode.gauge import (LinSystem, Mat2, PDResult, PDStep, ScalarGauge,
                            companion_gauge, conjugation_residual,
                            divergence_report, formal_fundamental,
                            formal_solution_coeffs, gauge_chi_tau,
                            linear_family, monodromy_at_infinity,
                            poincare_dulac, reversion, riccati_check,
                            to_system, transform_ode_by_gauge)
from segreode.odes import P0Ode
from segreode.scalars import GaussRational
from segreode.series import ULaurent, USeries

from conftest import SEED, rnd_fraction

G = GaussRational
ZERO, ONE = G(0), G(1)
TWO_I = G(0, 2)


def test_to_system_model_matrices():
    sys_ = to_system(linear_family(1, trunc=20))
    assert sys_.pole == 4
    assert sys_.A.coeff_matrix(0) == ((ZERO, ZERO), (ZERO, TWO_I))
    assert sys_.A.coeff_matrix(1) == ((ZERO, ONE), (ZERO, ZERO))
    assert sys_.A.coeff_matrix(2) == ((ZERO, ZERO), (ZERO, ZERO))
    assert sys_.A.coeff_matrix(3) == ((ZERO, ZERO), (ONE, G(-1)))


def test_to_system_gamma_zero():
    sys_ = to_system(linear_family(0, trunc=20))
    assert sys_.A.coeff_matrix(3) == ((ZERO, ZERO), (ZERO, G(-1)))


def test_to_system_flat_m2():
    z = USeries.zero(trunc=12)
    flat2 = P0Ode(2, z, z, z, z, z, z)
    sys_ = to_system(flat2)
    # u = z'w gives the (0, w; 0, w)/w^2 record, which pole-minimizes to
    # the Fuchsian (0, 1; 0, 1)/w form
    assert sys_.pole == 1
    assert sys_.A[0, 1].equal_mod(USeries.constant(1, trunc=10), 10)
    assert sys_.A[1, 1].equal_mod(USeries.constant(1, trunc=10), 10)
    assert sys_.A[0, 0].is_zero() and sys_.A[1, 0].is_zero()


def test_to_system_rejects_nonlinear():
    ode = linear_family(1, trunc=16)
    bad = P0Ode(4, USeries.monomial(1, 1, trunc=16), ode.B,
                ode.C, ode.D, ode.E, ode.F)
    with pytest.raises(DomainError):
        to_system(bad)


def test_poincare_dulac_reproduces_steps_and_normal_form():
    sys_ = to_system(linear_family(1, trunc=24))
    pd = poincare_dulac(sys_, 16)
    # first homological step: entry 1/(2i) in the (1,2) slot
    h1 = pd.step_matrix(1)
    assert h1 == ((ZERO, ONE / TWO_I), (ZERO, ZERO))
    # degree-3 step: entry -gamma/(2i) in the (2,1) slot, gamma = 1
    h3 = pd.step_matrix(3)
    assert h3 == ((ZERO, ZERO), (G(-1) / TWO_I, ZERO))
    # normal form: diag(0, 2i)/w^4 + diag(0, -1)/w, nothing else
    nf = pd.normal_form
    assert nf.A[0, 0].is_zero() and nf.A[0, 1].is_zero() and nf.A[1, 0].is_zero()
    assert nf.A[1, 1] == USeries("w", 17, {0: TWO_I, 3: G(-1)})
    assert pd.residues == ((3, (ZERO, G(-1))),)
    assert pd.obstructions == ()


def test_poincare_dulac_conjugation_identity():
    for gamma in (0, 1, Fraction(-2, 3)):
        sys_ = to_system(linear_family(gamma, trunc=20))
        pd = poincare_dulac(sys_, 12)
        assert conjugation_residual(sys_, pd).is_zero()


def _reference_poincare_dulac(sys, order):
    """Degreewise normalization with full 2x2 series products by T and T^-1.

    The straightforward form of ``poincare_dulac``: every step inverts
    T = I + H w^k through its determinant and multiplies the dense
    matrices at full truncation.
    """
    lead = sys.A.coeff_matrix(0)
    lam = (lead[0][0], lead[1][1])
    p = sys.pole
    var = sys.var
    trunc = min(e.trunc for row in sys.A.a for e in row)
    cur = sys.A
    gauge = Mat2.identity(var, trunc)
    steps, residues, obstructions = [], [], []

    def apply_factor(cur, gauge, H, k):
        T = Mat2.identity(var, trunc) + Mat2.from_consts(H, var, trunc).map(
            lambda e: e.shift_up(k).truncate(trunc))
        Dterm = Mat2.from_consts(H, var, trunc).map(
            lambda e: (e * k).shift_up(k + p - 1).truncate(trunc))
        a = T.a
        dinv = (a[0][0] * a[1][1] - a[0][1] * a[1][0]).invert_unit()
        Tinv = Mat2(((a[1][1] * dinv, -a[0][1] * dinv),
                     (-a[1][0] * dinv, a[0][0] * dinv)))
        return Tinv * (cur * T - Dterm), gauge * T

    for k in range(1, order + 1):
        B = cur.coeff_matrix(k)
        H = [[ZERO, ZERO], [ZERO, ZERO]]
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
            cur, gauge = apply_factor(cur, gauge, H, k)
            steps.append(PDStep("offdiag" if p != 1 else "fuchsian", k, k,
                                tuple(tuple(r) for r in H)))
        if p >= 2:
            B = cur.coeff_matrix(k)
            diag = (B[0][0], B[1][1])
            if k >= p:
                if diag[0] or diag[1]:
                    jord = k - p + 1
                    S = [[diag[0] / jord, ZERO], [ZERO, diag[1] / jord]]
                    cur, gauge = apply_factor(cur, gauge, S, jord)
                    steps.append(PDStep("diag", k, jord, tuple(tuple(r) for r in S)))
            elif diag[0] or diag[1]:
                residues.append((k, diag))
    nf = LinSystem(p, cur.truncate(min(trunc, order + 1)))
    return PDResult(nf, gauge, tuple(steps), tuple(residues),
                    tuple(obstructions), order)


def _assert_same_pd(got, want):
    assert got.steps == want.steps
    assert got.residues == want.residues
    assert got.obstructions == want.obstructions
    assert got.order == want.order
    assert got.normal_form.pole == want.normal_form.pole
    for mine, ref in ((got.gauge, want.gauge), (got.normal_form.A, want.normal_form.A)):
        for i in range(2):
            for j in range(2):
                assert mine[i, j].trunc == ref[i, j].trunc
                assert mine[i, j] == ref[i, j]
    assert got == want


@pytest.mark.parametrize("gamma", [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2),
                                   Fraction(2, 3), Fraction(-2, 3)])
def test_poincare_dulac_matches_reference(gamma):
    for order in (8, 16, 32):
        sys_ = to_system(linear_family(gamma, trunc=order + 6))
        _assert_same_pd(poincare_dulac(sys_, order + 2),
                        _reference_poincare_dulac(sys_, order + 2))


@pytest.mark.parametrize("gamma", [1, -2, Fraction(-1, 2), Fraction(2, 3)])
def test_fuchsian_poincare_dulac_matches_reference(gamma):
    for trunc, order in ((16, 10), (30, 20)):
        sys_ = monodromy_at_infinity(to_system(linear_family(gamma, trunc=trunc))).system
        assert sys_.pole == 1
        pd = poincare_dulac(sys_, order)
        assert any(s.kind == "fuchsian" for s in pd.steps)
        _assert_same_pd(pd, _reference_poincare_dulac(sys_, order))


def test_formal_solution_recurrence_values():
    a = formal_solution_coeffs(1, 8)
    assert a[0] == ONE
    assert a[1] == G(0, Fraction(1, 2))
    assert a[2] == G(Fraction(-1, 8))
    b = formal_solution_coeffs(0, 8)
    assert all(x == (ONE if k == 0 else ZERO) for k, x in enumerate(b))


def test_formal_fundamental_consistency():
    fhat, ghat = formal_fundamental(1, 14)
    assert fhat.coeff(0) == ONE and ghat.coeff(1) == ONE
    # the gauge's (1,1) entry must equal the recurrence solution
    pd = poincare_dulac(to_system(linear_family(1, trunc=20)), 16)
    assert pd.gauge[0, 0].equal_mod(fhat, 13)
    # u-component consistency: gauge (2,1) entry = w^3 fhat'
    assert pd.gauge[1, 0].equal_mod(fhat.derivative().shift_up(3), 13)


def test_formal_fundamental_gamma_zero_is_exactly_trivial():
    fhat, ghat = formal_fundamental(0, 12)
    assert fhat == USeries.constant(1, trunc=12)
    assert ghat == USeries.monomial(1, 1, trunc=12)


def _poincare_dulac_ghat(gamma, order):
    """ghat the long way: entry (0, 1) of the Poincare-Dulac gauge, made monic."""
    pd = poincare_dulac(to_system(linear_family(gamma, trunc=order + 6)), order + 2)
    graw = pd.gauge[0, 1]
    return (graw * (1 / graw.coeff(1))).truncate(order)


@pytest.mark.parametrize("gamma", [1, -2, Fraction(1, 2), Fraction(-2, 3), 0, 5])
def test_formal_fundamental_ghat_matches_poincare_dulac(gamma):
    for order in (8, 16, 48):
        _, ghat = formal_fundamental(gamma, order)
        assert ghat == _poincare_dulac_ghat(gamma, order)
        assert ghat.trunc == order


def test_formal_fundamental_rejects_nonreal_gamma(monkeypatch):
    def no_work(*args, **kw):
        raise AssertionError("formal_fundamental did work on a non-real gamma")
    for name in ("linear_family", "formal_solution_coeffs", "_formal_numerators"):
        monkeypatch.setattr(gauge_mod, name, no_work)
    for gamma in (G(0, 1), G(1, Fraction(-1, 2))):
        with pytest.raises(DomainError, match="family parameter must be real"):
            formal_fundamental(gamma, 8)


def test_second_solution_solves_ode():
    # ghat * w^-1 * exp(-2i/(3 w^3)) is a formal solution: after dividing
    # the exponential out, the Laurent-coefficient residual must vanish.
    gamma = 1
    fhat, ghat = formal_fundamental(gamma, 14)
    ode = linear_family(gamma, trunc=18)
    P, Q = ode.first_order_coeffs()
    gt = ULaurent(ghat, 1)                      # ghat / w
    p_exp = ULaurent.monomial(-4, TWO_I, trunc=18)   # (e^...)'/e^... = 2i w^-4
    lhs = (gt.derivative().derivative()
           + gt.derivative() * p_exp * 2
           + gt * (p_exp.derivative() + p_exp * p_exp))
    rhs = P * (gt.derivative() + gt * p_exp) + Q * gt
    assert (lhs - rhs).truncate(7).is_zero()


def test_gauge_chi_tau_shapes():
    for gamma in (1, 5, Fraction(-2, 3)):
        fhat, ghat = formal_fundamental(gamma, 14)
        g = gauge_chi_tau(fhat, ghat)
        assert g.f.coeff(0) == ONE
        dev = g.g - USeries.monomial(1, 1, "w", g.g.trunc)
        assert dev.is_zero() or dev.order() >= 5
        assert g.g.trunc >= 5
    # identity data gives the identity gauge
    fhat = USeries.constant(1, trunc=12)
    ghat = USeries.monomial(1, 1, trunc=12)
    assert _trivial_gauge(gauge_chi_tau(fhat, ghat))


def _max_bits(coeffs):
    return max((max(abs(a), abs(b)).bit_length() for a, b in coeffs.values()), default=0)


def test_gauge_chi_tau_operands_stay_the_size_of_fhat(monkeypatch):
    # an exp that scales each grade E_n up to n! den^n E_n to keep it
    # integral feeds mul1 operands that grow linearly in the order
    fhat, ghat = formal_fundamental(1, 96)
    largest = [0]
    mul1 = backend.mul1

    def spy(ca, cb, trunc):
        largest[0] = max(largest[0], _max_bits(ca), _max_bits(cb))
        return mul1(ca, cb, trunc)
    monkeypatch.setattr(backend, "mul1", spy)
    gauge_chi_tau(fhat, ghat)
    assert 0 < largest[0] <= 2 * max(_max_bits(fhat.coeffs), fhat.den.bit_length())


def test_kept_mul1_pairs_and_inversions_of_one_chain(monkeypatch):
    # One gauge chain at gamma = 1, order 48, its pairs counted one by one,
    # not by the kernel.  Newton steps that skip the degrees they know, and
    # chain-rule terms built once per gauge, keep 24,472 pairs in 13
    # inversions; full-width steps and terms built per transport kept
    # 32,214 pairs in 15.
    kept, inversions = [0], [0]
    mul1, invert_unit = backend.mul1, USeries.invert_unit

    def counted(ca, cb, trunc):
        kept[0] += sum(da + db < trunc for da in ca for db in cb)
        return mul1(ca, cb, trunc)

    def count_invert(self):
        inversions[0] += 1
        return invert_unit(self)
    monkeypatch.setattr(backend, "mul1", counted)
    monkeypatch.setattr(USeries, "invert_unit", count_invert)
    order = 48
    straight = gauge_chi_tau(*formal_fundamental(1, order))
    target, base = linear_family(1, trunc=order + 4), linear_family(0, trunc=order + 4)
    assert transform_ode_by_gauge(base, straight, target=target).matches_target()
    assert transform_ode_by_gauge(target, straight, target=base,
                                  direction="pushforward").matches_target()
    companion_gauge(straight, 4)
    assert kept[0] <= 24_500 and inversions[0] <= 13, (kept[0], inversions[0])


def _trivial_gauge(F):
    return (F.f - 1).is_zero() and (F.g - USeries.monomial(1, 1, F.var, F.g.trunc)).is_zero()


def test_tau_deviation_order_exactly_five():
    fhat, ghat = formal_fundamental(1, 14)
    g = gauge_chi_tau(fhat, ghat)
    assert (g.g - USeries.monomial(1, 1, "w", g.g.trunc)).order() == 5


def test_reversion_and_compose():
    rng = random.Random(5)
    for _ in range(6):
        g = USeries("w", 14, {1: 1, **{d: rnd_fraction(rng) for d in range(2, 6)}})
        h = reversion(g)
        assert g.eval_at(h).equal_mod(USeries.monomial(1, 1, trunc=14))
        assert h.eval_at(g).equal_mod(USeries.monomial(1, 1, trunc=14))


def test_reversion_returned_truncation():
    # Newton divides by g', known one degree less than g: the inverse is
    # exact below g.trunc - 1, unless g is exactly linear
    for trunc in (3, 4, 9, 14):
        g = USeries("w", trunc, {1: 2, 2: Fraction(1, 3)})
        assert reversion(g).trunc == trunc - 1
    for trunc in (2, 3, 14):
        h = reversion(USeries.monomial(1, G(3, 1), trunc=trunc))
        assert h == USeries.monomial(1, 1 / G(3, 1), trunc=trunc)


def test_gauge_group_laws():
    rng = random.Random(6)
    def rand_gauge():
        f = USeries("w", 12, {0: 1, **{d: rnd_fraction(rng) for d in (1, 2, 3)}})
        g = USeries("w", 12, {1: 1, **{d: rnd_fraction(rng) for d in (2, 3)}})
        return ScalarGauge(f, g)
    for _ in range(4):
        F, Gg = rand_gauge(), rand_gauge()
        FGinv = F.compose(Gg).inverse()
        GinvFinv = Gg.inverse().compose(F.inverse())
        assert FGinv.f.equal_mod(GinvFinv.f, 10)
        assert FGinv.g.equal_mod(GinvFinv.g, 10)
        Fid = F.compose(F.inverse())
        assert Fid.f.equal_mod(USeries.constant(1, trunc=10), 10)
        assert Fid.g.equal_mod(USeries.monomial(1, 1, trunc=10), 10)


def test_transform_identity_and_scaling():
    ode = linear_family(1, trunc=16)
    ident = ScalarGauge.identity("w", 16)
    moved = transform_ode_by_gauge(ode, ident, target=ode)
    assert moved.matches_target()
    # (z, 2w) preserves the flat ODE
    z = USeries.zero(trunc=16)
    flat = P0Ode(1, z, z, z, z, z, z)
    doubler = ScalarGauge(USeries.constant(1, trunc=16),
                          USeries.monomial(1, 2, trunc=16))
    moved = transform_ode_by_gauge(flat, doubler, target=flat)
    assert moved.matches_target()


def test_transform_functoriality():
    ode = linear_family(1, trunc=16)
    f1 = ScalarGauge(USeries("w", 16, {0: 1, 2: Fraction(1, 2)}),
                     USeries("w", 16, {1: 1, 3: Fraction(-1, 3)}))
    f2 = ScalarGauge(USeries("w", 16, {0: 1, 1: Fraction(1, 3)}),
                     USeries("w", 16, {1: 1, 2: Fraction(1, 4)}))
    once = transform_ode_by_gauge(ode, f2)
    # chain: pulling back along f2 then f1 equals pulling along f2 o f1
    mid = _as_linear_ode(once, 16)
    twice = transform_ode_by_gauge(mid, f1)
    composed = transform_ode_by_gauge(ode, f2.compose(f1))
    assert (twice.P - composed.P).truncate(8).is_zero()
    assert (twice.Q - composed.Q).truncate(8).is_zero()


def _as_linear_ode(moved, trunc):
    m = max(moved.P.pole, 1)
    m = max(m, (moved.Q.pole + 1) // 2)
    B = (moved.P * ULaurent.monomial(m, 1, trunc=trunc)).body
    E = (moved.Q * ULaurent.monomial(2 * m, 1, trunc=trunc)).body
    assert (moved.P * ULaurent.monomial(m, 1, trunc=trunc)).pole == 0
    assert (moved.Q * ULaurent.monomial(2 * m, 1, trunc=trunc)).pole == 0
    z = USeries.zero(trunc=B.trunc)
    return P0Ode(m, z, B, z, z, E, z)


def test_gauge_straightens_family_to_base():
    for gamma in (1, Fraction(-2, 3)):
        fhat, ghat = formal_fundamental(gamma, 16)
        gau = gauge_chi_tau(fhat, ghat)
        target = linear_family(gamma, trunc=20)
        base = linear_family(0, trunc=20)
        moved = transform_ode_by_gauge(base, gau, target=target)
        assert moved.matches_target()


def test_riccati_witnesses():
    E0 = linear_family(0, trunc=16)
    E1 = linear_family(1, trunc=16)
    p = ULaurent.monomial(-4, TWO_I, trunc=16)
    assert riccati_check(E0, p).ok
    rep = riccati_check(E1, p)
    assert not rep.ok
    assert rep.residual.pole == 4
    assert rep.residual.body.equal_mod(USeries.constant(1, trunc=16))
    zero_witness = ULaurent.zero(trunc=16)
    assert riccati_check(E0, zero_witness).ok    # the constant solution


def test_divergence_certificate():
    rep = divergence_report(1, 60)
    assert rep.coeffs[1] == G(0, Fraction(1, 2))
    assert rep.coeffs[2] == G(Fraction(-1, 8))
    assert rep.certificate_ok and rep.min_margin >= 1
    rep2 = divergence_report(Fraction(-2, 3), 60)
    assert rep2.certificate_ok
    with pytest.raises(DomainError):
        divergence_report(0, 60)
    with pytest.raises(DomainError):
        divergence_report(1, 6)


def test_divergence_certificate_is_sufficient_only():
    # at gamma = -3 the ratio |a_(k+3)/a_k| drops below k/4 at k = 31,
    # so the certificate fails at the CLI default of 60 terms
    rep = divergence_report(-3, 60)
    assert not rep.certificate_ok
    assert rep.first_violation == 31
    assert rep.min_margin < 1


def test_divergence_parity_reality():
    # for real parameters the solution coefficients alternate between
    # real (even index) and purely imaginary (odd index)
    for gamma in (1, Fraction(5, 2)):
        a = formal_solution_coeffs(gamma, 40)
        for k, q in enumerate(a):
            assert q.im == 0 if k % 2 == 0 else q.re == 0


ORACLE_GAMMAS = [1, -2, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
                 Fraction(-2, 3), Fraction(-1, 3), 5, -3, -5, -6, Fraction(7, 5),
                 G(0, 1), G(1, 1), G(Fraction(1, 2), Fraction(-1, 3))]


def _coeffs_by_gauss_recurrence(gamma, count):
    """The formal solution the long way: the recurrence run in Q(i)."""
    g = gamma if isinstance(gamma, G) else G(Fraction(gamma))
    a = [ONE]
    for n in range(count - 1):
        # a_{n+1} = [ (n-2)(n+1) a_{n-2} - g a_n ] / (2i (n+1))
        prev = a[n - 2] if n >= 2 else ZERO
        a.append((prev * ((n - 2) * (n + 1)) - g * a[n]) / (TWO_I * (n + 1)))
    return a


def _divergence_by_gauss_recurrence(gamma, count, k_onset):
    """(coeffs, ok, first violation, least margin, its least k) with
    rational margins."""
    a = _coeffs_by_gauss_recurrence(gamma, count + 1)
    ok, first_violation, min_margin, min_k = True, -1, None, -1
    for k in range(k_onset, count - 2):
        ak2 = a[k].abs2()
        if not ak2:
            continue
        margin = a[k + 3].abs2() * 16 / (ak2 * k * k)
        if min_margin is None or margin < min_margin:
            min_margin, min_k = margin, k
        if margin < 1:
            ok = False
            if first_violation < 0:
                first_violation = k
    return tuple(a), ok, first_violation, \
        min_margin if min_margin is not None else Fraction(0), min_k


@pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=str)
def test_formal_solution_coeffs_match_the_gauss_recurrence(gamma):
    for count in (0, 1, 2, 3, 4, 16, 48, 201):
        assert formal_solution_coeffs(gamma, count) == \
            _coeffs_by_gauss_recurrence(gamma, count), count


@pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=str)
def test_divergence_report_matches_the_rational_margins(gamma):
    for count, k_onset in ((60, 10), (200, 10), (12, 1), (40, 37)):
        rep = divergence_report(gamma, count, k_onset)
        got = (rep.coeffs, rep.certificate_ok, rep.first_violation, rep.min_margin,
               rep.min_margin_k)
        assert got == _divergence_by_gauss_recurrence(gamma, count, k_onset), \
            (count, k_onset)
        assert type(rep.min_margin) is Fraction


@pytest.mark.parametrize("gamma", [g for g in ORACLE_GAMMAS if not isinstance(g, G)],
                         ids=str)
def test_formal_fundamental_matches_the_gauss_recurrence(gamma):
    for order in (1, 5, 16, 48):
        fhat, _ = formal_fundamental(gamma, order)
        assert fhat == USeries("w", order, dict(enumerate(
            _coeffs_by_gauss_recurrence(gamma, order))))


def _is_euler(nf, lam, order):
    """Is nf the Euler system t y' = diag(lam) y up to degree ``order``?"""
    return nf.pole == 1 and all(
        nf.A[i, j].equal_mod(USeries.constant(lam[i] if i == j else 0, "t", order + 1), order)
        for i in range(2) for j in range(2))


def test_monodromy_trivial_family():
    for gamma in (0, 1, 5):
        rep = monodromy_at_infinity(to_system(linear_family(gamma, trunc=16)))
        assert rep.trivial and rep.order == 1
        assert rep.eigenvalues == (G(0), G(1))
        assert rep.obstructions == ()
        pd = poincare_dulac(rep.system, 10)
        assert pd.obstructions == ()
        assert _is_euler(pd.normal_form, rep.eigenvalues, 10)


def _system(pole, rows, trunc):
    """LinSystem(pole, A) from rows of degree-ascending coefficient lists."""
    return LinSystem(pole, Mat2(tuple(tuple(USeries("w", trunc, dict(enumerate(c)))
                                            for c in row) for row in rows)))


def test_monodromy_log_term_is_not_trivial():
    # residue diag(0, 1) with a nonzero resonant entry at degree 1: a log term
    rep = monodromy_at_infinity(_system(2, [[[0], [0]], [[1], [0, -1]]], 8))
    assert rep.eigenvalues == (ZERO, ONE)
    assert rep.order == 1 and not rep.trivial
    assert rep.obstructions == ((1, (1, 0), G(-1)),)


def test_monodromy_non_integer_eigenvalues_is_not_trivial():
    rep = monodromy_at_infinity(_system(2, [[[0], [0]], [[0], [0, Fraction(-1, 2)]]], 8))
    assert rep.eigenvalues == (ZERO, G(Fraction(1, 2)))
    assert rep.order == 0 and not rep.trivial
    assert rep.obstructions == ()


@pytest.mark.parametrize("N, coeff", [(3, G(Fraction(-1, 4))), (5, G(Fraction(1, 64)))])
def test_monodromy_resonance_beyond_the_w_box(N, coeff):
    # the resonant degree N lies past the w-truncation 2 or 3; the system
    # at infinity is a polynomial, so the verdict may not depend on it
    for trunc in (2, 3, 16):
        rep = monodromy_at_infinity(_system(2, [[[-1], [-1]], [[-1], [-1, -N]]], trunc))
        assert rep.order == N and not rep.trivial
        assert rep.obstructions == ((N, (1, 0), coeff),)


def test_monodromy_refuses_a_system_known_below_its_pole():
    sys_ = to_system(linear_family(1, trunc=4))
    assert sys_.trunc < sys_.pole
    with pytest.raises(PrecisionError, match="residue"):
        monodromy_at_infinity(sys_)


BENCH_GAMMAS = [-2, -1, Fraction(-2, 3), Fraction(-1, 2), Fraction(-1, 3),
                Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, 2]


@pytest.mark.parametrize("gamma", BENCH_GAMMAS, ids=str)
def test_monodromy_resonance_order_agrees_with_order_ten(gamma):
    rep = monodromy_at_infinity(to_system(linear_family(gamma)))
    pd = poincare_dulac(rep.system, 10)
    assert rep.trivial == (all(e.is_integer() for e in rep.eigenvalues)
                           and not pd.obstructions
                           and _is_euler(pd.normal_form, rep.eigenvalues, 10))


def test_monodromy_costs_no_division_and_few_products(monkeypatch):
    sys_ = to_system(linear_family(1))
    calls = {"mul1": 0, "invert_unit": 0}
    mul1, invert_unit = backend.mul1, USeries.invert_unit

    def count_mul1(*args):
        calls["mul1"] += 1
        return mul1(*args)

    def count_invert(self):
        calls["invert_unit"] += 1
        return invert_unit(self)
    monkeypatch.setattr(backend, "mul1", count_mul1)
    monkeypatch.setattr(USeries, "invert_unit", count_invert)
    assert monodromy_at_infinity(sys_).trivial
    assert calls["invert_unit"] == 0 and calls["mul1"] == 0


def test_companion_gauge_basics():
    ident = ScalarGauge.identity("w", 14)
    assert _trivial_gauge(companion_gauge(ident, 3))
    F = ScalarGauge(USeries.constant(1, trunc=14), USeries.monomial(1, 2, trunc=14))
    Gc = companion_gauge(F, 1)
    assert Gc.f.equal_mod(USeries.constant(1, trunc=12), 10)
    assert Gc.g.equal_mod(USeries.monomial(1, 2, trunc=12), 10)


def _twin_equations_hold(F, Gc, m, order):
    Fi, Gi = F.inverse(), Gc.inverse()
    f, g = Fi.f, Fi.g
    lam, mu = Gi.f, Gi.g
    if not g.equal_mod(mu, order):
        return False
    lhs = g.derivative().shift_up(m)
    rhs = mu.pow_int(m) * f * lam
    return (lhs - rhs).truncate(order).is_zero()


def test_companion_gauge_random(rng):
    for trial in range(10):
        m = rng.choice((1, 2, 3, 4))
        f = USeries("w", 14, {0: 1, **{d: rnd_fraction(rng) for d in (1, 2, 4)}})
        g = USeries("w", 14, {1: 1, **{d: rnd_fraction(rng)
                                       for d in (m + 1, m + 2)}})
        F = ScalarGauge(f, g)
        Gc = companion_gauge(F, m)
        assert _twin_equations_hold(F, Gc, m, 10)
        back = companion_gauge(Gc, m)
        assert back.f.equal_mod(F.f, 9) and back.g.equal_mod(F.g, 9)


def test_companion_of_family_gauge_is_conjugate():
    fhat, ghat = formal_fundamental(1, 16)
    F = gauge_chi_tau(fhat, ghat)
    Gc = companion_gauge(F, 4)
    assert Gc.f.equal_mod(F.f.conjugate(), Gc.f.trunc - 1)
    assert Gc.g.equal_mod(F.g.conjugate(), Gc.g.trunc - 1)


def _companion_by_inversion(F, m):
    """The companion by its definition: invert F, apply the coupling
    conditions to the inverse, and invert the resulting pair."""
    Fi = F.inverse()
    f, g = Fi.f, Fi.g
    lam = g.derivative() * (g.divide_monomial(1).pow_int(m) * f).invert_unit()
    return ScalarGauge(lam, g).inverse()


def _assert_companion_matches_oracle(F, m):
    Gc, oracle = companion_gauge(F, m), _companion_by_inversion(F, m)
    assert oracle.f.trunc <= Gc.f.trunc and oracle.g.trunc <= Gc.g.trunc
    assert Gc.f.equal_mod(oracle.f) and Gc.g.equal_mod(oracle.g)
    # the closed form is an exact involution on gauges with g.trunc = f.trunc + 1
    assert Gc.g.trunc == Gc.f.trunc + 1
    assert companion_gauge(companion_gauge(Gc, m), m) == Gc
    if F.g.trunc == F.f.trunc + 1:
        assert companion_gauge(Gc, m) == F
    return Gc


def test_companion_gauge_matches_inversion_oracle_random():
    # the recipe of test_companion_gauge_random, on a generator of its own
    rng = random.Random(SEED)
    for trial in range(10):
        m = rng.choice((1, 2, 3, 4))
        f = USeries("w", 14, {0: 1, **{d: rnd_fraction(rng) for d in (1, 2, 4)}})
        g = USeries("w", 14, {1: 1, **{d: rnd_fraction(rng)
                                       for d in (m + 1, m + 2)}})
        _assert_companion_matches_oracle(ScalarGauge(f, g), m)


@pytest.mark.parametrize("order", [5, 8, 16, 48])
@pytest.mark.parametrize("gamma", [1, -2, Fraction(1, 2), Fraction(-2, 3), 0,
                                   Fraction(5, 2)])
def test_companion_of_family_gauge_matches_inversion_oracle(gamma, order):
    F = gauge_chi_tau(*formal_fundamental(gamma, order))
    Gc = _assert_companion_matches_oracle(F, 4)
    assert (Gc.f.trunc, Gc.g.trunc) == (F.f.trunc, F.g.trunc) == (order, order + 1)
    assert Gc.f.equal_mod(F.f.conjugate()) and Gc.g.equal_mod(F.g.conjugate())


# -- transport oracles ---------------------------------------------------------

def _pushforward_by_inversion(ode, F, target):
    """The pushforward as a pullback along the inverted gauge."""
    return transform_ode_by_gauge(ode, F.inverse(), target, "pullback")


def _laurent_at(L, g):
    return ULaurent(L.body.eval_at(g)) * ULaurent(g).pow_int(-L.pole)


def _pullback_by_two_compositions(ode, F, target):
    """The pullback with P and Q composed with g one at a time."""
    f, g = F.f, F.g
    P, Q = ode.first_order_coeffs()
    fp, gp = f.derivative(), g.derivative()
    finv, gpinv = f.invert_unit(), gp.invert_unit()
    Pg, Qg = _laurent_at(P, g), _laurent_at(Q, g)
    lf = ULaurent(fp * finv)
    lg = ULaurent(gp.derivative() * gpinv)
    gpL = ULaurent(gp)
    Pnew = lf * (-2) + lg + gpL * Pg
    Qnew = (ULaurent(fp.derivative() * finv) * (-1) + lf * lg
            + gpL * Pg * lf + gpL * gpL * Qg)
    if target is None:
        return gauge_mod.TransformedOde(Pnew, Qnew)
    tP, tQ = target.first_order_coeffs()
    return gauge_mod.TransformedOde(Pnew, Qnew, Pnew - tP, Qnew - tQ)


def _parts(moved):
    return (moved.P, moved.Q, moved.residual_P, moved.residual_Q)


def _assert_same_transport(got, want):
    """Equal Laurent data, pole and truncation included."""
    for a, b in zip(_parts(got), _parts(want)):
        assert a == b and (a is None or a.trunc == b.trunc)


@pytest.mark.parametrize("order", [8, 16, 48])
@pytest.mark.parametrize("gamma", [1, -2, Fraction(1, 2), Fraction(-2, 3), 0, 5])
def test_transport_along_family_gauge_matches_oracles(gamma, order):
    F = gauge_chi_tau(*formal_fundamental(gamma, order))
    target = linear_family(gamma, trunc=order + 4)
    base = linear_family(0, trunc=order + 4)
    for ode, other in ((target, base), (base, target)):
        for tgt in (other, None):
            _assert_same_transport(transform_ode_by_gauge(ode, F, tgt, "pushforward"),
                                   _pushforward_by_inversion(ode, F, tgt))
            _assert_same_transport(transform_ode_by_gauge(ode, F, tgt),
                                   _pullback_by_two_compositions(ode, F, tgt))
    pushed = transform_ode_by_gauge(target, F, base, "pushforward")
    assert pushed.matches_target()


def test_transport_along_random_gauges_matches_oracles():
    # the recipe of test_companion_gauge_random, on a generator of its own,
    # with f and g scaled so that f(0) != 1 and g'(0) != 1
    rng = random.Random(SEED)
    for trial in range(10):
        m = rng.choice((1, 2, 3, 4))
        f = USeries("w", 14, {0: 1, **{d: rnd_fraction(rng) for d in (1, 2, 4)}})
        g = USeries("w", 14, {1: 1, **{d: rnd_fraction(rng)
                                       for d in (m + 1, m + 2)}})
        F = ScalarGauge(f * Fraction(rng.choice((-1, 2, 3)), rng.choice((1, 5))),
                        g * Fraction(rng.choice((-2, 1, 3)), rng.choice((2, 7))))
        assert F.f.constant_term() != ONE and F.g.coeff(1) != ONE
        gamma = rnd_fraction(rng)
        odes = (linear_family(gamma, trunc=14), linear_family(0, trunc=14))
        # the gauge is polynomial, so a wider box gives the exact reference
        wide = ScalarGauge(F.f.widen(30), F.g.widen(30))
        wide_odes = (linear_family(gamma, trunc=30), linear_family(0, trunc=30))
        for (ode, other), wide_ode in zip((odes, odes[::-1]), wide_odes):
            _assert_same_transport(transform_ode_by_gauge(ode, F, other),
                                   _pullback_by_two_compositions(ode, F, other))
            got = transform_ode_by_gauge(ode, F, other, "pushforward")
            want = _pushforward_by_inversion(ode, F, other)
            exact = transform_ode_by_gauge(wide_ode, wide, None, "pushforward")
            # where a cancellation lowers a pole before the composition
            # with g^-1 rather than after it, the chain rule on the w-side
            # keeps more coefficients than the route through the inverse
            for a, b in zip(_parts(got), _parts(want)):
                assert a.trunc >= b.trunc
                assert (a - b).truncate(b.trunc).is_zero()
            for a, b in zip((got.P, got.Q), (exact.P, exact.Q)):
                assert (a - b).truncate(a.trunc).is_zero()


def test_pushforward_undoes_pullback():
    F = ScalarGauge(USeries("w", 30, {0: 2, 1: Fraction(1, 3), 3: -1}),
                    USeries("w", 30, {1: Fraction(-1, 2), 2: 1, 4: Fraction(2, 5)}))
    ode = linear_family(Fraction(3, 2), trunc=30)
    pulled = transform_ode_by_gauge(ode, F)
    back = transform_ode_by_gauge(_as_linear_ode(pulled, 30), F, direction="pushforward")
    P, Q = ode.first_order_coeffs()
    n = min(back.P.trunc, back.Q.trunc)
    assert n >= 8
    assert (back.P - P).truncate(n).is_zero()
    assert (back.Q - Q).truncate(n).is_zero()


def test_transport_rejects_unknown_direction():
    ode = linear_family(1, trunc=16)
    with pytest.raises(DomainError):
        transform_ode_by_gauge(ode, ScalarGauge.identity("w", 16), direction="sideways")
