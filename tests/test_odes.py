from fractions import Fraction

from segreode.odes import P0Ode, Poly2, tresse, tresse_l1, tresse_l2, validate_p0
from segreode.scalars import GaussRational
from segreode.segre import build_real
from segreode.series import ULaurent, USeries

from conftest import rnd_structure_data

T = 12


def family_ode(gamma, trunc=T):
    B = USeries(trunc=trunc, terms={0: GaussRational(0, 2), 3: GaussRational(-4)})
    E = USeries(trunc=trunc, terms={4: GaussRational(Fraction(gamma))})
    z = USeries.zero(trunc=trunc)
    return P0Ode(4, z, B, z, z, E, z)


def test_validate_family():
    assert validate_p0(family_ode(1)) == []
    assert validate_p0(family_ode(0)) == []


def test_validate_detects_injected_c():
    ode = family_ode(1)
    bad = P0Ode(4, ode.A, ode.B, USeries.monomial(1, 1, trunc=T), ode.D,
                ode.E, ode.F)
    report = validate_p0(bad)
    assert len(report) == 1
    assert "C" in report[0].relation and report[0].first_degree == 1


def test_validate_builder_outputs(rng):
    for _ in range(8):
        ode = build_real(rnd_structure_data(rng))
        assert validate_p0(ode) == []


def test_tresse_flat_and_quadratic():
    flat = Poly2()
    assert tresse(flat, "L1").is_zero() and tresse(flat, "L2").is_zero()
    quad = Poly2({(2, 0): ULaurent.monomial(0, 1, "w", T)})
    l2 = tresse_l2(quad)
    assert l2.coeffs == {(0, 0): ULaurent.monomial(0, 12, "w", T)}
    assert tresse_l1(quad).is_zero()


def test_tresse_vanishes_on_random_builds(rng):
    for _ in range(6):
        ode = build_real(rnd_structure_data(rng))
        phi = ode.rhs_poly()
        assert tresse_l1(phi).is_zero()
        assert tresse_l2(phi).is_zero()


def test_tresse_detects_broken_relation():
    ode = family_ode(1)
    bad = P0Ode(4, ode.A, ode.B, ode.C,
                USeries.monomial(2, 1, trunc=T), ode.E, ode.F)
    assert not tresse_l2(bad.rhs_poly()).is_zero()


def test_conjugate_involution(rng):
    for _ in range(5):
        ode = build_real(rnd_structure_data(rng))
        assert ode.conjugate().conjugate() == ode
    ode = family_ode(1)
    conj = ode.conjugate()
    assert conj.B == USeries(trunc=T, terms={0: GaussRational(0, -2),
                                             3: GaussRational(-4)})
    assert conj.E == ode.E


def test_conjugation_preserves_validity(rng):
    ode = build_real(rnd_structure_data(rng))
    assert validate_p0(ode.conjugate()) == []


