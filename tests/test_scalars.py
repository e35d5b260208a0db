from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from segreode.errors import DomainError
from segreode.scalars import GaussRational, I, gauss_sqrt_exact, parse_gauss


def test_field_ops():
    x = GaussRational(Fraction(1, 2), Fraction(-3, 4))
    y = GaussRational(2, 1)
    assert x + y == GaussRational(Fraction(5, 2), Fraction(1, 4))
    assert x * y == GaussRational(Fraction(1, 2) * 2 - Fraction(-3, 4),
                                  Fraction(1, 2) + Fraction(-3, 4) * 2)
    assert (x / y) * y == x
    assert I * I == GaussRational(-1)
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).im == 0
    assert x.abs2() == Fraction(1, 4) + Fraction(9, 16)


def test_division_by_zero():
    with pytest.raises(DomainError):
        GaussRational(1) / GaussRational(0)


def test_parse():
    assert parse_gauss("3") == GaussRational(3)
    assert parse_gauss("-1/2") == GaussRational(Fraction(-1, 2))
    assert parse_gauss("2i") == GaussRational(0, 2)
    assert parse_gauss("i/3") == GaussRational(0, Fraction(1, 3))
    assert parse_gauss("1+2i") == GaussRational(1, 2)
    assert parse_gauss("1/2-3i/4") == GaussRational(Fraction(1, 2), Fraction(-3, 4))
    assert parse_gauss("3/4i") == GaussRational(0, Fraction(3, 4))
    assert parse_gauss("-i") == GaussRational(0, -1)


@pytest.mark.parametrize("bad", ["", "1/0", "i/0", "2x", "1++", "1 2", "(3)"])
def test_parse_rejects(bad):
    with pytest.raises(DomainError):
        parse_gauss(bad)


def test_str_roundtrip():
    vals = [GaussRational(0), GaussRational(2), GaussRational(0, -1),
            GaussRational(Fraction(1, 2), Fraction(-3, 4)), GaussRational(-2, 5)]
    for v in vals:
        assert parse_gauss(str(v)) == v


def test_exact_sqrt():
    assert gauss_sqrt_exact(GaussRational(4)) == GaussRational(2)
    r = gauss_sqrt_exact(GaussRational(0, 2))   # sqrt(2i) = 1 + i
    assert r * r == GaussRational(0, 2)
    assert gauss_sqrt_exact(GaussRational(2)) is None
    assert gauss_sqrt_exact(GaussRational(-1)) == GaussRational(0, 1) or \
        gauss_sqrt_exact(GaussRational(-1)) * gauss_sqrt_exact(GaussRational(-1)) \
        == GaussRational(-1)


def test_hash_matches_int_and_fraction():
    assert len({GaussRational(3), 3, Fraction(3)}) == 1
    assert Fraction(-1, 2) in {GaussRational(Fraction(-1, 2))}
    assert GaussRational(0, 1) not in {0, 1}


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.one_of(st.integers(-3, 3), fractions,
                    st.builds(GaussRational, fractions, fractions),
                    st.builds(GaussRational, fractions))


@given(scalars, scalars)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
