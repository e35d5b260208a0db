import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from segreode import backend
from segreode.errors import DomainError, StructureError
from segreode.gauge import linear_family, reversion
from segreode.scalars import GaussRational
from segreode.series import TriSeries, ULaurent, USeries, _combine_shifted, _Series

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
gauss = st.builds(GaussRational, fractions, fractions)


@st.composite
def useries(draw, trunc=10, max_terms=5):
    terms = draw(st.dictionaries(st.integers(0, trunc - 1), gauss,
                                 max_size=max_terms))
    return USeries("w", trunc, terms)


@st.composite
def triseries(draw, truncs=(4, 4, 5), max_terms=5):
    keys = st.tuples(st.integers(0, truncs[0] - 1), st.integers(0, truncs[1] - 1),
                     st.integers(0, truncs[2] - 1))
    return TriSeries(("z", "xi", "eta"), truncs,
                     draw(st.dictionaries(keys, gauss, max_size=max_terms)))


@st.composite
def nilpotent_useries(draw):
    """USeries with zero constant term."""
    trunc = draw(st.integers(1, 10))
    keys = st.integers(1, max(trunc - 1, 1))
    return USeries("w", trunc, draw(st.dictionaries(keys, gauss, max_size=5)))


@st.composite
def nilpotent_triseries(draw):
    """TriSeries with zero constant term, with or without z-free terms."""
    truncs = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)))
    lowest_z = draw(st.sampled_from((0, 1)))
    keys = st.tuples(st.integers(lowest_z, max(truncs[0] - 1, lowest_z)),
                     st.integers(0, truncs[1] - 1), st.integers(0, truncs[2] - 1))
    terms = draw(st.dictionaries(keys.filter(any), gauss, max_size=5))
    return TriSeries(("z", "xi", "eta"), truncs, terms)


@st.composite
def coordinate_useries(draw):
    """g = c w + O(w^2) with c != 0, as reversion takes."""
    trunc = draw(st.integers(2, 10))
    terms = draw(st.dictionaries(st.integers(2, max(trunc - 1, 2)), gauss, max_size=5))
    terms[1] = draw(gauss.filter(lambda q: not q.is_zero()))
    return USeries("w", trunc, terms)


def naive_exp(t):
    """sum_n t^n / n!, summed until the power vanishes in the ring."""
    acc = power = t.ring_one()
    n = 0
    while True:
        n += 1
        power = power * t * Fraction(1, n)
        if power.is_zero():
            return acc
        acc = acc + power


w = USeries.monomial(1, 1, trunc=10)
one = USeries.constant(1, trunc=10)


# -- spec'd examples ------------------------------------------------------

def test_mul_examples():
    assert ((one + w) * (one - w)) == one - USeries.monomial(2, 1, trunc=10)
    prod = ULaurent.monomial(-1, 1) * ULaurent.monomial(1, 1)
    assert prod.pole == 0 and prod.body.equal_mod(one, 10)
    s = USeries(trunc=10, terms={0: GaussRational(0, 2), 3: GaussRational(-4)})
    assert s + USeries.monomial(3, 4, trunc=10) == \
        USeries.constant(GaussRational(0, 2), trunc=10)


def test_derivative_examples():
    assert USeries.monomial(4, 1, trunc=9).derivative() == \
        USeries.monomial(3, 4, trunc=8)
    assert ULaurent.monomial(-3, 1).derivative() == ULaurent.monomial(-4, -3)
    s = one + USeries.monomial(3, GaussRational(0, Fraction(3, 2)), trunc=10)
    assert s.derivative() == USeries.monomial(
        2, GaussRational(0, Fraction(9, 2)), trunc=9)


def test_invert_examples():
    geom = (one - w).invert_unit()
    assert all(geom.coeff(k) == GaussRational(1) for k in range(10))
    assert USeries.constant(GaussRational(0, 2), trunc=10).invert_unit() == \
        USeries.constant(GaussRational(0, Fraction(-1, 2)), trunc=10)
    s = one + w + USeries.monomial(2, 1, trunc=10)
    assert (s * s.invert_unit()).equal_mod(one)
    with pytest.raises(DomainError):
        w.invert_unit()


def test_exp_log_examples():
    e = w.exp()
    assert e.coeff(2) == GaussRational(Fraction(1, 2))
    assert e.coeff(3) == GaussRational(Fraction(1, 6))
    lg = (one + w).log()
    assert lg.coeff(1) == GaussRational(1)
    assert lg.coeff(2) == GaussRational(Fraction(-1, 2))
    assert lg.coeff(3) == GaussRational(Fraction(1, 3))
    s = one + w + USeries.monomial(5, 1, trunc=10)
    assert s.log().exp() == s
    with pytest.raises(DomainError):
        (one + w).exp()
    with pytest.raises(DomainError):
        w.log()


def test_binomial_pow_examples():
    s = (one + w).pow_binomial(Fraction(-1, 3))
    assert s.coeff(1) == GaussRational(Fraction(-1, 3))
    assert s.coeff(2) == GaussRational(Fraction(2, 9))
    cube = (one + w).pow_binomial(Fraction(3))
    assert cube == one + 3 * w + USeries.monomial(2, 3, trunc=10) + \
        USeries.monomial(3, 1, trunc=10)


def test_substitute_examples():
    sq = USeries.monomial(2, 1, trunc=10)
    t = TriSeries(("z", "xi", "eta"), (4, 4, 6),
                  {(0, 0, 1): 1, (1, 1, 1): 1})          # eta(1 + z xi)
    out = sq.eval_at(t)
    assert out.coeff(0, 0, 2) == GaussRational(1)
    assert out.coeff(1, 1, 2) == GaussRational(2)
    assert out.coeff(2, 2, 2) == GaussRational(1)

    geom = (one - w).invert_unit()
    comp = geom.eval_at(USeries.monomial(2, 1, trunc=10))
    assert [comp.coeff(k) for k in range(5)] == \
        [GaussRational(1), GaussRational(0), GaussRational(1), GaussRational(0),
         GaussRational(1)]

    assert w.exp().eval_at((one + w).log()).equal_mod(one + w)


def test_variable_mismatch():
    with pytest.raises(StructureError):
        USeries.monomial(1, 1, var="w") + USeries.monomial(1, 1, var="t")


def test_truncation_above_packed_key_bound_raises():
    # eta^(2**21) would pack to the key of xi
    with pytest.raises(StructureError):
        TriSeries.monomial(0, 0, 2**21, truncs=(3, 3, 2**21 + 4))
    top = TriSeries.monomial(0, 0, 2**20 - 1, 5, truncs=(1, 2**20, 2**20))
    assert list(top.terms()) == [((0, 0, 2**20 - 1), GaussRational(5))]
    with pytest.raises(StructureError):
        top.widen((1, 2**20 + 1, 2**20))
    assert top.integral().truncs == (2, 2**20, 2**20)
    with pytest.raises(StructureError):
        TriSeries.monomial(0, 0, 0, truncs=(2**20, 1, 1)).integral()


def test_exponents_outside_the_box_do_not_alias():
    # 2**21 in the eta slot packs onto the key of xi
    xi = TriSeries.monomial(0, 1, 0, 1, truncs=(3, 3, 4))
    assert xi.coeff(0, 1, 0) == GaussRational(1)
    for exps in ((0, 0, 2**21), (0, 0, 4), (3, 0, 0), (0, 2**21, 0), (0, -1, 2**21)):
        assert xi.coeff(*exps) == GaussRational(0), exps
    assert xi.mul_monomial(0, 0, 2**21) == TriSeries.zero(truncs=(3, 3, 4))
    assert xi.mul_monomial(0, 0, 4).is_zero()
    assert xi.mul_monomial(0, 1, 3) == TriSeries.monomial(0, 2, 3, truncs=(3, 3, 4))
    assert xi.mul_monomial(0, 2, 0).is_zero()
    with pytest.raises(StructureError):         # would pack to (0, 0, 2**21 - 1)
        TriSeries(truncs=(3, 3, 4), terms={(0, 1, -1): 1})


def test_divide_monomial():
    assert USeries.monomial(3, 2, trunc=9).divide_monomial(3) == \
        USeries.constant(2, trunc=6)
    with pytest.raises(DomainError):
        (one + w).divide_monomial(1)


def test_each_shared_operation_has_one_definition():
    for name in ("derivative", "order"):
        for kind in (USeries, ULaurent, TriSeries):
            assert [c for c in kind.__mro__ if name in vars(c)] == [_Series]
    for name in ("integral", "divide_monomial"):
        assert vars(USeries)[name] is vars(TriSeries)[name]
        assert not hasattr(ULaurent, name)


@settings(max_examples=40, deadline=None)
@given(useries(), triseries())
def test_integral_then_derivative_is_the_identity(u, t):
    assert u.integral().trunc == u.trunc + 1
    assert u.integral().derivative() == u
    assert t.integral().truncs == (t.truncs[0] + 1,) + t.truncs[1:]
    assert t.integral().derivative() == t


@settings(max_examples=40, deadline=None)
@given(useries(), triseries())
def test_derivative_lowers_only_its_axis(u, t):
    assert u.derivative().truncs == (u.trunc - 1,)
    for axis in range(3):
        truncs = list(t.truncs)
        truncs[axis] -= 1
        assert t.derivative(axis).truncs == tuple(truncs)


@settings(max_examples=60, deadline=None)
@given(useries(), triseries(), st.integers(0, 4))
def test_divide_monomial_is_exact_or_raises(u, t, n):
    if any(d < n for d, _ in u.terms()):
        with pytest.raises(DomainError):
            u.divide_monomial(n)
    else:
        assert u.divide_monomial(n).shift_up(n) == u
    if any(j < n for (_, _, j) in t.exponents()):
        with pytest.raises(DomainError):
            t.divide_monomial(n)
    else:
        q = t.divide_monomial(n)
        assert q.truncs == t.truncs[:2] + (t.truncs[2] - n,)
        assert q.widen(t.truncs).mul_monomial(0, 0, n) == t


@settings(max_examples=40, deadline=None)
@given(useries(), st.integers(0, 6), triseries())
def test_order_is_the_lowest_total_degree(u, pole, t):
    laurent = ULaurent(u, pole)
    degrees = [d - pole for d, _ in u.terms()]
    assert laurent.order() == (min(degrees) if degrees else None)
    totals = [sum(e) for e in t.exponents()]
    assert t.order() == (min(totals) if totals else None)


def test_laurent_normalization_and_pow():
    x = ULaurent(USeries.monomial(2, 3, trunc=10), 5)
    assert x.pole == 3 and x.body.coeff(0) == GaussRational(3)
    y = ULaurent.monomial(-2, 2, trunc=12)
    assert (y.pow_int(-1) * y).truncate(6) == \
        ULaurent.monomial(0, 1, trunc=12).truncate(6)
    z = ULaurent(one + w)
    assert (z.invert() * z).body.equal_mod(one)


def test_zero_laurent_keeps_its_absolute_truncation():
    # 0/w^8 with a body known modulo w^14 is known modulo w^6 only
    zero = ULaurent(USeries.zero(trunc=14), 8)
    assert zero.is_zero() and zero.pole == 0 and zero.trunc == 6
    assert repr(zero) == "O(w^6)"
    assert zero == ULaurent(USeries.zero(trunc=6)) == ULaurent(USeries.zero(trunc=9), 3)
    assert zero != ULaurent.zero(trunc=14)
    x = ULaurent(USeries.monomial(0, 1, trunc=10), 4)     # w^-4 + O(w^6)
    assert (x - x).trunc == 6
    assert (x - x).derivative().trunc == 5
    # Q = E/w^8 of the gamma = 0 family, with E = 0 known modulo w^14
    Q = linear_family(0, trunc=14).first_order_coeffs()[1]
    assert Q == zero and repr(Q) == "O(w^6)"


@pytest.mark.parametrize("n", range(6))
def test_pow_int_kernel_calls(n, monkeypatch):
    # squaring takes bit_length(n) - 1 squares and popcount(n) - 1
    # products, and no product with one
    want = max(n.bit_length() - 1 + bin(n).count("1") - 1, 0)
    calls = dict.fromkeys(("mul1", "mul3"), 0)

    def counting(name, kernel):
        def run(*args):
            calls[name] += 1
            return kernel(*args)
        return run

    for name in calls:
        monkeypatch.setattr(backend, name, counting(name, getattr(backend, name)))
    u = USeries("w", 8, {0: 1, 1: GaussRational(2, -1), 3: Fraction(1, 3)})
    t = TriSeries(("z", "xi", "eta"), (3, 3, 4),
                  {(0, 0, 0): 1, (1, 0, 1): 2, (0, 1, 2): GaussRational(0, 1)})
    for s, kernel in ((u, "mul1"), (t, "mul3")):
        before = dict(calls)
        got = s.pow_int(n)
        assert calls[kernel] - before[kernel] == want
        assert sum(calls.values()) - sum(before.values()) == want
        expect = s.ring_one()
        for _ in range(n):
            expect = expect * s
        assert got == expect


def test_exp_of_zero_takes_no_product(monkeypatch):
    for kernel in ("mul1", "mul3"):
        monkeypatch.setattr(backend, kernel, None)
    for zero in (USeries.zero("w", 6), TriSeries.zero(truncs=(3, 3, 4)),
                 TriSeries.zero(truncs=(3, 0, 4))):
        assert zero.exp() == zero.ring_one()


# -- hypothesis property tests --------------------------------------------

@settings(max_examples=60, deadline=None)
@given(useries(), useries(), useries())
def test_ring_axioms_univariate(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(triseries(), triseries(), triseries())
def test_ring_axioms_trivariate(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(useries(), useries())
def test_derivation_rule(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(useries())
def test_functional_equations(s):
    unit = s + one - USeries.constant(s.coeff(0), trunc=s.trunc)
    assert (unit.invert_unit() * unit).equal_mod(one)
    assert unit.log().exp().equal_mod(unit)
    powed = unit.pow_binomial(Fraction(-1, 3))
    assert (powed.pow_int(3) * unit).equal_mod(one)


@st.composite
def middle_product_args(draw):
    """(s, x, n) with x of truncation lo <= n <= 2 lo and s known to n or past."""
    lo = draw(st.integers(1, 12))
    n = draw(st.integers(lo, 2 * lo))
    trunc = draw(st.integers(n, n + 3))
    s = USeries("w", trunc, draw(st.dictionaries(st.integers(0, trunc - 1), gauss,
                                                 max_size=8)))
    x = USeries("w", lo, draw(st.dictionaries(st.integers(0, lo - 1), gauss, max_size=8)))
    return s, x, n


def _dense(trunc, seed):
    r = random.Random(seed)
    return USeries("w", trunc, {d: GaussRational(r.randint(-5, 5), r.randint(-5, 5))
                                for d in range(trunc)})


@settings(max_examples=80, deadline=None)
@given(middle_product_args())
@example((USeries("w", 2, {0: 3, 1: 1}), USeries("w", 1, {0: Fraction(1, 3)}), 2))
@example((_dense(8, 1), _dense(6, 2), 8))                   # last step: n < 2 lo - 1
@example((USeries("w", 9, {0: 1, 7: GaussRational(0, 1)}), _dense(5, 3), 9))
@example((USeries("w", 10, {0: 1, 2: 2}), _dense(5, 4), 10))  # nothing at or above lo
@example((USeries("w", 7, {0: GaussRational(2, 1), 1: 1, 4: -1}), _dense(4, 5), 7))
@example((USeries("w", 7, {1: 1, 5: 2}), _dense(4, 6), 6))
def test_middle_product_is_the_full_product_on_lo_to_n(args):
    s, x, n = args
    lo = x.trunc
    full = s.truncate(n) * x.widen(n)
    mid = s._middle_product(x, n)
    assert mid.trunc == n
    assert all(mid.coeff(d) == (full.coeff(d) if d >= lo else 0) for d in range(n))


def _newton_inverse(s):
    """1/s by full-width Newton steps x -> x (2 - s x) up the ladder 1, 2, 4, ..."""
    inv = USeries.constant(1 / s.constant_term(), s.var, 1)
    n = 1
    while n < s.trunc:
        n = min(2 * n, s.trunc)
        inv = inv.widen(n)
        inv = inv * (2 - s.truncate(n) * inv)
    return inv


@st.composite
def units(draw):
    trunc = draw(st.integers(1, 24))
    terms = draw(st.dictionaries(st.integers(1, max(trunc - 1, 1)), gauss, max_size=10))
    terms[0] = draw(gauss.filter(lambda q: not q.is_zero()))
    return USeries("w", trunc, terms)


@settings(max_examples=60, deadline=None)
@given(units(), st.integers(1, 24))
def test_invert_unit_matches_full_newton_and_is_truncation_honest(s, cut):
    inv = s.invert_unit()
    assert inv == _newton_inverse(s)
    assert s.truncate(cut).invert_unit() == inv.truncate(cut)


@settings(max_examples=40, deadline=None)
@given(triseries())
def test_trivariate_conjugation_involution(t):
    assert t.conjugate().conjugate() == t
    assert t.swap_zx().swap_zx() == t


@st.composite
def eta_axis_pairs(draw):
    """Two TriSeries with every term at (0, 0, j), on boxes that differ in
    eta only, and their slices as USeries."""
    tz, tx = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    out = []
    for te in draw(st.tuples(st.integers(1, 8), st.integers(1, 8))):
        terms = draw(st.dictionaries(st.integers(0, te - 1), gauss, max_size=5))
        out.append(TriSeries(("z", "xi", "eta"), (tz, tx, te),
                             {(0, 0, j): q for j, q in terms.items()}))
        out.append(USeries("w", te, terms))
    return out


@settings(max_examples=80, deadline=None)
@given(eta_axis_pairs(), gauss, st.integers(0, 4), st.integers(0, 9))
def test_both_arities_share_the_ring(pairs, c, n, cut):
    """On the eta axis, every core op agrees with its univariate twin."""
    a, ua, b, ub = pairs
    assert a.slice_eta(0, 0) == ua and b.slice_eta(0, 0) == ub
    # the univariate side against coefficientwise sums, on the meet of the boxes
    top = min(ua.trunc, ub.trunc)
    assert ua + ub == USeries("w", top, {j: ua.coeff(j) + ub.coeff(j) for j in range(top)})
    assert ua * ub == USeries("w", top, {
        j: sum((ua.coeff(i) * ub.coeff(j - i) for i in range(j + 1)), GaussRational(0))
        for j in range(top)})
    assert (a + b).slice_eta(0, 0) == ua + ub
    assert (a - b).slice_eta(0, 0) == ua - ub
    assert (a * b).slice_eta(0, 0) == ua * ub
    assert (a * c).slice_eta(0, 0) == ua * c
    assert (a + c).slice_eta(0, 0) == ua + c
    assert (-a).slice_eta(0, 0) == -ua
    assert a.pow_int(n).slice_eta(0, 0) == ua.pow_int(n)
    assert a.truncate((3, 3, cut)).slice_eta(0, 0) == ua.truncate(cut)
    assert a.conjugate().slice_eta(0, 0) == ua.conjugate()
    assert (a == b) == (ua == ub)
    t, ut = a - a.constant_term(), ua - ua.constant_term()
    assert t.exp().slice_eta(0, 0) == ut.exp()
    assert (t + 1).pow_int(-n).slice_eta(0, 0) == (ut + 1).pow_int(-n)


def test_determinism():
    a = USeries(trunc=10, terms={k: GaussRational(Fraction(1, k + 1), k)
                                 for k in range(8)})
    b = (one + w).pow_binomial(Fraction(5, 7))
    assert (a * b).coeffs == (a * b).coeffs
    r1 = a * b + a.derivative() * b
    r2 = a * b + a.derivative() * b
    assert r1 == r2 and r1.den == r2.den


@settings(max_examples=60, deadline=None)
@given(nilpotent_useries())
def test_exp_univariate_against_power_sum(t):
    e = t.exp()
    assert e == naive_exp(t)
    assert e * (-t).exp() == t.ring_one()


@settings(max_examples=60, deadline=None)
@given(nilpotent_triseries())
def test_exp_trivariate_against_power_sum(t):
    e = t.exp()
    assert e == naive_exp(t)
    assert e * (-t).exp() == t.ring_one()


@settings(max_examples=60, deadline=None)
@given(nilpotent_useries())
def test_log_inverts_exp(t):
    assert t.exp().log() == t


@settings(max_examples=60, deadline=None)
@given(nilpotent_useries(), fractions, st.integers(-3, 3))
def test_pow_binomial_group_law(t, e, n):
    s = t + 1
    assert s.pow_binomial(e) * s.pow_binomial(-e) == s.ring_one()
    assert s.pow_binomial(n) == s.pow_int(n)


@settings(max_examples=60, deadline=None)
@given(nilpotent_useries(), gauss.filter(lambda q: not q.is_zero()))
def test_invert_unit_is_inverse(t, c):
    s = t + c
    inv = s.invert_unit()
    assert inv.trunc == s.trunc
    assert inv * s == s.ring_one()


@settings(max_examples=60, deadline=None)
@given(useries(), useries(), useries(), gauss, gauss, st.integers(0, 3),
       triseries(), triseries(), triseries())
def test_combine_shifted_matches_ring_ops(base, a, b, ca, cb, shift, tbase, ta, tb):
    want = (base + (a * ca + b * cb).shift_up(shift)).truncate(8)
    assert _combine_shifted(base, shift, [(ca, a), (cb, b)], 8) == want
    # three variables take shift 0
    want = (tbase + ta * ca + tb * cb).truncate((3, 4, 4))
    assert _combine_shifted(tbase, 0, [(ca, ta), (cb, tb)], (3, 4, 4)) == want


def naive_compose(s, t):
    """s(t) by forward powers, t already at the honest composition order."""
    acc = t.ring_one() * s.coeff(0)
    power = t.ring_one()
    for k in range(1, s.trunc):
        power = power * t
        acc = acc + power * s.coeff(k)
    return acc


@settings(max_examples=80, deadline=None)
@given(useries(max_terms=8), nilpotent_useries())
def test_compose_against_power_sum(s, t):
    honest = t if t.is_zero() else t.truncate(s.trunc * t.order())
    assert s.eval_at(t) == naive_compose(s, honest)


def test_trivariate_composition_is_exact_below_trunc_times_valuation():
    s = USeries("w", 4, {0: 2, 1: GaussRational(1, 1), 2: Fraction(1, 3), 3: -5})
    t = TriSeries(("z", "xi", "eta"), (4, 4, 9), {(0, 0, 2): 1, (1, 1, 2): 1})
    out = s.eval_at(t)                       # w^4 and beyond start at eta^8
    assert out.truncs == (4, 4, 8)
    assert out == naive_compose(s, t).truncate((4, 4, 8))


def test_composition_argument_must_be_divisible_by_the_composition_variable():
    s = USeries("w", 4, {1: 1, 2: 1})
    target = TriSeries(("z", "xi", "eta"), (3, 3, 4), {(0, 0, 1): 1, (1, 0, 0): 1})
    mixed = TriSeries(("z", "xi", "eta"), (3, 3, 4), {(1, 0, 1): 1, (0, 1, 0): 1})
    unit = TriSeries(("z", "xi", "eta"), (3, 3, 4), {(0, 0, 0): 1, (0, 0, 1): 1})
    for t in (mixed, unit):                  # z*eta + xi, 1 + eta
        with pytest.raises(DomainError):
            s.eval_at(t)
        with pytest.raises(DomainError):
            target.subst_eta(t)
    with pytest.raises(DomainError):
        s.eval_at(one + w)


def power_table_subst_eta(s, t):
    """sum_j c_j(z, xi) t^j over a table of forward powers of t, on the meet
    of the two boxes: the reference for the Horner ``subst_eta``."""
    truncs = tuple(map(min, s.truncs, t.truncs))
    t = t.truncate(truncs)
    powers = [t.ring_one()]
    acc = TriSeries(t.vars, truncs)
    for (k, l, j), q in s.truncate(truncs).terms():
        while len(powers) <= j:
            powers.append(powers[-1] * t)
        acc = acc + powers[j].mul_monomial(k, l, 0) * q
    return acc


@st.composite
def eta_substitutes(draw, box=(4, 4, 6)):
    """t = g eta^v + ... of eta-valuation v in {1, 2}, on a box at most one
    larger than ``box`` on each axis (so often smaller on some)."""
    v = draw(st.sampled_from((1, 2)))
    tz, tx = draw(st.integers(1, box[0] + 1)), draw(st.integers(1, box[1] + 1))
    te = draw(st.integers(v + 1, box[2] + 1))
    keys = st.tuples(st.integers(0, tz - 1), st.integers(0, tx - 1), st.integers(v, te - 1))
    terms = draw(st.dictionaries(keys, gauss, max_size=5))
    terms[(0, 0, v)] = draw(gauss.filter(lambda q: not q.is_zero()))
    return TriSeries(("z", "xi", "eta"), (tz, tx, te), terms)


@settings(max_examples=80, deadline=None)
@given(triseries(truncs=(4, 4, 6), max_terms=8), eta_substitutes(),
       st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6)), gauss)
def test_subst_eta_against_power_table(s, t, low, q):
    got = s.subst_eta(t)
    assert got == power_table_subst_eta(s, t)
    assert got.truncs == tuple(map(min, s.truncs, t.truncs))
    assert TriSeries(s.vars, s.truncs).subst_eta(t) == TriSeries(t.vars, got.truncs)
    # truncation honesty: both operands cut to a lower box give the cut result
    assert s.truncate(low).subst_eta(t.truncate(low)) == got.truncate(low)
    if not q.is_zero():
        free = t + TriSeries.monomial(0, 0, 0, q, t.vars, t.truncs)
        with pytest.raises(DomainError):
            s.subst_eta(free)


@settings(max_examples=60, deadline=None)
@given(coordinate_useries())
def test_reversion_inverts_composition(g):
    h = reversion(g)
    w_h = USeries.monomial(1, 1, "w", h.trunc)
    assert g.eval_at(h) == w_h
    assert h.eval_at(g) == w_h


def test_exp_grades_z_free_arguments_by_total_degree():
    t = TriSeries(("z", "xi", "eta"), (3, 3, 4),
                  {(0, 0, 1): 1, (0, 1, 0): GaussRational(0, 1), (1, 0, 2): 2})
    assert t.exp() == naive_exp(t)
    assert t.exp().coeff(0, 0, 3) == GaussRational(Fraction(1, 6))


# -- sympy cross-check ----------------------------------------------------

def _sym(q):
    import sympy
    return sympy.Rational(q.re.numerator, q.re.denominator) + \
        sympy.I * sympy.Rational(q.im.numerator, q.im.denominator)


def _sample_args(seed):
    """A univariate and a trivariate argument; odd seeds have no z-free term."""
    rng = random.Random(seed)

    def q():
        return GaussRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    uni = USeries("w", 7, {d: q() for d in range(1, 4)})
    keys = [(rng.randrange(seed % 2, 3), rng.randrange(3), rng.randrange(1, 4))
            for _ in range(4)]
    tri = TriSeries(("z", "xi", "eta"), (3, 3, 4), {key: q() for key in keys})
    return uni, tri


@pytest.mark.parametrize("seed", range(3))
def test_exp_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    uni, tri = _sample_args(seed)

    x = sympy.Symbol("w")
    arg = sum(_sym(q) * x ** d for d, q in uni.terms())
    ref = sympy.series(sympy.exp(arg), x, 0, uni.trunc).removeO()
    ref = sympy.Poly(sympy.expand(ref), x)
    e = uni.exp()
    for d in range(uni.trunc):
        assert sympy.expand(ref.coeff_monomial(x ** d) - _sym(e.coeff(d))) == 0

    z, xi, eta = sympy.symbols("z xi eta")
    tz, tx, te = tri.truncs

    def cut(expr):
        terms = sympy.Poly(sympy.expand(expr), z, xi, eta).terms()
        return sum((c * z ** k * xi ** l * eta ** j for (k, l, j), c in terms
                    if k < tz and l < tx and j < te), sympy.Integer(0))
    arg = sum(_sym(q) * z ** k * xi ** l * eta ** j for (k, l, j), q in tri.terms())
    acc = power = sympy.Integer(1)
    for n in range(1, tri.total_degree_cap() + 1):
        power = cut(power * arg) / n
        acc += power
    ref = sympy.Poly(sympy.expand(acc), z, xi, eta)
    e = tri.exp()
    for k in range(tz):
        for l in range(tx):
            for j in range(te):
                want = ref.coeff_monomial(z ** k * xi ** l * eta ** j)
                assert sympy.expand(want - _sym(e.coeff(k, l, j))) == 0


def _sympy_coeffs(expr, x, n):
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(sympy.expand(sympy.series(expr, x, 0, n).removeO()), x)
    return [poly.coeff_monomial(x ** d) for d in range(n)]


def _assert_matches(series, ref):
    import sympy
    assert len(ref) == series.trunc
    for d, want in enumerate(ref):
        assert sympy.expand(want - _sym(series.coeff(d))) == 0


@pytest.mark.parametrize("valuation", (1, 2, 3))
def test_eval_at_against_sympy(valuation):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(valuation)

    def q():
        return GaussRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    s = USeries("w", 6, {d: q() for d in range(6)})
    terms = {d: q() for d in range(valuation + 1, valuation + 4)}
    terms[valuation] = GaussRational(rng.randint(1, 3), rng.randint(-3, 3))
    t = USeries("w", 9, terms)
    x = sympy.Symbol("w")
    ssym = sum(_sym(c) * x ** d for d, c in s.terms())
    tsym = sum(_sym(c) * x ** d for d, c in t.terms())
    comp = s.eval_at(t)
    assert comp.trunc == min(s.trunc * valuation, t.trunc)
    ref = sympy.Poly(sympy.expand(ssym.subs(x, tsym)), x)
    _assert_matches(comp, [ref.coeff_monomial(x ** d) for d in range(comp.trunc)])


@pytest.mark.parametrize("seed", range(3))
def test_univariate_ops_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    uni, _ = _sample_args(seed)
    uni = uni.truncate(6)
    x = sympy.Symbol("w")
    arg = sum(_sym(q) * x ** d for d, q in uni.terms())
    s = uni + 1
    _assert_matches(s.log(), _sympy_coeffs(sympy.log(1 + arg), x, s.trunc))
    for e in (Fraction(-1, 3), Fraction(5, 2)):
        _assert_matches(s.pow_binomial(e),
                        _sympy_coeffs((1 + arg) ** sympy.Rational(e.numerator, e.denominator),
                                      x, s.trunc))
    c = GaussRational(2, -1)
    _assert_matches((uni + c).invert_unit(),
                    _sympy_coeffs(1 / (_sym(c) + arg), x, s.trunc))
    # Lagrange inversion: [w^n] g^(-1) = [z^(n-1)] (z/g(z))^n / n
    g = uni + USeries.monomial(1, c, trunc=uni.trunc) - \
        USeries.monomial(1, uni.coeff(1), trunc=uni.trunc)
    gsym = sum(_sym(q) * x ** d for d, q in g.terms())
    h = reversion(g)
    ref = [sympy.Integer(0)] + [
        _sympy_coeffs(sympy.cancel((x / gsym) ** n), x, n)[n - 1] / n
        for n in range(1, h.trunc)]
    _assert_matches(h, ref)


def _laurent_sample(rng, q, v):
    """A Laurent series with lowest degree v, known below a degree 1 to 5 past v."""
    trunc = v + rng.randint(1, 5)
    terms = {d: q() for d in range(v + 1, trunc) if rng.random() < 0.7}
    terms[v] = GaussRational(rng.randint(1, 3), rng.randint(-3, 3))
    p = max(-v, 0)
    return ULaurent(USeries("w", trunc + p, {d + p: c for d, c in terms.items()}), p)


def _product_trunc(a, b):
    """min(t1 - p2, t2 - p1): where a product of two Laurent series stops being exact."""
    return min(a.trunc - b.pole, b.trunc - a.pole)


def _power_trunc(s, n):
    """The truncation of s**n by the product rule, multiplying by s n - 1 times."""
    t = s.trunc
    for k in range(1, n):
        t = min(t - s.pole, s.trunc - k * s.pole)
    return t


def _assert_laurent_matches(got, expr, trunc):
    """got is known below ``trunc`` and agrees there with the expansion of expr."""
    import sympy
    x = sympy.Symbol("w")
    low = -16                                   # below every pole the samples reach
    assert got.trunc == trunc
    ref = _sympy_coeffs(expr * x ** -low, x, trunc - low) if trunc > low else []
    for d, want in enumerate(ref, low):
        assert sympy.expand(want - _sym(got.coeff(d))) == 0, d


@pytest.mark.parametrize("seed", range(8))
def test_laurent_ops_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)

    def q():
        return GaussRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    # lowest degrees -4..2, so poles 0..4
    a = _laurent_sample(rng, q, seed % 7 - 4)
    b = _laurent_sample(rng, q, rng.randint(-4, 2))
    x = sympy.Symbol("w")
    asym = sum(_sym(c) * x ** d for d, c in a.terms())
    bsym = sum(_sym(c) * x ** d for d, c in b.terms())
    inv = a.invert()
    ops = {
        "add": (lambda s, t: s + t, asym + bsym, min(a.trunc, b.trunc)),
        "sub": (lambda s, t: s - t, asym - bsym, min(a.trunc, b.trunc)),
        "mul": (lambda s, t: s * t, asym * bsym, _product_trunc(a, b)),
        "derivative": (lambda s, t: s.derivative(), sympy.diff(asym, x), a.trunc - 1),
        "invert": (lambda s, t: s.invert(), 1 / asym, a.trunc - 2 * a.order()),
    }
    for n in (1, 2, 3):
        ops[f"pow{n}"] = (lambda s, t, n=n: s.pow_int(n), asym ** n, _power_trunc(a, n))
        ops[f"pow{-n}"] = (lambda s, t, n=n: s.pow_int(-n), asym ** -n,
                           _power_trunc(inv, n))
    for name, (op, expr, trunc) in ops.items():
        got = op(a, b)
        _assert_laurent_matches(got, expr, trunc)
        # honest truncation: inputs known to fewer terms give a prefix of got
        cut_a = a.truncate(rng.randint(a.order() + 1, a.trunc))
        cut_b = b.truncate(rng.randint(b.order() + 1, b.trunc))
        cut = op(cut_a, cut_b)
        assert cut.trunc <= got.trunc and cut == got.truncate(cut.trunc), name
