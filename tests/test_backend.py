from hypothesis import given, settings, strategies as st

from segreode import backend
from segreode.series import pack


def test_kernels_big_integers():
    big = 10**40
    a = {0: (big, -big), 3: (1, big)}
    b = {1: (big, big)}
    assert backend.mul1(a, b, 10) == {1: (2 * big * big, 0),
                                      4: (big - big * big, big + big * big)}
    assert backend.mul1(a, b, 4) == {1: (2 * big * big, 0)}


def test_kernels_big_integers_trivariate():
    big = 10**40
    a = {pack(0, 0, 0): (big, -big), pack(1, 2, 3): (1, big)}
    b = {pack(0, 1, 1): (big, big)}
    assert backend.mul3(a, b, 2, 4, 5) == {pack(0, 1, 1): (2 * big * big, 0),
                                           pack(1, 3, 4): (big - big * big,
                                                           big + big * big)}
    for truncs in ((1, 4, 5), (2, 3, 5), (2, 4, 4)):
        assert backend.mul3(a, b, *truncs) == {pack(0, 1, 1): (2 * big * big, 0)}


def test_kernels_drop_cancelled_terms():
    # (1 + w)(1 - w) = 1 - w^2: the w coefficient cancels and is not stored
    assert backend.mul1({0: (1, 0), 1: (1, 0)}, {0: (1, 0), 1: (-1, 0)}, 3) == \
        {0: (1, 0), 2: (-1, 0)}
    a = {pack(0, 0, 0): (1, 0), pack(0, 0, 1): (0, 1)}
    b = {pack(0, 0, 0): (1, 0), pack(0, 0, 1): (0, -1)}
    assert backend.mul3(a, b, 1, 1, 3) == {pack(0, 0, 0): (1, 0),
                                           pack(0, 0, 2): (1, 0)}


# -- oracle: the all-pairs kernels the truncation-aware ones replaced -------

SHIFT1, SHIFT2, MASK = backend.SHIFT1, backend.SHIFT2, backend.MASK


def all_pairs_mul1(ca, cb, trunc):
    """Univariate Cauchy product of coefficient dicts, degrees < trunc."""
    if len(ca) > len(cb):
        ca, cb = cb, ca
    out = {}
    for da, (ar, ai) in ca.items():
        for db, (br, bi) in cb.items():
            d = da + db
            if d >= trunc:
                continue
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            cur = out.get(d)
            if cur is not None:
                re += cur[0]
                im += cur[1]
            if re or im:
                out[d] = (re, im)
            elif cur is not None:
                del out[d]
    return out


def all_pairs_mul3(ca, cb, tz, tx, te):
    """Trivariate Cauchy product on packed keys, exponents < (tz, tx, te)."""
    if len(ca) > len(cb):
        ca, cb = cb, ca
    out = {}
    for ka, (ar, ai) in ca.items():
        for kb, (br, bi) in cb.items():
            k = ka + kb
            if (k >> SHIFT1) >= tz or ((k >> SHIFT2) & MASK) >= tx or (k & MASK) >= te:
                continue
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            cur = out.get(k)
            if cur is not None:
                re += cur[0]
                im += cur[1]
            if re or im:
                out[k] = (re, im)
            elif cur is not None:
                del out[k]
    return out


# Small coefficients make cancellation to zero common; exponents reach
# past the product box (operands carry larger truncations), land on
# t - 1 exactly, and sit just below the packed-key bound 2**20.  Dense
# operands on a 4x4x4 box fill whole rows, so rows are skipped and cut.
EDGE = backend.MAX_TRUNC
coeffs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
exponents = st.one_of(st.integers(0, 6), st.integers(EDGE - 3, EDGE - 1))
truncs = st.one_of(st.integers(-1, 7), st.integers(EDGE - 3, EDGE))
operand1 = st.dictionaries(exponents, coeffs, max_size=12)
operand3 = st.one_of(
    st.dictionaries(st.builds(pack, exponents, exponents, exponents), coeffs,
                    max_size=24),
    st.dictionaries(st.builds(pack, *[st.integers(0, 3)] * 3), coeffs, max_size=30))


@settings(max_examples=200, deadline=None)
@given(operand1, operand1, truncs)
def test_mul1_matches_all_pairs(ca, cb, trunc):
    assert backend.mul1(ca, cb, trunc) == all_pairs_mul1(ca, cb, trunc)


@settings(max_examples=300, deadline=None)
@given(operand3, operand3, truncs, truncs, truncs)
def test_mul3_matches_all_pairs(ca, cb, tz, tx, te):
    assert backend.mul3(ca, cb, tz, tx, te) == all_pairs_mul3(ca, cb, tz, tx, te)


def test_kernels_edge_boxes():
    one = {pack(0, 0, 0): (1, 0)}
    a = {pack(0, 0, 0): (1, 1), pack(1, 0, 2): (2, 0), pack(0, 1, 1): (0, 3)}
    for box in ((0, 3, 3), (3, -1, 3), (3, 3, 0), (-2, -2, -2)):
        assert backend.mul3(a, a, *box) == {}
    assert backend.mul3(a, one, 1, 1, 1) == {pack(0, 0, 0): (1, 1)}
    assert backend.mul3({}, a, 3, 3, 3) == {} == backend.mul3(a, {}, 3, 3, 3)
    assert backend.mul1({0: (1, 1), 2: (1, 0)}, {0: (1, 0)}, 0) == {}
    assert backend.mul1({}, {0: (1, 0)}, 5) == {}
    top = EDGE - 1
    assert backend.mul3({pack(0, 0, top): (1, 0)}, {pack(0, 0, 0): (2, 0),
                                                   pack(0, 0, 1): (3, 0)}, 1, 1, EDGE) \
        == {pack(0, 0, top): (2, 0)}
