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
