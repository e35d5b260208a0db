"""The convolution kernel: sparse Cauchy products over Gaussian integers.

Series multiplication is the only hot loop in the package: everything
heavier (exp, log, composition, the Segre solver) reduces to repeated
Cauchy products.  Coefficients arrive as Gaussian-integer pairs
``(a, b)`` meaning ``a + b*i``; the common rational denominator is
handled by the caller, so the kernel is plain integer arithmetic.

Trivariate keys are packed into a single int as
``(k << 42) | (l << 21) | j``; exponents stay far below 2**20, so
packed keys add componentwise without carries.
"""

BACKEND_NAME = "python"

SHIFT1 = 42
SHIFT2 = 21
MASK = (1 << 21) - 1


def mul1(ca, cb, trunc):
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


def mul3(ca, cb, tz, tx, te):
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
