"""The convolution kernel: sparse Cauchy products over Gaussian integers.

Series multiplication is the only hot loop in the package: everything
heavier (exp, log, composition, the Segre solver) reduces to repeated
Cauchy products.  Coefficients arrive as Gaussian-integer pairs
``(a, b)`` meaning ``a + b*i``; the common rational denominator is
handled by the caller, so the kernel is plain integer arithmetic.

Trivariate keys are packed into a single int as
``(k << 42) | (l << 21) | j``.  ``TriSeries`` rejects any truncation
above ``MAX_TRUNC = 2**20``, so every stored exponent is below 2**20
and two packed keys add componentwise without carries.

Both kernels reach only the pairs whose sum lands inside the
truncation box.  ``mul1`` sorts one operand by degree and stops at the
first degree past the box.  ``mul3`` groups one operand into rows that
share a (z, xi) prefix, each row sorted by its eta exponent; for every
term of the other operand it stops at the first row whose z exponent
is past the box, skips rows whose xi exponent is, and stops inside a
row at the first eta exponent that is.  A truncation <= 0 gives an
empty product.
"""

BACKEND_NAME = "python"

SHIFT1 = 42
SHIFT2 = 21
MASK = (1 << 21) - 1
MAX_TRUNC = 1 << 20


def mul1(ca, cb, trunc):
    """Univariate Cauchy product of coefficient dicts, degrees < trunc."""
    if len(ca) > len(cb):
        ca, cb = cb, ca
    items = sorted(cb.items())
    out = {}
    get = out.get
    for da, (ar, ai) in ca.items():
        lim = trunc - da
        for db, (br, bi) in items:
            if db >= lim:
                break
            d = da + db
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            cur = get(d)
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
    # Rows come from the smaller operand: grouping is the per-call
    # set-up, and most calls multiply a few terms by many.
    if len(ca) < len(cb):
        ca, cb = cb, ca
    rows = []
    prefix = -1
    for kb, (br, bi) in sorted(cb.items()):
        j = kb & MASK
        if kb - j != prefix:
            prefix = kb - j
            row = []
            rows.append((prefix >> SHIFT1, (prefix >> SHIFT2) & MASK, prefix, row))
        row.append((j, br, bi))
    out = {}
    get = out.get
    for ka, (ar, ai) in ca.items():
        zlim = tz - (ka >> SHIFT1)
        xlim = tx - ((ka >> SHIFT2) & MASK)
        jlim = te - (ka & MASK)
        for zb, xb, prefix, row in rows:
            if zb >= zlim:
                break
            if xb >= xlim:
                continue
            base = ka + prefix
            for j, br, bi in row:
                if j >= jlim:
                    break
                k = base + j
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                cur = get(k)
                if cur is not None:
                    re += cur[0]
                    im += cur[1]
                if re or im:
                    out[k] = (re, im)
                elif cur is not None:
                    del out[k]
    return out
