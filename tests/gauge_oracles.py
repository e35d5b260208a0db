"""Gauge operations that only the tests use, as oracles for the package.

The package never composes or inverts a gauge, and never recomputes the
Poincare-Dulac conjugation: these check its results from the outside.
"""

from segreode.gauge import ScalarGauge, reversion


def gauge_compose(outer: ScalarGauge, inner: ScalarGauge) -> ScalarGauge:
    """outer after inner: (z, w) -> outer(inner(z, w))."""
    return ScalarGauge(inner.f * outer.f.eval_at(inner.g), outer.g.eval_at(inner.g))


def gauge_inverse(F: ScalarGauge) -> ScalarGauge:
    """F^-1 = (1/f(h), h) with h the compositional inverse of g."""
    ginv = reversion(F.g)
    return ScalarGauge(F.f.eval_at(ginv).invert_unit(), ginv)


def conjugation_residual(sys, pd):
    """A H - w^p H' - H N, identically zero for a correct normalization."""
    H = pd.gauge
    N = pd.normal_form.A
    wp = sys.pole
    lhs = sys.A * H - H.derivative().map(lambda e: e.shift_up(wp)) - H * N
    return lhs.map(lambda e: e.truncate(min(e.trunc, pd.order + 1)))
