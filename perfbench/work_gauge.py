"""Workload ``gauge``: the univariate gauge chain on an order ladder.

A chain job, for one gamma at one order, builds the formal fundamental
pair (Poincare-Dulac), the straightening gauge (chi, tau), the pullback
of the model family onto the gamma-family, the pushforward back (which
reverts tau by Newton steps) and the companion gauge.  Small jobs run
the divergence certificate at K = 200, the monodromy at infinity and
the Riccati witness pair.  Nothing here calls the trivariate kernel.
"""

from segreode import gauge, io as segreode_io
from segreode.scalars import GaussRational
from segreode.series import USeries

import common
from tracer import sizes

NAME = "gauge"
WHY = ("univariate series: mul1, USeries log/pow_binomial/eval_at/invert_unit "
       "and reversion, never mul3; a trivariate-only change must show nothing here")
IN_PROCESS = True
RUNGS = {"small": 16, "mid": 32, "large": 48}
DIVERGENCE_TERMS = 200


def inputs(seed):
    """One nonzero real family parameter of each denominator 1, 2, 3.

    Drawing from each group, rather than from all parameters at once,
    gives every seed the same coefficient growth and so the same cost.
    """
    rng = common.rng_for(seed, NAME)
    return [rng.choice(group) for group in common.GAMMA_GROUPS]


def prepare(inputs, workdir):
    """In-process workload: nothing to write."""


def _chain(g, order):
    def run():
        problems = []

        def expect(claim, ok):
            if not ok:
                problems.append(claim)

        fhat, ghat = gauge.formal_fundamental(g, order)
        straight = gauge.gauge_chi_tau(fhat, ghat)
        expect("chi", straight.f.constant_term() == GaussRational(1))
        dev = straight.g - USeries.monomial(1, 1, "w", straight.g.trunc)
        expect("tau", dev.is_zero() or dev.order() >= 5)
        target = gauge.linear_family(g, trunc=order + 4)
        base = gauge.linear_family(0, trunc=order + 4)
        pulled = gauge.transform_ode_by_gauge(base, straight, target=target)
        expect("straightening-pullback", pulled.matches_target())
        pushed = gauge.transform_ode_by_gauge(target, straight, target=base,
                                              direction="pushforward")
        expect("straightening-pushforward", pushed.matches_target())
        comp = gauge.companion_gauge(straight, 4)
        expect("companion", comp.f.equal_mod(straight.f.conjugate(), comp.f.trunc - 1)
               and comp.g.equal_mod(straight.g.conjugate(), comp.g.trunc - 1))
        return lambda: (problems, sizes(straight, order=order))
    return run


def _small_jobs(g):
    def divergence():
        rep = gauge.divergence_report(g, DIVERGENCE_TERMS, 10)
        return lambda: ([] if rep.certificate_ok else ["divergence-certificate"], None)

    def monodromy():
        rep = gauge.monodromy_at_infinity(gauge.to_system(gauge.linear_family(g)))
        return lambda: ([] if rep.trivial else ["trivial-monodromy"], None)

    def riccati():
        p = segreode_io.parse_monomial_expr(common.RICCATI_WITNESS, trunc=16)
        fails = not gauge.riccati_check(gauge.linear_family(g, trunc=16), p).ok
        holds = gauge.riccati_check(gauge.linear_family(0, trunc=16), p).ok
        return lambda: ([c for c, ok in (("riccati-fails-for-gamma", fails),
                                         ("riccati-holds-at-zero", holds)) if not ok],
                        None)

    return [("divergence", divergence), ("monodromy", monodromy), ("riccati", riccati)]


def jobs(inputs, workdir, traced=False):
    """One pass: each gamma up the order ladder, then its small jobs."""
    out = []
    for g in inputs:
        label = str(g)
        for rung, order in RUNGS.items():
            out.append((f"{rung}/gamma={label}", rung, _chain(g, order)))
        for kind, fn in _small_jobs(g):
            out.append((f"{kind}/gamma={label}", None, fn))
    return out
