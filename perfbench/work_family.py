"""Workload ``family``: the trivariate Segre chain on a truncation ladder.

A job is the whole chain for one datum at one rung, run in-process:
build, structural relations, L2, family solve, inverse-ODE residual,
reality criterion, hypersurface jet, its reality identity, tangency of
the four model fields, and extraction of the classification data; the
full dual family is solved on the rungs where it fits.  Each pass runs
the four data (the sparse linear model and dense data with c != 0 at
m = 1, 2, 3) on every rung, the small rung SMALL_REPEATS times.
"""

from segreode import hypersurface, odes, segre
from segreode.scalars import parse_gauss
from segreode.series import USeries

import common
from tracer import sizes

NAME = "family"
WHY = ("trivariate solves: mul3, TriSeries exp/mul/subst_eta and the Picard "
       "loop do the work; a univariate-only change should leave it unmoved")
IN_PROCESS = True
RUNGS = {"small": (5, 5, 12), "mid": (7, 7, 14), "large": (9, 9, 18)}
DUAL_RUNGS = ("small", "mid")
# Small-rung jobs last tens of milliseconds, where timer noise is
# largest, so each pass runs them this many times.
SMALL_REPEATS = 3


def inputs(seed):
    """[(label, (a, b, c), m)]: the linear model and three dense data."""
    rng = common.rng_for(seed, NAME)
    out = [("model", common.model_literals(common.gamma(rng)), 4)]
    for m in (1, 2, 3):
        out.append((f"dense-m{m}", common.dense_literals(rng), m))
    return out


def prepare(inputs, workdir):
    """In-process workload: nothing to write."""


def _series(literals, trunc):
    return USeries("w", trunc, {d: parse_gauss(tok)
                                for d, tok in enumerate(literals.split(","))})


def _job(rung, truncs, literals, m, linear):
    def run():
        te = truncs[2]
        a, b, c = (_series(x, te) for x in literals)
        datum = segre.RealStructureData(a=a, b=b, c=c, m=m)
        problems = []

        def expect(claim, ok):
            if not ok:
                problems.append(claim)

        ode = segre.build_real(datum)
        expect("structural-relations", not odes.validate_p0(ode))
        expect("semi-invariant-L2", odes.tresse_l2(ode.rhs_poly()).is_zero())
        phi = segre.solve_phi(ode, m, 1, truncs)
        expect("family-residual", segre.family_residual(ode, phi).is_zero())
        expect("reality-check", segre.reality_check(ode, m, truncs=truncs).ok)
        jet = hypersurface.build_hypersurface(phi)
        expect("defining-series-reality", hypersurface.reality_verify(jet).ok)
        verdicts = [hypersurface.tangency_check(jet, X).ok
                    for X in hypersurface.sphere_pushforward_fields()]
        # z -> e^(it) z is a symmetry whenever c = 0 (the ODE is linear
        # in z), so the rotation field must be tangent on the model.
        if linear:
            expect("rotation-field-tangent", verdicts[0])
        back, failures = segre.extract_real(ode)
        expect("classification-roundtrip",
               not failures and back.a == a and back.b == b and back.c == c)
        if rung in DUAL_RUNGS:
            dual = segre.dual_phi_full(phi)
            low = segre.dual_phi_lowjet(phi)
            expect("dual-closed-form", dual.sign == -1 and all(
                dual.phi.slice_eta(*key, var="w").equal_mod(ser)
                for key, ser in low.items()))
        return lambda: (problems, sizes(phi.phi, truncs=list(truncs)))
    return run


def jobs(inputs, workdir, traced=False):
    """One pass: every datum on every rung, smallest rung first."""
    return [(f"{rung}/{label}", rung, _job(rung, truncs, literals, m, m == 4))
            for rung, truncs in RUNGS.items()
            for _ in range(SMALL_REPEATS if rung == "small" else 1)
            for label, literals, m in inputs]
