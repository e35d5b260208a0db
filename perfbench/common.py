"""Seeded inputs and the child-process environment shared by the workloads.

Every seed gives the same mix of inputs (the same kinds, orders and
coefficient sizes) with different values, so that run-to-run spread
reflects the machine rather than a change of workload.  All values are
chosen so that every claim the workloads check is mathematically true.
"""

import os
import random
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DEFAULT_SEED = 1

# Nonzero real family parameters with |gamma| <= 2, grouped by
# denominator: coefficient growth, and so cost, follows the denominator.
# The divergence certificate (ratio >= k/4 from k = 10) is a sufficient
# test only: it does not hold for some larger negative integers
# (gamma = -3, -5, -6), so those are outside the set rather than
# expected failures.
GAMMA_GROUPS = [sorted({Fraction(s * n, d) for s in (1, -1) for n in (1, 2)
                        if Fraction(n, d).denominator == d})
                for d in (1, 2, 3)]
GAMMAS = sorted(set().union(*GAMMA_GROUPS))


# z'/z = 2i w^-4 solves the model family exactly when gamma = 0.
RICCATI_WITNESS = "2i*w^-4"


def rng_for(seed, stream):
    return random.Random(f"{seed}:{stream}")


def gamma(rng):
    return rng.choice(GAMMAS)


def _small(rng):
    return rng.choice((-2, -1, 1, 2))


def dense_literals(rng):
    """(a, b, c) coefficient lists with c != 0, as CLI literals."""
    a = [str(_small(rng)) for _ in range(2)]
    b = [str(_small(rng)) for _ in range(3)]
    c = [f"{_small(rng)}{_small(rng):+d}i", str(_small(rng))]
    return ",".join(a), ",".join(b), ",".join(c)


def model_literals(g):
    """The order-four linear model a = 1, b = gamma w^4, c = 0."""
    return "1", f"0,0,0,0,{g}", "0"


def child_env():
    """Environment of a fresh interpreter: sources on the path, no SEGREODE_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEGREODE_")}
    env["PYTHONPATH"] = str(SRC)
    return env
