"""The package's immutable records (``segreode._record.record``)."""

import pytest

from segreode import hypersurface
from segreode._record import record
from segreode.errors import DomainError, StructureError
from segreode.gauge import linear_family
from segreode.hypersurface import (build_hypersurface, sphere_pushforward_fields,
                                   tangency_check)
from segreode.io import Report
from segreode.segre import AdmissiblePhi, solve_phi


@record
class Pair:
    left: int
    right: object = None


@record
class OtherPair:
    left: int
    right: object = None


def test_fields_cannot_be_assigned():
    r = Report("x", "pass")
    with pytest.raises(AttributeError):
        r.status = "fail"
    with pytest.raises(AttributeError):
        Pair(1).left = 2


def test_records_equal_only_their_own_type():
    assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash(Pair(1, 2))
    assert Pair(1) == Pair(left=1, right=None)
    assert Pair(1, 2) != Pair(1, 3)
    for other in ((1, 2), OtherPair(1, 2)):
        assert Pair(1, 2) != other and other != Pair(1, 2)
        assert not Pair(1, 2) == other and not other == Pair(1, 2)
    assert len({Pair(1, 2), Pair(1, 2), OtherPair(1, 2)}) == 2


def test_records_stay_tuples_of_their_fields():
    # the benchmark tracer sizes a record's series through its tuple branch
    r = Report("x", "fail", 3, "w")
    assert isinstance(r, tuple) and tuple(r) == ("x", "fail", 3, "w")
    assert Report._fields == ("claim", "status", "residual_order", "witness")


def test_repr_names_every_field():
    assert repr(Report("x", "pass")) == \
        "Report(claim='x', status='pass', residual_order=None, witness=None)"
    assert repr(Pair(1, "a")) == "Pair(left=1, right='a')"


def test_post_init_errors_propagate():
    with pytest.raises(StructureError, match="bad report status 'maybe'"):
        Report("x", "maybe")
    with pytest.raises(StructureError, match="must carry a witness"):
        Report("x", "fail")
    phi = solve_phi(linear_family(0, trunc=8), 4, 1, (4, 4, 8))
    with pytest.raises(DomainError, match="sign must be"):
        AdmissiblePhi(phi.m, 2, phi.phi)


def test_tangency_context_builds_once_per_jet(monkeypatch):
    built = []
    context = hypersurface._TangencyContext

    def counted(rho):
        built.append(rho)
        return context(rho)

    monkeypatch.setattr(hypersurface, "_TangencyContext", counted)
    phi = solve_phi(linear_family(0, trunc=10), 4, 1, (4, 4, 10))
    jet = build_hypersurface(phi)
    for X in sphere_pushforward_fields():
        assert tangency_check(jet, X).ok
    assert len(built) == 1 and jet.tangency_context is jet.tangency_context
    twin = build_hypersurface(phi)
    assert twin == jet and twin.tangency_context is not jet.tangency_context
    assert len(built) == 2
