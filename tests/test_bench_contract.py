"""What the benchmark (``perfbench/``) needs of the package.

The tracer (``perfbench/tracer.py``) wraps series operations by
attribute name in each class's own ``__dict__``, the kernels as
attributes of ``segreode.backend`` and the public functions of each
layer module by name; the workloads (``perfbench/work_*.py``) call the
package by module attribute, and ``perfbench/run.py`` reports per-layer
metrics under the names of those functions.  A rename or a deletion here would
otherwise surface only when the benchmark runs.  The benchmark sources
are parsed, not imported or executed.
"""

import ast
import importlib
from itertools import chain
from pathlib import Path

import pytest

from segreode import backend, gauge, io, series
from segreode.odes import tresse_l2
from segreode.scalars import GaussRational
from segreode.segre import RealStructureData, build_real

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
RUN = PERFBENCH / "run.py"
WORKLOADS = sorted(PERFBENCH.glob("work_*.py"))


def _tracer_constants(*names):
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    values[target.id] = ast.literal_eval(node.value)
    assert set(values) == set(names)
    return values


def test_tracer_names_exist_where_it_wraps_them():
    consts = _tracer_constants("SERIES_OPS", "KERNELS")
    for cls_name, ops in consts["SERIES_OPS"].items():
        own = vars(getattr(series, cls_name))
        for op, attrs in ops.items():
            for attr in attrs:
                assert callable(own.get(attr)), f"{cls_name}.{attr} ({op})"
    assert set(consts["KERNELS"]) >= {"mul1", "mul3"}
    for name in consts["KERNELS"]:
        assert callable(getattr(backend, name)), name


def _segreode_reads(path):
    """Every dotted segreode name that ``path`` imports or reads.

    A name bound by ``import segreode...`` or ``from segreode... import``
    (under its alias, if any) is followed through each attribute chain
    read from it: ``segreode_io.phi_from_json`` reads
    ``segreode.io.phi_from_json``.
    """
    def in_package(module):
        return (module or "").split(".")[0] == "segreode"

    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and in_package(node.module):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if in_package(alias.name):
                    # "import segreode.x" binds segreode, "... as y" binds segreode.x
                    bound[alias.asname or "segreode"] = (alias.name if alias.asname
                                                         else "segreode")
    reads = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id], *reversed(chain)]))
    return reads


def _exists(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_workload_reads_only_names_the_package_has(path):
    reads = _segreode_reads(path)
    assert any(name.count(".") >= 2 for name in reads), "no package attribute read"
    missing = sorted(name for name in reads if not _exists(name))
    assert not missing, f"{path.name} reads {missing}"


def _per_layer_names():
    """Every metric name ``per_layer_spec`` in ``perfbench/run.py`` can report.

    String constants are taken as they are; an f-string inside a
    ``for fn in (...)`` loop or comprehension is expanded over the
    tuple.  F-strings over other names (the tracer's kernels and series
    operations, checked above) are skipped.
    """
    tree = ast.parse(RUN.read_text())
    spec = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "per_layer_spec")
    names = {node.value for node in ast.walk(spec)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    for node in ast.walk(spec):
        if isinstance(node, ast.For):
            loops = [(node.target, node.iter, node.body)]
        elif isinstance(node, ast.ListComp):
            loops = [(gen.target, gen.iter, [node.elt]) for gen in node.generators]
        else:
            continue
        for target, values, body in loops:
            if not (isinstance(target, ast.Name) and isinstance(values, ast.Tuple)):
                continue
            for fstr in (n for stmt in body for n in ast.walk(stmt)
                         if isinstance(n, ast.JoinedStr)):
                fields = [v.value for v in fstr.values if isinstance(v, ast.FormattedValue)]
                if not all(isinstance(f, ast.Name) and f.id == target.id for f in fields):
                    continue
                for value in ast.literal_eval(values):
                    names.add("".join(v.value if isinstance(v, ast.Constant) else value
                                      for v in fstr.values))
    return names


def test_per_layer_metrics_name_functions_the_tracer_wraps():
    layers = _tracer_constants("LAYER_MODULES")["LAYER_MODULES"]
    functions = {".".join(name.split(".")[:2]) for name in _per_layer_names()
                 if name.count(".") >= 2 and name.split(".")[0] in layers}
    assert {"gauge.reversion", "segre.dual_phi_full", "odes.tresse_l2",
            "cli.main"} <= functions
    for name in sorted(functions):
        layer, attr = name.split(".")
        module = importlib.import_module(f"segreode.{layer}")
        fn = getattr(module, attr, None)
        # the tracer wraps a layer's public functions defined in that module
        assert callable(fn) and fn.__module__ == module.__name__, name


def test_univariate_kernel_sees_no_negative_degree(monkeypatch):
    """The tracer's ``kept_pairs_1`` indexes a histogram by degree, so
    ``backend.mul1`` must only get degrees >= 0, Laurent products included."""
    lowest = []
    mul1 = backend.mul1

    def spy(ca, cb, trunc):
        lowest.append(min(chain(ca, cb), default=0))
        return mul1(ca, cb, trunc)
    monkeypatch.setattr(backend, "mul1", spy)
    p = io.parse_monomial_expr("2i*w^-4", trunc=16)
    for g in (0, 1):
        gauge.riccati_check(gauge.linear_family(g, trunc=16), p)
    straight = gauge.gauge_chi_tau(*gauge.formal_fundamental(1, 10))
    base, target = gauge.linear_family(0, trunc=14), gauge.linear_family(1, trunc=14)
    gauge.transform_ode_by_gauge(base, straight, target=target)
    gauge.transform_ode_by_gauge(target, straight, target=base, direction="pushforward")
    ode = build_real(RealStructureData(a=series.USeries.constant(1, "w", 12),
                                       b=series.USeries("w", 12, {1: 1, 4: 1}),
                                       c=series.USeries.constant(GaussRational(1, 1), "w", 12),
                                       m=2))
    tresse_l2(ode.rhs_poly())
    x = series.ULaurent.monomial(-3, 2, trunc=10) + series.ULaurent.monomial(1, 1, trunc=10)
    x.invert()
    x.pow_int(-3)
    assert lowest and min(lowest) >= 0
