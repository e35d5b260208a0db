"""What the benchmark's tracer (``perfbench/tracer.py``) needs of the package.

The tracer wraps series operations by attribute name in each class's
own ``__dict__`` and the kernels as attributes of ``segreode.backend``;
a rename here would otherwise surface only when the benchmark runs with
``--trace 1``.  The tracer source is parsed, not imported or executed.
"""

import ast
from pathlib import Path

from segreode import backend, series

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
