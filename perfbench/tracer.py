"""Span recorder and kernel counters, installed from outside the package.

``Tracer.install`` wraps the public functions of ``segreode.segre``,
``odes``, ``hypersurface``, ``gauge``, ``io`` and ``cli``, the series
operations of ``USeries``/``TriSeries`` and the two kernels reached
through ``segreode.backend``.  A function imported by name elsewhere
(``cli`` and ``gauge`` import ``build_real`` and ``solve_phi``) is
rebound in every importing module and in module-level registries such
as ``cli.VERIFIERS``, so each call is seen whichever binding it goes
through.  ``uninstall`` restores every original.  Nothing under
``src/`` is edited.

Each span records its name, start, end, parent and job id; spans stay
in memory until ``write_spans``.  Times are self times: a span's
duration minus its child spans.  Work the tracer itself does (counting
kept pairs, sizing outputs) is taken out of every layer's self time.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter
from itertools import accumulate, chain
from operator import add

SHIFT1, SHIFT2, MASK = 42, 21, (1 << 21) - 1

LAYER_MODULES = ("odes", "segre", "hypersurface", "gauge", "io", "cli")
SERIES_OPS = {
    "USeries": {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__"),
                "invert_unit": ("invert_unit",), "exp": ("exp",), "log": ("log",),
                "pow_binomial": ("pow_binomial",), "eval_at": ("eval_at",)},
    "TriSeries": {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__"),
                  "exp": ("exp",), "pow_int": ("pow_int",),
                  "invert_unit": ("invert_unit",), "subst_eta": ("subst_eta",)},
}
# Domain stages whose outputs feed series.max_coeff_bits / max_den_bits.
SIZED_LAYERS = ("segre", "hypersurface", "gauge")
KERNELS = ("mul1", "mul3")


def _pair_bits(coeffs):
    return sum(map(int.bit_length, chain.from_iterable(coeffs.values())))


def kept_pairs_1(ca, cb, trunc):
    """Pairs (da, db) with da + db < trunc, without visiting the pairs."""
    hist = [0] * (trunc + 1)
    for d in cb:
        if d < trunc:
            hist[d + 1] += 1
    below = list(accumulate(hist))          # below[n] = #{db < n}
    return sum(below[trunc - d] for d in ca if d < trunc)


def kept_pairs_3(ca, cb, tz, tx, te):
    """Pairs whose packed sum stays inside the box, via 3-D prefix counts."""
    grid = [[[0] * (te + 1) for _ in range(tx)] for _ in range(tz)]
    for key in cb:
        k, l, j = key >> SHIFT1, (key >> SHIFT2) & MASK, key & MASK
        if k < tz and l < tx and j < te:
            grid[k][l][j + 1] += 1
    # afterwards grid[k][l][n] = #{kb : kz <= k, kx <= l, ke < n}
    for k in range(tz):
        plane = grid[k]
        plane[0] = list(accumulate(plane[0]))
        for l in range(1, tx):
            plane[l] = list(map(add, accumulate(plane[l]), plane[l - 1]))
        if k:
            grid[k] = [list(map(add, row, up)) for row, up in zip(plane, grid[k - 1])]
    kept = 0
    for key in ca:
        k, l, j = key >> SHIFT1, (key >> SHIFT2) & MASK, key & MASK
        if k < tz and l < tx and j < te:
            kept += grid[tz - 1 - k][tx - 1 - l][te - j]
    return kept


def series_sizes(obj, depth=0):
    """(terms, max numerator bits, max denominator bits) of every series in obj."""
    if depth > 4 or obj is None or isinstance(obj, (bool, int, str, float)):
        return 0, 0, 0
    coeffs = getattr(obj, "coeffs", None)
    if isinstance(coeffs, dict) and hasattr(obj, "den"):
        bits = max((max(abs(a).bit_length(), abs(b).bit_length())
                    for a, b in coeffs.values()), default=0)
        return len(coeffs), bits, obj.den.bit_length()
    if isinstance(obj, (tuple, list)):
        parts = obj
    elif hasattr(obj, "__dataclass_fields__"):
        parts = [getattr(obj, f) for f in obj.__dataclass_fields__]
    elif hasattr(obj, "body"):                       # ULaurent
        parts = [obj.body]
    elif hasattr(obj, "coefficients"):               # P0Ode
        parts = obj.coefficients()
    else:
        return 0, 0, 0
    terms = cbits = dbits = 0
    for part in parts:
        t, c, d = series_sizes(part, depth + 1)
        terms, cbits, dbits = terms + t, max(cbits, c), max(dbits, d)
    return terms, cbits, dbits


def sizes(obj, **where):
    """A run-record entry: where the series came from, its terms and bits."""
    terms, cbits, dbits = series_sizes(obj)
    return dict(where, terms=terms, coeff_bits=cbits, den_bits=dbits)


class Tracer:
    """In-memory spans plus per-name aggregates for one traced pass."""

    def __init__(self):
        self.job = None
        self.spans = []                 # (name, start, end, parent, job, counts)
        self.stats = {}                 # name -> [calls, self_s, kernel_pairs]
        self.kernel = {k: [0, 0, 0, 0] for k in KERNELS}  # calls, pairs, kept, bits
        self.max_coeff_bits = 0
        self.max_den_bits = 0
        self.io_bytes = 0
        self._stack = []                # [index, name, parent, outermost, child_s, pairs, start]
        self._active = Counter()
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        outermost = not self._active[name]
        self._active[name] += 1
        frame = [idx, name, parent, outermost, 0.0, 0, 0.0]
        self._stack.append(frame)
        frame[6] = time.perf_counter()
        return frame

    def _exit(self, frame, counts=None):
        end = time.perf_counter()
        self._stack.pop()
        idx, name, parent, outermost, child_s, pairs, start = frame
        dur = end - start
        self.spans[idx] = (name, start, end, parent, self.job, counts)
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0]
        st[0] += 1
        st[1] += dur - child_s
        if outermost:
            st[2] += pairs
        self._active[name] -= 1
        if self._stack:
            up = self._stack[-1]
            up[4] += dur
            up[5] += pairs

    def _exclude(self, t0):
        """Charge the tracer's own work since t0 to no layer."""
        if self._stack:
            self._stack[-1][4] += time.perf_counter() - t0

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, sized=False):
        tracer = self
        is_io_dump = name == "io.dumps_canonical"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if sized or is_io_dump:
                t0 = time.perf_counter()
                if is_io_dump:
                    tracer.io_bytes += len(out.encode())
                else:
                    _, c, d = series_sizes(out)
                    tracer.max_coeff_bits = max(tracer.max_coeff_bits, c)
                    tracer.max_den_bits = max(tracer.max_den_bits, d)
                tracer._exclude(t0)
            return out
        return traced

    def _wrap_kernel(self, which, fn):
        tracer = self
        name = "kernel." + which
        kept_fn = kept_pairs_1 if which == "mul1" else kept_pairs_3
        counter = self.kernel[which]

        @functools.wraps(fn)
        def traced(ca, cb, *truncs):
            t0 = time.perf_counter()
            pairs = len(ca) * len(cb)
            kept = kept_fn(ca, cb, *truncs)
            bits = _pair_bits(ca) + _pair_bits(cb)
            counter[0] += 1
            counter[1] += pairs
            counter[2] += kept
            counter[3] += bits
            tracer._exclude(t0)
            frame = tracer._enter(name)
            frame[5] = pairs
            try:
                return fn(ca, cb, *truncs)
            finally:
                tracer._exit(frame, (pairs, kept, bits))
        return traced

    # -- installation --------------------------------------------------

    def _set(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self):
        import importlib

        from segreode import backend, series

        wrapped = {}                                  # original -> wrapper
        for layer in LAYER_MODULES:
            mod = importlib.import_module("segreode." + layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj,
                                              sized=layer in SIZED_LAYERS)
        for cls_name, ops in SERIES_OPS.items():
            cls = getattr(series, cls_name)
            for op, attrs in ops.items():
                w = self._wrap(f"series.{cls_name}.{op}", cls.__dict__[attrs[0]])
                for attr in attrs:
                    self._set(cls, attr, w)
        for which in KERNELS:
            self._set(backend, which, self._wrap_kernel(which, getattr(backend, which)))

        for mod in [m for n, m in sys.modules.items() if n.startswith("segreode.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._set(obj, key, wrapped[val])
        return self

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- results -------------------------------------------------------

    def summary(self):
        """Aggregates as plain JSON data (what a child process hands back)."""
        return {"stats": self.stats, "kernel": self.kernel,
                "max_coeff_bits": self.max_coeff_bits,
                "max_den_bits": self.max_den_bits, "io_bytes": self.io_bytes}

    def merge(self, summary, spans):
        """Fold in the summary and spans of a traced child process."""
        for name, (calls, self_s, pairs) in summary["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0])
            st[0] += calls
            st[1] += self_s
            st[2] += pairs
        for which, counts in summary["kernel"].items():
            self.kernel[which] = [a + b for a, b in zip(self.kernel[which], counts)]
        self.max_coeff_bits = max(self.max_coeff_bits, summary["max_coeff_bits"])
        self.max_den_bits = max(self.max_den_bits, summary["max_den_bits"])
        self.io_bytes += summary["io_bytes"]
        offset = len(self.spans)
        for name, start, end, parent, job, counts in spans:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                               job, counts))

    def counts(self):
        """Everything that must repeat exactly between two traced passes."""
        return {"calls": {n: s[0] for n, s in sorted(self.stats.items())},
                "kernel_pairs": {n: s[2] for n, s in sorted(self.stats.items())},
                "kernel": self.kernel, "max_coeff_bits": self.max_coeff_bits,
                "max_den_bits": self.max_den_bits, "io_bytes": self.io_bytes}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
