"""Per-layer tracing of varmms from outside the package.

The package's modules bind each other's functions at import time
(``from .norms import luxemburg`` copies the function into ``verify``), so a
wrapper on the defining module alone misses most calls.  ``Tracer.install``
therefore replaces every module-level reference to a traced function in
every loaded ``varmms`` module, plus the ``MetricMeasureSpace``
constructors and the two scipy entry points the solvers call
(``varmms.gradients.minimize`` and ``varmms.gradients.linprog``).
``Tracer.remove`` puts every original object back.

Spans stay in memory as ``[key, layer, parent, start, end, child_time,
outermost, extra]`` records with parent links; they are aggregated and
written out after the traced pass.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "varmms"
LAYERS = ("space", "exponents", "norms", "gradients", "regularity", "verify",
          "generators", "cli")

# public functions whose metric name differs from the function name
_ALIASES = {
    "gradients.minimal_vector_gradient": "gradients.vector",
    "gradients.minimal_scalar_gradient": "gradients.scalar",
    "gradients.lipschitz_cutoff_gradient": "gradients.cutoff",
    "norms.mixed_norm_lp_lq": "norms.mixed",
    "norms.mixed_norm_lq_lp": "norms.mixed",
    "norms.mixed_norm_lq_lp_constant_q": "norms.mixed",
}

# scipy calls are their own span layer, so gradients.self_s is the time
# spent in varmms' own solver code (the dual-ascent loop, repairs, ...)
_SCIPY = {"minimize": "gradients.scipy_minimize", "linprog": "gradients.scipy_linprog"}

_KEY, _LAYER, _PARENT, _START, _END, _CHILD, _OUTER, _EXTRA = range(8)


def _constraints(args, kwargs, result):
    return result.info.get("constraints", 0)


def _nit(args, kwargs, result):
    return getattr(result, "nit", 0) or 0


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


_EXTRAS = {"gradients.vector": _constraints, "gradients.scalar": _constraints,
           "gradients.scipy_minimize": _nit, "cli.write_atomic": _text_bytes}


class Tracer:
    """Wraps the public functions of every varmms layer while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        extra_of = _EXTRAS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [key, layer, stack[-1] if stack else -1, 0.0, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            depth = active.get(key, 0)
            active[key] = depth + 1
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = end = perf_counter()
                stack.pop()
                active[key] = depth
                rec[_OUTER] = depth == 0
                if rec[_PARENT] >= 0:
                    spans[rec[_PARENT]][_CHILD] += end - rec[_START]
            if extra_of is not None:
                rec[_EXTRA] = extra_of(args, kwargs, result)
            return result

        return traced

    def _targets(self) -> dict:
        """Map id(original) -> (original, replacement) for every traced callable."""
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        repl = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    key = _ALIASES.get(key, key)
                    repl[id(obj)] = (obj, self._wrap(key, layer, obj))
        grad = modules["gradients"]
        for name, key in _SCIPY.items():
            obj = getattr(grad, name)
            repl[id(obj)] = (obj, self._wrap(key, "scipy", obj))
        return repl

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        repl = self._targets()
        sites = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in sites:
            for name, obj in list(vars(mod).items()):
                hit = repl.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        space_cls = sys.modules[f"{PACKAGE}.space"].MetricMeasureSpace
        for name in ("from_points", "from_matrix"):
            original = space_cls.__dict__[name]
            self._patches.append((space_cls, name, original))
            setattr(space_cls, name,
                    classmethod(self._wrap("space.build", "space", original.__func__)))

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Inclusive time and call count per traced key (nested calls of the
        same key are counted once in the time), self time per layer, and the
        summed per-call extras."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for rec in self.spans:
            key, layer = rec[_KEY], rec[_LAYER]
            dur = rec[_END] - rec[_START]
            out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
            if rec[_OUTER]:
                out[f"{key}_s"] = out.get(f"{key}_s", 0.0) + dur
            if layer in LAYERS:
                out[f"{layer}.self_s"] += dur - rec[_CHILD]
            if rec[_EXTRA] is not None:
                out[f"{key}.extra"] = out.get(f"{key}.extra", 0) + rec[_EXTRA]
        return out

    def dump(self, path: str, tag: str) -> None:
        """Append the spans to a gzip file of JSON lines (pass tag, id,
        parent id, key, start, end)."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({"pass": tag, "id": sid, "parent": rec[_PARENT],
                                     "key": rec[_KEY], "start": rec[_START],
                                     "end": rec[_END]}) + "\n")

