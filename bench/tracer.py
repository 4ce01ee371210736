"""Spans around calls into toricfloer's layers, installed from outside.

The modules import names from one another directly (`cli.hf_rank`,
`floer.disc_areas`, `potential.is_balanced`, ...), so a wrapper must
replace the function object in every `toricfloer.*` namespace that bound
it; two methods are patched on their classes. Spans stay in memory while
the run lasts and are reduced (and written, if asked) when it ends.
`uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from importlib import import_module

# (metric prefix, module, attribute path). The metric prefix is
# <module>.<function>; chains keeps its class name as the satellite names it.
LAYERS = (
    ("cli.main", "toricfloer.cli", "main"),
    ("cli.cmd_analyze", "toricfloer.cli", "cmd_analyze"),
    ("cli.cmd_scan", "toricfloer.cli", "cmd_scan"),
    ("cli.render_novikov", "toricfloer.cli", "render_novikov"),
    ("cli.load_from_arg", "toricfloer.cli", "load_from_arg"),
    ("toric.load_toric", "toricfloer.toric", "load_toric"),
    ("toric.make_toric", "toricfloer.toric", "make_toric"),
    ("toric.disc_areas", "toricfloer.toric", "disc_areas"),
    ("toric.area_partition", "toricfloer.toric", "area_partition"),
    ("toric.is_balanced", "toricfloer.toric", "is_balanced"),
    ("potential.find_critical_fiber", "toricfloer.potential", "find_critical_fiber"),
    ("potential.superpotential_derivative", "toricfloer.potential", "superpotential_derivative"),
    ("potential.formal_hessian", "toricfloer.potential", "formal_hessian"),
    ("floer.hf_rank", "toricfloer.floer", "hf_rank"),
    ("floer.differential_matrix", "toricfloer.floer", "differential_matrix"),
    ("floer.obstruction_form", "toricfloer.floer", "obstruction_form"),
    ("floer.apply_differential", "toricfloer.floer", "apply_differential"),
    ("floer.wedge", "toricfloer.floer", "wedge"),
    ("floer.novikov_rank", "toricfloer.floer", "novikov_rank"),
    ("floer.elimination_rank", "toricfloer.floer", "elimination_rank"),
    ("floer.l_product", "toricfloer.floer", "l_product"),
    ("floer.m2_product", "toricfloer.floer", "m2_product"),
    ("novikov.invert", "toricfloer.novikov", "NovikovElement.invert"),
    ("clifford.cl_mul", "toricfloer.clifford", "cl_mul"),
    (
        "chains.ChainAlgebra.chain_map_certificate",
        "toricfloer.chains",
        "ChainAlgebra.chain_map_certificate",
    ),
)

MODULES = ("cli", "toric", "potential", "floer", "novikov", "clifford", "chains")


class Tracer:
    """Record one span per call of each layer function, nested by call stack.

    A span is (layer index, start, end, parent span index or -1, job, error);
    it stays None if a timeout struck inside the wrapper's own bookkeeping.
    """

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_job(self, job: int) -> None:
        """Attribute later spans to job; drop any span a timeout left open."""
        self.job = job
        self._stack.clear()

    # -- install / uninstall ---------------------------------------------

    def _wrap(self, layer: int, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.job, error)

        return traced

    def install(self) -> None:
        for layer, (_name, modname, path) in enumerate(LAYERS):
            module = import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(layer, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name == "toricfloer" or name.startswith("toricfloer."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: layer name, start, end, parent, job, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in filter(None, self.spans):
                layer, start, end, parent, job, error = span
                fh.write(
                    json.dumps([LAYERS[layer][0], start, end, parent, job, error])
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    out = [0.0 if s is None else s[2] - s[1] for s in spans]
    for s in spans:
        if s is not None and s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, jobs: int) -> dict[str, float]:
    """Calls, self seconds and errors per job for every layer, and self
    seconds per job for every module."""
    calls = defaultdict(int)
    errors = defaultdict(int)
    busy = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        if span is None:
            continue
        layer, error = span[0], span[5]
        calls[layer] += 1
        errors[layer] += error
        busy[layer] += self_s
    out: dict[str, float] = {}
    module_busy = dict.fromkeys(MODULES, 0.0)
    for layer, (name, _mod, _path) in enumerate(LAYERS):
        out[f"{name}.calls"] = calls[layer] / jobs
        out[f"{name}.self_s"] = busy[layer] / jobs
        out[f"{name}.errors"] = errors[layer] / jobs
        module_busy[name.split(".")[0]] += busy[layer]
    for module, total in module_busy.items():
        out[f"{module}.self_s"] = total / jobs
    return out
