"""Outside-in per-layer tracing of entroscope, for the traced benchmark run.

Layers are entroscope's modules.  Every public function of a layer is
wrapped by rebinding it in every `entroscope.*` namespace that holds it
(entropy, for one, imports `hermitian_eigenvalues` by name), and the two
methods `PureState.to_density` and `DensityOperator.validate_psd` are
wrapped on their classes.  Nothing in the program changes; uninstall()
puts every original back.

Each call records a span (invocation, id, parent, name, start, end) in
memory.  A span's self time is its duration minus its direct children's,
which, on one thread, is the part of its interval no child covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "entropy", "states", "measurement", "scenarios", "report", "cli")
METHODS = (("linalg", "PureState", "to_density"), ("linalg", "DensityOperator", "validate_psd"))


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"entroscope.{layer}") for layer in LAYERS}
        self.spans: list[tuple] = []
        self.invocation = 0
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []
        probes = {
            "linalg.hermitian_eig": self._probe_eig,
            "linalg.partial_trace": self._probe_density,
            "linalg.PureState.to_density": self._probe_density,
            "measurement.sample_records": self._probe_records,
        }
        self.names: list[str] = []
        # id(original) -> (original, wrapper); the identity check guards id reuse
        self._functions: dict[int, tuple] = {}
        for layer, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    self.names.append(name)
                    self._functions[id(fn)] = (fn, self._wrap(name, fn, probes.get(name)))
        self._methods = []
        for layer, cls_name, meth in METHODS:
            owner = getattr(self.modules[layer], cls_name)
            fn = vars(owner)[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self.names.append(name)
            self._methods.append((owner, meth, fn, self._wrap(name, fn, probes.get(name))))

    def _wrap(self, name, fn, probe):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.invocation, sid, parent, name, start, end))
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _probe_eig(self, args, result) -> None:
        self.counters["linalg.eig_dim_max"] = max(self.counters["linalg.eig_dim_max"], len(args[0]))

    def _probe_density(self, args, result) -> None:
        # partial_trace hands back its input when nothing is traced out
        if not args or result is not args[0]:
            self.counters["linalg.density_bytes_computed"] += 16 * result.dim**2

    def _probe_records(self, args, result) -> None:
        self.counters["measurement.records_built"] += len(result)

    @staticmethod
    def _namespaces():
        return [m for n, m in list(sys.modules.items())
                if n == "entroscope" or n.startswith("entroscope.")]

    def install(self) -> None:
        for mod in self._namespaces():
            for attr, value in list(vars(mod).items()):
                hit = self._functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        for owner, meth, fn, wrapper in self._methods:
            setattr(owner, meth, wrapper)
            self._patched.append((owner, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def missed(self) -> list[str]:
        """Public functions or methods still reachable unwrapped; [] when installed."""
        out = []
        for mod in self._namespaces():
            for attr, value in vars(mod).items():
                hit = self._functions.get(id(value))
                if hit is not None and hit[0] is value:
                    out.append(f"{mod.__name__}.{attr}")
        out += [f"{owner.__name__}.{meth}" for owner, meth, _, wrapper in self._methods
                if vars(owner)[meth] is not wrapper]
        return out

    def take(self) -> tuple[list[tuple], dict[str, float]]:
        """Hand over the spans recorded so far and their per-layer metrics, then reset."""
        spans, self.spans[:] = list(self.spans), []
        counters = dict(self.counters)
        self.counters.clear()
        return spans, layer_metrics(self.names, spans, counters)


def layer_metrics(names, spans, counters) -> dict[str, float]:
    """`<name>.calls` and `<name>.self_s` for every traced name, plus the counters."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    calls: dict[str, int] = dict.fromkeys(names, 0)
    self_ns: dict[str, int] = dict.fromkeys(names, 0)
    for _, sid, _, name, start, end in spans:
        calls[name] += 1
        self_ns[name] += end - start - child_ns[sid]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for key in ("linalg.eig_dim_max", "linalg.density_bytes_computed", "measurement.records_built"):
        out[key] = counters.get(key, 0)
    out["trace.spans"] = len(spans)
    return out


def write_spans(path, header: dict, spans) -> None:
    """One JSON header line, then one [invocation, id, parent, name, start_ns, end_ns] per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
