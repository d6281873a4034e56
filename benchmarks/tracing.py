"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces each layer's public function by a timing wrapper in
every decolab namespace that binds it: `sweep` and `cli` import
`apply_channel` and `build_kraus` by name, and `teleport` calls
`project_measurement` and `fidelity` through its own globals, so patching only
the defining module would miss those calls. A span's self time is its duration
minus the durations of the wrapped calls made inside it. A function that a
later version of the library no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


_signature = functools.cache(inspect.signature)


def _complex_input(fn, args, kwargs, counters):
    h = _signature(fn).bind(*args, **kwargs).arguments["h"]
    if np.any(np.imag(h) != 0):
        counters["linalg.hermitian_eigenvalues.complex_calls"] += 1


def _kraus_terms(fn, args, kwargs, counters):
    """Kraus products the call attempts, and those with no all-zero factor."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    kraus, n_qubits = bound.arguments["kraus"], len(tuple(bound.arguments["qubits"]))
    elements = getattr(kraus, "elements", kraus)
    nonzero = sum(1 for e in elements if np.any(e))
    if getattr(bound.arguments["mode"], "value", None) == "correlated":
        attempted, useful = len(elements), nonzero
    else:
        attempted, useful = len(elements) ** n_qubits, nonzero**n_qubits
    counters["channels.apply_channel.attempted_terms"] += attempted
    counters["channels.apply_channel.useful_terms"] += useful


def _absent_branches(fn, result, counters):
    absent = sum(1 for run in getattr(result, "runs", ()) if run.fidelity is None)
    counters["teleport.run_protocol.absent_branches"] += absent


# (module, attribute, layer name, hook on the arguments, hook on the result)
TARGETS = (
    ("linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", _complex_input, None),
    ("linalg", "lift_operator", "linalg.lift_operator", None, None),
    ("linalg", "partial_trace", "linalg.partial_trace", None, None),
    ("linalg", "partial_transpose", "linalg.partial_transpose", None, None),
    ("channels", "build_kraus", "channels.build_kraus", None, None),
    ("channels", "apply_channel", "channels.apply_channel", _kraus_terms, None),
    ("entanglement", "tripartite_negativity", "entanglement.tripartite_negativity", None, None),
    ("teleport", "run_protocol", "teleport.run_protocol", None, _absent_branches),
    ("teleport", "project_measurement", "teleport.project_measurement", None, None),
    ("teleport", "fidelity", "teleport.fidelity", None, None),
    ("closedform", "ghz_coeffs", "closedform.coeffs", None, None),
    ("closedform", "ghz_like_coeffs", "closedform.coeffs", None, None),
    ("sweep", "run_sweep", "sweep.run_sweep", None, None),
    ("sweep", "formula_diff", "sweep.formula_diff", None, None),
    ("sweep", "emit_csv", "sweep.emit_csv", None, None),
    ("closedform", "DiffLedger.write_csv", "closedform.DiffLedger.write_csv", None, None),
    ("svg", "emit_svg_lineplot", "svg.emit_svg_lineplot", None, None),
    ("runfile", "parse_runfile", "runfile.parse_runfile", None, None),
    ("cli", "main", "cli.main", None, None),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name, _, _ in TARGETS))


class Tracer:
    """Call counts, total and self time per layer, plus hook counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._child_s = []  # time spent in wrapped callees, one slot per open span
        self._patched = []

    def _hook(self, hook, *args) -> None:
        # Hook time is charged to no layer: the enclosing span counts it as a callee's.
        start = time.perf_counter()
        hook(*args, self.counters)
        if self._child_s:
            self._child_s[-1] += time.perf_counter() - start

    def _wrap(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, fn, args, kwargs)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[name] += 1
                self.self_s[name] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
            if after is not None:
                self._hook(after, fn, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "decolab" or n.startswith("decolab.")]
        for module_name, attr, name, before, after in TARGETS:
            owner = sys.modules.get(f"decolab.{module_name}")
            owner_attr = attr
            if "." in attr:
                cls_name, owner_attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, owner_attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, before, after)
            for namespace in [owner] + modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patched.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched.clear()

    def metrics(self, points: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        eig = "linalg.hermitian_eigenvalues"
        out[f"{eig}.complex_calls"] = (self.counters[f"{eig}.complex_calls"], "count")
        out[f"{eig}.calls_per_point"] = (self.calls[eig] / points, "calls/point")
        attempted = self.counters["channels.apply_channel.attempted_terms"]
        useful = self.counters["channels.apply_channel.useful_terms"]
        out["channels.apply_channel.useful_term_ratio"] = (
            useful / attempted if attempted else 0.0,
            "ratio",
        )
        absent = "teleport.run_protocol.absent_branches"
        out[absent] = (self.counters[absent], "count")
        return out
