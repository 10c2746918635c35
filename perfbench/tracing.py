"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps public functions and methods of the locop
modules for the duration of a ``with`` block.  A wrapped name is replaced
at every binding inside locop (``lower_constant`` is imported by name into
``kernelop`` and ``synthesis``, ``linprog`` is bound in ``stability``), so a
call is traced whichever module makes it.  Each call records a span
(name, start, end, parent) in memory, plus the counters listed below;
``layer_metrics`` reduces the spans to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); an attribute "Class.method" wraps a method.
# Several entry points may share one span name: nested spans of one name are
# counted once, by their outermost span.
TARGETS = [
    ("locop.lattice", "IndexSet.__init__", "lattice.index_set"),
    ("locop.stability", "density_check", "lattice.density_check"),
    ("locop.matalg", "LocalizedMatrix.__init__", "matalg.localized_matrix"),
    ("locop.matalg", "LocalizedMatrix.from_json_dict", "matalg.localized_matrix"),
    ("locop.matalg", "LocalizedMatrix.window_prefix", "matalg.localized_matrix"),
    ("locop.matalg", "LocalizedMatrix.from_dense", "matalg.localized_matrix"),
    ("locop.matalg", "schur_norm", "matalg.norms"),
    ("locop.matalg", "sjostrand_norm", "matalg.norms"),
    ("locop.matalg", "slant_norm", "matalg.norms"),
    ("locop.profiles", "gauss_legendre_integral", "profiles.gauss_legendre_integral"),
    ("locop.profiles", "Profile1D.cell_averages", "profiles.cell_averages"),
    ("locop.profiles", "Profile1D.modulus_of_continuity", "profiles.modulus_of_continuity"),
    ("locop.synthesis", "GeneratorFamily.validate", "synthesis.family_validate"),
    ("locop.synthesis", "discretize_synthesis", "synthesis.discretize_synthesis"),
    ("locop.synthesis", "synthesis_stability", "synthesis.synthesis_stability"),
    ("locop.stability", "lower_constant", "stability.lower_constant"),
    ("locop.stability", "upper_constant", "stability.upper_constant"),
    ("locop._accel", "descend_lp", "stability.descend_lp"),
    ("locop.stability", "linprog", "stability.linprog"),
    ("locop.stability", "inverse_decay_profile", "stability.inverse_decay_profile"),
    ("locop.kernelop", "KernelOperator.validate", "kernelop.validate"),
    ("locop.kernelop", "discretize_kernel", "kernelop.discretize_kernel"),
    ("locop.kernelop", "apply_discretized", "kernelop.apply_discretized"),
    ("locop.cli", "_load_json", "cli.load"),
    ("locop.cli", "_load_matrix", "cli.load"),
    ("locop.lattice", "IndexSet.from_json_dict", "cli.load"),
    ("locop.synthesis", "GeneratorFamily.from_json_dict", "cli.load"),
    ("locop.kernelop", "KernelOperator.from_json_dict", "cli.load"),
    ("locop.reporting", "validate_report", "reporting.validate_report"),
    ("locop.reporting", "write_report", "reporting.emit"),
    ("locop.reporting", "write_csv", "reporting.emit"),
    ("locop.reporting", "write_atomic", "reporting.write_atomic"),
]

_METHOD_KEYS = {"singular-value": "singular_value", "orthant-lp": "orthant_lp",
                "face-lp": "face_lp", "multistart": "multistart"}


class Tracer:
    """In-memory span recorder; one instance per traced repetition."""

    def __init__(self):
        # span: [name, start, end, parent index, nested-in-same-name]
        self.spans: list = []
        self._stack: list = []
        self._open_names: dict = {}
        self.counts = {f"stability.lower_constant.{k}.calls": 0
                       for k in _METHOD_KEYS.values()}
        self.counts.update({"stability.descend_lp.starts": 0,
                            "stability.linprog.failed": 0,
                            "reporting.bytes_written": 0})
        self.scales: set = set()

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        depth = self._open_names.get(name, 0)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, depth > 0])
        self._open_names[name] = depth + 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open_names[span[0]] -= 1
        self._stack.pop()

    # -- counters at the same boundaries -------------------------------------
    def _count(self, name: str, args, result) -> None:
        if name == "stability.lower_constant":
            key = _METHOD_KEYS.get(result.method)
            if key is not None:
                self.counts[f"stability.lower_constant.{key}.calls"] += 1
        elif name == "stability.descend_lp":
            self.counts["stability.descend_lp.starts"] += int(args[1].shape[0])
        elif name == "stability.linprog":
            self.counts["stability.linprog.failed"] += int(result.status != 0)
        elif name == "reporting.write_atomic":
            self.counts["reporting.bytes_written"] += len(args[1])
        elif name in ("kernelop.discretize_kernel", "kernelop.apply_discretized"):
            self.scales.add(int(args[1]))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, result)
            return result
        return traced

    # -- installation --------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every target at every binding; restore them on exit."""
        undo = []
        try:
            for module, attr, name in TARGETS:
                mod = importlib.import_module(module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    setattr(cls, meth, new)
                    undo.append((cls, meth, raw))
                    continue
                orig = getattr(mod, attr)
                new = self.wrap(name, orig)
                for mname, m in list(sys.modules.items()):
                    if m is None or not (mname == "locop" or mname.startswith("locop.")):
                        continue
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, new)
                            undo.append((m, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- reduction -----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Busy time and call counts per span name, plus the counters."""
        busy: dict = {}
        calls: dict = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
            if not nested:
                busy[name] = busy.get(name, 0.0) + dur
                calls[name] = calls.get(name, 0) + 1
        self_time: dict = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)

        def s(name):
            return busy.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        reuse_calls = n("kernelop.apply_discretized") + n("kernelop.discretize_kernel")
        m = {
            "lattice.index_set.calls": n("lattice.index_set"),
            "lattice.index_set.s": s("lattice.index_set"),
            "lattice.density_check.s": s("lattice.density_check"),
            "matalg.localized_matrix.calls": n("matalg.localized_matrix"),
            "matalg.localized_matrix.s": s("matalg.localized_matrix"),
            "matalg.norms.s": s("matalg.norms"),
            "profiles.gauss_legendre_integral.calls": n("profiles.gauss_legendre_integral"),
            "profiles.gauss_legendre_integral.s": s("profiles.gauss_legendre_integral"),
            "profiles.cell_averages.s": s("profiles.cell_averages"),
            "profiles.modulus_of_continuity.calls": n("profiles.modulus_of_continuity"),
            "profiles.modulus_of_continuity.s": s("profiles.modulus_of_continuity"),
            "synthesis.family_validate.s": s("synthesis.family_validate"),
            "synthesis.discretize_synthesis.s": s("synthesis.discretize_synthesis"),
            "synthesis.synthesis_stability.self_s":
                self_time.get("synthesis.synthesis_stability", 0.0),
            "stability.lower_constant.s": s("stability.lower_constant"),
            "stability.upper_constant.s": s("stability.upper_constant"),
            "stability.descend_lp.s": s("stability.descend_lp"),
            "stability.linprog.calls": n("stability.linprog"),
            "stability.linprog.s": s("stability.linprog"),
            "stability.inverse_decay_profile.s": s("stability.inverse_decay_profile"),
            "kernelop.validate.s": s("kernelop.validate"),
            "kernelop.discretize_kernel.s": s("kernelop.discretize_kernel"),
            "kernelop.apply_discretized.calls": n("kernelop.apply_discretized"),
            "kernelop.apply_discretized.s": s("kernelop.apply_discretized"),
            "kernelop.scale_reuse_share":
                len(self.scales) / reuse_calls if reuse_calls else 0.0,
            "cli.load.s": s("cli.load"),
            "reporting.validate_report.s": s("reporting.validate_report"),
            "reporting.emit.s": s("reporting.emit"),
        }
        m.update(self.counts)
        return m

    def dump(self) -> dict:
        """Spans as {"names": [...], "spans": [[name index, start s, end s,
        parent index], ...]}, times relative to the first span."""
        names = sorted({sp[0] for sp in self.spans})
        code = {nm: k for k, nm in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"names": names,
                "spans": [[code[nm], round(a - t0, 9), round(b - t0, 9), par]
                          for nm, a, b, par, _ in self.spans]}
