"""Spans around calls into the package's public functions, and the
per-layer metrics derived from them.

`Tracer.install()` replaces each traced function, in every loaded
`qkalman` module namespace that refers to it, by a wrapper that records
a span (name, start, end, parent) and a few attributes of the call. The
program's own files are not changed; the wrappers live here. Spans stay
in memory until the run ends. A layer's self time is the time of its
spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs; a span is named "<module>.<function>"
TARGETS = [
    ("kalman", "q_filter_run"),
    ("kalman", "q_predict_state"),
    ("kalman", "q_predict_cov"),
    ("kalman", "q_gain"),
    ("kalman", "q_update_state"),
    ("kalman", "q_update_cov"),
    ("tensor_ops", "compact_operator"),
    ("block_encoding", "decode"),
    ("inversion", "inverse_poly"),
    ("inversion", "solve_phase_factors"),
    ("inversion", "be_invert"),
    ("sampling", "exact_amplitudes"),
    ("sampling", "pooled_report"),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []
        self._phases_seen: dict[int, object] = {}  # id -> result, kept alive

    def _attrs(self, name, args, kwargs, result) -> dict:
        """Counts taken at the call boundary, from arguments and results."""
        if name == "block_encoding.decode":
            be = _arg(args, kwargs, 0, "be")
            return {"qubits": be.nqubits, "columns": 2**be.system_qubits}
        if name == "sampling.exact_amplitudes":
            be = _arg(args, kwargs, 0, "be")
            return {"qubits": be.nqubits, "columns": 1}
        if name == "sampling.pooled_report":
            amps = _arg(args, kwargs, 0, "amplitudes")
            return {"outcomes": int(amps.size), "draws": result.iterations,
                    "shots": result.total}
        if name == "inversion.inverse_poly":
            return {"degree": result.degree}
        if name == "inversion.solve_phase_factors":
            # a cache hit hands back an object returned before
            cold = id(result) not in self._phases_seen
            self._phases_seen[id(result)] = result
            return {"cold": cold, "iterations": result.iterations if cold else 0}
        return {}

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # recursive calls (compact_operator) belong to the outer span
            if self._open and self.spans[self._open[-1]].name == name:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name,
                        self._open[-1] if self._open else None, time.perf_counter())
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.attrs = self._attrs(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "qkalman" or key.startswith("qkalman.")]
        for layer, fname in TARGETS:
            original = getattr(sys.modules[f"qkalman.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self) -> list:
        """Spans as [id, name, parent, start, end] rows, times from the first start."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.id, s.name, s.parent, s.start - t0, s.end - t0]
                for s in self.spans]

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics; times and counts are per round."""
        self_time: dict[str, float] = {}
        calls: dict[str, list[Span]] = {}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        for s in self.spans:
            self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start) - child_time[s.id]
            calls.setdefault(s.name, []).append(s)

        def t(*names):
            return sum(self_time.get(n, 0.0) for n in names) / rounds

        def total(name, key):
            return sum(s.attrs[key] for s in calls.get(name, [])) / rounds

        def peak(names, key):
            return max((s.attrs[key] for n in names for s in calls.get(n, [])), default=0)

        readout = ("sampling.exact_amplitudes", "block_encoding.decode")
        pooled_s = t("sampling.pooled_report")
        statevector_mb = max(
            (2**s.attrs["qubits"] * s.attrs["columns"] * 16 / 2**20
             for n in readout for s in calls.get(n, [])), default=0.0)
        return {
            "kalman.predict_s": (t("kalman.q_predict_state", "kalman.q_predict_cov"), "s"),
            "kalman.gain_s": (t("kalman.q_gain"), "s"),
            "kalman.update_s": (t("kalman.q_update_state", "kalman.q_update_cov"), "s"),
            "kalman.filter_run_self_s": (t("kalman.q_filter_run"), "s"),
            "tensor_ops.compact_s": (t("tensor_ops.compact_operator"), "s"),
            "tensor_ops.compact_calls": (len(calls.get("tensor_ops.compact_operator", [])) / rounds, "count"),
            "tensor_ops.readout_qubits": (peak(readout, "qubits"), "count"),
            "tensor_ops.statevector_mb": (statevector_mb, "MB_computed"),
            "block_encoding.decode_s": (t("block_encoding.decode"), "s"),
            "block_encoding.decode_columns": (total("block_encoding.decode", "columns"), "count"),
            "inversion.inverse_poly_s": (t("inversion.inverse_poly"), "s"),
            "inversion.solve_phase_s": (t("inversion.solve_phase_factors"), "s"),
            "inversion.be_invert_s": (t("inversion.be_invert"), "s"),
            "inversion.newton_iterations": (total("inversion.solve_phase_factors", "iterations"), "count"),
            "inversion.cold_solves": (total("inversion.solve_phase_factors", "cold"), "count"),
            "inversion.degree_max": (peak(["inversion.inverse_poly"], "degree"), "count"),
            "sampling.pooled_report_s": (pooled_s, "s"),
            "sampling.exact_amplitudes_s": (t("sampling.exact_amplitudes"), "s"),
            "sampling.draws": (total("sampling.pooled_report", "draws"), "count"),
            "sampling.outcomes_per_draw": (peak(["sampling.pooled_report"], "outcomes"), "count"),
            "sampling.shots_per_s": (total("sampling.pooled_report", "shots") / pooled_s
                                     if pooled_s > 0 else 0.0, "1/s"),
        }

