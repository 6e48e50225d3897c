"""Span recording around the public functions of each ``tsmon`` module.

Wrappers are installed at the names the callers look up: ``cli`` imports
``parse_protocol``, ``validate``, ``build_trs`` and ``export_dot`` by name,
while ``cli``, ``simnet`` and ``monitor`` reach ``monitor``, ``simnet`` and
``semantics`` functions through the module attribute.  Spans stay in memory
as ``(name, start, end, parent, attrs)`` and are written out once, at the
end of the pass.  Attributes (sizes, counts) are computed after the span
closes, so they cost the parent span, not the layer.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

# Span names of the wrapped layer functions, keyed by (module, attribute).
WRAPPED = {
    ("tsmon.cli", "parse_protocol"): "dsl.parse",
    ("tsmon.dsl", "parse_protocol"): "dsl.parse",
    ("tsmon.dsl", "serialize_protocol"): "dsl.serialize",
    ("tsmon.cli", "validate"): "wellformed.validate",
    ("tsmon.cli", "build_trs"): "wellformed.build_trs",
    ("tsmon.cli", "export_dot"): "wellformed.export_dot",
    ("tsmon.monitor", "read_trace"): "monitor.read_trace",
    ("tsmon.monitor", "run_trace"): "monitor.run_trace",
    ("tsmon.monitor", "write_log"): "monitor.write_log",
    ("tsmon.simnet", "run_abp"): "simnet.run",
    ("tsmon.simnet", "run_bitvote"): "simnet.run",
    ("tsmon.simnet", "write_run"): "simnet.write_run",
    ("tsmon.semantics", "step"): "semantics.step",
}

_DEVIATIONS = ("deviation_low", "deviation_high")


def _file_bytes(target) -> int:
    return os.path.getsize(target) if isinstance(target, (str, Path)) else 0


def _attrs(name: str, args, result) -> dict:
    if name == "dsl.parse":
        return {"size": len(args[0])}
    if name == "dsl.serialize":
        return {"size": len(result)}
    if name == "wellformed.validate":
        return {"size": len(args[0].typestate.states), "diagnostics": len(result)}
    if name == "wellformed.export_dot":
        return {"size": len(result)}
    if name == "monitor.read_trace":
        return {"size": _file_bytes(args[0]), "events": len(result)}
    if name == "monitor.run_trace":
        verdicts = [e.verdict for e in result.log]
        return {
            "events": len(args[2]),
            "illegal": verdicts.count("illegal"),
            "deviations": sum(v in _DEVIATIONS for v in verdicts),
        }
    if name == "monitor.write_log":
        return {"size": _file_bytes(args[0])}
    if name == "simnet.run":
        return {"events": sum(len(t) for t in result.traces.values()), "ticks": result.ticks}
    if name == "simnet.write_run":
        out = Path(args[1])
        return {"size": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}
    return {}


class Tracer:
    """Records nested spans; ``parent`` is the index of the enclosing span
    or -1."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if name == "semantics.step":
            # The hot path: keep the wrapper lean.
            def step_wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    spans[idx] = (name, start, clock(), parent, {"failed": 1})
                    raise
                spans[idx] = (name, start, clock(), parent, {"triggered": int(result.triggered)})
                return result

            return step_wrapper

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, {"failed": 1})
                raise
            finally:
                stack.pop()
            end = clock()
            spans[idx] = (name, start, end, parent, _attrs(name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        for (module, attr), name in WRAPPED.items():
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def write(self, path: Path, probe_start: int) -> None:
        """One JSON array per span: name, start, end, parent, attrs, and
        the phase, "pass" or (from index ``probe_start`` on) "probe"."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                phase = "probe" if i >= probe_start else "pass"
                fh.write(json.dumps([*span, phase]) + "\n")
