"""The names and result fields that ``perfbench/tracing.py`` relies on.

The traced benchmark pass wraps tsmon functions by module attribute and
reads attributes of their results; these tests read its ``WRAPPED`` table
and its ``_attrs`` function as they are, so an API change that would break
that pass fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

from tsmon import specs
from tsmon.monitor import MonitorConfig, TraceEvent, run_trace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    import tsmon.cli  # noqa: F401 - the pass installs its wrappers after this import

    wrapped = _tracing().WRAPPED
    assert wrapped
    for module, attr in wrapped:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_run_trace_result_has_a_log_of_verdicts():
    receiver = specs.load("receiver")
    events = [TraceEvent("r", "msg", "in", None, 0), TraceEvent("r", "ack", "out", None, 1),
              TraceEvent("r", "nak", "in", None, 2), TraceEvent("r", "ack", "out", None, 3)]
    args = (receiver, MonitorConfig(error_bound=0.1, warmup=0), events)
    result = run_trace(*args)
    assert [e.verdict for e in result.log] == ["deviation_high", "illegal", "deviation_high"]
    attrs = _tracing()._attrs("monitor.run_trace", args, result)
    assert attrs == {"events": 4, "illegal": 1, "deviations": 2}
